"""Conditional Renyi-2 entropy and the one-shot capacity lower bound.

H2(B|F) is the maximum over conditioning states sigma_F of minus the
sandwiched Renyi-2 divergence from I (x) sigma_F.  The supremum for the
strongly entangling unitaries sits on the Bloch boundary (rank-deficient
sigma), so the search ball is capped at radius BLOCH_CAP = 1 - 1e-7, where
the smaller eigenvalue of sigma is 5e-8.  That cap, not the 1e-9 eigenvalue
floor checked at every reported sigma, sets the gap to the supremum: S, D
and DS read log2(1 + BLOCH_CAP) = 0.999999927865 against the supremum 1,
7.2e-8 below it.  rho_BF comes in as a plain 4x4 array and sigma goes out
as its Bloch 3-tuple.

`h2_conditional` evaluates one formula: with F turned into the eigenbasis
of sigma = diag(lam, mu), Tr[rho X rho X] at X = sigma^{-1/2} is
A/lam + B/mu + 2C/sqrt(lam mu), A, B and C block sums of |rho|^2; every
term is non-negative, so nothing cancels at the cap.  Where Z (x) Z leaves
rho_BF invariant, as at the pole probe (0, 0) of every gate (it commutes
with U and fixes the probe), Z on F alone acts on rho_BF as Z on the
reference, which commutes with I (x) X, so the objective is the same at X
and at Z X Z.  It is convex in X (the alpha = 2 case of the joint
convexity of the sandwiched quasi-entropy; Frank & Lieb 2013, Beigi 2013),
and the set Tr X^{-2} <= 1 is convex and closed under that map, so their
mean, the diagonal part of X, does no worse: sigma is diagonal, and with
u = sqrt(mu/lam) the optimum is the one positive root (Descartes) of
A u^4 + C u^3 - C u - B, lam clipped to the cap.  Elsewhere the radius
search gives sigma: the objective is c^T G c, convex in the Pauli
coefficients c of X, so the direction of sigma is solved exactly at each
radius and one 1-D Nelder-Mead finds the radius; c^T G c, a difference of
terms near 1e6 at the cap, only steers it.

`best_probe_h2` takes one solve, on the closed branch, at the probe (0, 0)
on IS and both faces, where the R (x) R that commute with U make H2
constant on orbits of probes that the pole meets; every other gate takes
the 2-D probe search (`_sphere_search`) over a table of rho_BF built from
four probes, whose state at the pole is invariant too.

The capacity lower bound per channel use is h2 - correction/n with
correction = g(sqrt(eps/2) - delta*) + 4 log2(1/delta*) + 2.  delta* is the
stationary point of that correction, found by a fixed-point iteration on
its cancellation-free stationarity condition; the golden-section search it
replaced is kept in tests/oracles.py as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    PROBE_SIMPLEX, ProbeState, choi_bf, once_per_probe, probe_scan, probe_table, stinespring_isometry, table_at,
)
from .linalg import I2, PAULI, kron
from .optimize import check_settings, nelder_mead
from .unitary import UnitaryParams

LAMBDA_FLOOR = 1e-9
BLOCH_CAP = 1.0 - 1e-7
# the sigma search runs over the log-radius x = -ln(1 - |p|) in [0, _X_CAP];
# the seeds cover the interior optima (|p| up to about 0.9) finely and
# include the cap, where the S/D optimum sits
_X_CAP = -math.log(1.0 - BLOCH_CAP)
_RADIAL_SEEDS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, _X_CAP)
_RADIAL_STEP = 0.5
_SECULAR_MAX_ITER = 100
# the pole closed form's root u = sqrt((1 - lam)/lam) at lam = (1 + BLOCH_CAP)/2;
# its inverse is the root at the other end of the cap
_U_CAP = math.sqrt((1.0 - BLOCH_CAP) / (1.0 + BLOCH_CAP))
_EPS = np.finfo(float).eps

# I (x) sigma_k stacked over k = 0..3
_KRON_F = np.stack([kron(I2, s) for s in PAULI])
# the entries of a 4x4 rho_BF that Z (x) Z = diag(1, -1, -1, 1) flips
_ZZ_ODD = ((0, 1), (0, 2), (1, 0), (2, 0), (1, 3), (2, 3), (3, 1), (3, 2))


# nelder_mead's tol and max_iter in the sigma search
DEFAULT_CONFIG = dict(tol=1e-9, max_iter=400)
# staged settings used while scanning and refining probes; the final answer
# is always recomputed at DEFAULT_CONFIG
_COARSE = dict(tol=1e-6, max_iter=120)
_MEDIUM = dict(tol=1e-8, max_iter=250)


@dataclass(frozen=True)
class H2Optimum:
    value: float
    sigma: tuple  # Bloch vector of sigma_F = (I + p.sigma)/2
    converged: bool


@dataclass(frozen=True)
class ProbeOptimum:
    h2: float
    probe: ProbeState
    sigma: tuple
    converged: bool


@dataclass(frozen=True)
class CapacityResult:
    correction: float
    raw_bound: float
    clamped_bound: float


def g_eps(x: float) -> float:
    """g(x) = -log2(1 - sqrt(1 - x^2)) for x in (0, 1], in the stable form
    -log2(x^2 / (1 + sqrt(1 - x^2)))."""
    if x <= 0.0:
        raise ValueError(f"g_eps requires x > 0, got {x!r}")
    if x > 1.0:
        raise ValueError(f"g_eps requires x <= 1, got {x!r}")
    return -math.log2(x * x / (1.0 + math.sqrt(max(1.0 - x * x, 0.0))))


def _collision_gram(rho: np.ndarray) -> np.ndarray:
    # G_kl = Tr[M_k M_l] with M_k = rho (I (x) s_k), whose entries are those
    # of rho moved, signed or times i, so exact; real symmetric
    m = rho @ _KRON_F
    return np.einsum("kab,lba->kl", m, m).real


class _RadialProfile:
    """The sigma objective minimized over directions at each radius.

    With X = sigma^{-1/2} = m I + h n.sigma, where |p| = 1 - e^{-x},
    m = (a + b)/2, h = (a - b)/2 and a, b the inverse square roots of the
    eigenvalues (1 +- |p|)/2, the objective is
    c^T G c = m^2 G00 + 2 m h g.n + h^2 n^T A n, with g = G[0, 1:] and
    A = G[1:, 1:].  At fixed x that is the boundary case of the trust-region
    subproblem in the unit vector n, solved exactly in the eigenbasis of A
    (More & Sorensen 1983).  phi(x), its minimum, is unimodal in x: see
    `_radius_solve`.
    """

    def __init__(self, gram: np.ndarray):
        d, q = np.linalg.eigh(gram[1:, 1:])
        self.q = q.tolist()
        self.g00 = float(gram[0, 0])
        self.d = [float(v) for v in d]
        self.g = (q.T @ gram[0, 1:]).tolist()
        self.e1, self.e2 = self.d[1] - self.d[0], self.d[2] - self.d[0]

    def __call__(self, x: float) -> float:
        """phi at log-radius x; keeps the best direction n, in the
        eigenbasis of A, as self.n."""
        r = -math.expm1(-x)
        # on [0, _X_CAP] both eigenvalues stay above LAMBDA_FLOOR
        a, b = ((1.0 + r) / 2.0) ** -0.5, ((1.0 - r) / 2.0) ** -0.5
        m, h = (a + b) / 2.0, (a - b) / 2.0
        g0, g1, g2 = self.g
        if h == 0.0:
            self.n = n0, n1, n2 = 1.0, 0.0, 0.0
        else:
            t = m / h
            self.n = n0, n1, n2 = _unit_minimizer(self.e1, self.e2, t * g0, t * g1, t * g2)
        d0, d1, d2 = self.d
        gn = g0 * n0 + g1 * n1 + g2 * n2
        an = d0 * n0 * n0 + d1 * n1 * n1 + d2 * n2 * n2
        return m * m * self.g00 + 2.0 * m * h * gn + h * h * an

    def direction(self, x: float) -> tuple:
        """The unit Bloch direction of the best sigma at log-radius x."""
        self(x)
        n0, n1, n2 = self.n
        return tuple([q0 * n0 + q1 * n1 + q2 * n2 for q0, q1, q2 in self.q])


def _unit_minimizer(e1: float, e2: float, w0: float, w1: float, w2: float) -> tuple:
    """Unit vector n minimizing e1 n1^2 + e2 n2^2 + 2 w.n, 0 <= e1 <= e2.

    n_i = -w_i / (mu + e_i), with mu >= 0 the root of |n(mu)| = 1, found by
    Newton's method on the concave 1/|n(mu)| - 1 from the lower end of a
    bracket, with bisection as the safeguard.  In the hard case, w0 = 0
    with |n(0)| <= 1, there is no root and the remaining length goes on the
    lowest eigenvector; w = 0, as at rho = I/4, returns that eigenvector.
    Where rounding leaves w0 tiny but not zero, as at pole probes, vertices
    and product states, the root is tiny and gives the same point.
    """
    hi = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    if hi == 0.0:
        return 1.0, 0.0, 0.0
    lo = abs(w0)
    if lo == 0.0 and (w1 == 0.0 or e1 > 0.0) and (w2 == 0.0 or e2 > 0.0):
        n1 = -w1 / e1 if w1 != 0.0 else 0.0
        n2 = -w2 / e2 if w2 != 0.0 else 0.0
        rest = n1 * n1 + n2 * n2
        if rest <= 1.0:
            return math.sqrt(1.0 - rest), n1, n2
    # at the root no single term, nor |w|^2 / (mu + e2)^2, exceeds 1
    lo = max(lo, abs(w1) - e1, abs(w2) - e2, hi - e2)
    mu = lo if lo > 0.0 else 0.5 * hi
    for _ in range(_SECULAR_MAX_ITER):
        q0, q1, q2 = w0 / mu, w1 / (mu + e1), w2 / (mu + e2)
        s2 = q0 * q0 + q1 * q1 + q2 * q2
        inv = 1.0 / math.sqrt(s2)
        if inv < 1.0:
            lo = mu
        elif inv > 1.0:
            hi = mu
        else:
            break
        s3 = q0 * q0 / mu + q1 * q1 / (mu + e1) + q2 * q2 / (mu + e2)
        new = mu - (inv - 1.0) * s2 / (inv * s3)
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        done = abs(new - mu) <= 4.0 * _EPS * mu
        mu = new
        if done:
            break
    n0, n1, n2 = -w0 / mu, -w1 / (mu + e1), -w2 / (mu + e2)
    nrm = math.sqrt(n0 * n0 + n1 * n1 + n2 * n2)
    return n0 / nrm, n1 / nrm, n2 / nrm


def _radius_solve(rho: np.ndarray, config: dict) -> H2Optimum:
    """H2 of any rho_BF by the radius search at config's tol and max_iter:
    scaling a point of Tr X^{-2} <= 1 out to its boundary lowers the
    objective, so every local minimum on the constraint surface is global,
    and with the directions minimized exactly at each radius
    (`_RadialProfile`) Nelder-Mead over x = -ln(1 - |p|) finds it."""
    phi = _RadialProfile(_collision_gram(rho))
    seeds = [phi(x) for x in _RADIAL_SEEDS]
    x0 = _RADIAL_SEEDS[seeds.index(min(seeds))]  # the first seed of least value
    step = _RADIAL_STEP if x0 + _RADIAL_STEP <= _X_CAP else -_RADIAL_STEP
    res = nelder_mead(lambda v: phi(v[0]), (x0,), step, bounds=(0.0, _X_CAP), **config)
    x = res.x[0]
    r, n = -math.expm1(-x), phi.direction(x)
    # the eigenvalues (1 +- r)/2, the smaller as e^{-x}/2 without cancellation
    return _optimum(_pole_blocks(_eigenbasis(rho.tolist(), n)), (1.0 + r) / 2.0, math.exp(-x) / 2.0,
                    (r * n[0], r * n[1], r * n[2]), res.converged)


def _eigenbasis(rows: list, n: tuple) -> list:
    """The rows of (I (x) W)^dag rho (I (x) W), W's columns the eigenvectors
    e0 = (a, b) and e1 = (-b*, a*) of n.sigma, n a unit vector."""
    nx, ny, nz = n
    s = math.sqrt(2.0 * (1.0 + abs(nz)))
    a, b = ((1.0 + nz) / s, complex(nx, ny) / s) if nz >= 0.0 else (complex(nx, -ny) / s, (1.0 - nz) / s)
    ac, bc = a.conjugate(), b.conjugate()
    # W on the right of each row's F pairs, then W^dag on the left of each F pair of rows
    u0, u1, u2, u3 = [(v0 * a + v1 * b, v1 * ac - v0 * bc, v2 * a + v3 * b, v3 * ac - v2 * bc)
                      for v0, v1, v2, v3 in rows]
    return [[ac * x + bc * y for x, y in zip(u0, u1)], [a * y - b * x for x, y in zip(u0, u1)],
            [ac * x + bc * y for x, y in zip(u2, u3)], [a * y - b * x for x, y in zip(u2, u3)]]


def _pole_blocks(rows) -> tuple:
    """A, B and C of a rho_BF on (reference) (x) F, given by its rows: the
    sums of |rho|^2 over the blocks f = g = 0 and f = g = 1 of the F index,
    and half the sum over f != g, so that Tr[rho X rho X] =
    A/lam + B/mu + 2C/sqrt(lam mu) at X = I (x) diag(lam, mu)^{-1/2}."""
    s00, s01, s02, s03, s10, s11, s12, s13, s20, s21, s22, s23, s30, s31, s32, s33 = [
        v.real * v.real + v.imag * v.imag for row in rows for v in row]
    return (s00 + s02 + s20 + s22, s11 + s13 + s31 + s33,
            0.5 * ((s01 + s03 + s21 + s23) + (s10 + s12 + s30 + s32)))


def _pole_sigma(a: float, b: float, c: float) -> tuple:
    """Eigenvalues lam, mu = 1 - lam and Bloch z = lam - mu of the diagonal
    sigma minimizing a/lam + b/mu + 2c/sqrt(lam mu), |z| <= BLOCH_CAP.

    With u = sqrt(mu/lam) the stationary point is the root of
    f(u) = a u^4 + c u^3 - c u - b, the only positive one (Descartes: one
    sign change).  f is convex on u > 0, and so is the objective in lam,
    so the capped minimizer is the root clipped to [_U_CAP, 1/_U_CAP]: the
    sign of f at either end decides a clip.  Otherwise Newton's method runs
    down from the upper end of the bracket between r = (b/a)^(1/4) and 1
    (f <= a u^4 - b on u <= 1 and f >= a u^4 - b on u >= 1); on a convex f
    its iterates fall monotonically to the root, so it stops when one no
    longer falls, and the lower end of the bracket floors it.
    """
    def f(u):
        return ((a * u + c) * u * u - c) * u - b

    if f(_U_CAP) >= 0.0:
        return (1.0 + BLOCH_CAP) / 2.0, (1.0 - BLOCH_CAP) / 2.0, BLOCH_CAP
    if f(1.0 / _U_CAP) <= 0.0:
        return (1.0 - BLOCH_CAP) / 2.0, (1.0 + BLOCH_CAP) / 2.0, -BLOCH_CAP
    r = (b / a) ** 0.25
    lo, u = max(min(r, 1.0), _U_CAP), min(max(r, 1.0), 1.0 / _U_CAP)
    for _ in range(_SECULAR_MAX_ITER):
        new = max(u - f(u) / ((4.0 * a * u + 3.0 * c) * u * u - c), lo)
        if not new < u:
            break
        u = new
    else:
        raise RuntimeError(f"the pole quartic's Newton iteration did not settle at (A, B, C) = {(a, b, c)!r}")
    lam = 1.0 / (1.0 + u * u)
    mu = u * u * lam
    return lam, mu, lam - mu


def _optimum(blocks: tuple, lam: float, mu: float, sigma: tuple, converged: bool) -> H2Optimum:
    """H2 at the sigma with eigenvalues lam, mu and Bloch vector sigma, from
    rho_BF's block sums in its eigenbasis; both checks are numerical faults."""
    if min(lam, mu) <= LAMBDA_FLOOR:
        raise RuntimeError(f"sigma's eigenvalues {lam!r}, {mu!r} reach the {LAMBDA_FLOOR:.0e} floor")
    a, b, c = blocks
    # 0.0 - log2 is -log2, but keeps an exact 0, as at C, positive
    value = 0.0 - math.log2(a / lam + b / mu + 2.0 * c / math.sqrt(lam * mu))
    if value > 1.0 + 1e-9:
        raise RuntimeError(f"H2 exceeded the dimension bound: {value}")
    return H2Optimum(value=value, sigma=sigma, converged=converged)


def h2_conditional(rho, config: dict = DEFAULT_CONFIG) -> H2Optimum:
    """Maximize -D2(rho || I (x) sigma) over the conditioning Bloch ball.

    A rho_BF whose eight entries that Z (x) Z flips are exactly zero takes
    the pole quartic's root (`_pole_sigma`), any other the radius search at
    config's tol and max_iter (`_radius_solve`); config is checked on both.
    """
    check_settings(**config)
    rho = np.asarray(rho, dtype=complex)
    rows = rho.tolist()
    if any([rows[i][j] for i, j in _ZZ_ODD]):
        return _radius_solve(rho, config)
    blocks = _pole_blocks(rows)
    lam, mu, z = _pole_sigma(*blocks)
    return _optimum(blocks, lam, mu, (0.0, 0.0, z), True)


def delta_star(epsilon: float) -> float:
    """Minimizer of g(s - delta) - 4 log2(delta) on (0, s), s = sqrt(eps/2).

    The objective is unimodal; its stationary point solves the
    cancellation-free delta (1 + 5w) = 4 w s, w = sqrt(1 - (s - delta)^2).
    The map delta <- 4 w s / (1 + 5w) contracts (slope at most 0.02 at the
    root), so iterating it from 2s/3, the small-eps root, settles in at
    most 9 steps; not settling in 50 is a numerical fault.  Within 3e-16
    relative of 60-digit references for eps from 1e-300 to 0.99999.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    s = math.sqrt(epsilon / 2.0)
    delta = 2.0 * s / 3.0
    for _ in range(50):
        w = math.sqrt(1.0 - (s - delta) ** 2)
        new = 4.0 * w * s / (1.0 + 5.0 * w)
        if abs(new - delta) <= 2.0 * _EPS * new:
            return new
        delta = new
    raise RuntimeError(f"delta* did not settle in 50 steps at epsilon = {epsilon!r}")


def correction_bits(epsilon: float) -> float:
    """n-independent penalty g(sqrt(eps/2) - delta*) + 4 log2(1/delta*) + 2."""
    ds = delta_star(epsilon)
    s = math.sqrt(epsilon / 2.0)
    return g_eps(s - ds) + 4.0 * math.log2(1.0 / ds) + 2.0


def one_shot_lower_bound(h2: float, epsilon: float, n: int) -> CapacityResult:
    """Assemble the per-use lower bound h2 - correction/n and its clamp at 0."""
    if not (n >= 1 and n % 1 == 0):  # NaN fails the first test, inf the second
        raise ValueError(f"n must be a positive integer, got {n!r}")
    corr = correction_bits(epsilon)
    raw = h2 - corr / n
    return CapacityResult(correction=corr, raw_bound=raw, clamped_bound=max(0.0, raw))


def _sphere_search(table: np.ndarray) -> ProbeOptimum:
    """The 2-D probe search of a gate on neither face.

    The scan covers the fundamental domain [0, pi/2] x [0, pi) of the
    Klein-four probe images (43 probes, `channel.probe_scan`), each with a
    sigma solve at _COARSE; the probe simplex (`channel.PROBE_SIMPLEX`,
    phi1 held to [0, pi]) refines the first best of them on the whole
    sphere at _MEDIUM, one solve per distinct probe
    (`channel.once_per_probe`), and the final sigma solve at DEFAULT_CONFIG
    gives the answer at the simplex's point.  From the pole (0, 0), where
    the scan starts CD and most interior gates, about half of the simplex's
    points are moves clamped to phi1 = 0, which name the pole again under
    another phi2 and read its first solve; every solve at the pole takes
    the closed branch.  Every rho_BF comes off the gate's table.
    """
    scan = probe_scan(7, 7, math.pi / 2.0)
    values = [h2_conditional(rho, _COARSE).value for rho in table_at(table, scan)]

    def neg_h2(x):
        return -h2_conditional(table_at(table, np.array([x]))[0], _MEDIUM).value

    res = nelder_mead(once_per_probe(neg_h2), scan[int(np.argmax(values))], **PROBE_SIMPLEX)
    final = h2_conditional(table_at(table, np.array([res.x]))[0])
    return ProbeOptimum(h2=final.value, probe=ProbeState(*res.x), sigma=final.sigma,
                        converged=res.converged and final.converged)


def best_probe_h2(p: UnitaryParams) -> ProbeOptimum:
    """Maximize H2(B|F) over the probe.

    P (x) P commutes with U for P = X, Y, Z, and H2(B|F) ignores local
    unitaries, so H2 takes the same value at the probe images
    (phi1, phi2 + pi), (pi - phi1, -phi2) and (pi - phi1, pi - phi2).  The
    answer takes one of two paths, picked by exact equality of the angles:

    - ax == ay or ay == az (the faces: IS, ID, DS, IC, CS and the vertices
      I, S, D, C): the closed branch of `h2_conditional` at the probe
      (0, 0), from one isometry and one Choi state.  On IS every V (x) V
      commutes with U = a I + b SWAP, so H2 is the same at every probe.  On
      a face the z- (ax == ay) or x-rotations (ay == az) commute, H2 is
      constant on their orbits, and the probes (phi1, 0), phi1 in
      [0, pi/2], meet every orbit; H2 along them peaks at the pole.  That last fact is measured,
      not proven: on 120 random face gates neither a phi1 scan nor the 2-D
      search beat the pole by more than 1e-14, and
      `test_reduced_probe_search_against_the_sphere_search` holds it.
    - Any other gate, nearly equal angles included: the 2-D search
      (`_sphere_search`) over a table of rho_BF built from four probes.
    """
    if p.alpha_x == p.alpha_y or p.alpha_y == p.alpha_z:
        probe = ProbeState(0.0, 0.0)
        final = h2_conditional(choi_bf(stinespring_isometry(p, probe)))
        return ProbeOptimum(h2=final.value, probe=probe, sigma=final.sigma, converged=final.converged)
    return _sphere_search(probe_table(lambda probe: choi_bf(stinespring_isometry(p, probe))))
