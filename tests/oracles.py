"""Reference implementations that the library no longer runs.

Each is the literal route that an exact reduction in `qrl` replaced; the
tests check the library against them.

- `averages_reference` is the QFI kernel `qrl.fisher._averages` as it was
  before it worked in one workspace per call: fresh temporaries per block
  and per cutoff, with `_radial_integral_reference` and
  `moments_reference` below it.  The library runs the same operations in
  the same order, so it must match to the bit.
- `avg_trace_qfi_ugrid` is the radial quadrature that
  `qrl.fisher.avg_trace_qfi` used before its radial integral was written in
  closed form: Gauss-Legendre in u = -ln(1/2 - r), `nr` nodes, one
  radial slice at a time.  The nodes resolve the cutoff shell at any eta, so
  at modest angular grids it agrees with the closed form to round-off.
- `channel_qfi` is the pointwise QFI matrix of one output state, from the
  analytic environment derivatives `env_bloch_derivatives`; `prior_weight`
  is the prior density the average integrates against.
- `renyi2_divergence` evaluates the sandwiched divergence with matrix
  powers (`herm_power`), the route the Gram form of `qrl.capacity` replaced;
  `renyi2_divergence_grid` is the same formula over a batch of sigmas.
  `h2_eigenbasis_blocks` is the value formula of `qrl.capacity.h2_conditional`
  built from sigma's eigenprojectors, and `_inv_sqrt_coeffs` the Pauli form
  c^T G c that the library evaluated its value by before.
- `delta_star_golden` is the golden-section search for delta*, which the
  closed form `qrl.capacity.delta_star` replaced.
- `magic_basis_reconstruction` builds the gate from its eigenphases in the
  magic basis, against `qrl.unitary.build_unitary`.
- `h2_conditional_simplex` is the sigma search that the exact direction
  solve of `qrl.capacity.h2_conditional` replaced: a 3-D Nelder-Mead over
  the Bloch ball from the best points of a seed cube, with restarts.
- `sigma_certificate` bounds H2(B|F) from above at a sigma search's end
  point, by the tangent plane of its convex objective: the gap to the
  reported value is what the search left on the table.
- `nelder_mead_numpy` is the array form of `qrl.optimize.nelder_mead`.
- `choi_bf_loop` builds the Choi state block by block from
  `apply_complement`, the loop route that the single contraction of
  `qrl.channel.choi_bf` replaced.
- `EnvState` is a pure-or-mixed environment qubit in the prior's spherical
  coordinates; the library works with Bloch vectors and Pauli matrices and
  has no use for it.
- `probe_density` is the probe's density matrix |psi><psi|; the library
  reads the probe through its ket alone.
- `conditional_entropy` is the von Neumann H(R|F) = S(rho) - S(rho_F) of a
  state on (reference) (x) F, in bits: the alpha -> 1 member of the Renyi
  family whose alpha = 2 member `qrl.capacity.h2_conditional` computes.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from qrl.capacity import (
    BLOCH_CAP,
    LAMBDA_FLOOR,
    H2Optimum,
    _collision_gram,
    g_eps,
)
from qrl.channel import ANGLE_TOL, TWO_PI, apply_channel, stinespring_isometry
from qrl.fisher import (
    _CHUNK, _SERIES_TERMS, _SERIES_X, PURITY_TOL, QuadratureError, _angular_tables, _probe_affine, _unitary,
)
from qrl.linalg import HERMITICITY_TOL, I2, SX, SY, SZ, kron, partial_trace
from qrl.optimize import OptResult


@dataclass(frozen=True)
class EnvState:
    """Environment qubit in spherical Bloch coordinates, radius r <= 1/2."""

    r: float
    theta1: float
    theta2: float

    def __post_init__(self):
        if not -ANGLE_TOL <= self.r <= 0.5 + ANGLE_TOL:
            raise ValueError(f"r must lie in [0, 1/2], got {self.r!r}")
        if not -ANGLE_TOL <= self.theta1 <= math.pi + ANGLE_TOL:
            raise ValueError(f"theta1 must lie in [0, pi], got {self.theta1!r}")
        object.__setattr__(self, "theta2", float(self.theta2) % TWO_PI)

    def bloch(self) -> np.ndarray:
        s1 = math.sin(self.theta1)
        return 2.0 * self.r * np.array(
            [s1 * math.cos(self.theta2), s1 * math.sin(self.theta2), math.cos(self.theta1)]
        )

    def matrix(self) -> np.ndarray:
        bx, by, bz = self.bloch()
        return 0.5 * (I2 + bx * SX + by * SY + bz * SZ)


def _env_matrix(env) -> np.ndarray:
    """The 2x2 operator of an EnvState; other operators pass through."""
    return env.matrix() if isinstance(env, EnvState) else np.asarray(env, dtype=complex)


def gl_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


@lru_cache(maxsize=64)
def _radial_tables(nr: int, eta: float):
    if eta == 0.0:
        return gl_nodes(0.0, 0.5, nr)
    u, wu = gl_nodes(math.log(2.0), math.log(1.0 / eta), nr)
    return 0.5 - np.exp(-u), wu * np.exp(-u)


def avg_trace_qfi_ugrid(p, probe, quad, nr, eta, mask=True):
    """Prior average of tr F on a u-substituted radial grid of nr nodes,
    quad's nodes on the angles.

    mask=True drops the cross term wherever 1 - |b|^2 < 4 PURITY_TOL, as the
    library did per node; mask=False keeps every node.
    """
    _, _, dirs, w_ang = _angular_tables(quad.n_theta1, quad.n_theta2)
    r_nodes, w_r = _radial_tables(nr, float(eta))
    affine = _probe_affine(p, probe)
    offset, m = affine[:, 0], affine[:, 1:]
    a, b1, b2 = m @ dirs
    dot = lambda x, y: np.einsum("jk,jk->k", x, y)
    total = 0.0
    for r, wr in zip(r_nodes, w_r):
        s = 2.0 * r
        b = offset[:, None] + s * a
        den = 1.0 - dot(b, b)
        cross = 4.0 * dot(b, a) ** 2 + s**2 * (dot(b, b1) ** 2 + dot(b, b2) ** 2)
        tr_f = 4.0 * dot(a, a) + s**2 * (dot(b1, b1) + dot(b2, b2))
        if mask:
            mixed = den >= 4.0 * PURITY_TOL
            tr_f = tr_f + np.where(mixed, cross / np.where(mixed, den, 1.0), 0.0)
        else:
            tr_f = tr_f + cross / den
        total += wr * float(tr_f @ w_ang)
    return total


def moments_reference(x: np.ndarray) -> np.ndarray:
    """G_k(x) = int_0^1 t^k / (1 - x t) dt for k = 0..4 and x < 1, stacked:
    `qrl.fisher._moments` as it was before it wrote into a workspace.

    G_0 = -log1p(-x)/x, then the upward recurrence G_k = (G_{k-1} - 1/k)/x;
    where |x| <= _SERIES_X, G_4 from its power series and the lower G_k
    from the downward recurrence G_{k-1} = x G_k + 1/k.
    """
    x = x.ravel()
    near = np.flatnonzero(np.abs(x) <= _SERIES_X)
    far = x.copy()
    far[near] = 0.5
    inv = 1.0 / far
    g = np.empty((5, x.size))
    g[0] = -np.log1p(-far) * inv
    for k in range(1, 5):
        g[k] = (g[k - 1] - 1.0 / k) * inv
    if near.size:
        xs = x[near]
        h = np.full_like(xs, 1.0 / (_SERIES_TERMS + 4))
        for j in range(_SERIES_TERMS + 3, 4, -1):
            h *= xs
            h += 1.0 / j
        g[4, near] = h
        for k in range(4, 0, -1):
            h = xs * h + 1.0 / k
            g[k - 1, near] = h
    return g


def _radial_integral_reference(offsets, d0, inv_d0, vecs, big_ss) -> list:
    """int_0^S tr F ds per probe and angular node, one fresh array per
    S = 1 - 2 eta in big_ss: `qrl.fisher._radial_integral` before it worked
    in place, one cutoff at a time."""
    aa, ab1, ab2 = np.einsum("pjk,ipjk->ipk", vecs[0], vecs)
    bb = np.einsum("ipjk,ipjk->pk", vecs[1:], vecs[1:])
    polys = [4.0 * big_s * aa + big_s**3 / 3.0 * bb for big_s in big_ss]
    if not inv_d0.any():
        return polys
    ta, tb1, tb2 = (offsets[:, None, :] @ vecs)[:, :, 0]
    sq = np.sqrt(ta * ta + d0 * aa)
    big = np.abs(ta) + sq
    small = aa / np.maximum(big, 1e-300)
    big /= d0
    pos = ta >= 0.0
    u = np.where(pos, big, small)
    v_abs = np.where(pos, small, big)
    w_u = u * (0.5 * d0) / np.maximum(sq, 1e-300)
    coeffs = (
        4.0 * ta * ta,
        8.0 * ta * aa,
        4.0 * aa * aa + tb1 * tb1 + tb2 * tb2,
        2.0 * (tb1 * ab1 + tb2 * ab2),
        ab1 * ab1 + ab2 * ab2,
    )
    for poly, big_s in zip(polys, big_ss):
        x = np.minimum(u * big_s, 1.0 - 2.0**-53)
        g = moments_reference(np.stack([x, -big_s * v_abs])).reshape(5, 2, *u.shape)
        mix = g[:, 1] + w_u * (g[:, 0] - g[:, 1])
        cross = big_s * coeffs[0] * mix[0]
        for k in range(1, 5):
            cross += big_s ** (k + 1) * coeffs[k] * mix[k]
        cross *= inv_d0
        poly += cross
    return polys


def averages_reference(probes, affine, quad, etas) -> np.ndarray:
    """`qrl.fisher._averages` as it was before its blocks worked in one
    per-call workspace: fresh temporaries per block and per cutoff, one
    cutoff per pass.  Same blocks, same operations in the same order, so
    the library must match it to the bit."""
    T1, T2, dirs, w_ang = _angular_tables(quad.n_theta1, quad.n_theta2)
    nodes = T1.size
    offsets, maps = np.ascontiguousarray(affine[..., 0]), affine[None, ..., 1:]
    d0 = 1.0 - (offsets[:, None, :] @ offsets[:, :, None])[:, 0]
    pure = d0 <= 4.0 * PURITY_TOL
    d0 = np.where(pure, 1.0, d0)
    inv_d0 = np.where(pure, 0.0, 1.0 / d0)
    big_ss = [1.0 - 2.0 * e for e in etas]
    per_block, span = max(1, _CHUNK // nodes), min(nodes, _CHUNK)
    total = np.zeros((len(etas), len(affine)))
    for row, e in zip(total, etas):
        if e == 0.0:
            row[_unitary(affine)] = np.inf
    dirs = dirs[:, None]
    for p0 in range(0, len(affine), per_block):
        batch = slice(p0, p0 + per_block)
        t, d, inv = offsets[batch], d0[batch], inv_d0[batch]
        for lo in range(0, nodes, span):
            vecs = maps[:, batch] @ dirs[..., lo:lo + span]
            for row, radial in zip(total, _radial_integral_reference(t, d, inv, vecs, big_ss)):
                nan = np.isnan(radial)
                if nan.any():
                    i, k = np.argwhere(nan)[0]
                    phi1, phi2 = probes[p0 + i]
                    raise QuadratureError(
                        f"NaN integrand at probe phi1={float(phi1)!r}, phi2={float(phi2)!r}, "
                        f"node theta1={float(T1[lo + k])!r}, theta2={float(T2[lo + k])!r}"
                    )
                row[batch] += radial @ w_ang[lo:lo + span]
    total *= 0.5
    return total


# --- pointwise QFI ------------------------------------------------------------


def env_bloch_derivatives(env: EnvState):
    """Exact partials of the realized matrix wrt (r, theta1, theta2).

    Each is traceless Hermitian; together with channel linearity they give
    analytic output derivatives for the Fisher information.
    """
    s1, c1 = math.sin(env.theta1), math.cos(env.theta1)
    s2, c2 = math.sin(env.theta2), math.cos(env.theta2)
    d_r = s1 * c2 * SX + s1 * s2 * SY + c1 * SZ
    d_t1 = env.r * (c1 * c2 * SX + c1 * s2 * SY - s1 * SZ)
    d_t2 = env.r * (-s1 * s2 * SX + s1 * c2 * SY)
    return d_r, d_t1, d_t2


def prior_weight(env: EnvState) -> float:
    """Prior density sin(theta1/2)/(2 pi); integrates to 1 over the domain."""
    return math.sin(env.theta1 / 2.0) / (2.0 * math.pi)


@dataclass(frozen=True)
class QfiMatrix:
    """3x3 Fisher matrix over (r, theta1, theta2)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"QfiMatrix expects 3x3 entries, got {m.shape}")
        if np.max(np.abs(m - m.T)) > 1e-10:
            raise ValueError("QFI matrix is not symmetric")
        if np.min(np.diag(m)) < -1e-10:
            raise ValueError("QFI diagonal has a negative entry")
        object.__setattr__(self, "entries", 0.5 * (m + m.T))

    def trace(self) -> float:
        return float(np.trace(self.entries))


def qfi_matrix(rho: np.ndarray, derivs, purity_tol: float = PURITY_TOL) -> QfiMatrix:
    """Single-qubit QFI from a state and its parameter derivatives.

    Mixed branch tr[dA dB] + tr[rho dA rho dB]/det(rho) when det(rho) clears
    purity_tol, pure branch 2 tr[dA dB] otherwise.  det from the closed 2x2
    formula, which stays accurate where the state approaches purity.
    """
    rho = np.asarray(rho, dtype=complex)
    d = [np.asarray(x, dtype=complex) for x in derivs]
    det = (rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]).real
    n = len(d)
    out = np.empty((n, n), dtype=float)
    for a in range(n):
        for b in range(a, n):
            collision = np.trace(d[a] @ d[b]).real
            if det >= purity_tol:
                val = collision + np.trace(rho @ d[a] @ rho @ d[b]).real / det
            else:
                val = 2.0 * collision
            out[a, b] = out[b, a] = val
    return QfiMatrix(entries=out)


def channel_qfi(p, probe, env: EnvState, purity_tol: float = PURITY_TOL) -> QfiMatrix:
    """QFI of the channel output wrt (r, theta1, theta2), analytic derivatives.

    The channel is linear in the environment operator, so the output
    derivatives are the channel applied to the environment Bloch partials.
    """
    iso = stinespring_isometry(p, probe)
    rho = apply_channel(iso, env.matrix())
    derivs = [apply_channel(iso, d) for d in env_bloch_derivatives(env)]
    return qfi_matrix(rho, derivs, purity_tol=purity_tol)


# --- literal sandwiched divergence --------------------------------------------

EIG_FLOOR_DEFAULT = 1e-9


def _check_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    asym = np.max(np.abs(m - m.conj().T))
    if asym > tol:
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3e} > {tol:.1e})")
    return m


def herm_power(m: np.ndarray, p: float, floor: float = EIG_FLOOR_DEFAULT) -> np.ndarray:
    """Fractional power of a Hermitian PSD matrix with spectral flooring.

    Eigenvalues below `floor` are replaced by `floor` before exponentiation,
    which keeps inverse powers finite on rank-deficient inputs.  No
    renormalization is applied.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    m = _check_hermitian(m)
    w, q = np.linalg.eigh(m)
    w = np.maximum(w, floor)
    out = (q * w ** p) @ q.conj().T
    return 0.5 * (out + out.conj().T)


def probe_density(probe) -> np.ndarray:
    """|psi><psi| of a ProbeState."""
    k = probe.ket()
    return np.outer(k, k.conj())


def _entropy_bits(rho) -> float:
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-300]
    return float(-(w * np.log2(w)).sum())


def conditional_entropy(rho) -> float:
    """von Neumann H(R|F) = S(rho_RF) - S(rho_F) in bits, for rho on
    (reference) (x) F as `qrl.channel.choi_bf` builds it."""
    return _entropy_bits(rho) - _entropy_bits(partial_trace(rho, keep="second"))


def sigma_matrix(bloch) -> np.ndarray:
    """sigma_F = (I + p.sigma)/2 as a 2x2 matrix, for the Bloch vector p."""
    p1, p2, p3 = bloch
    return 0.5 * (I2 + p1 * SX + p2 * SY + p3 * SZ)


def renyi2_divergence(rho, bloch) -> float:
    """Sandwiched q=2 divergence D2(rho || I (x) sigma) in bits, sigma with
    Bloch vector `bloch`, evaluated literally:
    log2 Tr{[(I (x) s)^{-1/4} rho (I (x) s)^{-1/4}]^2}."""
    r = np.asarray(rho, dtype=complex)
    quarter = herm_power(kron(I2, sigma_matrix(bloch)), -0.25, LAMBDA_FLOOR)
    sandwich = quarter @ r @ quarter
    return float(np.log2(np.trace(sandwich @ sandwich).real))


def h2_eigenbasis_blocks(rho, bloch) -> float:
    """-log2 of A/lam + B/mu + 2C/sqrt(lam mu) at the sigma with Bloch vector
    `bloch`: lam, mu = (1 +- |p|)/2, and with P0, P1 = I (x) (I +- n.s)/2 the
    eigenprojectors of I (x) sigma, n = p/|p| (z at p = 0), A = |P0 rho P0|^2,
    B = |P1 rho P1|^2 and C the mean of |P0 rho P1|^2 and |P1 rho P0|^2,
    each the sum of the squared moduli of a matrix's entries."""
    p = np.asarray(bloch, dtype=float)
    nrm = float(np.linalg.norm(p))
    n = p / nrm if nrm > 0.0 else np.array([0.0, 0.0, 1.0])
    r = np.asarray(rho, dtype=complex)
    ns = n[0] * SX + n[1] * SY + n[2] * SZ
    p0, p1 = kron(I2, 0.5 * (I2 + ns)), kron(I2, 0.5 * (I2 - ns))

    def sq(m):
        return float(np.sum(m.real**2 + m.imag**2))

    lam, mu = (1.0 + nrm) / 2.0, (1.0 - nrm) / 2.0
    a, b, c = sq(p0 @ r @ p0), sq(p1 @ r @ p1), 0.5 * (sq(p0 @ r @ p1) + sq(p1 @ r @ p0))
    return -math.log2(a / lam + b / mu + 2.0 * c / math.sqrt(lam * mu))


def renyi2_divergence_grid(rho, blochs) -> np.ndarray:
    """renyi2_divergence at each sigma Bloch vector, rows of `blochs`: one
    batched eigh of the sigmas, the same floored -1/4 power, applied as
    I (x) sigma^{-1/4}, and the same sandwiched trace."""
    r = np.asarray(rho, dtype=complex)
    b = np.asarray(blochs, dtype=float)[:, :, None, None]
    w, q = np.linalg.eigh(0.5 * (I2 + b[:, 0] * SX + b[:, 1] * SY + b[:, 2] * SZ))
    quarter = (q * np.maximum(w, LAMBDA_FLOOR)[:, None, :] ** -0.25) @ q.conj().transpose(0, 2, 1)
    quarter = 0.5 * (quarter + quarter.conj().transpose(0, 2, 1))
    big = np.einsum("ij,nkl->nikjl", I2, quarter).reshape(-1, 4, 4)
    sandwich = big @ r @ big
    return np.log2(np.einsum("nij,nji->n", sandwich, sandwich).real)


def _inv_sqrt_coeffs(p: np.ndarray) -> np.ndarray:
    """Pauli coefficients of sigma^{-1/2} for |p| <= BLOCH_CAP, so that
    c^T G c = Tr[rho s^{-1/2} rho s^{-1/2}], G = `qrl.capacity._collision_gram`."""
    nrm = math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
    a, b = ((1.0 + nrm) / 2.0) ** -0.5, ((1.0 - nrm) / 2.0) ** -0.5
    mean, half_gap = (a + b) / 2.0, (a - b) / 2.0
    if nrm < 1e-15:
        return np.array([mean, 0.0, 0.0, 0.0])
    s = half_gap / nrm
    return np.array([mean, s * p[0], s * p[1], s * p[2]])


def sigma_certificate(rho, opt: H2Optimum):
    """Upper bound on H2(B|F) from the end point of a sigma search, or None
    where it gives none.

    The objective Tr[rho X rho X] = c^T G c of `qrl.capacity.h2_conditional`
    is convex in the Pauli coefficients c of X = sigma^{-1/2}, so it lies
    above its tangent plane at the end point's coefficients cb:
    c^T G c >= Tr[Y X] - f, with f = cb^T G cb and Y = sum_k (G cb)_k s_k.
    For Y > 0 the least of
    Tr[Y X] over Tr X^{-2} <= 1 is L = (sum_i y_i^{2/3})^{3/2} over the
    eigenvalues y_i of Y, at X proportional to Y^{-1/3}; hence
    H2 <= -log2(L - f), with equality at the optimum.
    """
    gram = _collision_gram(np.asarray(rho, dtype=complex))
    cb = _inv_sqrt_coeffs(np.asarray(opt.sigma))
    f = cb @ gram @ cb
    g = gram @ cb
    y = g[0] + np.array([-1.0, 1.0]) * np.linalg.norm(g[1:])
    if y[0] <= 0.0:
        return None
    return -math.log2(np.sum(y ** (2.0 / 3.0)) ** 1.5 - f)


# --- delta* by search ---------------------------------------------------------


def delta_star_golden(epsilon: float) -> float:
    """Minimizer of g(sqrt(eps/2) - delta) - 4 log2(delta) on (0, sqrt(eps/2)),
    by golden-section search to bracket width 1e-12.  The objective is flat
    at its minimum, so the result is good to about 1e-8 relative."""
    s = math.sqrt(epsilon / 2.0)

    def objective(d):
        return g_eps(s - d) - 4.0 * math.log2(d)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 1e-14, s - 1e-14
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    return 0.5 * (a + b)


# --- the gate from its eigenphases --------------------------------------------


def eigenphases(p) -> np.ndarray:
    """The four eigenphases lambda_1..4; they sum to zero."""
    ax, ay, az = p.alpha_x, p.alpha_y, p.alpha_z
    return np.array(
        [
            (ax - ay + az) / 2.0,
            (-ax + ay + az) / 2.0,
            -(ax + ay + az) / 2.0,
            (ax + ay - az) / 2.0,
        ]
    )


_SQ2 = 1.0 / math.sqrt(2.0)
# magic basis columns Lambda_1..4 over {00, 01, 10, 11}
MAGIC_BASIS = np.array(
    [
        [_SQ2, -1j * _SQ2, 0.0, 0.0],
        [0.0, 0.0, _SQ2, -1j * _SQ2],
        [0.0, 0.0, -_SQ2, -1j * _SQ2],
        [_SQ2, 1j * _SQ2, 0.0, 0.0],
    ],
    dtype=complex,
)


def magic_basis_reconstruction(p) -> np.ndarray:
    """Rebuild the unitary as sum_k e^{-i lambda_k} |L_k><L_k|.

    The projector sum has unit determinant while the canonical-basis matrix
    carries det e^{2i alpha_z}; the spectral route therefore differs by the
    global phase e^{-i alpha_z/2}, which is reapplied here so the two
    constructions agree entrywise.
    """
    lam = eigenphases(p)
    u = (MAGIC_BASIS * np.exp(-1j * lam)) @ MAGIC_BASIS.conj().T
    return np.exp(0.5j * p.alpha_z) * u


# --- Choi state block by block ------------------------------------------------


def apply_complement(v, env) -> np.ndarray:
    """Environment-side action Tr_B[V theta V^dag]."""
    joint = v @ _env_matrix(env) @ v.conj().T
    return partial_trace(joint, keep="second")


def choi_bf_loop(v) -> np.ndarray:
    """Send half of the maximally entangled state through the complement,
    one block |i><j| (x) Tr_B[V |i><j| V^dag] / 2 at a time."""
    rho = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e_ij = np.zeros((2, 2), dtype=complex)
            e_ij[i, j] = 1.0
            rho[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = 0.5 * apply_complement(v, e_ij)
    return 0.5 * (rho + rho.conj().T)


# --- Nelder-Mead on arrays and the 3-D sigma search -----------------------------


def nelder_mead_numpy(f, x0, step, tol=1e-9, max_iter=400, project=None) -> OptResult:
    """Nelder-Mead with the simplex as one array and numpy reductions."""
    if project is None:
        project = lambda x: x
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    simplex = [project(x0.copy())]
    for i in range(n):
        x = x0.copy()
        x[i] += step
        simplex.append(project(x))
    simplex = np.array(simplex, dtype=float)
    fv = np.array([f(x) for x in simplex])
    it = 0
    while it < max_iter:
        order = np.argsort(fv)
        simplex, fv = simplex[order], fv[order]
        diam = np.max(np.linalg.norm(simplex[1:] - simplex[0], axis=1))
        if diam < tol:
            return OptResult(simplex[0], it, True)
        centroid = simplex[:-1].mean(axis=0)
        xr = project(centroid + (centroid - simplex[-1]))
        fr = f(xr)
        if fr < fv[0]:
            xe = project(centroid + 2.0 * (centroid - simplex[-1]))
            fe = f(xe)
            simplex[-1], fv[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fv[-2]:
            simplex[-1], fv[-1] = xr, fr
        else:
            xc = project(centroid + 0.5 * (simplex[-1] - centroid))
            fc = f(xc)
            if fc < fv[-1]:
                simplex[-1], fv[-1] = xc, fc
            else:
                simplex[1:] = [project(simplex[0] + 0.5 * (s - simplex[0])) for s in simplex[1:]]
                fv[1:] = [f(x) for x in simplex[1:]]
        it += 1
    return OptResult(simplex[int(np.argmin(fv))], it, False)


def ball_grid(n: int, radius: float) -> np.ndarray:
    """Points of an n^3 axis grid on [-radius, radius]^3 kept inside the ball."""
    axis = np.linspace(-radius, radius, n)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    return pts[np.linalg.norm(pts, axis=1) <= radius]


def ball_projector(radius: float):
    def project(x):
        nrm = np.linalg.norm(x)
        return x * (radius / nrm) if nrm > radius else x

    return project


@lru_cache(maxsize=8)
def _seed_grid(n: int):
    grid = ball_grid(n, BLOCH_CAP)
    coeffs = np.stack([_inv_sqrt_coeffs(p) for p in grid])
    return grid, coeffs


def h2_conditional_simplex(rho, sigma_grid=9, restarts=3, tol=1e-9, max_iter=400) -> H2Optimum:
    """Maximize -D2(rho || I (x) sigma) by a 3-D simplex search: seed the
    Bloch ball with a sigma_grid^3 cube, run Nelder-Mead from the best
    `restarts` seeds and keep the best end point."""
    gram = _collision_gram(np.asarray(rho, dtype=complex))
    grid, coeffs = _seed_grid(sigma_grid)
    seed_vals = np.einsum("nk,kl,nl->n", coeffs, gram, coeffs)
    order = np.argsort(seed_vals)

    def objective(p):
        c = _inv_sqrt_coeffs(p)
        return c @ gram @ c

    project = ball_projector(BLOCH_CAP)
    ends = [
        nelder_mead_numpy(objective, grid[idx], 0.12, tol=tol, max_iter=max_iter, project=project)
        for idx in order[:restarts]
    ]
    best = min(ends, key=lambda res: objective(res.x)).x  # the first of least value
    return H2Optimum(value=-math.log2(objective(best)), sigma=tuple(best.tolist()),
                     converged=any(res.converged for res in ends))
