"""Reference implementations that the library no longer runs.

Each is the literal route that an exact reduction in `qrl` replaced; the
tests check the library against them.

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
    _inv_sqrt_coeffs,
    g_eps,
)
from qrl.channel import ANGLE_TOL, TWO_PI, apply_channel, stinespring_isometry
from qrl.fisher import PURITY_TOL, _angular_tables, _gl, _probe_affine
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


@lru_cache(maxsize=64)
def _radial_tables(nr: int, eta: float):
    if eta == 0.0:
        return _gl(0.0, 0.5, nr)
    u, wu = _gl(math.log(2.0), math.log(1.0 / eta), nr)
    return 0.5 - np.exp(-u), wu * np.exp(-u)


def avg_trace_qfi_ugrid(p, probe, quad, nr, eta, mask=True):
    """Prior average of tr F on a u-substituted radial grid of nr nodes,
    quad's nodes on the angles.

    mask=True drops the cross term wherever 1 - |b|^2 < 4 PURITY_TOL, as the
    library did per node; mask=False keeps every node.
    """
    _, _, dirs, w_ang = _angular_tables(quad.n_theta1, quad.n_theta2)
    r_nodes, w_r = _radial_tables(nr, float(eta))
    offset, m = _probe_affine(p, probe)
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


def sigma_certificate(rho, opt: H2Optimum):
    """Upper bound on H2(B|F) from the end point of a sigma search, or None
    where it gives none.

    The objective c^T G c of `qrl.capacity.h2_conditional` is convex in the
    Pauli coefficients c of X = sigma^{-1/2}, so it lies above its tangent
    plane at the end point's coefficients cb: c^T G c >= Tr[Y X] - f, with
    f = cb^T G cb and Y = sum_k (G cb)_k s_k.  For Y > 0 the least of
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
