"""Reference implementations that the library no longer runs.

Each is the literal route that an exact reduction in `qrl` replaced; the
tests check the library against them.

- `avg_trace_qfi_ugrid` is the radial quadrature that
  `qrl.fisher.avg_trace_qfi` used before its radial integral was written in
  closed form: Gauss-Legendre in u = -ln(1/2 - r), `quad.nr` nodes, one
  radial slice at a time.  The nodes resolve the cutoff shell at any eta, so
  at modest angular grids it agrees with the closed form to round-off.
- `channel_qfi` is the pointwise QFI matrix of one output state, from the
  analytic environment derivatives `env_bloch_derivatives`; `prior_weight`
  is the prior density the average integrates against.
- `renyi2_divergence` evaluates the sandwiched divergence with matrix
  powers (`herm_power`), the route the Gram form of `qrl.capacity` replaced.
- `delta_star_golden` is the golden-section search for delta*, which the
  closed form `qrl.capacity.delta_star` replaced.
- `magic_basis_reconstruction` builds the gate from its eigenphases in the
  magic basis, against `qrl.unitary.build_unitary`.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from qrl.capacity import LAMBDA_FLOOR, g_eps
from qrl.channel import BipartiteState, EnvState, apply_channel, stinespring_isometry
from qrl.fisher import PURITY_TOL, _angular_tables, _gl, _probe_affine
from qrl.linalg import HERMITICITY_TOL, I2, SX, SY, SZ, kron


@lru_cache(maxsize=64)
def _radial_tables(nr: int, eta: float):
    if eta == 0.0:
        return _gl(0.0, 0.5, nr)
    u, wu = _gl(math.log(2.0), math.log(1.0 / eta), nr)
    return 0.5 - np.exp(-u), wu * np.exp(-u)


def avg_trace_qfi_ugrid(p, probe, quad, eta, mask=True):
    """Prior average of tr F on a u-substituted radial grid.

    mask=True drops the cross term wherever 1 - |b|^2 < 4 PURITY_TOL, as the
    library did per node; mask=False keeps every node.
    """
    _, _, dirs, w_ang = _angular_tables(quad.n_theta1, quad.n_theta2)
    r_nodes, w_r = _radial_tables(quad.nr, float(eta))
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
    rho = apply_channel(iso, env)
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


def renyi2_divergence(rho, sigma) -> float:
    """Sandwiched q=2 divergence D2(rho || I (x) sigma) in bits, evaluated
    literally: log2 Tr{[(I (x) s)^{-1/4} rho (I (x) s)^{-1/4}]^2}."""
    r = rho.rho_bf if isinstance(rho, BipartiteState) else np.asarray(rho, dtype=complex)
    quarter = herm_power(kron(I2, sigma.matrix()), -0.25, LAMBDA_FLOOR)
    sandwich = quarter @ r @ quarter
    return float(np.log2(np.trace(sandwich @ sandwich).real))


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
