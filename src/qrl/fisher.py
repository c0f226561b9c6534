"""Quantum Fisher information of the channel output and its Bayesian average.

The channel is affine in the environment Bloch vector, so output states and
their parameter derivatives reduce to one 3-vector offset and one 3x3 linear
map per probe; the averaged trace-QFI is then a tensor-product Gauss-Legendre
integral over the polar prior, evaluated radial-slice by radial-slice.

Near the Bloch boundary the radial integrand can grow like 1/(1/2 - r), so
regularized integrals cut the radius at 1/2 - eta and the r-axis nodes are
placed in u = -ln(1/2 - r); a plain grid cannot resolve cutoffs below its
endpoint spacing and would flatten the very growth the divergence
classification is measuring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .channel import EnvState, ProbeState, apply_channel, env_bloch_derivatives, stinespring_isometry
from .linalg import PAULI
from .optimize import nelder_mead, rect_grid
from .unitary import UnitaryParams

PURITY_TOL = 1e-10
ETA_MAX = 0.4
DEFAULT_ETA_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
DIVERGENCE_SLOPE = 0.5
_LADDER_CAP = 256
_LADDER_RTOL = 1e-4


class QuadratureError(RuntimeError):
    """Numerical failure inside the averaging quadrature."""


@dataclass(frozen=True)
class QuadSpec:
    """Tensor Gauss-Legendre node counts (radial, polar, azimuthal)."""

    nr: int = 48
    n_theta1: int = 32
    n_theta2: int = 32

    def __post_init__(self):
        if min(self.nr, self.n_theta1, self.n_theta2) < 2:
            raise ValueError("quadrature spec needs at least 2 nodes per axis")


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

    def __array__(self, dtype=None):
        return np.asarray(self.entries, dtype=dtype)

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


def channel_qfi(p: UnitaryParams, probe: ProbeState, env: EnvState, purity_tol: float = PURITY_TOL) -> QfiMatrix:
    """QFI of the channel output wrt (r, theta1, theta2), analytic derivatives.

    The channel is linear in the environment operator, so the output
    derivatives are the channel applied to the environment Bloch partials.
    """
    iso = stinespring_isometry(p, probe)
    rho = apply_channel(iso, env)
    derivs = [apply_channel(iso, d) for d in env_bloch_derivatives(env)]
    return qfi_matrix(rho, derivs, purity_tol=purity_tol)


# --- Bayesian average -------------------------------------------------------

def _gl(a: float, b: float, n: int):
    x, w = leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


@lru_cache(maxsize=32)
def _angular_tables(n1: int, n2: int):
    t1, w1 = _gl(0.0, math.pi, n1)
    t2, w2 = _gl(0.0, 2.0 * math.pi, n2)
    T1 = np.repeat(t1, n2)
    T2 = np.tile(t2, n1)
    s1, c1 = np.sin(T1), np.cos(T1)
    s2, c2 = np.sin(T2), np.cos(T2)
    nhat = np.stack([s1 * c2, s1 * s2, c1], axis=1)
    dn1 = np.stack([c1 * c2, c1 * s2, -s1], axis=1)
    dn2 = np.stack([-s1 * s2, s1 * c2, np.zeros_like(s1)], axis=1)
    weight = np.repeat(w1, n2) * np.tile(w2, n1) * np.sin(T1 / 2.0) / (2.0 * math.pi)
    return T1, T2, nhat, dn1, dn2, weight


@lru_cache(maxsize=256)
def _radial_tables(nr: int, eta: float):
    if eta == 0.0:
        return _gl(0.0, 0.5, nr)
    # u = -ln(1/2 - r): resolves the cutoff shell at any eta
    u, wu = _gl(math.log(2.0), math.log(1.0 / eta), nr)
    return 0.5 - np.exp(-u), wu * np.exp(-u)


def _probe_affine(p: UnitaryParams, probe: ProbeState):
    """Offset t and matrix M with output Bloch b = t + M e for env Bloch e."""
    iso = stinespring_isometry(p, probe)

    def bloch_of(m):
        return np.array(
            [2.0 * m[0, 1].real, -2.0 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real]
        )

    offset = bloch_of(apply_channel(iso, 0.5 * PAULI[0]))
    cols = [0.5 * bloch_of(apply_channel(iso, PAULI[k])) for k in (1, 2, 3)]
    return offset, np.stack(cols, axis=1)


def avg_trace_qfi(p: UnitaryParams, probe: ProbeState, quad: QuadSpec, eta: float) -> float:
    """Regularized average of tr F over the prior, radius cut at 1/2 - eta."""
    if not 0.0 <= eta <= ETA_MAX:
        raise ValueError(f"eta must lie in [0, {ETA_MAX}], got {eta!r}")
    T1, T2, nhat, dn1, dn2, w_ang = _angular_tables(quad.n_theta1, quad.n_theta2)
    r_nodes, w_r = _radial_tables(quad.nr, float(eta))
    offset, m = _probe_affine(p, probe)
    a = nhat @ m.T
    b1 = dn1 @ m.T
    b2 = dn2 @ m.T
    ur_sq = 4.0 * np.einsum("kj,kj->k", a, a)
    b1_sq = np.einsum("kj,kj->k", b1, b1)
    b2_sq = np.einsum("kj,kj->k", b2, b2)
    slices = np.empty(r_nodes.size)
    for i, r in enumerate(r_nodes):
        b = offset + (2.0 * r) * a
        den = 1.0 - np.einsum("kj,kj->k", b, b)
        cross = 4.0 * np.einsum("kj,kj->k", b, a) ** 2
        cross += (2.0 * r) ** 2 * (np.einsum("kj,kj->k", b, b1) ** 2 + np.einsum("kj,kj->k", b, b2) ** 2)
        mixed = den >= 4.0 * PURITY_TOL
        tr_f = ur_sq + (2.0 * r) ** 2 * (b1_sq + b2_sq)
        tr_f = tr_f + np.where(mixed, cross / np.where(mixed, den, 1.0), 0.0)
        if np.isnan(tr_f).any():
            k = int(np.flatnonzero(np.isnan(tr_f))[0])
            raise QuadratureError(
                f"NaN integrand at node r={r!r}, theta1={T1[k]!r}, theta2={T2[k]!r}"
            )
        slices[i] = w_r[i] * float(tr_f @ w_ang)
    return float(np.sum(slices))


def _aitken(seq):
    """Aitken delta-squared limit of the last three terms when contracting."""
    if len(seq) < 3:
        return seq[-1]
    x0, x1, x2 = seq[-3], seq[-2], seq[-1]
    d1, d2 = x1 - x0, x2 - x1
    if d2 == d1 or abs(d2) >= abs(d1):
        return x2
    return x2 - d2 * d2 / (d2 - d1)


def _refined_avg(p: UnitaryParams, probe: ProbeState, quad: QuadSpec, eta: float) -> float:
    """Angular-doubling ladder until the value moves < 1e-4 relative, then
    Aitken extrapolation of the ladder tail."""
    n1, n2 = quad.n_theta1, quad.n_theta2
    values = [avg_trace_qfi(p, probe, quad, eta)]
    while max(n1, n2) < _LADDER_CAP:
        n1, n2 = 2 * n1, 2 * n2
        cur = avg_trace_qfi(p, probe, QuadSpec(quad.nr, n1, n2), eta)
        prev = values[-1]
        values.append(cur)
        if abs(cur - prev) < _LADDER_RTOL * max(1.0, abs(cur)):
            break
    return _aitken(values)


@dataclass(frozen=True)
class AvgQfiResult:
    value: float
    probe_opt: ProbeState
    eta_trace: tuple
    classification: str
    cr_scalar: float
    converged: bool = True

    def __post_init__(self):
        # shrinking the cutoff only grows the integration domain
        vals = [v for _, v in self.eta_trace]
        for prev, cur in zip(vals, vals[1:]):
            if cur < prev - 1e-8 * max(1.0, abs(prev)):
                raise QuadratureError(
                    f"eta_trace not non-decreasing as eta shrinks: {prev!r} -> {cur!r}"
                )


def _classify(eta_trace) -> str:
    """Divergent when the value grows in ln(1/eta) with slope > 0.5 over the
    last two decades of the schedule."""
    pts = [(e, v) for e, v in eta_trace if e <= 1.000001e-4]
    if len(pts) < 2:
        pts = list(eta_trace)[-2:]
    if len(pts) < 2:
        return "finite"  # single cutoff carries no growth evidence
    x = np.log(1.0 / np.array([e for e, _ in pts]))
    y = np.array([v for _, v in pts])
    slope = float(np.polyfit(x, y, 1)[0])
    return "divergent" if slope > DIVERGENCE_SLOPE else "finite"


def avg_qfi_at_probe(
    p: UnitaryParams,
    probe: ProbeState,
    quad: QuadSpec = QuadSpec(),
    eta_schedule=DEFAULT_ETA_SCHEDULE,
    converged: bool = True,
) -> AvgQfiResult:
    """Regularized trace at each cutoff, divergence classification, and for
    finite cases an eta -> 0 extrapolation of ladder-refined values."""
    schedule = sorted({float(e) for e in eta_schedule}, reverse=True)
    if not schedule or schedule[-1] <= 0.0 or schedule[0] > ETA_MAX:
        raise ValueError("eta schedule must contain cutoffs in (0, 0.4]")
    trace = tuple((eta, avg_trace_qfi(p, probe, quad, eta)) for eta in schedule)
    classification = _classify(trace)
    if classification == "divergent":
        value, cr = math.inf, 0.0
    else:
        refined = [_refined_avg(p, probe, quad, eta) for eta in schedule[-3:]]
        value = _aitken(refined)
        cr = math.inf if value <= 1e-12 else 4.0 / value
    return AvgQfiResult(
        value=value,
        probe_opt=probe,
        eta_trace=trace,
        classification=classification,
        cr_scalar=cr,
        converged=converged,
    )


def maximize_over_probe(
    p: UnitaryParams,
    quad: QuadSpec = QuadSpec(),
    eta_schedule=DEFAULT_ETA_SCHEDULE,
    probe_grid: int = 13,
) -> AvgQfiResult:
    """Probe maximization of the averaged trace-QFI at the widest cutoff,
    then the full cutoff schedule at the optimum."""
    schedule = sorted({float(e) for e in eta_schedule}, reverse=True)
    if not schedule or schedule[-1] <= 0.0 or schedule[0] > ETA_MAX:
        raise ValueError("eta schedule must contain cutoffs in (0, 0.4]")
    eta0 = schedule[0]

    def neg_avg(q):
        probe = ProbeState(min(max(q[0], 0.0), math.pi), q[1])
        return -avg_trace_qfi(p, probe, quad, eta0)

    pts = rect_grid(probe_grid, probe_grid, 0.0, math.pi, 0.0, 2.0 * math.pi)
    vals = [neg_avg(q) for q in pts]
    start = pts[int(np.argmin(vals))]

    def clamp(q):
        return np.array([min(max(q[0], 0.0), math.pi), q[1]])

    res = nelder_mead(neg_avg, start, 0.15, tol=1e-7, max_iter=200, project=clamp)
    probe = ProbeState(min(max(res.x[0], 0.0), math.pi), res.x[1])
    return avg_qfi_at_probe(p, probe, quad, schedule, converged=res.converged)
