"""Quantum Fisher information of the channel output and its Bayesian average.

The channel is affine in the environment Bloch vector, so output states and
their parameter derivatives reduce to one 3-vector offset t and one 3x3
linear map M per probe.  Along each prior direction n the output Bloch vector
is b = t + s M n with s = 2r, so the trace-QFI is a polynomial in s plus a
quartic over the quadratic den = 1 - |b|^2.  The averaged trace-QFI
therefore integrates the radius in closed form, up to the cutoff 1/2 - eta
(eta = 0 included), and only the two angles use Gauss-Legendre nodes,
vectorised over fixed-size blocks of angular nodes.

Both roots of den lie outside (-1, 1), because the outputs at the pure
environment states +-n are states; a root on the cutoff is the logarithmic
divergence the classification measures.  Inside the cutoff den is small
only where the output is nearly pure, and the cross term is then small
too; nothing is masked there, because dropping those nodes biased
near-identity gates low.  The one exception is a pure offset
(1 - |t|^2 <= 4 PURITY_TOL), which forces M = 0 and leaves no cross term.

`QuadSpec.nr`, the radial node count, no longer enters the library's
integral.  It stays part of the grid spec because the benchmark's tracer
and the u-grid oracle in tests/oracles.py read it.
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
_CHUNK = 4096  # angular nodes per vectorised block, bounds the temporaries
_SERIES_X = 0.25  # |x| up to which G_k(x) is summed as a power series
_SERIES_TERMS = 28  # 0.25**28 / 33 < 1e-18
_ROOT_TOL = 1e-12  # u S this close to 1 is a root of den at the cutoff


class QuadratureError(RuntimeError):
    """Numerical failure inside the averaging quadrature."""


@dataclass(frozen=True)
class QuadSpec:
    """Gauss-Legendre node counts (radial, polar, azimuthal).  The library
    integrates the radius exactly and reads only the two angular counts."""

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
    """Node angles, the direction n and its two angular partials stacked as
    a (3, 3, nodes) array, and the prior-weighted angular weights."""
    t1, w1 = _gl(0.0, math.pi, n1)
    t2, w2 = _gl(0.0, 2.0 * math.pi, n2)
    T1 = np.repeat(t1, n2)
    T2 = np.tile(t2, n1)
    s1, c1 = np.sin(T1), np.cos(T1)
    s2, c2 = np.sin(T2), np.cos(T2)
    dirs = np.array([
        [s1 * c2, s1 * s2, c1],
        [c1 * c2, c1 * s2, -s1],
        [-s1 * s2, s1 * c2, np.zeros_like(s1)],
    ])
    weight = np.repeat(w1, n2) * np.tile(w2, n1) * np.sin(T1 / 2.0) / (2.0 * math.pi)
    return T1, T2, dirs, weight


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


def _moments(x: np.ndarray) -> np.ndarray:
    """G_k(x) = int_0^1 t^k / (1 - x t) dt for k = 0..4 and x < 1, stacked.

    G_0 = -log1p(-x)/x, then the upward recurrence G_k = (G_{k-1} - 1/k)/x,
    which loses a factor 1/|x| per step.  Where |x| <= _SERIES_X, G_4 comes
    from its power series sum_j x^j/(j+5) instead and the lower G_k from the
    downward recurrence G_{k-1} = x G_k + 1/k, which only shrinks errors.
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


def _radial_integral(offset, d0, vecs, big_s) -> np.ndarray:
    """int_0^S tr F ds per angular node, S = 1 - 2 eta; vecs stacks
    a = M n and the partials b1 = M dn/dtheta1, b2 = M dn/dtheta2.

    With b = t + s a the trace is 4|a|^2 + s^2 (|b1|^2 + |b2|^2) plus
    cross/den, where cross is a quartic in s and den = 1 - |b|^2 =
    d0 (1 - u s)(1 - v s) with u >= 0 >= v, both in [-1, 1] because the
    outputs at s = +-1 are states.  Partial fractions give
    int_0^S s^k/den ds = S^(k+1) [w_u G_k(uS) + w_v G_k(vS)] / d0 with
    w_u = u/(u - v) = u d0 / (2 sq), w_v = 1 - w_u: a convex mix of
    positive terms, so nothing cancels.
    """
    aa, ab1, ab2 = np.einsum("jk,ijk->ik", vecs[0], vecs)
    poly = 4.0 * big_s * aa + big_s**3 / 3.0 * np.einsum("ijk,ijk->k", vecs[1:], vecs[1:])
    if d0 <= 4.0 * PURITY_TOL:
        # a pure offset admits only M = 0, so the output carries no cross term
        return poly
    ta, tb1, tb2 = offset @ vecs
    # roots of d0 rho^2 - 2 ta rho - aa: the larger one from |ta| + sq, which
    # cannot cancel, the other from their product -aa/d0
    sq = np.sqrt(ta * ta + d0 * aa)
    big = np.abs(ta) + sq
    small = aa / np.maximum(big, 1e-300)
    big /= d0
    pos = ta >= 0.0
    u = np.where(pos, big, small)
    v_abs = np.where(pos, small, big)
    w_u = u * (0.5 * d0) / np.maximum(sq, 1e-300)  # u = v = 0 when sq = 0
    # a root at the cutoff (only reachable at S = 1) is a log divergence:
    # cross > 0 there whenever a != 0
    root = u * big_s >= 1.0 - _ROOT_TOL
    g = _moments(np.stack([np.where(root, 0.0, u * big_s), -big_s * v_abs])).reshape(5, 2, -1)
    mix = g[:, 1] + w_u * (g[:, 0] - g[:, 1])
    coeffs = (
        4.0 * ta * ta,
        8.0 * ta * aa,
        4.0 * aa * aa + tb1 * tb1 + tb2 * tb2,
        2.0 * (tb1 * ab1 + tb2 * ab2),
        ab1 * ab1 + ab2 * ab2,
    )
    cross = sum(c * (big_s ** (k + 1) / d0) * mix[k] for k, c in enumerate(coeffs))
    return np.where(root, np.inf, poly + cross)


def avg_trace_qfi(p: UnitaryParams, probe: ProbeState, quad: QuadSpec, eta: float) -> float:
    """Regularized average of tr F over the prior, radius cut at 1/2 - eta.

    The radial integral is exact; only the angular axes use quad's nodes.
    eta = 0 gives the uncut average, +inf where the integrand diverges.
    """
    if not 0.0 <= eta <= ETA_MAX:
        raise ValueError(f"eta must lie in [0, {ETA_MAX}], got {eta!r}")
    T1, T2, dirs, w_ang = _angular_tables(quad.n_theta1, quad.n_theta2)
    offset, m = _probe_affine(p, probe)
    d0 = 1.0 - float(offset @ offset)
    big_s = 1.0 - 2.0 * eta
    total = 0.0
    for lo in range(0, T1.size, _CHUNK):
        radial = _radial_integral(offset, d0, m @ dirs[:, :, lo:lo + _CHUNK], big_s)
        if np.isnan(radial).any():
            k = lo + int(np.flatnonzero(np.isnan(radial))[0])
            raise QuadratureError(f"NaN integrand at node theta1={T1[k]!r}, theta2={T2[k]!r}")
        total += 0.5 * float(radial @ w_ang[lo:lo + _CHUNK])  # dr = ds/2
    return total


def _aitken(seq):
    """Aitken delta-squared limit of the last three terms when contracting."""
    if len(seq) < 3:
        return seq[-1]
    x0, x1, x2 = seq[-3], seq[-2], seq[-1]
    d1, d2 = x1 - x0, x2 - x1
    if d2 == d1 or abs(d2) >= abs(d1):
        return x2
    return x2 - d2 * d2 / (d2 - d1)


def _refined_avg(p: UnitaryParams, probe: ProbeState, quad: QuadSpec, eta: float, base: float) -> float:
    """Angular-doubling ladder from `base`, the value on quad itself, until
    the value moves < 1e-4 relative, then Aitken extrapolation of the
    ladder tail."""
    n1, n2 = quad.n_theta1, quad.n_theta2
    values = [base]
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
        refined = [_refined_avg(p, probe, quad, eta, base) for eta, base in trace[-3:]]
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
