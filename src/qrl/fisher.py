"""Quantum Fisher information of the channel output and its Bayesian average.

The channel is affine in the environment Bloch vector, so output states and
their parameter derivatives reduce to one 3-vector offset t and one 3x3
linear map M per probe.  Along each prior direction n the output Bloch vector
is b = t + s M n with s = 2r, so the trace-QFI is a polynomial in s plus a
quartic over the quadratic den = 1 - |b|^2.  The averaged trace-QFI
therefore integrates the radius in closed form, up to the cutoff 1/2 - eta,
and only the two angles use Gauss-Legendre nodes.  One kernel, `_averages`,
evaluates a batch of probes in blocks of at most _CHUNK probe x node
elements, at one cutoff or at several: a block's geometry (M n, the roots
of den and the quartic's coefficients) does not depend on the cutoff and is
built once per block, and only the radial moments are evaluated per cutoff.
`avg_trace_qfi` is that kernel applied to one probe.  `avg_qfi_at_probe`
makes one call on the base grid `_QUAD` for its whole cutoff schedule, then
one call per rung of an angular-doubling ladder that holds the cutoffs still
open; the probe search scans and refines on `_QUAD` too.

For a fixed gate the output is linear in the probe density, so t and M are
affine in the probe Bloch vector q.  The probe search builds that
probe-affine table once per gate (`channel.probe_table`, four probes) and
then reads (t, M) for any probe off it: its probe scan, 145 probes of a
13x13 grid whose pole rows hold one probe each, is one batched kernel call
and each Nelder-Mead evaluation a one-probe call, with no isometry or
channel work per probe.

Both roots of den lie outside (-1, 1), because the outputs at the pure
environment states +-n are states.  The average diverges exactly when the
probe channel is unitary, t = 0 and M^T M = I (`_unitary`): only then does
den vanish at s = 1 on directions of positive area, as |t + M n|^2 = 1 on an
open set of the sphere is polynomial and so holds on all of it; there the
merit's value is +inf.  Inside the cutoff den is small only where the output
is nearly pure, and the cross term is then small too; nothing is masked
there, because dropping those nodes biased near-identity gates low.  The
one exception is a pure offset (1 - |t|^2 <= 4 PURITY_TOL), which forces
M = 0 and leaves no cross term.

`QuadSpec` holds the two angular node counts.  Its `nr`, a fixed radial
node count, enters no integral; it stays only for the benchmark's tracer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import ClassVar

import numpy as np
from numpy.polynomial.legendre import leggauss

from .channel import (
    PROBE_SIMPLEX, UNITARY_TOL, ProbeState, apply_channel, probe_scan, probe_table, stinespring_isometry, table_at,
)
from .linalg import PAULI
from .optimize import nelder_mead
from .unitary import UnitaryParams

PURITY_TOL = 1e-10
ETA_MAX = 0.4
DEFAULT_ETA_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
_LADDER_CAP = 256
_LADDER_RTOL = 1e-4
_CHUNK = 4096  # probe x node elements per vectorised block, bounds the temporaries
_SERIES_X = 0.25  # |x| up to which G_k(x) is summed as a power series
_SERIES_TERMS = 28  # 0.25**28 / 33 < 1e-18


class QuadratureError(RuntimeError):
    """Numerical failure inside the averaging quadrature."""


@dataclass(frozen=True)
class QuadSpec:
    """Gauss-Legendre node counts (polar, azimuthal); the radius is
    integrated exactly."""

    n_theta1: int = 32
    n_theta2: int = 32
    nr: ClassVar[int] = 48  # read by the benchmark's tracer only

    def __post_init__(self):
        if min(self.n_theta1, self.n_theta2) < 2:
            raise ValueError("quadrature spec needs at least 2 nodes per axis")


_QUAD = QuadSpec()  # the base grid of both probe searches and the ladder


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


def _unitary(offsets: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Whether each channel b = t + M e is unitary, t = 0 and M^T M = I to
    UNITARY_TOL, for offsets (..., 3) and maps (..., 3, 3)."""
    gram_err = np.abs(np.swapaxes(maps, -1, -2) @ maps - np.eye(3)).max(axis=(-2, -1))
    return np.maximum(np.abs(offsets).max(axis=-1), gram_err) <= UNITARY_TOL


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


def _radial_integral(offsets, d0, inv_d0, vecs, big_ss) -> list:
    """int_0^S tr F ds per probe and angular node, one array per S = 1 - 2 eta
    in big_ss.

    offsets is (P, 3); d0 = 1 - |t|^2 and inv_d0 = 1/d0 are (P, 1), except
    that a pure offset has d0 = 1 and inv_d0 = 0 (see _averages), so a
    block of pure offsets (the identity gate) skips the cross term.
    vecs (3, P, 3, nodes) stacks a = M n and the partials b1 = M dn/dtheta1,
    b2 = M dn/dtheta2.
    With b = t + s a the trace is 4|a|^2 + s^2 (|b1|^2 + |b2|^2) plus
    cross/den, where cross is a quartic in s and den = 1 - |b|^2 =
    d0 (1 - u s)(1 - v s) with u >= 0 >= v, both in [-1, 1] because the
    outputs at s = +-1 are states.  Partial fractions give
    int_0^S s^k/den ds = S^(k+1) [w_u G_k(uS) + w_v G_k(vS)] / d0 with
    w_u = u/(u - v) = u d0 / (2 sq), w_v = 1 - w_u: a convex mix of
    positive terms, so nothing cancels.  Everything but the powers of S and
    G_k(uS), G_k(vS) is independent of the cutoff and computed once.
    """
    aa, ab1, ab2 = np.einsum("pjk,ipjk->ipk", vecs[0], vecs)
    bb = np.einsum("ipjk,ipjk->pk", vecs[1:], vecs[1:])
    polys = [4.0 * big_s * aa + big_s**3 / 3.0 * bb for big_s in big_ss]
    if not inv_d0.any():
        return polys
    ta, tb1, tb2 = (offsets[:, None, :] @ vecs)[:, :, 0]
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
    coeffs = (
        4.0 * ta * ta,
        8.0 * ta * aa,
        4.0 * aa * aa + tb1 * tb1 + tb2 * tb2,
        2.0 * (tb1 * ab1 + tb2 * ab2),
        ab1 * ab1 + ab2 * ab2,
    )
    for poly, big_s in zip(polys, big_ss):
        # u S < 1 except for round-off at S = 1, where a root on the cutoff
        # is integrable unless the channel is unitary (see _averages)
        x = np.minimum(u * big_s, 1.0 - 2.0**-53)
        g = _moments(np.stack([x, -big_s * v_abs])).reshape(5, 2, *u.shape)
        mix = g[:, 1] + w_u * (g[:, 0] - g[:, 1])
        cross = big_s * coeffs[0] * mix[0]
        for k in range(1, 5):
            cross += big_s ** (k + 1) * coeffs[k] * mix[k]
        cross *= inv_d0
        poly += cross
    return polys


def _averages(probes: np.ndarray, offsets: np.ndarray, maps: np.ndarray, quad: QuadSpec, eta) -> np.ndarray:
    """Regularized averages of tr F over the prior for a batch of probes,
    radius cut at 1/2 - eta; probe i has output Bloch b = offsets[i] +
    maps[i] e.  `probes`, rows (phi1, phi2), only names a probe in errors.
    `eta` is one cutoff, giving one average per probe, or a sequence of
    cutoffs, giving one row of averages per cutoff, each equal to the
    one-cutoff call.

    Each block holds at most _CHUNK probe x node elements: several probes
    per block on grids up to 64x64, node blocks of one probe above.  The
    block's geometry is built once for all cutoffs.
    """
    etas = [float(e) for e in np.atleast_1d(eta)]
    T1, T2, dirs, w_ang = _angular_tables(quad.n_theta1, quad.n_theta2)
    nodes = T1.size
    d0 = 1.0 - (offsets[:, None, :] @ offsets[:, :, None])[:, 0]
    # a pure offset admits only M = 0, so the output carries no cross term:
    # its inv_d0 reads 0, and d0 = 1 keeps the dropped term finite
    pure = d0 <= 4.0 * PURITY_TOL
    d0 = np.where(pure, 1.0, d0)
    inv_d0 = np.where(pure, 0.0, 1.0 / d0)
    big_ss = [1.0 - 2.0 * e for e in etas]
    per_block, span = max(1, _CHUNK // nodes), min(nodes, _CHUNK)
    total = np.zeros((len(etas), len(offsets)))
    for row, e in zip(total, etas):
        if e == 0.0:
            row[_unitary(offsets, maps)] = np.inf  # the only divergent averages
    maps, dirs = maps[None], dirs[:, None]
    for p0 in range(0, len(offsets), per_block):
        batch = slice(p0, p0 + per_block)
        t, d, inv = offsets[batch], d0[batch], inv_d0[batch]
        for lo in range(0, nodes, span):
            vecs = maps[:, batch] @ dirs[..., lo:lo + span]
            for row, radial in zip(total, _radial_integral(t, d, inv, vecs, big_ss)):
                nan = np.isnan(radial)
                if nan.any():
                    i, k = np.argwhere(nan)[0]
                    phi1, phi2 = probes[p0 + i]
                    raise QuadratureError(
                        f"NaN integrand at probe phi1={float(phi1)!r}, phi2={float(phi2)!r}, "
                        f"node theta1={float(T1[lo + k])!r}, theta2={float(T2[lo + k])!r}"
                    )
                row[batch] += radial @ w_ang[lo:lo + span]
    total *= 0.5  # dr = ds/2
    return total if np.ndim(eta) else total[0]


def avg_trace_qfi(p: UnitaryParams, probe: ProbeState, quad: QuadSpec, eta):
    """Regularized average of tr F over the prior, radius cut at 1/2 - eta.

    `eta` is one cutoff, giving a float, or a sequence of cutoffs, giving a
    tuple with one average per cutoff, each bit-identical to its one-cutoff
    call; the probe's isometry and the angular geometry are built once for
    all of them.  The radial integral is exact; only the angular axes use
    quad's nodes.  At eta = 0 the average reads +inf exactly where the probe
    channel is unitary (S at any probe, D at a pole probe) and is finite
    elsewhere, also where den touches zero on the sphere at isolated
    directions (ID t = 0.5 at probe (pi, 0.5)); near such a direction the
    angular nodes converge slowly.  The cutoff schedules never reach eta = 0.
    """
    scalar = np.ndim(eta) == 0
    etas = [eta] if scalar else list(eta)
    if not etas:
        raise ValueError("eta sequence needs one or more cutoffs, got none")
    for i, e in enumerate(etas):
        if not 0.0 <= e <= ETA_MAX:
            name = "eta" if scalar else f"eta[{i}]"
            raise ValueError(f"{name} must lie in [0, {ETA_MAX}], got {e!r}")
    offset, m = _probe_affine(p, probe)
    values = _averages(np.array([[probe.phi1, probe.phi2]]), offset[None], m[None], quad, etas)[:, 0]
    return float(values[0]) if scalar else tuple(float(v) for v in values)


def _aitken(seq):
    """Aitken delta-squared limit of the last three terms when contracting."""
    if len(seq) < 3:
        return seq[-1]
    x0, x1, x2 = seq[-3], seq[-2], seq[-1]
    d1, d2 = x1 - x0, x2 - x1
    if d2 == d1 or abs(d2) >= abs(d1):
        return x2
    return x2 - d2 * d2 / (d2 - d1)


def _ladder(p: UnitaryParams, probe: ProbeState, quad: QuadSpec, trace) -> list:
    """Refined value of each (eta, value on quad) pair in `trace`: an
    angular-doubling ladder whose rungs are one call on the doubled grid,
    holding the cutoffs still open.  A cutoff's ladder stops once its value
    moves < 1e-4 relative; its refined value is the Aitken extrapolation of
    its own ladder tail."""
    ladders = [(eta, [base]) for eta, base in trace]
    open_ = ladders
    n1, n2 = quad.n_theta1, quad.n_theta2
    while open_ and max(n1, n2) < _LADDER_CAP:
        n1, n2 = 2 * n1, 2 * n2
        rung = avg_trace_qfi(p, probe, QuadSpec(n1, n2), [eta for eta, _ in open_])
        for (_, values), cur in zip(open_, rung):
            values.append(cur)
        open_ = [(eta, v) for eta, v in open_ if not abs(v[-1] - v[-2]) < _LADDER_RTOL * max(1.0, abs(v[-1]))]
    return [_aitken(values) for _, values in ladders]


@dataclass(frozen=True)
class AvgQfiResult:
    """value reads +inf exactly where the average diverges."""

    value: float
    probe_opt: ProbeState
    eta_trace: tuple
    converged: bool = True

    def __post_init__(self):
        # shrinking the cutoff only grows the integration domain
        vals = [v for _, v in self.eta_trace]
        for prev, cur in zip(vals, vals[1:]):
            if cur < prev - 1e-8 * max(1.0, abs(prev)):
                raise QuadratureError(
                    f"eta_trace not non-decreasing as eta shrinks: {prev!r} -> {cur!r}"
                )


def _schedule(eta_schedule) -> list:
    """Distinct cutoffs, widest first: one or more, each in (0, ETA_MAX]."""
    schedule = sorted({float(e) for e in eta_schedule}, reverse=True)
    if not schedule or not all(0.0 < e <= ETA_MAX for e in schedule):
        raise ValueError(f"eta schedule must hold one or more cutoffs in (0, {ETA_MAX}], got {eta_schedule!r}")
    return schedule


def avg_qfi_at_probe(p: UnitaryParams, probe: ProbeState, eta_schedule=DEFAULT_ETA_SCHEDULE) -> AvgQfiResult:
    """Regularized trace at each cutoff and the eta -> 0 value: +inf, the
    divergent case, where the probe channel is unitary, otherwise an
    extrapolation of ladder-refined values over the last three cutoffs.

    The trace is one `avg_trace_qfi` call on `_QUAD` over the whole schedule.
    A finite value then adds one call per ladder rung, on the doubled grid
    and over those of the last three cutoffs whose values still move
    (`_ladder`).
    """
    schedule = _schedule(eta_schedule)
    trace = tuple(zip(schedule, avg_trace_qfi(p, probe, _QUAD, schedule)))
    divergent = _unitary(*_probe_affine(p, probe))
    value = math.inf if divergent else _aitken(_ladder(p, probe, _QUAD, trace[-3:]))
    return AvgQfiResult(value=value, probe_opt=probe, eta_trace=trace)


def maximize_over_probe(p: UnitaryParams, eta_schedule=DEFAULT_ETA_SCHEDULE) -> AvgQfiResult:
    """Probe maximization of the averaged trace-QFI at the widest cutoff,
    then the full cutoff schedule at the optimum.

    The gate's probe-affine table is built once; the scan of 145 probes is
    one batched call of the averaging kernel and each Nelder-Mead evaluation
    one single-probe call, both at the widest cutoff only and reading (t, M)
    off the table.  The schedule at the optimum is `avg_qfi_at_probe`: one
    base-grid call over all cutoffs, then one call per ladder rung.
    """
    schedule = _schedule(eta_schedule)
    eta0 = schedule[0]
    table = probe_table(lambda probe: np.concatenate([a.ravel() for a in _probe_affine(p, probe)]))

    def averages(pts):
        flat = table_at(table, pts)
        return _averages(pts, flat[:, :3], flat[:, 3:].reshape(-1, 3, 3), _QUAD, eta0)

    pts = probe_scan(13, 13, math.pi, 2.0 * math.pi)
    start = pts[int(np.argmax(averages(pts)))]
    # nelder_mead evaluates projected points only
    res = nelder_mead(lambda q: -float(averages(np.array([q]))[0]), start, **PROBE_SIMPLEX)
    probe = ProbeState(*res.x)
    return replace(avg_qfi_at_probe(p, probe, schedule), converged=res.converged)
