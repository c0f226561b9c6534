"""Quantum Fisher information of the channel output and its Bayesian average.

The channel is affine in the environment Bloch vector, so output states and
their parameter derivatives reduce to one 3x4 map A = [t | M] per probe, an
offset t and a linear map M with b = t + M e = A (1, e).  Along each prior
direction n the output Bloch vector is b = t + s M n with s = 2r, so the
trace-QFI is a polynomial in s plus a quartic over the quadratic
den = 1 - |b|^2.  The averaged trace-QFI therefore integrates the radius in
closed form, up to the cutoff 1/2 - eta; only the angles use nodes,
Gauss-Legendre on theta1 and the trapezoid on the periodic theta2.  One
kernel, `_averages`, evaluates a (P, 3, 4) stack of probes' maps at a list
of cutoffs, one row per cutoff, in blocks of at most _CHUNK probe x node
elements: a block's geometry (M n, the roots of den and the quartic's
coefficients) does not depend on the cutoff and is built once, and the
radial moments, their mix and the cross sum take as many cutoffs per pass
as keep cutoff x probe x node within _CHUNK.  A call allocates one flat
workspace for its largest block, and every block array is a view of it,
computed in place (`_Block`), so a call's temporaries do not grow with its
blocks or cutoffs.
`avg_trace_qfi` is that kernel applied to one probe.  `avg_qfi_at_probe`
makes one call on the base grid `_QUAD` for its whole cutoff schedule, then
one call per rung of an angular-doubling ladder that holds the cutoffs still
open; the probe search scans and refines on `_QUAD` too.  At a pole probe
on the face ax == ay the channel is z-covariant and the prior z-invariant,
so tr F itself does not depend on theta2: there the base grid and the
ladder keep `_QUAD`'s theta1 nodes and start from two theta2 nodes.

The prior is invariant under z-rotations of the environment, so on the
face ax == ay of the tetrahedron, where U commutes with every z-rotation
R (x) R, the average does not depend on the probe's phi2, and along phi1
it was measured to peak at the south pole: there the probe maximum is the
schedule at the probe (pi, 0), which also settles DS, S and D at +inf.
For a fixed gate the output is linear in the probe density, so A is affine
in the probe Bloch vector q.  Every other gate builds that probe-affine
table once (`channel.probe_table`, four probes) and reads A for any probe
off it, with no isometry or channel work per probe.  Z (x) Z makes both
poles critical points of the average, so one batched kernel call over the
poles and a tangent stencil about each reads the better pole's tangent
Hessian: where it shows no ascent and the widest cutoff is at least 1e-2
(CD, IC, C and the interior away from the face ay == az), the probe
maximum is the schedule at that pole.  Only the other gates (CS and its
neighbourhood, or any gate under a smaller widest cutoff) get the 2-D
probe search: a scan of 79 probes, phi2 on [0, pi) only, in one batched
kernel call, then one one-probe call per distinct probe the Nelder-Mead
simplex tries.

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
    PROBE_SIMPLEX, UNITARY_TOL, ProbeState, apply_channel, once_per_probe, probe_scan, probe_table,
    stinespring_isometry, table_at,
)
from .linalg import PAULI
from .optimize import nelder_mead
from .unitary import UnitaryParams

PURITY_TOL = 1e-10
ETA_MAX = 0.4
DEFAULT_ETA_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
_LADDER_CAP = 256
_LADDER_RTOL = 1e-4
# probe x node elements per block, and cutoff x probe x node elements per
# pass of the moments; sizes the per-call workspace (`_Block.size`)
_CHUNK = 4096
_SERIES_X = 0.25  # |x| up to which G_k(x) is summed as a power series
_SERIES_TERMS = 28  # 0.25**28 / 33 < 1e-18
_POLE_STEP = 1e-3  # the tangent stencil's step in radians (`_pole_probe`)
_POLE_ETA = 1e-2  # the smallest widest cutoff at which the pole rule holds
# rows (phi1, phi2): the south pole, then the north pole, each followed by
# its tangent points at the step _POLE_STEP in the directions psi = 0,
# pi/3, 2 pi/3, where psi is phi2
_POLE_STENCIL = np.array([
    row for pole, near in ((math.pi, math.pi - _POLE_STEP), (0.0, _POLE_STEP))
    for row in ([pole, 0.0], *([near, k * math.pi / 3.0] for k in range(3)))
])


class QuadratureError(RuntimeError):
    """Numerical failure inside the averaging quadrature."""


@dataclass(frozen=True)
class QuadSpec:
    """Angular node counts: Gauss-Legendre on the polar theta1, the
    trapezoid on the azimuthal theta2; the radius is integrated exactly."""

    n_theta1: int = 32
    n_theta2: int = 32
    nr: ClassVar[int] = 48  # read by the benchmark's tracer only

    def __post_init__(self):
        if min(self.n_theta1, self.n_theta2) < 2:
            raise ValueError("quadrature spec needs at least 2 nodes per axis")


_QUAD = QuadSpec()  # the base grid of the probe search and the ladder


# --- Bayesian average -------------------------------------------------------

@lru_cache(maxsize=32)
def _angular_tables(n1: int, n2: int):
    """Node angles, the direction n and its two angular partials stacked as
    a (3, 3, nodes) array, and the prior-weighted angular weights: Gauss-
    Legendre on theta1, the trapezoid 2 pi k / n2 on theta2."""
    x, w1 = leggauss(n1)
    t1, w1 = 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w1
    T1 = np.repeat(t1, n2)
    T2 = np.tile(2.0 * math.pi / n2 * np.arange(n2), n1)
    s1, c1 = np.sin(T1), np.cos(T1)
    s2, c2 = np.sin(T2), np.cos(T2)
    dirs = np.array([
        [s1 * c2, s1 * s2, c1],
        [c1 * c2, c1 * s2, -s1],
        [-s1 * s2, s1 * c2, np.zeros_like(s1)],
    ])
    weight = np.repeat(w1, n2) / n2 * np.sin(T1 / 2.0)
    return T1, T2, dirs, weight


def _probe_affine(p: UnitaryParams, probe: ProbeState) -> np.ndarray:
    """The 3x4 map A = [t | M] of the probe's channel: output Bloch
    b = t + M e = A (1, e) for env Bloch e.  Column k is half the Bloch
    vector of the output on sigma_k."""
    iso = stinespring_isometry(p, probe)
    outs = [apply_channel(iso, s) for s in PAULI]
    return 0.5 * np.stack([[2.0 * m[0, 1].real, -2.0 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real] for m in outs], axis=1)


def _unitary(affine: np.ndarray) -> np.ndarray:
    """Whether each channel A = [t | M], stacked as (..., 3, 4), is unitary:
    t = 0 and M^T M = I to UNITARY_TOL."""
    t, m = affine[..., 0], affine[..., 1:]
    gram_err = np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(3)).max(axis=(-2, -1))
    return np.maximum(np.abs(t).max(axis=-1), gram_err) <= UNITARY_TOL


def _moments(x: np.ndarray, work=None) -> np.ndarray:
    """G_k(x) = int_0^1 t^k / (1 - x t) dt for k = 0..4 and x < 1, stacked:
    rows 0..4 of `work`, the (8, x.size) scratch that the call fills in
    place, or of a fresh one; x is 1-D.

    G_0 = -log1p(-x)/x, then the upward recurrence G_k = (G_{k-1} - 1/k)/x,
    which loses a factor 1/|x| per step.  Where |x| <= _SERIES_X, G_4 comes
    from its power series sum_j x^j/(j+5) instead and the lower G_k from the
    downward recurrence G_{k-1} = x G_k + 1/k, which only shrinks errors;
    those x are gathered into the one array the call allocates.
    """
    if work is None:
        work = np.empty((8, x.size))
    g, inv, h = work[:5], work[5], work[6]
    near = work[7].view(np.bool_)[:x.size]
    np.less_equal(np.abs(x, out=inv), _SERIES_X, out=near)
    count = np.count_nonzero(near)
    # inv holds -x (-0.5 where the series takes over), then -1/-x = 1/x
    np.negative(x, out=inv)
    if count:
        np.copyto(inv, -0.5, where=near)
    np.log1p(inv, out=g[0])
    np.negative(g[0], out=g[0])
    np.divide(-1.0, inv, out=inv)
    g[0] *= inv
    for k in range(1, 5):
        np.subtract(g[k - 1], 1.0 / k, out=g[k])
        g[k] *= inv
    if count:
        xs, h = x[near], h[:count]
        h.fill(1.0 / (_SERIES_TERMS + 4))
        for j in range(_SERIES_TERMS + 3, 4, -1):
            h *= xs
            h += 1.0 / j
        g[4][near] = h
        for k in range(4, 0, -1):
            h *= xs
            h += 1.0 / k
            g[k - 1][near] = h
    return g


class _Block:
    """The arrays of one block of P probes x `width` nodes: views of the
    workspace of one `_averages` call, which `size` sizes for its largest
    block.  Each row holds one value per probe and node, (P, width).  The
    geometry's rows come first: the direction products (3, P, 3, width),
    the offset dots ta, tb1, tb2, the direction dots aa, ab1, ab2,
    bb = |b1|^2 + |b2|^2, two scratch rows and the six products that the
    cross term's coefficients are summed from.  The passes reuse them, flat,
    for the terms S^(k+1) c_k, x = (u S, -|v| S) and the `_moments` scratch
    of `stack` cutoffs.  Then come the rows that live through the passes:
    the roots u and |v| (big and small until they are sorted), the five
    coefficients, one radial row and one scratch row per cutoff, d0, d0/2,
    and per cutoff of a pass 1/d0 and w_u; last the sign mask of ta.
    Per-probe columns are spread over rows, so that every ufunc call sees
    operands of one shape or a scalar and runs without numpy's iteration
    buffers.
    """

    __slots__ = ("vecs", "tvec", "ta", "tb", "dots", "aa", "ab", "bb", "sq", "tmp", "prods", "terms", "xs", "work",
                 "big", "small", "coeffs", "polys", "scratch", "columns", "d0", "half_d0", "inv_d0", "w_u", "neg")

    @staticmethod
    def rows(n_etas: int, stack: int) -> tuple:
        """Rows of the geometry and the passes, then all rows."""
        front = max(24, 23 * stack)
        return front, front + 9 + 2 * n_etas + 2 * stack

    @staticmethod
    def size(n_probes: int, width: int, n_etas: int, stack: int) -> int:
        """Workspace elements for one block: its rows and the mask's bytes."""
        e = n_probes * width
        return _Block.rows(n_etas, stack)[1] * e + -(-e // 8)

    def __init__(self, work: np.ndarray, n_probes: int, width: int, n_etas: int, stack: int):
        e, (at, n_rows) = n_probes * width, self.rows(n_etas, stack)
        rows = work[:n_rows * e].reshape(n_rows, n_probes, width)
        self.vecs = rows[:9].reshape(3, n_probes, 3, width)
        self.tvec = rows[9:12].reshape(3, n_probes, 1, width)
        self.ta, self.tb = rows[9], rows[10:12]
        self.dots, self.aa, self.ab, self.bb = rows[12:15], rows[12], rows[13:15], rows[15]
        self.sq, self.tmp, self.prods = rows[16], rows[17], rows[18:24].reshape(3, 2, n_probes, width)
        self.terms, self.xs = work[:5 * stack * e], work[5 * stack * e:7 * stack * e]
        self.work = work[7 * stack * e:23 * stack * e]
        self.big, self.small, self.coeffs = rows[at], rows[at + 1], rows[at + 2:at + 7]
        self.polys, self.scratch = rows[at + 7:at + 7 + n_etas], rows[at + 7 + n_etas:at + 7 + 2 * n_etas]
        at += 7 + 2 * n_etas
        self.columns, self.d0, self.half_d0 = rows[at:at + 3], rows[at], rows[at + 1]
        self.inv_d0, self.w_u = rows[at + 2:at + 2 + stack], rows[at + 2 + stack:at + 2 + 2 * stack]
        self.neg = work[n_rows * e:].view(np.bool_)[:e].reshape(n_probes, width)


def _radial_integral(offsets, columns, big_ss: list, block: _Block, stack: int) -> np.ndarray:
    """int_0^S tr F ds per cutoff, probe and angular node, (cutoffs, P,
    nodes), for each S = 1 - 2 eta in big_ss, computed in place in `block`,
    whose vecs the caller has filled.

    offsets is (P, 3); columns (3, P, 1) stacks d0 = 1 - |t|^2, d0/2 and
    1/d0, except that a pure offset has d0 = 1 and 1/d0 read 0 (see
    _averages), so a block of pure offsets (the identity gate) skips the
    cross term.  vecs (3, P, 3, nodes) stacks a = M n and the partials
    b1 = M dn/dtheta1, b2 = M dn/dtheta2.
    With b = t + s a the trace is 4|a|^2 + s^2 (|b1|^2 + |b2|^2) plus
    cross/den, where cross is a quartic in s and den = 1 - |b|^2 =
    d0 (1 - u s)(1 - v s) with u >= 0 >= v, both in [-1, 1] because the
    outputs at s = +-1 are states.  Partial fractions give
    int_0^S s^k/den ds = S^(k+1) [w_u G_k(uS) + w_v G_k(vS)] / d0 with
    w_u = u/(u - v) = u d0 / (2 sq), w_v = 1 - w_u: a convex mix of
    positive terms, so nothing cancels.  Everything but the powers of S and
    G_k(uS), G_k(vS) is independent of the cutoff and computed once; the
    moments, their mix and the cross sum take `stack` cutoffs per pass.
    """
    b = block
    vecs, ta, aa, polys = b.vecs, b.ta, b.aa, b.polys
    np.einsum("pjk,ipjk->ipk", vecs[0], vecs, out=b.dots)
    np.einsum("ipjk,ipjk->pk", vecs[1:], vecs[1:], out=b.bb)
    for poly, tmp, big_s in zip(polys, b.scratch, big_ss):
        np.multiply(aa, 4.0 * big_s, out=poly)
        poly += np.multiply(b.bb, big_s**3 / 3.0, out=tmp)
    if not columns[2].any():
        return polys
    np.matmul(offsets[:, None, :], vecs, out=b.tvec)
    np.copyto(b.columns, columns)
    # roots of d0 rho^2 - 2 ta rho - aa: the larger one from |ta| + sq, which
    # cannot cancel, the other from their product -aa/d0; then u = big and
    # |v| = small where ta >= 0, swapped where ta < 0
    sq, u, v_abs, w_u = b.sq, b.big, b.small, b.w_u
    np.multiply(ta, ta, out=sq)
    sq += np.multiply(b.d0, aa, out=b.tmp)
    np.sqrt(sq, out=sq)
    np.abs(ta, out=u)
    u += sq
    np.divide(aa, np.maximum(u, 1e-300, out=v_abs), out=v_abs)
    u /= b.d0
    np.less(ta, 0.0, out=b.neg)
    np.copyto(b.tmp, u, where=b.neg)
    np.copyto(u, v_abs, where=b.neg)
    np.copyto(v_abs, b.tmp, where=b.neg)
    np.multiply(u, b.half_d0, out=w_u[0])
    w_u[0] /= np.maximum(sq, 1e-300, out=sq)  # u = v = 0 when sq = 0
    if stack > 1:
        np.copyto(w_u[1:], w_u[0])
        np.copyto(b.inv_d0[1:], b.inv_d0[0])
    # 4 ta^2, 8 ta aa, 4 aa^2 + tb1^2 + tb2^2, 2 (tb1 ab1 + tb2 ab2) and
    # ab1^2 + ab2^2, from the products tb_i^2, tb_i ab_i and ab_i^2
    coeffs, prods, tb, ab = b.coeffs, b.prods, b.tb, b.ab
    np.multiply(tb, tb, out=prods[0])
    np.multiply(tb, ab, out=prods[1])
    np.multiply(ab, ab, out=prods[2])
    np.multiply(4.0, ta, out=coeffs[0])
    coeffs[0] *= ta
    np.multiply(8.0, ta, out=coeffs[1])
    coeffs[1] *= aa
    np.multiply(4.0, aa, out=coeffs[2])
    coeffs[2] *= aa
    coeffs[2] += prods[0, 0]
    coeffs[2] += prods[0, 1]
    np.add(prods[1, 0], prods[1, 1], out=coeffs[3])
    coeffs[3] *= 2.0
    np.add(prods[2, 0], prods[2, 1], out=coeffs[4])
    for c0 in range(0, len(polys), stack):
        pass_ss = big_ss[c0:c0 + stack]
        n, e = len(pass_ss), u.size
        x = b.xs[:2 * n * e].reshape(2, n, *u.shape)
        terms = b.terms[:5 * n * e].reshape(5, n, *u.shape)
        for c, big_s in enumerate(pass_ss):
            np.multiply(u, big_s, out=x[0, c])
            np.multiply(v_abs, -big_s, out=x[1, c])
            for k in range(5):
                np.multiply(coeffs[k], big_s ** (k + 1), out=terms[k, c])
        # u S < 1 except for round-off at S = 1, where a root on the cutoff
        # is integrable unless the channel is unitary (see _averages)
        np.minimum(x[0], 1.0 - 2.0**-53, out=x[0])
        g = _moments(x.reshape(-1), b.work[:16 * n * e].reshape(8, 2 * n * e)).reshape(5, *x.shape)
        # per k, in k order: mix_k = G_k(vS) + w_u (G_k(uS) - G_k(vS)) in
        # place of G_k(uS), then the term (S^(k+1) c_k) mix_k, summed
        w_n = w_u[:n]
        for k, (mix, rest) in enumerate(g):
            mix -= rest
            mix *= w_n
            mix += rest
            mix *= terms[k]
            if k:
                cross += mix
            else:
                cross = mix
        cross *= b.inv_d0[:n]
        polys[c0:c0 + n] += cross
    return polys


def _averages(probes: np.ndarray, affine: np.ndarray, quad: QuadSpec, etas) -> np.ndarray:
    """Regularized averages of tr F over the prior for a batch of probes,
    one row per cutoff eta in `etas`, radius cut at 1/2 - eta; probe i has
    the output map affine[i] = [t | M], (P, 3, 4).  `probes`, rows
    (phi1, phi2), only names a probe in errors.

    Each block holds at most _CHUNK probe x node elements: several probes
    per block on grids up to 64x64, node blocks of one probe above.  The
    block's geometry is built once for all cutoffs, and its moments, mix
    and cross sum take as many cutoffs per pass as keep cutoff x probe x
    node within _CHUNK (all five of the face base grid 32x2, four of the
    base grid 32x32, one on the 64x64 and larger rungs).  Every element
    sees the operations of a one-cutoff call in the same order, so each row
    equals that call's to the bit.  The block arrays are views of one flat
    workspace, which the call allocates for its largest block (`_Block`)
    and drops on return; beside it a call allocates only its small
    per-probe arrays and, per pass, the gather of the power series'
    arguments (`_moments`).
    """
    T1, T2, dirs, w_ang = _angular_tables(quad.n_theta1, quad.n_theta2)
    nodes = T1.size
    # t as a contiguous copy, since matmul sums a strided vector in another
    # order: the sums then match (t, M) passed apart, to the bit
    offsets, maps = np.ascontiguousarray(affine[..., 0]), affine[None, ..., 1:]
    # per probe d0 = 1 - |t|^2, d0/2 and 1/d0, (3, P, 1).  A pure offset
    # admits only M = 0, so the output carries no cross term: its 1/d0 reads
    # 0, and d0 = 1 keeps the dropped term finite
    columns = np.empty((3, len(affine), 1))
    d0 = np.subtract(1.0, (offsets[:, None, :] @ offsets[:, :, None])[:, 0], out=columns[0])
    pure = d0 <= 4.0 * PURITY_TOL
    np.copyto(d0, 1.0, where=pure)
    np.multiply(0.5, d0, out=columns[1])
    np.divide(1.0, d0, out=columns[2])
    np.copyto(columns[2], 0.0, where=pure)
    big_ss = [1.0 - 2.0 * e for e in etas]
    per_block, span = max(1, _CHUNK // nodes), min(nodes, _CHUNK)
    n_probes = min(len(affine), per_block)
    stack = min(len(etas), max(1, _CHUNK // (n_probes * span)))
    work = np.empty(_Block.size(n_probes, span, len(etas), stack))
    blocks = {}
    total = np.zeros((len(etas), len(affine)))
    for row, e in zip(total, etas):
        if e == 0.0:
            row[_unitary(affine)] = np.inf  # the only divergent averages
    dirs = dirs[:, None]
    for p0 in range(0, len(affine), per_block):
        batch = slice(p0, p0 + per_block)
        t, cols = offsets[batch], columns[:, batch]
        for lo in range(0, nodes, span):
            w = w_ang[lo:lo + span]
            shape = (len(t), len(w))
            if shape not in blocks:
                blocks[shape] = _Block(work, *shape, len(etas), stack)
            block = blocks[shape]
            np.matmul(maps[:, batch], dirs[..., lo:lo + span], out=block.vecs)
            radial = _radial_integral(t, cols, big_ss, block, stack)
            for row, r in zip(total, radial):
                row[batch] += r @ w
            if np.isnan(total[:, batch]).any():
                for r in radial:
                    nan = np.isnan(r)
                    if nan.any():
                        i, k = np.argwhere(nan)[0]
                        phi1, phi2 = probes[p0 + i]
                        raise QuadratureError(
                            f"NaN integrand at probe phi1={float(phi1)!r}, phi2={float(phi2)!r}, "
                            f"node theta1={float(T1[lo + k])!r}, theta2={float(T2[lo + k])!r}"
                        )
    total *= 0.5  # dr = ds/2
    return total


def avg_trace_qfi(p: UnitaryParams, probe: ProbeState, quad: QuadSpec, eta):
    """Regularized average of tr F over the prior, radius cut at 1/2 - eta.

    `eta` is one cutoff, giving a float, or a sequence of cutoffs, giving a
    tuple with one average per cutoff, each bit-identical to its one-cutoff
    call; the probe's isometry and the angular geometry are built once for
    all of them.  The radial integral is exact; only the angular axes use
    quad's nodes.  At eta = 0 the average reads +inf exactly where the probe
    channel is unitary (S at any probe, D at a pole probe) and is finite
    elsewhere, also where den touches zero on the sphere at isolated
    directions (ID t = 0.5 at the probe (pi, 0)); near such a direction the
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
    values = _averages(np.array([[probe.phi1, probe.phi2]]), _probe_affine(p, probe)[None], quad, etas)[:, 0]
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
    (`_ladder`).  At a pole probe, phi1 exactly 0 or pi, on the face
    ax == ay, tr F does not depend on theta2, so the base grid takes two
    theta2 nodes, the fewest `QuadSpec` allows, and the rungs double from
    there; each value matches the square grid's to round-off.
    """
    schedule = _schedule(eta_schedule)
    quad = _QUAD
    if p.alpha_x == p.alpha_y and probe.phi1 in (0.0, math.pi):
        quad = QuadSpec(_QUAD.n_theta1, 2)  # tr F does not depend on theta2
    trace = tuple(zip(schedule, avg_trace_qfi(p, probe, quad, schedule)))
    divergent = _unitary(_probe_affine(p, probe))
    value = math.inf if divergent else _aitken(_ladder(p, probe, quad, trace[-3:]))
    return AvgQfiResult(value=value, probe_opt=probe, eta_trace=trace)


def _pole_probe(table: np.ndarray, schedule: list):
    """The better pole, if the average at the widest cutoff has no ascent
    there and that cutoff is at least _POLE_ETA, else None: one batched
    kernel call on `_QUAD` over both poles and their tangent stencils
    (`_POLE_STENCIL`).

    Z (x) Z maps the probe Bloch vector q to (-qx, -qy, qz), fixes both
    poles and acts as -I on their tangent planes; it commutes with every
    canonical gate, and the trapezoid keeps it exact on the theta2 grid.  So
    the computed average is even about either pole: its gradient there is 0
    and the tangent point at the step d in the direction psi reads
    f0 + d^2/2 H(psi) + O(d^4), H(psi) = e^T H e with e = (cos psi, sin psi)
    and H the 2x2 tangent Hessian.  Opposite directions are equal, so three,
    psi = 0, pi/3 and 2 pi/3, fix the three entries of H.  The pole is taken
    where the larger eigenvalue of H is at most d^2 max(1, |f0|), the
    stencil's own error: the truncation d^2/12 times a fourth derivative,
    taken to scale with |f0| on the unit sphere, and round-off 4 eps |f0| / d^2,
    which at eps ~ 1e-15 is 4e-9 |f0|.  Semidefinite, not definite, on
    purpose: where ay == az == 0 (IC and C) exp(i a X (x) X) commutes with
    x-rotations of the probe alone, so the average depends on qx only and H
    is flat along y to round-off (measured 4e-11 to 2.5e-9 at eta = 1e-2,
    against -0.82 to -3.3 along x).

    A local test proves only a local maximum.  At widest cutoffs from 1e-2
    to ETA_MAX the 2-D search never beat a pole the rule took, on 320
    random gates (az = 0, interior, on and within 1e-3 of the face
    ay == az), and not down to 2e-3 either.  Below, maxima away from the
    poles outgrow them while the poles stay local maxima: at 1e-3 and 1e-4
    on the face ay == az (gate (1.3645, 0.3919, 0.3919) at 1e-4: 0.113
    above the better pole on 256^2), at 1e-6 at az = 0 gates with ay near
    ax (gate (0.6095, 0.5711, 0): 0.069).  So the rule stops at _POLE_ETA;
    `test_pole_rule_is_never_beaten_by_the_sphere_search` holds both sides.
    """
    if schedule[0] < _POLE_ETA:
        return None
    f = _averages(_POLE_STENCIL, table_at(table, _POLE_STENCIL), _QUAD, schedule[:1])[0].reshape(2, 4)
    best = int(np.argmax(f[:, 0]))  # the south pole on a tie
    f0, ring = f[best, 0], f[best, 1:]
    s0, s1, s2 = 2.0 * (ring - f0) / _POLE_STEP**2  # H(psi) at psi = 0, pi/3, 2 pi/3
    # H(psi) = a + b cos 2 psi + c sin 2 psi peaks at H's larger eigenvalue
    a, b, c = (s0 + s1 + s2) / 3.0, (2.0 * s0 - s1 - s2) / 3.0, (s1 - s2) / math.sqrt(3.0)
    if a + math.hypot(b, c) <= _POLE_STEP**2 * max(1.0, abs(f0)):
        return ProbeState(*_POLE_STENCIL[4 * best])
    return None


def _sphere_search(p: UnitaryParams, schedule: list, table: np.ndarray) -> AvgQfiResult:
    """The 2-D probe search of a gate that `_pole_probe` leaves open, on the
    gate's probe-affine table.

    The scan is one batched kernel call over 79 probes, 13 x 7 on
    [0, pi] x [0, pi) with one probe per pole row (`channel.probe_scan`).
    Nelder-Mead (`channel.PROBE_SIMPLEX`, phi1 held to [0, pi]) refines the
    first best of them with one single-probe call per distinct probe
    (`channel.once_per_probe`), both at the widest cutoff only and reading
    A = [t | M] off the gate's probe-affine table: the scan reads a
    (79, 3, 4) stack, and `_averages` gets the one-cutoff list schedule[:1]
    and returns its one row.  A simplex that starts at the south pole never
    leaves it, since its step in phi1 clamps back to pi: every point it
    tries names that pole, and it makes one call in all.
    The schedule at the optimum is `avg_qfi_at_probe`: one base-grid call
    over all cutoffs, then one call per ladder rung.
    """

    def averages(pts):
        return _averages(pts, table_at(table, pts), _QUAD, schedule[:1])[0]

    scan = probe_scan(13, 7, math.pi)
    start = tuple(scan[int(np.argmax(averages(scan)))].tolist())
    res = nelder_mead(once_per_probe(lambda x: -float(averages(np.array([x]))[0])), start, **PROBE_SIMPLEX)
    return replace(avg_qfi_at_probe(p, ProbeState(*res.x), schedule), converged=res.converged)


def maximize_over_probe(p: UnitaryParams, eta_schedule=DEFAULT_ETA_SCHEDULE) -> AvgQfiResult:
    """Probe maximization of the averaged trace-QFI at the widest cutoff,
    then the full cutoff schedule at the optimum.

    The prior is invariant under z-rotations of the environment, and Z (x) Z
    commutes with U, so the average takes the same value at the probe image
    (phi1, phi2 + pi).  It shifts theta2 by pi, which maps the even theta2
    grids of the trapezoid onto themselves, so the computed average keeps
    the symmetry: both poles are its critical points, and the 2-D scan
    covers phi2 in [0, pi) only.  The answer takes one of three paths, the
    first picked by exact equality of the angles, which `edge_point`
    produces bit for bit:

    - ax == ay (I, IS, ID, DS, S, D): the schedule at the south pole
      (pi, 0), with no probe table, scan or simplex.  XX + YY commutes with
      every z-rotation R (x) R, so the average, at every cutoff, does not
      depend on phi2, and the probes (phi1, 0) cover every value.  Along
      them it peaks at the pole pi.  That is measured, not proven: on 120
      random face gates and the 41-sample IS and ID sweeps, at eta = 1e-2,
      1e-4 and 1e-6, no phi1 of a 361-point line beat the better pole, and
      at eta = 1e-2 (pi, 0) beat (0, 0) on 378 of 380 non-unitary face
      gates, the other 2 being I, where every probe gives 0;
      `test_reduced_qfi_search_against_the_sphere_search` holds it.  On DS
      (S and D included) the channel at either pole is unitary, so (pi, 0)
      reads +inf, the supremum over probes (README, "How the averaged QFI
      is computed").
    - Any other gate builds its probe-affine table once
      (`channel.probe_table`) and takes the schedule at the better pole if
      the widest cutoff is at least 1e-2 and the pole's tangent Hessian
      there shows no ascent (`_pole_probe`): CD, IC, C and the interior
      away from the face ay == az, nearly equal angles included.
    - Otherwise the 2-D search over the sphere on the same table
      (`_sphere_search`): the face ay == az with az > 0 (CS) and gates near
      it, where x-rotations commute with U but the prior sin(theta1/2) is
      not x-symmetric, and the optimum leaves the pole; and every gate
      off the face ax == ay under a widest cutoff below 1e-2.
    """
    schedule = _schedule(eta_schedule)
    if p.alpha_x == p.alpha_y:
        return avg_qfi_at_probe(p, ProbeState(math.pi, 0.0), schedule)
    table = probe_table(lambda probe: _probe_affine(p, probe))
    pole = _pole_probe(table, schedule)
    if pole is not None:
        return avg_qfi_at_probe(p, pole, schedule)
    return _sphere_search(p, schedule, table)
