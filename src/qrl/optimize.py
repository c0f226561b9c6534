"""Derivative-free minimization: Nelder-Mead from a caller's seed.

The simplex update uses the standard coefficients (reflection 1, expansion
2, contraction 1/2, shrink 1/2) and declares convergence when the simplex
diameter drops below a tolerance.  The bounds (lo, hi) clamp the first
coordinate of every point, the one coordinate any search here bounds: a
radius or the probe's polar angle phi1.  Every caller states tol, max_iter
and bounds; (-inf, inf) leaves the point free.  Callers pick the seed
deterministically (a grid scan or a fixed seed set), so the whole pipeline
is reproducible without randomness.

The searches here have one or two coordinates, where numpy's per-array cost
outweighs the arithmetic.  The objective takes a point as a tuple of Python
floats, and the result's x is one.  A search over two or more coordinates,
the probe searches over (phi1, phi2), holds each vertex as such a tuple.  A
one-coordinate search, the sigma radius of `capacity.h2_conditional` and
most of the work of an H2 row, holds its simplex as two plain floats, the
best vertex b and the worst w, and builds a tuple only to call the
objective (`_nelder_mead_1d`).  One call evaluates the objective once per
clamped point and reads a repeat from a dict local to the call.  Repeats
are common on a bounded search, where moves clamp to the same bound.  In
1-D a shrink also lands on the inside contraction point it has just
rejected, which the float loop keeps without a second call.

The iterates are those of the array form, kept as the test oracle
`nelder_mead_numpy`, to the last bit; only the number of objective calls
differs.  Both forms compute each move as c + t (w - c), a shrink as
b + 0.5 (x - b), the diameter as the root of a sum of squares, and rank
tied vertices in their present order.  The float loop leaves out only what
is exact in 1-D: the centroid of the one vertex besides w is b (b / 1
equals b to the bit), the second-worst vertex is b, so a reflection that
does not beat b is contracted, and the sum of squares has one term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter, sub

_value = itemgetter(0)


@dataclass(frozen=True)
class OptResult:
    x: tuple
    iterations: int
    converged: bool


def _toward(a: tuple, b: tuple, t: float) -> tuple:
    """The point a + t (b - a), coordinate by coordinate."""
    return tuple([x + t * (y - x) for x, y in zip(a, b)])


def _diameter(verts: list) -> float:
    best = verts[0][1]
    return max([math.sqrt(reduce(add, [d * d for d in map(sub, x, best)])) for _, x in verts[1:]])


def check_settings(tol: float, max_iter: int) -> None:
    """Raise ValueError unless nelder_mead can run with tol and max_iter: the
    simplex stops when its diameter drops below tol, which a NaN or
    non-positive tol never lets happen."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")


def nelder_mead(f, x0, step: float, *, tol: float, max_iter: int, bounds: tuple) -> OptResult:
    """Minimize f from x0 with an axis-aligned initial simplex of size step.

    f takes a point as a tuple of floats; bounds, a pair (lo, hi), clamps
    the point's first coordinate before f sees it.  f must depend on the
    point's value only: equal points share one evaluation within the call.
    Vertices are ranked with a stable sort, and sums run in the order
    numpy's row reductions use, which keeps the iterates bit-identical to
    the array form's.  A one-coordinate x0 takes the float loop
    `_nelder_mead_1d`, with the same iterates.
    """
    check_settings(tol, max_iter)
    lo, hi = bounds
    x0 = tuple(map(float, x0))
    if len(x0) == 1:
        return _nelder_mead_1d(f, x0[0], step, tol, max_iter, lo, hi)
    seen = {}

    def vertex(x):
        if not lo <= x[0] <= hi:
            x = (min(max(x[0], lo), hi), *x[1:])
        fx = seen.get(x)
        if fx is None:
            fx = seen[x] = f(x)
        return fx, x

    n = len(x0)
    verts = [vertex(x0)] + [vertex(x0[:i] + (x0[i] + step,) + x0[i + 1:]) for i in range(n)]
    it = 0
    while it < max_iter:
        verts.sort(key=_value)
        if _diameter(verts) < tol:
            return OptResult(verts[0][1], it, True)
        centroid = tuple([reduce(add, c) / n for c in zip(*[x for _, x in verts[:-1]])])
        worst = verts[-1][1]
        # reflection and expansion step away from the worst vertex:
        # c + (c - w) and c + 2 (c - w), to the bit
        r = vertex(_toward(centroid, worst, -1.0))
        if r[0] < verts[0][0]:
            e = vertex(_toward(centroid, worst, -2.0))
            verts[-1] = e if e[0] < r[0] else r
        elif r[0] < verts[-2][0]:
            verts[-1] = r
        else:
            c = vertex(_toward(centroid, worst, 0.5))
            if c[0] < verts[-1][0]:
                verts[-1] = c
            else:
                best = verts[0][1]
                verts[1:] = [vertex(_toward(best, x, 0.5)) for _, x in verts[1:]]
        it += 1
    return OptResult(min(verts, key=_value)[1], it, False)


def _nelder_mead_1d(f, x0: float, step: float, tol: float, max_iter: int, lo: float, hi: float) -> OptResult:
    """nelder_mead on one coordinate, the simplex (b, w) held as floats.

    The centroid is b and the second-worst vertex is b, so a reflection
    that does not beat b is contracted; a shrink lands on the contraction
    point b + 0.5 (w - b), so either way that point replaces w.
    """
    seen = {}

    def value(x):
        fx = seen.get(x)
        if fx is None:
            fx = seen[x] = f((x,))
        return fx

    b = min(max(x0, lo), hi)
    w = min(max(x0 + step, lo), hi)
    fb, fw = value(b), value(w)
    for it in range(max_iter):
        if fw < fb:  # the stable sort: a tie keeps b first
            b, fb, w, fw = w, fw, b, fb
        d = w - b
        if math.sqrt(d * d) < tol:
            return OptResult((b,), it, True)
        # the moves c + t (w - c), each clamped where it leaves the bounds
        r = b + -1.0 * d
        if not lo <= r <= hi:
            r = min(max(r, lo), hi)
        fr = value(r)
        if fr < fb:
            e = b + -2.0 * d
            if not lo <= e <= hi:
                e = min(max(e, lo), hi)
            fe = value(e)
            w, fw = (e, fe) if fe < fr else (r, fr)
        else:
            w = b + 0.5 * d
            if not lo <= w <= hi:
                w = min(max(w, lo), hi)
            fw = value(w)
    return OptResult((w if fw < fb else b,), max_iter, False)
