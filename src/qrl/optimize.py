"""Derivative-free minimization: Nelder-Mead from a caller's seed.

The simplex update uses the standard coefficients (reflection 1, expansion
2, contraction 1/2, shrink 1/2) and declares convergence when the simplex
diameter drops below a tolerance.  The bounds (lo, hi) clamp the first
coordinate of every point, the one coordinate any search here bounds: a
radius or the probe's polar angle phi1.  Every caller states tol, max_iter
and bounds; (-inf, inf) leaves the point free.  Callers pick the seed
deterministically (a grid scan or a fixed seed set), so the whole pipeline
is reproducible without randomness.

The searches here have one to three dimensions, where numpy's per-array
cost outweighs the arithmetic, so a vertex is a tuple of Python floats: the
objective takes such a tuple, and the result's x is one.  One call
evaluates the objective once per clamped point and reads a repeat from a
dict local to the call.  Repeats are common on a bounded search: moves
clamped to the same bound and, in 1-D, a shrink, which lands on the inside
contraction point it has just rejected.  The iterates are those of the
array form, kept as the test oracle `nelder_mead_numpy`, to the last bit;
only the number of objective calls differs.
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


def nelder_mead(f, x0, step: float, *, tol: float, max_iter: int, bounds: tuple) -> OptResult:
    """Minimize f from x0 with an axis-aligned initial simplex of size step.

    f takes a point as a tuple of floats; bounds, a pair (lo, hi), clamps
    the point's first coordinate before f sees it.  f must depend on the
    point's value only: equal points share one evaluation within the call.
    Vertices are ranked with a stable sort, and sums run in the order
    numpy's row reductions use, which keeps the iterates bit-identical to
    the array form's.
    """
    # the simplex stops when its diameter drops below tol, which a NaN or
    # non-positive tol never lets happen
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    lo, hi = bounds
    seen = {}

    def vertex(x):
        if not lo <= x[0] <= hi:
            x = (min(max(x[0], lo), hi), *x[1:])
        fx = seen.get(x)
        if fx is None:
            fx = seen[x] = f(x)
        return fx, x

    x0 = tuple(map(float, x0))
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
