"""Derivative-free minimization: Nelder-Mead from a caller's seed.

The simplex update uses the standard coefficients (reflection 1, expansion
2, contraction 1/2, shrink 1/2) and declares convergence when the simplex
diameter drops below a tolerance.  An optional projection keeps iterates
inside a feasible set.  Callers pick the seed deterministically (a grid
scan or a fixed seed set), so the whole pipeline is reproducible without
randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np


@dataclass(frozen=True)
class OptResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


def _diameter(simplex) -> float:
    best = simplex[0]
    return max(math.sqrt(reduce(add, [d * d for d in (s - best).tolist()])) for s in simplex[1:])


def nelder_mead(f, x0, step: float, tol: float = 1e-9, max_iter: int = 400, project=None) -> OptResult:
    """Minimize f from x0 with an axis-aligned initial simplex of size step.

    The simplex is a list of vertex arrays and the values a list of floats:
    on problems of one to three dimensions numpy reductions cost more than
    the arithmetic.  Sums run in the order numpy's row reductions use, so
    the iterates are those of the array form to the last bit.  Vertices are
    ranked with a stable sort.
    """
    if project is None:
        project = lambda x: x
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    simplex = [np.array(project(x0.copy()), dtype=float)]
    for i in range(n):
        x = x0.copy()
        x[i] += step
        simplex.append(np.array(project(x), dtype=float))
    fv = [f(x) for x in simplex]
    it = 0
    while it < max_iter:
        order = sorted(range(n + 1), key=fv.__getitem__)
        simplex, fv = [simplex[k] for k in order], [fv[k] for k in order]
        if _diameter(simplex) < tol:
            return OptResult(simplex[0], float(fv[0]), it, True)
        centroid = reduce(add, simplex[:-1]) / n
        worst = simplex[-1]
        xr = project(centroid + (centroid - worst))
        fr = f(xr)
        if fr < fv[0]:
            xe = project(centroid + 2.0 * (centroid - worst))
            fe = f(xe)
            simplex[-1], fv[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fv[-2]:
            simplex[-1], fv[-1] = xr, fr
        else:
            xc = project(centroid + 0.5 * (worst - centroid))
            fc = f(xc)
            if fc < fv[-1]:
                simplex[-1], fv[-1] = xc, fc
            else:
                best = simplex[0]
                simplex[1:] = [project(best + 0.5 * (s - best)) for s in simplex[1:]]
                fv[1:] = [f(x) for x in simplex[1:]]
        it += 1
    best = min(range(n + 1), key=fv.__getitem__)
    return OptResult(simplex[best], float(fv[best]), it, False)

