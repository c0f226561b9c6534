"""Derivative-free minimization: grid seeding plus Nelder-Mead refinement.

The simplex update uses the standard coefficients (reflection 1, expansion
2, contraction 1/2, shrink 1/2) and declares convergence when the simplex
diameter drops below a tolerance.  An optional projection keeps iterates
inside a feasible set; restarts are taken deterministically from the best
grid seeds, so the whole pipeline is reproducible without randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OptResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


def nelder_mead(f, x0, step: float, tol: float = 1e-9, max_iter: int = 400, project=None) -> OptResult:
    """Minimize f from x0 with an axis-aligned initial simplex of size step."""
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
            return OptResult(simplex[0], float(fv[0]), it, True)
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
    best = int(np.argmin(fv))
    return OptResult(simplex[best], float(fv[best]), it, False)


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


def rect_grid(n1: int, n2: int, lo1: float, hi1: float, lo2: float, hi2: float) -> np.ndarray:
    """n1 x n2 grid, closed in the first coordinate, periodic-open in the second."""
    a = np.linspace(lo1, hi1, n1)
    b = np.linspace(lo2, hi2, n2, endpoint=False)
    return np.stack(np.meshgrid(a, b, indexing="ij"), axis=-1).reshape(-1, 2)
