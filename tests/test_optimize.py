"""The list form of Nelder-Mead against its array form."""

import numpy as np

from qrl.optimize import nelder_mead
from oracles import nelder_mead_numpy


def _problems():
    rng = np.random.default_rng(2024)
    for k in range(300):
        n = 1 + k % 3
        centre = rng.uniform(-1.0, 1.0, n)
        scales = 10.0 ** rng.uniform(-1.0, 1.0, n)
        x0 = rng.uniform(-2.0, 2.0, n)
        step = rng.choice([0.12, 0.5, -0.3])
        if k % 4 == 0:
            f = lambda x, c=centre, s=scales: float(np.sum(s * (x - c) ** 2))
        elif k % 4 == 1:
            # a few distinct values only, so vertices tie often
            f = lambda x, c=centre: float(np.floor(4.0 * np.sum(np.abs(x - c))))
        elif k % 4 == 2:
            f = lambda x, c=centre, s=scales: float(np.sum(s * np.abs(x - c)) + np.sin(3.0 * x[0]))
        else:
            f = lambda x: 1.5  # constant: every comparison is a tie
        # n = 3 keeps continuous objectives only: np.argsort of four values
        # is not a stable sort, so tied vertices may be ranked differently
        if n == 3 and k % 4 == 1:
            continue
        project = None
        if k % 2:
            radius = rng.uniform(0.5, 1.5)
            project = lambda x, r=radius: x * (r / np.linalg.norm(x)) if np.linalg.norm(x) > r else x
        yield f, x0, step, project


def test_nelder_mead_matches_the_array_form_bit_for_bit():
    seen = set()
    for f, x0, step, project in _problems():
        for tol, max_iter in ((1e-9, 400), (1e-12, 6)):
            a = nelder_mead(f, x0, step, tol=tol, max_iter=max_iter, project=project)
            b = nelder_mead_numpy(f, x0, step, tol=tol, max_iter=max_iter, project=project)
            assert np.array_equal(a.x, b.x) and a.x.dtype == b.x.dtype
            assert a.fun == b.fun and type(a.fun) is type(b.fun)
            assert (a.iterations, a.converged) == (b.iterations, b.converged)
            seen.add((x0.size, project is None, a.converged))
    # every dimension, with and without projection, and both exits
    assert len(seen) == 12
