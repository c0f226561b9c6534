"""The tuple form of Nelder-Mead against its array form."""

import math

import numpy as np

import qrl.capacity
import qrl.fisher
from qrl.capacity import _COARSE, _MEDIUM, DEFAULT_CONFIG, best_probe_h2, h2_conditional
from qrl.channel import ProbeState, choi_bf, stinespring_isometry
from qrl.fisher import maximize_over_probe
from qrl.optimize import nelder_mead
from qrl.unitary import VERTICES, edge_point
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


def _as_tuple(project):
    """The tuple form of an array projection."""
    return None if project is None else lambda x: tuple(project(np.asarray(x)).tolist())


def test_nelder_mead_matches_the_array_form_bit_for_bit():
    seen = set()
    for f, x0, step, project in _problems():
        for tol, max_iter in ((1e-9, 400), (1e-12, 6)):
            a = nelder_mead(f, x0, step, tol=tol, max_iter=max_iter, project=_as_tuple(project))
            b = nelder_mead_numpy(f, x0, step, tol=tol, max_iter=max_iter, project=project)
            assert np.array_equal(a.x, b.x) and a.x.dtype == b.x.dtype
            assert (a.iterations, a.converged) == (b.iterations, b.converged)
            seen.add((x0.size, project is None, a.converged))
    # every dimension, with and without projection, and both exits
    assert len(seen) == 12


def test_nelder_mead_evaluates_each_point_once():
    bounded_1d = [0, 0]  # f-calls of the tuple and the array form
    for f, x0, step, project in _problems():
        for tol, max_iter in ((1e-9, 400), (1e-12, 6)):
            points, array_calls = [], [0]

            def counted(x, f=f):
                points.append(x)
                return f(x)

            def array_counted(x, f=f):
                array_calls[0] += 1
                return f(x)

            nelder_mead(counted, x0, step, tol=tol, max_iter=max_iter, project=_as_tuple(project))
            nelder_mead_numpy(array_counted, x0, step, tol=tol, max_iter=max_iter, project=project)
            assert len(set(points)) == len(points)
            assert len(points) <= array_calls[0]
            if x0.size == 1 and project is not None:
                bounded_1d[0] += len(points)
                bounded_1d[1] += array_calls[0]
    # a 1-D shrink lands on the contraction point it rejected, and moves
    # clipped to the bound repeat
    assert bounded_1d[0] < bounded_1d[1]


def _array_form(calls):
    """nelder_mead with the array form's iterates and f-calls, recording
    each call's seed."""

    def nm(f, x0, step, tol=1e-9, max_iter=400, project=None):
        calls.append(tuple(map(float, x0)))
        as_tuple = lambda x: tuple(np.asarray(x, dtype=float).tolist())
        array_project = None if project is None else lambda x: np.array(project(as_tuple(x)))
        return nelder_mead_numpy(lambda x: f(as_tuple(x)), x0, step, tol=tol, max_iter=max_iter, project=array_project)

    return nm


def _bits(*xs):
    return np.array(xs, dtype=float).tobytes()


def test_sigma_solve_matches_the_array_form(monkeypatch):
    # interior optimum, optimum at x = 0 and optimum at the cap, at every
    # stage config
    states = [
        choi_bf(stinespring_isometry(p, ProbeState(1.2, 0.7)))
        for p in (edge_point("CS", 0.5), edge_point("IC", 0.5), VERTICES["S"])
    ]
    cases = [(rho, config) for rho in states for config in (_COARSE, _MEDIUM, DEFAULT_CONFIG)]
    shipped = [h2_conditional(rho, config) for rho, config in cases]
    monkeypatch.setattr(qrl.capacity, "nelder_mead", _array_form([]))
    for (rho, config), a in zip(cases, shipped):
        b = h2_conditional(rho, config)
        assert _bits(a.value, *a.sigma) == _bits(b.value, *b.sigma)
        assert a.converged == b.converged
    interior, zero, cap = (np.linalg.norm([a.sigma for a in shipped[k : k + 3]], axis=1) for k in (0, 3, 6))
    assert all(0.1 < interior) and all(interior < 0.9) and all(zero < 1e-6)
    assert all(cap > qrl.capacity.BLOCH_CAP - 1e-12)


def test_probe_searches_match_the_array_form(monkeypatch):
    cs, is_third = edge_point("CS", 0.5), edge_point("IS", 1.0 / 3.0)
    h2_a, qfi_a = best_probe_h2(cs), maximize_over_probe(is_third)
    calls = []
    monkeypatch.setattr(qrl.capacity, "nelder_mead", _array_form(calls))
    monkeypatch.setattr(qrl.fisher, "nelder_mead", _array_form(calls))
    h2_b = best_probe_h2(cs)
    calls.clear()
    qfi_b = maximize_over_probe(is_third)
    assert _bits(h2_a.h2, h2_a.probe.phi1, h2_a.probe.phi2, *h2_a.sigma) == _bits(
        h2_b.h2, h2_b.probe.phi1, h2_b.probe.phi2, *h2_b.sigma
    )
    assert h2_a.converged == h2_b.converged
    assert _bits(qfi_a.value, qfi_a.probe_opt.phi1, qfi_a.probe_opt.phi2) == _bits(
        qfi_b.value, qfi_b.probe_opt.phi1, qfi_b.probe_opt.phi2
    )
    assert _bits(*qfi_a.eta_trace) == _bits(*qfi_b.eta_trace) and qfi_a.converged == qfi_b.converged
    # the QFI probe search starts at a pole
    assert len(calls) == 1 and calls[0][0] in (0.0, math.pi)
