"""The tuple form of Nelder-Mead against its array form."""

import math
from dataclasses import replace

import numpy as np

import qrl.capacity
import qrl.fisher
from qrl.capacity import (
    _COARSE, _MEDIUM, _RADIAL_SEEDS, _RADIAL_STEP, _X_CAP, DEFAULT_CONFIG, _collision_gram, _RadialProfile, best_probe_h2,
    h2_conditional,
)
from qrl.channel import ProbeState, choi_bf, stinespring_isometry
from qrl.fisher import maximize_over_probe
from qrl.optimize import nelder_mead
from qrl.unitary import VERTICES, edge_point
from oracles import nelder_mead_numpy

UNBOUNDED = (-math.inf, math.inf)


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
        bounds = UNBOUNDED
        if k % 2:
            lo = rng.uniform(-1.5, 0.0)
            bounds = (lo, lo + rng.uniform(0.5, 2.0))
        yield f, x0, step, bounds
    yield from _sigma_problems()


def _sigma_problems():
    """The radius searches of `h2_conditional`: phi of a state whose optimum
    lies inside the ball (CS), at x = 0 (IC), at the cap (S) and at a
    generic gate (CD), plus a stepped profile whose vertices tie, over
    [0, _X_CAP] from every seed, each first step of +-0.5 that points
    inward."""
    states = [
        choi_bf(stinespring_isometry(p, ProbeState(1.2, 0.7)))
        for p in (edge_point("CS", 0.5), edge_point("IC", 0.5), VERTICES["S"], edge_point("CD", 1.0 / 3.0))
    ]
    profiles = [_RadialProfile(_collision_gram(rho)) for rho in states]
    objectives = [lambda x, phi=phi: phi(x[0]) for phi in profiles]
    objectives.append(lambda x: math.floor(abs(x[0] - 5.3)))
    for f in objectives:
        for x0 in _RADIAL_SEEDS:
            for step in (_RADIAL_STEP, -_RADIAL_STEP):
                if 0.0 <= x0 + step <= _X_CAP:
                    yield f, np.array([x0]), step, (0.0, _X_CAP)


def test_sigma_problems_match_the_array_form_at_every_stage():
    # the tol and max_iter of each stage the sigma solve runs at
    for f, x0, step, bounds in _sigma_problems():
        for config in (_COARSE, _MEDIUM, DEFAULT_CONFIG):
            a = nelder_mead(f, x0, step, bounds=bounds, **config)
            b = nelder_mead_numpy(f, x0, step, project=_box(bounds), **config)
            assert _bits(*a.x) == b.x.tobytes(), (x0, step, config)
            assert (a.iterations, a.converged) == (b.iterations, b.converged), (x0, step, config)


def _box(bounds):
    """The array form's projection for bounds on the first coordinate; it
    runs unprojected where the bounds leave the point free."""
    if bounds == UNBOUNDED:
        return None
    lo, hi = bounds

    def project(x):
        x = x.copy()
        x[0] = min(max(x[0], lo), hi)
        return x

    return project


def test_nelder_mead_matches_the_array_form_bit_for_bit():
    seen = set()
    for f, x0, step, bounds in _problems():
        for tol, max_iter in ((1e-9, 400), (1e-12, 6)):
            a = nelder_mead(f, x0, step, tol=tol, max_iter=max_iter, bounds=bounds)
            b = nelder_mead_numpy(f, x0, step, tol=tol, max_iter=max_iter, project=_box(bounds))
            assert type(a.x) is tuple and _bits(*a.x) == b.x.tobytes() and b.x.dtype == float
            assert (a.iterations, a.converged) == (b.iterations, b.converged)
            seen.add((x0.size, bounds == UNBOUNDED, a.converged))
    # every dimension, with and without bounds, and both exits
    assert len(seen) == 12


def test_nelder_mead_bounds_clamp_the_first_coordinate():
    # a 2-D probe search's point (phi1, phi2) and a face search's (phi1,):
    # the bounds clamp phi1 before f sees the point and leave phi2 free, so
    # phi2 reaches its optimum 5, outside [0, pi]
    def f(x):
        points.append(x)
        return -math.sin(x[0]) + sum((v - 5.0) ** 2 for v in x[1:])

    for x0, first in (((-0.2, 7.0), (0.0, 7.0)), ((4.0, -1.0), (np.pi, -1.0)),
                      ((-0.2,), (0.0,)), ((4.0,), (np.pi,)), ((1.5,), (1.5,))):
        points = []
        res = nelder_mead(f, x0, 0.15, tol=1e-7, max_iter=200, bounds=(0.0, np.pi))
        assert points[0] == first and all(0.0 <= x[0] <= np.pi for x in points), x0
        assert res.converged and len(res.x) == len(x0) and 0.0 <= res.x[0] <= np.pi, (x0, res)
        if len(x0) == 2:
            assert abs(res.x[1] - 5.0) < 1e-6, (x0, res)


def test_nelder_mead_evaluates_each_point_once():
    bounded_1d = [0, 0]  # f-calls of the tuple and the array form
    for f, x0, step, bounds in _problems():
        for tol, max_iter in ((1e-9, 400), (1e-12, 6)):
            points, array_calls = [], [0]

            def counted(x, f=f):
                points.append(x)
                return f(x)

            def array_counted(x, f=f):
                array_calls[0] += 1
                return f(x)

            nelder_mead(counted, x0, step, tol=tol, max_iter=max_iter, bounds=bounds)
            nelder_mead_numpy(array_counted, x0, step, tol=tol, max_iter=max_iter, project=_box(bounds))
            assert len(set(points)) == len(points)
            assert len(points) <= array_calls[0]
            if x0.size == 1 and bounds != UNBOUNDED:
                bounded_1d[0] += len(points)
                bounded_1d[1] += array_calls[0]
    # a 1-D shrink lands on the contraction point it rejected, and moves
    # clipped to the bound repeat
    assert bounded_1d[0] < bounded_1d[1]


def _array_form(calls):
    """nelder_mead with the array form's iterates and f-calls, recording
    each call's seed."""

    def nm(f, x0, step, *, tol, max_iter, bounds):
        calls.append(tuple(map(float, x0)))
        as_tuple = lambda x: tuple(np.asarray(x, dtype=float).tolist())
        res = nelder_mead_numpy(lambda x: f(as_tuple(x)), x0, step, tol=tol, max_iter=max_iter, project=_box(bounds))
        return replace(res, x=as_tuple(res.x))

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
    # both probe searches over (phi1, phi2): the H2 search at a generic gate
    # (CD) and the QFI search on CS, whose poles show ascent; on a face the
    # H2 search makes one solve at a pole (CS) and the QFI takes the
    # schedule at a pole (IS), with no simplex
    gates = (edge_point("CD", 0.5), edge_point("CS", 0.5))
    qfi_gates = (edge_point("CS", 0.5), edge_point("IS", 1.0 / 3.0))
    h2_a, qfi_a = [best_probe_h2(p) for p in gates], [maximize_over_probe(p) for p in qfi_gates]
    calls = []
    monkeypatch.setattr(qrl.capacity, "nelder_mead", _array_form(calls))
    monkeypatch.setattr(qrl.fisher, "nelder_mead", _array_form(calls))
    h2_b = [best_probe_h2(p) for p in gates]
    for a, b in zip(h2_a, h2_b):
        assert _bits(a.h2, a.probe.phi1, a.probe.phi2, *a.sigma) == _bits(b.h2, b.probe.phi1, b.probe.phi2, *b.sigma)
        assert a.converged == b.converged
    for p, a, searches in zip(qfi_gates, qfi_a, (1, 0)):
        calls.clear()
        b = maximize_over_probe(p)
        assert _bits(a.value, a.probe_opt.phi1, a.probe_opt.phi2) == _bits(b.value, b.probe_opt.phi1, b.probe_opt.phi2)
        assert _bits(*a.eta_trace) == _bits(*b.eta_trace) and a.converged == b.converged
        # the 2-D QFI probe search on CS starts off the poles
        assert len(calls) == searches, p
        assert all(len(x0) == 2 and 0.0 < x0[0] < math.pi for x0 in calls), p
