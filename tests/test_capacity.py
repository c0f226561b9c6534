"""Tests for the conditional Renyi-2 machinery and the one-shot bound."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import qrl.capacity
from qrl.capacity import (
    BLOCH_CAP,
    best_probe_h2,
    correction_bits,
    delta_star,
    g_eps,
    h2_at_pole,
    h2_conditional,
    one_shot_lower_bound,
)
from qrl.channel import ProbeState, choi_bf, probe_table, stinespring_isometry, table_at
from qrl.linalg import PAULI
from qrl.optimize import nelder_mead
from qrl.unitary import VERTICES, UnitaryParams, edge_point
from oracles import (
    conditional_entropy, delta_star_golden, h2_conditional_simplex, probe_density, renyi2_divergence, sigma_certificate, sigma_matrix,
)

rng = np.random.default_rng(424242)

I2 = np.eye(2)
PHI = np.zeros((4, 4))
PHI[0, 0] = PHI[0, 3] = PHI[3, 0] = PHI[3, 3] = 0.5


def random_probe():
    return ProbeState(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))


def random_params():
    ax = rng.uniform(0.05, np.pi / 2)
    ay = rng.uniform(0.0, ax)
    az = rng.uniform(0.0, ay)
    return UnitaryParams(ax, ay, az)


def random_sigma_bloch(cap=0.9):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v) * rng.uniform(0.0, cap)


# ---------------------------------------------------------------------------
# g(x) and the correction term


def test_g_eps_examples():
    assert g_eps(1.0) == pytest.approx(0.0, abs=1e-12)
    assert g_eps(0.6) == pytest.approx(np.log2(5.0), abs=1e-12)
    assert g_eps(0.1) == pytest.approx(7.6402, abs=1e-3)


def test_g_eps_domain():
    for bad in (0.0, -0.2, 1.0 + 1e-9, 2.0):
        with pytest.raises(ValueError):
            g_eps(bad)


def test_g_eps_small_argument_stable():
    # naive -2 log2(x) - log2-of-difference form loses digits near 0
    x = 1e-8
    expected = -np.log2(x * x / 2.0)  # 1 - sqrt(1-x^2) ~ x^2/2
    assert g_eps(x) == pytest.approx(expected, rel=1e-6)


def test_correction_decreasing_in_epsilon():
    vals = [correction_bits(eps) for eps in (0.01, 0.05, 0.1, 0.3)]
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo < hi


# ---------------------------------------------------------------------------
# Renyi-2 divergence, literal route


def test_renyi2_maximally_mixed():
    # D2(I/4 || I/2 (x) I/2) picks up exactly the -1 bit of conditioning
    assert renyi2_divergence(np.eye(4) / 4.0, np.zeros(3)) == pytest.approx(
        -1.0, abs=1e-12
    )


def test_renyi2_bell_state():
    assert renyi2_divergence(PHI, np.zeros(3)) == pytest.approx(1.0, abs=1e-12)


def test_renyi2_swap_matched_sigma():
    # complement output of SWAP is the probe itself; conditioning on a
    # near-pure sigma along the probe direction recovers ~1 bit
    probe = ProbeState(1.3, 0.4)
    rho = np.kron(I2 / 2.0, probe_density(probe))
    bloch = np.array(
        [
            np.sin(probe.phi1) * np.cos(probe.phi2),
            np.sin(probe.phi1) * np.sin(probe.phi2),
            np.cos(probe.phi1),
        ]
    )
    sigma = (1.0 - 2e-9) * bloch
    assert -renyi2_divergence(rho, sigma) == pytest.approx(1.0, abs=1e-6)


def test_renyi2_matches_quadratic_form():
    # the optimized path evaluates a Pauli quadratic form instead of the
    # literal sandwiched power; both routes must agree
    from qrl.capacity import _collision_gram, _inv_sqrt_coeffs

    for _ in range(30):
        params = random_params()
        rho = choi_bf(stinespring_isometry(params, random_probe()))
        bloch = random_sigma_bloch()
        literal = -renyi2_divergence(rho, bloch)
        gram = _collision_gram(rho)
        coeffs = _inv_sqrt_coeffs(bloch)
        quad = -np.log2(float(coeffs @ gram @ coeffs))
        assert literal == pytest.approx(quad, abs=1e-10)


# ---------------------------------------------------------------------------
# The conditioning state's eigenvalue floor


def test_conditioning_state_validation(monkeypatch):
    # h2_conditional checks the sigma it reports: at S the optimum sits at
    # the cap, whose smaller eigenvalue 5e-8 clears the 1e-9 floor; a search
    # let past the floor is a numerical fault
    rho = choi_bf(stinespring_isometry(VERTICES["S"], ProbeState(1.3, 0.4)))
    opt = h2_conditional(rho)
    assert isinstance(opt.sigma, tuple) and len(opt.sigma) == 3
    assert 1.0 - 2e-9 > np.linalg.norm(opt.sigma) > BLOCH_CAP - 1e-12
    monkeypatch.setattr(qrl.capacity, "_X_CAP", 30.0)  # |p| up to 1 - 9e-14
    with pytest.raises(RuntimeError, match="floor"):
        h2_conditional(rho)
    # so does the pole closed form, whose S optimum is clipped to the cap
    monkeypatch.setattr(qrl.capacity, "BLOCH_CAP", 1.0 - 1e-10)
    monkeypatch.setattr(qrl.capacity, "_U_CAP", math.sqrt(1e-10 / (2.0 - 1e-10)))
    with pytest.raises(RuntimeError, match="floor"):
        h2_at_pole(choi_bf(stinespring_isometry(VERTICES["S"], ProbeState(0.0, 0.0))))
    mat = sigma_matrix((0.2, -0.1, 0.3))
    assert np.allclose(mat, 0.5 * (I2 + 0.2 * PAULI[1] - 0.1 * PAULI[2] + 0.3 * PAULI[3]))


# ---------------------------------------------------------------------------
# Optimized conditional entropy


def test_optimizer_config_validation():
    # nelder_mead checks the tol and max_iter it is given, directly or from
    # the settings dict of a sigma solve
    rho = choi_bf(stinespring_isometry(edge_point("CS", 0.5), ProbeState(1.2, 0.7)))
    square = lambda x: x[0] * x[0]
    for tol in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="tol"):
            nelder_mead(square, (1.0,), 0.5, tol=tol, max_iter=400, bounds=(-math.inf, math.inf))
        with pytest.raises(ValueError, match="tol"):
            h2_conditional(rho, dict(tol=tol, max_iter=400))
    for max_iter in (0, -5):
        with pytest.raises(ValueError, match="max_iter"):
            nelder_mead(square, (1.0,), 0.5, tol=1e-9, max_iter=max_iter, bounds=(-math.inf, math.inf))
        with pytest.raises(ValueError, match="max_iter"):
            h2_conditional(rho, dict(tol=1e-9, max_iter=max_iter))
    assert nelder_mead(square, (1.0,), 0.5, tol=1e-12, max_iter=1, bounds=(-math.inf, math.inf)).iterations == 1


def test_h2_identity_channel():
    # identity gate: B carries the env, F is maximally entangled with B
    probe = ProbeState(0.7, 1.1)
    rho = choi_bf(stinespring_isometry(UnitaryParams(0.0, 0.0, 0.0), probe))
    opt = h2_conditional(rho)
    assert opt.value <= 0.0
    assert opt.value == pytest.approx(-1.0, abs=1e-6)


def test_h2_swap_channel():
    rho = choi_bf(
        stinespring_isometry(UnitaryParams(np.pi / 2, np.pi / 2, np.pi / 2), ProbeState(0.0, 0.0))
    )
    opt = h2_conditional(rho)
    assert opt.value == pytest.approx(1.0, abs=1e-6)
    assert opt.converged


def test_h2_dimension_bound_violation_raises(monkeypatch):
    # a Gram matrix, or block sums, scaled below the physical ones drive H2
    # past log2 dim(B)
    gram = qrl.capacity._collision_gram
    monkeypatch.setattr(qrl.capacity, "_collision_gram", lambda rho: 0.1 * gram(rho))
    rho = choi_bf(
        stinespring_isometry(UnitaryParams(np.pi / 2, np.pi / 2, np.pi / 2), ProbeState(0.0, 0.0))
    )
    with pytest.raises(RuntimeError, match="dimension bound"):
        h2_conditional(rho)
    blocks = qrl.capacity._pole_blocks
    monkeypatch.setattr(qrl.capacity, "_pole_blocks", lambda rho: tuple(0.1 * v for v in blocks(rho)))
    with pytest.raises(RuntimeError, match="dimension bound"):
        h2_at_pole(rho)


def test_h2_cnot_vertex_near_zero():
    p = UnitaryParams(np.pi / 2, 0.0, 0.0)
    for probe in (ProbeState(0.0, 0.0), ProbeState(2.0, 0.7), ProbeState(np.pi / 2, 0.0)):
        rho = choi_bf(stinespring_isometry(p, probe))
        assert h2_conditional(rho).value <= 1e-9


def _bloch_density(b):
    return 0.5 * (I2 + b[0] * PAULI[1] + b[1] * PAULI[2] + b[2] * PAULI[3])


def test_h2_product_recovers_renyi_purity():
    # rho_B (x) sigma_F: conditioning on sigma_F itself is optimal, leaving
    # exactly -log2 tr(rho_B^2)
    for _ in range(10):
        rho_b = _bloch_density(random_sigma_bloch(cap=0.95))
        sig_f = _bloch_density(random_sigma_bloch(cap=0.9))
        expected = -np.log2(float(np.trace(rho_b @ rho_b).real))
        opt = h2_conditional(np.kron(rho_b, sig_f).astype(complex))
        assert opt.value == pytest.approx(expected, abs=1e-6)


def _grid_oracle(rho, n):
    """Literal-route exhaustive grid over the Bloch ball, for cross-checks."""
    axis = np.linspace(-BLOCH_CAP, BLOCH_CAP, n)
    best = -np.inf
    for bx in axis:
        for by in axis:
            for bz in axis:
                b = np.array([bx, by, bz])
                if np.linalg.norm(b) > BLOCH_CAP:
                    continue
                best = max(best, -renyi2_divergence(rho, b))
    return best


def test_h2_beats_grid_oracle():
    # refined optimum must dominate a 21^3 literal-route grid search
    for _ in range(10):
        rho = choi_bf(stinespring_isometry(random_params(), random_probe()))
        refined = h2_conditional(rho).value
        assert refined >= _grid_oracle(rho, 21) - 1e-4


def _sigma_test_states():
    """Random gates and probes, then the degenerate inputs of the exact
    solve: I/4, a Bell state, product states, pole probes at the vertices,
    and S/D away from the poles, where sigma sits at the cap."""
    local = np.random.default_rng(77)
    states = []
    for _ in range(24):
        ax = local.uniform(0.05, np.pi / 2)
        ay = local.uniform(0.0, ax)
        params = UnitaryParams(ax, ay, local.uniform(0.0, ay))
        probe = ProbeState(local.uniform(0, np.pi), local.uniform(0, 2 * np.pi))
        states.append(choi_bf(stinespring_isometry(params, probe)))
    states += [np.eye(4, dtype=complex) / 4.0, PHI.astype(complex)]
    for _ in range(3):
        b, f = (local.normal(size=3) for _ in range(2))
        rho_b = _bloch_density(0.8 * b / np.linalg.norm(b))
        sig_f = _bloch_density(0.6 * f / np.linalg.norm(f))
        states.append(np.kron(rho_b, sig_f).astype(complex))
    for v in "ICSD":
        for probe in (ProbeState(0.0, 0.0), ProbeState(np.pi, 0.4)):
            states.append(choi_bf(stinespring_isometry(VERTICES[v], probe)))
    for v in "SD":
        for probe in (ProbeState(1.309, 2.693), ProbeState(0.264, 4.499)):
            states.append(choi_bf(stinespring_isometry(VERTICES[v], probe)))
    return states


# each stage of best_probe_h2 against the seed-cube search at the settings
# that stage ran with before the exact solve
SIGMA_STAGES = (
    (qrl.capacity._COARSE, dict(restarts=1, tol=1e-6, max_iter=120)),
    (qrl.capacity._MEDIUM, dict(restarts=1, tol=1e-8, max_iter=250)),
    (qrl.capacity.DEFAULT_CONFIG, dict(restarts=3, tol=1e-9, max_iter=400)),
)


def test_h2_at_least_the_simplex_oracle():
    # the exact direction solve never does worse than the 3-D simplex search
    # beyond the round-off of the quadratic form near the cap
    for rho in _sigma_test_states():
        for config, old in SIGMA_STAGES:
            exact = h2_conditional(rho, config).value
            oracle = h2_conditional_simplex(rho, **old).value
            assert exact >= oracle - 2e-9, (config, exact, oracle)


def test_h2_value_is_the_objective_at_the_reported_sigma():
    from qrl.capacity import _collision_gram, _inv_sqrt_coeffs

    for rho in _sigma_test_states():
        opt = h2_conditional(rho)
        c = _inv_sqrt_coeffs(np.array(opt.sigma))
        assert opt.value == -np.log2(float(c @ _collision_gram(rho) @ c))
        # the literal sandwiched divergence agrees to the round-off of the
        # Pauli quadratic form, eps |c|^2 |G| with |c|^2 = 2 / (1 - |p|^2)
        bound = 2e-14 / (1.0 - np.linalg.norm(opt.sigma) ** 2)
        assert abs(opt.value + renyi2_divergence(rho, opt.sigma)) <= bound


def test_unit_minimizer_against_a_sphere_scan():
    # min of e1 n1^2 + e2 n2^2 + 2 w.n over the unit sphere: the secular
    # root, the hard case (w0 = 0 with a short remainder), a near-hard case,
    # a degenerate lowest pair, and w = 0
    from qrl.capacity import _unit_minimizer

    k = np.arange(200000) + 0.5
    z = 1.0 - 2.0 * k / k.size
    az = np.pi * (1.0 + 5.0**0.5) * k
    sphere = np.stack([z, np.sqrt(1.0 - z * z) * np.cos(az), np.sqrt(1.0 - z * z) * np.sin(az)])
    cases = [
        (0.3, 1.2, 0.4, -0.2, 0.7),
        (0.3, 1.2, 0.0, 0.1, -0.3),
        (0.3, 1.2, 1e-17, 0.1, -0.3),
        (0.0, 0.8, 0.0, 0.0, 0.5),
        (0.0, 0.8, 0.2, -0.3, 0.1),
        (0.5, 0.5, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0, 0.0),
    ]
    for e1, e2, *w in cases:
        quad = lambda n: e1 * n[1] ** 2 + e2 * n[2] ** 2 + 2.0 * (w[0] * n[0] + w[1] * n[1] + w[2] * n[2])
        n = np.array(_unit_minimizer(e1, e2, *w))
        assert abs(np.linalg.norm(n) - 1.0) <= 1e-15
        assert quad(n) <= quad(sphere).min() + 1e-14, (e1, e2, w)


def test_radial_profile_is_unimodal():
    # phi(x), the objective minimized over directions at log-radius x, falls
    # to one minimum and then rises: any rise before it or fall after it
    # stays within the round-off of c^T G c, 8 eps |c|^2 |G| with
    # |c|^2 = 2 / (1 - r^2) at radius r
    from qrl.capacity import _X_CAP, _RadialProfile, _collision_gram

    xs = np.linspace(0.0, _X_CAP, 2000)
    radius = -np.expm1(-xs)
    for rho in _sigma_test_states():
        gram = _collision_gram(rho)
        phi = _RadialProfile(gram)
        vals = np.array([phi(x) for x in xs])
        slack = 8.0 * np.finfo(float).eps * np.abs(gram).sum() * 2.0 / (1.0 - radius**2)
        k = int(np.argmin(vals))
        steps = np.diff(vals)
        assert np.all(steps[:k] <= slack[1 : k + 1] + slack[:k])
        assert np.all(steps[k:] >= -(slack[k + 1 :] + slack[k:-1]))


def test_h2_bounded():
    for _ in range(20):
        rho = choi_bf(stinespring_isometry(random_params(), random_probe()))
        v = h2_conditional(rho).value
        assert -1.0 - 1e-9 <= v <= 1.0 + 1e-9


def test_h2_at_most_the_von_neumann_conditional_entropy():
    # the sandwiched Renyi conditional entropies fall as alpha grows, so
    # H2(B|F) <= H(R|F), the von Neumann one of the same rho_BF (measured
    # gaps 0.016-0.24 bits on 30 random pairs).  At the pole probe (0, 0),
    # which the search reports for every vertex, equality holds: I reads
    # -1 and C 0 to round-off, S and D 1 up to the gap that BLOCH_CAP
    # leaves, measured 7.2135e-8.  Both hold at each setting the probe
    # search's stages solve at (the gaps at the vertices are the same)
    local = np.random.default_rng(1414)
    configs = (qrl.capacity._COARSE, qrl.capacity._MEDIUM, qrl.capacity.DEFAULT_CONFIG)
    for _ in range(30):
        ax = local.uniform(0.05, np.pi / 2)
        ay = local.uniform(0.0, ax)
        p = UnitaryParams(ax, ay, local.uniform(0.0, ay))
        probe = ProbeState(local.uniform(0, np.pi), local.uniform(0, 2 * np.pi))
        rho = choi_bf(stinespring_isometry(p, probe))
        for config in configs:
            assert h2_conditional(rho, config).value <= conditional_entropy(rho) + 1e-12, (p, probe, config)
    for name, exact, gap in (("I", -1.0, 1e-12), ("C", 0.0, 1e-12), ("S", 1.0, 7.5e-8), ("D", 1.0, 7.5e-8)):
        rho = choi_bf(stinespring_isometry(VERTICES[name], ProbeState(0.0, 0.0)))
        h = conditional_entropy(rho)
        assert h == pytest.approx(exact, abs=1e-12), name
        for config in configs:
            h2 = h2_conditional(rho, config).value
            assert -1e-12 <= h - h2 <= gap, (name, config, h - h2)


def test_h2_same_at_the_probe_images():
    # P (x) P commutes with U for P = X, Y, Z, so the probe P|psi> gives the
    # channel conjugated by P on both sides; H2(B|F) ignores local unitaries
    local = np.random.default_rng(31)
    for edge in ("IC", "IS", "ID", "CS", "CD", "DS"):
        params = edge_point(edge, local.uniform(0.3, 1.0))
        phi1, phi2 = local.uniform(0.0, np.pi), local.uniform(0.0, 2 * np.pi)
        images = ((phi1, phi2), (phi1, phi2 + np.pi), (np.pi - phi1, -phi2), (np.pi - phi1, np.pi - phi2))
        vals = [h2_conditional(choi_bf(stinespring_isometry(params, ProbeState(*q)))).value for q in images]
        assert max(vals) - min(vals) <= 1e-12, (edge, vals)


def _h2_spread(params, probes) -> float:
    """Spread of H2 over probe rows (phi1, phi2), rho_BF read off the
    gate's probe table as the probe search reads it."""
    table = probe_table(lambda q: choi_bf(stinespring_isometry(params, q)))
    vals = [h2_conditional(rho).value for rho in table_at(table, np.asarray(probes))]
    return max(vals) - min(vals)


def _x_rotations(phi1, phi2, angles) -> np.ndarray:
    """Probe rows (phi1, phi2) of the probe rotated about x by each angle."""
    qx, qy, qz = np.sin(phi1) * np.cos(phi2), np.sin(phi1) * np.sin(phi2), np.cos(phi1)
    y, z = qy * np.cos(angles) - qz * np.sin(angles), qy * np.sin(angles) + qz * np.cos(angles)
    return np.stack([np.arccos(np.clip(z, -1.0, 1.0)), np.arctan2(y, np.full_like(y, qx))], axis=1)


def test_h2_exact_continuous_probe_symmetries():
    # where U commutes with R (x) R, the probe R psi gives outputs rotated
    # by local unitaries, which H2(B|F) ignores: on IS (U = a I + b SWAP)
    # for every R, on the face ax = ay (ID, DS) for every z-rotation and on
    # the face ay = az (IC, CS) for every x-rotation.  CD lies on neither
    # face, and its spread over phi2 is the control
    local = np.random.default_rng(606)
    for t in (0.2, 0.5, 0.8):
        probes = np.stack([local.uniform(0.0, np.pi, 12), local.uniform(0.0, 2 * np.pi, 12)], axis=1)
        assert _h2_spread(edge_point("IS", t), probes) <= 1e-12, t
        for phi1 in (0.4, 1.1, 2.0):
            line = np.stack([np.full(12, phi1), local.uniform(0.0, 2 * np.pi, 12)], axis=1)
            for edge in ("ID", "DS"):
                assert _h2_spread(edge_point(edge, t), line) <= 1e-12, (edge, t, phi1)
            assert _h2_spread(edge_point("CD", t), line) >= 1e-2, (t, phi1)
        for _ in range(3):
            orbit = _x_rotations(local.uniform(0.0, np.pi), local.uniform(0.0, 2 * np.pi),
                                 local.uniform(0.0, 2 * np.pi, 12))
            for edge in ("IC", "CS"):
                assert _h2_spread(edge_point(edge, t), orbit) <= 1e-12, (edge, t)


def test_h2_continuity_in_alpha():
    # nearby gates give nearby probe-optimized entropies
    checked = 0
    while checked < 100:
        params = random_params()
        delta = rng.normal(size=3)
        delta *= (1e-3 * rng.uniform() ** (1.0 / 3.0)) / np.linalg.norm(delta)
        try:
            shifted = UnitaryParams(*(params.as_array() + delta))
        except ValueError:
            continue  # perturbation left the ordered cell; resample
        a = best_probe_h2(params).h2
        b = best_probe_h2(shifted).h2
        assert abs(a - b) <= 0.05
        checked += 1


# ---------------------------------------------------------------------------
# delta_star and the finite-n correction


def test_delta_star_stationary():
    eps = 0.05
    d = delta_star(eps)
    h = 1e-6

    def objective(x):
        return g_eps(np.sqrt(eps / 2.0) - x) + 4.0 * np.log2(1.0 / x)

    residual = (objective(d + h) - objective(d - h)) / (2.0 * h)
    assert abs(residual) < 1e-6 * abs(objective(d)) + 1e-6


def test_delta_star_closed_form_agreement():
    # the fixed-point iteration against the golden-section oracle, which
    # resolves delta* to about 1e-8 relative only: the objective is flat at
    # its minimum
    for eps in (0.01, 0.05, 0.1, 0.3, *np.geomspace(1e-6, 0.99, 12)):
        assert abs(delta_star(eps) - delta_star_golden(eps)) <= 1e-6


# delta* to double precision: bisection of the objective's derivative at 60
# digits in mpmath, rounded to the nearest double
DELTA_STAR_REF = {
    0.01: 0.047138268437421166,
    0.05: 0.1053847870216308,
    0.1: 0.14900179782345382,
    0.3: 0.2578341692533676,
    0.5: 0.332539479438084,
}


# delta* at small eps, where a closed form in complex radicals cancels O(1)
# terms down to O(sqrt(eps)): the root of delta (1 + 5w) = 4 w s,
# w = sqrt(1 - (s - delta)^2), s = sqrt(eps/2), by mpmath.findroot at 60
# digits, rounded to the nearest double
DELTA_STAR_SMALL_REF = {
    1e-6: 0.0004714045186086032,
    1e-10: 4.714045207908135e-06,
    1e-20: 4.7140452079103166e-11,
    1e-30: 4.714045207910317e-16,
    1e-100: 4.714045207910317e-51,
    1e-300: 4.714045207910317e-151,
}


def test_delta_star_matches_high_precision_reference():
    for eps, ref in {**DELTA_STAR_REF, **DELTA_STAR_SMALL_REF}.items():
        assert delta_star(eps) == pytest.approx(ref, rel=1e-14, abs=0.0), eps


def test_delta_star_in_domain():
    for eps in (1e-300, 1e-20, 0.01, 0.05, 0.1, 0.3, 0.99999):
        d = delta_star(eps)
        assert 0.0 < d < np.sqrt(eps / 2.0)


def test_delta_star_domain_errors():
    for eps in (0.0, -0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            delta_star(eps)


def test_delta_objective_single_minimum():
    # one interior minimum: the closed form's stationary point is the
    # minimizer, and the golden-section oracle brackets that same point
    for eps in (0.01, 0.05, 0.1, 0.3):
        s = np.sqrt(eps / 2.0)
        xs = np.linspace(s * 1e-4, s * (1.0 - 1e-4), 1000)
        vals = np.array([g_eps(s - x) + 4.0 * np.log2(1.0 / x) for x in xs])
        interior = (vals[1:-1] < vals[:-2]) & (vals[1:-1] < vals[2:])
        assert int(interior.sum()) == 1


# ---------------------------------------------------------------------------
# One-shot lower bound assembly


def test_bound_zero_rate_clamps():
    for eps in (0.01, 0.05, 0.1):
        for n in (10, 1000, 10**6):
            res = one_shot_lower_bound(0.0, eps, n)
            assert res.clamped_bound == 0.0
            assert res.raw_bound < 0.0
            assert res.clamped_bound == max(0.0, res.raw_bound)


def test_bound_monotone_in_n():
    prev = -np.inf
    for n in (10, 100, 1000, 10**4):
        res = one_shot_lower_bound(1.0, 0.05, n)
        assert res.raw_bound > prev
        assert res.raw_bound == pytest.approx(1.0 - res.correction / n, abs=1e-12)
        prev = res.raw_bound
    assert one_shot_lower_bound(1.0, 0.05, 10**6).raw_bound == pytest.approx(1.0, abs=1e-3)


def test_bound_rejects_bad_n():
    # inf and NaN are argument errors too: int(inf) raised OverflowError,
    # which a sweep counts as a numerical fault, and int(NaN) a message
    # about conversion
    for n in (0, -1, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            one_shot_lower_bound(1.0, 0.05, n)


# ---------------------------------------------------------------------------
# Probe optimization over gates


def test_best_probe_dcnot_edge():
    for t in (0.25, 0.75):
        res = best_probe_h2(edge_point("DS", t))
        assert res.h2 == pytest.approx(1.0, abs=1e-3)
        assert res.converged


def test_best_probe_ic_edge():
    res = best_probe_h2(edge_point("IC", 0.5))
    assert res.h2 <= 1e-3


def test_best_probe_exact_on_identity_edges():
    # along IC the optimum is -log2(1 + cos^2 a) at a = t pi/2, and inside
    # the IS and ID edges the two optima agree exactly.  Measured: 2.2e-16
    # and 0 (6.3e-16 and 0 over 41 t); 1e-15 leaves a few ulps for the log
    for t in (0.25, 0.5, 0.75):
        a = t * math.pi / 2.0
        assert abs(best_probe_h2(edge_point("IC", t)).h2 + math.log2(1.0 + math.cos(a) ** 2)) <= 1e-15
        assert abs(best_probe_h2(edge_point("IS", t)).h2 - best_probe_h2(edge_point("ID", t)).h2) <= 1e-15


def test_best_probe_is_edge_threshold_sides():
    below = best_probe_h2(edge_point("IS", 0.45))
    above = best_probe_h2(edge_point("IS", 0.75))
    assert below.h2 < 0.0
    assert above.h2 > 0.05


def test_best_probe_deterministic():
    params = edge_point("CD", 0.4)
    a = best_probe_h2(params)
    b = best_probe_h2(params)
    assert a.h2 == b.h2
    assert a.probe == b.probe


def _probe_table(params) -> np.ndarray:
    return probe_table(lambda q: choi_bf(stinespring_isometry(params, q)))


def test_reduced_probe_search_against_the_sphere_search(monkeypatch):
    # on IS and on the faces ax = ay and ay = az the answer is one sigma
    # solve at the pole probe (0, 0); where sigma is off the cap the 2-D
    # search over the Klein-four domain never beats it by more than 1e-12
    # (measured: 6.4e-15 on 120 face gates).  A gate 1e-12 off a face takes
    # the 2-D search and agrees with the face gate
    local = np.random.default_rng(1919)
    gates = [UnitaryParams(a, a, a) for a in (0.3, 0.9, 1.2)]
    for _ in range(20):
        a = local.uniform(0.1, 1.4)
        c = local.uniform(0.0, a)
        gates += [UnitaryParams(a, a, c), UnitaryParams(a, c, c)]
    for params in gates:
        pole, sphere = best_probe_h2(params), qrl.capacity._sphere_search(_probe_table(params))
        assert pole.probe == ProbeState(0.0, 0.0), params
        assert max(np.linalg.norm(pole.sigma), np.linalg.norm(sphere.sigma)) < 0.999, params
        assert pole.h2 >= sphere.h2 - 1e-12, (params, pole.h2 - sphere.h2)
    generic = []
    plain = qrl.capacity._sphere_search

    def recorded(table):
        generic.append(1)
        return plain(table)

    monkeypatch.setattr(qrl.capacity, "_sphere_search", recorded)
    for face, off in (((1.1, 1.1, 0.4), (1.1, 1.1 - 1e-12, 0.4)), ((1.2, 0.5, 0.5), (1.2, 0.5, 0.5 - 1e-12))):
        on_face = best_probe_h2(UnitaryParams(*face)).h2
        assert not generic
        assert abs(best_probe_h2(UnitaryParams(*off)).h2 - on_face) <= 1e-10, off
        assert generic == [1]
        generic.clear()


def test_best_probe_canonical_probes():
    # IS and every face gate report exactly the probe (0, 0), the same bits
    # on every call
    for edge in ("IS", "ID", "DS", "IC", "CS"):
        for t in (1.0 / 3.0, 2.0 / 3.0, 1.0):
            a, b = best_probe_h2(edge_point(edge, t)), best_probe_h2(edge_point(edge, t))
            assert a.probe == ProbeState(0.0, 0.0), (edge, t, a.probe)
            assert np.array([a.h2, *a.sigma]).tobytes() == np.array([b.h2, *b.sigma]).tobytes()


def _pole_rho(params) -> np.ndarray:
    return choi_bf(stinespring_isometry(params, ProbeState(0.0, 0.0)))


def _pole_gates() -> list:
    """200 random gates of the tetrahedron and every edge at 41 t."""
    local = np.random.default_rng(3131)
    gates = []
    for _ in range(200):
        ax = local.uniform(0.0, math.pi / 2.0)
        ay = local.uniform(0.0, ax)
        gates.append(UnitaryParams(ax, ay, local.uniform(0.0, ay)))
    edges = ("IS", "ID", "DS", "IC", "CS", "CD")
    return gates + [edge_point(e, t) for e in edges for t in np.linspace(0.0, 1.0, 41).tolist()]


def _pole_reference(a: float, b: float, c: float) -> float:
    """-log2 of the least of a/lam + b/(1 - lam) + 2c/sqrt(lam (1 - lam))
    over the capped lam, in 40-digit decimal arithmetic: 140 bisections on
    the sign of its derivative, which is increasing in lam."""
    with localcontext() as ctx:
        ctx.prec = 40
        a, b, c, cap = map(Decimal, (a, b, c, BLOCH_CAP))
        lo, hi = (1 - cap) / 2, (1 + cap) / 2
        for _ in range(140):
            lam = (lo + hi) / 2
            mu = 1 - lam
            if b / (mu * mu) - a / (lam * lam) - c * (mu - lam) / (lam * mu).sqrt() ** 3 > 0:
                hi = lam
            else:
                lo = lam
        mu = 1 - lo
        return float(-(a / lo + b / mu + 2 * c / (lo * mu).sqrt()).ln() / Decimal(2).ln())


def test_h2_at_pole_against_the_generic_solve():
    # at the pole probe Z (x) Z leaves rho_BF invariant, and the closed form
    # agrees with the generic sigma solve.  Off the cap they agree within
    # 2e-14 (measured 1.2e-14, at |sigma| near 0.99 on CS and CD, where the
    # generic value is the one off: the closed form sits within 3.3e-16 of
    # the decimal reference below) and the certificate closes on the closed
    # form's sigma as it does on the generic one's; at the cap the closed
    # form reads the cap's exact value, never below the search (measured
    # 4.4e-13 and more above it)
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    off = at_cap = 0
    for params in _pole_gates():
        rho = _pole_rho(params)
        assert np.max(np.abs(zz @ rho @ zz - rho)) <= 1e-15, params
        closed, generic = h2_at_pole(rho), h2_conditional(rho)
        assert closed.converged and closed.sigma[:2] == (0.0, 0.0)
        assert abs(closed.value - _pole_reference(*qrl.capacity._pole_blocks(rho))) <= 1e-15, params
        if abs(closed.sigma[2]) < 0.999:
            off += 1
            assert abs(closed.value - generic.value) <= 2e-14, (params, closed.value - generic.value)
            assert -1e-13 <= sigma_certificate(rho, closed) - closed.value <= 1e-12, params
        else:
            at_cap += 1
            assert abs(closed.sigma[2]) == BLOCH_CAP
            assert closed.value >= generic.value - 1e-15, (params, closed.value - generic.value)
    assert off > 300 and at_cap > 0


def test_h2_at_pole_follows_the_angles():
    # with cm, sm = cos^2, sin^2 of (ax - ay)/2 and cp, sp those of
    # (ax + ay)/2 the block sums are A = (cm^2 + sp^2)/4,
    # B = (sm^2 + cp^2)/4 and C = (cm cp + sm sp)/4, independent of az;
    # I reads -1, C reads 0 and S the cap's value log2(1 + BLOCH_CAP)
    local = np.random.default_rng(3132)
    for _ in range(50):
        ax = local.uniform(0.0, math.pi / 2.0)
        ay = local.uniform(0.0, ax)
        blocks = qrl.capacity._pole_blocks(_pole_rho(UnitaryParams(ax, ay, local.uniform(0.0, ay))))
        cm, sm = math.cos((ax - ay) / 2.0) ** 2, math.sin((ax - ay) / 2.0) ** 2
        cp, sp = math.cos((ax + ay) / 2.0) ** 2, math.sin((ax + ay) / 2.0) ** 2
        expected = ((cm * cm + sp * sp) / 4.0, (sm * sm + cp * cp) / 4.0, (cm * cp + sm * sp) / 4.0)
        assert np.max(np.abs(np.subtract(blocks, expected))) <= 1e-15, (ax, ay)
    assert abs(best_probe_h2(VERTICES["I"]).h2 + 1.0) <= 1e-15
    assert abs(best_probe_h2(VERTICES["C"]).h2) <= 1e-15
    assert abs(best_probe_h2(VERTICES["S"]).h2 - math.log2(1.0 + BLOCH_CAP)) <= 2e-16


def test_ds_edge_reads_the_swap_value():
    # on DS sigma sits at the cap and H2 is the cap's value, the one S and
    # D read: every row of a 41-sample DS sweep lies within 1e-15 of S's H2
    s = best_probe_h2(VERTICES["S"]).h2
    for t in np.linspace(0.0, 1.0, 41).tolist():
        assert abs(best_probe_h2(edge_point("DS", t)).h2 - s) <= 1e-15, t


def test_best_probe_builds_four_channels(monkeypatch):
    # rho_BF is read off a table built from four probes: no isometry or
    # Choi state per probe that the scan and the simplex try on the 2-D
    # path (CD); IS and a face (CS) need one channel, at the pole probe
    calls = {"stinespring_isometry": 0, "choi_bf": 0}
    for name in calls:

        def counted(*args, _fn=getattr(qrl.capacity, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(qrl.capacity, name, counted)
    for edge, built in (("CD", 4), ("CS", 1), ("IS", 1)):
        best_probe_h2(edge_point(edge, 0.4))
        assert calls == {"stinespring_isometry": built, "choi_bf": built}, edge
        calls.update(stinespring_isometry=0, choi_bf=0)


def test_best_probe_certifies_every_sigma_solve(monkeypatch):
    # each sigma solve of the probe search, in the scan, the refinement and
    # the final solve, and each pole closed form ends where the tangent-plane
    # certificate closes to round-off; near the cap the gap is the cap's
    # own, about 7.2e-8 bits.  S, D and a gate just off the face ax = ay
    # near DS put solves at the cap: S and D one closed form each without
    # Y > 0, the 2-D search off DS solves with and without it
    solves, closed = [], []

    def recording(solve, into):
        def recorded(rho, *config):
            opt = solve(rho, *config)
            into.append((rho, opt))
            return opt

        return recorded

    monkeypatch.setattr(qrl.capacity, "h2_conditional", recording(qrl.capacity.h2_conditional, solves))
    monkeypatch.setattr(qrl.capacity, "h2_at_pole", recording(qrl.capacity.h2_at_pole, closed))
    gates = [edge_point(e, t) for e in ("CD", "CS") for t in (1.0 / 3.0, 2.0 / 3.0)]
    near_ds = UnitaryParams(math.pi / 2.0, math.pi / 2.0 - 1e-9, math.pi / 3.0)
    for p in gates + [UnitaryParams(1.2, 0.7, 0.3), VERTICES["S"], VERTICES["D"], near_ds]:
        best_probe_h2(p)
    assert len(closed) == 4  # CS t = 1/3 and 2/3, S and D
    interior = near_cap = 0
    for rho, opt in solves + closed:
        bound = sigma_certificate(rho, opt)
        if np.linalg.norm(opt.sigma) < 0.999:
            interior += 1
            assert bound is not None and -1e-13 <= bound - opt.value <= 1e-12
        elif bound is not None:
            near_cap += 1
            assert bound - opt.value <= 1e-7
    assert interior > 0 and near_cap > 0


def test_probe_simplex_solves_each_probe_once(monkeypatch):
    # the refinement makes one _MEDIUM solve per distinct ProbeState among
    # the points the simplex evaluates: its moves clamped to phi1 = 0 name
    # the pole under many phi2 and read the pole's first solve.  Measured:
    # 68, 74 and 69 solves against 134, 146 and 136 points.  The memo only
    # skips repeats, so the result has the bits of the search without it
    gates = (edge_point("CD", 1.0 / 3.0), edge_point("CD", 2.0 / 3.0), UnitaryParams(1.2, 0.7, 0.3))
    plain_h2, plain_nm = qrl.capacity.h2_conditional, qrl.capacity.nelder_mead
    solves, points = [0], []

    def counted(rho, config=qrl.capacity.DEFAULT_CONFIG):
        solves[0] += config is qrl.capacity._MEDIUM
        return plain_h2(rho, config)

    def recorded(f, x0, *args, **kwargs):
        if len(x0) == 1:  # a sigma solve's radius search
            return plain_nm(f, x0, *args, **kwargs)

        def seen(x):
            points.append(x)
            return f(x)

        return plain_nm(seen, x0, *args, **kwargs)

    def bits(opt):
        return np.array([opt.h2, opt.probe.phi1, opt.probe.phi2, *opt.sigma]).tobytes(), opt.converged

    shipped = []
    monkeypatch.setattr(qrl.capacity, "h2_conditional", counted)
    monkeypatch.setattr(qrl.capacity, "nelder_mead", recorded)
    for p in gates:
        solves[0] = 0
        points.clear()
        shipped.append(best_probe_h2(p))
        probes = {ProbeState(*x) for x in points}
        assert solves[0] == len(probes) < len(points) // 2 + 2, (p, solves[0], len(points))
    monkeypatch.setattr(qrl.capacity, "once_per_probe", lambda f: f)
    for p, a in zip(gates, shipped):
        solves[0] = 0
        points.clear()
        b = best_probe_h2(p)
        assert solves[0] == len(points), p
        assert bits(a) == bits(b), p
