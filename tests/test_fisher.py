"""Tests for the QFI matrix, the Bayesian average, and its regularization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

import qrl.fisher
from qrl.channel import ProbeState, apply_channel, choi_bf, probe_scan, probe_table, stinespring_isometry, table_at
from qrl.fisher import (
    DEFAULT_ETA_SCHEDULE,
    AvgQfiResult,
    QuadSpec,
    QuadratureError,
    avg_qfi_at_probe,
    avg_trace_qfi,
    maximize_over_probe,
)
from qrl.unitary import UnitaryParams, edge_point
from oracles import EnvState, QfiMatrix, avg_trace_qfi_ugrid, channel_qfi, prior_weight, qfi_matrix

rng = np.random.default_rng(77)

IDENT = UnitaryParams(0.0, 0.0, 0.0)
CNOTV = UnitaryParams(np.pi / 2, 0.0, 0.0)
DCNOT = UnitaryParams(np.pi / 2, np.pi / 2, 0.0)
SWAP = UnitaryParams(np.pi / 2, np.pi / 2, np.pi / 2)


def random_params():
    ax = rng.uniform(0.05, np.pi / 2)
    ay = rng.uniform(0.0, ax)
    az = rng.uniform(0.0, ay)
    return UnitaryParams(ax, ay, az)


def random_probe():
    return ProbeState(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))


def random_env(r_lo=1e-3, r_hi=0.5 - 1e-3):
    return EnvState(
        rng.uniform(r_lo, r_hi),
        rng.uniform(1e-3, np.pi - 1e-3),
        rng.uniform(0, 2 * np.pi),
    )


def swap_diag(env):
    return np.array(
        [
            4.0 / (1.0 - 4.0 * env.r**2),
            4.0 * env.r**2,
            4.0 * env.r**2 * np.sin(env.theta1) ** 2,
        ]
    )


# ---------------------------------------------------------------------------
# QfiMatrix container


def test_qfi_matrix_validation():
    QfiMatrix(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="3x3"):
        QfiMatrix(np.eye(2))
    bad = np.diag([1.0, 2.0, 3.0])
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValueError, match="symmetric"):
        QfiMatrix(bad)
    with pytest.raises(ValueError, match="negative"):
        QfiMatrix(np.diag([1.0, -2.0, 3.0]))


def test_qfi_matrix_zero_derivs():
    rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    z = np.zeros((2, 2), dtype=complex)
    f = qfi_matrix(rho, (z, z, z))
    assert np.all(f.entries == 0.0)
    assert f.trace() == 0.0


# ---------------------------------------------------------------------------
# channel_qfi closed forms and oracles


def test_swap_printed_formulas():
    probe = ProbeState(1.3, 0.4)  # probe drops out for SWAP
    for r in np.linspace(0.05, 0.45, 5):
        for t1 in np.linspace(0.1, np.pi - 0.1, 5):
            for t2 in np.linspace(0.0, 5.9, 5):
                env = EnvState(r, t1, t2)
                f = channel_qfi(SWAP, probe, env).entries
                assert np.max(np.abs(f - np.diag(swap_diag(env)))) < 1e-10


def test_swap_examples():
    f = channel_qfi(SWAP, ProbeState(0.0, 0.0), EnvState(0.3, np.pi / 2, 0.0)).entries
    assert f[1, 1] == pytest.approx(0.36, abs=1e-12)
    f0 = channel_qfi(SWAP, ProbeState(0.0, 0.0), EnvState(0.0, 1.0, 2.0)).entries
    assert f0[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_identity_channel_no_information():
    # output is the probe regardless of the environment
    for _ in range(5):
        f = channel_qfi(IDENT, random_probe(), random_env()).entries
        assert np.max(np.abs(f)) < 1e-12


def test_dcnot_optimal_probe_formula():
    # at cos^2 phi1 = 1 the azimuth row collapses to 4 r^2 sin^2 theta1
    probe = ProbeState(0.0, 0.0)
    for _ in range(10):
        env = random_env()
        f = channel_qfi(DCNOT, probe, env).entries
        assert f[2, 2] == pytest.approx(4.0 * env.r**2 * np.sin(env.theta1) ** 2, abs=1e-10)
        off = f - np.diag(np.diag(f))
        assert np.max(np.abs(off)) < 1e-10


def test_channel_qfi_matches_finite_differences():
    # analytic env derivatives against central differences, entrywise
    h = 1e-5
    for _ in range(200):
        p, probe, env = random_params(), random_probe(), random_env(r_lo=1e-3)
        iso = stinespring_isometry(p, probe)
        rho = apply_channel(iso, env.matrix())
        fd = []
        for axis in range(3):
            coords = np.array([env.r, env.theta1, env.theta2])
            up, dn = coords.copy(), coords.copy()
            up[axis] += h
            dn[axis] -= h
            rho_up = apply_channel(iso, EnvState(*up).matrix())
            rho_dn = apply_channel(iso, EnvState(*dn).matrix())
            fd.append((rho_up - rho_dn) / (2.0 * h))
        analytic = channel_qfi(p, probe, env).entries
        numeric = qfi_matrix(rho, fd).entries
        assert np.max(np.abs(analytic - numeric)) < 1e-6


angles = st.floats(0.0, np.pi / 2)


@settings(max_examples=300, deadline=None)
@given(
    alphas=st.tuples(angles, angles, angles).map(lambda a: sorted(a, reverse=True)),
    phi1=st.sampled_from((0.0, np.pi)),
    phi2=st.floats(0.0, 2 * np.pi),
    r=st.floats(0.0, 0.49),  # output stays clear of qfi_matrix's purity switch
    t1=st.floats(0.0, np.pi),
    t2=st.floats(0.0, 2 * np.pi),
)
def test_pole_probe_alpha_z_is_theta2_shift(alphas, phi1, phi2, r, t1, t2):
    # ZZ commutes with XX and YY; on a Z eigenstate probe exp(-i az ZZ/2)
    # rotates E about z, i.e. theta2 -> theta2 + az at phi1 = 0, - az at pi
    ax, ay, az = alphas
    probe = ProbeState(phi1, phi2)
    shift = az if phi1 == 0.0 else -az
    full = channel_qfi(UnitaryParams(ax, ay, az), probe, EnvState(r, t1, t2)).entries
    shifted = channel_qfi(UnitaryParams(ax, ay, 0.0), probe, EnvState(r, t1, t2 + shift)).entries
    assert np.max(np.abs(full - shifted)) <= 1e-10


def test_qfi_psd():
    for _ in range(500):
        f = channel_qfi(random_params(), random_probe(), random_env()).entries
        assert np.min(np.linalg.eigvalsh(f)) >= -1e-8


def test_theta2_unidentifiable_at_origin():
    for _ in range(20):
        env = EnvState(1e-7, rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi))
        f = channel_qfi(random_params(), random_probe(), env).entries
        assert f[2, 2] <= 1e-9


def test_branch_continuity_on_swap():
    # theta-direction entries are regular across the purity switch
    r = 0.5 * math.sqrt(1.0 - 4e-10)  # det(rho) ~ 1e-10, at the default tol
    probe = ProbeState(0.9, 0.2)
    for t1 in (0.4, 1.3, 2.8):
        env = EnvState(r, t1, 1.1)
        mixed = channel_qfi(SWAP, probe, env, purity_tol=1e-12).entries
        pure = channel_qfi(SWAP, probe, env, purity_tol=10.0).entries
        for idx in ((1, 1), (2, 2), (1, 2)):
            assert abs(mixed[idx] - pure[idx]) < 1e-4


def test_dcnot_probe_dominance():
    # cos^2 phi1 = 1 maximizes tr F pointwise in the environment
    best = ProbeState(0.0, 0.0)
    envs = [random_env() for _ in range(10)]
    for env in envs:
        top = channel_qfi(DCNOT, best, env).trace()
        for phi1 in np.linspace(0.0, np.pi, 9):
            for phi2 in (0.0, 1.2):
                cand = channel_qfi(DCNOT, ProbeState(phi1, phi2), env).trace()
                assert cand <= top + 1e-12


# ---------------------------------------------------------------------------
# Prior


def test_prior_weight_values():
    assert prior_weight(EnvState(0.2, 0.0, 0.0)) == 0.0
    assert prior_weight(EnvState(0.2, np.pi, 0.0)) == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-15)


def test_prior_mass_is_one():
    x1, w1 = leggauss(40)
    t1 = 0.5 * np.pi * (x1 + 1.0)
    int_theta1 = float(np.sum(w1 * 0.5 * np.pi * np.sin(t1 / 2.0) / (2.0 * np.pi)))
    mass = 0.5 * 2.0 * np.pi * int_theta1  # flat radial and azimuthal factors
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_quad_spec_validation():
    QuadSpec(2, 2)
    for bad in ((1, 8), (8, 1)):
        with pytest.raises(ValueError):
            QuadSpec(*bad)
    # the radial count is fixed: the library integrates the radius exactly
    assert QuadSpec().nr == QuadSpec(64, 64).nr == 48
    with pytest.raises(TypeError):
        QuadSpec(48, 32, 32)


# ---------------------------------------------------------------------------
# Regularized Bayesian average


def test_avg_identity_is_zero():
    for eta in (0.0, 1e-3, 0.4):
        assert avg_trace_qfi(IDENT, ProbeState(0.7, 0.3), QuadSpec(), eta) == 0.0


def test_avg_swap_matches_boundary_integral():
    # closed form: 2 ln((1-eta)/eta) + 184 (1/2-eta)^3 / 45
    probe = ProbeState(1.1, 0.4)
    for eta in (1e-2, 1e-4, 1e-6):
        big_r = 0.5 - eta
        expected = 2.0 * math.log((1.0 - eta) / eta) + 184.0 * big_r**3 / 45.0
        got = avg_trace_qfi(SWAP, probe, QuadSpec(), eta)
        assert got == pytest.approx(expected, abs=1e-6)


def test_avg_swap_log_growth_per_halving():
    probe = ProbeState(0.0, 0.0)
    vals = {eta: avg_trace_qfi(SWAP, probe, QuadSpec(), eta) for eta in (2.5e-4, 5e-4, 1e-3)}
    assert vals[5e-4] - vals[1e-3] == pytest.approx(2.0 * math.log(2.0), abs=4e-3)
    assert vals[2.5e-4] - vals[5e-4] == pytest.approx(2.0 * math.log(2.0), abs=4e-3)


def test_avg_cnot_vertex_near_reported_value():
    # K = 1 probe; modest cutoff already sits close to the eta -> 0 limit
    got = avg_trace_qfi(CNOTV, ProbeState(np.pi, 0.0), QuadSpec(), 1e-6)
    assert got == pytest.approx(1.76108, abs=1e-2)


def _gl(a, b, n):
    x, w = leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _pointwise_avg(p, probe, eta):
    """Prior average of channel_qfi traces, one node at a time.

    Radial nodes in u = -ln(1/2 - r) as in the vectorized average; 8 x 16 x 32
    nodes, the 32 in theta2, which carries the pole integrand's structure.
    """
    u, w_u = _gl(math.log(2.0), math.log(1.0 / eta), 8)
    t1s, w1 = _gl(0.0, np.pi, 16)
    t2s, w2 = _gl(0.0, 2.0 * np.pi, 32)
    total = 0.0
    for r, wr in zip(0.5 - np.exp(-u), w_u * np.exp(-u)):
        for t1, wt1 in zip(t1s, w1):
            for t2, wt2 in zip(t2s, w2):
                f = channel_qfi(p, probe, EnvState(r, t1, t2)).trace()
                total += wr * wt1 * wt2 * math.sin(t1 / 2.0) / (2.0 * math.pi) * f
    return total


def test_cs_equatorial_probe_beats_pole_pointwise():
    # CS edge at t = 0.5; the equator-pole gap is what refutes CS ~= CD
    p = UnitaryParams(np.pi / 2, np.pi / 4, np.pi / 4)
    fast = {}
    for probe in (ProbeState(np.pi / 2, 1.047), ProbeState(0.0, 0.0)):
        fast[probe.phi1] = avg_trace_qfi(p, probe, QuadSpec(), 1e-2)
        assert _pointwise_avg(p, probe, 1e-2) == pytest.approx(fast[probe.phi1], abs=1e-3)
    assert fast[np.pi / 2] - fast[0.0] > 2e-2


def test_avg_invariant_under_probe_half_turn():
    # the Z (x) Z image: phi2 -> phi2 + pi acts as the shift theta2 -> theta2
    # + pi of the environment, and the prior does not depend on theta2.  The
    # Gauss-Legendre theta2 rule is not shift-invariant, so the grid must
    # resolve the integrand: at eta = 1e-2, 128^2 leaves 1e-10, 64^2 1e-6
    local = np.random.default_rng(9)
    quad = QuadSpec(128, 128)
    for _ in range(6):
        ax = local.uniform(0.05, np.pi / 2)
        ay = local.uniform(0.0, ax)
        p = UnitaryParams(ax, ay, local.uniform(0.0, ay))
        phi1, phi2 = local.uniform(0, np.pi), local.uniform(0, 2 * np.pi)
        a = avg_trace_qfi(p, ProbeState(phi1, phi2), quad, 1e-2)
        b = avg_trace_qfi(p, ProbeState(phi1, phi2 + np.pi), quad, 1e-2)
        assert b == pytest.approx(a, rel=1e-8, abs=0.0)


def test_avg_eta_domain():
    probe = ProbeState(0.3, 0.9)
    for eta in (0.41, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"eta must lie in \[0, 0\.4\]"):
            avg_trace_qfi(SWAP, probe, QuadSpec(), eta)
    # a sequence of cutoffs: the error names the offending entry
    with pytest.raises(ValueError, match="one or more cutoffs"):
        avg_trace_qfi(CNOTV, probe, QuadSpec(), ())
    for bad in (0.41, -1e-9, math.nan, math.inf, -math.inf):
        for etas in ((bad,), (1e-2, bad), [1e-2, 1e-4, bad]):
            at = len(etas) - 1
            with pytest.raises(ValueError, match=rf"eta\[{at}\] must lie in \[0, 0\.4\], got {bad!r}"):
                avg_trace_qfi(CNOTV, probe, QuadSpec(), etas)
    # a scalar gives a float, a sequence a tuple in its own order
    assert type(avg_trace_qfi(CNOTV, probe, QuadSpec(), 1e-2)) is float
    assert type(avg_trace_qfi(CNOTV, probe, QuadSpec(), np.float64(1e-2))) is float
    pair = avg_trace_qfi(CNOTV, probe, QuadSpec(), [1e-4, 1e-2])
    assert type(pair) is tuple and all(type(v) is float for v in pair)
    assert pair[0] > pair[1]


def test_nan_integrand_names_the_node():
    bad = object.__new__(ProbeState)
    object.__setattr__(bad, "phi1", float("nan"))
    object.__setattr__(bad, "phi2", 0.0)
    with pytest.raises(QuadratureError, match="node theta1="):
        avg_trace_qfi(SWAP, bad, QuadSpec(4, 4), 1e-2)


def test_nan_in_a_batch_names_the_probe_and_the_node():
    # one NaN slot among good probes in one block: the error names that
    # probe, not a neighbour, and the node
    bad = object.__new__(ProbeState)
    object.__setattr__(bad, "phi1", float("nan"))
    object.__setattr__(bad, "phi2", 0.25)
    probes = [ProbeState(0.4, 1.0), bad, ProbeState(1.2, 2.0), ProbeState(2.0, 5.0)]
    offsets, maps = zip(*(qrl.fisher._probe_affine(CNOTV, q) for q in probes))
    coords = np.array([[q.phi1, q.phi2] for q in probes])
    for eta in (1e-2, (1e-2, 1e-4, 0.0)):
        with pytest.raises(QuadratureError, match=r"probe phi1=nan, phi2=0\.25, node theta1=\S+, theta2=\S+"):
            qrl.fisher._averages(coords, np.array(offsets), np.array(maps), QuadSpec(32, 32), eta)


# ---------------------------------------------------------------------------
# Probe-affine table and the batched kernel

EDGES = ("IC", "IS", "ID", "CS", "CD", "DS")


def test_affine_table_reproduces_probe_affine():
    # t, M and rho_BF are affine in the probe Bloch vector; the table built
    # from four probes gives every other one, poles included
    local = np.random.default_rng(31)
    coords = np.column_stack([local.uniform(0, np.pi, 200), local.uniform(0, 2 * np.pi, 200)])
    coords = np.vstack([coords, [[0.0, 0.0], [0.0, 2.1], [np.pi, 0.0], [np.pi, 4.4]]])
    for edge in EDGES:
        p = edge_point(edge, local.uniform(0.05, 0.95))
        affine = probe_table(lambda q: np.concatenate([a.ravel() for a in qrl.fisher._probe_affine(p, q)]))
        flat = table_at(affine, coords)
        rhos = table_at(probe_table(lambda q: choi_bf(stinespring_isometry(p, q))), coords)
        for (phi1, phi2), row, rho in zip(coords, flat, rhos):
            probe = ProbeState(phi1, phi2)
            t_ref, m_ref = qrl.fisher._probe_affine(p, probe)
            assert np.max(np.abs(row[:3] - t_ref)) <= 1e-14
            assert np.max(np.abs(row[3:].reshape(3, 3) - m_ref)) <= 1e-14
            assert np.max(np.abs(rho - choi_bf(stinespring_isometry(p, probe)))) <= 1e-15


def test_probe_scan_holds_each_pole_once():
    # the scan grids of both probe searches: the old n x n grids with the
    # copies of each pole dropped, every other point kept in order
    for n, phi1_max, phi2_max, poles in ((7, np.pi / 2, np.pi, (0.0,)), (13, np.pi, 2 * np.pi, (0.0, np.pi))):
        a = np.linspace(0.0, phi1_max, n)
        b = np.linspace(0.0, phi2_max, n, endpoint=False)
        old = np.stack(np.meshgrid(a, b, indexing="ij"), axis=-1).reshape(-1, 2)
        pts = probe_scan(n, n, phi1_max, phi2_max)
        assert len(pts) == n * n - (n - 1) * len(poles)
        for pole in poles:
            assert [tuple(q) for q in pts if q[0] == pole] == [(pole, 0.0)]
        assert np.array_equal(pts[~np.isin(pts[:, 0], poles)], old[~np.isin(old[:, 0], poles)])
        assert np.array_equal(pts, old[~np.isin(old[:, 0], poles) | (old[:, 1] == 0.0)])


@pytest.mark.parametrize("n", (12, 32, 128))
def test_batched_kernel_equals_single_probe_calls(n):
    # 12^2 and 32^2 put several probes in one block, 128^2 splits each probe
    # into node blocks.  The batch mixes finite gates, a pure offset (I)
    # and S, whose average at eta = 0 is inf in its own slot only
    cases = [
        (CNOTV, ProbeState(1.1, 0.4)),
        (edge_point("CS", 0.5), ProbeState(1.5708, 1.047)),
        (IDENT, ProbeState(0.7, 0.3)),
        (SWAP, ProbeState(1.1, 0.4)),
        (edge_point("ID", 0.3), ProbeState(2.2, 5.1)),
        (edge_point("CD", 0.6), ProbeState(0.9, 3.3)),
        (UnitaryParams(1.3, 0.8, 0.2), ProbeState(2.7, 1.9)),
    ]
    quad = QuadSpec(n, n)
    offsets, maps = zip(*(qrl.fisher._probe_affine(p, q) for p, q in cases))
    coords = np.array([[q.phi1, q.phi2] for _, q in cases])
    for eta in (1e-2, 0.0):
        got = qrl.fisher._averages(coords, np.array(offsets), np.array(maps), quad, eta)
        ref = [avg_trace_qfi(p, q, quad, eta) for p, q in cases]
        assert got[2] == ref[2] == 0.0
        assert [k for k, v in enumerate(got) if not math.isfinite(v)] == ([3] if eta == 0.0 else [])
        for g, r in zip(got, ref):
            assert g == pytest.approx(r, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", (32, 64, 128, 256))
def test_multi_cutoff_calls_equal_single_cutoff_calls(n):
    # one call over several cutoffs shares each block's geometry, and every
    # value must be the one-cutoff call's to the bit: 32^2 and 64^2 put
    # several probes in one block, 128^2 and 256^2 split each probe into
    # node blocks.  S is unitary at any probe, so eta = 0 reads inf in its
    # slot beside finite cutoffs; I is a pure offset with no cross term
    cases = [
        (CNOTV, ProbeState(1.1, 0.4)),
        (IDENT, ProbeState(0.7, 0.3)),
        (SWAP, ProbeState(1.1, 0.4)),
        (edge_point("CS", 0.5), ProbeState(1.5708, 1.047)),
        (edge_point("IS", 0.975), ProbeState(np.pi, 0.0)),
        (UnitaryParams(1.3, 0.8, 0.2), ProbeState(2.7, 1.9)),
    ]
    quad = QuadSpec(n, n)
    offsets, maps = (np.array(a) for a in zip(*(qrl.fisher._probe_affine(p, q) for p, q in cases)))
    coords = np.array([[q.phi1, q.phi2] for _, q in cases])
    etas = (1e-2, 0.0, 1e-4, 1e-6)
    rows = qrl.fisher._averages(coords, offsets, maps, quad, etas)
    assert rows.shape == (len(etas), len(cases))
    for eta, row in zip(etas, rows):
        assert np.array_equal(row, qrl.fisher._averages(coords, offsets, maps, quad, eta))
    assert [k for k, v in enumerate(rows[1]) if not math.isfinite(v)] == [2]
    assert np.isfinite(np.delete(rows, 1, axis=0)).all()
    assert not rows[:, 1].any()
    for p, q in cases:
        assert avg_trace_qfi(p, q, quad, etas) == tuple(avg_trace_qfi(p, q, quad, eta) for eta in etas)


# ---------------------------------------------------------------------------
# Closed-form radial integral against the u-grid oracle


@pytest.mark.parametrize("n", (32, 128))
def test_closed_form_matches_ugrid_oracle(n):
    local = np.random.default_rng(2024)
    quad = QuadSpec(n, n)
    for _ in range(4):
        ax = local.uniform(0.05, np.pi / 2)
        ay = local.uniform(0.0, ax)
        p = UnitaryParams(ax, ay, local.uniform(0.0, ay))
        probe = ProbeState(local.uniform(0, np.pi), local.uniform(0, 2 * np.pi))
        for eta in (1e-2, 1e-4, 1e-6):
            ref = avg_trace_qfi_ugrid(p, probe, quad, 48, eta, mask=False)
            assert avg_trace_qfi(p, probe, quad, eta) == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_radial_moments_match_their_power_series():
    # G_k(x) = int_0^1 t^k/(1 - x t) dt = sum_j x^j/(j+k+1); tiny |x| is the
    # case the upward recurrence from log1p cannot reach (G_0 - 1 rounds to 0)
    x = np.array([-0.99, -0.6, -0.26, -0.25, -0.1, -1e-8, -1e-20, 0.0, 1e-300, 1e-12, 0.2, 0.3, 0.7, 0.99])
    powers = x[None, :] ** np.arange(6000)[:, None]
    got = qrl.fisher._moments(x)
    for k in range(5):
        ref = (powers / (np.arange(6000)[:, None] + k + 1)).sum(axis=0)
        assert np.allclose(got[k], ref, rtol=1e-13, atol=0.0), k


def test_near_identity_keeps_nearly_pure_nodes():
    # the output is nearly pure at every node (1 - |t|^2 ~ 5e-6); the old
    # per-node purity mask dropped some nodes and read 1.9% low
    p = edge_point("ID", 1e-3)
    probe = ProbeState(3.02962, 3.91878)
    got = avg_trace_qfi(p, probe, QuadSpec(12, 12), 1e-6)
    ref = avg_trace_qfi_ugrid(p, probe, QuadSpec(12, 12), 96, 1e-6, mask=False)
    assert got == pytest.approx(ref, rel=1e-7, abs=0.0)
    assert got == pytest.approx(2.220406e-5, rel=1e-6)
    masked = avg_trace_qfi_ugrid(p, probe, QuadSpec(12, 12), 48, 1e-6, mask=True)
    assert (got - masked) / got > 0.015


def test_small_map_near_identity_vertex():
    # IC at t = 1e-4: |M| ~ 1e-4 and 1 - |t|^2 down to 1e-9, whose float
    # rounding (1e-16 absolute) bounds the agreement of any method to ~1e-7
    p = edge_point("IC", 1e-4)
    for probe in (ProbeState(0.3, 1.0), ProbeState(1.5, 0.2), ProbeState(np.pi, 0.0)):
        for eta in (1e-2, 1e-6):
            got = avg_trace_qfi(p, probe, QuadSpec(), eta)
            ref = avg_trace_qfi_ugrid(p, probe, QuadSpec(), 96, eta, mask=False)
            assert 0.0 < got < 1e-6
            assert got == pytest.approx(ref, rel=1e-6, abs=0.0)


def test_eta_zero_is_the_exact_limit():
    c = avg_trace_qfi(CNOTV, ProbeState(np.pi, 0.0), QuadSpec(64, 64), 0.0)
    assert math.isfinite(c)
    near = avg_trace_qfi(CNOTV, ProbeState(np.pi, 0.0), QuadSpec(64, 64), 1e-9)
    assert near == pytest.approx(c, abs=1e-6)
    assert c == pytest.approx(1.76108, abs=5e-3)
    # S diverges at every probe, D at a pole probe only
    assert avg_trace_qfi(SWAP, ProbeState(1.1, 0.4), QuadSpec(), 0.0) == math.inf
    assert avg_trace_qfi(DCNOT, ProbeState(0.0, 0.0), QuadSpec(), 0.0) == math.inf
    assert math.isfinite(avg_trace_qfi(DCNOT, ProbeState(1.1, 0.4), QuadSpec(), 0.0))
    assert avg_trace_qfi(IDENT, ProbeState(1.1, 0.4), QuadSpec(), 0.0) == 0.0


def _unitary_residual(p, probe):
    t, m = qrl.fisher._probe_affine(p, probe)
    return max(np.abs(t).max(), np.abs(m.T @ m - np.eye(3)).max())


def test_divergence_rule_is_a_unitary_probe_channel():
    # S at any probe, and D and every DS sample at a pole probe, give a
    # unitary channel t = 0, M^T M = I; the finite anchors are far from it
    local = np.random.default_rng(13)
    unitary = [(SWAP, ProbeState(local.uniform(0, np.pi), local.uniform(0, 2 * np.pi))) for _ in range(20)]
    unitary += [
        (edge_point("DS", t), ProbeState(pole, phi2))
        for t in np.linspace(0.0, 1.0, 41)
        for pole in (0.0, np.pi)
        for phi2 in (0.0, 2.5)
    ]
    for p, probe in unitary:
        assert _unitary_residual(p, probe) <= 1e-15
        assert qrl.fisher._unitary(*qrl.fisher._probe_affine(p, probe))
    finite = [
        (CNOTV, ProbeState(np.pi, 0.0)),
        (DCNOT, ProbeState(1.1, 0.4)),
        (IDENT, ProbeState(0.3, 0.9)),
        (edge_point("ID", 0.5), ProbeState(np.pi, 0.5)),
        (edge_point("ID", 0.95), ProbeState(np.pi, 0.89)),
        (edge_point("IS", 0.975), ProbeState(np.pi, 0.0)),
    ]
    for p, probe in finite:
        assert _unitary_residual(p, probe) > 1e-3
        assert not qrl.fisher._unitary(*qrl.fisher._probe_affine(p, probe))


def test_eta_zero_reads_inf_exactly_at_unitary_probes():
    # random gates at random and pole probes, edge points near the
    # divergent vertices, and the vertices: inf iff the channel is
    # unitary, and never NaN
    local = np.random.default_rng(411)
    cases = []
    for k in range(300):
        ax = local.uniform(0.05, np.pi / 2)
        ay = local.uniform(0.0, ax)
        p = UnitaryParams(ax, ay, local.uniform(0.0, ay))
        phi1 = (0.0, np.pi)[k % 2] if k % 3 == 0 else local.uniform(0, np.pi)
        cases.append((p, ProbeState(phi1, local.uniform(0, 2 * np.pi))))
    for edge in ("IS", "ID", "CS", "CD", "DS"):
        for t in (0.5, 0.95, 0.999, 1.0):
            for phi1 in (0.0, np.pi, 1.1):
                cases.append((edge_point(edge, t), ProbeState(phi1, 0.89)))
    divergent = 0
    for k, (p, probe) in enumerate(cases):
        n = (32, 64, 128)[k % 3]
        got = avg_trace_qfi(p, probe, QuadSpec(n, n), 0.0)
        assert not math.isnan(got)
        unitary = _unitary_residual(p, probe) <= qrl.fisher.UNITARY_TOL
        assert (got == math.inf) == unitary, (p, probe, n)
        divergent += unitary
    assert 0 < divergent < len(cases)


@pytest.mark.parametrize(
    "edge, t, probe, grids",
    [
        ("ID", 0.5, ProbeState(np.pi, 0.5), (64, 128)),
        ("ID", 0.95, ProbeState(np.pi, 0.89), (32, 64, 128)),
    ],
)
def test_eta_zero_is_finite_where_den_touches_zero_at_points(edge, t, probe, grids):
    # the image of the sphere touches the Bloch sphere at isolated
    # directions near a pole probe: integrable, so finite at eta = 0
    p = edge_point(edge, t)
    for n in grids:
        quad = QuadSpec(n, n)
        exact = avg_trace_qfi(p, probe, quad, 0.0)
        assert math.isfinite(exact)
        assert exact >= avg_trace_qfi(p, probe, quad, 1e-12)


def test_near_unitary_gate_is_finite():
    # IS t = 0.975 at a pole probe: |M^T M - I| = 3.1e-3, large but finite
    res = avg_qfi_at_probe(edge_point("IS", 0.975), ProbeState(np.pi, 0.0))
    assert math.isfinite(res.value) and res.value >= res.eta_trace[-1][1]


def test_refinement_reuses_the_base_values(monkeypatch):
    # one base-grid call carries the whole schedule, widest cutoff first;
    # the ladder then makes one call per rung, each on the doubled grid and
    # holding the still-open cutoffs among the last three, a set that never
    # grows.  The values are those of one ladder per cutoff made of
    # one-cutoff calls
    inner = qrl.fisher.avg_trace_qfi
    for p, probe in ((CNOTV, ProbeState(np.pi, 0.0)), (edge_point("CS", 0.5), ProbeState(1.2, 0.7))):
        calls = []

        def counting(p, probe, quad, eta):
            calls.append(((quad.n_theta1, quad.n_theta2), tuple(eta)))
            return inner(p, probe, quad, eta)

        monkeypatch.setattr(qrl.fisher, "avg_trace_qfi", counting)
        res = avg_qfi_at_probe(p, probe)
        monkeypatch.setattr(qrl.fisher, "avg_trace_qfi", inner)
        assert math.isfinite(res.value)
        assert calls[0] == ((32, 32), DEFAULT_ETA_SCHEDULE)
        assert [grid for grid, _ in calls].count((32, 32)) == 1
        assert len(calls) > 1
        held = DEFAULT_ETA_SCHEDULE[-3:]
        for (prev_grid, _), (grid, etas) in zip(calls, calls[1:]):
            assert grid == (2 * prev_grid[0], 2 * prev_grid[1])
            assert etas and etas == tuple(e for e in held if e in etas)
            held = etas

        refined = []
        for eta, base in res.eta_trace[-3:]:
            values, n = [base], 32
            while n < 256:
                n *= 2
                values.append(inner(p, probe, QuadSpec(n, n), eta))
                if abs(values[-1] - values[-2]) < 1e-4 * max(1.0, abs(values[-1])):
                    break
            refined.append(qrl.fisher._aitken(values))
        assert res.value == qrl.fisher._aitken(refined)
    # the second case closes 1e-4 and 1e-5 before 1e-6
    assert calls[-1] == ((256, 256), (1e-6,))


# ---------------------------------------------------------------------------
# Cutoff schedules, divergence, extrapolation


def test_avg_qfi_identity_sentinels():
    res = avg_qfi_at_probe(IDENT, ProbeState(0.3, 0.9))
    assert math.isfinite(res.value)
    assert res.value == 0.0


def test_avg_qfi_swap_divergent():
    res = avg_qfi_at_probe(SWAP, ProbeState(0.0, 0.0))
    assert res.value == math.inf
    assert res.value == math.inf
    etas = [e for e, _ in res.eta_trace]
    assert etas == sorted(etas, reverse=True)


def test_avg_qfi_bad_schedule():
    for schedule in ((), (0.0,), (0.5,), (-1e-3,), (1e-2, math.nan), (math.inf,)):
        with pytest.raises(ValueError, match="one or more cutoffs"):
            avg_qfi_at_probe(SWAP, ProbeState(0.0, 0.0), eta_schedule=schedule)
    # the status comes from the channel at the probe, so one cutoff is enough
    for schedule in ((1e-2,), (1e-2, 1e-2)):
        assert avg_qfi_at_probe(SWAP, ProbeState(0.0, 0.0), eta_schedule=schedule).value == math.inf
        res = avg_qfi_at_probe(CNOTV, ProbeState(np.pi, 0.0), eta_schedule=schedule)
        assert math.isfinite(res.value)
        assert len(res.eta_trace) == 1


def test_eta_trace_monotone_invariant():
    AvgQfiResult(1.0, ProbeState(0, 0), ((1e-2, 1.0), (1e-3, 1.0)))
    AvgQfiResult(2.0, ProbeState(0, 0), ((1e-2, 1.0), (1e-3, 2.0)))
    with pytest.raises(QuadratureError, match="non-decreasing"):
        AvgQfiResult(1.0, ProbeState(0, 0), ((1e-2, 2.0), (1e-3, 1.0)))


def test_maximize_identity():
    res = maximize_over_probe(IDENT, (1e-2, 1e-3))
    assert math.isfinite(res.value)
    assert res.value == 0.0


def test_maximize_cnot_vertex():
    res = maximize_over_probe(CNOTV)
    assert math.isfinite(res.value)
    assert res.value == pytest.approx(1.76108, abs=1e-2)
    # optimum sits on the sin^2 phi1 cos^2 phi2 = 0 ridge
    ridge = math.sin(res.probe_opt.phi1) ** 2 * math.cos(res.probe_opt.phi2) ** 2
    assert ridge <= 1e-4


def test_maximize_swap_and_dcnot_divergent():
    for p in (SWAP, DCNOT):
        res = maximize_over_probe(p, eta_schedule=(1e-3, 1e-4, 1e-5))
        assert res.value == math.inf


def test_sd_edge_value_is_alpha_z_independent():
    # probe maximization wipes out the alpha_z dependence on this edge
    traces = []
    for az in (0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2):
        res = maximize_over_probe(
            UnitaryParams(np.pi / 2, np.pi / 2, az),
            eta_schedule=(1e-2, 1e-3, 1e-4),
        )
        assert res.value == math.inf
        traces.append(np.array([v for _, v in res.eta_trace]))
    ref = traces[0]
    for other in traces[1:]:
        assert np.max(np.abs(other - ref) / np.abs(ref)) < 1e-8


def test_avg_continuity_in_alpha():
    # fixed cutoffs at the shipped settings: nearby gates give nearby maxima
    checked = 0
    while checked < 100:
        params = random_params()
        delta = rng.normal(size=3)
        delta *= (1e-3 * rng.uniform() ** (1.0 / 3.0)) / np.linalg.norm(delta)
        try:
            shifted = UnitaryParams(*(params.as_array() + delta))
        except ValueError:
            continue
        a = maximize_over_probe(params, (1e-3, 1e-4)).value
        b = maximize_over_probe(shifted, (1e-3, 1e-4)).value
        assert abs(a - b) <= 0.05
        checked += 1


def test_default_schedule_spans_decades():
    assert DEFAULT_ETA_SCHEDULE == (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
