import numpy as np
import pytest

import qrl.channel
from qrl.channel import (
    ProbeState,
    apply_channel,
    choi_bf,
    stinespring_isometry,
)
from qrl.linalg import I2, SZ, kron, partial_trace, validate_density
from qrl.unitary import VERTICES, UnitaryParams
from oracles import EnvState, apply_complement, choi_bf_loop, env_bloch_derivatives, probe_density

rng = np.random.default_rng(99)


def random_probe():
    return ProbeState(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))


def random_env():
    return EnvState(rng.uniform(0, 0.5), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))


def random_params():
    ax = rng.uniform(0, np.pi / 2)
    ay = rng.uniform(0, ax)
    az = rng.uniform(0, ay)
    return UnitaryParams(ax, ay, az)


def test_probe_state_realization():
    for _ in range(100):
        probe = random_probe()
        ket = probe.ket()
        assert abs(np.linalg.norm(ket) - 1.0) <= 1e-14
    with pytest.raises(ValueError):
        ProbeState(-0.1, 0.0)
    with pytest.raises(ValueError):
        ProbeState(np.pi + 0.1, 0.0)


def test_env_state_realization():
    for _ in range(100):
        env = random_env()
        assert validate_density(env.matrix()) == ()
        assert abs(np.linalg.norm(env.bloch()) - 2 * env.r) <= 1e-14
    with pytest.raises(ValueError):
        EnvState(0.51, 0.0, 0.0)
    with pytest.raises(ValueError):
        EnvState(-0.01, 0.0, 0.0)


def test_env_matrix_formula():
    env = EnvState(0.3, 1.1, 4.0)
    n = np.array(
        [np.sin(1.1) * np.cos(4.0), np.sin(1.1) * np.sin(4.0), np.cos(1.1)]
    )
    want = I2 / 2 + 0.3 * (
        n[0] * np.array([[0, 1], [1, 0]])
        + n[1] * np.array([[0, -1j], [1j, 0]])
        + n[2] * SZ
    )
    assert np.abs(env.matrix() - want).max() <= 1e-15


def test_isometry_contract():
    for _ in range(100):
        v = stinespring_isometry(random_params(), random_probe())
        assert v.shape == (4, 2)
        assert np.abs(v.conj().T @ v - I2).max() <= 1e-12


def test_isometry_swap_columns():
    probe = ProbeState(0.8, 2.5)
    iso = stinespring_isometry(VERTICES["S"], probe)
    ket = probe.ket()
    want = np.zeros((4, 2), dtype=complex)
    want[:2, 0] = ket  # |0>_B (x) |phi>_F
    want[2:, 1] = ket
    assert np.abs(iso - want).max() <= 1e-12


def test_isometry_identity_probe00():
    iso = stinespring_isometry(VERTICES["I"], ProbeState(0.0, 0.0))
    want = np.zeros((4, 2), dtype=complex)
    want[0, 0] = want[1, 1] = 1  # |0>_B (x) |e>_F
    assert np.abs(iso - want).max() <= 1e-14


def test_apply_channel_swap_is_identity_map():
    iso = stinespring_isometry(VERTICES["S"], random_probe())
    for _ in range(20):
        env = random_env()
        assert np.abs(apply_channel(iso, env.matrix()) - env.matrix()).max() <= 1e-12
    with pytest.raises(ValueError, match="2x2"):
        apply_channel(iso, np.eye(4))


def test_apply_channel_identity_returns_probe():
    probe = random_probe()
    iso = stinespring_isometry(VERTICES["I"], probe)
    for _ in range(10):
        assert np.abs(apply_channel(iso, random_env().matrix()) - probe_density(probe)).max() <= 1e-12


def test_apply_channel_c_vertex_probe00():
    iso = stinespring_isometry(VERTICES["C"], ProbeState(0.0, 0.0))
    for _ in range(20):
        env = random_env()
        out = apply_channel(iso, env.matrix())
        c = env.r * np.sin(env.theta1) * np.cos(env.theta2)
        assert abs(out[0, 0] - 0.5) <= 1e-12 and abs(out[1, 1] - 0.5) <= 1e-12
        assert abs(out[0, 1] - 1j * c) <= 1e-12
        assert abs(out[1, 0] + 1j * c) <= 1e-12


def test_apply_complement_examples():
    probe = random_probe()
    iso = stinespring_isometry(VERTICES["S"], probe)
    for _ in range(10):
        assert np.abs(apply_complement(iso, random_env()) - probe_density(probe)).max() <= 1e-12
    iso = stinespring_isometry(VERTICES["I"], probe)
    env = random_env()
    assert np.abs(apply_complement(iso, env) - env.matrix()).max() <= 1e-12


def test_channel_and_complement_trace_one():
    for _ in range(30):
        iso = stinespring_isometry(random_params(), random_probe())
        env = random_env()
        assert abs(np.trace(apply_channel(iso, env.matrix())) - 1) <= 1e-12
        assert abs(np.trace(apply_complement(iso, env)) - 1) <= 1e-12


def test_channel_linearity_on_mixtures():
    iso = stinespring_isometry(random_params(), random_probe())
    for _ in range(10):
        envs = [random_env() for _ in range(3)]
        w = rng.random(3)
        w /= w.sum()
        mix = sum(wi * e.matrix() for wi, e in zip(w, envs))
        direct = apply_channel(iso, mix)
        mixed = sum(wi * apply_channel(iso, e.matrix()) for wi, e in zip(w, envs))
        assert np.abs(direct - mixed).max() <= 1e-12


def test_choi_identity_is_bell():
    rho = choi_bf(stinespring_isometry(VERTICES["I"], random_probe()))
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    assert np.abs(rho - bell).max() <= 1e-12


def test_choi_swap_is_product():
    probe = random_probe()
    rho = choi_bf(stinespring_isometry(VERTICES["S"], probe))
    assert np.abs(rho - kron(I2 / 2, probe_density(probe))).max() <= 1e-12


def test_choi_c_vertex_polar_probe():
    rho = choi_bf(stinespring_isometry(VERTICES["C"], ProbeState(0.0, 0.0)))
    want = 0.25 * np.array(
        [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=complex
    )
    assert np.abs(rho - want).max() <= 1e-12


def test_choi_reference_marginal():
    for _ in range(500):
        rho = choi_bf(stinespring_isometry(random_params(), random_probe()))
        assert rho.shape == (4, 4)
        assert validate_density(rho) == ()
        assert np.abs(partial_trace(rho, "first") - I2 / 2).max() <= 1e-12


def test_choi_matches_the_block_loop():
    # the single contraction against the block-by-block route through the
    # complement, on random gates and probes, vertices and pole probes
    local = np.random.default_rng(15)
    cases = []
    for _ in range(200):
        ax = local.uniform(0, np.pi / 2)
        ay = local.uniform(0, ax)
        params = UnitaryParams(ax, ay, local.uniform(0, ay))
        cases.append((params, ProbeState(local.uniform(0, np.pi), local.uniform(0, 2 * np.pi))))
    cases += [(VERTICES[v], ProbeState(phi1, 0.3)) for v in "ICSD" for phi1 in (0.0, np.pi / 2, np.pi)]
    for params, probe in cases:
        iso = stinespring_isometry(params, probe)
        assert np.abs(choi_bf(iso) - choi_bf_loop(iso)).max() <= 1e-15


def test_bipartite_state_rejects_bad_marginal():
    # choi_bf checks the state it makes: a V whose columns are orthogonal
    # but of unequal length gives a density matrix with marginal
    # diag(3/4, 1/4); an all-ones V gives no density matrix at all
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0], v[1, 1] = np.sqrt(1.5), np.sqrt(0.5)
    assert validate_density(choi_bf_loop(v)) == ()
    with pytest.raises(RuntimeError, match="marginal"):
        choi_bf(v)
    with pytest.raises(RuntimeError, match="density"):
        choi_bf(np.ones((4, 2), dtype=complex))


def test_isometry_rejects_non_isometry(monkeypatch):
    # stinespring_isometry checks the V it makes; a gate that is not unitary
    # is a numerical fault
    monkeypatch.setattr(qrl.channel, "build_unitary", lambda p: 1.5 * np.eye(4, dtype=complex))
    with pytest.raises(RuntimeError, match=r"V\^dag V"):
        stinespring_isometry(VERTICES["C"], ProbeState(0.7, 1.0))


def test_env_derivatives_examples():
    d_r, d_t1, d_t2 = env_bloch_derivatives(EnvState(0.2, 0.0, 1.3))
    assert np.abs(d_r - SZ).max() <= 1e-14
    d_r, d_t1, d_t2 = env_bloch_derivatives(EnvState(0.0, 1.0, 1.3))
    assert np.abs(d_t2).max() <= 1e-14
    for m in (d_r, d_t1, d_t2):
        assert abs(np.trace(m)) <= 1e-14
        assert np.abs(m - m.conj().T).max() <= 1e-14


def test_env_derivatives_match_finite_differences():
    h = 1e-5
    for _ in range(100):
        env = EnvState(rng.uniform(0.02, 0.48), rng.uniform(0.05, np.pi - 0.05), rng.uniform(0, 2 * np.pi))
        derivs = env_bloch_derivatives(env)
        x = np.array([env.r, env.theta1, env.theta2])
        for k in range(3):
            hi, lo = x.copy(), x.copy()
            hi[k] += h
            lo[k] -= h
            fd = (EnvState(*hi).matrix() - EnvState(*lo).matrix()) / (2 * h)
            assert np.abs(derivs[k] - fd).max() <= 1e-9
