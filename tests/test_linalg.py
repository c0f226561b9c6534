import numpy as np
import pytest

from qrl.linalg import (
    I2,
    SX,
    SY,
    SZ,
    kron,
    partial_trace,
    validate_density,
)
from oracles import herm_power

rng = np.random.default_rng(2026)


def random_hermitian(n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def random_density(n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_kron_identities():
    assert np.array_equal(kron(I2, I2), np.eye(4))
    assert np.allclose(kron(SZ, I2), np.diag([1, 1, -1, -1]))


def test_kron_basis_bookkeeping():
    # |0><0| (x) |1><1| lands at row/col index 1 of the {00,01,10,11} basis
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    out = kron(p0, p1)
    want = np.zeros((4, 4))
    want[1, 1] = 1
    assert np.allclose(out, want)


def test_kron_associativity():
    for _ in range(20):
        a, b, c = (random_hermitian(2) for _ in range(3))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.abs(left - right).max() <= 1e-12


def test_partial_trace_bell_marginal():
    bell = np.zeros((4, 1), dtype=complex)
    bell[0, 0] = bell[3, 0] = 1 / np.sqrt(2)
    phi = bell @ bell.conj().T
    assert np.abs(partial_trace(phi, "first") - I2 / 2).max() <= 1e-12
    assert np.abs(partial_trace(phi, "second") - I2 / 2).max() <= 1e-12


def test_partial_trace_product_factorization():
    for _ in range(50):
        rho, sig = random_density(2), random_density(2)
        out = partial_trace(kron(rho, sig), "first")
        assert np.abs(out - rho * np.trace(sig)).max() <= 1e-12
        out = partial_trace(kron(rho, sig), "second")
        assert np.abs(out - sig * np.trace(rho)).max() <= 1e-12


def test_partial_trace_swap_choi_reference_marginal():
    # rho_BF = (I/2) (x) |phi'><phi'|: tracing over the second leaves I/2
    v = np.array([np.cos(0.4), np.exp(1.2j) * np.sin(0.4)])
    rho_bf = kron(I2 / 2, np.outer(v, v.conj()))
    assert np.abs(partial_trace(rho_bf, "first") - I2 / 2).max() <= 1e-12


def test_partial_trace_preserves_trace():
    for _ in range(20):
        m = random_hermitian(4)
        for keep in ("first", "second"):
            assert abs(np.trace(partial_trace(m, keep)) - np.trace(m)) <= 1e-12


def test_partial_trace_rejects_bad_input():
    with pytest.raises(ValueError):
        partial_trace(np.eye(2), "first")
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), "third")


def test_herm_power_identity():
    assert np.abs(herm_power(I2, -0.25, 1e-12) - I2).max() <= 1e-12


def test_herm_power_diagonal():
    out = herm_power(np.diag([4.0, 1.0]).astype(complex), 0.5, 1e-12)
    assert np.abs(out - np.diag([2.0, 1.0])).max() <= 1e-12


def test_herm_power_floor_applies_before_exponentiation():
    out = herm_power(np.diag([1.0, 0.0]).astype(complex), -0.5, 1e-6)
    assert np.abs(out - np.diag([1.0, 1000.0])).max() <= 1e-9


def test_herm_power_rejects_non_hermitian():
    m = np.array([[1.0, 1e-3], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        herm_power(m, 0.5, 1e-9)


def test_herm_power_inverse_pairs():
    for _ in range(20):
        rho = random_density(4) + 0.3 * np.eye(4)  # well above any floor
        rho /= np.trace(rho).real
        prod = herm_power(rho, 0.5, 1e-12) @ herm_power(rho, -0.5, 1e-12)
        assert np.abs(prod - np.eye(4)).max() <= 1e-10


def test_validate_density_cases():
    assert validate_density(I2 / 2).ok
    assert bool(validate_density(I2 / 2))
    bad = validate_density(SX)
    assert not bad.ok and any("trace" in f for f in bad.failures)
    bad = validate_density(np.diag([1.5, -0.5]).astype(complex))
    assert not bad.ok and "positivity" in bad.failures
    assert bad.min_eigenvalue <= -0.5 + 1e-12
    bad = validate_density(np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex))
    assert not bad.ok and any("hermit" in f.lower() for f in bad.failures)


def test_pauli_algebra_sanity():
    assert np.allclose(SX @ SY - SY @ SX, 2j * SZ)
    for s in (SX, SY, SZ):
        assert np.allclose(s @ s, I2)
