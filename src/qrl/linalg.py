"""Dense complex linear algebra for 2x2 and 4x4 Hermitian matrices.

Everything downstream lives on one or two qubits, so matrices are kept as
plain complex ndarrays and all routines are written for the dense case.
`validate_density` returns the names of the density checks a matrix
fails, so an empty tuple marks a density matrix.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-10

I2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# sigma_0 .. sigma_3
PAULI = (I2, SX, SY, SZ)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dims multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: np.ndarray, keep: str) -> np.ndarray:
    """Partial trace of a 4x4 matrix on (first (x) second), both qubits.

    keep="first" traces out the second factor, keep="second" the first.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"partial_trace expects a 4x4 matrix, got {m.shape}")
    blk = m.reshape(2, 2, 2, 2)
    if keep == "first":
        return np.einsum("afbf->ab", blk)
    if keep == "second":
        return np.einsum("afag->fg", blk)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def validate_density(m: np.ndarray) -> tuple:
    """Names of the failed checks among Hermiticity (1e-10), positivity
    (eigs >= -1e-10) and unit trace; empty for a density matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"validate_density expects a square matrix, got {m.shape}")
    failures = []
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        failures.append("hermiticity")
        w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    else:
        w = np.linalg.eigvalsh(m)
    if w[0] < -HERMITICITY_TOL:
        failures.append("positivity")
    if abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag) > HERMITICITY_TOL:
        failures.append("trace")
    return tuple(failures)
