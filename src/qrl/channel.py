"""Probe states, the environment-to-output channel, and probe-affine tables.

For a fixed probe |phi> on A, V|e> := U(|phi> (x) |e>) is an isometry from
the environment E into B (x) F.  Tracing F gives the channel seen at the
output B; tracing B gives its complement into F.  The bipartite state
rho_BF sends half of a maximally entangled state through the complement and
is the object conditioned in the capacity bound.  V and rho_BF are plain
arrays, checked by the function that makes them: `stinespring_isometry`
checks V^dag V, `choi_bf` that rho_BF is a density matrix with reference
marginal I/2.  Their inputs are already checked (a `ProbeState`, a gate),
so a failed check is a numerical fault and raises RuntimeError.

V is linear in the probe ket, so everything built from V and V^dag, such as
the channel's Bloch map or rho_BF, is linear in the probe density
(1 + q.sigma)/2 and hence affine in the probe Bloch vector q.  Both probe
searches use that: `probe_table` evaluates such a quantity at four probes
once per gate and `table_at` reads it at any batch of probes.  Both scan,
then refine with the one `PROBE_SIMPLEX` setting, over (phi1, phi2) from a
`probe_scan` grid or, in the QFI search on the face ax = ay, where phi2 is
free, over phi1 alone (`search_probe`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import I2, kron, partial_trace, validate_density
from .unitary import UnitaryParams, build_unitary

ANGLE_TOL = 1e-12
UNITARY_TOL = 1e-12  # how far V^dag V of a channel's isometry may stray from I
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ProbeState:
    """Pure probe cos(phi1/2)|0> + e^{i phi2} sin(phi1/2)|1>."""

    phi1: float
    phi2: float

    def __post_init__(self):
        if not -ANGLE_TOL <= self.phi1 <= math.pi + ANGLE_TOL:
            raise ValueError(f"phi1 must lie in [0, pi], got {self.phi1!r}")
        if not math.isfinite(self.phi2):
            raise ValueError(f"phi2 must be finite, got {self.phi2!r}")
        # a pole names one state under every phi2, so it carries phi2 = 0:
        # the label then cannot move a value computed from the ket
        phi1 = min(max(0.0, float(self.phi1)), math.pi)
        object.__setattr__(self, "phi1", phi1)
        object.__setattr__(self, "phi2", 0.0 if phi1 in (0.0, math.pi) else float(self.phi2) % TWO_PI)

    def ket(self) -> np.ndarray:
        return np.array(
            [math.cos(self.phi1 / 2.0), np.exp(1j * self.phi2) * math.sin(self.phi1 / 2.0)],
            dtype=complex,
        )


def stinespring_isometry(p: UnitaryParams, probe: ProbeState) -> np.ndarray:
    """The 4x2 isometry V: E -> B (x) F for a fixed probe and unitary,
    checked: V^dag V lies within UNITARY_TOL of I."""
    v = build_unitary(p) @ kron(probe.ket().reshape(2, 1), I2)
    err = np.max(np.abs(v.conj().T @ v - I2))
    if err > UNITARY_TOL:
        raise RuntimeError(f"V^dag V deviates from identity by {err:.3e}")
    return v


def apply_channel(v: np.ndarray, op) -> np.ndarray:
    """Output-side action Tr_F[V op V^dag] on a 2x2 environment operator;
    linear, so the Pauli matrices give the channel's Bloch map."""
    m = np.asarray(op, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"environment operator must be 2x2, got {m.shape}")
    joint = v @ m @ v.conj().T
    return partial_trace(joint, keep="first")


def choi_bf(v: np.ndarray) -> np.ndarray:
    """rho_BF on (reference copy of E) (x) F: half of the maximally entangled
    state sent through the complement,
    rho[(i, f), (j, g)] = 1/2 sum_b V[(b, f), i] conj(V[(b, g), j]);
    checked to be a density matrix whose reference marginal is I/2."""
    w = v.reshape(2, 2, 2)
    rho = 0.5 * np.einsum("bfi,bgj->ifjg", w, w.conj()).reshape(4, 4)
    failures = validate_density(rho)
    if failures:
        raise RuntimeError(f"rho_BF fails density checks: {failures}")
    if np.max(np.abs(partial_trace(rho, keep="first") - 0.5 * I2)) > 1e-12:
        raise RuntimeError("reference marginal of rho_BF deviates from I/2")
    return rho


# probe Bloch vectors +z, -z, +x, +y
_TABLE_PROBES = (
    ProbeState(0.0, 0.0),
    ProbeState(math.pi, 0.0),
    ProbeState(0.5 * math.pi, 0.0),
    ProbeState(0.5 * math.pi, 0.5 * math.pi),
)


def probe_table(f) -> np.ndarray:
    """Rows A0, Ax, Ay, Az such that f at the probe with Bloch vector q is
    A0 + qx Ax + qy Ay + qz Az, for any array-valued f(probe) that is linear
    in the probe density; f is evaluated at |0>, |1>, |+> and |+i>."""
    up, down, plus, plus_i = (f(q) for q in _TABLE_PROBES)
    mid = 0.5 * (up + down)
    return np.stack([mid, plus - mid, plus_i - mid, 0.5 * (up - down)])


def table_at(table: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """The tabulated quantity at probes with rows (phi1, phi2), stacked on
    a leading axis: the (1, q) coefficient rows times the table."""
    s1 = np.sin(probes[:, 0])
    coef = np.stack(
        [np.ones_like(s1), s1 * np.cos(probes[:, 1]), s1 * np.sin(probes[:, 1]), np.cos(probes[:, 0])], axis=1
    )
    return (coef @ table.reshape(4, -1)).reshape(-1, *table.shape[1:])


def probe_scan(n1: int, n2: int, phi1_max: float, phi2_max: float) -> np.ndarray:
    """Scan grid, rows (phi1, phi2): n1 values of phi1 on [0, phi1_max]
    times n2 of phi2 on [0, phi2_max), in row order, except that a pole row
    (phi1 = 0 or pi) holds only phi2 = 0, since all its points name one
    probe."""
    a = np.linspace(0.0, phi1_max, n1)
    b = np.linspace(0.0, phi2_max, n2, endpoint=False)
    pts = np.stack(np.meshgrid(a, b, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts[(pts[:, 1] == 0.0) | ((pts[:, 0] != 0.0) & (pts[:, 0] != math.pi))]


def search_probe(x: tuple) -> tuple:
    """The probe (phi1, phi2) of a probe search's point: the QFI face search
    moves phi1 alone, along the probes (phi1, 0)."""
    return x if len(x) == 2 else (x[0], 0.0)


# nelder_mead's step, tol, max_iter and bounds in every probe search: the
# bounds hold phi1, the first coordinate of both forms, to [0, pi]
PROBE_SIMPLEX = dict(step=0.15, tol=1e-7, max_iter=200, bounds=(0.0, math.pi))
