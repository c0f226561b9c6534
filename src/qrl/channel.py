"""Probe/environment states and the environment-to-output channel.

For a fixed probe |phi> on A, V|e> := U(|phi> (x) |e>) is an isometry from
the environment E into B (x) F.  Tracing F gives the channel seen at the
output B; tracing B gives its complement into F.  The bipartite state
rho_BF sends half of a maximally entangled state through the complement and
is the object conditioned in the capacity bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import I2, SX, SY, SZ, kron, partial_trace, validate_density
from .unitary import UnitaryParams, build_unitary

ANGLE_TOL = 1e-12
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ProbeState:
    """Pure probe cos(phi1/2)|0> + e^{i phi2} sin(phi1/2)|1>."""

    phi1: float
    phi2: float

    def __post_init__(self):
        if not -ANGLE_TOL <= self.phi1 <= math.pi + ANGLE_TOL:
            raise ValueError(f"phi1 must lie in [0, pi], got {self.phi1!r}")
        object.__setattr__(self, "phi2", float(self.phi2) % TWO_PI)

    def ket(self) -> np.ndarray:
        return np.array(
            [math.cos(self.phi1 / 2.0), np.exp(1j * self.phi2) * math.sin(self.phi1 / 2.0)],
            dtype=complex,
        )

    def density(self) -> np.ndarray:
        k = self.ket()
        return np.outer(k, k.conj())


@dataclass(frozen=True)
class EnvState:
    """Environment qubit in spherical Bloch coordinates, radius r <= 1/2."""

    r: float
    theta1: float
    theta2: float

    def __post_init__(self):
        if not -ANGLE_TOL <= self.r <= 0.5 + ANGLE_TOL:
            raise ValueError(f"r must lie in [0, 1/2], got {self.r!r}")
        if not -ANGLE_TOL <= self.theta1 <= math.pi + ANGLE_TOL:
            raise ValueError(f"theta1 must lie in [0, pi], got {self.theta1!r}")
        object.__setattr__(self, "theta2", float(self.theta2) % TWO_PI)

    def bloch(self) -> np.ndarray:
        s1 = math.sin(self.theta1)
        return 2.0 * self.r * np.array(
            [s1 * math.cos(self.theta2), s1 * math.sin(self.theta2), math.cos(self.theta1)]
        )

    def matrix(self) -> np.ndarray:
        bx, by, bz = self.bloch()
        return 0.5 * (I2 + bx * SX + by * SY + bz * SZ)


@dataclass(frozen=True)
class ChannelIsometry:
    """4x2 isometry V: E -> B (x) F for a fixed probe and unitary."""

    v: np.ndarray
    probe: ProbeState
    params: UnitaryParams

    def __post_init__(self):
        gram = self.v.conj().T @ self.v
        err = np.max(np.abs(gram - np.eye(2)))
        if err > 1e-12:
            raise ValueError(f"V^dag V deviates from identity by {err:.3e}")


def stinespring_isometry(p: UnitaryParams, probe: ProbeState) -> ChannelIsometry:
    u = build_unitary(p)
    v = u @ kron(probe.ket().reshape(2, 1), I2)
    return ChannelIsometry(v=v, probe=probe, params=p)


def _env_matrix(env) -> np.ndarray:
    if isinstance(env, EnvState):
        return env.matrix()
    m = np.asarray(env, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"environment operator must be 2x2, got {m.shape}")
    return m


def apply_channel(iso: ChannelIsometry, env) -> np.ndarray:
    """Output-side action Tr_F[V theta V^dag]; linear, so raw 2x2 operators
    (e.g. Pauli matrices) are accepted alongside EnvState."""
    joint = iso.v @ _env_matrix(env) @ iso.v.conj().T
    return partial_trace(joint, keep="first")


@dataclass(frozen=True)
class BipartiteState:
    """rho_BF on (reference copy of E) (x) F; reference marginal is I/2."""

    rho_bf: np.ndarray

    def __post_init__(self):
        diag = validate_density(self.rho_bf)
        if not diag.ok:
            raise ValueError(f"rho_BF fails density checks: {diag.failures}")
        marg = partial_trace(self.rho_bf, keep="first")
        if np.max(np.abs(marg - 0.5 * I2)) > 1e-12:
            raise ValueError("reference marginal of rho_BF deviates from I/2")


def choi_bf(iso: ChannelIsometry) -> BipartiteState:
    """Send half of the maximally entangled state through the complement:
    rho[(i, f), (j, g)] = 1/2 sum_b V[(b, f), i] conj(V[(b, g), j])."""
    v = iso.v.reshape(2, 2, 2)
    rho = 0.5 * np.einsum("bfi,bgj->ifjg", v, v.conj()).reshape(4, 4)
    return BipartiteState(rho_bf=rho)
