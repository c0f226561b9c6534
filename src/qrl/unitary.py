"""Two-qubit entangling unitaries of the tetrahedron family.

The family is diagonal in the magic basis with eigenphases fixed by three
angles (alpha_x, alpha_y, alpha_z) ordered as pi/2 >= ax >= ay >= az >= 0.
Vertices are Identity, CNOT-class, SWAP and DCNOT; edges interpolate
linearly between vertex angle triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORDERING_TOL = 1e-12
HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class UnitaryParams:
    """Canonical angles, validated against the tetrahedron ordering."""

    alpha_x: float
    alpha_y: float
    alpha_z: float

    def __post_init__(self):
        ax, ay, az = self.alpha_x, self.alpha_y, self.alpha_z
        checks = (
            (ax <= HALF_PI + ORDERING_TOL, f"alpha_x <= pi/2 (alpha_x = {ax!r})"),
            (ay <= ax + ORDERING_TOL, f"alpha_y <= alpha_x (alpha_y = {ay!r}, alpha_x = {ax!r})"),
            (az <= ay + ORDERING_TOL, f"alpha_z <= alpha_y (alpha_z = {az!r}, alpha_y = {ay!r})"),
            (az >= -ORDERING_TOL, f"alpha_z >= 0 (alpha_z = {az!r})"),
        )
        for ok, desc in checks:
            if not ok:
                raise ValueError(f"tetrahedron ordering violated: {desc}")

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha_x, self.alpha_y, self.alpha_z], dtype=float)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))


VERTICES = {
    "I": UnitaryParams(0.0, 0.0, 0.0),
    "C": UnitaryParams(HALF_PI, 0.0, 0.0),
    "S": UnitaryParams(HALF_PI, HALF_PI, HALF_PI),
    "D": UnitaryParams(HALF_PI, HALF_PI, 0.0),
}

# edge id -> (start vertex, end vertex); parametrized linearly in t
EDGE_IDS = ("IC", "IS", "ID", "CS", "CD", "DS")


def build_unitary(p: UnitaryParams) -> np.ndarray:
    """Canonical-basis matrix of the unitary: an XX-form block structure.

    Outer block on {00, 11} with half-angle (ax - ay)/2, inner block on
    {01, 10} with half-angle (ax + ay)/2 and phase e^{i az}.
    """
    cm = math.cos((p.alpha_x - p.alpha_y) / 2.0)
    sm = math.sin((p.alpha_x - p.alpha_y) / 2.0)
    cp = math.cos((p.alpha_x + p.alpha_y) / 2.0)
    sp = math.sin((p.alpha_x + p.alpha_y) / 2.0)
    ez = np.exp(1j * p.alpha_z)
    return np.array(
        [
            [cm, 0.0, 0.0, -1j * sm],
            [0.0, ez * cp, -1j * ez * sp, 0.0],
            [0.0, -1j * ez * sp, ez * cp, 0.0],
            [-1j * sm, 0.0, 0.0, cm],
        ],
        dtype=complex,
    )


_EDGE_TABLE = {
    "IC": lambda s: (s, 0.0, 0.0),
    "IS": lambda s: (s, s, s),
    "ID": lambda s: (s, s, 0.0),
    "CS": lambda s: (HALF_PI, s, s),
    "CD": lambda s: (HALF_PI, s, 0.0),
    "DS": lambda s: (HALF_PI, HALF_PI, s),
}


def edge_id(edge: str) -> str:
    """Canonical id of an edge spelling: case is ignored, and "SD" names the
    same segment as "DS"."""
    key = edge.upper()
    key = "DS" if key == "SD" else key
    if key not in EDGE_IDS:
        raise ValueError(f"unknown edge {edge!r}; expected one of {EDGE_IDS}")
    return key


def edge_point(edge: str, t: float):
    """Point at parameter t in [0,1] along a named edge (any spelling that
    `edge_id` accepts).

    Returns (UnitaryParams, Euclidean norm |alpha|).
    """
    key = edge_id(edge)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"edge parameter t must lie in [0, 1], got {t!r}")
    params = UnitaryParams(*_EDGE_TABLE[key](t * HALF_PI))
    return params, params.norm
