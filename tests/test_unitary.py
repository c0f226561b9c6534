import numpy as np
import pytest

from qrl.unitary import (
    EDGE_IDS,
    VERTICES,
    UnitaryParams,
    build_unitary,
    edge_id,
    edge_point,
)
from oracles import eigenphases, magic_basis_reconstruction

HALF_PI = np.pi / 2
rng = np.random.default_rng(7)


def random_params():
    ax = rng.uniform(0, HALF_PI)
    ay = rng.uniform(0, ax)
    az = rng.uniform(0, ay)
    return UnitaryParams(ax, ay, az)


def test_vertices_table():
    assert VERTICES["I"].as_array().tolist() == [0, 0, 0]
    assert np.allclose(VERTICES["C"].as_array(), [HALF_PI, 0, 0])
    assert np.allclose(VERTICES["S"].as_array(), [HALF_PI, HALF_PI, HALF_PI])
    assert np.allclose(VERTICES["D"].as_array(), [HALF_PI, HALF_PI, 0])


def test_ordering_validation_messages():
    with pytest.raises(ValueError, match="alpha_x"):
        UnitaryParams(HALF_PI + 1e-6, 0, 0)
    with pytest.raises(ValueError, match="alpha_y"):
        UnitaryParams(0.3, 0.4, 0.0)
    with pytest.raises(ValueError, match="alpha_z"):
        UnitaryParams(0.3, 0.2, 0.25)
    with pytest.raises(ValueError, match="alpha_z"):
        UnitaryParams(0.3, 0.2, -0.1)
    # 1e-12 slop keeps exact edge endpoints constructible
    UnitaryParams(HALF_PI + 1e-13, 0, 0)


def test_build_unitary_identity():
    assert np.abs(build_unitary(VERTICES["I"]) - np.eye(4)).max() <= 1e-15


def test_build_unitary_swap():
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.abs(build_unitary(VERTICES["S"]) - swap).max() <= 1e-12


def test_build_unitary_c_vertex():
    u = build_unitary(VERTICES["C"])
    s = 1 / np.sqrt(2)
    want = np.array(
        [
            [s, 0, 0, -1j * s],
            [0, s, -1j * s, 0],
            [0, -1j * s, s, 0],
            [-1j * s, 0, 0, s],
        ]
    )
    assert np.abs(u - want).max() <= 1e-12


def test_build_unitary_is_unitary():
    for _ in range(500):
        u = build_unitary(random_params())
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12


def test_eigenphases_examples():
    assert np.allclose(eigenphases(VERTICES["I"]), [0, 0, 0, 0])
    assert np.allclose(
        eigenphases(VERTICES["C"]), [np.pi / 4, -np.pi / 4, -np.pi / 4, np.pi / 4]
    )
    assert np.allclose(
        eigenphases(VERTICES["S"]), [np.pi / 4, np.pi / 4, -3 * np.pi / 4, np.pi / 4]
    )


def test_eigenphases_sum_to_zero():
    for _ in range(200):
        assert abs(sum(eigenphases(random_params()))) <= 1e-12


def test_magic_reconstruction_matches_build():
    assert np.abs(magic_basis_reconstruction(VERTICES["I"]) - np.eye(4)).max() <= 1e-12
    for p in (VERTICES["D"], VERTICES["C"], VERTICES["S"]):
        assert np.abs(magic_basis_reconstruction(p) - build_unitary(p)).max() <= 1e-12
    for _ in range(200):
        p = random_params()
        assert np.abs(magic_basis_reconstruction(p) - build_unitary(p)).max() <= 1e-12


def test_edge_point_endpoints():
    endpoints = {
        "IC": ("I", "C"),
        "IS": ("I", "S"),
        "ID": ("I", "D"),
        "CS": ("C", "S"),
        "CD": ("C", "D"),
        "DS": ("D", "S"),
    }
    for edge, (lo, hi) in endpoints.items():
        p0, _ = edge_point(edge, 0.0)
        p1, _ = edge_point(edge, 1.0)
        assert p0 == VERTICES[lo]
        assert p1 == VERTICES[hi]


def test_edge_point_examples():
    p, norm = edge_point("DS", 0.0)
    assert p == VERTICES["D"]
    p, norm = edge_point("IS", 1.0)
    assert abs(norm - np.sqrt(3) * HALF_PI) <= 1e-12
    p, norm = edge_point("IC", 0.5)
    assert np.allclose(p.as_array(), [np.pi / 4, 0, 0]) and abs(norm - np.pi / 4) <= 1e-12


def test_edge_point_sd_alias():
    for t in (0.0, 0.3, 1.0):
        assert edge_point("SD", t) == edge_point("DS", t)


def test_edge_id_is_canonical():
    # every spelling a user may type maps to the id the rows carry
    for spelling, canonical in (("SD", "DS"), ("sd", "DS"), ("ds", "DS"), ("ic", "IC"), ("Cs", "CS")):
        assert edge_id(spelling) == canonical
    assert [edge_id(e) for e in EDGE_IDS] == list(EDGE_IDS)
    with pytest.raises(ValueError, match="unknown edge"):
        edge_id("SI")


def test_edge_point_domain_and_names():
    with pytest.raises(ValueError):
        edge_point("IC", -0.01)
    with pytest.raises(ValueError):
        edge_point("IC", 1.01)
    with pytest.raises(ValueError):
        edge_point("XY", 0.5)
    assert set(EDGE_IDS) == {"IC", "IS", "ID", "CS", "CD", "DS"}


def test_edge_points_stay_in_tetrahedron():
    for edge in EDGE_IDS:
        for t in np.linspace(0, 1, 17):
            edge_point(edge, t)  # constructor validates ordering
