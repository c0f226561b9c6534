"""Quantum readout limits for environment-parametrized two-qubit channels.

Two figures of merit for reading a qubit stored in the environment of a
two-qubit interaction, evaluated over the tetrahedron of entangling
unitaries: a one-shot quantum capacity lower bound built on the conditional
Renyi-2 entropy of the complementary Choi state, and the prior-averaged
quantum Fisher information of the channel output.
"""

from .linalg import (
    PAULI,
    kron,
    partial_trace,
    validate_density,
)
from .unitary import (
    EDGE_IDS,
    VERTICES,
    UnitaryParams,
    build_unitary,
    edge_point,
)
from .channel import (
    ProbeState,
    apply_channel,
    choi_bf,
    stinespring_isometry,
)
from .capacity import (
    CapacityResult,
    OptimizerConfig,
    best_probe_h2,
    delta_star,
    g_eps,
    h2_conditional,
    one_shot_lower_bound,
)
from .fisher import (
    AvgQfiResult,
    QuadSpec,
    avg_trace_qfi,
    maximize_over_probe,
)
from .harness import (
    MeritReport,
    SweepConfig,
    run_bound_table,
    run_edge_sweep,
    run_vertex_report,
)

__version__ = "0.1.0"

__all__ = [
    "PAULI",
    "kron",
    "partial_trace",
    "validate_density",
    "EDGE_IDS",
    "VERTICES",
    "UnitaryParams",
    "build_unitary",
    "edge_point",
    "ProbeState",
    "apply_channel",
    "choi_bf",
    "stinespring_isometry",
    "CapacityResult",
    "OptimizerConfig",
    "best_probe_h2",
    "delta_star",
    "g_eps",
    "h2_conditional",
    "one_shot_lower_bound",
    "AvgQfiResult",
    "QuadSpec",
    "avg_trace_qfi",
    "maximize_over_probe",
    "MeritReport",
    "SweepConfig",
    "run_bound_table",
    "run_edge_sweep",
    "run_vertex_report",
]
