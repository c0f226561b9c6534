"""Quantum readout limits for environment-parametrized two-qubit channels.

Two figures of merit for reading a qubit stored in the environment of a
two-qubit interaction, evaluated over the tetrahedron of entangling
unitaries: a one-shot quantum capacity lower bound built on the conditional
Renyi-2 entropy of the complementary Choi state, and a Bayesian Cramer-Rao
scalar built on the prior-averaged quantum Fisher information of the channel
output.
"""

from .linalg import (
    PAULI,
    herm_power,
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
    eigenphases,
    magic_basis_reconstruction,
)
from .channel import (
    BipartiteState,
    ChannelIsometry,
    EnvState,
    ProbeState,
    apply_channel,
    apply_complement,
    choi_bf,
    env_bloch_derivatives,
    stinespring_isometry,
)
from .capacity import (
    CapacityResult,
    ConditioningState,
    OptimizerConfig,
    best_probe_h2,
    delta_star,
    delta_star_closed_form,
    g_eps,
    h2_conditional,
    one_shot_lower_bound,
    renyi2_divergence,
)
from .fisher import (
    AvgQfiResult,
    QfiMatrix,
    QuadSpec,
    avg_trace_qfi,
    channel_qfi,
    maximize_over_probe,
    prior_weight,
    qfi_matrix,
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
    "herm_power",
    "kron",
    "partial_trace",
    "validate_density",
    "EDGE_IDS",
    "VERTICES",
    "UnitaryParams",
    "build_unitary",
    "edge_point",
    "eigenphases",
    "magic_basis_reconstruction",
    "BipartiteState",
    "ChannelIsometry",
    "EnvState",
    "ProbeState",
    "apply_channel",
    "apply_complement",
    "choi_bf",
    "env_bloch_derivatives",
    "stinespring_isometry",
    "CapacityResult",
    "ConditioningState",
    "OptimizerConfig",
    "best_probe_h2",
    "delta_star",
    "delta_star_closed_form",
    "g_eps",
    "h2_conditional",
    "one_shot_lower_bound",
    "renyi2_divergence",
    "AvgQfiResult",
    "QfiMatrix",
    "QuadSpec",
    "avg_trace_qfi",
    "channel_qfi",
    "maximize_over_probe",
    "prior_weight",
    "qfi_matrix",
    "MeritReport",
    "SweepConfig",
    "run_bound_table",
    "run_edge_sweep",
    "run_vertex_report",
]
