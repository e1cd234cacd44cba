"""Hybrid classical-quantum electrical-synapse simulator."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConstraintViolationWarning,
    DegenerateEncodingError,
    DegenerateStateError,
    NumericalDivergenceError,
    UnknownTagError,
)
from .lif import (
    LifParams,
    NetworkTopology,
    Trajectory,
    decay_conductance,
    measure_firing_probability,
    simulate_network,
)
from .spikes import RateProfile, SpikeTrain, generate_poisson, merge_trains
from .engine import (
    OperatorMatrix,
    QuantumState,
    RotationSpec,
    apply_operator,
    classically_controlled_not,
    cnot_matrix,
    expm_hermitian,
    measure,
    rotation_operator,
)
from .synapse import (
    CompositionTable,
    SynapseCircuit,
    TaggedState,
    bidirectional_step,
    default_composition_table,
    encode_up,
    evolve_down,
    gate_by_tag,
    gate_up,
    shutdown_link,
)
from .calibration import CalibrationReport, calibrate, ks_statistic, total_variation
from .scenario import FusionScenario, ScenarioConfig, load_config
from .harness import FusionReport, run_fusion_demo, run_scenario

__all__ = [
    "__version__",
    "ConfigError",
    "ConstraintViolationWarning",
    "DegenerateEncodingError",
    "DegenerateStateError",
    "NumericalDivergenceError",
    "UnknownTagError",
    "LifParams",
    "NetworkTopology",
    "Trajectory",
    "decay_conductance",
    "measure_firing_probability",
    "simulate_network",
    "RateProfile",
    "SpikeTrain",
    "generate_poisson",
    "merge_trains",
    "OperatorMatrix",
    "QuantumState",
    "RotationSpec",
    "apply_operator",
    "classically_controlled_not",
    "cnot_matrix",
    "expm_hermitian",
    "measure",
    "rotation_operator",
    "CompositionTable",
    "SynapseCircuit",
    "TaggedState",
    "bidirectional_step",
    "default_composition_table",
    "encode_up",
    "evolve_down",
    "gate_by_tag",
    "gate_up",
    "shutdown_link",
    "CalibrationReport",
    "calibrate",
    "ks_statistic",
    "total_variation",
    "FusionScenario",
    "ScenarioConfig",
    "load_config",
    "FusionReport",
    "run_fusion_demo",
    "run_scenario",
]
