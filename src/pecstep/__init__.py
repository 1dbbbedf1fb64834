"""Step-wise probabilistic error cancellation on single-qubit Lindblad dynamics."""

__version__ = "0.1.0"

from .channels import (
    MitigationCoeffs,
    PauliChannelParams,
    SamplingDistribution,
    channel_superop,
    coeffs_to_superop,
    exact_coeffs,
    first_order_coeffs,
    linear_inverse_coeffs,
    sampling_distribution,
)
from .generators import (
    PauliRates,
    commutator,
    commutator_norm,
    exact_propagate,
    pauli_dissipator,
    unitary_generator,
)
from .presets import PRESETS, preset
from .sampling import (
    EnsembleStats,
    StepPlan,
    TrajectoryResult,
    run_ensemble,
    run_trajectory,
)
from .scenarios import (
    ScenarioConfig,
    TimeSeries,
    biased_predictions,
    build_scenario,
    ideal_evolution,
    mitigation_coeffs,
    simulate,
)

__all__ = [
    "__version__",
    "MitigationCoeffs",
    "PauliChannelParams",
    "SamplingDistribution",
    "channel_superop",
    "coeffs_to_superop",
    "exact_coeffs",
    "first_order_coeffs",
    "linear_inverse_coeffs",
    "sampling_distribution",
    "PauliRates",
    "commutator",
    "commutator_norm",
    "exact_propagate",
    "pauli_dissipator",
    "unitary_generator",
    "PRESETS",
    "preset",
    "EnsembleStats",
    "StepPlan",
    "TrajectoryResult",
    "run_ensemble",
    "run_trajectory",
    "ScenarioConfig",
    "TimeSeries",
    "biased_predictions",
    "build_scenario",
    "ideal_evolution",
    "mitigation_coeffs",
    "simulate",
]
