"""Weak-measurement simulation and interaction-parameter estimation for
polarization qubits: first-order measurement model, exact two-photon PPBS
gate model, Fisher-information and Cramer-Rao analysis, moment estimation,
and seeded Monte Carlo validation."""

from .errors import (
    CouplingTooStrong,
    LinearizationInvalid,
    NonOrthonormalBasis,
    PostselectionSingular,
    TooManyDiscardedReplicas,
    WeakMeasError,
    WeakValueReferenceZero,
    ZeroCoincidenceNorm,
    ZeroInformation,
    ZeroProbability,
    ZeroProbeCoupling,
)
from .estimation import (
    ConditionalPair,
    EstimateResult,
    FisherReport,
    apparent_fisher,
    cramer_rao_bound,
    estimate_epsilon,
    extract_weak_value,
    fisher_information,
)
from .gatesim import COMPENSATED_PPBS, UNCOMPENSATED_PPBS, GateParams
from .kernel import (
    CELLS,
    SINGULARITY_THRESHOLD,
    WEAKNESS_GUARD,
    ModelTag,
    Outcome,
    linear_states,
    model_distribution,
    weak_value,
)
from .montecarlo import EnsembleStats, philox_generator, run_ensemble, sample_counts

__version__ = "0.1.0"

__all__ = [
    "CELLS",
    "COMPENSATED_PPBS",
    "ConditionalPair",
    "CouplingTooStrong",
    "EnsembleStats",
    "EstimateResult",
    "FisherReport",
    "GateParams",
    "LinearizationInvalid",
    "ModelTag",
    "NonOrthonormalBasis",
    "Outcome",
    "PostselectionSingular",
    "SINGULARITY_THRESHOLD",
    "TooManyDiscardedReplicas",
    "UNCOMPENSATED_PPBS",
    "WEAKNESS_GUARD",
    "WeakMeasError",
    "WeakValueReferenceZero",
    "ZeroCoincidenceNorm",
    "ZeroInformation",
    "ZeroProbability",
    "ZeroProbeCoupling",
    "apparent_fisher",
    "cramer_rao_bound",
    "estimate_epsilon",
    "extract_weak_value",
    "fisher_information",
    "linear_states",
    "model_distribution",
    "philox_generator",
    "run_ensemble",
    "sample_counts",
    "weak_value",
]
