"""Weak-measurement simulation and interaction-parameter estimation for
polarization qubits: first-order measurement model, exact two-photon PPBS
gate model, Fisher-information and Cramer-Rao analysis, moment estimation,
and seeded Monte Carlo validation.

``import weakmeas`` loads no submodule: each public name is imported from
its module on first access (PEP 562), so a caller, the CLI included, pays
only for the modules it uses."""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_SOURCES = {
    **dict.fromkeys(
        ("CouplingTooStrong", "LinearizationInvalid", "NonOrthonormalBasis",
         "PostselectionSingular", "TooManyDiscardedReplicas", "WeakMeasError",
         "WeakValueReferenceZero", "ZeroCoincidenceNorm", "ZeroInformation",
         "ZeroProbability", "ZeroProbeCoupling"),
        "errors",
    ),
    **dict.fromkeys(
        ("apparent_fisher", "cramer_rao_bound", "estimate_epsilon", "extract_weak_value"),
        "estimation",
    ),
    **dict.fromkeys(
        ("CELLS", "COMPENSATED_PPBS", "GateParams", "ModelTag", "Outcome",
         "SINGULARITY_THRESHOLD", "UNCOMPENSATED_PPBS", "WEAKNESS_GUARD", "fisher_information",
         "linear_states", "model_distribution", "weak_value"),
        "kernel",
    ),
    **dict.fromkeys(
        ("EnsembleStats", "philox_generator", "run_ensemble", "sample_counts"), "montecarlo"
    ),
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCES})
