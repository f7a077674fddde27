"""Seeded count-level simulation and estimator-ensemble statistics.

Reproducibility contract: all randomness comes from numpy's Philox
(4x64) counter-based generator. A draw is addressed by a 128-bit key
composed of the user seed in the low 64 bits and a stream index in the
high 64 bits; distinct keys give independent streams by construction, and
the output is bit-stable across platforms and process layouts.
``sample_counts`` uses stream 0, replica r of ``run_ensemble`` uses
stream 1 + r, so ensembles are reproducible bit-exactly from
(base_seed, parameters) regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooManyDiscardedReplicas, ZeroProbability
from .estimation import ConditionalPair, FisherReport, cramer_rao_bound, estimate_epsilon
from .gatesim import GateParams
from .kernel import ModelTag, fisher_information, model_distribution, weak_value
from .qstate import PolarAngle, diag_states, linear_pol_state, stokes_hv
from .weakmodel import CELLS, JointDistribution, MeterOutcome, PostSelectOutcome

#: Replicas with unusable counts may be discarded up to this fraction.
DISCARD_TOLERANCE = 0.01


def philox_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator over Philox4x64 keyed by (seed, stream); the seed must
    lie in [0, 2^64)."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed!r}")
    key = int(seed) | (int(stream) << 64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts per (m, f) cell from one simulated acquisition."""

    counts: dict[tuple[MeterOutcome, PostSelectOutcome], int]
    n_total: int
    seed: int
    model_tag: ModelTag | None = None
    mode: str = "multinomial"

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.n_total:
            raise ValueError("counts must sum to n_total")


def sample_counts(
    dist: JointDistribution,
    n: int,
    seed: int,
    mode: str = "multinomial",
    model_tag: ModelTag | None = None,
) -> CountRecord:
    """Draw coincidence counts from ``dist``.

    ``multinomial`` distributes exactly n events over the four cells;
    ``poisson`` draws each cell independently with mean n * p, as for
    rate-based counting, and n_total is the realized sum. Identical
    (seed, inputs) give bit-identical counts.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    gen = philox_generator(seed, stream=0)
    pvec = np.array(dist.values())
    pvec = pvec / pvec.sum()
    if mode == "multinomial":
        drawn = gen.multinomial(n, pvec)
    elif mode == "poisson":
        drawn = gen.poisson(n * pvec)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    counts = {cell: int(k) for cell, k in zip(CELLS, drawn)}
    return CountRecord(counts, int(drawn.sum()), int(seed), model_tag, mode)


@dataclass(frozen=True)
class EnsembleStats:
    """Mean and variance of the estimator over replicas, with the
    Cramer-Rao bound of the post-selected strategy for comparison."""

    mean_eps_hat: float
    var_eps_hat: float
    n_replicas: int
    crb: float
    n_discarded: int = 0


def run_ensemble(
    theta: float | PolarAngle,
    eps_true: float,
    model: ModelTag | str,
    n_per_replica: int,
    n_replicas: int,
    base_seed: int,
    f: PostSelectOutcome = PostSelectOutcome.A,
    gate_params: GateParams | None = None,
    mode: str = "multinomial",
) -> EnsembleStats:
    """Repeatedly sample counts, estimate eps from the chosen post-selected
    column, and compare the empirical variance with the Cramer-Rao bound.

    The bound uses the per-f Fisher contribution with n_per_replica total
    trials (equivalently, 4 wv^2 with the expected number of post-selected
    events). Replicas with a zero count in either (D, f) or (A, f) cell
    are discarded, not imputed; if more than DISCARD_TOLERANCE of the
    replicas are lost, TooManyDiscardedReplicas is raised.
    """
    if n_replicas < 2:
        raise ValueError("need at least two replicas")
    dist = model_distribution(theta, eps_true, model, gate_params)
    pvec = np.array(dist.values())
    pvec = pvec / pvec.sum()

    psi = linear_pol_state(theta)
    f_state = diag_states()[0 if f is PostSelectOutcome.D else 1]
    wv_ref = weak_value(psi, f_state, stokes_hv()).real
    report = fisher_information(psi)
    crb = cramer_rao_bound(
        FisherReport({f: report.per_f[f]}, report.per_f[f]), n_per_replica
    )

    idx_d = CELLS.index((MeterOutcome.D, f))
    idx_a = CELLS.index((MeterOutcome.A, f))
    estimates = []
    discarded = 0
    for replica in range(n_replicas):
        gen = philox_generator(base_seed, stream=1 + replica)
        if mode == "multinomial":
            drawn = gen.multinomial(n_per_replica, pvec)
        elif mode == "poisson":
            drawn = gen.poisson(n_per_replica * pvec)
        else:
            raise ValueError(f"unknown sampling mode {mode!r}")
        n_d, n_a = int(drawn[idx_d]), int(drawn[idx_a])
        if n_d == 0 or n_a == 0:
            discarded += 1
            continue
        result = estimate_epsilon(ConditionalPair.from_counts(n_d, n_a), wv_ref, f)
        estimates.append(result.epsilon_hat)

    if discarded > DISCARD_TOLERANCE * n_replicas:
        raise TooManyDiscardedReplicas(
            f"{discarded} of {n_replicas} replicas had a zero count in the "
            f"f={f.value} column"
        )
    if len(estimates) < 2:
        raise ZeroProbability("fewer than two usable replicas")
    arr = np.array(estimates)
    return EnsembleStats(
        mean_eps_hat=float(arr.mean()),
        var_eps_hat=float(arr.var(ddof=1)),
        n_replicas=len(estimates),
        crb=crb,
        n_discarded=discarded,
    )
