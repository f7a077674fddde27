"""Estimation of the coupling parameter and its information-theoretic limits.

The moment estimator inverts the first-order response of the conditional
meter statistics for a fixed post-selection outcome f:

    eps_hat = (p(D|f) - p(A|f)) / (2 wv_ref),

where wv_ref is the analytic weak value in the zero-coupling limit,
never refit from data. Its binomial (delta-method) error is
sigma_eps = sqrt(p_D p_A / n) / |wv_ref| for n post-selected events; at
eps = 0 the inverse square equals n times the per-outcome Fisher
contribution, so the estimator saturates the Cramer-Rao bound of the
post-selected strategy.

The Fisher information for estimating eps decomposes over post-selection
outcomes as

    F = sum_f 4 p(f) (Re wv_f)^2,

which for any orthonormal basis with real weak values collapses to
4 <psi|A^2|psi>, independent of the basis choice. For the Stokes
observable this is 4 for every input state: post-selection redistributes
sensitivity between outcomes without changing the total.
:func:`fisher_information` returns the split (F_D, F_A) that
:func:`weakmeas.kernel.fisher_split` computes, as a (2,) array.

Weak values themselves can be recovered from measured probabilities by a
finite-difference version of the logarithmic derivative, averaging the
two meter outcomes; the averaging cancels the term linear in the probe
coupling, leaving a quadratic finite-coupling error (4/3) (eps wv)^2.

A joint table is p[4] in :data:`weakmeas.kernel.CELLS` order. Each
function checks a table it is given once: four cells, each at least
-1e-12 (a cell above that but below 0 is read as 0), summing to 1 within
1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    WeakValueReferenceZero,
    ZeroInformation,
    ZeroProbability,
    ZeroProbeCoupling,
)
from .kernel import (
    CELLS, DIAG_BASIS, WV_REFERENCE_FLOOR, Outcome, _check_orthonormal, _state, fisher_split,
)


def _cells(p: np.ndarray) -> list[float]:
    """A caller's joint table p[4] in CELLS order as floats, checked."""
    values = np.asarray(p, dtype=float)
    if values.shape != (len(CELLS),):
        raise ValueError(f"a joint table has {len(CELLS)} cells, got shape {values.shape}")
    for value, cell in zip(values.tolist(), CELLS):
        if value < -1e-12:
            raise ValueError(f"negative probability {value!r} for cell {cell}")
    # a cell in [-1e-12, 0) is round-off and is read as 0
    cells = [max(value, 0.0) for value in values.tolist()]
    total = sum(cells)
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return cells


#: The cells (D, f) and (A, f) in CELLS order of each post-selection outcome f.
_COLUMN = {f: (CELLS.index((Outcome.D, f)), CELLS.index((Outcome.A, f))) for f in Outcome}


def _conditional(cells: list[float], f: Outcome) -> tuple[float, float]:
    """(p(D|f), p(A|f)). Raises ZeroProbability when p(f) = 0."""
    i_d, i_a = _COLUMN[f]
    pf = cells[i_d] + cells[i_a]
    if pf <= 0.0:
        raise ZeroProbability(f"post-selection probability p(f={f.value}) is zero")
    return cells[i_d] / pf, cells[i_a] / pf


@dataclass(frozen=True)
class ConditionalPair:
    """Conditional meter probabilities p(D|f), p(A|f), optionally with the
    number of post-selected events they were estimated from."""

    p_d: float
    p_a: float
    n_events: float | None = None

    def __post_init__(self) -> None:
        if self.p_d < 0.0 or self.p_a < 0.0:
            raise ValueError("conditional probabilities must be nonnegative")
        if abs(self.p_d + self.p_a - 1.0) > 1e-9:
            raise ValueError("p(D|f) + p(A|f) must equal 1")
        if self.n_events is not None and not self.n_events > 0:
            raise ValueError("n_events must be positive when present")

    @classmethod
    def from_counts(cls, n_d: int, n_a: int) -> "ConditionalPair":
        total = n_d + n_a
        if n_d <= 0 or n_a <= 0:
            raise ZeroProbability(
                f"need positive counts in both meter outcomes, got ({n_d}, {n_a})"
            )
        return cls(n_d / total, n_a / total, n_events=total)

    @classmethod
    def from_joint(cls, p: np.ndarray, f: Outcome) -> "ConditionalPair":
        """The conditionals of outcome f in the joint table p[4]."""
        return cls(*_conditional(_cells(p), f))


def _check_wv_reference(wv_reference: float) -> None:
    if abs(wv_reference) < WV_REFERENCE_FLOOR:
        raise WeakValueReferenceZero(
            f"|wv_reference| = {abs(wv_reference):.3g} below {WV_REFERENCE_FLOOR:g}"
        )


def estimate_epsilon(cond: ConditionalPair, wv_reference: float) -> tuple[float, float | None]:
    """Moment estimate of the coupling from one post-selected conditional
    pair, and its binomial error, which is None unless ``cond`` carries an
    event count.

    The estimate is (p(D|f) - p(A|f)) / (2 wv_reference). On linear-model
    conditionals this is the set eps exactly. On exact ideal-gate
    conditionals, with wv_reference the analytic weak value wv, it is
    eps / (1 + eps^2 wv^2) identically: a finite-coupling bias that grows
    toward the orthogonality point.
    """
    _check_wv_reference(wv_reference)
    eps_hat = (cond.p_d - cond.p_a) / (2.0 * wv_reference)
    sigma = None
    if cond.n_events is not None:
        sigma = math.sqrt(cond.p_d * cond.p_a / cond.n_events) / abs(wv_reference)
    return eps_hat, sigma


def _finite_difference(at_eps: list[float], at_zero: list[float], f: Outcome,
                       eps_probe: float) -> float:
    """:func:`extract_weak_value` on checked tables."""
    if eps_probe == 0.0:
        raise ZeroProbeCoupling("eps_probe must be nonzero")
    pd_e, pa_e = _conditional(at_eps, f)
    pd_0, pa_0 = _conditional(at_zero, f)
    for name, value in (("p(D|f;eps)", pd_e), ("p(A|f;eps)", pa_e),
                        ("p(D|f;0)", pd_0), ("p(A|f;0)", pa_0)):
        if value <= 0.0:
            raise ZeroProbability(f"{name} is zero; cannot take its logarithm")
    return (math.log(pd_e) - math.log(pd_0) - math.log(pa_e) + math.log(pa_0)) / (
        4.0 * eps_probe
    )


def extract_weak_value(
    p_at_eps: np.ndarray,
    p_at_zero: np.ndarray,
    f: Outcome,
    eps_probe: float,
) -> float:
    """Weak value from the change of conditional probabilities between a
    finite probe coupling and zero coupling, given the joint tables p[4]
    at both.

    Averages the two meter outcomes with the response-sign convention
    (+ for D, - for A): the result is
    [ln p(D|f;eps) - ln p(D|f;0) - ln p(A|f;eps) + ln p(A|f;0)] / (4 eps).

    On the linear model, where p(D|f) = (1 + 2 eps wv) / 2 and
    p(A|f) = (1 - 2 eps wv) / 2, this is exactly atanh(2 eps wv) / (2 eps),
    with relative error (4/3) (eps wv)^2 + O((eps wv)^4) against wv.
    """
    return _finite_difference(_cells(p_at_eps), _cells(p_at_zero), f, eps_probe)


def fisher_information(psi, f_basis=None) -> np.ndarray:
    """Fisher information about eps at eps = 0 of the state psi, a (2,)
    amplitude array, split by post-selection outcome: the (2,) array
    (F_D, F_A) in the order of the basis rows, a row of
    :func:`weakmeas.kernel.fisher_split`. ``f_basis`` is an orthonormal
    (2, 2) basis, the diagonal pair by default. It takes no meter: with
    the meter's normalization sum_m w_m kappa_m^2 = 1 the result is the
    same for every meter."""
    basis = DIAG_BASIS if f_basis is None else _check_orthonormal(f_basis)
    return fisher_split(_state(psi)[None], basis)[0]


def cramer_rao_bound(fisher: float, n_trials: int, f: Outcome | None = None) -> float:
    """Minimal achievable variance of an unbiased estimate of eps from
    n_trials independent trials that carry the Fisher information
    ``fisher`` each: 1 / (n_trials * fisher). ``fisher`` is the total, or
    F_f of the strategy that keeps the post-selected outcome f; a zero
    information is named as that outcome's when f is given."""
    if n_trials <= 0:
        raise ValueError("n_trials must be positive")
    if fisher <= 0.0:
        if f is not None:
            raise ZeroInformation(
                f"Fisher information F_{f.value} of the post-selected f={f.value} events is zero"
            )
        raise ZeroInformation("total Fisher information is zero")
    return 1.0 / (n_trials * fisher)


def apparent_fisher(
    p_at_eps: np.ndarray,
    p_at_zero: np.ndarray,
    eps_probe: float,
) -> np.ndarray:
    """Fisher information (F_D, F_A) as a (2,) array, as an experiment
    would reconstruct it from the joint tables p[4] at a finite probe
    coupling and at zero: weak values extracted by the finite-difference
    procedure, combined with the zero-coupling post-selection
    probabilities via 4 p(f) wv^2.

    This is the analysis pipeline applied to real or imperfect-gate data;
    on distributions that deviate from the first-order model it produces
    the characteristic artifacts (asymmetric per-f curves, apparent totals
    away from the true bound). Outcomes with zero post-selection
    probability contribute zero.
    """
    at_zero, at_eps = _cells(p_at_zero), _cells(p_at_eps)
    split = np.zeros(2)
    for col, f in enumerate((Outcome.D, Outcome.A)):
        i_d, i_a = _COLUMN[f]
        pf0 = at_zero[i_d] + at_zero[i_a]
        if pf0 > 0.0:
            wv = _finite_difference(at_eps, at_zero, f, eps_probe)
            split[col] = 4.0 * pf0 * wv * wv
    return split
