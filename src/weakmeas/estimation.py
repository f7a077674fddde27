"""Estimation of the coupling parameter and its information-theoretic limits.

The moment estimator inverts the first-order response of the conditional
meter statistics for a fixed post-selection outcome f:

    eps_hat = (p(D|f) - p(A|f)) / (2 wv_ref),

where wv_ref is the analytic weak value in the zero-coupling limit, never
refit from data (:func:`weakmeas.kernel.moment_estimates` on arrays). Its
binomial (delta-method) error is sigma_eps = sqrt(p_D p_A / n) / |wv_ref|
for n post-selected events; at eps = 0 the inverse square equals n times
the per-outcome Fisher contribution, so the estimator saturates the
Cramer-Rao bound of the post-selected strategy.

The Fisher information for estimating eps decomposes over post-selection
outcomes as

    F = sum_f 4 p(f) (Re wv_f)^2,

which for any orthonormal basis with real weak values collapses to
4 <psi|A^2|psi>, independent of the basis choice. For the Stokes
observable this is 4 for every input state: post-selection redistributes
sensitivity between outcomes without changing the total.
:func:`weakmeas.kernel.fisher_information` returns the split (F_D, F_A).

Weak values themselves can be recovered from measured probabilities by a
finite-difference version of the logarithmic derivative, averaging the
two meter outcomes; the averaging cancels the term linear in the probe
coupling, leaving a quadratic finite-coupling error (4/3) (eps wv)^2.

A joint table is p[4] in :data:`weakmeas.kernel.CELLS` order. Each
function checks a table it is given once, by
:func:`weakmeas.kernel.check_table`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroInformation, ZeroProbability, ZeroProbeCoupling, raise_status
from .kernel import COLUMN, WV_REFERENCE_FLOOR, Outcome, check_table, moment_estimates


def _conditional(cells: np.ndarray, f: Outcome) -> tuple[float, float]:
    """(p(D|f), p(A|f)) of a checked table. Raises ZeroProbability when
    p(f) = 0."""
    i_d, i_a = COLUMN[f]
    pf = cells[i_d] + cells[i_a]
    if pf <= 0.0:
        raise_status(ZeroProbability.exit_code, f=f.value)
    return cells[i_d] / pf, cells[i_a] / pf


def estimate_epsilon(w_d: float, w_a: float, wv_reference: float,
                     n_events: float | None = None, *,
                     f: Outcome | str) -> tuple[float, float | None]:
    """Moment estimate of the coupling from the (D, f) and (A, f) weights
    of the post-selected outcome ``f``, counts, joint cells or
    conditionals, normalized by their sum, and its binomial error over
    ``n_events`` post-selected events, None without them. Raises the error
    of the status of :func:`weakmeas.kernel.moment_estimates`; weights
    that sum to zero are named as p(f) = 0.

    The estimate is (p(D|f) - p(A|f)) / (2 wv_reference). On linear-model
    conditionals this is the set eps exactly. On exact ideal-gate
    conditionals, with wv_reference the analytic weak value wv, it is
    eps / (1 + eps^2 wv^2) identically: a finite-coupling bias that grows
    toward the orthogonality point.
    """
    f = Outcome(f)
    w_d, w_a, wv_reference = float(w_d), float(w_a), float(wv_reference)
    if not (0.0 <= w_d < math.inf and 0.0 <= w_a < math.inf):
        raise ValueError(f"weights must be finite and nonnegative, got ({w_d!r}, {w_a!r})")
    if math.isinf(wv_reference):
        raise ValueError(f"wv_reference must be finite, got {wv_reference!r}")
    eps_hat, status = moment_estimates([w_d], [w_a], wv_reference)
    raise_status(status[0], f=f.value, wv_abs=abs(wv_reference), wv_floor=WV_REFERENCE_FLOOR)
    if n_events is None:
        return eps_hat.item(), None
    if not 0 < n_events < math.inf:
        raise ValueError(f"n_events must be positive and finite when present, got {n_events!r}")
    total = w_d + w_a
    return eps_hat.item(), math.sqrt(w_d / total * (w_a / total) / n_events) / abs(wv_reference)


def _finite_difference(at_eps: np.ndarray, at_zero: np.ndarray, f: Outcome,
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
    f: Outcome | str,
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
    return _finite_difference(check_table(p_at_eps), check_table(p_at_zero), Outcome(f), eps_probe)


def cramer_rao_bound(fisher: float, n_trials: int, f: Outcome | str | None = None) -> float:
    """Minimal achievable variance of an unbiased estimate of eps from
    n_trials independent trials that carry the Fisher information
    ``fisher`` each: 1 / (n_trials * fisher). ``fisher`` is the total, or
    F_f of the strategy that keeps the post-selected outcome f; a zero
    information is named as that outcome's when f is given."""
    f = None if f is None else Outcome(f)
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
    at_zero, at_eps = check_table(p_at_zero), check_table(p_at_eps)
    split = np.zeros(2)
    for col, (f, (i_d, i_a)) in enumerate(COLUMN.items()):
        pf0 = at_zero[i_d] + at_zero[i_a]
        if pf0 > 0.0:
            wv = _finite_difference(at_eps, at_zero, f, eps_probe)
            split[col] = 4.0 * pf0 * wv * wv
    return split
