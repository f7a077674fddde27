"""Linearized model of a two-outcome weak measurement.

A system observable A couples to a two-outcome meter through a small
dimensionless interaction parameter eps. To first order in eps the
measurement operators read

    E_m = sqrt(w_m) (I + eps kappa_m A),    m in {D, A},

where w_m is the outcome probability without interaction and kappa_m
the response coefficient of outcome m. The coefficients are normalized
by the convention sum_m w_m kappa_m^2 = 1; first-order completeness of
the operators additionally requires sum_m w_m kappa_m = 0, and both are
enforced on :class:`MeterModel`. The default meter has
w_D = w_A = 1/2 and kappa_D = -kappa_A = 1.

Post-selecting a final state |f> after the interaction gives the joint
probabilities

    p(m, f) = w_m |<f|psi>|^2 (1 + 2 eps kappa_m Re wv_f),

with the weak value wv_f = <f|A|psi> / <f|psi>. The expression drops the
quadratic back-action term and is therefore only valid for sufficiently
weak coupling; operations refuse outright (CouplingTooStrong,
LinearizationInvalid) rather than silently clamping when that premise
fails. The logarithmic derivative of p(m, f) with respect to eps at
eps = 0 equals 2 kappa_m Re wv_f, which is what makes weak values the
natural sensitivity measure for estimating eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import CouplingTooStrong, NonOrthonormalBasis, ZeroProbability
from .qstate import Observable, QubitState, inner_product

#: |<f|psi>| below this is treated as singular post-selection.
SINGULARITY_THRESHOLD = 1e-8

#: Default bound on |eps| * max|kappa| * spectral_radius(A). Conservative:
#: keeps the dropped second-order terms below 25% of the first-order ones.
WEAKNESS_GUARD = 0.5

#: Tolerance for the orthonormality of a post-selection basis pair.
ORTHONORMAL_TOL = 1e-10


class MeterOutcome(Enum):
    D = "D"
    A = "A"


class PostSelectOutcome(Enum):
    D = "D"
    A = "A"


#: Canonical cell order of the 2x2 joint table, used for serialization,
#: sampling and CSV columns: (m, f) = (D,A), (A,A), (D,D), (A,D).
CELLS: tuple[tuple[MeterOutcome, PostSelectOutcome], ...] = (
    (MeterOutcome.D, PostSelectOutcome.A),
    (MeterOutcome.A, PostSelectOutcome.A),
    (MeterOutcome.D, PostSelectOutcome.D),
    (MeterOutcome.A, PostSelectOutcome.D),
)


@dataclass(frozen=True)
class MeterModel:
    """Baseline probabilities w_m and response coefficients kappa_m."""

    w_d: float
    w_a: float
    kappa_d: float
    kappa_a: float

    def __post_init__(self) -> None:
        for w in (self.w_d, self.w_a):
            if not (0.0 < w < 1.0):
                raise ValueError("each w_m must lie in (0, 1)")
        if abs(self.w_d + self.w_a - 1.0) > 1e-12:
            raise ValueError("w_D + w_A must equal 1")
        if abs(self.w_d * self.kappa_d**2 + self.w_a * self.kappa_a**2 - 1.0) > 1e-12:
            raise ValueError("normalization sum_m w_m kappa_m^2 = 1 violated")
        # first-order completeness of the measurement operators
        if abs(self.w_d * self.kappa_d + self.w_a * self.kappa_a) > 1e-12:
            raise ValueError("completeness sum_m w_m kappa_m = 0 violated")

    def w(self, m: MeterOutcome) -> float:
        return self.w_d if m is MeterOutcome.D else self.w_a

    def kappa(self, m: MeterOutcome) -> float:
        return self.kappa_d if m is MeterOutcome.D else self.kappa_a

    @property
    def max_abs_kappa(self) -> float:
        return max(abs(self.kappa_d), abs(self.kappa_a))


#: The experimental meter: balanced diagonal analysis of the probe photon.
DEFAULT_METER = MeterModel(w_d=0.5, w_a=0.5, kappa_d=1.0, kappa_a=-1.0)


def weakness_margin(eps: float, meter: MeterModel, obs: Observable) -> float:
    """|eps| * max|kappa_m| * spectral_radius(A), compared against the guard."""
    return abs(eps) * meter.max_abs_kappa * obs.spectral_radius()


def _require_weak(eps: float, meter: MeterModel, obs: Observable, guard: float) -> None:
    margin = weakness_margin(eps, meter, obs)
    if not margin < guard:
        raise CouplingTooStrong(
            f"weakness margin {margin:.6g} exceeds guard {guard:.6g}"
        )


def measurement_operator(
    meter: MeterModel,
    m: MeterOutcome,
    obs: Observable,
    eps: float,
    guard: float = WEAKNESS_GUARD,
):
    """Linearized measurement operator sqrt(w_m) (I + eps kappa_m A).

    Returns a 2x2 ndarray. The pair over both outcomes satisfies
    sum_m E_m^dag E_m = I + eps^2 A^2 exactly, i.e. completeness up to
    the quadratic back-action term.
    """
    _require_weak(eps, meter, obs, guard)
    eye = np.eye(2, dtype=complex)
    return math.sqrt(meter.w(m)) * (eye + eps * meter.kappa(m) * obs.matrix)


class JointDistribution:
    """The 2x2 table p(m, f) over meter outcome m and post-selection f.

    Entries are validated nonnegative and summing to 1 within 1e-9.
    """

    __slots__ = ("_p",)

    def __init__(self, probs: Mapping[tuple[MeterOutcome, PostSelectOutcome], float]):
        table = {}
        for cell in CELLS:
            try:
                value = float(probs[cell])
            except KeyError:
                raise ValueError(f"missing probability for cell {cell}") from None
            if value < 0.0:
                if value < -1e-12:
                    raise ValueError(f"negative probability {value!r} for cell {cell}")
                value = 0.0
            table[cell] = value
        total = sum(table.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        self._p = table

    def p(self, m: MeterOutcome, f: PostSelectOutcome) -> float:
        return self._p[(m, f)]

    def marginal_f(self, f: PostSelectOutcome) -> float:
        return self._p[(MeterOutcome.D, f)] + self._p[(MeterOutcome.A, f)]

    def conditional(self, f: PostSelectOutcome) -> tuple[float, float]:
        """(p(D|f), p(A|f)). Raises ZeroProbability when p(f) = 0."""
        pf = self.marginal_f(f)
        if pf <= 0.0:
            raise ZeroProbability(f"post-selection probability p(f={f.value}) is zero")
        return self._p[(MeterOutcome.D, f)] / pf, self._p[(MeterOutcome.A, f)] / pf

    def values(self) -> tuple[float, float, float, float]:
        """Probabilities in canonical CELLS order."""
        return tuple(self._p[c] for c in CELLS)

    def as_dict(self) -> dict[tuple[MeterOutcome, PostSelectOutcome], float]:
        return dict(self._p)

    def __repr__(self) -> str:
        cells = ", ".join(
            f"p({m.value},{f.value})={self._p[(m, f)]:.6g}" for m, f in CELLS
        )
        return f"JointDistribution({cells})"


def _check_orthonormal(f_basis: tuple[QubitState, QubitState]) -> None:
    overlap = abs(inner_product(f_basis[0], f_basis[1]))
    if overlap > ORTHONORMAL_TOL:
        raise NonOrthonormalBasis(f"basis overlap |<f0|f1>| = {overlap:.3g}")
