"""Exact two-photon model of the PPBS controlled-sign gate.

The gate is a single partially polarizing beam splitter (PPBS) hit by a
system photon and a probe photon, one per input port, keeping only
coincidence events (one photon per output port). With amplitude
transmittivities t_H = 1 and t_V = 1/sqrt(3) and per-photon H
compensation a_H = 1/sqrt(3), the coincidence amplitudes reduce to
(1/3) diag(1, 1, 1, -1) over the basis {HH, HV, VH, VV}: a
controlled-sign gate with success amplitude 1/3 that flips the sign of
the |V,V> component only.

Conventions:

* beam-splitter amplitudes are real, r_x = sqrt(1 - t_x^2); a
  coincidence leaves both photons transmitted (t_x t_y, each photon
  keeps its port) or both reflected (-r_x r_y, the photons exchange
  ports), and the compensation multiplies by a_H per output H photon;
* on same-polarization components (HH, VV) the two paths end in the same
  state and add to the t^2 - r^2 form; on mixed components the
  both-reflected path turns HV into VH and back, so the operator is a
  diagonal d plus a swap coefficient s = -a_H r_H r_V on HV <-> VH,
  which vanishes whenever r_H = 0 (the experimentally relevant setting);
* every t_H < 1 is an imperfect gate: with r_H > 0, s = 0 forces
  r_V = 0, so t_V = 1 and d_VV = +1; a scaled controlled sign
  c diag(1, 1, 1, -1) then needs c = -1 and d_HV = a_H t_H = -1, which
  no positive t_H, a_H give;
* coincidence post-selection is modeled as renormalization over the four
  two-photon amplitudes, discarding the norm deficit, exactly as
  coincidence-count analysis does;
* the probe carrying the coupling eps enters as (|H> + eps |V>)
  normalized (:func:`weakmeas.kernel.probe_state`).

:mod:`weakmeas.kernel` computes the coincidence distributions from this
operator without linearizing, so they expose the quadratic corrections
that its first-order model drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Coincidence norm below this raises ZeroCoincidenceNorm.
COINCIDENCE_FLOOR = 1e-30


@dataclass(frozen=True)
class GateParams:
    """Amplitude transmittivities of the PPBS and the per-photon H
    compensation amplitude applied after the gate."""

    t_h: float
    t_v: float
    a_h: float

    def __post_init__(self) -> None:
        for name, value in (("t_h", self.t_h), ("t_v", self.t_v), ("a_h", self.a_h)):
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {value!r}")

    @property
    def r_h(self) -> float:
        return math.sqrt(1.0 - self.t_h**2)

    @property
    def r_v(self) -> float:
        return math.sqrt(1.0 - self.t_v**2)


#: Gate parameters realizing the controlled-sign gate exactly.
COMPENSATED_PPBS = GateParams(t_h=1.0, t_v=1.0 / math.sqrt(3.0), a_h=1.0 / math.sqrt(3.0))

#: Single PPBS without H-compensation elements.
UNCOMPENSATED_PPBS = GateParams(t_h=1.0, t_v=1.0 / math.sqrt(3.0), a_h=1.0)


def ppbs_coincidence_operator(params: GateParams) -> tuple[np.ndarray, float]:
    """Coincidence amplitudes of the compensated PPBS over
    {HH, HV, VH, VV}: the diagonal d and the swap coefficient s, with
    out = d * in + s * (in with HV and VH exchanged, HH and VV zeroed)."""
    t_h, t_v, a_h = params.t_h, params.t_v, params.a_h
    r_h, r_v = params.r_h, params.r_v
    mixed = a_h * t_h * t_v
    diag = np.array(
        [
            a_h**2 * (t_h**2 - r_h**2),
            mixed,
            mixed,
            t_v**2 - r_v**2,
        ]
    )
    return diag, -a_h * (r_h * r_v)
