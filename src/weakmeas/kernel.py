"""The model kernel: the 2x2 joint table p(m, f) of each model, weak
values and the Fisher split, computed for many input states at once.

Input states are the rows of an (N, 2) complex array of (H, V)
amplitudes. The call-level parameters (bases, meter, observable, gate)
are the validated objects of the other modules; a rule they break
raises at once. A rule that fails for one row leaves that row NaN, and
its ``status`` is the exit code of the error the scalar function raises
for it (0 where the row is defined). The arithmetic is elementwise, so a
row's value does not depend on N and uses no BLAS kernel. The scalar
functions at the end are N = 1 calls of the array functions, so each
model has one implementation.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import LinearizationInvalid, PostselectionSingular, ZeroCoincidenceNorm
from .estimation import WV_REFERENCE_FLOOR, FisherReport
from .gatesim import (
    COINCIDENCE_FLOOR, COMPENSATED_PPBS, GateParams, ppbs_coincidence_operator, probe_state,
)
from .qstate import (
    Observable, PolarAngle, QubitState, diag_states, inner_product, linear_pol_state, stokes_hv,
)
from .weakmodel import (
    CELLS, DEFAULT_METER, SINGULARITY_THRESHOLD, WEAKNESS_GUARD, JointDistribution, MeterModel,
    MeterOutcome, PostSelectOutcome, _check_orthonormal, _require_weak,
)

#: Coincidence amplitudes of the ideal controlled-sign gate over
#: {HH, HV, VH, VV}: the VV amplitude changes sign.
IDEAL_GATE = np.array([1.0, 1.0, 1.0, -1.0])

_OUTCOMES = (PostSelectOutcome.D, PostSelectOutcome.A)


class ModelTag(Enum):
    LINEAR = "linear"
    EXACT_IDEAL = "exact_ideal"
    EXACT_PPBS = "exact_ppbs"

    @classmethod
    def parse(cls, text: "ModelTag | str") -> "ModelTag":
        return text if isinstance(text, cls) else cls(text.strip().lower().replace("-", "_"))


def linear_states(theta_deg) -> np.ndarray:
    """Rows cos(theta/2)|H> + sin(theta/2)|V>, normalized, for angles in
    degrees: the states of :func:`weakmeas.qstate.linear_pol_state`."""
    theta = np.asarray(theta_deg, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("angle must be finite")
    half = np.radians(np.mod(theta, 360.0)) / 2.0
    c, s = np.cos(half), np.sin(half)
    norm = np.sqrt(c * c + s * s)
    return np.stack([c / norm, s / norm], axis=-1).astype(complex)


def analyzer_basis(postselect_deg: float) -> tuple[QubitState, QubitState]:
    """Basis pair for a post-selection angle: the orthogonal partner maps
    to outcome label D, the analyzer state itself to label A. The default
    270 deg gives the diagonal (D, A) pair."""
    return linear_pol_state(postselect_deg - 180.0), linear_pol_state(postselect_deg)


def _braket(f: np.ndarray, states: np.ndarray) -> np.ndarray:
    """<f|psi> for every row psi."""
    return np.conj(f[0]) * states[:, 0] + np.conj(f[1]) * states[:, 1]


def _transitions(f: QubitState, obs: Observable, states: np.ndarray):
    """(<f|A|psi>, <f|psi>) for every row psi; <f|A|psi> = <A^dag f|psi>."""
    v = f.vector()
    a_dag_f = (np.conj(obs.matrix) * v[:, None]).sum(axis=0)
    return _braket(a_dag_f, states), _braket(v, states)


def weak_values(states: np.ndarray, f: QubitState, obs: Observable) -> np.ndarray:
    """Weak values <f|A|psi> / <f|psi>, NaN where |<f|psi>| is below
    SINGULARITY_THRESHOLD (PostselectionSingular)."""
    num, den = _transitions(f, obs, states)
    singular = np.abs(den) < SINGULARITY_THRESHOLD
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(singular, np.nan, num / np.where(singular, 1.0, den))


def fisher_split(states: np.ndarray, f_basis=None, obs: Observable | None = None) -> np.ndarray:
    """(N, 2) Fisher contributions 4 p(f) (Re wv_f)^2 for f = (D, A), as
    4 (Re(<f|A|psi> conj<f|psi>))^2 / |<f|psi>|^2, continuously extended
    to p(f) -> 0 where the product stays finite."""
    out, obs = np.empty((len(states), 2)), obs or stokes_hv()
    for col, f in enumerate(f_basis or diag_states()):
        num, den = _transitions(f, obs, states)
        mag = np.abs(den)
        with np.errstate(divide="ignore", invalid="ignore"):
            regular = 4.0 * (num * np.conj(den)).real ** 2 / (mag * mag)
            # near the singular point only the phase of <f|psi> enters; 1 at 0
            ph_re = np.where(mag > 0.0, den.real / mag, 1.0)
            ph_im = np.where(mag > 0.0, den.imag / mag, 0.0)
        singular = 4.0 * (num.real * ph_re + num.imag * ph_im) ** 2
        out[:, col] = np.where(mag < SINGULARITY_THRESHOLD, singular, regular)
    return out


def _checked(p: np.ndarray, status: np.ndarray):
    """(p, status) with the rows of nonzero status set to NaN; the other
    rows must sum to 1 within 1e-9."""
    p[status != 0] = np.nan
    total = p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3]
    bad = (status == 0) & ~(np.abs(total - 1.0) <= 1e-9)
    if bad.any():
        raise ValueError(f"probabilities sum to {total[bad][0]!r}, expected 1")
    return p, status


def linear_table(states, eps: float, f_basis=None, meter=None, obs=None, guard=WEAKNESS_GUARD):
    """First-order table p(m, f) = w_m |<f|psi>|^2 (1 + 2 eps kappa_m Re wv_f)
    in CELLS order, and the row status.

    f_basis is an orthonormal pair mapped positionally to the outcomes
    (D, A), by default the diagonal pair. Where the post-selection is
    singular the row falls back to the interaction-free w_m |<f|psi>|^2,
    exact there to the order retained. A negative cell marks the breakdown
    of the weak-coupling premise: the row is LinearizationInvalid.
    """
    f_basis, meter, obs = f_basis or diag_states(), meter or DEFAULT_METER, obs or stokes_hv()
    _check_orthonormal(f_basis)
    _require_weak(eps, meter, obs, guard)
    pf, re_wv = {}, {}
    for f_out, f in zip(_OUTCOMES, f_basis):
        pf[f_out] = np.abs(_braket(f.vector(), states)) ** 2
        re_wv[f_out] = np.nan_to_num(weak_values(states, f, obs).real, nan=0.0)
    cells = [meter.w(m) * pf[f] * (1.0 + 2.0 * eps * meter.kappa(m) * re_wv[f]) for m, f in CELLS]
    p = np.stack(cells, axis=1)
    return _checked(p, np.where((p < 0.0).any(axis=1), LinearizationInvalid.exit_code, 0))


def two_photon_amplitudes(states: np.ndarray, probe: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """Amplitudes over {HH, HV, VH, VV} of system (x) probe after a gate
    given by its four coincidence amplitudes, one row per system state."""
    return (states[:, :, None] * probe[None, None, :]).reshape(-1, 4) * gate


def exact_table(states, eps: float, gate: np.ndarray, f_basis=None, meter_basis=None):
    """Coincidence table p(m, f) of the exact gate model in CELLS order,
    and the row status.

    The probe enters as |H> + eps |V> normalized. The post-selection basis
    acts on the system photon, the meter basis on the probe photon; both
    default to the diagonal pair and map positionally onto (D, A).
    Probabilities are renormalized over coincidence events; a row with no
    coincidence amplitude left is ZeroCoincidenceNorm.
    """
    if not math.isfinite(eps * eps):
        raise ValueError(f"coupling eps={eps!r}: the probe |H> + eps|V> cannot be normalized")
    amps = two_photon_amplitudes(states, probe_state(eps).vector(), gate)
    weights = np.abs(amps) ** 2
    norm = weights[:, 0] + weights[:, 1] + weights[:, 2] + weights[:, 3]
    f_states = dict(zip(_OUTCOMES, f_basis or diag_states()))
    m_states = dict(zip((MeterOutcome.D, MeterOutcome.A), meter_basis or diag_states()))
    p = np.empty((len(states), 4))
    with np.errstate(divide="ignore", invalid="ignore"):
        for col, (m, f) in enumerate(CELLS):
            a = np.conj(np.kron(f_states[f].vector(), m_states[m].vector()))
            amp = a[0] * amps[:, 0] + a[1] * amps[:, 1] + a[2] * amps[:, 2] + a[3] * amps[:, 3]
            p[:, col] = (amp.real**2 + amp.imag**2) / norm
    return _checked(p, np.where(norm < COINCIDENCE_FLOOR, ZeroCoincidenceNorm.exit_code, 0))


def _table(states, eps: float, model: ModelTag, gate_params, f_basis):
    if model is ModelTag.LINEAR:
        return linear_table(states, eps, f_basis)
    if model is ModelTag.EXACT_IDEAL:
        return exact_table(states, eps, IDEAL_GATE, f_basis)
    return exact_table(states, eps, ppbs_coincidence_operator(gate_params or COMPENSATED_PPBS), f_basis)


def joint_table(theta_deg, eps: float, model: ModelTag | str, gate_params=None, postselect_deg=270.0):
    """(p[N, 4], status[N]) of the selected model over an array of input
    angles in degrees. ``gate_params`` applies to the exact PPBS model and
    defaults to the compensated gate."""
    basis = analyzer_basis(postselect_deg)
    return _table(linear_states(theta_deg), eps, ModelTag.parse(model), gate_params, basis)


def sweep_columns(theta_deg, eps: float, model: ModelTag | str, gate_params=None, postselect_deg=270.0):
    """The columns of a theta sweep as float arrays keyed by name, NaN
    where a cell is undefined: the joint table, the weak values of both
    outcomes, the moment estimate from the f = A conditionals, the
    relative error scale 1 / sqrt(F_A) and the Fisher split."""
    theta = np.asarray(theta_deg, dtype=float)
    states, basis, obs = linear_states(theta), analyzer_basis(postselect_deg), stokes_hv()
    p, _ = _table(states, eps, ModelTag.parse(model), gate_params, basis)
    wv_d, wv_a = (weak_values(states, f, obs).real for f in basis)
    f_d, f_a = fisher_split(states, basis, obs).T
    # estimate_epsilon on ConditionalPair.from_joint, with their checks
    pf_a = p[:, 0] + p[:, 1]
    usable = (pf_a > 0.0) & (np.abs(wv_a) >= WV_REFERENCE_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_d, p_a = p[:, 0] / pf_a, p[:, 1] / pf_a
        if (usable & ~(np.abs(p_d + p_a - 1.0) <= 1e-9)).any():
            raise ValueError("p(D|f) + p(A|f) must equal 1")
        eps_hat = np.where(usable, (p_d - p_a) / (2.0 * wv_a), np.nan)
        sigma = np.where(f_a > SINGULARITY_THRESHOLD, 1.0 / np.sqrt(f_a), np.nan)
    return {
        "theta_deg": theta, "p_DA": p[:, 0], "p_AA": p[:, 1], "p_DD": p[:, 2], "p_AD": p[:, 3],
        "wv_A": wv_a, "wv_D": wv_d, "eps_hat_A": eps_hat, "sigma_rel_A": sigma,
        "F_A": f_a, "F_D": f_d, "F_total": f_d + f_a,
    }


# -- the scalar API: N = 1 calls on state.vector()[None] ---------------------


def _distribution(table, eps: float) -> JointDistribution:
    """The row of an N = 1 table, or the error of its status."""
    p, status = table
    if status[0] == LinearizationInvalid.exit_code:
        raise LinearizationInvalid(
            f"a first-order probability is negative; coupling eps={eps:g} is too strong "
            "for this post-selection"
        )
    if status[0] == ZeroCoincidenceNorm.exit_code:
        raise ZeroCoincidenceNorm("no coincidence amplitude left after the gate")
    return JointDistribution(dict(zip(CELLS, p[0].tolist())))


def weak_value(psi: QubitState, f: QubitState, obs: Observable) -> complex:
    """Weak value <f|A|psi> / <f|psi> of obs for preparation psi and
    post-selection f. Raises PostselectionSingular when |<f|psi>| is below
    the singularity threshold (the divergence there is physical, but a
    float result past measurement precision would be meaningless)."""
    wv = complex(weak_values(psi.vector()[None], f, obs)[0])
    if math.isnan(wv.real):
        raise PostselectionSingular(
            f"|<f|psi>| = {abs(inner_product(f, psi)):.3g} below threshold {SINGULARITY_THRESHOLD:g}"
        )
    return wv


def log_derivative(psi: QubitState, f: QubitState, m: MeterOutcome, meter=None, obs=None) -> float:
    """d ln p(m, f) / d eps at eps = 0, i.e. 2 kappa_m Re wv_f."""
    return 2.0 * (meter or DEFAULT_METER).kappa(m) * weak_value(psi, f, obs or stokes_hv()).real


def joint_probabilities_linear(
    psi: QubitState, eps: float, f_basis: tuple[QubitState, QubitState] | None = None,
    meter: MeterModel | None = None, obs: Observable | None = None, guard: float = WEAKNESS_GUARD,
) -> JointDistribution:
    """First-order joint probabilities p(m, f) for all four outcome pairs
    (see :func:`linear_table`). A negative first-order probability raises
    LinearizationInvalid instead of being clamped."""
    return _distribution(linear_table(psi.vector()[None], eps, f_basis, meter, obs, guard), eps)


def exact_joint_probabilities(
    theta: float | PolarAngle, eps: float, params: GateParams | None = None,
    meter_basis: tuple[QubitState, QubitState] | None = None,
    postselect_basis: tuple[QubitState, QubitState] | None = None,
) -> JointDistribution:
    """Coincidence joint probabilities p(m, f) of the exact gate model for
    the system in the linear-polarization state at ``theta`` (see
    :func:`exact_table`). ``params=None`` applies the ideal controlled-sign
    gate; a :class:`GateParams` applies the PPBS coincidence operator."""
    states = linear_pol_state(theta).vector()[None]
    gate = IDEAL_GATE if params is None else ppbs_coincidence_operator(params)
    return _distribution(exact_table(states, eps, gate, postselect_basis, meter_basis), eps)


def fisher_information(
    psi: QubitState, f_basis: tuple[QubitState, QubitState] | None = None,
    obs: Observable | None = None,
) -> FisherReport:
    """Fisher information about eps at eps = 0, split by post-selection
    outcome (see :func:`fisher_split`). It takes no meter: every
    :class:`MeterModel` enforces sum_m w_m kappa_m^2 = 1, and with that
    normalization the result is the same for all of them."""
    f_d, f_a = fisher_split(psi.vector()[None], f_basis, obs)[0].tolist()
    return FisherReport(dict(zip(_OUTCOMES, (f_d, f_a))), f_d + f_a)


def model_distribution(
    theta: float | PolarAngle, eps: float, model: ModelTag | str,
    gate_params: GateParams | None = None, f_basis=None,
) -> JointDistribution:
    """Joint distribution p(m, f) of the selected model at (theta, eps).
    ``f_basis`` overrides the post-selection basis pair (default: diagonal)."""
    states = linear_pol_state(theta).vector()[None]
    return _distribution(_table(states, eps, ModelTag.parse(model), gate_params, f_basis), eps)
