"""The model kernel: the 2x2 joint table p(m, f) of each model, weak
values, the Fisher split and moment estimates, for many states at once.

The first-order model. The Stokes observable A = |H><H| - |V><V| of the
system photon couples to a two-outcome meter, the diagonal analysis of
the probe photon, through a small dimensionless interaction parameter
eps. To first order in eps the measurement operators read

    E_m = sqrt(w_m) (I + eps kappa_m A),    m in {D, A},

where w_m is the outcome probability without interaction and kappa_m
the response coefficient of outcome m. The meter is balanced,
w_D = w_A = 1/2 and kappa_D = -kappa_A = 1: it is normalized,
sum_m w_m kappa_m^2 = 1, and the operators are complete to first order,
sum_m w_m kappa_m = 0, so sum_m E_m^dag E_m = I + eps^2 A^2.

Post-selecting a final state |f> after the interaction gives the joint
probabilities

    p(m, f) = w_m |<f|psi>|^2 (1 + 2 eps kappa_m Re wv_f),

with the weak value wv_f = <f|A|psi> / <f|psi>. The expression drops the
quadratic back-action term and is therefore only valid for sufficiently
weak coupling: the guard refuses |eps| >= WEAKNESS_GUARD for the whole
call (CouplingTooStrong), and a row with a negative cell is
LinearizationInvalid, never clamped. The logarithmic derivative of
p(m, f) with respect to eps at eps = 0 equals 2 kappa_m Re wv_f, which is
what makes weak values the natural sensitivity measure for estimating
eps.

The exact models. :func:`exact_table` applies a two-photon gate to the
system photon and the probe |H> + eps |V>, normalized, without
linearizing, so its tables expose the quadratic corrections that the
first-order model drops. A gate acts on the amplitudes over
{HH, HV, VH, VV} and is given as (d, s): a diagonal d plus a
coefficient s that swaps HV and VH. ``exact-ideal`` applies IDEAL_GATE,
the controlled sign diag(1, 1, 1, -1). ``exact-ppbs`` applies
:func:`ppbs_coincidence_operator`: a single partially polarizing beam
splitter (PPBS) hit by the system photon and the probe photon, one per
input port, keeping only coincidence events (one photon per output
port). With amplitude transmittivities t_H = 1 and t_V = 1/sqrt(3) and
per-photon H compensation a_H = 1/sqrt(3) (``GateParams()``), its
coincidence amplitudes reduce to (1/3) diag(1, 1, 1, -1): a
controlled-sign gate with success amplitude 1/3 that flips the sign of
the |V,V> component only. Conventions:

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
  coincidence-count analysis does.

Arrays. A state is a (2,) complex array of (H, V) amplitudes, a basis
the (2, 2) array :func:`analyzer_basis` makes, its rows mapped to the
outcomes (D, A), and a joint table is p[4] in CELLS order. The array
functions take input states as the rows of an (N, 2) array; a rule that
fails for one row leaves that row NaN, and its ``status`` is the exit
code of the error the scalar function raises for it (0 where the row is
defined). :func:`sweep_columns` is the one array entry from angles to
tables: it returns the columns of a sweep, |<f|psi>| of each outcome,
the table's ``status`` and the moment estimate's ``status_eps_hat_A``. A
call makes one amplitude pass, :func:`_transitions`, and reads the weak
values, p(f), the Fisher split and the first-order table from its
triple (<f|A|psi>, <f|psi>, |<f|psi>|); it computes the weak values
once, for the table and for the columns. The arithmetic is elementwise,
so a row's value does not depend on N and uses no BLAS kernel. States
built here (the probe, the rows of :func:`linear_states` and of a basis)
are unit vectors by construction. A caller's own state is checked once,
at the scalar functions: it must be finite and nonzero and is
normalized. The scalar functions are N = 1 calls: ``model_distribution``
is the table of :func:`angle_row`, the one-angle :func:`sweep_columns` row
that every point command of ``weakmeas.cli`` and the ensemble read: the
table, the reference weak value and the Fisher split. It refuses the
row only (its table status, then code 4 where the weak value
is undefined); the estimate's refusals are
``estimation.estimate_epsilon``'s. ``weak_value`` and
``fisher_information`` read the :func:`weak_values` and
:func:`fisher_split` of a caller's state, so each model has one
implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CouplingTooStrong, LinearizationInvalid, NonOrthonormalBasis, PostselectionSingular,
    WeakValueReferenceZero, ZeroCoincidenceNorm, ZeroProbability, raise_status,
)

#: |<f|psi>| below this is treated as singular post-selection.
SINGULARITY_THRESHOLD = 1e-8

#: Bound on |eps| * max|kappa_m| * spectral radius of A, which is |eps|
#: for this meter and observable. Conservative: keeps the dropped
#: second-order terms below 25% of the first-order ones.
WEAKNESS_GUARD = 0.5

#: Largest overlap |<f0|f1>| of the two rows of a post-selection basis.
ORTHONORMAL_TOL = 1e-10

#: |wv_ref| below this cannot be inverted meaningfully.
WV_REFERENCE_FLOOR = 1e-8

#: A state whose norm is below this is refused as the zero vector.
_NORM_FLOOR = 1e-12

#: Coincidence norm below this raises ZeroCoincidenceNorm.
COINCIDENCE_FLOOR = 1e-30

#: The Stokes observable A = |H><H| - |V><V| (eigenvalues +-1).
_STOKES = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: The diagonal pair (|D>, |A>) = ((|H>+|V>)/sqrt2, (|H>-|V>)/sqrt2): the
#: meter basis of the probe photon. The post-selection basis is
#: analyzer_basis(postselect_deg), which at 270 deg differs from this pair
#: in the last bit and in the sign of |A>.
DIAG_BASIS = (np.array([[1, 1], [1, -1]]) / np.sqrt(2)).astype(complex)
DIAG_BASIS.flags.writeable = False


class Outcome(Enum):
    """Outcome label of the meter (m) or of the post-selection (f). A
    basis's rows and a Fisher split's columns follow its order (D, A)."""

    D = "D"
    A = "A"


#: Canonical cell order of the 2x2 joint table, used for serialization,
#: sampling and CSV columns: (m, f) = (D,A), (A,A), (D,D), (A,D).
CELLS = (
    (Outcome.D, Outcome.A),
    (Outcome.A, Outcome.A),
    (Outcome.D, Outcome.D),
    (Outcome.A, Outcome.D),
)

#: The cells (D, f) and (A, f) in CELLS order of each post-selection outcome f.
COLUMN = {f: (CELLS.index((Outcome.D, f)), CELLS.index((Outcome.A, f))) for f in Outcome}

#: Per cell of CELLS, the row of its m in DIAG_BASIS and of its f in a basis.
_M_ROW, _F_ROW = np.array([[list(Outcome).index(o) for o in cell] for cell in CELLS]).T

#: The meter's baseline probability w_m and, per cell, its response kappa_m.
_W = 0.5
_KAPPA = np.array([1.0, -1.0])[_M_ROW]


class ModelTag(Enum):
    """A model: ``ModelTag(x)`` takes a member or its name, else raises "'x' is not a valid ModelTag"."""

    LINEAR = "linear"
    EXACT_IDEAL = "exact-ideal"
    EXACT_PPBS = "exact-ppbs"


def _norm(h, v):
    """sqrt(|h|^2 + |v|^2), elementwise: no BLAS kernel rounds it."""
    return np.sqrt(h.real * h.real + h.imag * h.imag + (v.real * v.real + v.imag * v.imag))


def _unit(h, v) -> np.ndarray:
    """Rows (h, v) / _norm(h, v), complex."""
    norm = _norm(h, v)
    return np.stack([h / norm, v / norm], axis=-1).astype(complex)


def linear_states(theta_deg) -> np.ndarray:
    """States cos(theta/2)|H> + sin(theta/2)|V>, normalized, for angles in
    degrees on the linear-polarization circle (reduced mod 360: 0 is H,
    180 V, 90 D and 270 A): shape (2,) for one angle, (N, 2) for a 1-D
    array of N; an array of more dimensions is a ValueError."""
    theta = np.asarray(theta_deg, dtype=float)
    if theta.ndim > 1:
        raise ValueError(f"angles are one number or a 1-D array, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("angle must be finite")
    half = np.radians(np.mod(theta, 360.0)) / 2.0
    return _unit(np.cos(half), np.sin(half))


def probe_state(eps: float) -> np.ndarray:
    """Probe polarization |H> + eps |V>, normalized."""
    return _unit(1.0, float(eps))


def _state(psi) -> np.ndarray:
    """A caller's state as a unit (2,) complex array: finite and nonzero,
    normalized elementwise with its global phase kept."""
    v = np.asarray(psi, dtype=complex)
    if v.shape != (2,):
        raise ValueError(f"a state is a (2,) array of (H, V) amplitudes, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state amplitudes must be finite")
    with np.errstate(over="ignore"):
        norm = _norm(v[0], v[1])
    if norm < _NORM_FLOOR:
        raise ValueError("cannot normalize the zero vector")
    if not np.isfinite(norm):
        # the elementwise norm squares the amplitudes, which overflows past ~1e154
        v = v / np.abs(v).max()
    return _unit(v[0], v[1])


def analyzer_basis(postselect_deg: float) -> np.ndarray:
    """The post-selection basis of an analyzer angle in degrees, the only
    way one is made: row 0, the orthogonal partner, maps to outcome label
    D, row 1, the analyzer state itself, to label A. 270 deg gives the
    diagonal (D, A) pair up to the sign of A. An angle so large that its
    partner rounds to a ray not orthogonal to it is NonOrthonormalBasis."""
    basis = linear_states(np.array([postselect_deg - 180.0, postselect_deg]))
    overlap = abs((np.conj(basis[0]) * basis[1]).sum())
    if not overlap <= ORTHONORMAL_TOL:
        raise NonOrthonormalBasis(f"basis overlap |<f0|f1>| = {overlap:.3g}")
    return basis


def _transitions(states: np.ndarray, rows: np.ndarray):
    """(<f|A|psi>, <f|psi>, |<f|psi>|) as three (N, K) arrays over the
    rows psi of ``states`` and f of ``rows``; <f|A|psi> = <A^dag f|psi>."""
    a_dag_f = (np.conj(_STOKES) * rows[:, :, None]).sum(axis=1)
    # the bras as (1, K) arrays: numpy multiplies a (1,) array by a (1, 1)
    # one in another loop, which rounds a complex product differently
    h, v = states[:, :1], states[:, 1:]
    den = np.conj(rows[None, :, 0]) * h + np.conj(rows[None, :, 1]) * v
    return np.conj(a_dag_f[None, :, 0]) * h + np.conj(a_dag_f[None, :, 1]) * v, den, np.abs(den)


def weak_values(num: np.ndarray, den: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """Weak values num / den of a :func:`_transitions` triple, NaN where
    |<f|psi>| is below SINGULARITY_THRESHOLD (PostselectionSingular)."""
    singular = mag < SINGULARITY_THRESHOLD
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(singular, np.nan, num / np.where(singular, 1.0, den))


def fisher_split(num: np.ndarray, den: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """Fisher contributions 4 p(f) (Re wv_f)^2 of a :func:`_transitions`
    triple, (N, 2) for f = (D, A) of a basis, as
    4 (Re(<f|A|psi> conj<f|psi>))^2 / |<f|psi>|^2, continuously extended
    to p(f) -> 0 where the product stays finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        regular = 4.0 * (num * np.conj(den)).real ** 2 / (mag * mag)
        # near the singular point only the phase of <f|psi> enters; 1 at 0
        ph_re = np.where(mag > 0.0, den.real / mag, 1.0)
        ph_im = np.where(mag > 0.0, den.imag / mag, 0.0)
    singular = 4.0 * (num.real * ph_re + num.imag * ph_im) ** 2
    return np.where(mag < SINGULARITY_THRESHOLD, singular, regular)


def _checked(p: np.ndarray, status: np.ndarray):
    """(p, status) with the rows of nonzero status set to NaN; the other
    rows must sum to 1 within 1e-9."""
    p[status != 0] = np.nan
    total = p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3]
    bad = (status == 0) & ~(np.abs(total - 1.0) <= 1e-9)
    if bad.any():
        raise ValueError(f"probabilities sum to {total[bad][0].item()!r}, expected 1")
    return p, status


def check_table(p) -> np.ndarray:
    """A caller's joint table p[4] in CELLS order as a float array, checked: each cell
    at least -1e-12 and read as 0 below 0, summing to 1 within 1e-9 as a model's rows."""
    values = np.asarray(p, dtype=float)
    if values.shape != (len(CELLS),):
        raise ValueError(f"a joint table has {len(CELLS)} cells, got shape {values.shape}")
    for value, cell in zip(values.tolist(), CELLS):
        if value < -1e-12:
            raise ValueError(f"negative probability {value!r} for cell {cell}")
    return _checked(np.maximum(values, 0.0)[None], np.zeros(1))[0][0]


def linear_table(mag, re_wv, eps: float):
    """First-order table p(m, f) = w_m |<f|psi>|^2 (1 + 2 eps kappa_m Re wv_f)
    in CELLS order, and the row status.

    ``mag`` and ``re_wv`` are |<f|psi>| and Re wv_f of the states and a
    basis (:func:`analyzer_basis`), columns (D, A): :func:`sweep_columns`
    computes them once for the table and its own columns, the row that
    :func:`angle_row` gives every point command and ``run_ensemble``.
    Where wv_f is NaN (singular) the row falls back to the interaction-free
    w_m |<f|psi>|^2, exact there to the order retained. A negative cell
    marks the breakdown of the weak-coupling premise: the row is
    LinearizationInvalid. A non-finite ``eps`` is a ValueError, not a
    coupling past the guard.
    """
    if not math.isfinite(eps):
        raise ValueError(f"coupling eps={eps!r} is not finite")
    if not abs(eps) < WEAKNESS_GUARD:
        raise CouplingTooStrong(f"weakness margin {abs(eps):.6g} exceeds guard {WEAKNESS_GUARD:.6g}")
    pf = mag ** 2
    re_wv = np.nan_to_num(re_wv, nan=0.0)
    p = _W * pf[:, _F_ROW] * (1.0 + 2.0 * eps * _KAPPA * re_wv[:, _F_ROW])
    return _checked(p, np.where((p < 0.0).any(axis=1), LinearizationInvalid.exit_code, 0))


# -- the two-photon gate and the exact model ------------------------------


@dataclass(frozen=True)
class GateParams:
    """Amplitude transmittivities of the PPBS and the per-photon H
    compensation amplitude applied after the gate. The defaults are the
    compensated gate, which realizes the controlled sign exactly."""

    t_h: float = 1.0
    t_v: float = 1.0 / math.sqrt(3.0)
    a_h: float = 1.0 / math.sqrt(3.0)

    def __post_init__(self) -> None:
        for name, value in (("t_h", self.t_h), ("t_v", self.t_v), ("a_h", self.a_h)):
            if not (0.0 < value <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {value!r}")


def ppbs_coincidence_operator(params: GateParams) -> tuple[np.ndarray, float]:
    """Coincidence amplitudes of the compensated PPBS over
    {HH, HV, VH, VV}: the diagonal d and the swap coefficient s, with
    out = d * in + s * (in with HV and VH exchanged, HH and VV zeroed)."""
    t_h, t_v, a_h = params.t_h, params.t_v, params.a_h
    r_h, r_v = math.sqrt(1.0 - t_h**2), math.sqrt(1.0 - t_v**2)
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


#: Coincidence amplitudes of the ideal controlled-sign gate as the (d, s)
#: pair of :func:`ppbs_coincidence_operator`: the VV amplitude changes sign.
IDEAL_GATE = (np.array([1.0, 1.0, 1.0, -1.0]), 0.0)

#: The two-photon amplitudes a swap acts on: HV and VH exchange, HH and
#: VV take no part.
_SWAP = [0, 2, 1, 3]
_SWAP_MASK = np.array([0.0, 1.0, 1.0, 0.0])


def two_photon_amplitudes(states: np.ndarray, probe: np.ndarray, gate: tuple) -> np.ndarray:
    """Amplitudes over {HH, HV, VH, VV} of system (x) probe after a gate
    given as (d, s), its four diagonal coincidence amplitudes and its
    HV <-> VH swap coefficient, one row per system state."""
    diag, swap = gate
    amps = (states[:, :, None] * probe[None, None, :]).reshape(-1, 4)
    return amps * diag + swap * amps[:, _SWAP] * _SWAP_MASK


def exact_table(states, eps: float, gate: tuple, basis: np.ndarray):
    """Coincidence table p(m, f) of the exact gate model in CELLS order,
    and the row status.

    The probe enters as |H> + eps |V> normalized. The post-selection
    ``basis`` (:func:`analyzer_basis`) acts on the system photon and the
    meter basis DIAG_BASIS on the probe photon, both mapped onto (D, A).
    Probabilities are renormalized over coincidence events; a row with no
    coincidence amplitude left is ZeroCoincidenceNorm.
    """
    with np.errstate(over="ignore"):  # the square of a numpy scalar would warn
        normalizable = math.isfinite(eps * eps)
    if not normalizable:
        raise ValueError(f"coupling eps={eps!r}: the probe |H> + eps|V> cannot be normalized")
    amps = two_photon_amplitudes(states, probe_state(eps), gate)
    weights = np.abs(amps) ** 2
    norm = weights[:, 0] + weights[:, 1] + weights[:, 2] + weights[:, 3]
    p = np.empty((len(states), 4))
    with np.errstate(divide="ignore", invalid="ignore"):
        for col, (i, j) in enumerate(zip(_F_ROW, _M_ROW)):
            a = np.conj(np.kron(basis[i], DIAG_BASIS[j]))
            amp = a[0] * amps[:, 0] + a[1] * amps[:, 1] + a[2] * amps[:, 2] + a[3] * amps[:, 3]
            p[:, col] = (amp.real**2 + amp.imag**2) / norm
    return _checked(p, np.where(norm < COINCIDENCE_FLOOR, ZeroCoincidenceNorm.exit_code, 0))


def _table(states, mag, re_wv, eps: float, model: ModelTag, gate_params, basis):
    if gate_params is not None and not isinstance(gate_params, GateParams):
        raise TypeError(f"gate_params must be GateParams or None, got {type(gate_params).__name__}")
    if model is ModelTag.EXACT_PPBS:
        return exact_table(states, eps, ppbs_coincidence_operator(gate_params or GateParams()), basis)
    if gate_params is not None:
        raise ValueError("gate_params apply only to model exact-ppbs")
    if model is ModelTag.LINEAR:
        return linear_table(mag, re_wv, eps)
    return exact_table(states, eps, IDEAL_GATE, basis)


def moment_estimates(w_d, w_a, wv_ref):
    """(eps_hat, status) of (p(D|f) - p(A|f)) / (2 wv_ref) per row, with
    p(D|f), p(A|f) the (D, f) and (A, f) weights (counts, cells or
    conditionals) over their sum, taken in float: two Poisson counts can
    sum past 2^63. A row is NaN with the exit code of its first cause: 4
    where wv_ref is NaN (singular post-selection), else 9 where the
    weights sum to 0, else 8 where |wv_ref| < WV_REFERENCE_FLOOR."""
    w_d, w_a = np.asarray(w_d, dtype=float), np.asarray(w_a, dtype=float)
    total = w_d + w_a
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        eps_hat = (w_d / total - w_a / total) / (2.0 * wv_ref)
    status = np.where(np.abs(wv_ref) < WV_REFERENCE_FLOOR, WeakValueReferenceZero.exit_code, 0)
    status = np.where(total > 0.0, status, ZeroProbability.exit_code)
    status = np.where(np.isnan(wv_ref), PostselectionSingular.exit_code, status)
    eps_hat[status != 0] = np.nan
    return eps_hat, status


def sweep_columns(theta_deg, eps: float, model: ModelTag | str, gate_params=None, postselect_deg=270.0):
    """The columns of a theta sweep as arrays keyed by name, the kernel's
    one array entry: float columns NaN where a cell is undefined (the
    joint table, the weak values of both outcomes, the moment estimate
    from the f = A conditionals, the relative error scale 1 / sqrt(F_A)
    and the Fisher split), |<f|psi>| of both outcomes (``overlap_D``,
    ``overlap_A``), ``status``, each row's table status: 0, or the exit
    code of the error of that row, and ``status_eps_hat_A``, the status
    of the moment estimate (:func:`moment_estimates`); a weak value needs
    no status, as ``wv_f`` is NaN exactly where ``overlap_f`` is below
    SINGULARITY_THRESHOLD (code 4). ``gate_params`` applies to the exact
    PPBS model and defaults to the compensated gate; another model
    refuses it (ValueError), and one that is not a GateParams is a
    TypeError. ``theta_deg`` is a 1-D array of angles.

    Only the table and the moment estimate belong to ``model``, gate and
    ``eps``. The weak values, the Fisher split and ``sigma_rel_A`` are the
    first-order values at eps = 0 of the input state and the analyzer,
    alike for every model, gate and eps: at theta = 30 the uncompensated
    PPBS gate, ``GateParams(a_h=1.0)``, has F_A = 3 and F_D = 1 here,
    where its own table carries 0.868 and 0.465."""
    theta = np.asarray(theta_deg, dtype=float)
    if theta.ndim != 1:
        raise ValueError(f"theta_deg must be a 1-D array of angles, got shape {theta.shape}")
    states, basis = linear_states(theta), analyzer_basis(postselect_deg)
    transitions = _transitions(states, basis)
    re_wv = weak_values(*transitions).real
    p, status = _table(states, transitions[2], re_wv, eps, ModelTag(model), gate_params, basis)
    wv_d, wv_a = re_wv.T
    f_d, f_a = fisher_split(*transitions).T
    overlap_d, overlap_a = transitions[2].T
    i_d, i_a = COLUMN[Outcome.A]
    eps_hat, eps_status = moment_estimates(p[:, i_d], p[:, i_a], wv_a)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.where(f_a > SINGULARITY_THRESHOLD, 1.0 / np.sqrt(f_a), np.nan)
    return {
        "theta_deg": theta, "p_DA": p[:, 0], "p_AA": p[:, 1], "p_DD": p[:, 2], "p_AD": p[:, 3],
        "wv_A": wv_a, "wv_D": wv_d, "eps_hat_A": eps_hat, "sigma_rel_A": sigma,
        "F_A": f_a, "F_D": f_d, "F_total": f_d + f_a,
        "overlap_A": overlap_a, "overlap_D": overlap_d, "status": status, "status_eps_hat_A": eps_status,
    }


def angle_row(theta: float, eps: float, model: ModelTag | str, gate_params=None,
              postselect_deg=270.0, f: Outcome | str | None = None):
    """(p, row): the :func:`sweep_columns` row at one angle, as its joint
    table p[4] in CELLS order and as a dict of its columns as Python
    scalars. Raises the error of the table status, then, given an outcome
    f (an :class:`Outcome` or its name; any other name raises
    ValueError), PostselectionSingular (code 4) with the row's |<f|psi>|
    where wv_f is NaN. It refuses the row only: the estimate's refusals
    (4, 9, 8) are :func:`weakmeas.estimation.estimate_epsilon`'s."""
    if f is not None:
        f = Outcome(f)
    cols = sweep_columns([theta], eps, model, gate_params, postselect_deg)
    row = {key: col[0].item() for key, col in cols.items()}
    raise_status(row["status"], eps=eps)
    if f is not None and math.isnan(row[f"wv_{f.value}"]):
        raise_status(PostselectionSingular.exit_code, overlap=row[f"overlap_{f.value}"],
                     threshold=SINGULARITY_THRESHOLD)
    return np.array([row[f"p_{m.value}{g.value}"] for m, g in CELLS]), row


# -- the scalar API: N = 1 calls -------------------------------------------


def weak_value(psi, f) -> complex:
    """Weak value <f|A|psi> / <f|psi> of the Stokes observable for
    preparation psi and post-selection f, both (2,) amplitude arrays.
    Raises PostselectionSingular when |<f|psi>| is below the singularity
    threshold (the divergence there is physical, but a float result past
    measurement precision would be meaningless)."""
    num, den, mag = _transitions(_state(psi)[None], _state(f)[None])
    wv = complex(weak_values(num, den, mag)[0, 0])
    if math.isnan(wv.real):
        raise_status(PostselectionSingular.exit_code, overlap=mag[0, 0], threshold=SINGULARITY_THRESHOLD)
    return wv


def model_distribution(theta: float, eps: float, model: ModelTag | str, gate_params=None,
                       postselect_deg=270.0) -> np.ndarray:
    """Joint table p[4] in CELLS order of the selected model at
    (theta, eps), post-selected in ``analyzer_basis(postselect_deg)``. A
    row the model leaves undefined raises the error of its status."""
    return angle_row(theta, eps, model, gate_params, postselect_deg)[0]


def fisher_information(psi, postselect_deg=270.0) -> np.ndarray:
    """Fisher information about eps at eps = 0 of the state psi, a (2,)
    amplitude array, split by post-selection outcome: the (2,) array
    (F_D, F_A) in the order of the rows of ``analyzer_basis(postselect_deg)``,
    a row of :func:`fisher_split` of its amplitude pair. It takes no meter: with the meter's
    normalization sum_m w_m kappa_m^2 = 1 the result is the same for
    every meter."""
    return fisher_split(*_transitions(_state(psi)[None], analyzer_basis(postselect_deg)))[0]
