"""The library's contract at its boundary: one table of the calls it
refuses, each with its error class and message, and a property that
calls every public function with valid, edge and ill-typed arguments."""

import ast
import functools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import linear, table

import weakmeas
from weakmeas import (
    CouplingTooStrong,
    EnsembleStats,
    GateParams,
    LinearizationInvalid,
    ModelTag,
    NonOrthonormalBasis,
    Outcome,
    PostselectionSingular,
    TooManyDiscardedReplicas,
    WeakMeasError,
    WeakValueReferenceZero,
    ZeroInformation,
    ZeroProbability,
    apparent_fisher,
    cramer_rao_bound,
    estimate_epsilon,
    extract_weak_value,
    fisher_information,
    linear_states,
    model_distribution,
    philox_generator,
    run_ensemble,
    sample_counts,
    weak_value,
)
from weakmeas import estimation, kernel, montecarlo
from weakmeas.kernel import DIAG_BASIS, analyzer_basis, check_table, sweep_columns
from weakmeas.montecarlo import MAX_REPLICAS

F_D, F_A = Outcome.D, Outcome.A
A_STATE = DIAG_BASIS[1]
GOOD = linear(0.0, 0.0)
P_EPS, P_ZERO = linear(30.0, 0.08), linear(30.0, 0.0)
PROBE = r"^eps_probe must be nonzero and finite, got "
WV_FINITE = r"^wv_reference must be finite, got "
NO_GATE = r"^gate_params apply only to model exact-ppbs$"
STATE_FINITE = r"^state amplitudes must be finite$"
OVERLAP_1 = r"^basis overlap \|<f0\|f1>\| = 1$"
NOT_BOOL = r"^'bool' object cannot be interpreted as an integer$"
NOT_REAL = "^expected a real number, got {}$"
NOT_NUMBERS = "^expected an array of numbers, got dtype {}$"


def _table_rows(name, p, error, match):
    """A row for each function that takes a joint table, given ``p``."""
    return [(f"{call.__name__}-{name}", call, args, kwargs, error, match) for call, args, kwargs in (
        (check_table, (p,), {}),
        (extract_weak_value, (p, GOOD, F_A, 0.08), {}),
        (apparent_fisher, (GOOD, p, 0.08), {}),
        (sample_counts, (p, 10), {"seed": 0}),
    )]


#: (id, callable, args, kwargs, error class, match) of each refused call.
REFUSALS = [
    # -- estimation ---------------------------------------------------------
    ("estimate_epsilon-zero-weights-f=D", estimate_epsilon, (0.0, 0.0, 1.0), {"f": "D"},
     ZeroProbability, r"^post-selection probability p\(f=D\) is zero$"),
    ("estimate_epsilon-outcome-required", estimate_epsilon, (0.58, 0.42, 1.0), {},
     TypeError, r"missing 1 required keyword-only argument: 'f'$"),
    ("estimate_epsilon-zero-reference", estimate_epsilon, (0.6, 0.4, 0.0), {"f": F_A},
     WeakValueReferenceZero, r"^\|wv_reference\| = 0 below 1e-08$"),
    # the error of the status, and a reference that is not finite
    ("estimate_epsilon-zero-weights", estimate_epsilon, (0.0, 0.0, 1.0), {"f": F_A},
     ZeroProbability, r"^post-selection probability p\(f=A\) is zero$"),
    ("estimate_epsilon-zero-weights-zero-reference", estimate_epsilon, (0.0, 0.0, 0.0), {"f": F_A},
     ZeroProbability, r"^post-selection probability p\(f=A\) is zero$"),
    # a NaN reference (a singular post-selection) lacks the |<f|psi>| that
    # PostselectionSingular prints; the kernel row refuses that case
    ("estimate_epsilon-zero-weights-nan-reference", estimate_epsilon, (0.0, 0.0, math.nan),
     {"f": F_A}, ValueError, WV_FINITE + "nan$"),
    ("estimate_epsilon-reference-below-floor", estimate_epsilon, (0.6, 0.4, 1e-9), {"f": F_A},
     WeakValueReferenceZero, r"^\|wv_reference\| = 1e-09 below 1e-08$"),
    ("estimate_epsilon-nan-reference", estimate_epsilon, (0.6, 0.4, math.nan), {"f": F_A},
     ValueError, WV_FINITE + "nan$"),
    # an infinite reference would give a zero estimate
    ("estimate_epsilon-inf-reference", estimate_epsilon, (1.0, 0.0, math.inf), {"f": F_A},
     ValueError, WV_FINITE + "inf$"),
    ("estimate_epsilon--inf-reference", estimate_epsilon, (1.0, 0.0, -math.inf), {"f": F_A},
     ValueError, WV_FINITE + "-inf$"),
    *((f"estimate_epsilon-weights-{w_d}-{w_a}", estimate_epsilon, (w_d, w_a, 1.0, None),
       {"f": F_A}, ValueError,
       "^weights must be finite and nonnegative, with a finite sum, got "
       + re.escape(f"({w_d!r}, {w_a!r})") + "$")
      # the sum of the last pair overflowed in the estimator with a RuntimeWarning
      for w_d, w_a in ((-0.1, 1.1), (0.5, math.nan), (math.inf, 1.0), (1e308, 1e308))),
    *((f"estimate_epsilon-n_events-{n}", estimate_epsilon, (0.5, 0.5, 1.0, n), {"f": F_A},
       ValueError, rf"^n_events must be positive and finite when present, got {n!r}$")
      for n in (0.0, math.inf)),
    # it returned an error of inf
    *((f"estimate_epsilon-n_events-{type(n).__name__}-5e-324", estimate_epsilon, (1.0, 1.0, 1.0, n),
       {"f": F_A}, ValueError, r"^n_events=5e-324 gives a non-finite error inf$")
      for n in (5e-324, np.float64(5e-324))),
    ("extract_weak_value-zero-probe", extract_weak_value, (GOOD, GOOD, F_A, 0.0), {},
     ValueError, PROBE + "0.0$"),
    # an exactly-zero count cell makes the log-ratio undefined
    ("extract_weak_value-zero-cell", extract_weak_value,
     (np.array([0.0, 0.5, 0.25, 0.25]), GOOD, F_A, 0.08), {},
     ZeroProbability, r"^p\(D\|f;eps\) is zero; cannot take its logarithm$"),
    ("extract_weak_value-zero-marginal", extract_weak_value, ([0.0, 0.0, 0.5, 0.5], GOOD, F_A, 0.08),
     {}, ZeroProbability, r"^post-selection probability p\(f=A\) is zero$"),
    # a NaN probe would give a NaN weak value, an infinite one 0.0
    *((f"extract_weak_value-probe-{probe}", extract_weak_value, (P_EPS, P_ZERO, F_A, probe), {},
       ValueError, PROBE + f"{probe!r}$")
      for probe in (math.nan, math.inf, -math.inf)),
    # the quotient by a subnormal probe overflows: it returned inf, or warned
    # of the overflow for a numpy float
    *((f"extract_weak_value-probe-{type(probe).__name__}-1e-320", extract_weak_value,
       (P_EPS, P_ZERO, F_A, probe), {}, ValueError,
       r"^eps_probe=(np\.float64\()?1e-320\)? gives a non-finite result inf$")
      for probe in (1e-320, np.float64(1e-320))),
    # these would give the split [nan, nan] and [0.0, 0.0]
    *((f"apparent_fisher-probe-{probe}", apparent_fisher, (P_EPS, P_ZERO, probe), {},
       ValueError, PROBE + f"{probe!r}$")
      for probe in (math.nan, math.inf)),
    # it returned [inf, inf]: at 1e-320 each weak value overflows, at 1e-300
    # only its square
    *((f"apparent_fisher-probe-{probe!r}", apparent_fisher, (P_EPS, P_ZERO, probe), {},
       ValueError, rf"^eps_probe={probe!r} gives a non-finite result \[inf inf\]$")
      for probe in (1e-320, 1e-300)),
    ("apparent_fisher-probe-float64-1e-300", apparent_fisher, (P_EPS, P_ZERO, np.float64(1e-300)), {},
     ValueError, r"^eps_probe=(np\.float64\()?1e-300\)? gives a non-finite result \[inf inf\]$"),
    ("cramer_rao_bound-zero-F_A", cramer_rao_bound, (0.0, 100, F_A), {},
     ZeroInformation, r"^Fisher information F_A of the post-selected f=A events is zero$"),
    ("cramer_rao_bound-zero-F_D", cramer_rao_bound, (0.0, 100, F_D), {},
     ZeroInformation, r"^Fisher information F_D of the post-selected f=D events is zero$"),
    ("cramer_rao_bound-zero-total", cramer_rao_bound, (0.0, 100), {},
     ZeroInformation, r"^total Fisher information is zero$"),
    ("cramer_rao_bound-zero-trials", cramer_rao_bound, (2.0, 0, F_A), {},
     ValueError, r"^n_trials must be positive and finite, got 0$"),
    # the first three would give a bound of nan, 0.0 and 0.0
    *((f"cramer_rao_bound-{fisher}-{n}", cramer_rao_bound, (fisher, n), {}, ValueError,
       f"^{name} must be {rule}, got {value!r}$")
      for fisher, n, name, rule, value in (
          (math.nan, 10, "fisher", "finite", math.nan),
          (math.inf, 10, "fisher", "finite", math.inf),
          (4.0, math.inf, "n_trials", "positive and finite", math.inf),
          (4.0, math.nan, "n_trials", "positive and finite", math.nan))),
    # it returned inf, and warned of the overflow in numpy floats
    ("cramer_rao_bound-subnormal-fisher", cramer_rao_bound, (5e-324, 1), {}, ValueError,
     r"^the bound 1 / \(n_trials \* fisher\) = 1 / 5e-324 is not a positive finite number$"),
    ("cramer_rao_bound-float64-trials", cramer_rao_bound, (1.1125369292536007e-308, np.float64(0.5)),
     {}, ValueError, r"^the bound 1 / \(n_trials \* fisher\) = 1 / 5.562684646268003e-309 is not "),
    ("cramer_rao_bound-outcome-text", cramer_rao_bound, (0.0, 100, "D"), {},
     ZeroInformation, r"^Fisher information F_D "),
    ("cramer_rao_bound-outcome-AD", cramer_rao_bound, (4.0, 100, "AD"), {},
     ValueError, r"^'AD' is not a valid Outcome$"),
    # -- the gate -----------------------------------------------------------
    ("GateParams-t_v-0", GateParams, (), {"t_h": 1.0, "t_v": 0.0, "a_h": 1.0},
     ValueError, r"^t_v must lie in \(0, 1\], got 0.0$"),
    ("GateParams-t_h-1.2", GateParams, (), {"t_h": 1.2, "t_v": 0.5, "a_h": 1.0},
     ValueError, r"^t_h must lie in \(0, 1\], got 1.2$"),
    # -- the kernel ---------------------------------------------------------
    # every model names a non-finite eps; the linear one does not report it
    # as a coupling past its guard (CouplingTooStrong)
    *((f"{name}-{model.value}-eps-{eps!r}", call, (theta, eps, model), {},
       ValueError, f"^coupling eps={eps!r}")
      for name, call, theta in (("joint_table", table, [30.0]), ("sweep_columns", sweep_columns, [30.0]),
                                ("model_distribution", model_distribution, 30.0))
      for eps in (math.nan, math.inf, -math.inf) for model in ModelTag),
    # a gate another model would not apply: the table would come back as if
    # no gate had been given
    *((f"{call.__name__}-{model}-gate", call, (theta, 0.08, model, GateParams(a_h=1.0)), {},
       ValueError, NO_GATE)
      for call, theta in ((model_distribution, 30.0), (sweep_columns, [30.0]))
      for model in ("linear", "exact-ideal")),
    # the square of a numpy float warned of its overflow
    ("model_distribution-exact-ideal-eps-float64-1e200", model_distribution,
     (0.0, np.float64(1e200), "exact-ideal"), {}, ValueError,
     r"^coupling eps=(np\.float64\()?1e\+200\)?: the probe \|H> \+ eps\|V> cannot be normalized$"),
    # it raised AttributeError
    ("model_distribution-gate-nan", model_distribution, (0.0, 0.0, ModelTag.EXACT_PPBS, math.nan), {},
     TypeError, r"^gate_params must be GateParams or None, got float$"),
    ("sweep_columns-coupling-past-guard", sweep_columns,
     (np.arange(0.0, 360.0, 2.5), 0.6, ModelTag.LINEAR), {},
     CouplingTooStrong, r"^weakness margin 0.6 exceeds guard 0.5$"),
    ("sweep_columns-nan-angle", sweep_columns, ([0.0, math.nan], 0.08, ModelTag.LINEAR), {},
     ValueError, r"^angle must be finite$"),
    ("sweep_columns-theta-scalar", sweep_columns, (30.0, 0.08, ModelTag.LINEAR), {},
     ValueError, r"^theta_deg must be a 1-D array of angles, got shape \(\)$"),
    ("sweep_columns-theta-2d", sweep_columns, ([[0.0, 30.0]], 0.08, ModelTag.LINEAR), {},
     ValueError, r"^theta_deg must be a 1-D array of angles, got shape \(1, 2\)$"),
    # 1e300 - 180 rounds to 1e300: both rows of the basis are the same state;
    # the library functions take the angle and make the basis from it
    ("analyzer_basis-1e300", analyzer_basis, (1e300,), {}, NonOrthonormalBasis, OVERLAP_1),
    ("model_distribution-postselect-1e300", model_distribution, (30.0, 0.05, "linear"),
     {"postselect_deg": 1e300}, NonOrthonormalBasis, OVERLAP_1),
    ("fisher_information-postselect-1e300", fisher_information, (linear_states(30.0), 1e300), {},
     NonOrthonormalBasis, OVERLAP_1),
    ("linear_states-nan", linear_states, (math.nan,), {}, ValueError, r"^angle must be finite$"),
    # it returned a (1, 2, 2) array
    ("linear_states-2d", linear_states, ([[0.5, 0.5]],), {},
     ValueError, r"^angles are one number or a 1-D array, got shape \(1, 2\)$"),
    # a caller's state, checked once at the scalar functions
    ("weak_value-zero-vector", weak_value, ([0.0, 0.0], A_STATE), {},
     ValueError, r"^cannot normalize the zero vector$"),
    *((f"weak_value-{name}", weak_value, args, {}, ValueError, STATE_FINITE)
      for psi, label in (([math.inf, 1.0], "inf"), ([complex(0.0, math.nan), 1.0], "nan-j"))
      for name, args in ((f"psi-{label}", (psi, A_STATE)), (f"f-{label}", (A_STATE, psi)))),
    ("weak_value-shape", weak_value, ([1.0, 0.0, 0.0], A_STATE), {},
     ValueError, r"^a state is a \(2,\) array of \(H, V\) amplitudes, got shape \(3,\)$"),
    ("weak_value-singular", weak_value, (linear_states(90.0), A_STATE), {},
     PostselectionSingular, r"^\|<f\|psi>\| = \S+ below threshold 1e-08$"),
    # a joint table is p[4] in CELLS order; each function that takes one
    # checks it. The total prints as a Python float, as numpy 2 would not
    *_table_rows("one-cell", [1.0], ValueError, r"^a joint table has 4 cells, got shape \(1,\)$"),
    *_table_rows("nested", [[0.25] * 4], ValueError,
                 r"^a joint table has 4 cells, got shape \(1, 4\)$"),
    *_table_rows("total-1.2", [0.3] * 4, ValueError, r"^probabilities sum to 1.2, expected 1$"),
    *_table_rows("total-nan", [math.nan, 0.5, 0.25, 0.25], ValueError,
                 r"^probabilities sum to nan, expected 1$"),
    *_table_rows("negative", [-0.01, 0.51, 0.25, 0.25], ValueError,
                 r"^negative probability -0.01 for cell \("),
    # below the round-off of -1e-12 that a table may carry
    ("check_table-past-round-off", check_table, ([-1e-11, 0.5 + 1e-11, 0.25, 0.25],), {},
     ValueError, r"^negative probability -1e-11 for cell \("),
    # wv(80 deg) = tan(85 deg) = 11.43; 2*0.1*wv > 1 flips a cell sign
    ("model_distribution-negative-cell", model_distribution, (80.0, 0.1, "linear"), {},
     LinearizationInvalid, r"^a first-order probability is negative; coupling eps=0.1 is too "
     r"strong for this post-selection$"),
    *((f"{call.__name__}-model-{model!r}", call, args, {}, ValueError,
       f"^{re.escape(repr(model))} is not a valid ModelTag$")
      for model in (None, 3, "bogus", "LINEAR", " linear", "exact_ideal")
      for call, args in ((ModelTag, (model,)), (model_distribution, (0.0, 0.08, model)))),
    # -- montecarlo ---------------------------------------------------------
    ("sample_counts-mode", sample_counts, (GOOD, 10), {"seed": 0, "mode": "bootstrap"},
     ValueError, r"^unknown sampling mode 'bootstrap'$"),
    *((f"sample_counts-shots-{n}", sample_counts, (GOOD, n), {"seed": 0},
       ValueError, rf"^shots must lie in \[1, 2\^63\), got {n}$")
      for n in (0, -1, 2**63, 2**64)),
    ("sample_counts-two-cells", sample_counts, ([0.5, 0.5], 10), {"seed": 0},
     ValueError, r"^a joint table has 4 cells, got shape \(2,\)$"),
    # theta=2 deg: p(m, A) ~ 1.5e-4, so n=10 leaves empty cells
    ("run_ensemble-discards", run_ensemble, (2.0, 0.0, ModelTag.LINEAR, 10, 50), {"base_seed": 21},
     TooManyDiscardedReplicas, r"^8 of 50 replicas had a zero count in the f=A column$"),
    *((f"run_ensemble-{model.value}-gate", run_ensemble, (30.0, 0.08, model, 1000, 10, 1),
       {"gate_params": GateParams(a_h=1.0)}, ValueError, NO_GATE)
      for model in (ModelTag.LINEAR, ModelTag.EXACT_IDEAL)),
    ("run_ensemble-one-replica", run_ensemble, (0.0, 0.0, ModelTag.LINEAR, 100, 1), {"base_seed": 0},
     ValueError, r"^need at least two replicas$"),
    # a bool is not an integer: these drew as the seed, stream, shots or
    # replicas 1 (or 0), or refused True replicas as too few
    *((f"{call.__name__}-{name}-bool", call, args, kwargs, TypeError, NOT_BOOL)
      for call, name, args, kwargs in (
          (philox_generator, "seed", (True,), {}),
          (philox_generator, "stream", (0, True), {}),
          (sample_counts, "shots", (GOOD, True, 0), {}),
          (sample_counts, "seed", (GOOD, 10, False), {}),
          (run_ensemble, "shots", (30.0, 0.08, ModelTag.LINEAR, True, 10, 0), {}),
          (run_ensemble, "replicas", (30.0, 0.08, ModelTag.LINEAR, 1000, True, 0), {}),
          (run_ensemble, "base_seed", (30.0, 0.08, ModelTag.LINEAR, 1000, 10), {"base_seed": True}),
      )),
    *((f"philox_generator-{name}", philox_generator, args, {}, ValueError,
       rf"^{name.split('-')[0]} must lie in \[0, 2\^64\), got {value}$")
      for name, args, value in (("seed-2^64", (2**64,), 2**64), ("stream--1", (0, -1), -1))),
    ("run_ensemble-replicas-past-max", run_ensemble,
     (30.0, 0.08, ModelTag.LINEAR, 1000, MAX_REPLICAS + 1, 0), {}, ValueError,
     rf"^replicas must not exceed {MAX_REPLICAS}, got {MAX_REPLICAS + 1}$"),
    # -- numbers at the boundary --------------------------------------------
    # a bool or a string for a number: these returned a value, or raised
    # numpy's TypeError or an OverflowError. A scalar int past the float
    # range reads as inf; in an array it has object dtype
    *((f"{call.__name__}-{name}", call, args, kwargs, TypeError, match)
      for call, name, args, kwargs, match in (
          (cramer_rao_bound, "trials-bool", (4.0, True), {}, NOT_REAL.format("bool")),
          (cramer_rao_bound, "fisher-bool", (True, 10), {}, NOT_REAL.format("bool")),
          (model_distribution, "theta-text", ("30", 0.08, "linear"), {}, NOT_REAL.format("str")),
          (linear_states, "10^400", (10**400,), {}, NOT_NUMBERS.format("object")),
          (linear_states, "text", ("30",), {}, NOT_NUMBERS.format(".U2")),
          (estimate_epsilon, "text", ("0.6", "0.4", "1.0"), {"f": "A"}, NOT_REAL.format("str")),
          (estimate_epsilon, "n_events-bool", (0.6, 0.4, 1.0, True), {"f": "A"},
           NOT_REAL.format("bool")),
          (sweep_columns, "theta-text", (["30"], 0.08, "linear"), {}, NOT_NUMBERS.format(".U2")),
          (weak_value, "text", (["1", "0"], A_STATE), {}, NOT_NUMBERS.format(".U1")),
          (sample_counts, "table-text", ([".25"] * 4, 10, 0), {}, NOT_NUMBERS.format(".U3")),
          (check_table, "bool", ([True, False, False, False],), {}, NOT_NUMBERS.format("bool")),
          (fisher_information, "postselect-text", ([1, 0], "270"), {}, NOT_REAL.format("str")),
          (GateParams, "bool", (True, True, True), {}, NOT_REAL.format("bool")),
          (run_ensemble, "theta-bool", (True, 0.08, "linear", 1000, 10, 0), {},
           NOT_REAL.format("bool")),
      )),
    ("cramer_rao_bound-trials-10^400", cramer_rao_bound, (4.0, 10**400), {}, ValueError,
     f"^n_trials must be positive and finite, got {10**400}$"),
    ("model_distribution-theta-10^400", model_distribution, (10**400, 0.08, "linear"), {},
     ValueError, r"^angle must be finite$"),
    ("estimate_epsilon-weight-10^400", estimate_epsilon, (10**400, 1, 1.0), {"f": "A"}, ValueError,
     r"^weights must be finite and nonnegative, with a finite sum, got \(inf, 1.0\)$"),
]


@pytest.mark.parametrize("call, args, kwargs, error, match", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, args, kwargs, error, match):
    with pytest.raises(error, match=match) as info:
        call(*args, **kwargs)
    assert type(info.value) is error


@functools.cache
def refusal_messages():
    """The message of each row of REFUSALS, as it runs."""
    messages = []
    for _, call, args, kwargs, error, _ in REFUSALS:
        with pytest.raises(error) as info:
            call(*args, **kwargs)
        messages.append(str(info.value))
    return messages


@pytest.mark.parametrize("module", [kernel, estimation, montecarlo], ids=lambda m: m.__name__)
def test_every_refusal_message_has_a_row(module):
    # each message the module raises, its formatted values read as .+,
    # is the message of a row; the layout checks (RuntimeError) are
    # tested by spying on numpy in test_montecarlo
    raised = [node.exc for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and node.exc.func.id != "RuntimeError"]
    assert raised
    for exc in raised:
        message = exc.args[0]
        parts = message.values if isinstance(message, ast.JoinedStr) else [message]
        pattern = "".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".+" for p in parts)
        assert any(re.fullmatch(pattern, m) for m in refusal_messages()), pattern


#: Edge floats, as Python and numpy floats, and values of another type or
#: shape than an argument takes.
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308, 0.0, -0.0]
EDGES = st.sampled_from([*EDGE_FLOATS, *map(np.float64, EDGE_FLOATS)])
OTHERS = st.sampled_from(["abc", "", None, True, [], [[0.5, 0.5]], {}, np.float64(0.5),
                          np.int64(2), np.bool_(False)])
#: Values that read as numbers but are not: each a number argument refuses,
#: the int past the float range as not finite.
NEAR_NUMBERS = st.sampled_from(["0.5", "30", np.bool_(True), 10**400, ["0.25"] * 4, ["1", "0"],
                                ["30"]])
#: Integers at and past the ends of the ranges of shots, replicas and
#: seeds, and the edge floats.
INT_EDGES = st.one_of(EDGES, st.sampled_from([-1, 0, 1, 2**63, 2**64, 10**8]))


def arg(valid, edges=EDGES):
    """``valid``, or in about one draw of eight an edge value, one of OTHERS
    or one of NEAR_NUMBERS."""
    return st.integers(0, 7).flatmap(
        lambda k: st.one_of(edges, OTHERS, NEAR_NUMBERS) if k == 0 else valid)


def count(valid):
    """An integer argument of montecarlo: ``arg(valid, INT_EDGES)``, or in
    about one draw of eight a bool, which must be refused."""
    return st.integers(0, 7).flatmap(lambda k: st.booleans() if k == 0 else arg(valid, INT_EDGES))


def no_bool_or_text(*values):
    """Whether no value is a bool or text, bare or in a list."""
    return not any(isinstance(value, (bool, np.bool_, str))
                   or isinstance(value, list) and not no_bool_or_text(*value) for value in values)


ANGLE, EPS, UNIT = arg(st.floats(-720.0, 720.0)), arg(st.floats(-0.3, 0.3)), arg(st.floats(0.0, 1.0))
AMPLITUDE = st.floats(0.0, 1.0, exclude_min=True)
TABLE = arg(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0).map(
    lambda w: (np.array(w) / sum(w)).tolist()))
STATE = arg(st.lists(st.complex_numbers(max_magnitude=1e3), min_size=2, max_size=2))
OUTCOME = arg(st.sampled_from(["A", "D", *Outcome]))
MODEL = arg(st.sampled_from([*ModelTag, *(m.value for m in ModelTag)]))
GATE = arg(st.one_of(st.none(), st.builds(GateParams, AMPLITUDE, AMPLITUDE, AMPLITUDE)))
SEED = count(st.integers(0, 2**64 - 1))
MODE = arg(st.sampled_from(["multinomial", "poisson"]))


def is_array(value, shape, kind="f"):
    return isinstance(value, np.ndarray) and value.shape == shape and value.dtype.kind == kind


#: (callable, its positional arguments, its keyword arguments, the
#: positions of the arguments that are numbers, whether a value it returns
#: has the documented type and shape) of each public callable. A valid
#: ensemble has at most 200 replicas of at most 10^5 shots. A call given a
#: bool or text for a number must refuse it.
CALLS = [
    (apparent_fisher, (TABLE, TABLE, EPS), {}, (0, 1, 2), lambda v, a: is_array(v, (2,))),
    (cramer_rao_bound, (arg(st.floats(0.0, 10.0)),
                        arg(st.integers(1, 10**9) | st.floats(1.0, 1e9), INT_EDGES),
                        arg(st.none() | OUTCOME)), {}, (0, 1), lambda v, a: type(v) is float),
    (estimate_epsilon, (UNIT, UNIT, arg(st.floats(-10.0, 10.0)), arg(st.none() | st.floats(1.0, 1e6))),
     {"f": OUTCOME}, (0, 1, 2, 3),
     lambda v, a: type(v[0]) is float and (v[1] is None) == (a[3] is None)),
    (extract_weak_value, (TABLE, TABLE, OUTCOME, EPS), {}, (0, 1, 3), lambda v, a: type(v) is float),
    (fisher_information, (STATE, ANGLE), {}, (0, 1), lambda v, a: is_array(v, (2,))),
    (linear_states, (arg(st.floats(-720.0, 720.0) | st.lists(st.floats(-720.0, 720.0), max_size=3)),),
     {}, (0,), lambda v, a: is_array(v, (2,) if np.ndim(a[0]) == 0 else (len(a[0]), 2), "c")),
    (model_distribution, (ANGLE, EPS, MODEL, GATE, ANGLE), {}, (0, 1, 4),
     lambda v, a: is_array(v, (4,))),
    (weak_value, (STATE, STATE), {}, (0, 1), lambda v, a: type(v) is complex),
    (philox_generator, (SEED, SEED), {}, (0, 1), lambda v, a: isinstance(v, np.random.Generator)),
    (run_ensemble, (ANGLE, EPS, MODEL, count(st.integers(1, 10**5)), count(st.integers(2, 200)),
                    SEED, OUTCOME, GATE, MODE), {}, (0, 1, 3, 4, 5),
     lambda v, a: isinstance(v, EnsembleStats) and v.n_replicas + v.n_discarded == a[4]),
    (sample_counts, (TABLE, count(st.integers(1, 10**5)), SEED, MODE), {}, (0, 1, 2),
     lambda v, a: is_array(v, (4,), "i")),
    (GateParams, (arg(AMPLITUDE),) * 3, {}, (0, 1, 2), lambda v, a: isinstance(v, GateParams)),
    (ModelTag, (MODEL,), {}, (), lambda v, a: isinstance(v, ModelTag)),
    (Outcome, (OUTCOME,), {}, (), lambda v, a: isinstance(v, Outcome)),
]


def numbers(value):
    """The numbers in a returned value, an array, a tuple or a record."""
    if isinstance(value, (tuple, EnsembleStats)):
        items = value if isinstance(value, tuple) else vars(value).values()
        return [x for item in items if item is not None for x in numbers(item)]
    return np.ravel(value).tolist() if isinstance(value, (np.ndarray, float, complex)) else []


def test_every_public_callable_is_called():
    # the error classes and EnsembleStats are records of what they are given
    records = {EnsembleStats, *WeakMeasError.__subclasses__(), WeakMeasError}
    public = {getattr(weakmeas, name) for name in weakmeas.__all__}
    assert {call for call, *_ in CALLS} == {x for x in public if callable(x)} - records


@pytest.mark.parametrize("call, args, kwargs, number_at, documented", CALLS,
                         ids=[c[0].__name__ for c in CALLS])
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_public_call_returns_finite_values_or_refuses(call, args, kwargs, number_at, documented,
                                                      data):
    args, kwargs = data.draw(st.tuples(*args)), data.draw(st.fixed_dictionaries(kwargs))
    try:
        value = call(*args, **kwargs)
    except (WeakMeasError, ValueError, TypeError):
        return
    assert no_bool_or_text(*(args[i] for i in number_at)), args
    assert documented(value, args), value
    assert all(np.isfinite(numbers(value))), value
