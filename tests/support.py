"""The one copy of what several test modules use: the model helpers
``linear``, ``exact``, ``table`` and ``cell``, the closed-form f = A
weak value ``wv_a``, and the command line's table of refusals,
``ERROR_LINES``, with the in-process runner ``run_cli``. A test module
imports it by name, as ``test_acceptance`` imports ``conftest``; no
test module imports another."""

import math

import numpy as np

from weakmeas import CELLS, model_distribution
from weakmeas.cli import main
from weakmeas.kernel import sweep_columns


def linear(deg, eps):
    return model_distribution(deg, eps, "linear")


def exact(deg, eps, params=None, postselect_deg=270.0):
    """The exact table of the ideal gate, or of the PPBS with ``params``."""
    if params is None:
        return model_distribution(deg, eps, "exact-ideal", postselect_deg=postselect_deg)
    return model_distribution(deg, eps, "exact-ppbs", params, postselect_deg)


def table(theta, eps, model, gate=None, postselect=270.0):
    """(p[N, 4] in CELLS order, status[N]) of one sweep_columns call."""
    cols = sweep_columns(theta, eps, model, gate, postselect)
    return np.stack([cols[f"p_{m.value}{f.value}"] for m, f in CELLS], axis=1), cols["status"]


def cell(p, m, f):
    return p[CELLS.index((m, f))]


def wv_a(theta_deg):
    """(cos(t/2)+sin(t/2))/(cos(t/2)-sin(t/2)), the f=A weak value at
    the default analyzer."""
    half = math.radians(theta_deg) / 2.0
    return (math.cos(half) + math.sin(half)) / (math.cos(half) - math.sin(half))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


_T_V = 1 / math.sqrt(3)  # the PPBS t_V of the uncompensated gate
# the uncompensated PPBS at eps = 0 leaves no f = A coincidence at 120 deg
_NO_A_EVENTS = f"--theta 120 --epsilon 0 --model exact-ppbs --tv {_T_V} --ah 1"
_FEW_REPLICAS = "--shots 100 --replicas 2 --seed 0"
_MONTECARLO = "montecarlo --theta 0 --epsilon 0.08"
_GRID = {"--theta-start": "0", "--theta-stop": "10", "--theta-step": "1", "--epsilon": "0.08"}
_ARGUMENT = "weakmeas {}: error: argument {}: "
_SHOTS = {"0": 0, "2^63": 2**63, "2^64": 2**64, "10^400": 10**400}
_TOO_FINE = ("error: --theta-step {} is too fine for the angle {}: the sweep file prints angles "
             "to 12 significant digits, where they would not increase")
_TOO_MANY = "error: --theta-start/--theta-stop/--theta-step give more than 1000000 rows"
_SINGULAR = "error: |<f|psi>| = {} below threshold 1e-08"
_NO_A = "error: post-selection probability p(f=A) is zero"
_ZERO_REFERENCE = "error: |wv_reference| = 2.22e-16 below 1e-08"
_NO_GATE = "error: --{} apply only to --model exact-ppbs"

#: (exit code, argv joined by single spaces, the last line of stderr).
_ROWS = {
    "2-probs-theta-x": (2, "probs --theta x --epsilon 0.08",
                        _ARGUMENT.format("probs", "--theta") + "invalid number value: 'x'"),
    "3-probs-past-guard": (3, "probs --theta 0 --epsilon 0.6 --model linear",
                           "error: weakness margin 0.6 exceeds guard 0.5"),
    "4-weakvalue-singular": (4, "weakvalue --theta 90", _SINGULAR.format(0)),
    "5-probs-negative-cell": (5, "probs --theta 80 --epsilon 0.3 --model linear",
                              "error: a first-order probability is negative; coupling eps=0.3 is "
                              "too strong for this post-selection"),
    # 1e300 - 180 rounds to 1e300: the analyzer and its partner coincide
    "6-fisher-postselect-1e300": (6, "fisher --theta 0 --postselect 1e300",
                                  "error: basis overlap |<f0|f1>| = 1"),
    # t_H = t_V = 1/sqrt 2: a 50:50 splitter leaves no HH coincidence, and
    # at theta = 0, eps = 0 the input is HH alone
    "7-probs-half-splitter": (7, "probs --theta 0 --epsilon 0 --model exact-ppbs --th "
                              "0.7071067811865476 --tv 0.7071067811865476 --ah 1",
                              "error: no coincidence amplitude left after the gate"),
    "8-estimate-zero-reference": (8, "estimate --theta 270 --epsilon 0.08", _ZERO_REFERENCE),
    # wv_A = 1 + sqrt 2 at 45 deg: 2 eps wv rounds to 1, so p(A, A) is 0
    "9-weakvalue-zero-conditional": (9, "weakvalue --theta 45 --eps-probe 0.2071067811865475",
                                     "error: p(A|f;eps) is zero; cannot take its logarithm"),
    # the analyzer at 30 deg is orthogonal to S|psi> at 150 deg: F_A = 0
    "11-fisher-zero-information": (11, "fisher --theta 150 --postselect 30 --shots 100",
                                   "error: Fisher information F_A of the post-selected f=A events "
                                   "is zero"),
    "12-montecarlo-discards": (12, "montecarlo --theta 2 --epsilon 0 --shots 10 --replicas 50 --seed 1",
                               "error: 4 of 50 replicas had a zero count in the f=A column"),
    "20-sweep-missing-directory": (20, "sweep --epsilon 0.08 --out {tmp}/missing/sweep.csv",
                                   "io error: [Errno 2] No such file or directory: "
                                   "'{tmp}/missing/sweep.csv'"),
    # the estimator's status errors as the other commands that run it print them
    "9-estimate-no-a-events": (9, f"estimate {_NO_A_EVENTS}", _NO_A),
    # before the shots: no events to spread them over
    "9-estimate-no-a-events-with-shots": (9, f"estimate {_NO_A_EVENTS} --shots 100", _NO_A),
    "9-montecarlo-no-a-events": (9, f"montecarlo {_NO_A_EVENTS} {_FEW_REPLICAS}", _NO_A),
    # refused as estimate refuses it, where drawing every replica would end
    # in the discard error (exit 12)
    "9-montecarlo-no-a-events-before-any-draw": (
        9, f"montecarlo --theta 120 --epsilon 0 --model exact-ppbs --th 1 --tv {_T_V} --ah 1 "
        "--shots 100 --replicas 20 --seed 3", _NO_A),
    # wv_A at 270 deg is round-off, -2.2e-16
    "8-montecarlo-zero-reference": (8, f"montecarlo --theta 270 --epsilon 0.08 {_FEW_REPLICAS}",
                                    _ZERO_REFERENCE),
    # wv_A = 0 at 270 deg, and one shot leaves an empty cell in every
    # replica: the reference is refused first
    "8-montecarlo-zero-reference-wins-over-discards": (
        8, "montecarlo --theta 270 --epsilon 0 --shots 1 --replicas 50 --seed 1", _ZERO_REFERENCE),
    # the reference weak value's singular post-selection, with the |<f|psi>|
    # of the kernel row: D at 90 deg is orthogonal to A, and A at 270 to D
    "4-montecarlo-singular-a": (4, f"montecarlo --theta 90 --epsilon 0.08 {_FEW_REPLICAS}",
                                _SINGULAR.format(0)),
    "4-montecarlo-singular-d": (4, f"montecarlo --theta 270 --f D --epsilon 0.08 {_FEW_REPLICAS}",
                                _SINGULAR.format(0)),
    "4-estimate-singular": (4, "estimate --theta 90 --epsilon 0.08", _SINGULAR.format(0)),
    "4-montecarlo-near-singular": (4, f"montecarlo --theta 90.0000001 --epsilon 0.08 {_FEW_REPLICAS}",
                                   _SINGULAR.format("8.73e-10")),
    "4-estimate-near-singular": (4, "estimate --theta 90.0000001 --epsilon 0.08",
                                 _SINGULAR.format("8.73e-10")),
    # the sweep's refusals, each before any file is made. An empty --out
    # used to compute the sweep into a temporary file and fail with exit 20
    # on replacing '', naming the temporary file
    "2-sweep-empty-out": (2, "sweep --theta-step 90 --epsilon 0.08 --out ",
                          _ARGUMENT.format("sweep", "--out") + "must name a file, got ''"),
    "2-sweep-1e7-rows": (2, "sweep --theta-stop 1e7 --theta-step 1 --epsilon 0.08 --out sweep.csv",
                         _TOO_MANY),
    "2-sweep-1e30-rows": (2, "sweep --theta-stop 1e30 --epsilon 0.08 --out sweep.csv", _TOO_MANY),
    # grids whose angles would not increase as the file prints them:
    # 10,001 rows of 801 distinct angles, all printed 1e+15
    "2-sweep-too-fine-1e15": (2, "sweep --theta-start 1e15 --theta-stop 1000000000000100 --theta-step "
                              "0.01 --epsilon 0.08 --out sweep.csv",
                              _TOO_FINE.format("0.01", "1000000000000100.0")),
    # 1,001 distinct angles printed as 101 values
    "2-sweep-too-fine-1e10": (2, "sweep --theta-start 1e10 --theta-stop 10000000010 --theta-step 0.01 "
                              "--epsilon 0.08 --out sweep.csv",
                              _TOO_FINE.format("0.01", "10000000010.0")),
    # 994 rows of 63 distinct angles
    "2-sweep-too-fine-1e17": (2, "sweep --theta-start 1e17 --theta-stop 1.00000000000001e17 "
                              "--theta-step 1 --epsilon 0.08 --out sweep.csv",
                              _TOO_FINE.format("1.0", "1.00000000000001e+17")),
    **{f"2-sweep-{option[2:]}-{value}": (
        2, " ".join(["sweep", *(t for kv in {**_GRID, option: value}.items() for t in kv),
                     "--out", "sweep.csv"]),
        _ARGUMENT.format("sweep", option) + f"must be a finite number, got '{value}'")
       for option, value in (("--theta-step", "nan"), ("--theta-stop", "inf"),
                             ("--theta-start", "nan"), ("--epsilon", "nan"), ("--epsilon", "inf"))},
    **{f"2-sweep-step-{name}": (2, f"sweep --theta-step {step} --epsilon 0.08 --out sweep.csv",
                                "error: --theta-step must be positive")
       for name, step in (("0", "0"), ("negative", "-1"))},
    "2-sweep-start-past-stop": (2, "sweep --theta-start 10 --theta-stop 0 --theta-step 1 --epsilon "
                                "0.05 --out x.csv",
                                "error: --theta-start must not exceed --theta-stop"),
    "3-sweep-past-guard": (3, "sweep --epsilon 0.6 --model linear --out sweep.csv",
                           "error: weakness margin 0.6 exceeds guard 0.5"),
    **{f"2-sweep-{model}-probe-1e200": (
        2, f"sweep --epsilon 1e200 --model {model} --out sweep.csv",
        "error: coupling eps=1e+200: the probe |H> + eps|V> cannot be normalized")
       for model in ("exact-ideal", "exact-ppbs")},
    "6-sweep-postselect-1e300": (6, "sweep --epsilon 0.08 --postselect 1e300 --out sweep.csv",
                                 "error: basis overlap |<f0|f1>| = 1"),
    "2-sweep-linear-tv": (2, "sweep --epsilon 0.08 --model linear --tv 0.5 --out sweep.csv",
                          _NO_GATE.format("tv")),
    "2-sweep-th-0": (2, "sweep --epsilon 0.08 --model exact-ppbs --th 0 --out sweep.csv",
                     "error: t_h must lie in (0, 1], got 0.0"),
    # gate options on a model without the gate
    "2-probs-linear-tv": (2, "probs --theta 0 --epsilon 0.08 --model linear --tv 0.5",
                          _NO_GATE.format("tv")),
    "2-probs-exact-ideal-ah": (2, "probs --theta 0 --epsilon 0.08 --model exact-ideal --ah 0.5",
                               _NO_GATE.format("ah")),
    "2-estimate-linear-th": (2, "estimate --theta 0 --epsilon 0.08 --th 1.0", _NO_GATE.format("th")),
    "2-montecarlo-exact-ideal-tv": (2, f"{_MONTECARLO} {_FEW_REPLICAS} --model exact-ideal --tv 0.6",
                                    _NO_GATE.format("tv")),
    # before the analyzer angle is turned into a basis, as in a sweep
    **{f"2-{command}-tv-before-basis": (
        2, f"{command} --theta 0 --epsilon 0.08 --tv 0.5 --postselect 1e300", _NO_GATE.format("tv"))
       for command in ("probs", "estimate")},
    # below 1e-6 the finite difference is round-off: 1e-17 prints 0.0
    **{f"2-weakvalue-probe-{probe}": (
        2, f"weakvalue --theta 30 --eps-probe={probe}",
        _ARGUMENT.format("weakvalue", "--eps-probe") + f"must be at least 1e-06 in magnitude, got "
        f"'{probe}': a smaller probe leaves only round-off in the finite difference")
       for probe in ("1e-7", "1e-17", "0")},
    "2-weakvalue-probe-y": (2, "weakvalue --theta 30 --eps-probe y",
                            _ARGUMENT.format("weakvalue", "--eps-probe") + "invalid number value: 'y'"),
    # seeds, shots and replicas outside their ranges; 10^400 shots used to
    # overflow converting to float, and 10^8 replicas of counts would not
    # fit in 1 GiB
    **{f"2-montecarlo-seed-{name}": (2, f"{_MONTECARLO} --shots 1000 --replicas 2 --seed {seed}",
                                     f"error: seed must lie in [0, 2^64), got {seed}")
       for name, seed in (("negative", -1), ("2^64", 2**64))},
    **{f"2-{argv.split()[0]}-shots-{name}": (
        2, f"{argv} --shots {_SHOTS[name]}",
        _ARGUMENT.format(argv.split()[0], "--shots") + f"must lie in [1, 2^63), got {_SHOTS[name]}")
       for argv, names in ((f"{_MONTECARLO} --replicas 2 --seed 0", ("0", "2^63", "2^64")),
                           ("fisher --theta 30", ("0", "2^63", "10^400")),
                           ("estimate --theta 30 --epsilon 0.08", ("0", "2^63", "10^400")))
       for name in names},
    "2-fisher-shots-abc": (2, "fisher --theta 30 --shots abc",
                           _ARGUMENT.format("fisher", "--shots") + "invalid integer value: 'abc'"),
    "2-montecarlo-1e8-replicas": (2, f"{_MONTECARLO} --shots 10 --replicas 100000000 --seed 0",
                                  "error: replicas must not exceed 10000000, got 100000000"),
    # a negative number in exponent form is a value, not these
    **{f"2-probs-theta-{name}": (2, f"probs {theta} --epsilon 0",
                                 _ARGUMENT.format("probs", "--theta") + message)
       for name, theta, message in (
           ("space-inf", "--theta -inf", "expected one argument"),
           ("equals-inf", "--theta=-inf", "must be a finite number, got '-inf'"),
           ("1e", "--theta -1e", "expected one argument"))},
}

#: Every refusal of the command line: name -> (exit code, argv, the last
#: line of stderr). A row's stderr is that line alone or, for code 2,
#: argparse's usage text and that line; ``{tmp}`` stands for the test's
#: directory. Every exit code that ``weakmeas --help`` lists has a row.
ERROR_LINES = {name: (code, tuple(argv.split(" ")), line) for name, (code, argv, line) in _ROWS.items()}
