"""The one copy of what several test modules use: the model helpers
``linear``, ``exact``, ``table`` and ``cell``, the closed-form f = A
weak value ``wv_a``, and the CLI's pinned invocations and error lines
with the in-process runner ``run_cli``. A test module imports it by
name, as ``test_acceptance`` imports ``conftest``; no test module
imports another."""

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


#: One real invocation per exit code that ``weakmeas --help`` lists.
EXIT_CODE_INVOCATIONS = {
    2: ("probs", "--theta", "x", "--epsilon", "0.08"),
    3: ("probs", "--theta", "0", "--epsilon", "0.6", "--model", "linear"),
    4: ("weakvalue", "--theta", "90"),
    5: ("probs", "--theta", "80", "--epsilon", "0.3", "--model", "linear"),
    # 1e300 - 180 rounds to 1e300: the analyzer and its partner coincide
    6: ("fisher", "--theta", "0", "--postselect", "1e300"),
    # t_H = t_V = 1/sqrt 2: a 50:50 splitter leaves no HH coincidence, and
    # at theta = 0, eps = 0 the input is HH alone
    7: ("probs", "--theta", "0", "--epsilon", "0", "--model", "exact-ppbs",
        "--th", "0.7071067811865476", "--tv", "0.7071067811865476", "--ah", "1"),
    8: ("estimate", "--theta", "270", "--epsilon", "0.08"),
    # wv_A = 1 + sqrt 2 at 45 deg: 2 eps wv rounds to 1, so p(A, A) is 0
    9: ("weakvalue", "--theta", "45", "--eps-probe", "0.2071067811865475"),
    # the analyzer at 30 deg is orthogonal to S|psi> at 150 deg: F_A = 0
    11: ("fisher", "--theta", "150", "--postselect", "30", "--shots", "100"),
    12: ("montecarlo", "--theta", "2", "--epsilon", "0", "--shots", "10",
         "--replicas", "50", "--seed", "1"),
    20: ("sweep", "--epsilon", "0.08", "--out", "{tmp}/missing/sweep.csv"),
}

#: The stderr line each EXIT_CODE_INVOCATIONS entry ends with: all of
#: stderr, or after argparse's usage text for code 2.
EXIT_CODE_LINES = {
    2: "weakmeas probs: error: argument --theta: invalid number value: 'x'",
    3: "error: weakness margin 0.6 exceeds guard 0.5",
    4: "error: |<f|psi>| = 0 below threshold 1e-08",
    5: "error: a first-order probability is negative; coupling eps=0.3 is too strong for this "
       "post-selection",
    6: "error: basis overlap |<f0|f1>| = 1",
    7: "error: no coincidence amplitude left after the gate",
    8: "error: |wv_reference| = 2.22e-16 below 1e-08",
    9: "error: p(A|f;eps) is zero; cannot take its logarithm",
    11: "error: Fisher information F_A of the post-selected f=A events is zero",
    12: "error: 4 of 50 replicas had a zero count in the f=A column",
    20: "io error: [Errno 2] No such file or directory: '{tmp}/missing/sweep.csv'",
}

# the uncompensated PPBS at eps = 0 leaves no f = A coincidence at 120 deg
_NO_A_EVENTS = ("--theta", "120", "--epsilon", "0", "--model", "exact-ppbs",
                "--tv", str(1 / math.sqrt(3)), "--ah", "1")
_FEW_REPLICAS = ("--shots", "100", "--replicas", "2", "--seed", "0")

#: (code, argv, stderr line) of every EXIT_CODE_INVOCATIONS entry, and of
#: the estimator's status errors as the other commands that run it print them.
ERROR_LINES = [(code, argv, EXIT_CODE_LINES[code]) for code, argv in EXIT_CODE_INVOCATIONS.items()] + [
    (9, ("estimate", *_NO_A_EVENTS), "error: post-selection probability p(f=A) is zero"),
    (9, ("montecarlo", *_NO_A_EVENTS, *_FEW_REPLICAS),
     "error: post-selection probability p(f=A) is zero"),
    # wv_A at 270 deg is round-off, -2.2e-16
    (8, ("montecarlo", "--theta", "270", "--epsilon", "0.08", *_FEW_REPLICAS),
     "error: |wv_reference| = 2.22e-16 below 1e-08"),
    # the reference weak value's singular post-selection, with the |<f|psi>|
    # of the kernel row: D at 90 deg is orthogonal to A, and A at 270 to D
    (4, ("montecarlo", "--theta", "90", "--epsilon", "0.08", *_FEW_REPLICAS),
     "error: |<f|psi>| = 0 below threshold 1e-08"),
    (4, ("montecarlo", "--theta", "270", "--f", "D", "--epsilon", "0.08", *_FEW_REPLICAS),
     "error: |<f|psi>| = 0 below threshold 1e-08"),
    (4, ("estimate", "--theta", "90", "--epsilon", "0.08"),
     "error: |<f|psi>| = 0 below threshold 1e-08"),
    (4, ("montecarlo", "--theta", "90.0000001", "--epsilon", "0.08", *_FEW_REPLICAS),
     "error: |<f|psi>| = 8.73e-10 below threshold 1e-08"),
    (4, ("estimate", "--theta", "90.0000001", "--epsilon", "0.08"),
     "error: |<f|psi>| = 8.73e-10 below threshold 1e-08"),
]
