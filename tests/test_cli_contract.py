"""The command line's contract over random argv, for every command:

* the exit code is one that ``weakmeas --help`` lists;
* a command that exits 0 prints nothing to stderr and only finite
  numbers to stdout, and ``probs`` prints ``model_distribution`` at the
  same arguments;
* a command that exits with another code prints nothing to stdout and
  one ``error:`` or ``io error:`` line to stderr, or argparse's usage
  text for code 2;
* a refused sweep leaves the file at ``--out`` as it was, or absent, and
  an accepted one writes angles that strictly increase as the file
  prints them, CSV or JSON.

The argv are drawn from the parser's own commands and choices, with
numbers over the whole float range (NaN and infinity included, which the
parser refuses), gate options also on the models that refuse them, shot
counts, replica counts and seeds beyond their ranges, and sweep grids
with starts up to 1e17.
Each runs in process through ``weakmeas.cli.main``. A montecarlo
command draws at most 200 replicas of at most 10^6 shots, and a sweep the
parser accepts has at most 2,000 rows, which keeps the run near a few
seconds. The examples are fixed (``derandomize=True``), so a run is
reproducible.
"""

import argparse
import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weakmeas import args as cli_args
from weakmeas.cli import _theta_grid, main
from weakmeas.kernel import GateParams, model_distribution

PARSER = cli_args.build_parser()
SUBPARSERS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices
EXIT_CODES = {0} | {code for code, _ in cli_args._exit_code_table()}

#: Numbers at the edges of what the command line gets: the extremes of
#: the float range, NaN and infinity, as their repr or as literal text.
edge_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-0.0", "5e-324", "-5e-324", "1e-300", "1e308", "-1e308",
                     "1.7976931348623157e+308", "1e400", "nan", "inf", "-inf", "0.5", "-0.5",
                     "abc"]),
)
#: Angles: any on two turns, and the singular ones of the default
#: analyzer and their neighbours.
angles = st.one_of(st.floats(-720.0, 720.0).map(repr),
                   st.sampled_from(["90", "270", "90.0000001", "269.9999999"]))
#: Counts of shots, replicas or seeds at and past the ends of their ranges.
edge_counts = st.sampled_from([-1, 0, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**400])

#: Per option, (usual values, edge values); an option takes an edge value
#: in about one draw of eight. montecarlo's shots stay at most 10^6, or are
#: refused, and its replicas at most 200, or are refused before a draw.
VALUES = {
    "--theta": (angles, edge_numbers),
    "--postselect": (angles, edge_numbers),
    "--epsilon": (st.floats(-0.3, 0.3).map(repr), edge_numbers),
    "--eps-probe": (st.floats(-0.3, 0.3).map(repr), edge_numbers),
    "--tv": (st.floats(0.01, 1.0).map(repr), edge_numbers),
    "--th": (st.floats(0.01, 1.0).map(repr), edge_numbers),
    "--ah": (st.floats(0.01, 1.0).map(repr), edge_numbers),
    "--shots": (st.integers(1, 10**6), edge_counts),
    "--replicas": (st.integers(2, 200), st.sampled_from([-1, 0, 1, 10**7 + 1, 10**30])),
    "--seed": (st.integers(0, 2**64 - 1), edge_counts),
}
MONTECARLO_SHOTS = edge_counts.filter(lambda n: not 1 <= n < 2**63)

#: Most rows of a sweep the parser accepts that this property runs.
SWEEP_ROWS = 2000


def grid_rows(start: str, stop: str, step: str) -> int:
    """The rows of the sweep grid of these texts, 0 where it is refused."""
    try:
        return len(_theta_grid(float(start), float(stop), float(step)))
    except ValueError:
        return 0


#: (start, stop, step) texts: a small grid, or edge numbers that the grid
#: check refuses or that span at most SWEEP_ROWS rows.
small_grids = st.builds(
    lambda start, step, n: (repr(start), repr(start + step * n), repr(step)),
    st.floats(-720.0, 720.0), st.floats(1e-3, 400.0), st.integers(0, SWEEP_ROWS - 2),
)
edge_grids = st.tuples(edge_numbers, edge_numbers, edge_numbers).filter(
    lambda g: grid_rows(*g) <= SWEEP_ROWS
)


def _large_grid(start: float, digits: int, n: int) -> tuple[str, str, str]:
    step = max(abs(start), 1.0) * 10.0**-digits
    return repr(start), repr(start + step * n), repr(step)


#: (start, stop, step) texts of about n rows, with starts up to 1e17 and
#: steps 10^-6 to 10^-16 of the start, on both sides of what the angles'
#: 12 printed digits resolve.
large_grids = st.builds(_large_grid, st.floats(-1e17, 1e17), st.integers(6, 16),
                        st.integers(1, 50))

#: Where a sweep writes: a file that exists and a path with no file, or
#: at the edges a directory and a path in a directory that does not exist.
OUT_PATHS = ("old.csv", "new.csv", ".", "missing/sweep.csv")
OLD_TEXT = "a file the sweep replaces only when it is whole\n"
GATE_FLAGS = ("--tv", "--th", "--ah")


def pick(draw, usual, edge):
    """A draw from ``usual``, or in about one draw of eight from ``edge``."""
    return draw(edge if draw(st.integers(0, 7)) == 0 else usual)


@st.composite
def invocations(draw):
    """An argv list for one command: each required option, each other
    option in about half the draws, in a random order."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    options = []
    for action in SUBPARSERS[command]._actions:
        flag = action.option_strings[-1] if action.option_strings else None
        if flag in (None, "--help") or flag.startswith("--theta-"):
            continue
        # a gate option in about one draw of six, as two models refuse it
        if not action.required and draw(st.integers(0, 5 if flag in GATE_FLAGS else 1)):
            continue
        if action.choices is not None:
            value = draw(st.sampled_from(list(action.choices)))
        elif flag == "--out":
            value = pick(draw, st.sampled_from(OUT_PATHS[:2]), st.sampled_from(OUT_PATHS[2:]))
        elif (command, flag) == ("montecarlo", "--shots"):
            value = pick(draw, VALUES[flag][0], MONTECARLO_SHOTS)
        else:
            value = pick(draw, *VALUES[flag])
        options.append([flag, str(value)])
    if command == "sweep":
        options += [list(pair) for pair in zip(("--theta-start", "--theta-stop", "--theta-step"),
                                              pick(draw, st.one_of(small_grids, large_grids),
                                                   edge_grids))]
    options = draw(st.permutations(options))
    return [command, *(word for option in options for word in option)]


def finite_numbers(text: str) -> None:
    """Assert that every number in the JSON or CSV ``text`` is finite."""
    try:
        payload = json.loads(text, parse_constant=lambda word: math.nan)
    except json.JSONDecodeError:  # probs --format csv: a header and one row
        header, row = text.splitlines()
        values = [float(cell) for cell in row.split(",")]
        assert len(values) == len(header.split(","))
    else:
        values = [v for v in payload.values() if isinstance(v, (int, float))]
    assert all(math.isfinite(v) for v in values), text


def option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_sweep(argv) -> None:
    """The sweep file's angles strictly increase as it prints them."""
    with open(option(argv, "--out"), encoding="utf-8") as handle:
        if option(argv, "--format", "csv") == "json":
            angles = [row["theta_deg"] for row in json.load(handle)["rows"]]
        else:
            angles = [float(line.split(",", 1)[0]) for line in handle.readlines()[1:]]
    assert all(a < b for a, b in zip(angles, angles[1:])), angles


def check_probs(argv, out: str) -> None:
    """``probs`` printed ``model_distribution`` at its arguments."""
    model = option(argv, "--model", "linear")
    gate = None
    if model == "exact-ppbs":
        gate = GateParams(**{name: float(option(argv, flag)) for name, flag in
                             (("t_v", "--tv"), ("t_h", "--th"), ("a_h", "--ah")) if flag in argv})
    want = model_distribution(float(option(argv, "--theta")), float(option(argv, "--epsilon")),
                              model, gate, float(option(argv, "--postselect", "270")))
    keys = ("p_DA", "p_AA", "p_DD", "p_AD")
    if option(argv, "--format", "json") == "json":
        assert [json.loads(out)[k] for k in keys] == want.tolist()
    else:
        assert out == ",".join(keys) + "\n" + ",".join("%.12g" % p for p in want.tolist()) + "\n"


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(argv=invocations())
def test_cli_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        old = os.path.join(tmp, "old.csv")
        with open(old, "w", encoding="utf-8") as handle:
            handle.write(OLD_TEXT)
        argv = [os.path.join(tmp, a) if a in OUT_PATHS else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused the arguments
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in EXIT_CODES, (code, err)
        if code == 0:
            assert err == ""
            if argv[0] == "sweep":
                assert out == ""
                check_sweep(argv)
            else:
                finite_numbers(out)
            if argv[0] == "probs":
                check_probs(argv, out)
            return
        assert out == ""
        lines = err.splitlines()
        if code == 2 and lines[0].startswith("usage: "):
            assert lines[-1].startswith(f"weakmeas {argv[0]}: error: "), err
        else:
            assert len(lines) == 1, err
            assert lines[0].startswith("io error: " if code == cli_args.IO_EXIT_CODE else "error: "), err
        if argv[0] == "sweep":
            with open(old, encoding="utf-8") as handle:
                assert handle.read() == OLD_TEXT
            assert sorted(os.listdir(tmp)) == ["old.csv"]
