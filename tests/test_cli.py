import argparse
import ast
import contextlib
import errno
import gc
import inspect
import io
import itertools
import json
import math
import os
import re
import resource
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from support import ERROR_LINES, run_cli

import weakmeas.__main__ as weakmeas_main
from weakmeas import args as cli_args
from weakmeas import cli, errors
from weakmeas.cli import (
    MAX_SWEEP_ROWS, SWEEP_COLUMNS, SWEEP_FORMAT_VERSION, _theta_grid, main,
)
from weakmeas.kernel import ModelTag, moment_estimates, sweep_columns

ROOT = Path(__file__).resolve().parent.parent

#: The parser of each command.
SUBPARSERS = next(a for a in cli_args.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices

#: The ERROR_LINES rows that could allocate without bound if their
#: refusal stopped working: each runs in a child, through run_module.
IN_A_CHILD = {"2-sweep-1e7-rows", "2-sweep-1e30-rows", "2-montecarlo-1e8-replicas"}

#: A montecarlo command's options but --shots and --seed.
MONTECARLO = ("montecarlo", "--theta", "0", "--epsilon", "0.08", "--replicas", "2")

#: The directory that holds the weakmeas package under test, so that a
#: child started in another working directory imports it too.
_PACKAGE_PATH = str(Path(cli.__file__).resolve().parents[1])


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_module(*argv):
    """Run the CLI in a child process. A command that never ends fails the
    test by the timeout, or by MemoryError if it keeps allocating, instead
    of stalling the suite or exhausting the host's memory."""
    path = os.pathsep.join(filter(None, [_PACKAGE_PATH, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "weakmeas", *argv],
        capture_output=True, text=True, check=False, timeout=30, preexec_fn=_limit_memory,
        env={**os.environ, "PYTHONPATH": path},
    )


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


#: Rows the sweep writer formats per call.
BLOCK_ROWS = cli._BLOCK_ROWS

#: Grid rows a sweep computes per sweep_columns call.
KERNEL_ROWS = cli._KERNEL_ROWS


def _synthetic_columns(rows):
    """Sweep columns of ``rows`` rows: signed zeros, infinities, NaN, the
    smallest subnormal and the largest normal float, integers and values
    over the whole exponent range, and a last row of NaN only."""
    rng = np.random.default_rng(rows)
    cells = rng.standard_normal((rows, 12)) * 10.0 ** rng.integers(-300, 300, (rows, 12))
    cells[:, ::3] = rng.integers(-10**6, 10**6, (rows, 4))
    specials = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324,
                -5e-324, 1.797e308, -1.797e308, 1e16, 1e-5, 0.1]
    cells.reshape(-1)[:len(specials)] = specials
    if rows > 1:
        cells[-1] = math.nan
    return {name: cells[:, i].copy() for i, name in enumerate(SWEEP_COLUMNS[:-1])}


def _printed_sweep(columns, fmt):
    """The sweep file of ``columns``: each CSV cell as f"{x:.12g}", the JSON
    by json.dumps(indent=2), an undefined cell empty or null."""
    names = SWEEP_COLUMNS[:-1]
    rows = [
        {name: None if math.isnan(v) else v for name, v in zip(names, values)}
        for values in zip(*(columns[name].tolist() for name in names))
    ]
    if fmt == "csv":
        lines = [",".join(SWEEP_COLUMNS)]
        lines += [",".join([*("" if r[name] is None else f"{r[name]:.12g}" for name in names),
                            SWEEP_FORMAT_VERSION])
                  for r in rows]
        return "\n".join(lines) + "\n"
    rows = [{**r, "format_version": SWEEP_FORMAT_VERSION} for r in rows]
    return json.dumps({"format": SWEEP_FORMAT_VERSION, "rows": rows}, indent=2) + "\n"


class TestProbs:
    def test_linear_operating_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "probs", "--theta", "0", "--epsilon", "0.08", "--model", "linear"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p_DA"] == pytest.approx(0.29)
        assert payload["p_AA"] == pytest.approx(0.21)
        assert payload["p_DD"] == pytest.approx(0.29)
        assert payload["p_AD"] == pytest.approx(0.21)

    def test_exact_ideal_zero_coupling(self, capsys):
        code, out, _ = run_cli(
            capsys, "probs", "--theta", "0", "--epsilon", "0", "--model", "exact-ideal"
        )
        assert code == 0
        payload = json.loads(out)
        for key in ("p_DA", "p_AA", "p_DD", "p_AD"):
            assert payload[key] == pytest.approx(0.25, abs=1e-12)

    def test_compensated_ppbs_matches_ideal(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "probs", "--theta", "0", "--epsilon", "0.08", "--model", "exact-ppbs",
            "--tv", "0.5774", "--th", "1.0", "--ah", "0.5774",
        )
        assert code == 0
        ppbs = json.loads(out)
        code, out, _ = run_cli(
            capsys, "probs", "--theta", "0", "--epsilon", "0.08", "--model", "exact-ideal"
        )
        ideal = json.loads(out)
        for key in ("p_DA", "p_AA", "p_DD", "p_AD"):
            assert ppbs[key] == pytest.approx(ideal[key], abs=1e-9)

    @pytest.mark.parametrize("given", [
        dict(subset) for k in range(4)
        for subset in itertools.combinations((("tv", "0.6"), ("th", "0.9"), ("ah", "0.5")), k)
    ], ids=lambda given: "+".join(given) or "none")
    def test_gate_options_default_to_the_compensated_gate(self, capsys, given):
        # a gate option not given takes its GateParams default; --tv 0.6
        # prints the bytes of --tv 0.6 --th 1 --ah 0.5773502691896258
        argv = ("probs", "--theta", "30", "--epsilon", "0.08", "--model", "exact-ppbs")
        spelled = {"tv": str(1 / math.sqrt(3)), "th": "1", "ah": str(1 / math.sqrt(3)), **given}
        short = run_cli(capsys, *argv, *(t for o, v in given.items() for t in (f"--{o}", v)))
        full = run_cli(capsys, *argv, *(t for o, v in spelled.items() for t in (f"--{o}", v)))
        assert short == full
        assert short[0] == 0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "probs", "--theta", "0", "--epsilon", "0", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p_DA,p_AA,p_DD,p_AD"
        assert [float(x) for x in lines[1].split(",")] == pytest.approx([0.25] * 4)


class TestSweep:
    def test_columns_and_version_token(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--theta-start", "0", "--theta-stop", "10", "--theta-step", "1",
            "--epsilon", "0.08", "--out", str(out_file),
        )
        assert code == 0
        header, rows = read_csv(out_file)
        assert header == list(SWEEP_COLUMNS)
        assert len(rows) == 11
        assert all(r["format_version"] == "sweep-1" for r in rows)

    def test_fisher_and_estimate_columns(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        run_cli(
            capsys,
            "sweep", "--theta-start", "0", "--theta-stop", "359", "--theta-step", "1",
            "--epsilon", "0.08", "--out", str(out_file),
        )
        _, rows = read_csv(out_file)
        for row in rows:
            assert float(row["F_total"]) == pytest.approx(4.0, abs=1e-9)
            theta = float(row["theta_deg"])
            want = 2.0 * (1.0 + math.sin(math.radians(theta)))
            assert float(row["F_A"]) == pytest.approx(want, abs=1e-9)
            if row["eps_hat_A"]:
                assert float(row["eps_hat_A"]) == pytest.approx(0.08, abs=1e-12)

    def test_singular_cells_are_empty(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        run_cli(
            capsys,
            "sweep", "--theta-start", "88", "--theta-stop", "92", "--theta-step", "1",
            "--epsilon", "0.08", "--out", str(out_file),
        )
        _, rows = read_csv(out_file)
        by_theta = {float(r["theta_deg"]): r for r in rows}
        assert by_theta[90.0]["wv_A"] == ""
        assert by_theta[90.0]["eps_hat_A"] == ""
        # linearization breaks down on the flanks at this coupling
        assert by_theta[88.0]["p_DA"] == ""
        assert by_theta[88.0]["F_total"] != ""

    def test_byte_stable_output(self, tmp_path, capsys):
        files = []
        for name in ("a.csv", "b.csv"):
            out_file = tmp_path / name
            run_cli(
                capsys,
                "sweep", "--theta-start", "0", "--theta-stop", "30",
                "--theta-step", "0.5", "--epsilon", "0.05", "--out", str(out_file),
            )
            files.append(out_file.read_bytes())
        assert files[0] == files[1]

    def test_exact_model_sweep_shows_estimator_bias(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        run_cli(
            capsys,
            "sweep", "--theta-start", "45", "--theta-stop", "45", "--theta-step", "1",
            "--epsilon", "0.08", "--model", "exact-ideal", "--out", str(out_file),
        )
        _, rows = read_csv(out_file)
        # eps/(1 + eps^2 wv^2) with wv = tan(67.5 deg)
        wv = math.tan(math.radians(67.5))
        want = 0.08 / (1.0 + (0.08 * wv) ** 2)
        assert float(rows[0]["eps_hat_A"]) == pytest.approx(want, abs=1e-12)

    def test_json_format(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        run_cli(
            capsys,
            "sweep", "--theta-start", "0", "--theta-stop", "2", "--theta-step", "1",
            "--epsilon", "0.08", "--format", "json", "--out", str(out_file),
        )
        payload = json.loads(out_file.read_text(encoding="utf-8"))
        assert payload["format"] == "sweep-1"
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["F_total"] == pytest.approx(4.0, abs=1e-9)

    def test_json_is_json_dumps_with_indent(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        run_cli(
            capsys,
            "sweep", "--theta-start", "85", "--theta-stop", "95", "--theta-step", "5",
            "--epsilon", "0.08", "--format", "json", "--out", str(out_file),
        )
        text = out_file.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    @pytest.mark.parametrize("rows", [
        1, BLOCK_ROWS, BLOCK_ROWS + 1,
        2 * KERNEL_ROWS + BLOCK_ROWS + 1,  # three kernel blocks, the last one partial
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writer_prints_synthetic_columns(self, monkeypatch, tmp_path, capsys, fmt, rows):
        columns = _synthetic_columns(rows)

        def block_of(theta, *args):
            # the grid is 0, 1, ..., rows - 1: each angle is its row's index
            return {name: col[theta.astype(int)] for name, col in columns.items()}

        monkeypatch.setattr(cli, "sweep_columns", block_of)
        out_file = tmp_path / f"sweep.{fmt}"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--theta-stop", str(rows - 1), "--epsilon", "0.08",
            "--format", fmt, "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_bytes() == _printed_sweep(columns, fmt).encode("utf-8")

    @pytest.mark.parametrize("model", [
        ("--model", "linear"), ("--model", "exact-ideal"),
        ("--model", "exact-ppbs", "--tv", "0.6", "--ah", "0.55", "--postselect", "300"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blocks_print_the_whole_grid_bytes(self, monkeypatch, tmp_path, capsys, model, fmt):
        grid = ("--theta-start", "0", "--theta-stop", "359.9", "--theta-step", "0.1")
        rows = len(_theta_grid(0.0, 359.9, 0.1))
        assert rows >= 3 * KERNEL_ROWS and rows % KERNEL_ROWS
        calls = []

        def counted(theta, *args):
            calls.append(len(theta))
            return sweep_columns(theta, *args)

        monkeypatch.setattr(cli, "sweep_columns", counted)
        printed = {}
        for block_rows in (KERNEL_ROWS, rows):
            monkeypatch.setattr(cli, "_KERNEL_ROWS", block_rows)
            out_file = tmp_path / f"{block_rows}.{fmt}"
            code, _, _ = run_cli(capsys, "sweep", *grid, "--epsilon", "0.08", *model,
                                 "--format", fmt, "--out", str(out_file))
            assert code == 0
            printed[block_rows] = out_file.read_bytes()
        # one call a block, then one whole-grid call through the same writer
        assert calls == [KERNEL_ROWS] * (rows // KERNEL_ROWS) + [rows % KERNEL_ROWS, rows]
        assert printed[KERNEL_ROWS] == printed[rows]

    @pytest.mark.parametrize("model, fmt", [
        ("linear", "csv"), ("exact-ideal", "csv"), ("exact-ppbs", "json"),
    ])
    def test_peak_memory_per_row(self, capsys, model, fmt):
        # a sweep holds the grid, 8 bytes a row, and one block of rows:
        # below 16 traced bytes a row, where whole-grid columns and
        # kernel temporaries took 248 (linear CSV) to 296 (exact JSON)
        argv = ["sweep", "--epsilon", "0.08", "--model", model, "--format", fmt,
                "--theta-start", "0", "--theta-step", "0.0018", "--out", os.devnull]
        assert run_cli(capsys, *argv, "--theta-stop", "1")[0] == 0  # warm-up: imports and caches
        rows = 200_000
        tracemalloc.start()
        try:
            code = main([*argv, "--theta-stop", str(0.0018 * (rows - 1))])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak / rows < 16

    @pytest.mark.parametrize("existing", [False, True], ids=["no-file", "file-at-out"])
    def test_failed_block_leaves_out_as_it_was(self, monkeypatch, tmp_path, capsys, existing):
        calls = []

        def fails_second(theta, *args):
            calls.append(len(theta))
            if len(calls) == 2:
                raise ValueError("probabilities sum to 2.0, expected 1")
            return sweep_columns(theta, *args)

        monkeypatch.setattr(cli, "sweep_columns", fails_second)
        out_file = self._existing(tmp_path) if existing else tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--theta-stop", str(2 * KERNEL_ROWS - 1),
                               "--epsilon", "0.08", "--out", str(out_file))
        assert (code, len(calls)) == (2, 2)
        assert "sum to 2.0" in err
        self._assert_as_it_was(tmp_path, out_file, existing)

    @staticmethod
    def _failing_writes(monkeypatch):
        """Make the third write to a file the sweep opens raise ENOSPC."""
        def opener(*args, **kwargs):
            handle = open(*args, **kwargs)
            writes = []

            def write(text):
                writes.append(text)
                if len(writes) == 3:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return type(handle).write(handle, text)

            handle.write = write
            return handle

        monkeypatch.setattr(cli, "open", opener, raising=False)

    @pytest.mark.parametrize("existing", [False, True], ids=["no-file", "file-at-out"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_leaves_out_as_it_was(self, monkeypatch, tmp_path, capsys, fmt, existing):
        out_file = self._existing(tmp_path) if existing else tmp_path / "sweep.csv"
        self._failing_writes(monkeypatch)
        code, _, err = run_cli(capsys, "sweep", "--epsilon", "0.08", "--format", fmt,
                               "--out", str(out_file))
        assert code == 20
        assert "No space left on device" in err
        self._assert_as_it_was(tmp_path, out_file, existing)

    def test_failed_write_leaves_a_symlink_alone(self, monkeypatch, tmp_path, capsys):
        # only a regular file is removed: the link, like /dev/stdout, stays
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        self._failing_writes(monkeypatch)
        code, _, _ = run_cli(capsys, "sweep", "--epsilon", "0.08", "--out", str(link))
        assert code == 20
        assert link.is_symlink() and target.exists()

    @pytest.mark.parametrize("out", ["symlink", "dev-stdout"])
    def test_in_place_write_holds_the_sweep(self, tmp_path, capsys, out):
        # a symlink and /dev/stdout are written in place, not replaced: the
        # link stays a link, and its target, as stdout, holds the bytes the
        # sweep writes to a regular file
        argv = ("sweep", "--theta-stop", "30", "--theta-step", "0.5", "--epsilon", "0.08")
        regular = tmp_path / "regular.csv"
        assert run_cli(capsys, *argv, "--out", str(regular))[0] == 0
        if out == "dev-stdout":
            # in a child, whose fd 1 is a pipe the test reads
            proc = run_module(*argv, "--out", "/dev/stdout")
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout.encode("utf-8") == regular.read_bytes()
            return
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"longer than the sweep\n" * 1000)
        link.symlink_to(target)
        assert run_cli(capsys, *argv, "--out", str(link))[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == regular.read_bytes()
        assert sorted(tmp_path.iterdir()) == sorted([regular, target, link])

    def test_link_at_the_temporary_path_is_not_followed(self, monkeypatch, tmp_path, capsys):
        # a symlink swapped in at the temporary path after mkstemp: the
        # file is written and chmodded through mkstemp's descriptor, so the
        # link's target keeps its bytes and its mode; the rows went to the
        # unlinked file, so the sweep fails and moves no link to --out
        victim = tmp_path / "victim.txt"
        victim.write_bytes(b"keep\n")
        victim.chmod(0o600)
        mkstemp = tempfile.mkstemp

        def swapped(*args, **kwargs):
            fd, temp = mkstemp(*args, **kwargs)
            os.remove(temp)
            os.symlink(victim, temp)
            return fd, temp

        monkeypatch.setattr(cli.tempfile, "mkstemp", swapped)
        out_file = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, "sweep", "--theta-step", "90", "--epsilon", "0.08",
                                 "--out", str(out_file))
        assert code == 20
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("io error: ") and "no longer" in err
        assert victim.read_bytes() == b"keep\n"
        assert stat.S_IMODE(victim.stat().st_mode) == 0o600
        assert not os.path.lexists(out_file)
        assert list(tmp_path.iterdir()) == [victim]

    @staticmethod
    def _existing(tmp_path):
        """A file at --out with its own bytes and mode."""
        out_file = tmp_path / "keep.csv"
        out_file.write_bytes(b"theta_deg\n1\n")
        out_file.chmod(0o640)
        return out_file

    @staticmethod
    def _assert_as_it_was(tmp_path, out_file, existing):
        """tmp_path holds nothing, or with ``existing`` only the file of
        :meth:`_existing` at out_file, with its bytes and mode."""
        if not existing:
            assert list(tmp_path.iterdir()) == []
            return
        assert list(tmp_path.iterdir()) == [out_file]
        assert out_file.read_bytes() == b"theta_deg\n1\n"
        assert stat.S_IMODE(out_file.stat().st_mode) == 0o640

    def test_replaced_file_keeps_its_mode(self, tmp_path, capsys):
        out_file = self._existing(tmp_path)
        new_file = tmp_path / "new.csv"
        for path in (out_file, new_file):
            code, _, _ = run_cli(capsys, "sweep", "--theta-stop", "3", "--epsilon", "0.08",
                                 "--out", str(path))
            assert code == 0
        assert out_file.read_bytes() == new_file.read_bytes()
        assert sorted(tmp_path.iterdir()) == [out_file, new_file]
        assert stat.S_IMODE(out_file.stat().st_mode) == 0o640
        umask = os.umask(0)
        os.umask(umask)
        # the mode open(path, "w") gives a new file
        assert stat.S_IMODE(new_file.stat().st_mode) == 0o666 & ~umask

    def test_names_hold_no_float_token(self):
        # the writer prints nan and inf and then rewrites them in the text
        # of its rows, which holds these names
        for name in (*SWEEP_COLUMNS, SWEEP_FORMAT_VERSION):
            assert "nan" not in name.lower() and "inf" not in name.lower()

    @pytest.mark.parametrize("start, stop, step", [
        (0.0, 359.95, 0.05), (0.0, 359.9, 0.1), (0.0, 359.0, 1.0), (-30.0, 30.0, 0.7),
        (10.0, 10.0, 1.0), (0.1, 0.3, 0.1), (5.0, 7.0, 3.0), (1e-3, 2.0, 1e-3),
    ])
    def test_grid_matches_loop(self, start, stop, step):
        want, k = [], 0
        while start + k * step <= stop + 1e-9:
            want.append(start + k * step)
            k += 1
        assert _theta_grid(start, stop, step).tolist() == want

    def test_grid_size_bound(self):
        assert len(_theta_grid(0.0, MAX_SWEEP_ROWS - 1.0, 1.0)) == MAX_SWEEP_ROWS
        for start, stop, step in ((0.0, float(MAX_SWEEP_ROWS), 1.0), (-1e308, 1e308, 1.0)):
            with pytest.raises(ValueError, match="rows"):
                _theta_grid(start, stop, step)


class TestScalarCommandsMatchSweep:
    """A point command prints the very bits of the sweep cell at the same
    point: both build the state and the basis the same way."""

    @pytest.mark.parametrize("postselect", ["270", "300", "200", "45.5"])
    @pytest.mark.parametrize("model", [
        ("--model", "linear"), ("--model", "exact-ideal"),
        ("--model", "exact-ppbs", "--tv", "0.6", "--ah", "0.55"),
    ])
    def test_bit_equal(self, tmp_path, capsys, postselect, model):
        out_file = tmp_path / "sweep.json"
        code, _, _ = run_cli(capsys, "sweep", "--theta-stop", "355", "--theta-step", "15",
                             "--epsilon", "0.08", "--postselect", postselect, *model,
                             "--format", "json", "--out", str(out_file))
        assert code == 0
        point = ("--postselect", postselect)
        checked = 0
        for row in json.loads(out_file.read_text(encoding="utf-8"))["rows"]:
            theta = ("--theta", repr(row["theta_deg"]))
            code, out, _ = run_cli(capsys, "probs", *theta, "--epsilon", "0.08", *model, *point)
            if row["p_DA"] is not None:
                got = json.loads(out)
                assert [got[k] for k in ("p_DA", "p_AA", "p_DD", "p_AD")] == [
                    row[k] for k in ("p_DA", "p_AA", "p_DD", "p_AD")]
                checked += 1
            code, out, _ = run_cli(capsys, "estimate", *theta, "--epsilon", "0.08", *model, *point)
            if row["eps_hat_A"] is not None:
                assert json.loads(out)["eps_hat"] == row["eps_hat_A"]
            if model[1] != "linear":
                continue  # fisher and weakvalue take no model
            code, out, _ = run_cli(capsys, "fisher", *theta, *point)
            got = json.loads(out)
            assert [got["F_A"], got["F_D"], got["F_total"]] == [row["F_A"], row["F_D"], row["F_total"]]
            # the finite difference may refuse a point where wv_A is defined
            code, out, _ = run_cli(capsys, "weakvalue", *theta, *point)
            if code == 0:
                assert json.loads(out)["wv_analytic"] == row["wv_A"]
        assert checked >= 16


class TestWeakValue:
    def test_horizontal(self, capsys):
        code, out, _ = run_cli(capsys, "weakvalue", "--theta", "0")
        payload = json.loads(out)
        assert code == 0
        assert payload["wv_analytic"] == pytest.approx(1.0)
        assert payload["wv_finite_difference"] == pytest.approx(1.0087, abs=5e-5)

    def test_vertical(self, capsys):
        _, out, _ = run_cli(capsys, "weakvalue", "--theta", "180")
        payload = json.loads(out)
        assert payload["wv_analytic"] == pytest.approx(-1.0)

    def test_sixty_degrees(self, capsys):
        _, out, _ = run_cli(capsys, "weakvalue", "--theta", "60")
        payload = json.loads(out)
        assert payload["wv_analytic"] == pytest.approx(3.7321, abs=5e-5)


class TestFisher:
    def test_report_with_crb(self, capsys):
        code, out, _ = run_cli(
            capsys, "fisher", "--theta", "60", "--shots", "1000000"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["F_total"] == pytest.approx(4.0, abs=1e-9)
        assert payload["F_A"] == pytest.approx(3.7321, abs=5e-5)
        assert payload["crb_total"] == pytest.approx(2.5e-7)
        assert payload["crb_A"] == pytest.approx(2.679e-7, rel=2e-4)


class TestEstimate:
    def test_linear_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--theta", "30", "--epsilon", "0.04"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["eps_hat"] == pytest.approx(0.04, abs=1e-12)

    def test_exact_model_bias_with_sigma(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "estimate", "--theta", "0", "--epsilon", "0.08",
            "--model", "exact-ideal", "--shots", "1000000",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["eps_hat"] == pytest.approx(0.0794913, abs=5e-7)
        assert payload["sigma_eps"] > 0.0


class TestMonteCarloCommand:
    def test_deterministic_json(self, capsys):
        argv = (
            "montecarlo", "--theta", "0", "--epsilon", "0", "--shots", "10000",
            "--replicas", "50", "--seed", "7",
        )
        code, out1, _ = run_cli(capsys, *argv)
        assert code == 0
        code, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["n_replicas"] == 50
        assert payload["crb"] == pytest.approx(1.0 / (10000 * 2.0))

#: Fixed random input angles, beside those where the refusals of a row meet.
_RANDOM_ANGLES = np.random.default_rng(27).uniform(-720.0, 720.0, 8).tolist()


def _row_angles(psi: float) -> list[float]:
    """Input angles for the analyzer psi: the singular post-selections of
    the default analyzer (90, 270) and of psi (psi, psi - 180), two
    angles 1e-7 beside them, and the fixed random ones."""
    return [90.0, 270.0, psi, psi - 180.0, psi + 1e-7, 90.0000001, *_RANDOM_ANGLES]


def _first_nonzero(*codes) -> int:
    return next((int(c) for c in codes if c), 0)


class TestExitCodeIsTheRowStatus:
    """A one-angle command that estimates eps exits with the first nonzero
    status of its kernel row: the table status, then the moment estimate's
    status of the post-selected outcome."""

    @pytest.mark.parametrize("psi", [270.0, 300.0, 33.3])
    @pytest.mark.parametrize("eps", [0.0, 0.08])
    @pytest.mark.parametrize("model", [m.value for m in ModelTag])
    def test_estimate(self, capsys, model, eps, psi):
        angles = _row_angles(psi)
        cols = sweep_columns(angles, eps, model, None, psi)
        for k, theta in enumerate(angles):
            code = main(["estimate", f"--theta={theta!r}", "--epsilon", repr(eps),
                         "--model", model, f"--postselect={psi!r}"])
            capsys.readouterr()
            assert code == _first_nonzero(cols["status"][k], cols["status_eps_hat_A"][k]), theta

    @pytest.mark.parametrize("eps", [0.0, 0.08])
    @pytest.mark.parametrize("model", [m.value for m in ModelTag])
    def test_montecarlo_f_d(self, capsys, model, eps):
        angles = _row_angles(270.0)
        cols = sweep_columns(angles, eps, model)
        status_d = moment_estimates(cols["p_DD"], cols["p_AD"], cols["wv_D"])[1]
        for k, theta in enumerate(angles):
            code = main(["montecarlo", f"--theta={theta!r}", "--epsilon", repr(eps),
                         "--model", model, "--f", "D", "--shots", "1000",
                         "--replicas", "2", "--seed", "0"])
            capsys.readouterr()
            want = _first_nonzero(cols["status"][k], status_d[k])
            # past the row's refusals: a zero F_D, or a replica discarded
            assert code == want if want else code in (0, 11, 12), theta


class TestErrorExitCodes:
    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        table = cli_args._exit_code_table()
        assert lines[lines.index("exit codes:") + 1:] == [f"  {code:>3}  {name}" for code, name in table]
        # a command can meet every error class
        assert {code for code, _ in table} == {*errors.BY_CODE, 2, cli_args.IO_EXIT_CODE}

    def test_montecarlo_help_says_what_shots_is_per_mode(self, monkeypatch, capsys):
        # in --mode poisson a replica's total is drawn: --shots is its mean
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main(["montecarlo", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "events per replica; in --mode poisson, each replica's mean total" in out

    def test_every_listed_code_has_an_invocation(self):
        codes = {code for code, _, _ in ERROR_LINES.values()}
        assert sorted(codes) == [code for code, _ in cli_args._exit_code_table()]
        assert IN_A_CHILD <= ERROR_LINES.keys()

    @pytest.mark.parametrize("function", [
        cli_args._finite, cli_args._eps_probe, cli_args._shots, cli_args._out_path,
        cli._model_and_gate, cli._theta_grid,
    ], ids=lambda function: function.__qualname__)
    def test_every_refusal_message_has_a_row(self, function):
        # each message the function raises, its formatted values read as
        # .+, ends a line of ERROR_LINES
        raised = [node.exc.args[0] for node in ast.walk(ast.parse(inspect.getsource(function)))
                  if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)]
        assert raised
        for message in raised:
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            pattern = "".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".+"
                              for p in parts)
            assert any(re.search(pattern + "$", line) for _, _, line in ERROR_LINES.values()), pattern

    @pytest.mark.parametrize("name", ERROR_LINES)
    def test_error_line_is_pinned(self, monkeypatch, capsys, tmp_path, name):
        code, argv, line = ERROR_LINES[name]
        argv, line = [a.format(tmp=tmp_path) for a in argv], line.format(tmp=tmp_path)
        monkeypatch.chdir(tmp_path)
        if name in IN_A_CHILD:
            proc = run_module(*argv)
            got, out, err = proc.returncode, proc.stdout, proc.stderr
        else:
            try:
                got = main(argv)
            except SystemExit as exc:  # argparse refuses the arguments
                got = exc.code
            out, err = capsys.readouterr()
        assert (got, out) == (code, "")
        usage = SUBPARSERS[argv[0]].format_usage() if code == 2 else ""
        assert err in (line + "\n", usage + line + "\n")
        if argv[0] == "sweep":  # no --out and no temporary file
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, key, value", [
        (("weakvalue", "--theta", "30", "--eps-probe=1e-6"), "eps_probe", 1e-6),
        (("weakvalue", "--theta", "30", "--eps-probe=-1e-6"), "eps_probe", -1e-6),
        ((*MONTECARLO, "--shots", "1000", "--seed", "0"), "seed", 0),
        ((*MONTECARLO, "--shots", "1000", "--seed", str(2**64 - 1)), "seed", 2**64 - 1),
        ((*MONTECARLO, "--shots", str(2**63 - 1), "--seed", "0"), "shots", 2**63 - 1),
        # 2^63 - 1 shots is 2^63 as a float: 1 / (2^63 F_total), F_total = 4
        (("fisher", "--theta", "30", "--shots", str(2**63 - 1)), "crb_total", 2.0**-65),
        # sqrt(p(D|A) p(A|A) / n) / wv_A over n = 2^63 p(f=A) = 2^61 events,
        # with 4 p(D|A) p(A|A) = 1 - (2 eps wv_A)^2 and wv_A = sqrt 3
        (("estimate", "--theta", "30", "--epsilon", "0.08", "--shots", str(2**63 - 1)), "sigma_eps",
         pytest.approx(math.sqrt((1 - 0.16**2 * 3) / 4 / 2**61 / 3), rel=1e-12)),
    ], ids=["probe-1e-6", "probe--1e-6", "seed-0", "seed-2^64-1", "montecarlo-shots-2^63-1",
            "fisher-shots-2^63-1", "estimate-shots-2^63-1"])
    def test_accepted_edge(self, capsys, argv, key, value):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload[key] == value
        if argv[0] == "weakvalue":
            assert payload["wv_finite_difference"] == pytest.approx(math.sqrt(3.0), rel=1e-10)


def test_model_choices_are_the_model_tags():
    # the parser loads no numpy, so it spells the models out itself: as
    # the values of ModelTag, which the kernel resolves them with
    choices = {name: action.choices for name, sub in SUBPARSERS.items()
               for action in sub._actions if action.dest == "model"}
    assert sorted(choices) == ["estimate", "montecarlo", "probs", "sweep"]
    for name in choices:
        assert tuple(choices[name]) == tuple(m.value for m in ModelTag), name


class TestNegativeNumbers:
    """argparse in Python 3.10 and 3.11 takes '-1e-3' for an option; the
    parser widens its private negative-number pattern so that every
    subcommand reads it as a value."""

    @pytest.mark.parametrize("argv, dest, value", [
        (["probs", "--theta", "30", "--epsilon", "-1e-3"], "epsilon", -1e-3),
        (["probs", "--theta", "-1e1", "--epsilon", "0"], "theta", -10.0),
        (["sweep", "--theta-start", "-1E+2", "--epsilon", "0", "--out", "x"], "theta_start", -100.0),
        (["weakvalue", "--theta", "30", "--eps-probe", "-8e-2"], "eps_probe", -0.08),
        (["fisher", "--theta", "30", "--postselect", "-.9e2"], "postselect", -90.0),
        (["estimate", "--theta", "30", "--epsilon", "0", "--tv", "-5e-1"], "tv", -0.5),
        (["montecarlo", "--theta", "-3e1", "--epsilon", "0", "--shots", "10", "--replicas", "2",
          "--seed", "0"], "theta", -30.0),
    ], ids=lambda x: x[0] if isinstance(x, list) else None)
    def test_exponent_form_is_a_value(self, argv, dest, value):
        assert getattr(cli_args.build_parser().parse_args(argv), dest) == value

    def test_exponent_form_runs(self, capsys):
        code, out, _ = run_cli(capsys, "probs", "--theta", "30", "--epsilon", "-1e-3")
        assert code == 0
        assert json.loads(out)["epsilon"] == -1e-3


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weakmeas", "fisher", "--theta", "0"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["F_total"] == pytest.approx(4.0)

    def test_import_leaves_numpy_random_unloaded(self):
        # the sweeps never draw; numpy.random costs ~16 ms to
        # load, so only a draw may load it (numpy 1.x loads it with numpy)
        code = ("import sys; import numpy; before = 'numpy.random' in sys.modules; "
                "import weakmeas.cli; print(before, 'numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        before, after = proc.stdout.split()
        assert after == before

    def test_console_script_target_runs_only_when_called(self):
        # pyproject.toml's [project.scripts] imports weakmeas.__main__ and
        # calls its script, which reads sys.argv and exits itself
        code = ("import sys, weakmeas.__main__ as m; print('weakmeas.cli' in sys.modules); "
                "sys.argv[1:] = ['fisher', '--theta', '0']; m.script()")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=False, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded, payload = proc.stdout.split("\n", 1)
        assert loaded == "False"
        assert json.loads(payload)["F_total"] == pytest.approx(4.0)

    def test_console_script_and_module_run_one_function(self):
        # Python 3.10 has no tomllib, so the script line is read as text
        text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        target = re.search(r'^\[project\.scripts\]\nweakmeas = "(.+)"$', text, re.M).group(1)
        module, _, function = target.partition(":")
        assert module == "weakmeas.__main__"
        # the body of `if __name__ == "__main__":` in that module
        tree = ast.parse(Path(weakmeas_main.__file__).read_text(encoding="utf-8"))
        guard, = (node for node in tree.body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'")
        assert [ast.unparse(node) for node in guard.body] == [f"{function}()"]

    @pytest.mark.parametrize("argv, code", [
        (["fisher", "--theta", "0"], 0),
        (["--help"], 0),
        (["probs", "--theta", "x", "--epsilon", "0.08"], 2),
    ], ids=["fisher", "help", "usage-error"])
    def test_script_freezes_the_heap_as_it_exits(self, argv, code):
        # --help and the usage error raise SystemExit inside argparse
        program = ("import gc, sys, weakmeas.__main__ as m\n"
                   f"sys.argv[1:] = {argv!r}\n"
                   "try:\n    m.script()\n"
                   "except SystemExit as exc:\n"
                   "    print(exc.code, gc.get_freeze_count() > 0)\n")
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                              check=False, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{code} True"

    @pytest.mark.parametrize("argv, code", [
        (["fisher", "--theta", "0"], 0),
        (["probs", "--theta", "80", "--epsilon", "0.3"], 5),
    ], ids=["fisher", "refused-row"])
    def test_cli_module_invocation(self, argv, code):
        proc = subprocess.run([sys.executable, "-m", "weakmeas.cli", *argv], capture_output=True,
                              text=True, check=False, timeout=60)
        assert proc.returncode == code, proc.stderr
        if code:
            assert (proc.stdout, proc.stderr) == ("", ERROR_LINES["5-probs-negative-cell"][2] + "\n")
        else:
            assert json.loads(proc.stdout)["F_total"] == pytest.approx(4.0)

    @pytest.mark.parametrize("command", ["fisher", "sweep"])
    def test_closed_stdout(self, tmp_path, command):
        # the child starts with fd 1 closed, so sys.stdout is None: a
        # command with text to print fails with an I/O error, and a sweep,
        # which prints nothing, writes its file
        out_file = tmp_path / "sweep.csv"
        argv = {"fisher": ["fisher", "--theta", "0"],
                "sweep": ["sweep", "--theta-step", "90", "--epsilon", "0.08",
                          "--out", str(out_file)]}[command]
        proc = subprocess.run([sys.executable, "-m", "weakmeas", *argv], stderr=subprocess.PIPE,
                              text=True, check=False, timeout=60,
                              preexec_fn=lambda: os.close(1))
        if command == "fisher":
            assert proc.returncode == cli_args.IO_EXIT_CODE
            assert proc.stderr == "io error: stdout is closed\n"
        else:
            assert (proc.returncode, proc.stderr) == (0, "")
            assert out_file.read_text(encoding="utf-8").count(SWEEP_FORMAT_VERSION) == 4

    @pytest.mark.parametrize("argv, code, line", [
        (["fisher", "--theta", "0"], cli_args.IO_EXIT_CODE, "io error: I/O operation on closed file"),
        (["probs", "--theta", "0", "--epsilon", "0.08", "--model", "linear", "--tv", "0.5"], 2,
         "error: --tv apply only to --model exact-ppbs"),
    ], ids=["fisher", "refused-option"])
    def test_closed_stdout_stream(self, capsys, argv, code, line):
        # an in-process caller's sys.stdout is a closed stream, whose write
        # raises ValueError: that is an I/O error, and a command's own
        # ValueError keeps exit 2
        stream = io.StringIO()
        stream.close()
        with contextlib.redirect_stdout(stream):
            assert main(argv) == code
        assert capsys.readouterr().err == line + "\n"

    def test_cli_module_ends_through_the_script(self):
        # python -m weakmeas.cli runs weakmeas.__main__.script, which
        # freezes the heap as the command exits
        program = ("import gc, runpy, sys\n"
                   "sys.argv[1:] = ['fisher', '--theta', '0']\n"
                   "try:\n    runpy.run_module('weakmeas.cli', run_name='__main__')\n"
                   "except SystemExit as exc:\n"
                   "    print(exc.code, gc.get_freeze_count() > 0)\n")
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                              check=False, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 True"

    @staticmethod
    def cli_module_imports(argv):
        """(depth, name) of each import ``python -X importtime -m
        weakmeas.cli`` reports, depth 0 for an import no other import made."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "weakmeas.cli", *argv],
                              capture_output=True, text=True, check=False, timeout=60)
        assert proc.returncode == 0, proc.stderr[-500:]
        names = [line.rpartition("|")[2][1:] for line in proc.stderr.splitlines()
                 if line.startswith("import time:")]
        return [((len(n) - len(n.lstrip())) // 2, n.strip()) for n in names]

    def test_cli_module_hands_over_before_its_imports(self):
        # the guard of weakmeas.cli runs before its own imports: --help
        # loads no numpy, and a command imports weakmeas.cli once, with
        # numpy and the kernel inside that import
        assert "numpy" not in {name for _, name in self.cli_module_imports(["--help"])}
        top = [name for depth, name in self.cli_module_imports(["fisher", "--theta", "0"])
               if depth == 0 and name.split(".")[0] in ("numpy", "weakmeas")]
        assert top == ["weakmeas", "weakmeas.__main__", "weakmeas.cli", "weakmeas.estimation"]

    def test_main_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count()
        assert main(["fisher", "--theta", "0"]) == 0
        with pytest.raises(SystemExit):
            main(["--help"])
        capsys.readouterr()
        assert gc.get_freeze_count() == before


#: The modules every command loads, of weakmeas, json and numpy.
EVERY_COMMAND = {"numpy", "weakmeas", "weakmeas.args", "weakmeas.cli", "weakmeas.errors",
                 "weakmeas.kernel"}

#: The modules --help and a refused argument load: the parser's.
PARSER_ONLY = {"weakmeas", "weakmeas.args", "weakmeas.errors"}


def modules_loaded(argv, returncode=0):
    """The weakmeas modules, json and numpy that ``python -m weakmeas``
    imports while it runs on ``argv``, as its ``-X importtime`` report
    lists them."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "weakmeas", *argv],
                          capture_output=True, text=True, check=False, timeout=60)
    assert proc.returncode == returncode, proc.stderr[-500:]
    names = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return {m for m in names if m in ("json", "numpy") or m.split(".")[0] == "weakmeas"}


class TestImportGraph:
    def test_sweep_and_help_load_only_what_they_run(self, tmp_path):
        sweep = ["sweep", "--theta-step", "30", "--epsilon", "0.08"]
        for argv in (
            [*sweep, "--out", str(tmp_path / "s.csv")],
            [*sweep, "--format", "json", "--model", "exact-ppbs", "--out", str(tmp_path / "s.json")],
        ):
            assert modules_loaded(argv) == EVERY_COMMAND, argv
        for argv in (["--help"], ["sweep", "--help"]):
            assert modules_loaded(argv) == PARSER_ONLY, argv

    def test_usage_error_loads_only_the_parser(self):
        argv = ["probs", "--theta", "x", "--epsilon", "0.08"]
        assert modules_loaded(argv, returncode=2) == PARSER_ONLY

    def test_empty_out_loads_only_the_parser(self):
        argv = ["sweep", "--theta-step", "90", "--epsilon", "0.08", "--out", ""]
        assert modules_loaded(argv, returncode=2) == PARSER_ONLY

    def test_cli_module_loads_numpy(self):
        # the benchmark times `import weakmeas.cli` against its numpy import
        code = "import sys, weakmeas.cli; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.split() == ["True"]

    def test_montecarlo_loads_estimation_and_montecarlo(self):
        argv = ["montecarlo", "--theta", "30", "--epsilon", "0.08", "--shots", "1000",
                "--replicas", "20", "--seed", "1"]
        assert modules_loaded(argv) == EVERY_COMMAND | {
            "weakmeas.estimation", "weakmeas.montecarlo", "json"}

    def test_package_import_loads_no_submodule(self):
        code = ("import sys, weakmeas; "
                "print(sorted(m for m in sys.modules if m.startswith('weakmeas.')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.strip() == "[]"
