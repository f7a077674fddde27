import ast
import errno
import gc
import json
import math
import os
import re
import resource
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import weakmeas.__main__ as weakmeas_main
from weakmeas import args as cli_args
from weakmeas import cli
from weakmeas.cli import (
    MAX_SWEEP_ROWS, SWEEP_COLUMNS, SWEEP_FORMAT_VERSION, _theta_grid, main,
)
from weakmeas.kernel import sweep_columns
from weakmeas.montecarlo import MAX_REPLICAS

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_module(*argv):
    """Run the CLI in a child process. A command that never ends fails the
    test by the timeout, or by MemoryError if it keeps allocating, instead
    of stalling the suite or exhausting the host's memory."""
    return subprocess.run(
        [sys.executable, "-m", "weakmeas", *argv],
        capture_output=True, text=True, check=False, timeout=30, preexec_fn=_limit_memory,
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

    def test_failed_block_leaves_no_file(self, monkeypatch, tmp_path, capsys):
        calls = []

        def fails_second(theta, *args):
            calls.append(len(theta))
            if len(calls) == 2:
                raise ValueError("probabilities sum to 2.0, expected 1")
            return sweep_columns(theta, *args)

        monkeypatch.setattr(cli, "sweep_columns", fails_second)
        out_file = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--theta-stop", str(2 * KERNEL_ROWS - 1),
                               "--epsilon", "0.08", "--out", str(out_file))
        assert (code, len(calls)) == (2, 2)
        assert "sum to 2.0" in err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_leaves_no_file(self, monkeypatch, tmp_path, capsys, fmt):
        self._failing_writes(monkeypatch)
        out_file = tmp_path / f"sweep.{fmt}"
        code, _, err = run_cli(capsys, "sweep", "--epsilon", "0.08", "--format", fmt,
                               "--out", str(out_file))
        assert code == 20
        assert "No space left on device" in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_a_symlink_alone(self, monkeypatch, tmp_path, capsys):
        # only a regular file is removed: the link, like /dev/stdout, stays
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        self._failing_writes(monkeypatch)
        code, _, _ = run_cli(capsys, "sweep", "--epsilon", "0.08", "--out", str(link))
        assert code == 20
        assert link.is_symlink() and target.exists()

    @staticmethod
    def _existing(tmp_path):
        """A file at --out with its own bytes and mode."""
        out_file = tmp_path / "keep.csv"
        out_file.write_bytes(b"theta_deg\n1\n")
        out_file.chmod(0o640)
        return out_file

    def _assert_untouched(self, tmp_path, out_file):
        assert list(tmp_path.iterdir()) == [out_file]
        assert out_file.read_bytes() == b"theta_deg\n1\n"
        assert stat.S_IMODE(out_file.stat().st_mode) == 0o640

    def test_failed_block_keeps_the_file_at_out(self, monkeypatch, tmp_path, capsys):
        out_file = self._existing(tmp_path)

        def fails_second(theta, *args):
            if theta[0] > 0.0:
                raise ValueError("probabilities sum to 2.0, expected 1")
            return sweep_columns(theta, *args)

        monkeypatch.setattr(cli, "sweep_columns", fails_second)
        code, _, _ = run_cli(capsys, "sweep", "--theta-stop", str(2 * KERNEL_ROWS - 1),
                             "--epsilon", "0.08", "--out", str(out_file))
        assert code == 2
        self._assert_untouched(tmp_path, out_file)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_keeps_the_file_at_out(self, monkeypatch, tmp_path, capsys, fmt):
        out_file = self._existing(tmp_path)
        self._failing_writes(monkeypatch)
        code, _, _ = run_cli(capsys, "sweep", "--epsilon", "0.08", "--format", fmt,
                             "--out", str(out_file))
        assert code == 20
        self._assert_untouched(tmp_path, out_file)

    def test_missing_directory_is_named(self, tmp_path, capsys):
        out_file = tmp_path / "missing" / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--epsilon", "0.08", "--out", str(out_file))
        assert code == 20
        assert err.strip() == f"io error: [Errno 2] No such file or directory: '{out_file}'"
        assert list(tmp_path.iterdir()) == []

    def test_empty_out_is_refused_before_the_sweep(self, monkeypatch, tmp_path, capsys):
        # it used to compute the sweep into a temporary file and fail with
        # exit 20 on replacing '', naming the temporary file
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--theta-step", "90", "--epsilon", "0.08", "--out", ""])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --out: must name a file, got ''" in captured.err
        assert ".tmp" not in captured.err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("grid", [
        ("--theta-stop", "1e7", "--theta-step", "1"), ("--theta-stop", "1e30"),
    ])
    def test_oversized_grid_refused(self, tmp_path, grid):
        out_file = tmp_path / "sweep.csv"
        proc = run_module("sweep", *grid, "--epsilon", "0.08", "--out", str(out_file))
        assert proc.returncode == 2
        assert f"more than {MAX_SWEEP_ROWS} rows" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out_file.exists()

    @pytest.mark.parametrize("option, value", [
        ("--theta-step", "nan"), ("--theta-stop", "inf"), ("--theta-start", "nan"),
        ("--epsilon", "nan"), ("--epsilon", "inf"),
    ])
    def test_non_finite_grid_refused(self, tmp_path, option, value):
        argv = {"--theta-start": "0", "--theta-stop": "10", "--theta-step": "1",
                "--epsilon": "0.08"}
        argv[option] = value
        out_file = tmp_path / "sweep.csv"
        proc = run_module("sweep", *[t for kv in argv.items() for t in kv],
                          "--out", str(out_file))
        assert proc.returncode == 2
        assert option in proc.stderr
        assert not out_file.exists()

    def test_coupling_too_strong_refused_before_writing(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--epsilon", "0.6", "--model", "linear", "--out", str(out_file)
        )
        assert code == 3
        assert "weakness margin" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("model", ["exact-ideal", "exact-ppbs"])
    def test_unnormalizable_probe_refused(self, tmp_path, capsys, model):
        out_file = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--epsilon", "1e200", "--model", model, "--out", str(out_file)
        )
        assert code == 2
        assert "eps=1e+200" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("argv, code, message", [
        (("--postselect", "1e300"), 6, "basis overlap"),
        (("--model", "linear", "--tv", "0.5"), 2, "--tv apply only to --model exact-ppbs"),
        (("--model", "exact-ppbs", "--th", "0"), 2, "t_h must lie in (0, 1]"),
    ])
    def test_refused_before_writing(self, tmp_path, capsys, argv, code, message):
        out_file = tmp_path / "sweep.csv"
        got, _, err = run_cli(capsys, "sweep", "--epsilon", "0.08", *argv, "--out", str(out_file))
        assert got == code
        assert message in err
        assert not out_file.exists()

    def test_invalid_spec(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sweep", "--theta-start", "10", "--theta-stop", "0", "--theta-step", "1",
            "--epsilon", "0.05", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "theta-start" in err


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

    def test_singular_maps_to_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "weakvalue", "--theta", "90")
        assert code == 4
        assert "error" in err

    @pytest.mark.parametrize("eps_probe, code", [
        ("1e-6", 0), ("-1e-6", 0), ("1e-7", 2), ("1e-17", 2), ("0", 2),
    ])
    def test_eps_probe_bound(self, eps_probe, code):
        # below 1e-6 the finite difference is round-off: 1e-17 prints 0.0
        proc = run_module("weakvalue", "--theta", "30", f"--eps-probe={eps_probe}")
        assert proc.returncode == code
        if code:
            assert "--eps-probe" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout == ""
        else:
            payload = json.loads(proc.stdout)
            assert payload["wv_finite_difference"] == pytest.approx(math.sqrt(3.0), rel=1e-10)


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

    @pytest.mark.parametrize("seed, code", [
        ("0", 0), (str(2**64 - 1), 0), ("-1", 2), (str(2**64), 2),
    ])
    def test_seed_range(self, capsys, seed, code):
        got, out, err = run_cli(
            capsys,
            "montecarlo", "--theta", "0", "--epsilon", "0.08", "--shots", "1000",
            "--replicas", "2", "--seed", seed,
        )
        assert got == code
        if code:
            assert "seed" in err
        else:
            assert json.loads(out)["seed"] == int(seed)

    @pytest.mark.parametrize("shots, code", [
        ("0", 2), (str(2**63 - 1), 0), (str(2**63), 2), (str(2**64), 2),
    ])
    def test_shots_range(self, shots, code):
        proc = run_module(
            "montecarlo", "--theta", "0", "--epsilon", "0.08", "--shots", shots,
            "--replicas", "2", "--seed", "0",
        )
        assert proc.returncode == code
        if code:
            assert "shots" in proc.stderr
            assert "Traceback" not in proc.stderr
        else:
            assert json.loads(proc.stdout)["shots"] == int(shots)

    def test_replicas_bound(self):
        # 10^8 replicas of counts would not fit in the child's 1 GiB
        proc = run_module(
            "montecarlo", "--theta", "0", "--epsilon", "0.08", "--shots", "10",
            "--replicas", "100000000", "--seed", "0",
        )
        assert proc.returncode == 2
        assert f"replicas must not exceed {MAX_REPLICAS}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_zero_reference_wins_over_discards(self, capsys):
        # wv_A = 0 at 270 deg, and one shot leaves an empty cell in every
        # replica: the reference is refused first
        code, out, err = run_cli(
            capsys,
            "montecarlo", "--theta", "270", "--epsilon", "0", "--shots", "1",
            "--replicas", "50", "--seed", "1",
        )
        assert code == 8
        assert "wv_reference" in err
        assert out == ""

    def test_empty_outcome_refused_before_any_draw(self, capsys):
        # the uncompensated PPBS at eps = 0 leaves no f = A coincidence at
        # theta = 120 deg: refused as estimate refuses it, where drawing
        # every replica would end in the discard error (exit 12)
        code, out, err = run_cli(
            capsys,
            "montecarlo", "--theta", "120", "--epsilon", "0", "--model", "exact-ppbs",
            "--th", "1", "--tv", str(1 / math.sqrt(3)), "--ah", "1", "--shots", "100",
            "--replicas", "20", "--seed", "3",
        )
        assert (code, out, err) == (9, "", "error: post-selection probability p(f=A) is zero\n")

    def test_discard_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "montecarlo", "--theta", "2", "--epsilon", "0", "--shots", "10",
            "--replicas", "50", "--seed", "1",
        )
        assert code == 12
        assert "error" in err


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
]


class TestErrorExitCodes:
    def test_coupling_too_strong(self, capsys):
        code, _, _ = run_cli(
            capsys, "probs", "--theta", "0", "--epsilon", "0.6", "--model", "linear"
        )
        assert code == 3

    def test_linearization_invalid(self, capsys):
        code, _, _ = run_cli(
            capsys, "probs", "--theta", "80", "--epsilon", "0.3", "--model", "linear"
        )
        assert code == 5

    def test_estimate_names_the_empty_outcome(self, capsys):
        # the uncompensated PPBS at eps = 0 leaves no f = A coincidence at
        # theta = 120 deg, where the weak value is defined
        code, out, err = run_cli(capsys, "estimate", "--theta", "120", "--epsilon", "0",
                                 "--model", "exact-ppbs", "--tv", str(1 / math.sqrt(3)),
                                 "--ah", "1", "--shots", "100")
        assert (code, out, err) == (9, "", "error: post-selection probability p(f=A) is zero\n")

    @pytest.mark.parametrize("argv", [
        ("probs", "--theta", "0", "--epsilon", "0.08", "--model", "linear", "--tv", "0.5"),
        ("probs", "--theta", "0", "--epsilon", "0.08", "--model", "exact-ideal", "--ah", "0.5"),
        ("estimate", "--theta", "0", "--epsilon", "0.08", "--th", "1.0"),
        ("montecarlo", "--theta", "0", "--epsilon", "0.08", "--shots", "100",
         "--replicas", "2", "--seed", "0", "--model", "exact-ideal", "--tv", "0.6"),
        # before the analyzer angle is turned into a basis, as in a sweep
        ("probs", "--theta", "0", "--epsilon", "0.08", "--tv", "0.5", "--postselect", "1e300"),
        ("estimate", "--theta", "0", "--epsilon", "0.08", "--tv", "0.5", "--postselect", "1e300"),
    ])
    def test_gate_options_refused_for_other_models(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert "exact-ppbs" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("fisher", "--theta", "30"),
        ("estimate", "--theta", "30", "--epsilon", "0.08"),
    ], ids=["fisher", "estimate"])
    @pytest.mark.parametrize("shots, code", [
        ("0", 2), (str(2**63 - 1), 0), (str(2**63), 2), (str(10**400), 2),
    ], ids=["0", "2^63-1", "2^63", "10^400"])
    def test_shots_range(self, argv, shots, code):
        # montecarlo's range; 10^400 used to overflow converting to float
        proc = run_module(*argv, "--shots", shots)
        assert proc.returncode == code
        if code:
            assert "--shots" in proc.stderr
            assert "Traceback" not in proc.stderr
            assert proc.stdout == ""
        else:
            json.loads(proc.stdout)

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
        for token in ("3", "5", "12"):
            assert token in out
        # --eps-probe refuses a probe small enough to raise it
        assert "ZeroProbeCoupling" not in out

    def test_every_listed_code_has_an_invocation(self):
        assert sorted(EXIT_CODE_INVOCATIONS) == [code for code, _ in cli_args._exit_code_table()]

    @pytest.mark.parametrize("code", sorted(EXIT_CODE_INVOCATIONS))
    def test_listed_code_is_returned(self, capsys, tmp_path, code):
        argv = [a.format(tmp=tmp_path) for a in EXIT_CODE_INVOCATIONS[code]]
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            got = exc.code
        assert got == code, capsys.readouterr().err

    @pytest.mark.parametrize("code, argv, line", ERROR_LINES,
                             ids=[f"{code}-{argv[0]}" for code, argv, _ in ERROR_LINES])
    def test_error_line_is_pinned(self, capsys, tmp_path, code, argv, line):
        try:
            got = main([a.format(tmp=tmp_path) for a in argv])
        except SystemExit as exc:  # argparse refuses the arguments
            got = exc.code
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert (got, out, lines[-1]) == (code, "", line.format(tmp=tmp_path))
        assert code == 2 or len(lines) == 1

    def test_zero_post_selected_information_is_named(self, capsys):
        # F_total is 4 here; only F_A, the information behind crb_A, is 0
        code, out, err = run_cli(capsys, *EXIT_CODE_INVOCATIONS[11])
        assert code == 11
        assert out == ""
        assert "Fisher information F_A of the post-selected f=A events is zero" in err
        assert "total" not in err

    @pytest.mark.parametrize("argv, message", [
        (("fisher", "--theta", "30", "--shots", "abc"),
         "argument --shots: invalid integer value: 'abc'"),
        (("probs", "--theta", "x", "--epsilon", "0.08"),
         "argument --theta: invalid number value: 'x'"),
        (("weakvalue", "--theta", "30", "--eps-probe", "y"),
         "argument --eps-probe: invalid number value: 'y'"),
    ])
    def test_unparsable_numbers_are_named_readably(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "_shots" not in err and "_finite" not in err and "_eps_probe" not in err


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

    @pytest.mark.parametrize("argv, message", [
        (["--theta", "-inf"], "argument --theta: expected one argument"),
        (["--theta=-inf"], "argument --theta: must be a finite number, got '-inf'"),
        (["--theta", "-1e"], "argument --theta: expected one argument"),
    ], ids=["-inf", "=-inf", "-1e"])
    def test_non_numbers_are_still_refused(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["probs", *argv, "--epsilon", "0"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


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

    def test_main_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count()
        assert weakmeas_main.main(["fisher", "--theta", "0"]) == 0
        with pytest.raises(SystemExit):
            weakmeas_main.main(["--help"])
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

    def test_cli_module_keeps_numpy_and_the_kernel_names(self):
        # the benchmark times `import weakmeas.cli` against its numpy import
        # and wraps these three names where weakmeas.cli looks them up
        code = ("import sys, weakmeas.cli as c; print('numpy' in sys.modules, "
                "all(callable(getattr(c, n)) for n in "
                "('model_distribution', 'weak_value', 'fisher_information')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.split() == ["True", "True"]

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
