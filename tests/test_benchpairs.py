"""Self-tests of tools/benchpairs.py on a fake runner: no git and no child
process."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("benchpairs", ROOT / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)

COMMITS = {"parent": "a" * 40, "change": "b" * 40}
END_TO_END = [{"name": "norm_wall_s", "better": "lower"},
              {"name": "norm_items_per_s", "better": "higher"}]
MACHINE = {"cpus": 1}


def result(wall, correct=True, attempted=10, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"norm_wall_s": {"value": wall, "unit": "s"},
                        "norm_items_per_s": {"value": 1.0 / wall, "unit": "1/s"}}}


class FakeRunner:
    """Returns the next wall time of each side in turn, and logs each call."""

    def __init__(self, walls, returncode=0, correct=True):
        self.walls = {side: iter(values) for side, values in walls.items()}
        self.returncode, self.correct, self.calls = returncode, correct, []

    def __call__(self, side, workload, seed, seconds):
        self.calls.append((side, workload, seed, seconds))
        return self.returncode, result(next(self.walls[side]), self.correct)


def run_main(tmp_path, runner, *extra):
    out = tmp_path / "BENCH.json"
    argv = ["HEAD~1", "HEAD", "--workload", "ensemble", *extra, "--pairs", "4",
            "--seconds", "2", "--seed-base", "100", "--out", str(out)]
    code = benchpairs.main(argv, runner=runner, commits=COMMITS, end_to_end=END_TO_END,
                           machine_info=MACHINE)
    return code, out


def test_pairs_alternate_the_side_that_runs_first():
    plan = benchpairs.schedule(["ensemble", "sweep-linear"], 3, 100)
    assert [(w, pair, seed, order[0]) for w, pair, seed, order in plan] == [
        ("ensemble", 1, 100, "parent"), ("ensemble", 2, 101, "change"),
        ("ensemble", 3, 102, "parent"), ("sweep-linear", 1, 103, "parent"),
        ("sweep-linear", 2, 104, "change"), ("sweep-linear", 3, 105, "parent"),
    ]


def test_writes_the_bench_schema(tmp_path):
    runner = FakeRunner({"parent": [0.40, 0.36, 0.38, 0.42], "change": [0.35, 0.37, 0.33, 0.34]})
    code, out = run_main(tmp_path, runner)
    assert code == 0
    # one run at a time, in alternated order, on the pair's own seed
    assert [(side, seed) for side, _, seed, _ in runner.calls] == [
        ("parent", 100), ("change", 100), ("change", 101), ("parent", 101),
        ("parent", 102), ("change", 102), ("change", 103), ("parent", 103)]
    data = json.loads(out.read_text())
    assert list(data) == ["description", "parent_commit", "change_commit", "machine", "summary",
                          "runs"]
    assert "python3 tools/benchpairs.py 'HEAD~1' HEAD --workload ensemble" in data["description"]
    assert (data["parent_commit"], data["change_commit"]) == (COMMITS["parent"], COMMITS["change"])
    summary = data["summary"]["ensemble"]
    assert (summary["pairs"], summary["attempted"], summary["failed"], summary["all_correct"]) == (
        4, {"parent": 40, "change": 40}, {"parent": 0, "change": 0}, True)
    wall = summary["metrics"]["norm_wall_s"]
    assert wall["better"] == "lower"
    assert wall["parent"] == {"median": pytest.approx(0.39), "q1": pytest.approx(0.375),
                              "q3": pytest.approx(0.405), "n": 4}
    assert wall["change"]["median"] == pytest.approx(0.345)
    # the change is faster in pairs 1, 3 and 4, and slower in pair 2
    assert wall["change_wins"] == 3
    assert wall["median_change_rel"] == pytest.approx(0.345 / 0.39 - 1)
    assert wall["parent_iqr"] == pytest.approx(0.03)
    # a higher-is-better metric counts a win the other way round
    assert summary["metrics"]["norm_items_per_s"]["change_wins"] == 3
    first = data["runs"][0]
    assert sorted(first) == ["commit", "first", "pair", "result", "returncode", "seed", "side",
                             "started_utc", "workload"]
    assert (first["commit"], first["side"], first["first"], first["result"]["correct"]) == (
        COMMITS["parent"], "parent", "parent", True)


def test_reproduces_the_summary_of_bench_32():
    data = json.loads((ROOT / "BENCH_32.json").read_text())
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert benchpairs.summarize(data["runs"], end_to_end) == data["summary"]


@pytest.mark.parametrize("returncode, correct", [(0, False), (1, True)])
def test_no_file_when_a_run_is_not_correct(tmp_path, capsys, returncode, correct):
    runner = FakeRunner({side: [0.4] * 4 for side in benchpairs.SIDES}, returncode, correct)
    code, out = run_main(tmp_path, runner)
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "8 run(s) not correct, no file written" in err
    assert f"ensemble pair 1 parent (seed 100): exit {returncode}, correct {correct}" in err


def test_note_is_given_once_in_the_quoted_command(tmp_path):
    runner = FakeRunner({side: [0.4] * 4 for side in benchpairs.SIDES})
    code, out = run_main(tmp_path, runner, "--note", "Claimed: nothing.")
    assert code == 0
    description = json.loads(out.read_text())["description"]
    assert "--note 'Claimed: nothing.' --pairs 4" in description
    assert description.count("Claimed: nothing.") == 1


def test_a_repeated_workload_is_refused(tmp_path, capsys):
    # each pass would run its pairs, and the summary keep only the last
    runner = FakeRunner({side: [0.4] * 8 for side in benchpairs.SIDES})
    with pytest.raises(SystemExit) as info:
        run_main(tmp_path, runner, "--workload", "ensemble")
    assert info.value.code == 2
    assert runner.calls == []
    assert "--workload given more than once: ensemble" in capsys.readouterr().err
