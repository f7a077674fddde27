"""Alternated benchmark pairs of two commits, written as a BENCH file.

    python3 tools/benchpairs.py PARENT CHANGE --workload W [--workload W2 ...]
        --pairs N --seconds S --seed-base K --out BENCH_<pr>.json [--note TEXT]

Run from the root of a git checkout. Each commit is exported with
``git archive`` into a fresh temporary tree, and ``perfbench/run.py`` of
that tree runs there as it is, one run at a time, with
``PYTHONDONTWRITEBYTECODE=1`` and pinned to the lowest allowed CPU with
``taskset`` where it exists. For each workload in turn, pair i (from 1)
runs both trees on seed K + j, where j counts the pairs written before
it; odd pairs run the parent first, even pairs the change.

The file holds ``description``, ``parent_commit``, ``change_commit``,
``machine``, ``summary`` and ``runs``. ``description`` quotes the command
line as it can be rerun, ``--note`` (what is claimed) included. Per
workload, ``summary`` gives the pairs, the operations attempted and failed
on each side, whether every run was correct, and per end-to-end metric of
BENCHMARK.json each side's median, q1, q3 and n (``statistics.quantiles(n=4,
method="inclusive")``), ``change_wins`` (pairs where the change reads
better), ``median_change_rel`` (change median over parent median, minus
1) and ``parent_iqr``. When any run is not correct, no file is written:
the runs at fault are named on stderr and the exit code is 1.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import io
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def schedule(workloads, pairs: int, seed_base: int):
    """(workload, pair, seed, sides in run order) of every pair."""
    seeds = iter(range(seed_base, seed_base + len(workloads) * pairs))
    return [(w, i, next(seeds), SIDES if i % 2 else SIDES[::-1])
            for w in workloads for i in range(1, pairs + 1)]


def run_pairs(commits: dict, workloads, pairs: int, seconds: float, seed_base: int, runner):
    """The run entries of all pairs. ``runner(side, workload, seed,
    seconds)`` runs one side and returns (returncode, the JSON object of
    its last stdout line, or None)."""
    runs = []
    for workload, pair, seed, order in schedule(workloads, pairs, seed_base):
        for side in order:
            started = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            returncode, result = runner(side, workload, seed, seconds)
            runs.append({"commit": commits[side], "first": order[0], "pair": pair,
                         "result": result, "returncode": returncode, "seed": seed,
                         "side": side, "started_utc": started, "workload": workload})
    return runs


def faults(runs) -> list[str]:
    """A line for each run that exited nonzero or did not read correct."""
    return [f"{r['workload']} pair {r['pair']} {r['side']} (seed {r['seed']}): exit "
            f"{r['returncode']}, correct {(r['result'] or {}).get('correct')}"
            for r in runs
            if r["returncode"] != 0 or not r["result"] or r["result"].get("correct") is not True]


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs, end_to_end) -> dict:
    """The ``summary`` of correct ``runs``, per workload and per metric of
    ``end_to_end`` (BENCHMARK.json's list: name, better)."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {(r["pair"], r["side"]): r["result"] for r in mine}
        pair_ids = sorted({r["pair"] for r in mine})
        metrics = {}
        for spec in end_to_end:
            name, better = spec["name"], spec["better"]
            values = {side: [by_pair[p, side]["metrics"][name]["value"] for p in pair_ids]
                      for side in SIDES}
            entry = {"better": better}
            for side in SIDES:
                q1, q3 = _quartiles(values[side])
                entry[side] = {"median": statistics.median(values[side]), "q1": q1, "q3": q3,
                               "n": len(values[side])}
            sign = 1 if better == "higher" else -1
            entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(values["parent"],
                                                                          values["change"]))
            entry["median_change_rel"] = entry["change"]["median"] / entry["parent"]["median"] - 1
            entry["parent_iqr"] = entry["parent"]["q3"] - entry["parent"]["q1"]
            metrics[name] = entry
        summary[workload] = {
            "pairs": len(pair_ids),
            "attempted": {s: sum(by_pair[p, s]["attempted"] for p in pair_ids) for s in SIDES},
            "failed": {s: sum(by_pair[p, s]["failed"] for p in pair_ids) for s in SIDES},
            "all_correct": all(r["result"]["correct"] is True for r in mine),
            "metrics": metrics,
        }
    return summary


def machine() -> dict:
    return {"PYTHONDONTWRITEBYTECODE": "1", "cpus": os.cpu_count(),
            "numpy": importlib.metadata.version("numpy"),
            "platform": platform.platform(), "python": platform.python_version()}


def report(commits, runs, end_to_end, command: str, machine_info: dict) -> dict:
    return {
        "description": (
            f"Alternated parent/change runs of perfbench/run.py, written by `{command}`. Each "
            "run entry holds the run's final JSON line. Quartiles are statistics.quantiles(n=4, "
            "method='inclusive') over the runs of one side; change_wins counts pairs where the "
            "change reads better. Odd pairs ran the parent first, even pairs the change. One "
            "run at a time, pinned with taskset where it exists, from git archive trees of the "
            "two commits with PYTHONDONTWRITEBYTECODE=1."),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": machine_info,
        "summary": summarize(runs, end_to_end),
        "runs": runs,
    }


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def _export(commit: str, into: Path) -> None:
    # the "data" filter, where this Python has it, refuses links and paths
    # that leave the tree
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, **safe)


def _subprocess_runner(trees: dict):
    pin = ["taskset", "-c", str(min(os.sched_getaffinity(0)))] if shutil.which("taskset") else []
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}

    def run(side, workload, seed, seconds):
        argv = [*pin, sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds)]
        done = subprocess.run(argv, cwd=trees[side], env=env, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        return done.returncode, result

    return run


def main(argv=None, runner=None, commits=None, end_to_end=None, machine_info=None) -> int:
    """Run the pairs and write the file. The keyword arguments replace
    git, the child runs, BENCHMARK.json and the machine probe."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", default="", help="what is claimed, and what was predicted "
                        "and seen; the description gives it once, in the quoted command line")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    # a second pass would overwrite the first in the summary's pairs
    repeated = sorted({w for w in args.workload if args.workload.count(w) > 1})
    if repeated:
        parser.error(f"--workload given more than once: {', '.join(repeated)}")
    # quoted, so that the description gives a command line that runs as it is
    command = shlex.join(["python3", "tools/benchpairs.py",
                          *(argv if argv is not None else sys.argv[1:])])
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        if commits is None:
            commits = {side: _git("rev-parse", f"{ref}^{{commit}}").decode().strip()
                       for side, ref in zip(SIDES, (args.parent, args.change))}
        if runner is None:
            trees = {side: Path(tmp) / side for side in SIDES}
            for side in SIDES:
                _export(commits[side], trees[side])
            runner = _subprocess_runner(trees)
        if end_to_end is None:
            spec = json.loads(_git("show", f"{commits['parent']}:BENCHMARK.json"))
            end_to_end = spec["end_to_end"]
        runs = run_pairs(commits, args.workload, args.pairs, args.seconds, args.seed_base, runner)
    bad = faults(runs)
    if bad:
        print(f"benchpairs: {len(bad)} run(s) not correct, no file written:", file=sys.stderr)
        for line in bad:
            print(f"  {line}", file=sys.stderr)
        return 1
    data = report(commits, runs, end_to_end, command,
                  machine_info if machine_info is not None else machine())
    args.out.write_text(json.dumps(data, indent=1, sort_keys=False) + "\n")
    for workload, entry in data["summary"].items():
        wall = entry["metrics"].get("norm_wall_s")
        if wall:
            print(f"{workload}: norm_wall_s {wall['parent']['median']:.4g} -> "
                  f"{wall['change']['median']:.4g} s ({wall['median_change_rel']:+.1%}), "
                  f"change better in {wall['change_wins']} of {entry['pairs']}, "
                  f"parent IQR {wall['parent_iqr']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
