"""Benchmark of the weakmeas command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from the
checkout's ``src``. With ``--trace 0`` the benchmark is one closed-loop
client of the real CLI (``python -m weakmeas``): one child process at a
time, the next started only after the previous one has exited, for
about ``--seconds`` seconds. It reports the end-to-end metrics of those
untraced processes, each the median over the operations of the run.
Their times are normalized by a host-speed probe (``calibrate.py``) run
right before and after each operation, with the benchmark and its
children pinned to one CPU: a shared host's speed drifts far more than
a bound could absorb. With ``--trace 1`` it alternates an untraced and
a traced in-process operation (``perfbench/tracer.py``) and reports the
per-layer metrics.

Every output is checked (``check.py``). The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the
metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload, output_file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 15
#: Repetitions of the host-speed probe (about 0.09 s each) before and
#: after each operation.
PROBE_REPS = 16
#: Median repetition time of ``calibrate.py`` on the host of the
#: baseline (BASELINE.json). A normalized time is the seconds it would
#: take there at that speed: measured seconds times this over the
#: probe's median repetition time around the measurement.
PROBE_REF_S = 0.085
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150.0
# No operation starts when it would be expected to end after this many
# seconds of the run, which must exit within 180 s.
RUN_CAP_S = 140.0


class Refused(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class Exit:
    rc: int | None  # None: killed after the timeout
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str]) -> Exit:
    """Run one child to completion; wall time is spawn to exit, CPU time
    and peak RSS come from wait4 of that child.

    The child's peak RSS is at least this process's own: posix_spawn
    shares this address space until exec, and exec records its high-water
    mark in the child's. So this process stays small, and the output of
    an operation is checked in a child of its own (``verify``)."""
    out, err = OUT_DIR / "child.stdout", OUT_DIR / "child.stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, _child_env(), file_actions=actions)
    reaped = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    return Exit(
        rc=os.waitstatus_to_exitcode(status) if ready else None,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out.read_text(encoding="utf-8", errors="replace"),
        stderr=err.read_text(encoding="utf-8", errors="replace"),
    )


def _exit_problems(ex: Exit) -> list[str]:
    if ex.rc is None:
        return [f"timed out after {CHILD_TIMEOUT_S:g} s"]
    if ex.rc != 0:
        return [f"exit code {ex.rc}: {ex.stderr.strip()[-300:]}"]
    return []


def verify(workload: Workload, seed: int, stdout: str, out: Path) -> list[str]:
    """Problems with one operation's output, found by ``check.py`` in a
    child process; empty when the output is correct."""
    stdout_file = OUT_DIR / f"{workload.name}.stdout"
    stdout_file.write_text(stdout, encoding="utf-8")
    ex = spawn([sys.executable, str(HERE / "check.py"), workload.name, str(seed),
                str(stdout_file), str(out)])
    return _exit_problems(ex) or json.loads(ex.stdout)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bytes_out(stdout: str, out: Path) -> int:
    return len(stdout.encode()) + (out.stat().st_size if out.exists() else 0)


class Run:
    """The operations of one run and their failures."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.notes: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return not problems

    def closed_loop(self, op) -> list:
        """Call ``op`` until the run's seconds are used: another operation
        starts only when at least half of a typical one still fits."""
        results, durations = [], []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            results.append(op())
            durations.append(time.perf_counter() - t)
            typical = statistics.median(durations)
            now = time.perf_counter()
            if now - start + typical / 2 > self.seconds or now - self.t0 + 1.5 * typical > RUN_CAP_S:
                return results


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child, to the lowest CPU it may
    use, so that the host-speed probe and the operations it normalizes
    run where the same neighbours compete."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_probe() -> float:
    """Median repetition time of the host-speed probe, in seconds."""
    ex = spawn([sys.executable, str(HERE / "calibrate.py"), str(PROBE_REPS)])
    if ex.rc != 0:
        raise Refused(f"host-speed probe failed: {ex.stderr.strip()[-300:]}")
    return statistics.median(json.loads(ex.stdout))


def speed_factors(probes: list[float]) -> list[float]:
    """The factor that normalizes the measurement between each pair of
    consecutive probe medians: ``PROBE_REF_S`` over their mean."""
    return [2 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]


def preflight() -> dict:
    """Refuse a checkout without the package source or one where the
    import resolves to another copy of weakmeas."""
    if not (ROOT / "src" / "weakmeas" / "cli.py").is_file():
        raise Refused(f"no weakmeas source at {ROOT / 'src' / 'weakmeas'}")
    OUT_DIR.mkdir(exist_ok=True)
    probe = spawn([sys.executable, "-c",
                   "import json, sys, numpy, weakmeas.cli as c; "
                   "print(json.dumps({'weakmeas': c.__file__, 'numpy': numpy.__version__}))"])
    if probe.rc != 0:
        raise Refused(f"cannot import weakmeas.cli: {probe.stderr.strip()[-300:]}")
    info = json.loads(probe.stdout)
    if not Path(info["weakmeas"]).resolve().is_relative_to(ROOT / "src"):
        raise Refused(f"weakmeas resolves to {info['weakmeas']}, outside the checkout")
    return info


def run_untraced(workload: Workload, seed: int, run: Run) -> dict[str, float]:
    before_setup = host_probe()
    setup = []
    for _ in range(SETUP_PROBES):
        ex = spawn([sys.executable, "-m", "weakmeas", "--help"])
        ok = run.record(_exit_problems(ex) or ([] if "exit codes:" in ex.stdout
                                                else ["--help printed no exit-code table"]))
        if ok:
            setup.append(ex.wall_s)
    probes = [host_probe()]
    out = output_file(OUT_DIR, workload, "cli")

    def op() -> Exit:
        out.unlink(missing_ok=True)
        ex = spawn([sys.executable, "-m", "weakmeas", *workload.argv(seed, str(out))])
        run.record(_exit_problems(ex) or verify(workload, seed, ex.stdout, out))
        probes.append(host_probe())
        return ex

    ops = run.closed_loop(op)
    # The set-up probes sit between the first two probes, and each
    # operation between the probe before it and the one after it.
    setup_factor, *factors = speed_factors([before_setup, *probes])
    run.notes.append("operation wall_s: " + " ".join(f"{e.wall_s:.3f}" for e in ops))
    run.notes.append("probe repetition s: " + " ".join(f"{p:.4f}" for p in [before_setup, *probes]))
    floor = own_peak_rss_mb()
    run.notes.append(f"benchmark's own peak RSS: {floor:.1f} MB")
    if min(e.rss_mb for e in ops) <= floor:
        raise Refused(f"an operation's peak RSS does not exceed the benchmark's own {floor:.1f} MB, "
                      "so peak_rss_mb would measure the benchmark")
    med = statistics.median
    metrics = {
        "norm_wall_s": med(e.wall_s * f for e, f in zip(ops, factors)),
        "norm_items_per_s": med(workload.items / (e.wall_s * f) for e, f in zip(ops, factors)),
        "norm_cpu_s": med(e.cpu_s * f for e, f in zip(ops, factors)),
        "peak_rss_mb": med(e.rss_mb for e in ops),
    }
    if setup:
        metrics["setup_s"] = med(setup) * setup_factor
    return metrics


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of numpy and of weakmeas.cli (which
    includes numpy) from ``python -X importtime`` output."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        found.setdefault(name.strip(), int(cumulative) * 1e-6)
    return {"cli.import_numpy_s": found["numpy"], "cli.import_weakmeas_s": found["weakmeas.cli"]}


def run_traced(workload: Workload, seed: int, run: Run) -> dict[str, float]:
    imports = []
    for _ in range(IMPORT_PROBES):
        ex = spawn([sys.executable, "-X", "importtime", "-c", "import weakmeas.cli"])
        if run.record(_exit_problems(ex)):
            imports.append(import_times(ex.stderr))

    def in_process(mode: str) -> dict | None:
        out = output_file(OUT_DIR, workload, mode)
        out.unlink(missing_ok=True)
        ex = spawn([sys.executable, str(HERE / "tracer.py"), "--workload", workload.name,
                    "--seed", str(seed), "--out-dir", str(OUT_DIR), "--mode", mode])
        problems = _exit_problems(ex)
        report = None
        if not problems:
            report = json.loads(ex.stdout)
            problems = ([f"cli.main returned {report['rc']}"] if report["rc"] != 0
                        else verify(workload, seed, report["stdout"], out))
            report["bytes_out"] = bytes_out(report["stdout"], out)
            run.notes.extend(f"tracer skipped {name}: not found" for name in report.get("skipped", []))
        return report if run.record(problems) else None

    pairs = run.closed_loop(lambda: (in_process("plain"), in_process("traced")))
    plain = [p for p, _ in pairs if p is not None]
    traced = [t for _, t in pairs if t is not None]
    run.notes.append("in-process wall_s plain/traced: " + " ".join(
        f"{p['wall_s']:.3f}/{t['wall_s']:.3f}" for p, t in pairs if p and t))
    if not (plain and traced and imports):
        return {}
    med = statistics.median
    metrics = {name: med(t["metrics"][name] for t in traced) for name in traced[0]["metrics"]}
    metrics.update({name: med(i[name] for i in imports) for name in imports[0]})
    metrics["cli.bytes_out"] = med(t["bytes_out"] for t in traced)
    metrics["montecarlo.used_ratio"] = med(_used_ratio(t["stdout"]) for t in traced)
    metrics["trace.overhead_ratio"] = med(t["wall_s"] for t in traced) / med(p["wall_s"] for p in plain)
    return metrics


def _used_ratio(stdout: str) -> float:
    """Kept over attempted replicas of an ensemble; 1.0 when the
    operation attempts none."""
    if not stdout.strip():
        return 1.0
    out = json.loads(stdout)
    return out["n_replicas"] / (out["n_replicas"] + out["n_discarded"])


def main() -> int:
    parser = argparse.ArgumentParser(description="weakmeas CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    run = Run(args.seconds)
    measure = run_traced if args.trace else run_untraced
    try:
        info = preflight()
        run.notes.append(f"pinned to CPU {pin_to_one_cpu()}")
        values = measure(workload, args.seed, run)
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {workload.name}, seed {args.seed}, weakmeas from {info['weakmeas']}")
    for note in run.notes:
        print(f"  {note}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    print(f"  fail_ratio {run.failed / run.attempted:.4g} ({run.failed} of {run.attempted} operations)")
    metrics = {}
    for metric in declared:
        value = values.get(metric["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {metric['name']:<28} {shown:>14} {metric['unit']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = run.failed == 0 and None not in (v["value"] for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
