"""The benchmark's workloads: the CLI argv each runs and the count of
items (rows or replicas) one run of it produces.

The sweep grids are fixed; the workload seed only reaches the ensemble's
``--seed``. Why each workload exists is recorded in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Both grids run from 0 to just under 360 deg, through both singular
# post-selections of the default basis (90 and 270 deg). A row of the
# exact-PPBS sweep costs about twice a row of the linear one, so that
# sweep takes twice the step, which keeps each operation near 2 to 3 s
# and a run at several operations (NOTES.md, "Spread").
LINEAR_GRID = ("--theta-start", "0", "--theta-stop", "359.95", "--theta-step", "0.05")
LINEAR_ROWS = 7_200
PPBS_GRID = ("--theta-start", "0", "--theta-stop", "359.9", "--theta-step", "0.1")
PPBS_ROWS = 3_600

ENSEMBLE_SHOTS = 1_000_000
ENSEMBLE_REPLICAS = 100_000
#: The ensemble's CLI parameters except the seed, as the CLI echoes them.
ENSEMBLE_PARAMS = {"theta": 0.0, "epsilon": 0.08, "shots": ENSEMBLE_SHOTS,
                   "replicas": ENSEMBLE_REPLICAS}


@dataclass(frozen=True)
class Workload:
    name: str
    items: int
    #: CLI argv (without the program) for a seed and an output file path.
    argv: Callable[[int, str], list[str]]
    #: "csv", "json" (sweep file formats) or "ensemble" (JSON on stdout).
    output: str


def _sweep_linear(seed: int, out: str) -> list[str]:
    return ["sweep", *LINEAR_GRID, "--epsilon", "0.08", "--model", "linear",
            "--format", "csv", "--out", out]


def _sweep_ppbs(seed: int, out: str) -> list[str]:
    return ["sweep", *PPBS_GRID, "--epsilon", "0.08", "--model", "exact-ppbs",
            "--tv", "0.6", "--ah", "0.55", "--postselect", "300",
            "--format", "json", "--out", out]


def _ensemble(seed: int, out: str) -> list[str]:
    p = ENSEMBLE_PARAMS
    return ["montecarlo", "--theta", str(p["theta"]), "--epsilon", str(p["epsilon"]),
            "--model", "exact-ideal", "--shots", str(p["shots"]),
            "--replicas", str(p["replicas"]), "--seed", str(seed), "--mode", "multinomial"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-linear", LINEAR_ROWS, _sweep_linear, "csv"),
        Workload("sweep-ppbs", PPBS_ROWS, _sweep_ppbs, "json"),
        Workload("ensemble", ENSEMBLE_REPLICAS, _ensemble, "ensemble"),
    )
}


def output_file(out_dir: Path, workload: Workload, tag: str) -> Path:
    """Where an operation of ``workload`` writes its sweep file."""
    return Path(out_dir) / f"{workload.name}.{tag}.{workload.output}"
