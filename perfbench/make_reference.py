"""Write the correctness references under perfbench/reference/.

The references pin the output of the commit they are made at; the files
in the repository were made at the seed commit of the benchmark (see
NOTES.md) and are never regenerated to make a failing check pass.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import io
import json
import lzma
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import check
from workloads import ENSEMBLE_REPLICAS, ENSEMBLE_SHOTS, WORKLOADS, output_file

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Ensemble seeds 0 .. PINNED_SEEDS - 1 are checked exactly.
PINNED_SEEDS = 64


def _run_cli(argv: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "weakmeas", *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return done.stdout


def _xz(data: bytes) -> bytes:
    return lzma.compress(data, preset=9)


def write_sweep(name: str) -> None:
    """Every numeric cell of the sweep, (column, row), NaN where empty."""
    workload = WORKLOADS[name]
    out = output_file(OUT_DIR, workload, "reference")
    _run_cli(workload.argv(0, str(out)))
    cells, _ = check.parse_sweep(out.read_text(encoding="utf-8"), workload.output)
    out.unlink()
    buf = io.BytesIO()
    np.save(buf, cells)
    check.sweep_reference_path(name).write_bytes(_xz(buf.getvalue()))


def write_ensemble() -> None:
    pinned = {}
    for seed in range(PINNED_SEEDS):
        out = json.loads(_run_cli(WORKLOADS["ensemble"].argv(seed, "")))
        pinned[str(seed)] = {k: out[k] for k in
                             ("mean_eps_hat", "var_eps_hat", "n_replicas", "n_discarded", "crb")}
    doc = {"workload": "ensemble", "shots": ENSEMBLE_SHOTS, "replicas": ENSEMBLE_REPLICAS,
           "seeds": pinned}
    data = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
    (check.REFERENCE_DIR / "ensemble.json.xz").write_bytes(_xz(data))


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in ("sweep-linear", "sweep-ppbs"):
        write_sweep(name)
    write_ensemble()
    return 0


if __name__ == "__main__":
    sys.exit(main())
