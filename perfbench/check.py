"""Correctness gate: compare a workload's output with the reference made
from the seed commit's output.

Each check returns a list of problems; an empty list means correct.

Sweeps. A reference file holds every numeric cell of the sweep, NaN
where the cell is empty. The row count and the empty cells must match
exactly, every other cell within a relative 1e-9, and every row must
carry the sweep format version.

Ensemble. For a pinned seed, n_replicas and n_discarded must match
exactly and the mean and variance within a relative 1e-12. For every
seed, the mean must lie within 6 standard errors of the expectation of
the exact ideal-gate model and the variance within 6 standard errors of
the Cramer-Rao bound scaled by that model's conditional variance; both
are computed here independently of the package.

    python3 perfbench/check.py WORKLOAD SEED STDOUT_FILE OUTPUT_FILE

checks one operation's output and prints its problems as a JSON list.
"""

from __future__ import annotations

import io
import json
import lzma
import math
import sys
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SWEEP_FORMAT = "sweep-1"
SWEEP_COLUMNS = (
    "theta_deg", "p_DA", "p_AA", "p_DD", "p_AD", "wv_A", "wv_D", "eps_hat_A",
    "sigma_rel_A", "F_A", "F_D", "F_total", "format_version",
)
NUMERIC_COLUMNS = SWEEP_COLUMNS[:-1]
_COL = {name: i for i, name in enumerate(NUMERIC_COLUMNS)}

REL_TOL = 1e-9
# A cell whose exact value is 0 holds round-off of order 1e-16 (for
# example wv_D at theta = 90 deg), which any reordering of the arithmetic
# changes; differences below this floor are not treated as wrong output.
ABS_FLOOR = 1e-14
ENSEMBLE_REL_TOL = 1e-12
N_SIGMA = 6.0
_MAX_PROBLEMS = 10


def close(got: float, want: float) -> bool:
    return abs(got - want) <= ENSEMBLE_REL_TOL * max(abs(got), abs(want))


# -- parsing ---------------------------------------------------------------


def _cell(text: str) -> float:
    """A numeric CSV cell, NaN when empty."""
    if not text:
        return math.nan
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite cell {text!r}")
    return value


def parse_sweep_csv(text: str) -> tuple[np.ndarray, list[str]]:
    """Numeric cells as a (column, row) array, NaN where empty, and the
    format_version of every row."""
    lines = text.split("\n")
    if lines[0] != ",".join(SWEEP_COLUMNS):
        raise ValueError(f"unexpected CSV header {lines[0][:200]!r}")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    rows, versions = [], []
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != len(SWEEP_COLUMNS):
            raise ValueError(f"row has {len(cells)} cells: {line[:200]!r}")
        rows.append([_cell(c) for c in cells[:-1]])
        versions.append(cells[-1])
    return _columns(rows), versions


def parse_sweep_json(text: str) -> tuple[np.ndarray, list[str]]:
    doc = json.loads(text)
    if doc.get("format") != SWEEP_FORMAT:
        raise ValueError(f"unexpected format {doc.get('format')!r}")
    rows, versions = [], []
    for row in doc["rows"]:
        if tuple(row) != SWEEP_COLUMNS:
            raise ValueError(f"unexpected keys {list(row)!r}")
        cells = [row[c] for c in NUMERIC_COLUMNS]
        for c in cells:
            if c is not None and (not isinstance(c, (int, float)) or not math.isfinite(c)):
                raise ValueError(f"non-numeric cell {c!r}")
        rows.append([math.nan if c is None else float(c) for c in cells])
        versions.append(row["format_version"])
    return _columns(rows), versions


def _columns(rows: list[list[float]]) -> np.ndarray:
    return np.array(rows, dtype=float).reshape(-1, len(NUMERIC_COLUMNS)).T.copy()


def parse_sweep(text: str, fmt: str):
    return parse_sweep_csv(text) if fmt == "csv" else parse_sweep_json(text)


# -- sweeps ----------------------------------------------------------------


def check_sweep(cells: np.ndarray, versions: list[str], ref: np.ndarray) -> list[str]:
    """``cells`` and ``ref`` are (column, row) arrays, NaN where empty."""
    if cells.shape != ref.shape:
        return [f"{cells.shape[1]} rows, reference has {ref.shape[1]}"]
    problems = []
    empty, want_empty = np.isnan(cells), np.isnan(ref)
    for j in np.flatnonzero((empty != want_empty).any(axis=1)):
        k = int(np.argmax(empty[j] != want_empty[j]))
        problems.append(f"empty cells of {NUMERIC_COLUMNS[j]} differ from the reference, first at row {k}")
    with np.errstate(invalid="ignore"):
        tol = np.maximum(REL_TOL * np.maximum(np.abs(cells), np.abs(ref)), ABS_FLOOR)
        wrong = ~(empty | want_empty) & ~(np.abs(cells - ref) <= tol)
    for j, k in zip(*np.nonzero(wrong)):
        if len(problems) >= _MAX_PROBLEMS:
            break
        problems.append(f"row {k} {NUMERIC_COLUMNS[j]}: {float(cells[j, k])!r} "
                        f"!= reference {float(ref[j, k])!r}")
    n_wrong = int(wrong.sum())
    if n_wrong:
        problems.append(f"{n_wrong} cells differ from the reference")
    bad_versions = [k for k, v in enumerate(versions) if v != SWEEP_FORMAT]
    if bad_versions:
        problems.append(f"{len(bad_versions)} rows have another format_version, "
                        f"first row {bad_versions[0]}: {versions[bad_versions[0]]!r}")
    return problems


# -- ensemble --------------------------------------------------------------


def ideal_gate_expectation(theta_deg: float, eps: float, shots: int) -> dict:
    """Mean and variance of the moment estimator on the f = A column of
    the exact ideal-gate model, and the Cramer-Rao bound of that column,
    from the closed form: system (x) probe, the VV amplitude negated,
    diagonal analysis of both photons, renormalized."""
    half = math.radians(theta_deg) / 2.0
    psi = (math.cos(half), math.sin(half))
    norm = math.hypot(1.0, eps)
    probe = (1.0 / norm, eps / norm)
    amps = [psi[0] * probe[0], psi[0] * probe[1], psi[1] * probe[0], -psi[1] * probe[1]]
    s = 1.0 / math.sqrt(2.0)
    diag_d, diag_a = (s, s), (s, -s)

    def joint(f, m):
        proj = (f[0] * m[0], f[0] * m[1], f[1] * m[0], f[1] * m[1])
        return sum(p * a for p, a in zip(proj, amps)) ** 2

    total = sum(a * a for a in amps)
    p_da, p_aa = joint(diag_a, diag_d) / total, joint(diag_a, diag_a) / total
    p_f = p_da + p_aa
    p_d, p_a = p_da / p_f, p_aa / p_f
    overlap = diag_a[0] * psi[0] + diag_a[1] * psi[1]
    wv = (diag_a[0] * psi[0] - diag_a[1] * psi[1]) / overlap
    return {
        "mean": (p_d - p_a) / (2.0 * wv),
        "var": p_d * p_a / (wv * wv * shots * p_f),
        "crb": 1.0 / (shots * 4.0 * overlap * overlap * wv * wv),
    }


def sweep_reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.npy.xz"


def load_sweep_reference(workload: str) -> np.ndarray:
    return np.load(io.BytesIO(lzma.decompress(sweep_reference_path(workload).read_bytes())))


def load_pinned_ensembles() -> dict:
    """Pinned ensemble outputs, keyed by the seed as a string."""
    return json.loads(lzma.decompress((REFERENCE_DIR / "ensemble.json.xz").read_bytes()))["seeds"]


def check_ensemble(text: str, argv: dict, pinned: dict | None) -> list[str]:
    """``argv`` holds the ensemble's CLI parameters: theta, epsilon,
    shots, replicas and seed."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = []
    for key in ("theta", "epsilon", "shots", "replicas", "seed"):
        echoed = out.get("theta_deg" if key == "theta" else key)
        if echoed != argv[key]:
            problems.append(f"{key} echoed as {echoed!r}, expected {argv[key]!r}")
    if out.get("model") != "exact-ideal" or out.get("f") != "A":
        problems.append(f"model/f echoed as {out.get('model')!r}/{out.get('f')!r}")
    kept, lost = out.get("n_replicas"), out.get("n_discarded")
    if not isinstance(kept, int) or not isinstance(lost, int) or kept + lost != argv["replicas"]:
        return problems + [f"n_replicas {kept!r} + n_discarded {lost!r} != {argv['replicas']}"]
    if pinned is not None:
        for key in ("n_replicas", "n_discarded"):
            if out[key] != pinned[key]:
                problems.append(f"{key} {out[key]!r} != pinned {pinned[key]!r}")
        for key in ("mean_eps_hat", "var_eps_hat", "crb"):
            if not close(out[key], pinned[key]):
                problems.append(f"{key} {out[key]!r} != pinned {pinned[key]!r}")
    exp = ideal_gate_expectation(argv["theta"], argv["epsilon"], argv["shots"])
    if not close(out["crb"], exp["crb"]):
        problems.append(f"crb {out['crb']!r} != {exp['crb']!r}")
    if abs(out["mean_eps_hat"] - exp["mean"]) > N_SIGMA * math.sqrt(exp["var"] / kept):
        problems.append(f"mean_eps_hat {out['mean_eps_hat']!r} is off the expected {exp['mean']!r}")
    if abs(out["var_eps_hat"] / exp["var"] - 1.0) > N_SIGMA * math.sqrt(2.0 / (kept - 1)):
        problems.append(f"var_eps_hat {out['var_eps_hat']!r} is off the expected {exp['var']!r}")
    return problems


# -- one operation ---------------------------------------------------------


def verify(workload_name: str, seed: int, stdout: str, out: Path) -> list[str]:
    """Problems with one operation's output; empty when it is correct."""
    from workloads import ENSEMBLE_PARAMS, WORKLOADS

    workload = WORKLOADS[workload_name]
    try:
        if workload.output == "ensemble":
            pinned = load_pinned_ensembles().get(str(seed))
            return check_ensemble(stdout, dict(ENSEMBLE_PARAMS, seed=seed), pinned)
        cells, versions = parse_sweep(out.read_text(encoding="utf-8"), workload.output)
        return check_sweep(cells, versions, load_sweep_reference(workload.name))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def main(argv: list[str]) -> int:
    workload, seed, stdout_file, out_file = argv
    stdout = Path(stdout_file).read_text(encoding="utf-8", errors="replace")
    print(json.dumps(verify(workload, int(seed), stdout, Path(out_file))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
