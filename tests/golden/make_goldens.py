"""Golden outputs of ``weakmeas sweep`` over the full circle.

Each case is one sweep at 0..359 deg in 1 deg steps, eps = 0.08. Its
golden is every numeric cell as a (column, row) float64 array, NaN where
the cell is empty, stored xz-compressed as ``<case>.npy.xz``, plus the
sha256 of the CSV and of the JSON bytes in ``SHA256SUMS`` (as
``<case>.csv`` and ``<case>.json``). The cells are read from the JSON
output, which prints each float in full; the CSV prints the same
values to 12 significant digits, so the CSV of the goldens can be
rebuilt from them, and a changed CSV cell shows with its ulp distance.

    PYTHONPATH=src python tests/golden/make_goldens.py          # compare, print differing cells
    PYTHONPATH=src python tests/golden/make_goldens.py --write  # rewrite the goldens

The goldens pin the output of the commit they were made at. Rewriting
them is a change of the recorded behaviour: a commit that does so names
every cell that changed (the compare mode lists them with their ulp
distance). ``--write`` always rewrites ``SHA256SUMS``, but rewrites a
case's cells only where they no longer match by the rule of
``test_golden.py`` (:func:`same_cells`), so equal goldens keep the
commit they were made at.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import lzma
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent
SUMS = GOLDEN_DIR / "SHA256SUMS"

_GRID = ("--theta-start", "0", "--theta-stop", "359", "--theta-step", "1", "--epsilon", "0.08")
_MODELS = {
    "linear": ("--model", "linear"),
    "exact-ideal": ("--model", "exact-ideal"),
    "exact-ppbs": ("--model", "exact-ppbs", "--tv", "0.6", "--ah", "0.55"),
}
#: Relative tolerance of a defined cell against its golden.
REL_TOL = 1e-12
#: Absolute floor of that tolerance: cells whose exact value is 0, such
#: as wv_D at 90 deg, hold round-off of order 1e-16 that any reordering
#: of the arithmetic changes.
ABS_FLOOR = 1e-14

#: Case name -> sweep argv without ``--format`` and ``--out``.
CASES = {
    f"{model}-ps{ps}": ("sweep", *_GRID, *args, "--postselect", str(ps))
    for model, args in _MODELS.items()
    for ps in (270, 300)
}


def run_case(name: str, fmt: str) -> bytes:
    """The bytes the sweep of case ``name`` writes in format ``fmt``."""
    from weakmeas.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"{name}.{fmt}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*CASES[name], "--format", fmt, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"sweep of case {name} exited {code}")
        return out.read_bytes()


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not JSON; an undefined cell is null")


def json_cells(data: bytes) -> np.ndarray:
    """Numeric cells of a JSON sweep as a (column, row) array, NaN where
    null. ``format_version`` is not numeric and is left out. A NaN or
    Infinity token is refused."""
    rows = json.loads(data, parse_constant=_refuse_constant)["rows"]
    keys = list(rows[0])[:-1]
    return np.array([[math.nan if r[k] is None else r[k] for k in keys] for r in rows]).T


def csv_cells(data: bytes) -> list[list[str]]:
    """Numeric cells of a CSV sweep as text, (column, row)."""
    rows = [line.split(",")[:-1] for line in data.decode("utf-8").splitlines()[1:]]
    return [list(col) for col in zip(*rows)]


def printed(value: float) -> str:
    """A cell as the CSV prints it."""
    return "" if math.isnan(value) else f"{value:.12g}"


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.npy.xz"


def load_cells(name: str) -> np.ndarray:
    return np.load(io.BytesIO(lzma.decompress(golden_path(name).read_bytes())))


def same_cells(got: np.ndarray, want: np.ndarray) -> bool:
    """Whether ``got`` matches the golden ``want``: the same shape and
    empty cells, and each defined cell within REL_TOL, or ABS_FLOOR."""
    if got.shape != want.shape or not np.array_equal(np.isnan(got), np.isnan(want)):
        return False
    defined = ~np.isnan(want)
    return np.allclose(got[defined], want[defined], rtol=REL_TOL, atol=ABS_FLOOR)


def load_sums() -> dict[str, str]:
    """``<case>.<fmt>`` -> sha256 of those bytes."""
    pairs = (line.split() for line in SUMS.read_text(encoding="ascii").splitlines())
    return {name: digest for digest, name in pairs}


def ulp_distance(a: float, b: float) -> int:
    """Number of doubles between a and b, which have the same sign."""
    ia, ib = np.array([a, b], dtype=np.float64).view(np.int64)
    return abs(int(ia) - int(ib))


def write() -> None:
    sums = []
    for name in CASES:
        data = run_case(name, "json")
        cells = json_cells(data)
        csv = run_case(name, "csv")
        if csv_cells(csv) != [[printed(v) for v in col] for col in cells]:
            raise RuntimeError(f"case {name}: the CSV does not print the JSON values")
        if not golden_path(name).exists() or not same_cells(cells, load_cells(name)):
            buf = io.BytesIO()
            np.save(buf, cells)
            golden_path(name).write_bytes(lzma.compress(buf.getvalue(), preset=9))
        sums.append(f"{hashlib.sha256(csv).hexdigest()}  {name}.csv\n")
        sums.append(f"{hashlib.sha256(data).hexdigest()}  {name}.json\n")
    SUMS.write_text("".join(sums), encoding="ascii")


def compare() -> int:
    """Print every CSV cell that differs from the golden's, with the ulp
    distance between the full-precision values, and every case whose JSON
    bytes differ from their recorded sha256."""
    from weakmeas.cli import SWEEP_COLUMNS

    sums, changed = load_sums(), 0
    for name in CASES:
        data = run_case(name, "json")
        if hashlib.sha256(data).hexdigest() != sums[f"{name}.json"]:
            changed += 1
            print(f"{name}: the JSON bytes differ from SHA256SUMS")
        csv = run_case(name, "csv")
        if hashlib.sha256(csv).hexdigest() == sums[f"{name}.csv"]:
            continue
        want, got = load_cells(name), json_cells(data)
        for col, texts in enumerate(csv_cells(csv)):
            for row, text in enumerate(texts):
                if text != printed(want[col, row]):
                    changed += 1
                    print(f"{name} theta={want[0, row]:g} {SWEEP_COLUMNS[col]}: "
                          f"{printed(want[col, row])} -> {text} "
                          f"({want[col, row]!r} -> {got[col, row]!r}, "
                          f"{ulp_distance(want[col, row], got[col, row])} ulp)")
    print(f"{changed} printed cells or JSON files differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(write() if "--write" in sys.argv[1:] else compare())
