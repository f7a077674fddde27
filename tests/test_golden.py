"""Sweep outputs against the goldens in ``tests/golden`` (see
``tests/golden/make_goldens.py``, which made them and lists any cell
that changed)."""

import hashlib

import numpy as np
import pytest

from golden.make_goldens import CASES, json_cells, load_cells, load_sums, run_case

REL_TOL = 1e-12
# Cells whose exact value is 0, such as wv_D at 90 deg, hold round-off of
# order 1e-16 that any reordering of the arithmetic changes.
ABS_FLOOR = 1e-14


@pytest.mark.parametrize("name", sorted(CASES))
def test_cells_match_golden(name):
    # an undefined cell must print as null: json_cells refuses NaN and Infinity
    got, want = json_cells(run_case(name, "json")), load_cells(name)
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    defined = ~np.isnan(want)
    np.testing.assert_allclose(got[defined], want[defined], rtol=REL_TOL, atol=ABS_FLOOR)


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_recorded_sha256(name):
    assert hashlib.sha256(run_case(name, "csv")).hexdigest() == load_sums()[f"{name}.csv"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_bytes_match_recorded_sha256(name):
    assert hashlib.sha256(run_case(name, "json")).hexdigest() == load_sums()[f"{name}.json"]
