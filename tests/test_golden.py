"""Sweep outputs against the goldens in ``tests/golden`` (see
``tests/golden/make_goldens.py``, which made them and lists any cell
that changed)."""

import hashlib

import numpy as np
import pytest

from golden.make_goldens import (
    ABS_FLOOR, CASES, REL_TOL, json_cells, load_cells, load_sums, run_case, same_cells,
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cells_match_golden(name):
    # an undefined cell must print as null: json_cells refuses NaN and Infinity
    got, want = json_cells(run_case(name, "json")), load_cells(name)
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    defined = ~np.isnan(want)
    np.testing.assert_allclose(got[defined], want[defined], rtol=REL_TOL, atol=ABS_FLOOR)
    assert same_cells(got, want)


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_recorded_sha256(name):
    assert hashlib.sha256(run_case(name, "csv")).hexdigest() == load_sums()[f"{name}.csv"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_bytes_match_recorded_sha256(name):
    assert hashlib.sha256(run_case(name, "json")).hexdigest() == load_sums()[f"{name}.json"]


def test_same_cells_rule():
    want = np.array([[0.0, 1.0, np.nan], [2.0, 3.0, 4.0]])
    assert same_cells(want.copy(), want)
    assert same_cells(want + [[1e-15, 1e-12, 0.0], [0.0, 0.0, 0.0]], want)
    assert not same_cells(want + [[1e-13, 0.0, 0.0], [0.0, 0.0, 0.0]], want)
    assert not same_cells(want * (1.0 + np.array([[0.0, 2e-12, 0.0], [0.0, 0.0, 0.0]])), want)
    assert not same_cells(np.nan_to_num(want), want)
    assert not same_cells(want[:, :2], want)
