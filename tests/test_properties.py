"""Invariants of the model kernel over random input and analyzer angles,
couplings and PPBS gate amplitudes.

* each model's rows are nonnegative and sum to 1 wherever their status
  is 0;
* the compensated PPBS reproduces the ideal controlled-sign gate;
* F_total = 4 for the Stokes observable in every linear-polarization
  analyzer basis;
* the gap between the linear and the exact ideal-gate table is O(eps^2)
  away from singular post-selection: with L the first-order cell and
  Q = |<f|S|psi>|^2 / 2, the exact cell is (L + eps^2 Q) / (1 + eps^2),
  so |gap| / eps^2 = |Q - L| / (1 + eps^2) <= 1;
* ``model_distribution`` is the N = 1 call of ``sweep_columns``: bit
  for bit a row of a multi-row call where its status is 0, and the error
  of that status where it is not;
* the moment estimator on arrays is, bit for bit, a plain-Python loop
  over its rows, status included.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weakmeas import CELLS, GateParams, errors
from weakmeas.kernel import WV_REFERENCE_FLOOR, model_distribution, moment_estimates, sweep_columns

angles = st.floats(0.0, 360.0, exclude_max=True)
thetas = st.lists(angles, min_size=1, max_size=8).map(np.array)
couplings = st.floats(-0.3, 0.3)
ppbs_gates = st.builds(GateParams, t_h=st.floats(0.0, 1.0, exclude_min=True),
                       t_v=st.floats(1e-3, 1.0), a_h=st.floats(1e-3, 1.0))

PROPERTY = settings(max_examples=100, deadline=None)


def table(theta, eps, model, gate_params, postselect):
    """(p[N, 4] in CELLS order, status[N]) of one sweep_columns call."""
    cols = sweep_columns(theta, eps, model, gate_params, postselect)
    return np.stack([cols[f"p_{m.value}{f.value}"] for m, f in CELLS], axis=1), cols["status"]


@PROPERTY
@given(theta=thetas, eps=couplings, postselect=angles, gate=ppbs_gates)
def test_rows_are_distributions_where_defined(theta, eps, postselect, gate):
    for model, params in (("linear", None), ("exact-ideal", None), ("exact-ppbs", gate)):
        p, status = table(theta, eps, model, params, postselect)
        defined = status == 0
        assert (p[defined] >= 0.0).all(), model
        np.testing.assert_allclose(p[defined].sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
        assert np.isnan(p[~defined]).all(), model


@PROPERTY
@given(theta=thetas, eps=couplings, postselect=angles)
def test_compensated_ppbs_equals_ideal_gate(theta, eps, postselect):
    ppbs, ppbs_status = table(theta, eps, "exact-ppbs", GateParams(), postselect)
    ideal, ideal_status = table(theta, eps, "exact-ideal", None, postselect)
    np.testing.assert_array_equal(ppbs_status, ideal_status)
    np.testing.assert_allclose(ppbs, ideal, rtol=0.0, atol=1e-12)


@PROPERTY
@given(theta=thetas, eps=couplings, postselect=angles)
def test_fisher_total_is_four_in_every_linear_basis(theta, eps, postselect):
    cols = sweep_columns(theta, eps, "linear", None, postselect)
    np.testing.assert_allclose(cols["F_total"], 4.0, rtol=0.0, atol=1e-9)
    assert (cols["F_A"] >= 0.0).all() and (cols["F_D"] >= 0.0).all()


@PROPERTY
@given(theta=thetas, eps=couplings, postselect=angles)
def test_linear_exact_gap_is_second_order(theta, eps, postselect):
    assume(abs(eps) >= 1e-3)
    p0, _ = table(theta, 0.0, "linear", None, postselect)
    # |<f|psi>|^2 of both outcomes at least 1e-8: away from singular post-selection
    regular = (p0[:, 0] + p0[:, 1] >= 1e-8) & (p0[:, 2] + p0[:, 3] >= 1e-8)
    assume(regular.any())
    for k in range(7):
        e = eps * 0.5**k
        linear, status = table(theta, e, "linear", None, postselect)
        exact, _ = table(theta, e, "exact-ideal", None, postselect)
        rows = regular & (status == 0)
        ratio = np.abs(exact[rows] - linear[rows]) / (e * e)
        assert (ratio <= 1.0 + 1e-6).all(), (e, ratio.max())


@PROPERTY
@given(theta=thetas, eps=couplings, postselect=angles,
       model=st.sampled_from(["linear", "exact-ideal", "exact-ppbs"]), gate=st.none() | ppbs_gates)
def test_model_distribution_is_a_row_of_sweep_columns(theta, eps, postselect, model, gate):
    gate = gate if model == "exact-ppbs" else None
    p, status = table(theta, eps, model, gate, postselect)
    for k, angle in enumerate(theta.tolist()):
        if status[k] == 0:
            got = model_distribution(angle, eps, model, gate, postselect)
            assert got.tobytes() == p[k].tobytes(), (angle, got, p[k])
        else:
            with pytest.raises(errors.BY_CODE[int(status[k])]):
                model_distribution(angle, eps, model, gate, postselect)


def plain_moment_estimate(w_d: float, w_a: float, wv_ref: float) -> tuple[float, int]:
    """One row of the moment estimator, in Python floats."""
    total = w_d + w_a
    if not total > 0.0:
        return math.nan, 9
    if abs(wv_ref) < WV_REFERENCE_FLOOR:
        return math.nan, 8
    if math.isnan(wv_ref):
        return math.nan, 4
    return (w_d / total - w_a / total) / (2.0 * wv_ref), 0


counts = st.integers(0, 2**63 - 1)
probabilities = st.floats(0.0, 1.0)
references = st.one_of(
    st.floats(-1e6, 1e6), st.floats(-2 * WV_REFERENCE_FLOOR, 2 * WV_REFERENCE_FLOOR),
    st.sampled_from([0.0, -0.0, math.nan, WV_REFERENCE_FLOOR, -WV_REFERENCE_FLOOR]),
)
weight_rows = st.lists(st.one_of(st.tuples(counts, counts), st.tuples(probabilities, probabilities),
                                 st.just((0, 0))).flatmap(lambda w: st.tuples(st.just(w), references)),
                       min_size=1, max_size=16)


@PROPERTY
@given(rows=weight_rows)
@example(rows=[((0, 0), 1.0), ((3, 5), 0.0), ((0.2, 0.8), math.nan), ((0.0, 0.0), math.nan),
               ((7, 0), 1e-9), ((2**63 - 1, 2**63 - 1), 2.0)])
def test_moment_estimates_equal_a_plain_loop(rows):
    w_d = [float(w[0]) for w, _ in rows]
    w_a = [float(w[1]) for w, _ in rows]
    wv_ref = np.array([wv for _, wv in rows])
    want = [plain_moment_estimate(d, a, wv) for d, a, wv in zip(w_d, w_a, wv_ref.tolist())]
    eps_hat, status = moment_estimates(np.array([w[0] for w, _ in rows], dtype=float),
                                       np.array([w[1] for w, _ in rows], dtype=float), wv_ref)
    assert status.tolist() == [code for _, code in want]
    # bit for bit, NaN included
    assert eps_hat.view(np.int64).tolist() == np.array([e for e, _ in want]).view(np.int64).tolist()
