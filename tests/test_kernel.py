import math

import numpy as np
import pytest

from weakmeas import (
    CouplingTooStrong,
    GateParams,
    LinearizationInvalid,
    ModelTag,
    NonOrthonormalBasis,
    Outcome,
    WeakMeasError,
    ZeroCoincidenceNorm,
    estimate_epsilon,
    fisher_information,
    linear_states,
    model_distribution,
    weak_value,
)
from weakmeas.estimation import ConditionalPair
from weakmeas.kernel import DIAG_BASIS, analyzer_basis, joint_table, sweep_columns

F_A = Outcome.A
MODELS = [
    (ModelTag.LINEAR, None),
    (ModelTag.EXACT_IDEAL, None),
    (ModelTag.EXACT_PPBS, GateParams(1.0, 0.6, 0.55)),
]
GRID = np.concatenate([np.arange(0.0, 360.0, 2.5), [88.0, 90.0, 92.0, 270.0]])


def assert_same_ray(state, amp_h, amp_v, tol=1e-12):
    """States are physically identical up to a global phase."""
    want = np.array([amp_h, amp_v], dtype=complex)
    want /= np.linalg.norm(want)
    assert abs(np.vdot(want, state)) == pytest.approx(1.0, abs=tol)


def reference_row(theta, eps, model, gate, postselect):
    """One sweep row from the scalar API, one call per quantity."""
    psi, basis = linear_states(theta), analyzer_basis(postselect)
    row = {}
    row["F_D"], row["F_A"] = fisher_information(psi, basis).tolist()
    row["sigma_rel_A"] = 1.0 / math.sqrt(row["F_A"]) if row["F_A"] > 1e-8 else None
    for key, f in (("wv_D", basis[0]), ("wv_A", basis[1])):
        try:
            row[key] = weak_value(psi, f).real
        except WeakMeasError:
            row[key] = None
    try:
        p = model_distribution(theta, eps, model, gate, f_basis=basis)
    except WeakMeasError:
        p = None
    row["p_DA"], row["p_AA"], row["p_DD"], row["p_AD"] = [None] * 4 if p is None else p
    row["eps_hat_A"] = None
    if p is not None and row["wv_A"] is not None and p[0] + p[1] > 0.0:
        try:
            cond = ConditionalPair.from_joint(p, F_A)
            row["eps_hat_A"], _ = estimate_epsilon(cond, row["wv_A"])
        except WeakMeasError:
            pass
    return row


@pytest.mark.parametrize("model, gate", MODELS)
@pytest.mark.parametrize("postselect", [270.0, 300.0])
def test_sweep_columns_match_scalar_api(model, gate, postselect):
    cols = sweep_columns(GRID, 0.08, model, gate, postselect)
    for i, theta in enumerate(GRID):
        for key, want in reference_row(float(theta), 0.08, model, gate, postselect).items():
            got = cols[key][i]
            if want is None:
                assert math.isnan(got), (theta, key)
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14), (theta, key)
    np.testing.assert_array_equal(cols["F_total"], cols["F_D"] + cols["F_A"])


@pytest.mark.parametrize("model, gate", MODELS)
def test_rows_do_not_depend_on_batch(model, gate):
    p, status = joint_table(GRID, 0.08, model, gate)
    for i, theta in enumerate(GRID):
        p1, status1 = joint_table([theta], 0.08, model, gate)
        np.testing.assert_array_equal(p1[0], p[i])
        assert status1[0] == status[i]


def test_linearization_status():
    p, status = joint_table([0.0, 80.0, 90.0], 0.3, ModelTag.LINEAR)
    assert status.tolist() == [0, LinearizationInvalid.exit_code, 0]
    assert np.isnan(p[1]).all() and not np.isnan(p[[0, 2]]).any()


def test_zero_coincidence_status():
    # a 50:50 splitter nulls the HH and VV coincidences but keeps HV and VH
    # with probability 1/2: only the row whose input is HH alone has none
    gate = GateParams(1 / math.sqrt(2), 1 / math.sqrt(2), 1.0)
    p, status = joint_table([0.0, 30.0], 0.0, ModelTag.EXACT_PPBS, gate)
    assert status.tolist() == [ZeroCoincidenceNorm.exit_code, 0]
    assert np.isnan(p[0]).all() and not np.isnan(p[1]).any()
    p, status = joint_table([0.0, 30.0], 0.05, ModelTag.EXACT_PPBS, gate)
    assert status.tolist() == [0, 0]
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_coupling_guard_raises_for_the_whole_call():
    with pytest.raises(CouplingTooStrong):
        joint_table(GRID, 0.6, ModelTag.LINEAR)


@pytest.mark.parametrize("model", [ModelTag.EXACT_IDEAL, ModelTag.EXACT_PPBS])
def test_unnormalizable_probe_is_refused(model):
    with pytest.raises(ValueError, match="eps"):
        joint_table(GRID, 1e200, model)
    # the largest couplings whose probe still normalizes give a valid table
    p, status = joint_table(GRID, 1e150, model)
    assert not status.any() and np.isfinite(p).all()


def test_non_finite_angle_refused():
    with pytest.raises(ValueError):
        joint_table([0.0, math.nan], 0.08, ModelTag.LINEAR)


class TestBases:
    def test_diagonal_pair(self):
        assert_same_ray(DIAG_BASIS[0], 1.0, 1.0)
        assert_same_ray(DIAG_BASIS[1], 1.0, -1.0)
        assert abs(np.vdot(DIAG_BASIS[0], DIAG_BASIS[1])) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("postselect", [270.0, 300.0, 200.0, 45.5, 0.0])
    def test_analyzer_basis_is_orthonormal(self, postselect):
        basis = analyzer_basis(postselect)
        np.testing.assert_allclose(basis @ basis.conj().T, np.eye(2), atol=1e-15)
        np.testing.assert_array_equal(basis[1], linear_states(postselect))

    def test_huge_angle_refused(self):
        # 1e300 - 180 rounds to 1e300: both rows are the same state
        with pytest.raises(NonOrthonormalBasis, match="overlap"):
            analyzer_basis(1e300)

    @pytest.mark.parametrize("basis, match", [
        (linear_states([0.0, 10.0]), "overlap"),
        (2.0 * DIAG_BASIS, "norms"),
        (np.full((2, 2), np.nan), "norms"),
    ])
    def test_non_orthonormal_basis_raises(self, basis, match):
        with pytest.raises(NonOrthonormalBasis, match=match):
            model_distribution(30.0, 0.05, "linear", f_basis=basis)
        with pytest.raises(NonOrthonormalBasis, match=match):
            fisher_information(linear_states(30.0), basis)

    def test_basis_shape_refused(self):
        with pytest.raises(ValueError, match="shape"):
            model_distribution(30.0, 0.05, "linear", f_basis=DIAG_BASIS[0])

