import math

import numpy as np
import pytest

from weakmeas import (
    CouplingTooStrong,
    GateParams,
    LinearizationInvalid,
    ModelTag,
    PostSelectOutcome,
    WeakMeasError,
    ZeroCoincidenceNorm,
    estimate_epsilon,
    fisher_information,
    linear_pol_state,
    model_distribution,
    stokes_hv,
    weak_value,
)
from weakmeas.estimation import ConditionalPair
from weakmeas.kernel import analyzer_basis, joint_table, sweep_columns

F_A = PostSelectOutcome.A
MODELS = [
    (ModelTag.LINEAR, None),
    (ModelTag.EXACT_IDEAL, None),
    (ModelTag.EXACT_PPBS, GateParams(1.0, 0.6, 0.55)),
]
GRID = np.concatenate([np.arange(0.0, 360.0, 2.5), [88.0, 90.0, 92.0, 270.0]])


def reference_row(theta, eps, model, gate, postselect):
    """One sweep row from the scalar API, one call per quantity."""
    psi, basis, obs = linear_pol_state(theta), analyzer_basis(postselect), stokes_hv()
    row = {}
    report = fisher_information(psi, basis, obs=obs)
    row["F_D"], row["F_A"] = report.per_f[PostSelectOutcome.D], report.per_f[F_A]
    row["sigma_rel_A"] = 1.0 / math.sqrt(row["F_A"]) if row["F_A"] > 1e-8 else None
    for key, f in (("wv_D", basis[0]), ("wv_A", basis[1])):
        try:
            row[key] = weak_value(psi, f, obs).real
        except WeakMeasError:
            row[key] = None
    try:
        dist = model_distribution(theta, eps, model, gate, f_basis=basis)
    except WeakMeasError:
        dist = None
    row["p_DA"], row["p_AA"], row["p_DD"], row["p_AD"] = dist.values() if dist else [None] * 4
    row["eps_hat_A"] = None
    if dist is not None and row["wv_A"] is not None and dist.marginal_f(F_A) > 0.0:
        try:
            cond = ConditionalPair.from_joint(dist, F_A)
            row["eps_hat_A"] = estimate_epsilon(cond, row["wv_A"], F_A).epsilon_hat
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
    # every coincidence amplitude of this gate is zero
    gate = GateParams(1 / math.sqrt(2), 1 / math.sqrt(2), 1.0)
    p, status = joint_table([0.0, 30.0], 0.05, ModelTag.EXACT_PPBS, gate)
    assert status.tolist() == [ZeroCoincidenceNorm.exit_code] * 2
    assert np.isnan(p).all()


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
