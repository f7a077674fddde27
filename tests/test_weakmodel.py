"""The first-order model of ``weakmeas.kernel``: the balanced diagonal
meter, its measurement operators as the joint table shows them, weak
values, the table p[4] and its checks, and the logarithmic derivative
2 kappa_m Re wv_f."""

import math

import numpy as np
import pytest

from weakmeas import (
    CELLS,
    ConditionalPair,
    CouplingTooStrong,
    LinearizationInvalid,
    NonOrthonormalBasis,
    Outcome,
    PostselectionSingular,
    apparent_fisher,
    extract_weak_value,
    linear_states,
    model_distribution,
    sample_counts,
    weak_value,
)
from weakmeas.kernel import DIAG_BASIS, analyzer_basis

D_OUT, A_OUT = Outcome.D, Outcome.A
F_D, F_A = Outcome.D, Outcome.A
A_STATE = DIAG_BASIS[1]
S = np.diag([1.0, -1.0])


def wv_closed_form(theta_deg):
    """(cos(t/2)+sin(t/2))/(cos(t/2)-sin(t/2)), the f=A weak value."""
    half = math.radians(theta_deg) / 2.0
    return (math.cos(half) + math.sin(half)) / (math.cos(half) - math.sin(half))


def linear(deg, eps):
    return model_distribution(deg, eps, "linear")


def cell(p, m, f):
    return p[CELLS.index((m, f))]


def meter_marginal(p, m):
    """p(m) = sum_f p(m, f)."""
    return cell(p, m, F_D) + cell(p, m, F_A)


def table_users(table):
    """Each function that takes a joint table, called on ``table``."""
    good = linear(0.0, 0.0)
    return [lambda: ConditionalPair.from_joint(table, F_A),
            lambda: extract_weak_value(table, good, F_A, 0.08),
            lambda: apparent_fisher(good, table, 0.08),
            lambda: sample_counts(table, 10, seed=0)]


class TestMeterModel:
    def test_default_is_normalized(self):
        # w_D = w_A = 1/2; sum_m w_m kappa_m = 0 keeps p(f) free of eps to
        # first order; sum_m w_m kappa_m^2 = 1 makes the classical Fisher
        # information of the table at eps = 0 equal 4 <psi|S^2|psi> = 4
        delta = 1e-6
        for deg in (0.0, 30.0, 130.0):
            p0, up, down = linear(deg, 0.0), linear(deg, delta), linear(deg, -delta)
            assert meter_marginal(p0, D_OUT) == pytest.approx(0.5, abs=1e-12)
            for f in (F_D, F_A):
                assert cell(up, D_OUT, f) + cell(up, A_OUT, f) == pytest.approx(
                    cell(p0, D_OUT, f) + cell(p0, A_OUT, f), abs=1e-15)
            slope = (up - down) / (2.0 * delta)
            assert np.sum(slope**2 / p0) == pytest.approx(4.0, rel=1e-8)


class TestMeasurementOperator:
    """E_m = sqrt(w_m) (I + eps kappa_m S), seen through the table."""

    def test_zero_coupling_is_scaled_identity(self):
        # E_m = sqrt(1/2) I: the meter outcome is independent of the state
        for deg in (0.0, 45.0, 100.0, 300.0):
            p = linear(deg, 0.0)
            for f in (F_D, F_A):
                assert cell(p, D_OUT, f) == cell(p, A_OUT, f)

    def test_operating_point_d(self):
        # E_D = sqrt(1/2) diag(1.08, 0.92): p(D) on |H> and |V> to first order
        assert meter_marginal(linear(0.0, 0.08), D_OUT) == pytest.approx(0.5 * 1.16, abs=1e-15)
        assert meter_marginal(linear(180.0, 0.08), D_OUT) == pytest.approx(0.5 * 0.84, abs=1e-15)

    def test_operating_point_a(self):
        # E_A = sqrt(1/2) diag(0.92, 1.08)
        assert meter_marginal(linear(0.0, 0.08), A_OUT) == pytest.approx(0.5 * 0.84, abs=1e-15)
        assert meter_marginal(linear(180.0, 0.08), A_OUT) == pytest.approx(0.5 * 1.16, abs=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 0.02, 0.08, 0.2])
    def test_completeness_up_to_quadratic_backaction(self, eps):
        # sum_m E_m^dag E_m = I + eps^2 S^2: the first-order table keeps
        # the identity; the exact gate also keeps the back-action, so its
        # p(f) is (|<f|psi>|^2 + eps^2 |<f|S|psi>|^2) / (1 + eps^2)
        for deg in (0.0, 30.0, 140.0, 200.0):
            psi = linear_states(deg)
            lin = linear(deg, eps)
            exact = model_distribution(deg, eps, "exact-ideal")
            for col, f in enumerate((F_D, F_A)):
                overlap = abs(np.vdot(DIAG_BASIS[col], psi)) ** 2
                back = abs(np.vdot(DIAG_BASIS[col], S @ psi)) ** 2
                assert cell(lin, D_OUT, f) + cell(lin, A_OUT, f) == pytest.approx(overlap, abs=1e-12)
                assert cell(exact, D_OUT, f) + cell(exact, A_OUT, f) == pytest.approx(
                    (overlap + eps**2 * back) / (1.0 + eps**2), abs=1e-12)

    def test_guard_refuses_strong_coupling(self):
        with pytest.raises(CouplingTooStrong):
            linear(0.0, 0.6)


class TestWeakValue:
    def test_plus_eigenstate(self):
        assert weak_value(linear_states(0.0), A_STATE) == pytest.approx(1.0)

    def test_minus_eigenstate(self):
        assert weak_value(linear_states(180.0), A_STATE) == pytest.approx(-1.0)

    def test_anomalous_value_at_60(self):
        got = weak_value(linear_states(60.0), A_STATE)
        assert got == pytest.approx(2.0 + math.sqrt(3.0), abs=1e-12)
        assert got == pytest.approx(wv_closed_form(60.0), abs=1e-12)

    def test_singular_postselection_raises(self):
        with pytest.raises(PostselectionSingular):
            weak_value(linear_states(90.0), A_STATE)

    def test_global_phase_invariance(self):
        psi = linear_states(60.0)
        for phi in (0.3, 1.2, 2.9):
            phase = complex(math.cos(phi), math.sin(phi))
            assert weak_value(phase * psi, A_STATE) == pytest.approx(
                weak_value(psi, A_STATE), abs=1e-12
            )
            assert weak_value(psi, phase * A_STATE) == pytest.approx(
                weak_value(psi, A_STATE), abs=1e-12
            )


class TestJointDistribution:
    """A joint table is p[4] in CELLS order; each function that takes
    one checks it."""

    def test_requires_all_cells(self):
        for table in ([1.0], [[0.25] * 4]):
            for call in table_users(table):
                with pytest.raises(ValueError, match="4 cells"):
                    call()

    def test_rejects_negative(self):
        for call in table_users([-0.01, 0.51, 0.25, 0.25]):
            with pytest.raises(ValueError, match="negative probability -0.01"):
                call()
        # round-off below zero is read as zero
        c = ConditionalPair.from_joint([-1e-13, 0.5, 0.25, 0.25 + 1e-13], F_A)
        assert (c.p_d, c.p_a) == (0.0, 1.0)

    def test_rejects_bad_total(self):
        for table in ([0.3] * 4, [math.nan, 0.5, 0.25, 0.25]):
            for call in table_users(table):
                with pytest.raises(ValueError, match="sum to"):
                    call()

    def test_marginal_and_conditional(self):
        d = linear(0.0, 0.08)
        assert d[0] + d[1] == pytest.approx(0.5)
        c = ConditionalPair.from_joint(d, F_A)
        assert c.p_d == pytest.approx(0.58)
        assert c.p_a == pytest.approx(0.42)


class TestJointProbabilitiesLinear:
    def test_horizontal_operating_point(self):
        d = linear(0.0, 0.08)
        assert cell(d, D_OUT, F_A) == pytest.approx(0.29, abs=1e-12)
        assert cell(d, A_OUT, F_A) == pytest.approx(0.21, abs=1e-12)
        assert cell(d, D_OUT, F_D) == pytest.approx(0.29, abs=1e-12)
        assert cell(d, A_OUT, F_D) == pytest.approx(0.21, abs=1e-12)

    def test_zero_coupling_baseline(self):
        for deg in (0.0, 25.0, 60.0, 140.0, 320.0):
            psi = linear_states(deg)
            d = linear(deg, 0.0)
            for f_out, f in zip((F_D, F_A), DIAG_BASIS):
                pf = abs(np.vdot(f, psi)) ** 2
                for m in (D_OUT, A_OUT):
                    assert cell(d, m, f_out) == pytest.approx(0.5 * pf, abs=1e-12)

    def test_sixty_degrees_weak_coupling(self):
        d = linear(60.0, 0.01)
        pf = (1.0 - math.sin(math.radians(60.0))) / 2.0
        assert pf == pytest.approx(0.06699, abs=5e-6)
        want = pf * 0.5 * (1.0 + 0.02 * wv_closed_form(60.0))
        assert cell(d, D_OUT, F_A) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.03600, abs=1e-5)

    def test_completeness_where_valid(self):
        for deg in range(0, 360, 5):
            for eps in (0.0, 0.02, 0.05, 0.1):
                try:
                    d = linear(float(deg), eps)
                except LinearizationInvalid:
                    continue
                assert d.sum() == pytest.approx(1.0, abs=1e-9)

    def test_marginal_over_f_at_zero_coupling(self):
        for deg in (0.0, 45.0, 75.0, 200.0):
            d = linear(deg, 0.0)
            for m in (D_OUT, A_OUT):
                assert meter_marginal(d, m) == pytest.approx(0.5, abs=1e-12)

    def test_negative_probability_raises(self):
        # wv(80 deg) = tan(85 deg) = 11.43; 2*0.1*wv > 1 flips a cell sign
        with pytest.raises(LinearizationInvalid):
            linear(80.0, 0.1)

    def test_singular_row_falls_back_to_baseline(self):
        d = linear(90.0, 0.08)
        assert cell(d, D_OUT, F_A) == pytest.approx(0.0, abs=1e-15)
        assert cell(d, A_OUT, F_A) == pytest.approx(0.0, abs=1e-15)
        assert d.sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_orthonormal_basis_raises(self):
        basis = linear_states([0.0, 10.0])
        with pytest.raises(NonOrthonormalBasis):
            model_distribution(30.0, 0.05, "linear", f_basis=basis)

    def test_guard_refuses_strong_coupling(self):
        with pytest.raises(CouplingTooStrong):
            linear(0.0, 0.55)


def expected_slope(deg, m):
    """2 kappa_m Re wv_A, kappa_D = -kappa_A = 1."""
    kappa = 1.0 if m is D_OUT else -1.0
    return 2.0 * kappa * weak_value(linear_states(deg), A_STATE).real


class TestLogDerivative:
    def test_values_at_zero_theta(self):
        assert expected_slope(0.0, D_OUT) == pytest.approx(2.0, abs=1e-12)
        assert expected_slope(0.0, A_OUT) == pytest.approx(-2.0, abs=1e-12)

    def test_anomalous_value_at_60(self):
        got = expected_slope(60.0, D_OUT)
        assert got == pytest.approx(2.0 * (2.0 + math.sqrt(3.0)), abs=1e-12)

    @pytest.mark.parametrize("deg", [0.0, 20.0, 45.0, 60.0, 120.0, 250.0])
    def test_matches_finite_difference_of_linear_model(self, deg):
        # d ln p(m, f) / d eps at eps = 0 is 2 kappa_m Re wv_f
        if abs(wv_closed_form(deg)) > 100.0:
            return
        delta = 1e-6
        p_d = linear(deg, delta)
        p_0 = linear(deg, 0.0)
        for m in (D_OUT, A_OUT):
            if cell(p_0, m, F_A) <= 0.0:
                continue
            fd = (math.log(cell(p_d, m, F_A)) - math.log(cell(p_0, m, F_A))) / delta
            assert fd == pytest.approx(expected_slope(deg, m), rel=1e-4)


class TestSensitivitySumRule:
    @pytest.mark.parametrize("deg", [0.0, 15.0, 45.0, 60.0, 89.0, 135.0, 222.0])
    @pytest.mark.parametrize("basis_deg", [270.0, 200.0, 130.0])
    def test_weighted_square_sum_equals_second_moment(self, deg, basis_deg):
        # sum_f 4 p(f) (Re wv_f)^2 = 4 <psi|S^2|psi> = 4 for the Stokes
        # observable, for any orthonormal basis with real weak values
        psi = linear_states(deg)
        total = 0.0
        for f in analyzer_basis(basis_deg):
            overlap = np.vdot(f, psi)
            num = np.vdot(f, S @ psi)
            total += 4.0 * (np.real(num * np.conj(overlap))) ** 2 / abs(overlap) ** 2
        assert total == pytest.approx(4.0, abs=1e-9)
