import math

import numpy as np
import pytest

from weakmeas import (
    Outcome,
    PostselectionSingular,
    WeakValueReferenceZero,
    ZeroInformation,
    ZeroProbability,
    ZeroProbeCoupling,
    apparent_fisher,
    COMPENSATED_PPBS,
    UNCOMPENSATED_PPBS,
    cramer_rao_bound,
    estimate_epsilon,
    extract_weak_value,
    fisher_information,
    linear_states,
    model_distribution,
    weak_value,
)
from weakmeas import estimation
from weakmeas.kernel import DIAG_BASIS, _transitions, analyzer_basis, fisher_split

F_D, F_A = Outcome.D, Outcome.A


def linear(deg, eps):
    return model_distribution(deg, eps, "linear")


def exact(deg, eps, params=None):
    """The ideal gate, or the PPBS with ``params``."""
    if params is None:
        return model_distribution(deg, eps, "exact-ideal")
    return model_distribution(deg, eps, "exact-ppbs", params)


def wv_a(theta_deg):
    half = math.radians(theta_deg) / 2.0
    return (math.cos(half) + math.sin(half)) / (math.cos(half) - math.sin(half))


def exact_eps_hat(theta_deg, eps):
    """Closed form of the moment estimator applied to ideal-gate exact
    conditionals: eps / (1 + eps^2 wv^2). Derived by hand from the
    two-photon amplitudes (u +- eps v)/2 with u = c - s, v = c + s."""
    return eps / (1.0 + (eps * wv_a(theta_deg)) ** 2)


class TestEstimateEpsilon:
    def test_recovers_operating_point(self):
        eps_hat, sigma = estimate_epsilon(0.58, 0.42, 1.0, f=F_A)
        assert eps_hat == pytest.approx(0.08, abs=1e-15)
        assert sigma is None

    def test_counts_are_normalized_by_their_sum(self):
        assert estimate_epsilon(58, 42, 1.0, n_events=100, f=F_A) == estimate_epsilon(
            0.58, 0.42, 1.0, n_events=100, f=F_A
        )
        # one empty meter outcome is an estimate, p(D|f) = 1
        assert estimate_epsilon(10, 0, 0.5, f=F_A) == (1.0, None)

    def test_joint_cells_give_the_conditional_estimate(self):
        d = linear(0.0, 0.08)
        eps_hat, sigma = estimate_epsilon(d[0], d[1], 1.0, f=F_A)
        assert eps_hat == pytest.approx((0.58 - 0.42) / 2.0)
        assert sigma is None

    def test_symmetric_outcomes_give_zero(self):
        for wv in (1.0, -2.5, 7.0):
            assert estimate_epsilon(0.5, 0.5, wv, f=F_A)[0] == 0.0

    def test_exact_model_bias_at_zero_theta(self):
        eps = 0.08
        d = exact(0.0, eps)
        assert d[0] / (d[0] + d[1]) == pytest.approx(0.57949, abs=5e-6)
        eps_hat, _ = estimate_epsilon(d[0], d[1], 1.0, f=F_A)
        assert eps_hat == pytest.approx(exact_eps_hat(0.0, eps), abs=1e-12)
        assert eps_hat == pytest.approx(0.07949, abs=5e-6)

    def test_zero_weights_name_the_outcome(self):
        with pytest.raises(ZeroProbability, match=r"^post-selection probability p\(f=D\) is zero$"):
            estimate_epsilon(0.0, 0.0, 1.0, f="D")

    def test_outcome_is_required(self):
        with pytest.raises(TypeError):
            estimate_epsilon(0.58, 0.42, 1.0)

    def test_zero_reference_raises(self):
        with pytest.raises(WeakValueReferenceZero):
            estimate_epsilon(0.6, 0.4, 0.0, f=F_A)

    @pytest.mark.parametrize("w_d, w_a, wv, error", [
        (0.0, 0.0, 1.0, ZeroProbability),
        (0.0, 0.0, 0.0, ZeroProbability),
        (0.0, 0.0, math.nan, ZeroProbability),
        (0.6, 0.4, 1e-9, WeakValueReferenceZero),
        (0.6, 0.4, math.nan, PostselectionSingular),
        # an infinite reference would give a zero estimate
        (1.0, 0.0, math.inf, ValueError),
        (1.0, 0.0, -math.inf, ValueError),
    ])
    def test_raises_the_error_of_the_status(self, w_d, w_a, wv, error):
        with pytest.raises(error):
            estimate_epsilon(w_d, w_a, wv, f=F_A)

    @pytest.mark.parametrize("w_d, w_a, n_events", [
        (-0.1, 1.1, None), (0.5, math.nan, None), (math.inf, 1.0, None), (0.5, 0.5, 0.0),
        (0.5, 0.5, math.inf),
    ])
    def test_rejects_bad_weights_and_events(self, w_d, w_a, n_events):
        with pytest.raises(ValueError):
            estimate_epsilon(w_d, w_a, 1.0, n_events, f=F_A)

    def test_binomial_sigma(self):
        _, sigma = estimate_epsilon(0.5, 0.5, 2.0, n_events=400, f=F_A)
        assert sigma == pytest.approx(math.sqrt(0.25 / 400) / 2.0)

    @pytest.mark.parametrize("deg", [0.0, 10.0, 30.0, 45.0, 60.0, 130.0, 200.0])
    def test_round_trip_on_linear_conditionals(self, deg):
        eps = 0.03
        d = linear(deg, eps)
        if d[0] + d[1] <= 0.0:  # p(f = A)
            return
        eps_hat, _ = estimate_epsilon(d[0], d[1], wv_a(deg), f=F_A)
        assert eps_hat == pytest.approx(eps, abs=1e-12)

    def test_bias_nondecreasing_towards_orthogonality(self):
        eps = 0.08
        biases = []
        for deg in (0.0, 30.0, 60.0, 80.0, 85.0):
            d = exact(deg, eps)
            eps_hat, _ = estimate_epsilon(d[0], d[1], wv_a(deg), f=F_A)
            assert eps_hat == pytest.approx(exact_eps_hat(deg, eps), abs=1e-12)
            biases.append(abs(eps_hat - eps))
        assert biases == sorted(biases)


class TestExtractWeakValue:
    def test_operating_point_value(self):
        eps = 0.08
        p_e = linear(0.0, eps)
        p_0 = linear(0.0, 0.0)
        got = extract_weak_value(p_e, p_0, F_A, eps)
        want = (math.log(1.16) - math.log(0.84)) / (4.0 * eps)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(1.0087, abs=5e-5)

    @pytest.mark.parametrize("deg", [0.0, 20.0, 45.0, 60.0])
    def test_small_probe_limit(self, deg):
        eps = 1e-6
        p_e = linear(deg, eps)
        p_0 = linear(deg, 0.0)
        got = extract_weak_value(p_e, p_0, F_A, eps)
        assert got == pytest.approx(wv_a(deg), rel=1e-6)

    def test_vertical_input(self):
        eps = 0.08
        p_e = linear(180.0, eps)
        p_0 = linear(180.0, 0.0)
        got = extract_weak_value(p_e, p_0, F_A, eps)
        assert got == pytest.approx(-1.0, abs=0.01)

    def test_convergence_is_at_least_first_order(self):
        # the two-outcome average cancels the linear term, so the error
        # should drop by at least 10x per decade of probe coupling
        deg = 30.0
        errors = []
        for eps in (1e-3, 1e-4, 1e-5):
            p_e = linear(deg, eps)
            p_0 = linear(deg, 0.0)
            errors.append(abs(extract_weak_value(p_e, p_0, F_A, eps) - wv_a(deg)))
        assert errors[0] / errors[1] > 10.0
        assert errors[1] / errors[2] > 10.0

    def test_zero_probe_coupling_raises(self):
        p_0 = linear(0.0, 0.0)
        with pytest.raises(ZeroProbeCoupling):
            extract_weak_value(p_0, p_0, F_A, 0.0)

    def test_zero_probability_raises(self):
        # an exactly-zero count cell makes the log-ratio undefined
        p_e = np.array([0.0, 0.5, 0.25, 0.25])
        p_0 = linear(0.0, 0.0)
        with pytest.raises(ZeroProbability):
            extract_weak_value(p_e, p_0, F_A, 0.08)

    def test_zero_marginal_names_the_outcome(self):
        p_0 = linear(0.0, 0.0)
        with pytest.raises(ZeroProbability, match="p\\(f=A\\)"):
            extract_weak_value([0.0, 0.0, 0.5, 0.5], p_0, F_A, 0.08)

    def test_outcome_is_parsed(self):
        p_e, p_0 = linear(30.0, 0.08), linear(30.0, 0.0)
        for text, f in (("A", F_A), ("D", F_D)):
            assert extract_weak_value(p_e, p_0, text, 0.08) == extract_weak_value(p_e, p_0, f, 0.08)
        with pytest.raises(ValueError, match="'a' is not a valid Outcome"):
            extract_weak_value(p_e, p_0, "a", 0.08)


class TestFisherInformation:
    def test_horizontal_input(self):
        f_d, f_a = fisher_information(linear_states(0.0))
        assert f_a == pytest.approx(2.0, abs=1e-12)
        assert f_d == pytest.approx(2.0, abs=1e-12)
        assert f_d + f_a == pytest.approx(4.0, abs=1e-12)

    def test_sixty_degrees_closed_form(self):
        f_d, f_a = fisher_information(linear_states(60.0))
        sin60 = math.sin(math.radians(60.0))
        assert f_a == pytest.approx(2.0 * (1.0 + sin60), abs=1e-12)
        assert f_d == pytest.approx(2.0 * (1.0 - sin60), abs=1e-12)
        assert f_a == pytest.approx(3.7321, abs=5e-5)
        assert f_d == pytest.approx(0.2679, abs=5e-5)
        assert f_d + f_a == pytest.approx(4.0, abs=1e-9)

    def test_total_constant_on_fine_grid(self):
        for deg in range(0, 360):
            f_d, f_a = fisher_information(linear_states(float(deg)))
            assert f_d + f_a == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("deg, postselect", [(0.0, 270.0), (60.0, 30.0), (150.0, 30.0)])
    def test_is_the_row_of_fisher_split(self, deg, postselect):
        psi, basis = linear_states(deg), analyzer_basis(postselect)
        got = fisher_information(psi, postselect)
        assert got.shape == (2,)
        np.testing.assert_array_equal(got, fisher_split(*_transitions(psi[None], basis))[0])

    def test_orthogonal_postselection_defined_by_continuity(self):
        f_d, f_a = fisher_information(linear_states(90.0))
        assert f_a == pytest.approx(4.0, abs=1e-12)
        assert f_d == pytest.approx(0.0, abs=1e-12)


class TestCramerRaoBound:
    def test_reciprocal(self):
        assert cramer_rao_bound(4.0, 1) == pytest.approx(0.25)

    def test_scaling(self):
        assert cramer_rao_bound(4.0, 10**6) == pytest.approx(2.5e-7)

    def test_postselected_strategy(self):
        _, per_a = fisher_information(linear_states(60.0))
        bound = cramer_rao_bound(per_a, 10**6, F_A)
        assert bound == pytest.approx(2.679e-7, rel=2e-4)

    def test_zero_information_raises(self):
        with pytest.raises(ZeroInformation):
            cramer_rao_bound(0.0, 100, F_A)

    def test_zero_information_names_its_report(self):
        with pytest.raises(ZeroInformation, match=r"^Fisher information F_D of the post-selected f=D"):
            cramer_rao_bound(0.0, 100, F_D)
        with pytest.raises(ZeroInformation, match=r"^total Fisher information is zero$"):
            cramer_rao_bound(0.0, 100)

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            cramer_rao_bound(2.0, 0, F_A)

    def test_outcome_is_parsed(self):
        with pytest.raises(ZeroInformation, match=r"^Fisher information F_D "):
            cramer_rao_bound(0.0, 100, "D")
        with pytest.raises(ValueError, match="'AD' is not a valid Outcome"):
            cramer_rao_bound(4.0, 100, "AD")


class TestErrorInformationDuality:
    @pytest.mark.parametrize("deg", [0.0, 30.0, 60.0])
    def test_inverse_variance_equals_fisher_contribution(self, deg):
        n = 10**6
        psi = linear_states(deg)
        pf = abs(psi[0] - psi[1]) ** 2 / 2.0
        _, f_a = fisher_information(psi)
        _, sigma = estimate_epsilon(0.5, 0.5, wv_a(deg), n * pf, f=F_A)
        assert 1.0 / sigma**2 == pytest.approx(n * f_a, rel=1e-9)


class TestApparentFisher:
    def test_small_probe_recovers_analytic_curve(self):
        eps = 1e-5
        for deg in (0.0, 30.0, 60.0):
            p_e = exact(deg, eps)
            p_0 = exact(deg, 0.0)
            got = apparent_fisher(p_e, p_0, eps)
            want = fisher_information(linear_states(deg))
            assert got[1] == pytest.approx(want[1], rel=1e-6)
            assert got[0] == pytest.approx(want[0], rel=1e-6)

    def test_uncompensated_gate_produces_asymmetric_deviation(self):
        eps = 0.08
        deg = 30.0
        p_e = exact(deg, eps, params=UNCOMPENSATED_PPBS)
        p_0 = exact(deg, 0.0, params=UNCOMPENSATED_PPBS)
        got = apparent_fisher(p_e, p_0, eps)
        dev_d, dev_a = got / fisher_information(linear_states(deg))
        assert abs(dev_a - dev_d) > 0.05
        assert abs(got.sum() - 4.0) > 0.5

    def test_checks_each_table_once(self, monkeypatch):
        checked = []

        def check_table(p):
            checked.append(p)
            return real_check(p)

        real_check = estimation.check_table
        monkeypatch.setattr(estimation, "check_table", check_table)
        p_e, p_0 = exact(30.0, 0.08), exact(30.0, 0.0)
        apparent_fisher(p_e, p_0, 0.08)
        assert sorted(map(id, checked)) == sorted([id(p_e), id(p_0)])

    def test_ideal_gate_total_stays_close(self):
        eps = 0.08
        p_e = exact(30.0, eps, params=COMPENSATED_PPBS)
        p_0 = exact(30.0, 0.0, params=COMPENSATED_PPBS)
        got = apparent_fisher(p_e, p_0, eps)
        assert abs(got.sum() - 4.0) < 0.1


class TestWeakValueReference:
    def test_reference_matches_weak_value_module(self):
        for deg in (0.0, 25.0, 60.0):
            assert weak_value(linear_states(deg), DIAG_BASIS[1]).real == pytest.approx(
                wv_a(deg), abs=1e-12
            )
