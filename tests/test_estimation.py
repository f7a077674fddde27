import math

import numpy as np
import pytest

from weakmeas import (
    ConditionalPair,
    Outcome,
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
from weakmeas.kernel import DIAG_BASIS, analyzer_basis, fisher_split

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


class TestConditionalPair:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ConditionalPair(0.6, 0.5)

    def test_from_counts(self):
        c = ConditionalPair.from_counts(58, 42)
        assert c.p_d == pytest.approx(0.58)
        assert c.n_events == 100

    def test_from_counts_rejects_zero(self):
        with pytest.raises(ZeroProbability):
            ConditionalPair.from_counts(10, 0)

    def test_from_joint(self):
        d = linear(0.0, 0.08)
        c = ConditionalPair.from_joint(d, F_A)
        assert c.p_d == pytest.approx(0.58)
        assert c.p_a == pytest.approx(0.42)
        assert c.n_events is None

    def test_from_joint_zero_marginal(self):
        with pytest.raises(ZeroProbability, match="p\\(f=A\\)"):
            ConditionalPair.from_joint([0.0, 0.0, 0.5, 0.5], F_A)


class TestEstimateEpsilon:
    def test_recovers_operating_point(self):
        eps_hat, sigma = estimate_epsilon(ConditionalPair(0.58, 0.42), 1.0)
        assert eps_hat == pytest.approx(0.08, abs=1e-15)
        assert sigma is None

    def test_symmetric_outcomes_give_zero(self):
        for wv in (1.0, -2.5, 7.0):
            assert estimate_epsilon(ConditionalPair(0.5, 0.5), wv)[0] == 0.0

    def test_exact_model_bias_at_zero_theta(self):
        eps = 0.08
        d = exact(0.0, eps)
        cond = ConditionalPair.from_joint(d, F_A)
        assert cond.p_d == pytest.approx(0.57949, abs=5e-6)
        eps_hat, _ = estimate_epsilon(cond, 1.0)
        assert eps_hat == pytest.approx(exact_eps_hat(0.0, eps), abs=1e-12)
        assert eps_hat == pytest.approx(0.07949, abs=5e-6)

    def test_zero_reference_raises(self):
        with pytest.raises(WeakValueReferenceZero):
            estimate_epsilon(ConditionalPair(0.6, 0.4), 0.0)

    def test_binomial_sigma(self):
        _, sigma = estimate_epsilon(ConditionalPair(0.5, 0.5, n_events=400), 2.0)
        assert sigma == pytest.approx(math.sqrt(0.25 / 400) / 2.0)

    @pytest.mark.parametrize("deg", [0.0, 10.0, 30.0, 45.0, 60.0, 130.0, 200.0])
    def test_round_trip_on_linear_conditionals(self, deg):
        eps = 0.03
        d = linear(deg, eps)
        if d[0] + d[1] <= 0.0:  # p(f = A)
            return
        cond = ConditionalPair.from_joint(d, F_A)
        eps_hat, _ = estimate_epsilon(cond, wv_a(deg))
        assert eps_hat == pytest.approx(eps, abs=1e-12)

    def test_bias_nondecreasing_towards_orthogonality(self):
        eps = 0.08
        biases = []
        for deg in (0.0, 30.0, 60.0, 80.0, 85.0):
            d = exact(deg, eps)
            eps_hat, _ = estimate_epsilon(ConditionalPair.from_joint(d, F_A), wv_a(deg))
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
        got = fisher_information(psi, basis)
        assert got.shape == (2,)
        np.testing.assert_array_equal(got, fisher_split(psi[None], basis)[0])

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


class TestErrorInformationDuality:
    @pytest.mark.parametrize("deg", [0.0, 30.0, 60.0])
    def test_inverse_variance_equals_fisher_contribution(self, deg):
        n = 10**6
        psi = linear_states(deg)
        pf = abs(psi[0] - psi[1]) ** 2 / 2.0
        _, f_a = fisher_information(psi)
        cond = ConditionalPair(0.5, 0.5, n_events=n * pf)
        _, sigma = estimate_epsilon(cond, wv_a(deg))
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

        def cells(p):
            checked.append(p)
            return real_cells(p)

        real_cells = estimation._cells
        monkeypatch.setattr(estimation, "_cells", cells)
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
