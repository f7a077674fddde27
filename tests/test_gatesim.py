import math

import numpy as np
import pytest

from weakmeas import (
    COMPENSATED_PPBS,
    LinearizationInvalid,
    UNCOMPENSATED_PPBS,
    GateParams,
    MeterOutcome,
    PostSelectOutcome,
    ZeroCoincidenceNorm,
    diag_states,
    exact_joint_probabilities,
    joint_probabilities_linear,
    linear_pol_state,
    ppbs_coincidence_operator,
    probe_state,
)
from weakmeas.kernel import IDEAL_GATE, two_photon_amplitudes

D_OUT, A_OUT = MeterOutcome.D, MeterOutcome.A
F_D, F_A = PostSelectOutcome.D, PostSelectOutcome.A
SQRT3 = math.sqrt(3.0)


class TestGateParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GateParams(t_h=1.0, t_v=0.0, a_h=1.0)
        with pytest.raises(ValueError):
            GateParams(t_h=1.2, t_v=0.5, a_h=1.0)

    def test_reflectivities(self):
        p = GateParams(t_h=1.0, t_v=1.0 / SQRT3, a_h=1.0)
        assert p.r_h == pytest.approx(0.0)
        assert p.r_v == pytest.approx(math.sqrt(2.0 / 3.0))


def ideal_csign(system, probe):
    """Ideal controlled-sign gate on system (x) probe, by the kernel."""
    return two_photon_amplitudes(np.array([system], dtype=complex), np.asarray(probe), IDEAL_GATE)[0]


class TestIdealCsign:
    def test_hh_unchanged(self):
        h = linear_pol_state(0.0).vector()
        out = ideal_csign(h, probe_state(0.0).vector())
        assert np.allclose(out, [1.0, 0.0, 0.0, 0.0])

    def test_vv_negated(self):
        out = ideal_csign([0.0, 1.0], [0.0, 1.0])
        assert out[3] == pytest.approx(-1.0)

    def test_linearity_on_uniform_superposition(self):
        d = np.array([1.0, 1.0]) / math.sqrt(2.0)
        out = ideal_csign(d, d)
        assert np.allclose(out, [0.5, 0.5, 0.5, -0.5])


class TestPpbsCoincidenceOperator:
    def test_compensated_is_scaled_csign(self):
        diag = ppbs_coincidence_operator(COMPENSATED_PPBS)
        assert np.allclose(diag, np.array([1.0, 1.0, 1.0, -1.0]) / 3.0, atol=1e-15)

    def test_fully_transmitting_is_identity(self):
        diag = ppbs_coincidence_operator(GateParams(1.0, 1.0, 1.0))
        assert np.allclose(diag, np.ones(4), atol=1e-15)

    def test_uncompensated_values(self):
        diag = ppbs_coincidence_operator(UNCOMPENSATED_PPBS)
        assert np.allclose(
            diag, [1.0, 1.0 / SQRT3, 1.0 / SQRT3, -1.0 / 3.0], atol=1e-15
        )


class TestExactJointProbabilities:
    def test_horizontal_operating_point(self):
        # system |H> is untouched; meter outcome follows (1 +- eps)^2 / (2 (1 + eps^2))
        eps = 0.08
        d = exact_joint_probabilities(0.0, eps)
        p_plus = (1.0 + eps) ** 2 / (2.0 * (1.0 + eps**2)) / 2.0
        p_minus = (1.0 - eps) ** 2 / (2.0 * (1.0 + eps**2)) / 2.0
        assert d.p(D_OUT, F_A) == pytest.approx(p_plus, abs=1e-15)
        assert d.p(D_OUT, F_D) == pytest.approx(p_plus, abs=1e-15)
        assert d.p(A_OUT, F_A) == pytest.approx(p_minus, abs=1e-15)
        assert d.p(A_OUT, F_D) == pytest.approx(p_minus, abs=1e-15)
        assert p_plus == pytest.approx(0.28975, abs=5e-6)

    @pytest.mark.parametrize("deg", [0.0, 30.0, 60.0, 110.0, 245.0])
    def test_zero_coupling_matches_linear_model(self, deg):
        exact = exact_joint_probabilities(deg, 0.0)
        linear = joint_probabilities_linear(linear_pol_state(deg), 0.0)
        for (m, f), p in exact.as_dict().items():
            assert p == pytest.approx(linear.p(m, f), abs=1e-12)

    def test_orthogonal_postselection_survives_at_second_order(self):
        eps = 0.08
        d = exact_joint_probabilities(90.0, eps)
        # the linearized model gives exactly zero here
        assert d.marginal_f(F_A) == pytest.approx(eps**2 / (1.0 + eps**2), abs=1e-15)
        assert d.marginal_f(F_A) > 0.0

    @pytest.mark.parametrize("deg", [0.0, 25.0, 90.0, 180.0, 300.0])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.3])
    def test_valid_distribution(self, deg, eps):
        for params in (None, COMPENSATED_PPBS, UNCOMPENSATED_PPBS):
            d = exact_joint_probabilities(deg, eps, params=params)
            values = d.values()
            assert all(v >= 0.0 for v in values)
            assert sum(values) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("deg", [0.0, 20.0, 55.0, 130.0, 275.0])
    @pytest.mark.parametrize("eps", [0.0, 0.08, 0.2])
    def test_compensated_ppbs_equals_ideal_csign(self, deg, eps):
        via_gate = exact_joint_probabilities(deg, eps, params=COMPENSATED_PPBS)
        via_csign = exact_joint_probabilities(deg, eps, params=None)
        for cell, p in via_gate.as_dict().items():
            assert p == pytest.approx(via_csign.as_dict()[cell], abs=1e-12)

    def test_quadratic_convergence_to_linear_model(self):
        # max discrepancy over the grid scales as eps^2: halving eps divides
        # it by 4 within a factor 1.5. Grid points where the linear model
        # itself refuses (negative first-order cell) carry no comparison.
        def max_gap(eps):
            gap = 0.0
            for deg in range(0, 76, 15):
                exact = exact_joint_probabilities(deg, eps)
                try:
                    linear = joint_probabilities_linear(linear_pol_state(deg), eps)
                except LinearizationInvalid:
                    continue
                gap = max(
                    gap,
                    max(
                        abs(exact.p(m, f) - linear.p(m, f))
                        for m, f in exact.as_dict()
                    ),
                )
            return gap

        for eps in (0.08, 0.04):
            ratio = max_gap(eps) / max_gap(eps / 2.0)
            assert 4.0 / 1.5 <= ratio <= 4.0 * 1.5

    def test_uncompensated_gate_shifts_postselection_asymmetrically(self):
        # relative change of p(f) under the imperfection differs between rows
        ideal = exact_joint_probabilities(45.0, 0.0, params=COMPENSATED_PPBS)
        uncomp = exact_joint_probabilities(45.0, 0.0, params=UNCOMPENSATED_PPBS)
        ratio_a = uncomp.marginal_f(F_A) / ideal.marginal_f(F_A)
        ratio_d = uncomp.marginal_f(F_D) / ideal.marginal_f(F_D)
        assert abs(ratio_a - ratio_d) > 0.5

    def test_zero_coincidence_norm(self):
        # a symmetric 50:50 splitter nulls every coincidence amplitude
        with pytest.raises(ZeroCoincidenceNorm):
            exact_joint_probabilities(
                30.0, 0.05, params=GateParams(1 / math.sqrt(2), 1 / math.sqrt(2), 1.0)
            )

    def test_custom_bases_reduce_to_marginals(self):
        # post-selecting in the H/V basis at eps=0 reproduces |<f|psi>|^2
        h, v = linear_pol_state(0.0), linear_pol_state(180.0)
        d = exact_joint_probabilities(60.0, 0.0, postselect_basis=(h, v))
        assert d.marginal_f(F_D) == pytest.approx(
            math.cos(math.radians(30.0)) ** 2, abs=1e-12
        )
        assert d.marginal_f(F_A) == pytest.approx(
            math.sin(math.radians(30.0)) ** 2, abs=1e-12
        )


class TestProbeState:
    def test_normalization(self):
        p = probe_state(0.08)
        n = 1.0 / math.sqrt(1.0 + 0.08**2)
        assert p.amp_h == pytest.approx(n, abs=1e-15)
        assert p.amp_v == pytest.approx(0.08 * n, abs=1e-15)

    def test_kron_ordering(self):
        out = ideal_csign(linear_pol_state(180.0).vector(), probe_state(0.0).vector())
        # system V, probe H lands on the VH slot
        assert np.allclose(out, [0.0, 0.0, 1.0, 0.0])
