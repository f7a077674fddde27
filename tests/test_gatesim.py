import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import cell, exact

from weakmeas import (
    LinearizationInvalid,
    GateParams,
    Outcome,
    ZeroCoincidenceNorm,
    linear_states,
    model_distribution,
)
from weakmeas.kernel import IDEAL_GATE, ppbs_coincidence_operator, probe_state, two_photon_amplitudes

D_OUT, A_OUT = Outcome.D, Outcome.A
F_D, F_A = Outcome.D, Outcome.A
SQRT3 = math.sqrt(3.0)


def marginal(p, f):
    return cell(p, D_OUT, f) + cell(p, A_OUT, f)


class TestGateParams:
    def test_reflectivities(self):
        # the operator takes r_x = sqrt(1 - t_x^2): s = -a_H r_H r_V and
        # d_VV = t_V^2 - r_V^2 = 2 t_V^2 - 1
        for p in (GateParams(t_h=1.0, t_v=1.0 / SQRT3, a_h=1.0), GateParams(0.28, 0.96, 0.5),
                  GateParams(0.6, 1.0 / SQRT3, 0.9), GateParams()):
            diag, swap = ppbs_coincidence_operator(p)
            r_h, r_v = math.sqrt(1.0 - p.t_h**2), math.sqrt(1.0 - p.t_v**2)
            assert swap == pytest.approx(-p.a_h * r_h * r_v, abs=1e-15)
            assert diag[3] == pytest.approx(2.0 * p.t_v**2 - 1.0, abs=1e-15)
        # r_H = 0 and r_V = sqrt(2/3): no swap, and d_VV = 2/3 - 1
        diag, swap = ppbs_coincidence_operator(GateParams(t_h=1.0, t_v=1.0 / SQRT3, a_h=1.0))
        assert (swap, diag[3]) == pytest.approx((0.0, -1.0 / 3.0), abs=1e-15)

    def test_defaults_are_the_compensated_gate(self):
        assert GateParams() == GateParams(t_h=1.0, t_v=1.0 / SQRT3, a_h=1.0 / SQRT3)


def ideal_csign(system, probe):
    """Ideal controlled-sign gate on system (x) probe, by the kernel."""
    return two_photon_amplitudes(np.array([system], dtype=complex), np.asarray(probe), IDEAL_GATE)[0]


class TestIdealCsign:
    def test_hh_unchanged(self):
        out = ideal_csign(linear_states(0.0), probe_state(0.0))
        assert np.allclose(out, [1.0, 0.0, 0.0, 0.0])

    def test_vv_negated(self):
        out = ideal_csign([0.0, 1.0], [0.0, 1.0])
        assert out[3] == pytest.approx(-1.0)

    def test_linearity_on_uniform_superposition(self):
        d = np.array([1.0, 1.0]) / math.sqrt(2.0)
        out = ideal_csign(d, d)
        assert np.allclose(out, [0.5, 0.5, 0.5, -0.5])


def per_photon_reference(system, probe, params):
    """Coincidence amplitudes over {HH, HV, VH, VV} of a system photon in
    input port 1 and a probe photon in input port 2 of the PPBS, photon by
    photon. Each photon of polarization x is transmitted (t_x, to the
    output of its own port) or reflected (to the other output: r_x from
    port 1, -r_x from port 2). Only coincidences, one photon per output,
    are kept; an output pair is labeled (polarization at output 1,
    polarization at output 2), and a_H applies once per output H photon."""
    t = {"H": params.t_h, "V": params.t_v}
    r = {x: math.sqrt(1.0 - t[x] ** 2) for x in t}
    labels = ("HH", "HV", "VH", "VV")
    out = dict.fromkeys(labels, 0j)
    for (x, y), amp in zip(labels, np.kron(system, probe)):
        # both transmitted: each photon keeps its port
        out[x + y] += amp * t[x] * t[y] * params.a_h ** (x + y).count("H")
        # both reflected: the photons exchange ports
        out[y + x] += amp * r[x] * -r[y] * params.a_h ** (y + x).count("H")
        # one transmitted, one reflected: both leave by one output, no coincidence
    return np.array([out[k] for k in labels])


def ppbs_amplitudes(system, probe, params):
    """The kernel's coincidence amplitudes of system (x) probe after the PPBS."""
    return two_photon_amplitudes(np.array([system], dtype=complex), np.asarray(probe, dtype=complex),
                                 ppbs_coincidence_operator(params))[0]


HALF_SPLITTER = GateParams(1 / math.sqrt(2), 1 / math.sqrt(2), 1.0)

#: A beam-splitter or compensation amplitude, in (0, 1].
AMPLITUDES = st.floats(0.0, 1.0, exclude_min=True)


class TestPpbsCoincidenceOperator:
    def test_compensated_is_scaled_csign(self):
        diag, swap = ppbs_coincidence_operator(GateParams())
        assert np.allclose(diag, np.array([1.0, 1.0, 1.0, -1.0]) / 3.0, atol=1e-15)
        assert swap == 0.0

    def test_fully_transmitting_is_identity(self):
        diag, swap = ppbs_coincidence_operator(GateParams(1.0, 1.0, 1.0))
        assert np.allclose(diag, np.ones(4), atol=1e-15)
        assert swap == 0.0

    def test_uncompensated_values(self):
        diag, swap = ppbs_coincidence_operator(GateParams(a_h=1.0))
        assert np.allclose(
            diag, [1.0, 1.0 / SQRT3, 1.0 / SQRT3, -1.0 / 3.0], atol=1e-15
        )
        assert swap == 0.0

    def test_swap_coefficient(self):
        params = GateParams(0.8, 0.6, 0.5)
        diag, swap = ppbs_coincidence_operator(params)
        np.testing.assert_allclose(diag, [0.25 * (0.64 - 0.36), 0.24, 0.24, 0.36 - 0.64],
                                   rtol=0.0, atol=1e-15)
        assert swap == pytest.approx(-0.5 * 0.6 * 0.8, abs=1e-15)

    def test_no_controlled_sign_below_full_h_transmission(self):
        # at t_H < 1, s = -a_H r_H r_V is 0 only at t_V = 1, where
        # d_VV = +1 would need the scale -1 and so d_HV = a_H t_H = -1
        def is_csign(params):
            diag, swap = ppbs_coincidence_operator(params)
            scale = -diag[3]
            return bool(swap == 0.0 and scale != 0.0 and np.allclose(
                diag, scale * np.array([1.0, 1.0, 1.0, -1.0]), rtol=1e-9, atol=0.0))

        assert is_csign(GateParams())
        grid = [1e-3, 0.3, 1 / SQRT3, 1 / math.sqrt(2), 0.9, 1.0 - 1e-12, 1.0]
        for t_h in grid[:-1]:
            for t_v in grid:
                for a_h in grid:
                    params = GateParams(t_h, t_v, a_h)
                    assert (ppbs_coincidence_operator(params)[1] == 0.0) == (t_v == 1.0)
                    assert not is_csign(params)

    def test_half_splitter_keeps_mixed_coincidences(self):
        # Hong-Ou-Mandel: HH and VV leave no coincidence; HV and VH keep
        # probability 1/2, split between the transmitted and exchanged pair
        for system, probe, coincidence in (([1, 0], [1, 0], 0.0), ([1, 0], [0, 1], 0.5),
                                           ([0, 1], [1, 0], 0.5), ([0, 1], [0, 1], 0.0)):
            out = ppbs_amplitudes(system, probe, HALF_SPLITTER)
            assert (np.abs(out) ** 2).sum() == pytest.approx(coincidence, abs=1e-15)
        np.testing.assert_allclose(ppbs_amplitudes([1, 0], [0, 1], HALF_SPLITTER),
                                   [0.0, 0.5, -0.5, 0.0], rtol=0.0, atol=1e-15)

    # a property over every gate, (t_H, t_V, a_H) in (0, 1]^3, for each
    # input state and coupling of the grid
    @pytest.mark.parametrize("deg", [0.0, 30.0, 90.0, 135.0, 200.0, 300.0])
    @pytest.mark.parametrize("eps", [0.0, 0.08, -0.3, 2.0])
    @settings(max_examples=50, deadline=None)
    @given(t_h=AMPLITUDES, t_v=AMPLITUDES, a_h=AMPLITUDES)
    @example(t_h=1.0, t_v=1 / SQRT3, a_h=1 / SQRT3)
    @example(t_h=1.0, t_v=0.6, a_h=0.55)
    def test_matches_per_photon_reference(self, deg, eps, t_h, t_v, a_h):
        params = GateParams(t_h, t_v, a_h)
        system, probe = linear_states(deg), probe_state(eps)
        np.testing.assert_allclose(
            ppbs_amplitudes(system, probe, params),
            per_photon_reference(system, probe, params), rtol=0.0, atol=1e-15,
        )


class TestExactJointProbabilities:
    def test_horizontal_operating_point(self):
        # system |H> is untouched; meter outcome follows (1 +- eps)^2 / (2 (1 + eps^2))
        eps = 0.08
        d = exact(0.0, eps)
        p_plus = (1.0 + eps) ** 2 / (2.0 * (1.0 + eps**2)) / 2.0
        p_minus = (1.0 - eps) ** 2 / (2.0 * (1.0 + eps**2)) / 2.0
        np.testing.assert_allclose(d, [p_plus, p_minus, p_plus, p_minus], rtol=0.0, atol=1e-15)
        assert p_plus == pytest.approx(0.28975, abs=5e-6)

    @pytest.mark.parametrize("deg", [0.0, 30.0, 60.0, 110.0, 245.0])
    def test_zero_coupling_matches_linear_model(self, deg):
        np.testing.assert_allclose(exact(deg, 0.0), model_distribution(deg, 0.0, "linear"),
                                   rtol=0.0, atol=1e-12)

    def test_orthogonal_postselection_survives_at_second_order(self):
        eps = 0.08
        d = exact(90.0, eps)
        # the linearized model gives exactly zero here
        assert marginal(d, F_A) == pytest.approx(eps**2 / (1.0 + eps**2), abs=1e-15)
        assert marginal(d, F_A) > 0.0

    @pytest.mark.parametrize("deg", [0.0, 25.0, 90.0, 180.0, 300.0])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.3])
    def test_valid_distribution(self, deg, eps):
        for params in (None, GateParams(), GateParams(a_h=1.0)):
            d = exact(deg, eps, params=params)
            assert (d >= 0.0).all()
            assert d.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("deg", [0.0, 20.0, 55.0, 130.0, 275.0])
    @pytest.mark.parametrize("eps", [0.0, 0.08, 0.2])
    def test_compensated_ppbs_equals_ideal_csign(self, deg, eps):
        via_gate = exact(deg, eps, params=GateParams())
        via_csign = exact(deg, eps, params=None)
        np.testing.assert_allclose(via_gate, via_csign, rtol=0.0, atol=1e-12)

    def test_quadratic_convergence_to_linear_model(self):
        # max discrepancy over the grid scales as eps^2: halving eps divides
        # it by 4 within a factor 1.5. Grid points where the linear model
        # itself refuses (negative first-order cell) carry no comparison.
        def max_gap(eps):
            gap = 0.0
            for deg in range(0, 76, 15):
                try:
                    linear = model_distribution(deg, eps, "linear")
                except LinearizationInvalid:
                    continue
                gap = max(gap, np.abs(exact(deg, eps) - linear).max())
            return gap

        for eps in (0.08, 0.04):
            ratio = max_gap(eps) / max_gap(eps / 2.0)
            assert 4.0 / 1.5 <= ratio <= 4.0 * 1.5

    def test_uncompensated_gate_shifts_postselection_asymmetrically(self):
        # relative change of p(f) under the imperfection differs between rows
        ideal = exact(45.0, 0.0, params=GateParams())
        uncomp = exact(45.0, 0.0, params=GateParams(a_h=1.0))
        ratio_a = marginal(uncomp, F_A) / marginal(ideal, F_A)
        ratio_d = marginal(uncomp, F_D) / marginal(ideal, F_D)
        assert abs(ratio_a - ratio_d) > 0.5

    def test_zero_coincidence_norm(self):
        # a symmetric 50:50 splitter nulls the HH and VV coincidences, so
        # an input of HH alone has none left
        with pytest.raises(ZeroCoincidenceNorm):
            exact(0.0, 0.0, params=HALF_SPLITTER)
        # HV and VH keep a coincidence probability of 1/2: at eps != 0 the
        # table is defined
        p = exact(30.0, 0.05, params=HALF_SPLITTER)
        assert (p >= 0.0).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_custom_bases_reduce_to_marginals(self):
        # post-selecting in the H/V basis (the analyzer at 180 deg, V, and
        # its partner H) at eps=0 reproduces |<f|psi>|^2
        d = exact(60.0, 0.0, postselect_deg=180.0)
        assert marginal(d, F_D) == pytest.approx(
            math.cos(math.radians(30.0)) ** 2, abs=1e-12
        )
        assert marginal(d, F_A) == pytest.approx(
            math.sin(math.radians(30.0)) ** 2, abs=1e-12
        )


class TestProbeState:
    def test_normalization(self):
        p = probe_state(0.08)
        n = 1.0 / math.sqrt(1.0 + 0.08**2)
        np.testing.assert_allclose(p, [n, 0.08 * n], rtol=0.0, atol=1e-15)

    def test_kron_ordering(self):
        out = ideal_csign(linear_states(180.0), probe_state(0.0))
        # system V, probe H lands on the VH slot
        assert np.allclose(out, [0.0, 0.0, 1.0, 0.0])
