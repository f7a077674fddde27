"""States and the Stokes observable as the kernel builds and checks them:
``linear_states``, the boundary check of a caller's state, the overlaps
<f|psi> and the matrix elements <f|S|psi> behind every weak value."""

import math

import numpy as np
import pytest

from weakmeas import CouplingTooStrong, linear_states, model_distribution, weak_value
from weakmeas.kernel import _STOKES, DIAG_BASIS, _braket, _state

SQRT2 = math.sqrt(2.0)
D_STATE, A_STATE = DIAG_BASIS


def assert_same_ray(state, amp_h, amp_v, tol=1e-12):
    """States are physically identical up to a global phase."""
    want = np.array([amp_h, amp_v], dtype=complex)
    want /= np.linalg.norm(want)
    overlap = abs(np.vdot(want, state))
    assert overlap == pytest.approx(1.0, abs=tol)


def inner(bra, ket):
    """<bra|ket> as the kernel computes it."""
    return complex(_braket(np.asarray(bra), np.asarray(ket)[None])[0])


def random_states(seed, count):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))


class TestPolarAngle:
    def test_reduced_mod_360(self):
        np.testing.assert_array_equal(linear_states([450.0, -90.0, 360.0]),
                                      linear_states([90.0, 270.0, 0.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            linear_states(float("nan"))


class TestQubitState:
    """A caller's state, checked once at the scalar functions."""

    def test_normalizes_input(self):
        s = _state([3.0, 4.0])
        assert np.sum(np.abs(s) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert s[0] == pytest.approx(0.6)
        assert weak_value([3.0, 4.0], A_STATE) == pytest.approx(weak_value([0.6, 0.8], A_STATE))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            weak_value([0.0, 0.0], A_STATE)

    def test_rejects_nonfinite(self):
        for psi in ([float("inf"), 1.0], [complex(0.0, float("nan")), 1.0]):
            with pytest.raises(ValueError, match="finite"):
                weak_value(psi, A_STATE)
            with pytest.raises(ValueError, match="finite"):
                weak_value(A_STATE, psi)

    def test_normalizes_past_overflow_of_the_squares(self):
        np.testing.assert_allclose(_state([1e200, 2e200j]), _state([1.0, 2.0j]), rtol=1e-15)
        assert weak_value([1e200, 2e200], A_STATE) == pytest.approx(weak_value([1.0, 2.0], A_STATE))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            weak_value([1.0, 0.0, 0.0], A_STATE)

    def test_preserves_global_phase(self):
        phase = np.exp(1j * 0.7)
        s = _state([phase * 0.6, phase * 0.8])
        assert s[0] == pytest.approx(phase * 0.6, abs=1e-12)


class TestLinearPolState:
    def test_horizontal(self):
        np.testing.assert_allclose(linear_states(0.0), [1.0, 0.0], rtol=0.0, atol=1e-12)

    def test_vertical(self):
        np.testing.assert_allclose(linear_states(180.0), [0.0, 1.0], rtol=0.0, atol=1e-12)

    def test_antidiagonal_ray(self):
        # 270 deg is |A>; the literal parametrization carries a global -1
        assert_same_ray(linear_states(270.0), 1 / SQRT2, -1 / SQRT2)

    def test_diagonal(self):
        assert_same_ray(linear_states(90.0), 1 / SQRT2, 1 / SQRT2)

    def test_accepts_polar_angle(self):
        # one angle as a float, a numpy scalar or a one-element row
        a = linear_states(60.0)
        np.testing.assert_array_equal(linear_states(np.float64(60.0)), a)
        np.testing.assert_array_equal(linear_states([60.0])[0], a)
        assert a.shape == (2,) and a.dtype == complex


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        for deg in (0.0, 37.0, 122.5, 301.0):
            s = linear_states(deg)
            assert inner(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_diagonals(self):
        assert inner(A_STATE, D_STATE) == pytest.approx(0.0, abs=1e-12)

    def test_against_direct_arithmetic(self):
        # <A|psi(60)> = (cos30 - sin30)/sqrt2, and its square is p(f = A)
        # at eps = 0
        want = (math.cos(math.radians(30)) - math.sin(math.radians(30))) / SQRT2
        assert inner(A_STATE, linear_states(60.0)) == pytest.approx(want, abs=1e-12)
        p = model_distribution(60.0, 0.0, "linear")
        assert p[0] + p[1] == pytest.approx(want**2, abs=1e-12)
        assert want == pytest.approx(0.2588, abs=5e-5)

    def test_conjugate_linear_in_bra(self):
        s = _state([0.6, 0.8j])
        t = _state([1.0, 1.0])
        assert inner(s, t) == pytest.approx(np.conj(inner(t, s)), abs=1e-12)


class TestObservable:
    """The kernel's fixed observable, the Stokes operator |H><H| - |V><V|."""

    def test_stokes_eigenvalues(self):
        evals = np.linalg.eigvalsh(_STOKES)
        assert sorted(evals) == pytest.approx([-1.0, 1.0])

    def test_stokes_trace_zero(self):
        assert np.trace(_STOKES) == pytest.approx(0.0)

    def test_stokes_is_involution(self):
        assert np.allclose(_STOKES @ _STOKES, np.eye(2), atol=1e-15)

    def test_spectral_radius(self):
        # the weakness guard bounds |eps| times the spectral radius, 1
        model_distribution(0.0, 0.4999, "linear")
        with pytest.raises(CouplingTooStrong, match="margin 0.5 exceeds guard 0.5"):
            model_distribution(0.0, -0.5, "linear")


class TestMatrixElement:
    """<f|S|psi> = wv_f <f|psi>; with f = psi it is <psi|S|psi>."""

    def test_eigenstate_plus(self):
        h = linear_states(0.0)
        assert weak_value(h, h) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_minus(self):
        v = linear_states(180.0)
        assert weak_value(v, v) == pytest.approx(-1.0, abs=1e-12)

    def test_against_direct_arithmetic(self):
        # <A|S|psi(60)> = (cos30 + sin30)/sqrt2
        psi = linear_states(60.0)
        want = (math.cos(math.radians(30)) + math.sin(math.radians(30))) / SQRT2
        got = weak_value(psi, A_STATE) * inner(A_STATE, psi)
        assert got == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.9659, abs=5e-5)

    def test_hermitian_conjugation(self):
        for x, y in zip(random_states(11, 20), random_states(12, 20)):
            x, y = _state(x), _state(y)
            lhs = weak_value(y, x) * inner(x, y)
            rhs = np.conj(weak_value(x, y) * inner(y, x))
            assert lhs == pytest.approx(rhs, abs=1e-12)
