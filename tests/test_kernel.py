"""The array kernel ``weakmeas.kernel``: states and the Stokes
observable as it builds and checks them, the first-order model (the
balanced diagonal meter, weak values, the table p[4] and its checks, the
logarithmic derivative 2 kappa_m Re wv_f), bases, and the batched table
and sweep columns against the scalar API."""

import inspect
import math
import re

import numpy as np
import pytest

from weakmeas import (
    CELLS,
    CouplingTooStrong,
    GateParams,
    LinearizationInvalid,
    ModelTag,
    NonOrthonormalBasis,
    Outcome,
    PostselectionSingular,
    WeakMeasError,
    ZeroCoincidenceNorm,
    apparent_fisher,
    estimate_epsilon,
    extract_weak_value,
    fisher_information,
    linear_states,
    model_distribution,
    sample_counts,
    weak_value,
)
from weakmeas import errors, kernel
from weakmeas.kernel import (
    DIAG_BASIS, _state, _transitions, analyzer_basis, check_table, moment_estimates, sweep_columns,
    weak_values,
)

D_OUT, A_OUT = Outcome.D, Outcome.A
F_D, F_A = Outcome.D, Outcome.A
MODELS = [
    (ModelTag.LINEAR, None),
    (ModelTag.EXACT_IDEAL, None),
    (ModelTag.EXACT_PPBS, GateParams(1.0, 0.6, 0.55)),
]
GRID = np.concatenate([np.arange(0.0, 360.0, 2.5), [88.0, 90.0, 92.0, 270.0]])
SQRT2 = math.sqrt(2.0)
D_STATE, A_STATE = DIAG_BASIS
S = np.diag([1.0, -1.0])


def assert_same_ray(state, amp_h, amp_v, tol=1e-12):
    """States are physically identical up to a global phase."""
    want = np.array([amp_h, amp_v], dtype=complex)
    want /= np.linalg.norm(want)
    assert abs(np.vdot(want, state)) == pytest.approx(1.0, abs=tol)


def inner(bra, ket):
    """<bra|ket> as the kernel computes it."""
    return complex(_transitions(np.asarray(ket)[None], np.asarray(bra)[None])[1][0, 0])


def random_states(seed, count):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))


def wv_closed_form(theta_deg):
    """(cos(t/2)+sin(t/2))/(cos(t/2)-sin(t/2)), the f=A weak value."""
    half = math.radians(theta_deg) / 2.0
    return (math.cos(half) + math.sin(half)) / (math.cos(half) - math.sin(half))


def linear(deg, eps):
    return model_distribution(deg, eps, "linear")


def table(theta, eps, model, gate=None):
    """(p[N, 4] in CELLS order, status[N]) of one sweep_columns call."""
    cols = sweep_columns(theta, eps, model, gate)
    return np.stack([cols[f"p_{m.value}{f.value}"] for m, f in CELLS], axis=1), cols["status"]


def cell(p, m, f):
    return p[CELLS.index((m, f))]


def meter_marginal(p, m):
    """p(m) = sum_f p(m, f)."""
    return cell(p, m, F_D) + cell(p, m, F_A)


def table_users(table):
    """Each function that takes a joint table, called on ``table``."""
    good = linear(0.0, 0.0)
    return [lambda: check_table(table),
            lambda: extract_weak_value(table, good, F_A, 0.08),
            lambda: apparent_fisher(good, table, 0.08),
            lambda: sample_counts(table, 10, seed=0)]


def reference_row(theta, eps, model, gate, postselect):
    """One sweep row from the scalar API, one call per quantity."""
    psi, basis = linear_states(theta), analyzer_basis(postselect)
    row = {}
    row["F_D"], row["F_A"] = fisher_information(psi, postselect).tolist()
    row["sigma_rel_A"] = 1.0 / math.sqrt(row["F_A"]) if row["F_A"] > 1e-8 else None
    for key, f in (("wv_D", basis[0]), ("wv_A", basis[1])):
        try:
            row[key] = weak_value(psi, f).real
        except WeakMeasError:
            row[key] = None
    try:
        p = model_distribution(theta, eps, model, gate, postselect)
    except WeakMeasError:
        p = None
    row["p_DA"], row["p_AA"], row["p_DD"], row["p_AD"] = [None] * 4 if p is None else p
    row["eps_hat_A"] = None
    if p is not None and row["wv_A"] is not None and p[0] + p[1] > 0.0:
        try:
            row["eps_hat_A"], _ = estimate_epsilon(p[0], p[1], row["wv_A"], f=F_A)
        except WeakMeasError:
            pass
    return row


@pytest.mark.parametrize("model, gate", MODELS)
@pytest.mark.parametrize("postselect", [270.0, 300.0, 200.0, 45.5])
def test_sweep_columns_match_scalar_api(model, gate, postselect):
    # bit for bit, the sign of a zero included: NaN where the scalar API raises
    cols = sweep_columns(GRID, 0.08, model, gate, postselect)
    for i, theta in enumerate(GRID):
        for key, want in reference_row(float(theta), 0.08, model, gate, postselect).items():
            got = cols[key][i]
            if want is None:
                assert math.isnan(got), (theta, key)
            else:
                assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want)), (theta, key)
    np.testing.assert_array_equal(cols["F_total"], cols["F_D"] + cols["F_A"])


@pytest.mark.parametrize("model, gate", MODELS)
def test_one_amplitude_pass_per_call(monkeypatch, model, gate):
    # weak values, p(f), the Fisher split and the first-order table all
    # read the pair of one _transitions call over both basis rows
    calls = []

    def counted(states, rows):
        calls.append((len(states), len(rows)))
        return _transitions(states, rows)

    monkeypatch.setattr(kernel, "_transitions", counted)
    sweep_columns(GRID[:8], 0.08, model, gate, 300.0)
    assert calls == [(8, 2)]
    calls.clear()
    model_distribution(GRID[1], 0.08, model, gate, 300.0)
    assert calls == [(1, 2)]


@pytest.mark.parametrize("model, gate", MODELS)
def test_rows_do_not_depend_on_batch(model, gate):
    cols = sweep_columns(GRID, 0.08, model, gate)
    for i, theta in enumerate(GRID):
        for key, column in sweep_columns([theta], 0.08, model, gate).items():
            np.testing.assert_array_equal(column[0], cols[key][i], err_msg=f"{theta} {key}")


def test_scalar_weak_value_is_a_row_for_complex_states():
    # numpy multiplies a (1,) complex array by a (1, 1) one in a loop that
    # rounds differently: the N = 1 call must still give a row's bits.
    # weak_value normalizes its arguments, so it takes the raw states
    raw_states, raw_basis = random_states(21, 200), random_states(22, 2)
    states = np.array([_state(psi) for psi in raw_states])
    basis = np.array([_state(f) for f in raw_basis])
    wv = weak_values(*_transitions(states, basis))
    for i, psi in enumerate(raw_states):
        for k, f in enumerate(raw_basis):
            assert weak_value(psi, f) == complex(wv[i, k]), (i, k)


def test_linearization_status():
    p, status = table([0.0, 80.0, 90.0], 0.3, ModelTag.LINEAR)
    assert status.tolist() == [0, LinearizationInvalid.exit_code, 0]
    assert np.isnan(p[1]).all() and not np.isnan(p[[0, 2]]).any()


def test_zero_coincidence_status():
    # a 50:50 splitter nulls the HH and VV coincidences but keeps HV and VH
    # with probability 1/2: only the row whose input is HH alone has none
    gate = GateParams(1 / math.sqrt(2), 1 / math.sqrt(2), 1.0)
    p, status = table([0.0, 30.0], 0.0, ModelTag.EXACT_PPBS, gate)
    assert status.tolist() == [ZeroCoincidenceNorm.exit_code, 0]
    assert np.isnan(p[0]).all() and not np.isnan(p[1]).any()
    p, status = table([0.0, 30.0], 0.05, ModelTag.EXACT_PPBS, gate)
    assert status.tolist() == [0, 0]
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_every_row_status_has_an_error_with_a_reason():
    # the codes kernel.py writes into a status array, each reached once:
    # 5 and 7 by the table of sweep_columns, 9, 8 and 4 by moment_estimates
    written = {getattr(errors, name).exit_code
               for name in re.findall(r"(\w+)\.exit_code", inspect.getsource(kernel))}
    gate = GateParams(1 / math.sqrt(2), 1 / math.sqrt(2), 1.0)
    reached = {
        *sweep_columns([0.0, 80.0], 0.3, ModelTag.LINEAR)["status"].tolist(),
        *sweep_columns([0.0], 0.0, ModelTag.EXACT_PPBS, gate)["status"].tolist(),
        *moment_estimates([0.0, 0.6, 0.6], [0.0, 0.4, 0.4], np.array([1.0, 1e-9, math.nan]))[1].tolist(),
    }
    assert reached - {0} == written == {4, 5, 7, 8, 9}
    for code in written:
        err = errors.BY_CODE[code]
        assert err.exit_code == code and isinstance(err.reason, str)


def test_raise_status():
    assert errors.raise_status(0) is None
    # a status element, with a fact its reason does not name
    with pytest.raises(LinearizationInvalid, match=r"^a first-order probability is negative; "
                       r"coupling eps=0.3 is too strong for this post-selection$"):
        errors.raise_status(np.int64(5), eps=0.3, f="A")


@pytest.mark.parametrize("model", list(ModelTag))
@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda eps, model: table([30.0], eps, model),
    lambda eps, model: sweep_columns([30.0], eps, model),
    lambda eps, model: model_distribution(30.0, eps, model),
], ids=["joint_table", "sweep_columns", "model_distribution"])
def test_non_finite_coupling_is_a_value_error(call, eps, model):
    # every model names eps; the linear one does not report it as a
    # coupling past its guard (CouplingTooStrong)
    with pytest.raises(ValueError, match=f"^coupling eps={eps!r}"):
        call(eps, model)


@pytest.mark.parametrize("model", ["linear", "exact-ideal"])
def test_gate_params_refused_for_other_models(model):
    # a gate another model would not apply: the table would come back as
    # if no gate had been given
    with pytest.raises(ValueError, match="^gate_params apply only to model exact-ppbs$"):
        model_distribution(30.0, 0.08, model, GateParams(a_h=1.0))
    with pytest.raises(ValueError, match="^gate_params apply only to model exact-ppbs$"):
        sweep_columns([30.0], 0.08, model, GateParams(a_h=1.0))


def test_coupling_guard_raises_for_the_whole_call():
    with pytest.raises(CouplingTooStrong):
        sweep_columns(GRID, 0.6, ModelTag.LINEAR)


@pytest.mark.parametrize("model", [ModelTag.EXACT_IDEAL, ModelTag.EXACT_PPBS])
def test_unnormalizable_probe_is_refused(model):
    with pytest.raises(ValueError, match="eps"):
        sweep_columns(GRID, 1e200, model)
    # the largest couplings whose probe still normalizes give a valid table
    p, status = table(GRID, 1e150, model)
    assert not status.any() and np.isfinite(p).all()


def test_non_finite_angle_refused():
    with pytest.raises(ValueError):
        sweep_columns([0.0, math.nan], 0.08, ModelTag.LINEAR)


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
        # the library functions take the angle and make the basis from it
        with pytest.raises(NonOrthonormalBasis, match="overlap"):
            model_distribution(30.0, 0.05, "linear", postselect_deg=1e300)
        with pytest.raises(NonOrthonormalBasis, match="overlap"):
            fisher_information(linear_states(30.0), 1e300)


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

    def test_spectral_radius(self):
        # the weakness guard bounds |eps| times the spectral radius, 1
        model_distribution(0.0, 0.4999, "linear")
        with pytest.raises(CouplingTooStrong, match="margin 0.5 exceeds guard 0.5"):
            model_distribution(0.0, -0.5, "linear")


class TestMatrixElement:
    """<f|S|psi> = wv_f <f|psi>; with f = psi it is <psi|S|psi>."""

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
        got = check_table([-1e-13, 0.5, 0.25, 0.25 + 1e-13])
        assert got.tolist() == [0.0, 0.5, 0.25, 0.25 + 1e-13]

    def test_rejects_bad_total(self):
        # the total prints as a Python float, as numpy 2 would not
        for table, total in (([0.3] * 4, "1.2"), ([math.nan, 0.5, 0.25, 0.25], "nan")):
            for call in table_users(table):
                with pytest.raises(ValueError, match=f"^probabilities sum to {re.escape(total)}, "
                                   "expected 1$"):
                    call()

    def test_marginal_and_conditional(self):
        d = linear(0.0, 0.08)
        assert d[0] + d[1] == pytest.approx(0.5)
        # with wv_ref = 1/2 the estimate is p(D|f) - p(A|f)
        assert estimate_epsilon(d[0], d[1], 0.5, f=F_A)[0] == pytest.approx(0.58 - 0.42)


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


def expected_slope(deg, m):
    """2 kappa_m Re wv_A, kappa_D = -kappa_A = 1."""
    kappa = 1.0 if m is D_OUT else -1.0
    return 2.0 * kappa * weak_value(linear_states(deg), A_STATE).real


class TestLogDerivative:
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
