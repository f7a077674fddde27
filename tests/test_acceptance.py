"""Acceptance suite. Each test pins one acceptance criterion at its stated
tolerance and reports a PASS/FAIL line through conftest.record_criterion.

Criteria 3 and 4 check the finite-coupling values that the documented
methods give at the operating coupling eps = 0.08, written out in closed
form here and matched to rel 1e-12:

* criterion 3: the finite-difference weak value is the outcome-averaged
  log-difference of the conditionals. On the linear model p(D|f) =
  (1 + 2 eps wv) / 2 and p(A|f) = (1 - 2 eps wv) / 2, so it equals
  atanh(2 eps wv) / (2 eps) exactly; at eps = 1e-6 it is wv to rel 1e-6.
  At theta = 0 this is the quoted 1.0087.
* criterion 4: the moment estimator returns the set eps on linear-model
  conditionals, and on exact ideal-gate conditionals it returns
  eps / (1 + eps^2 wv^2) identically. With c = cos(theta/2), s =
  sin(theta/2), u = c - s and v = c + s, the meter amplitudes after
  post-selection on A are proportional to u +- eps v, so
  p(D|A) - p(A|A) = 2 eps u v / (u^2 + eps^2 v^2) and wv = v / u.
  Its bias grows toward the orthogonality point.

The checks use these exact values rather than tolerance envelopes around
the zero-coupling values wv and eps, because such envelopes cannot hold at
eps = 0.08:

* a 2% envelope on the weak value over [0, 60] deg: the relative error of
  atanh(x) / x with x = 2 eps wv is (4/3) (eps wv)^2 + O((eps wv)^4). The
  leading term crosses 2% near theta = 24 deg (the exact error near
  22.8 deg) and the error reaches 15.3% at theta = 60 deg.
* a 1% envelope on eps_hat up to 45 deg: the relative bias
  eps^2 wv^2 / (1 + eps^2 wv^2) crosses 1% near theta = 13 deg and is
  1.9% at 30 deg and 3.6% at 45 deg.
"""

import json
import math
import time
from statistics import NormalDist

from conftest import record_criterion
from support import wv_a
from weakmeas import (
    GateParams,
    LinearizationInvalid,
    ModelTag,
    Outcome,
    WeakMeasError,
    apparent_fisher,
    estimate_epsilon,
    extract_weak_value,
    fisher_information,
    linear_states,
    model_distribution,
    philox_generator,
    run_ensemble,
    weak_value,
)
from weakmeas.cli import main as cli_main
from weakmeas.kernel import COLUMN, DIAG_BASIS, analyzer_basis, moment_estimates

F_A = Outcome.A
#: The cells (D, A) and (A, A) of a joint table, the weights of f = A.
I_D, I_A = COLUMN[F_A]
EPS_OP = 0.08  # operating coupling


def _record_and_assert(number, name, passed, detail=""):
    record_criterion(number, name, passed, detail)
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_fisher_constancy():
    start = time.perf_counter()
    worst_total = 0.0
    for deg in range(360):
        f_d, f_a = fisher_information(linear_states(float(deg)))
        worst_total = max(worst_total, abs(f_d + f_a - 4.0))
    elapsed = time.perf_counter() - start
    passed = worst_total <= 1e-9 and elapsed < 1.0
    _record_and_assert(
        1,
        "Fisher information constant at 4 over the full circle",
        passed,
        f"max|F-4|={worst_total:.2e}, runtime={elapsed:.3f}s",
    )


def test_criterion_2_closed_form_weak_value():
    a_state = DIAG_BASIS[1]
    worst = 0.0
    for deg in list(range(0, 86)) + list(range(95, 360)):
        got = weak_value(linear_states(float(deg)), a_state).real
        want = math.tan(math.radians(deg / 2.0 + 45.0))
        worst = max(worst, abs(got - want))
    below = [abs(wv_a(float(d))) for d in range(60, 86)]
    above = [abs(wv_a(float(d))) for d in range(95, 121)]
    monotone = below == sorted(below) and above == sorted(above, reverse=True)
    passed = worst <= 1e-10 and monotone
    _record_and_assert(
        2,
        "weak value matches tan(theta/2 + 45deg), divergent toward 90deg",
        passed,
        f"max|wv - tan|={worst:.2e}, monotone growth toward 90deg: {monotone}",
    )


def test_criterion_3_finite_difference_extraction():
    # limit consistency at eps_probe = 1e-6
    limit_ok = True
    for deg in range(0, 61, 5):
        p_e = model_distribution(float(deg), 1e-6, "linear")
        p_0 = model_distribution(float(deg), 0.0, "linear")
        got = extract_weak_value(p_e, p_0, F_A, 1e-6)
        if abs(got / wv_a(float(deg)) - 1.0) > 1e-6:
            limit_ok = False

    # finite coupling: exactly atanh(2 eps wv) / (2 eps) on [0, 60] deg
    residuals = []
    at_zero = None
    for deg in range(0, 61, 5):
        p_e = model_distribution(float(deg), EPS_OP, "linear")
        p_0 = model_distribution(float(deg), 0.0, "linear")
        got = extract_weak_value(p_e, p_0, F_A, EPS_OP)
        want = math.atanh(2.0 * EPS_OP * wv_a(float(deg))) / (2.0 * EPS_OP)
        residuals.append((abs(got / want - 1.0), deg))
        if deg == 0:
            at_zero = got
    worst_rel, worst_deg = max(residuals)
    closed_form_ok = worst_rel <= 1e-12
    quoted_ok = abs(at_zero - 1.0087) <= 5e-5

    passed = limit_ok and closed_form_ok and quoted_ok
    _record_and_assert(
        3, "finite-difference weak value equals atanh(2 eps wv)/(2 eps) at "
        "eps=0.08 on [0,60]deg",
        passed,
        f"limit consistency at 1e-6: {'ok' if limit_ok else 'FAILED'}; "
        f"max rel residual vs closed form {worst_rel:.2e} at theta={worst_deg}deg "
        f"(bound 1e-12); value at theta=0: {at_zero:.6f} (quoted 1.0087)",
    )


def test_criterion_4_estimator_round_trip():
    # clause 1: linearized conditionals return the set eps to 1e-12
    a_state = DIAG_BASIS[1]
    round_trip_ok = True
    for deg in range(0, 360):
        psi = linear_states(float(deg))
        try:
            wv_ref = weak_value(psi, a_state).real
            dist = model_distribution(float(deg), EPS_OP, "linear")
            eps_hat, _ = estimate_epsilon(dist[I_D], dist[I_A], wv_ref, f=F_A)
        except WeakMeasError:
            continue  # undefined here; not part of "wherever valid"
        if abs(eps_hat - EPS_OP) > 1e-12:
            round_trip_ok = False

    # clause 2: exact ideal-gate conditionals give eps / (1 + eps^2 wv^2)
    # for theta <= 45 deg
    residuals = []
    for deg in (0, 15, 30, 45):
        dist = model_distribution(float(deg), EPS_OP, "exact-ideal")
        eps_hat, _ = estimate_epsilon(dist[I_D], dist[I_A], wv_a(float(deg)), f=F_A)
        want = EPS_OP / (1.0 + (EPS_OP * wv_a(float(deg))) ** 2)
        residuals.append((abs(eps_hat / want - 1.0), deg))
    worst_rel, worst_deg = max(residuals)
    closed_form_ok = worst_rel <= 1e-12

    # clause 3: |bias| nondecreasing toward the orthogonality point
    biases = []
    for deg in (0, 30, 60, 80, 85):
        dist = model_distribution(float(deg), EPS_OP, "exact-ideal")
        eps_hat, _ = estimate_epsilon(dist[I_D], dist[I_A], wv_a(float(deg)), f=F_A)
        biases.append(abs(eps_hat - EPS_OP))
    monotone = biases == sorted(biases)

    passed = round_trip_ok and closed_form_ok and monotone
    _record_and_assert(
        4, "estimator round trip and exact ideal-gate value eps/(1 + eps^2 wv^2)",
        passed,
        f"linear round trip to 1e-12: {'ok' if round_trip_ok else 'FAILED'}; "
        f"max rel residual vs eps/(1 + eps^2 wv^2) {worst_rel:.2e} at "
        f"theta={worst_deg}deg (bound 1e-12); "
        f"bias nondecreasing on grid: {monotone}",
    )


def test_criterion_5_error_information_duality():
    n = 10**6
    worst = 0.0
    for deg in (0.0, 30.0, 60.0):
        psi = linear_states(deg)
        _, f_a = fisher_information(psi)
        half = math.radians(deg) / 2.0
        pf = (math.cos(half) - math.sin(half)) ** 2 / 2.0
        _, sigma = estimate_epsilon(0.5, 0.5, wv_a(deg), n * pf, f=F_A)
        rel = abs(1.0 / sigma**2 / (n * f_a) - 1.0)
        worst = max(worst, rel)
    passed = worst <= 1e-9
    _record_and_assert(
        5,
        "inverse squared binomial error equals the per-f Fisher contribution",
        passed,
        f"worst relative mismatch {worst:.2e}",
    )


def test_criterion_6_monte_carlo_crb_saturation():
    start = time.perf_counter()
    ratios = {}
    for deg in (0.0, 45.0):
        stats = run_ensemble(
            deg, 0.0, ModelTag.LINEAR, 10**6, 200, base_seed=7, f=F_A
        )
        ratios[deg] = stats.var_eps_hat / stats.crb
    elapsed = time.perf_counter() - start

    # determinism: an identical rerun is byte-identical when serialized
    repeat_a = run_ensemble(0.0, 0.0, ModelTag.LINEAR, 10**6, 200, base_seed=7)
    repeat_b = run_ensemble(0.0, 0.0, ModelTag.LINEAR, 10**6, 200, base_seed=7)
    bytes_a = json.dumps(repeat_a.__dict__).encode()
    bytes_b = json.dumps(repeat_b.__dict__).encode()

    in_window = all(0.9 <= r <= 1.1 for r in ratios.values())
    passed = in_window and elapsed < 30.0 and bytes_a == bytes_b
    _record_and_assert(
        6,
        "Monte Carlo variance saturates the Cramer-Rao bound, deterministically",
        passed,
        f"var/crb: " + ", ".join(f"theta={d:g}: {r:.4f}" for d, r in ratios.items())
        + f"; runtime={elapsed:.1f}s; byte-identical rerun: {bytes_a == bytes_b}",
    )


#: Base seed of criterion 10, fixed before its first run.
SPLIT_SEED = 4735


def chi2_ratio_limits(dof, level=0.999):
    """Two-sided ``level`` limits of a sample variance over the true one,
    chi^2_dof / dof for normal samples, by the Wilson-Hilferty cube of a
    normal quantile: (1 - a +- z sqrt(a))^3 with a = 2 / (9 dof)."""
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    a = 2.0 / (9.0 * dof)
    return tuple((1.0 - a + sign * z * math.sqrt(a)) ** 3 for sign in (-1.0, 1.0))


def test_criterion_10_sensitivity_split_over_outcomes():
    """The paper's split of input-state sensitivity between post-selected
    outcomes, checked on counts with the default analyzer at 270 deg,
    where F_A = 2 (1 + sin theta) and F_D = 2 (1 - sin theta).

    Per outcome f, at eps = 0.08, the ensemble variance is the binomial
    variance of the model's own conditionals over the n p(f) post-selected
    events, p(D|f) p(A|f) / (n p(f) wv_f^2), with wv_f the reference weak
    value at eps = 0. The estimate is linear in the count ratio, so only
    the spread of n p(f), O(1/n), is dropped. 4 p(D|f) p(A|f) / (n F_f)
    is the same thing only at eps = 0: off it, it keeps the eps = 0 p(f).

    At eps = 0 the two outcomes of one four-cell table per replica combine
    as (F_D eps_D + F_A eps_A) / 4. Given the column totals, the two
    column splits are independent binomials with mean 1/2, so the
    estimates are uncorrelated, and the variance is
    (F_D^2 / (n F_D) + F_A^2 / (n F_A)) / 16 = 1 / (4 n) = 1 / (n F_total),
    while the per-outcome variances 1 / (n F_f) trade places between
    theta = 30 deg, (F_D, F_A) = (1, 3), and theta = 330 deg, (3, 1).

    Each ratio of a sample variance of R replicas to its prediction lies
    within the chi-square 99.9% limits at R - 1 degrees of freedom."""
    shots, replicas = 10**6, 10**4
    low, high = chi2_ratio_limits(replicas - 1)
    basis = analyzer_basis(270.0)
    per_f = {}
    for model in ("linear", "exact-ideal"):
        for deg in (30.0, 60.0, 330.0):
            p = model_distribution(deg, EPS_OP, model)
            for row, f in enumerate(Outcome):
                i_d, i_a = COLUMN[f]
                pf = p[i_d] + p[i_a]
                wv = weak_value(linear_states(deg), basis[row]).real
                want = (p[i_d] / pf) * (p[i_a] / pf) / (shots * pf * wv * wv)
                stats = run_ensemble(deg, EPS_OP, model, shots, replicas, base_seed=SPLIT_SEED, f=f)
                assert stats.n_discarded == 0
                per_f[model, deg, f.value] = stats.var_eps_hat / want

    # one stream the ensembles above do not use: their replicas draw
    # streams 1 and up
    gen = philox_generator(SPLIT_SEED, 0)
    combined, shares = {}, {}
    for deg, split in ((30.0, (1.0, 3.0)), (330.0, (3.0, 1.0))):
        psi = linear_states(deg)
        fisher = fisher_information(psi)
        assert max(abs(fisher - split)) < 1e-12
        p = model_distribution(deg, 0.0, "linear")
        counts = gen.multinomial(shots, p / p.sum(), size=replicas)
        est = []
        for row, f in enumerate(Outcome):
            i_d, i_a = COLUMN[f]
            eps_hat, status = moment_estimates(counts[:, i_d], counts[:, i_a],
                                               weak_value(psi, basis[row]).real)
            assert not status.any()
            est.append(eps_hat)
            shares[deg, f.value] = eps_hat.var(ddof=1) * shots * fisher[row]
        mix = (fisher[0] * est[0] + fisher[1] * est[1]) / 4.0
        combined[deg] = mix.var(ddof=1) * 4.0 * shots

    ratios = [*per_f.values(), *shares.values(), *combined.values()]
    passed = all(low <= r <= high for r in ratios)
    _record_and_assert(
        10,
        "post-selection splits the sensitivity; the F-weighted outcomes sum to the total",
        passed,
        f"limits [{low:.4f}, {high:.4f}]; per-f var ratio at eps={EPS_OP:g}: "
        + ", ".join(f"{m} {d:g} {f}: {r:.4f}" for (m, d, f), r in per_f.items())
        + "; eps=0 per-f n F_f var: "
        + ", ".join(f"{d:g} {f}: {r:.4f}" for (d, f), r in shares.items())
        + "; combination 4 n var: "
        + ", ".join(f"theta={d:g}: {r:.4f}" for d, r in combined.items()),
    )


def test_criterion_7_linear_vs_exact_order():
    def max_gap(eps):
        gap = 0.0
        for deg in range(0, 76, 15):
            exact = model_distribution(float(deg), eps, "exact-ideal")
            try:
                linear = model_distribution(float(deg), eps, "linear")
            except LinearizationInvalid:
                continue  # linear model undefined at this grid point
            gap = max(gap, max(abs(exact - linear)))
        return gap

    ratio = max_gap(0.08) / max_gap(0.04)
    passed = 3.0 <= ratio <= 5.0
    _record_and_assert(
        7,
        "linear-model discrepancy scales quadratically in the coupling",
        passed,
        f"gap(0.08)/gap(0.04) = {ratio:.3f}, expected in [3, 5]",
    )


def test_criterion_8_gate_model_identity_and_imperfection():
    # compensated PPBS: identical to the ideal controlled-sign gate
    worst = 0.0
    for deg in (0.0, 40.0, 80.0, 120.0, 160.0):
        for eps in (0.04, 0.08):
            via_gate = model_distribution(deg, eps, "exact-ppbs", GateParams())
            via_csign = model_distribution(deg, eps, "exact-ideal")
            worst = max(worst, max(abs(via_gate - via_csign)))
    identity_ok = worst <= 1e-12

    # uncompensated PPBS analyzed with the ideal pipeline: per-row deviation
    # asymmetry and apparent total away from 4
    deg = 30.0
    p_e = model_distribution(deg, EPS_OP, "exact-ppbs", GateParams(a_h=1.0))
    p_0 = model_distribution(deg, 0.0, "exact-ppbs", GateParams(a_h=1.0))
    got = apparent_fisher(p_e, p_0, EPS_OP)
    dev_d, dev_a = got / fisher_information(linear_states(deg))
    asymmetry_ok = abs(dev_a - dev_d) > 0.05
    total_off = abs(got.sum() - 4.0) > 0.5

    # apparent F > 4 artifact of the finite-coupling analysis at large wv
    p_e = model_distribution(80.0, EPS_OP, "exact-ppbs", GateParams())
    p_0 = model_distribution(80.0, 0.0, "exact-ppbs", GateParams())
    artifact = apparent_fisher(p_e, p_0, EPS_OP).sum()
    artifact_ok = artifact > 4.0

    passed = identity_ok and asymmetry_ok and total_off and artifact_ok
    _record_and_assert(
        8,
        "compensated PPBS equals ideal gate; imperfections skew the analysis",
        passed,
        f"max identity residual={worst:.2e}; per-row deviation ratios "
        f"A={dev_a:.3f} vs D={dev_d:.3f}; uncompensated apparent total="
        f"{got.sum():.3f}; apparent F={artifact:.2f} > 4 at 80deg",
    )


def test_criterion_9_sweep_reproduces_theory_curves(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli_main(
        [
            "sweep", "--theta-start", "0", "--theta-stop", "359",
            "--theta-step", "1", "--epsilon", str(EPS_OP), "--model", "linear",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]

    worst_fa = 0.0
    eps_ok = True
    n_eps_cells = 0
    sigma_cells = []
    for row in rows:
        theta = float(row["theta_deg"])
        want = 2.0 * (1.0 + math.sin(math.radians(theta)))
        worst_fa = max(worst_fa, abs(float(row["F_A"]) - want))
        if row["eps_hat_A"]:
            n_eps_cells += 1
            if abs(float(row["eps_hat_A"]) - EPS_OP) > 1e-12:
                eps_ok = False
        if row["sigma_rel_A"]:
            sigma_cells.append((float(row["sigma_rel_A"]), theta))
    argmin_theta = min(sigma_cells)[1]

    passed = (
        worst_fa <= 1e-9
        and eps_ok
        and n_eps_cells >= 250
        and 85.0 <= argmin_theta <= 95.0
    )
    _record_and_assert(
        9,
        "sweep output reproduces the theory curves",
        passed,
        f"max|F_A - 2(1+sin)|={worst_fa:.2e}; eps_hat constant over "
        f"{n_eps_cells} valid cells: {eps_ok}; sigma minimized at "
        f"theta={argmin_theta:g}deg",
    )
