import ctypes
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakmeas import (
    CELLS,
    EnsembleStats,
    GateParams,
    ModelTag,
    Outcome,
    TooManyDiscardedReplicas,
    UNCOMPENSATED_PPBS,
    WeakValueReferenceZero,
    ZeroProbability,
    fisher_information,
    linear_states,
    model_distribution,
    philox_generator,
    run_ensemble,
    sample_counts,
    weak_value,
)
from weakmeas.estimation import estimate_epsilon
from weakmeas.kernel import analyzer_basis, moment_estimates
from weakmeas.montecarlo import (
    DISCARD_TOLERANCE, _BLOCK_ROWS, _PhiloxState, _philox_words, _replica_counts,
)

F_A = Outcome.A

# Frozen Philox regression vector: seed 42, linear model, theta=0,
# eps=0.08, n=1e4, multinomial. Pins the generator and the substream rule.
FROZEN_COUNTS_SEED42 = {
    (Outcome.D, Outcome.A): 2874,
    (Outcome.A, Outcome.A): 2123,
    (Outcome.D, Outcome.D): 2897,
    (Outcome.A, Outcome.D): 2106,
}

# Exact ensemble statistics, made before the model kernel was batched:
# (theta, eps, model, gate params, shots, mode, base_seed) -> stats. A
# changed draw shows as a changed mean or variance far beyond 1e-12.
PINNED_ENSEMBLES = [
    ((30.0, 0.08, ModelTag.LINEAR, None, 10**5, "multinomial", 2024),
     EnsembleStats(0.08012757872339867, 2.8812903900741797e-06, 200, 3.333333333333334e-06, 0)),
    ((30.0, 0.08, ModelTag.EXACT_IDEAL, None, 10**5, "multinomial", 2024),
     EnsembleStats(0.0785909404577579, 2.8327865571499655e-06, 200, 3.333333333333334e-06, 0)),
    ((30.0, 0.08, ModelTag.EXACT_PPBS, GateParams(1.0, 0.6, 0.55), 10**5, "multinomial", 2024),
     EnsembleStats(0.08553212512564652, 3.032007844899424e-06, 200, 3.333333333333334e-06, 0)),
    ((30.0, 0.08, ModelTag.LINEAR, None, 10**5, "poisson", 2024),
     EnsembleStats(0.08009687825640789, 3.1143998283685644e-06, 200, 3.333333333333334e-06, 0)),
    # near the singular post-selection, where replicas are discarded
    ((88.0, 0.0, ModelTag.LINEAR, None, 40_000, "multinomial", 2030),
     EnsembleStats(-0.0001348454907622772, 6.776956174320578e-06, 198, 6.251904245572803e-06, 2)),
]


#: Shots and seeds of a float type, refused with TypeError, and the type
#: name the error gives.
NON_INTEGER_SHOTS = [(10.5, "float"), (np.float64(10.0), r"numpy\.float64")]
NON_INTEGER_SEEDS = [(1.5, "float"), (np.float64(2.0), r"numpy\.float64")]


def plain_estimate(n_d: int, n_a: int, wv_ref: float) -> float:
    """The moment estimate of one replica's counts in plain Python: the
    exact integer total, each quotient rounded once."""
    total = n_d + n_a
    return (n_d / total - n_a / total) / (2.0 * wv_ref)


def replica_counts(*args):
    """The blocks of ``_replica_counts(*args)`` joined: the two count
    columns of all its replicas."""
    return tuple(np.concatenate(col) for col in zip(*_replica_counts(*args)))


def no_draw(*args, **kwargs):
    raise AssertionError("a draw was prepared")


def linear(deg, eps):
    return model_distribution(deg, eps, ModelTag.LINEAR)


class TestModelDistribution:
    def test_tags_dispatch(self):
        lin = model_distribution(0.0, 0.08, ModelTag.LINEAR)
        ideal = model_distribution(0.0, 0.08, ModelTag.EXACT_IDEAL)
        ppbs = model_distribution(0.0, 0.08, ModelTag.EXACT_PPBS)
        assert lin[0] == pytest.approx(0.29)
        assert ideal[0] == pytest.approx(0.289746, abs=5e-7)
        assert ppbs[0] == pytest.approx(ideal[0], abs=1e-12)

    def test_parse_accepts_dashes(self):
        assert ModelTag.parse("exact-ideal") is ModelTag.EXACT_IDEAL
        assert ModelTag.parse("LINEAR") is ModelTag.LINEAR

    @pytest.mark.parametrize("model", [None, 3, "bogus"])
    def test_unknown_model_is_named(self, model):
        with pytest.raises(ValueError, match=f"{model!r} is not a valid ModelTag"):
            model_distribution(0.0, 0.08, model)


class TestSampleCounts:
    def test_degenerate_distribution(self):
        counts = sample_counts([0.0, 0.0, 1.0, 0.0], 100, seed=1)
        assert counts.dtype == np.int64 and counts.tolist() == [0, 0, 100, 0]

    def test_uniform_within_binomial_bounds(self):
        n = 10**6
        counts = sample_counts([0.25] * 4, n, seed=2718)
        sigma = math.sqrt(n * 0.25 * 0.75)
        assert (np.abs(counts - n * 0.25) < 5.0 * sigma).all()

    def test_deterministic_regression_vector(self):
        dist = linear(0.0, 0.08)
        counts = sample_counts(dist, 10**4, seed=42)
        assert dict(zip(CELLS, counts.tolist())) == FROZEN_COUNTS_SEED42
        np.testing.assert_array_equal(sample_counts(dist, 10**4, seed=42), counts)

    def test_seeds_differ(self):
        dist = linear(0.0, 0.08)
        a = sample_counts(dist, 10**4, seed=1)
        b = sample_counts(dist, 10**4, seed=2)
        assert a.tolist() != b.tolist()

    def test_poisson_mode_totals_fluctuate(self):
        dist = linear(0.0, 0.08)
        totals = {int(sample_counts(dist, 10**4, seed=s, mode="poisson").sum()) for s in range(5)}
        assert len(totals) > 1

    def test_poisson_counts_summing_past_int64(self):
        # at the largest shots the four Poisson counts often sum past
        # 2^63 - 1; each count stays below it
        dist = linear(0.0, 0.08)
        pvec = dist / dist.sum()
        totals = []
        for seed in range(4):
            counts = sample_counts(dist, 2**63 - 1, seed=seed, mode="poisson")
            want = philox_generator(seed).poisson((2**63 - 1) * pvec).tolist()
            assert counts.tolist() == want
            totals.append(sum(counts.tolist()))
        assert max(totals) >= 2**63

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            sample_counts(linear(0.0, 0.0), 10, seed=0, mode="bootstrap")

    @pytest.mark.parametrize("n", [0, -1, 2**63, 2**64])
    def test_rejects_shots_out_of_range(self, n):
        with pytest.raises(ValueError, match="shots"):
            sample_counts(linear(0.0, 0.0), n, seed=0)

    @pytest.mark.parametrize("mode", ["multinomial", "poisson"])
    @pytest.mark.parametrize("n, name", NON_INTEGER_SHOTS)
    def test_shots_must_be_an_integer(self, mode, n, name):
        # numpy's Generator would truncate 10.5 shots to 10
        dist = linear(0.0, 0.08)
        with pytest.raises(TypeError, match=f"^'{name}' object cannot be interpreted as an integer$"):
            sample_counts(dist, n, seed=0, mode=mode)
        assert (sample_counts(dist, np.int64(10), seed=0, mode=mode).tolist()
                == sample_counts(dist, 10, seed=0, mode=mode).tolist())

    @pytest.mark.parametrize("mode", ["multinomial", "poisson"])
    @pytest.mark.parametrize("seed, name", NON_INTEGER_SEEDS)
    def test_seed_must_be_an_integer(self, mode, seed, name):
        # int() would draw the counts of seed 1 for a seed of 1.5
        dist = linear(0.0, 0.08)
        with pytest.raises(TypeError, match=f"^'{name}' object cannot be interpreted as an integer$"):
            sample_counts(dist, 1000, seed, mode=mode)
        assert (sample_counts(dist, 1000, np.uint64(2), mode=mode).tolist()
                == sample_counts(dist, 1000, 2, mode=mode).tolist())

    @pytest.mark.parametrize("table, match", [
        ([0.5, 0.5], "4 cells"), ([-0.01, 0.51, 0.25, 0.25], "negative"), ([0.3] * 4, "sum to"),
    ])
    def test_rejects_invalid_table(self, table, match):
        with pytest.raises(ValueError, match=match):
            sample_counts(table, 10, seed=0)

    def test_largest_shots(self):
        assert sample_counts(linear(0.0, 0.0), 2**63 - 1, seed=0).sum() == 2**63 - 1


class TestPhiloxStreams:
    def test_streams_are_independent_addresses(self):
        a = philox_generator(123, stream=0).integers(0, 2**32, size=4)
        b = philox_generator(123, stream=1).integers(0, 2**32, size=4)
        c = philox_generator(123, stream=0).integers(0, 2**32, size=4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_seed_range(self):
        for seed in (0, 2**64 - 1):
            philox_generator(seed)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                philox_generator(seed)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           replicas=st.integers(1, 5),
           n=st.one_of(st.integers(1, 5), st.integers(1, 2**63 - 1)),
           weights=st.one_of(
               st.just([29, 21, 29, 21]),
               st.lists(st.integers(0, 9), min_size=4, max_size=4).filter(any),
           ))
    def test_rekey_equals_fresh_generator(self, seed, replicas, n, weights):
        # the loop's own path: one generator rekeyed through the streams of
        # consecutive replicas, drawn through the C functions over all
        # four cells, read two cells at a time
        pvec = np.array(weights, dtype=float) / sum(weights)
        for mode, args in (("multinomial", (n, pvec)), ("poisson", (n * pvec,))):
            try:
                want = [getattr(philox_generator(seed, 1 + r), mode)(*args).tolist()
                        for r in range(replicas)]
            except ValueError as exc:
                # n * p past the largest Poisson mean numpy draws
                assert mode == "poisson"
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    replica_counts(mode, n, seed, pvec, (0, 3), replicas)
                continue
            for cols in ((0, 3), (2, 1)):
                got = replica_counts(mode, n, seed, pvec, cols, replicas)
                assert all(counts.dtype == np.int64 for counts in got)
                assert [counts.tolist() for counts in got] == [
                    [row[col] for row in want] for col in cols]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1),
           replicas=st.integers(1, 3),
           cols=st.tuples(st.integers(0, 3), st.integers(0, 3)),
           n=st.one_of(st.integers(1, 5), st.integers(1, 2**63 - 1)),
           weights=st.one_of(
               st.just([29, 21, 29, 21]),
               st.lists(st.integers(0, 9), min_size=4, max_size=4).filter(any),
           ))
    # [1, 1, 1, 4] / 7 lumps to a vector that sums to 1 - 2^-53, so a
    # rescaled vector would move cells 0 and 1 at this n
    @example(seed=0, replicas=1, cols=(0, 1), n=2**63 - 1, weights=[1, 1, 1, 4])
    def test_reduced_draw_keeps_the_read_cells(self, seed, replicas, cols, n, weights):
        # a draw that stops at the last cell of cols, and in multinomial
        # mode lumps the rest into one last cell, reads the counts of the
        # four-cell Generator draw in cols
        pvec = np.array(weights, dtype=float) / sum(weights)
        for mode, args in (("multinomial", (n, pvec)), ("poisson", (n * pvec,))):
            try:
                full = [getattr(philox_generator(seed, 1 + r), mode)(*args).tolist()
                        for r in range(replicas)]
            except ValueError as exc:
                # n * p past the largest Poisson mean numpy draws: refused
                # as for the full table, even where that cell is not drawn
                assert mode == "poisson"
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    replica_counts(mode, n, seed, pvec, cols, replicas)
                continue
            got = replica_counts(mode, n, seed, pvec, cols, replicas)
            assert [counts.tolist() for counts in got] == [
                [row[col] for row in full] for col in cols]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_layout_check_passes(self, seed):
        bits = philox_generator(seed).bit_generator
        # off the stream's start, so every checked field must be written
        bits.random_raw(3)
        _philox_words(bits, seed)
        got = bits.state
        assert got["state"]["key"].tolist() == [seed, 1]
        assert got["state"]["counter"].tolist() == [0, 0, 0, 0]
        assert (got["buffer_pos"], got["has_uint32"]) == (4, 0)
        pvec = np.array([0.29, 0.21, 0.29, 0.21])
        for mode, args in (("multinomial", (10, pvec)), ("poisson", (10 * pvec,))):
            want = getattr(philox_generator(seed, 1), mode)(*args).tolist()
            got = replica_counts(mode, 10, seed, pvec, (0, 3), 1)
            assert [counts.tolist() for counts in got] == [[want[0]], [want[3]]]

    def test_layout_check_refuses_a_wrong_mapping(self, monkeypatch):
        # buffer_pos and has_uint32 swapped: the rekey's buffer_pos write
        # lands in has_uint32, inside the struct
        fields = dict(_PhiloxState._fields_)
        order = ["ctr", "key", "has_uint32", "buffer", "buffer_pos", "uinteger"]

        class Swapped(ctypes.Structure):
            _fields_ = [(name, fields[name]) for name in order]

        assert ctypes.sizeof(Swapped) == ctypes.sizeof(_PhiloxState)
        monkeypatch.setattr("weakmeas.montecarlo._PhiloxState", Swapped)
        pvec = np.array([0.29, 0.21, 0.29, 0.21])
        version = re.escape(f"numpy {np.__version__}: ")
        for mode in ("multinomial", "poisson"):
            # refused when the first block is asked for, before any draw
            with monkeypatch.context() as m:
                m.setattr("weakmeas.montecarlo._distributions", no_draw)
                with pytest.raises(RuntimeError, match=version):
                    next(_replica_counts(mode, 10, 0, pvec, (0, 1), 2))
            with pytest.raises(RuntimeError, match=version):
                run_ensemble(30.0, 0.08, ModelTag.LINEAR, 10, 2, base_seed=0, mode=mode)
        # sample_counts is numpy's own draw and reads no private layout
        counts = sample_counts(linear(0.0, 0.08), 10**4, seed=42)
        assert dict(zip(CELLS, counts.tolist())) == FROZEN_COUNTS_SEED42

    @pytest.mark.parametrize("mode, n, pvec", [
        ("multinomial", 10, [0.5, 0.5, 0.5, -0.5]),
        ("multinomial", 10, [0.6, 0.6, 0.0, 0.0]),
        ("multinomial", 10, [np.nan, 0.5, 0.5, 0.0]),
        ("poisson", 10, [0.5, 0.5, 0.5, -0.5]),
        ("poisson", 10, [np.nan, 0.5, 0.5, 0.0]),
        ("poisson", 2**63 - 1, [1.0, 0.0, 0.0, 0.0]),
    ])
    def test_numpy_checks_run_before_any_draw(self, monkeypatch, mode, n, pvec):
        pvec = np.array(pvec)
        args = (n, pvec) if mode == "multinomial" else (n * pvec,)
        with pytest.raises(ValueError) as want:
            getattr(philox_generator(0), mode)(*args)
        monkeypatch.setattr("weakmeas.montecarlo._distributions", no_draw)
        # on the full table, also where only the first two cells are drawn
        for cols in ((0, 1), (2, 3)):
            with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
                next(_replica_counts(mode, n, 0, pvec, cols, 1))


class TestRunEnsemble:
    def test_unbiased_at_zero_coupling(self):
        stats = run_ensemble(0.0, 0.0, ModelTag.LINEAR, 10**5, 200, base_seed=7)
        se = math.sqrt(stats.var_eps_hat / stats.n_replicas)
        assert abs(stats.mean_eps_hat) < 3.0 * se

    def test_variance_saturates_crb_at_operating_point(self):
        stats = run_ensemble(0.0, 0.08, ModelTag.LINEAR, 10**6, 200, base_seed=7)
        assert 0.9 <= stats.var_eps_hat / stats.crb <= 1.1

    @pytest.mark.parametrize("deg", [0.0, 45.0])
    def test_variance_convergence(self, deg):
        # fixed seed; the 200-replica variance estimate itself has ~10%
        # sampling error, so the window is checked at a pinned stream
        stats = run_ensemble(deg, 0.0, ModelTag.LINEAR, 10**5, 200, base_seed=7)
        _, per_a = fisher_information(linear_states(deg))
        assert stats.var_eps_hat * 10**5 * per_a == pytest.approx(1.0, abs=0.1)

    def test_exact_model_reproduces_deterministic_bias(self):
        deg, eps = 60.0, 0.08
        stats = run_ensemble(deg, eps, ModelTag.EXACT_IDEAL, 10**6, 200, base_seed=3)
        dist = model_distribution(deg, eps, ModelTag.EXACT_IDEAL)
        half = math.radians(deg) / 2.0
        wv = (math.cos(half) + math.sin(half)) / (math.cos(half) - math.sin(half))
        expected, _ = estimate_epsilon(dist[0], dist[1], wv, f=Outcome.A)
        se = math.sqrt(stats.var_eps_hat / stats.n_replicas)
        assert abs(stats.mean_eps_hat - expected) < 3.0 * se

    def test_bit_exact_reproducibility(self):
        a = run_ensemble(30.0, 0.05, ModelTag.LINEAR, 10**4, 50, base_seed=99)
        b = run_ensemble(30.0, 0.05, ModelTag.LINEAR, 10**4, 50, base_seed=99)
        assert a == b

    def test_poisson_mode_agrees_on_conditionals(self):
        multi = run_ensemble(0.0, 0.08, ModelTag.LINEAR, 10**5, 100, base_seed=13)
        pois = run_ensemble(
            0.0, 0.08, ModelTag.LINEAR, 10**5, 100, base_seed=13, mode="poisson"
        )
        se = math.sqrt(multi.var_eps_hat / multi.n_replicas)
        assert abs(multi.mean_eps_hat - pois.mean_eps_hat) < 5.0 * se

    def test_too_many_discarded_replicas(self):
        # theta=2 deg: p(m, A) ~ 1.5e-4, so n=10 leaves empty cells
        with pytest.raises(TooManyDiscardedReplicas):
            run_ensemble(2.0, 0.0, ModelTag.LINEAR, 10, 50, base_seed=21)

    def test_outcome_is_parsed(self):
        args = (30.0, 0.08, ModelTag.LINEAR, 10**4, 50)
        for text, f in (("A", Outcome.A), ("D", Outcome.D)):
            assert run_ensemble(*args, base_seed=5, f=text) == run_ensemble(*args, base_seed=5, f=f)
        with pytest.raises(ValueError, match="'B' is not a valid Outcome"):
            run_ensemble(*args, base_seed=5, f="B")

    @pytest.mark.parametrize("params, want", PINNED_ENSEMBLES)
    def test_pinned_stats(self, params, want):
        theta, eps, model, gate, shots, mode, seed = params
        got = run_ensemble(theta, eps, model, shots, 200, base_seed=seed,
                           gate_params=gate, mode=mode)
        assert (got.n_replicas, got.n_discarded) == (want.n_replicas, want.n_discarded)
        for name in ("mean_eps_hat", "var_eps_hat", "crb"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0)

    # at 1 to 3 shots the multinomial draw runs out of events before the
    # last cells, which are then left as they were; most replicas are
    # discarded, so run_ensemble refuses the ensemble. f = A draws cells 0
    # and 1 (and the rest lumped in multinomial mode), f = D all four.
    @pytest.mark.parametrize("f", [Outcome.A, Outcome.D])
    @pytest.mark.parametrize("params", [PINNED_ENSEMBLES[i][0] for i in (0, 3, 4)] + [
        (30.0, 0.08, ModelTag.LINEAR, None, shots, "multinomial", 2024) for shots in (1, 2, 3)
    ])
    def test_estimates_equal_reference_loop(self, params, f):
        theta, eps, model, gate, shots, mode, seed = params
        pvec = model_distribution(theta, eps, model, gate)
        pvec = pvec / pvec.sum()
        # run_ensemble's reference: the row of the default analyzer basis
        row = 0 if f is Outcome.D else 1
        wv_ref = weak_value(linear_states(theta), analyzer_basis(270.0)[row]).real
        i_d, i_a = CELLS.index((Outcome.D, f)), CELLS.index((Outcome.A, f))
        want, kept, discarded = [], [], 0
        for r in range(200):
            gen = philox_generator(seed, stream=1 + r)
            if mode == "multinomial":
                drawn = gen.multinomial(shots, pvec)
            else:
                drawn = gen.poisson(shots * pvec)
            n_d, n_a = int(drawn[i_d]), int(drawn[i_a])
            if n_d == 0 or n_a == 0:
                discarded += 1
                continue
            want.append(plain_estimate(n_d, n_a, wv_ref))
            kept.append((n_d, n_a))
        n_d, n_a = replica_counts(mode, shots, seed, pvec, (i_d, i_a), 200)
        usable = (n_d != 0) & (n_a != 0)
        assert 200 - usable.sum() == discarded
        assert list(zip(n_d[usable].tolist(), n_a[usable].tolist())) == kept
        # the estimator the ensemble runs, on those counts, and its N = 1 call
        eps_hat, status = moment_estimates(n_d[usable], n_a[usable], wv_ref)
        assert eps_hat.tolist() == want and not status.any()
        assert [estimate_epsilon(n_d, n_a, wv_ref, f=f)[0] for n_d, n_a in kept] == want
        if discarded > DISCARD_TOLERANCE * 200:
            with pytest.raises(TooManyDiscardedReplicas, match=f"{discarded} of 200"):
                run_ensemble(theta, eps, model, shots, 200, base_seed=seed, f=f,
                             gate_params=gate, mode=mode)
            return
        stats = run_ensemble(theta, eps, model, shots, 200, base_seed=seed, f=f,
                             gate_params=gate, mode=mode)
        assert stats.mean_eps_hat == np.mean(want)
        assert stats.var_eps_hat == np.var(want, ddof=1)

    @pytest.mark.parametrize("mode", ["multinomial", "poisson"])
    def test_estimates_cross_a_count_block(self, mode):
        # three replicas past the first block of counts
        theta, shots, seed, n_replicas = 30.0, 10**5, 2024, _BLOCK_ROWS + 3
        pvec = linear(theta, 0.08)
        pvec = pvec / pvec.sum()
        wv_ref = weak_value(linear_states(theta), analyzer_basis(270.0)[1]).real
        i_d, i_a = CELLS.index((Outcome.D, F_A)), CELLS.index((Outcome.A, F_A))
        want = []
        for r in range(n_replicas):
            gen = philox_generator(seed, stream=1 + r)
            drawn = gen.multinomial(shots, pvec) if mode == "multinomial" else gen.poisson(shots * pvec)
            want.append(plain_estimate(int(drawn[i_d]), int(drawn[i_a]), wv_ref))
        blocks = list(_replica_counts(mode, shots, seed, pvec, (i_d, i_a), n_replicas))
        assert [(len(n_d), len(n_a)) for n_d, n_a in blocks] == [(_BLOCK_ROWS, _BLOCK_ROWS), (3, 3)]
        n_d, n_a = (np.concatenate(col) for col in zip(*blocks))
        assert n_d.all() and n_a.all()
        assert moment_estimates(n_d, n_a, wv_ref)[0].tolist() == want

    def test_poisson_counts_summing_past_int64(self):
        # near the A state nearly every event lands in the f = A column, so
        # at the largest shots n_d + n_a exceeds 2^63 - 1 in some replicas
        theta, shots = 270.001, 2**63 - 1
        pvec = model_distribution(theta, 0.0, ModelTag.LINEAR)
        pvec = pvec / pvec.sum()
        wv_ref = weak_value(linear_states(theta), analyzer_basis(270.0)[1]).real
        want, past = [], 0
        for r in range(20):
            drawn = philox_generator(5, stream=1 + r).poisson(shots * pvec)
            n_d, n_a = int(drawn[0]), int(drawn[1])
            past += n_d + n_a >= 2**63
            want.append(plain_estimate(n_d, n_a, wv_ref))
        n_d, n_a = replica_counts("poisson", shots, 5, pvec, (0, 1), 20)
        assert past and n_d.all() and n_a.all()
        got = moment_estimates(n_d, n_a, wv_ref)[0]
        # counts above 2^53 are rounded to float: p(D|f) - p(A|f) may then
        # differ by a few ulp of 1/2 from the exact-integer quotients
        assert np.abs(got - want).max() * 2.0 * abs(wv_ref) <= 4 * 2.0**-53

    @pytest.mark.parametrize("shots", [10**4, 1])
    def test_zero_reference_refused_before_any_draw(self, monkeypatch, shots):
        # theta = 270 deg is the A state: wv_A = 0, and p(f = A) = 1, so one
        # shot leaves an empty cell in every replica
        monkeypatch.setattr("weakmeas.montecarlo.philox_generator", no_draw)
        with pytest.raises(WeakValueReferenceZero):
            run_ensemble(270.0, 0.0, ModelTag.LINEAR, shots, 50, base_seed=0)

    def test_empty_outcome_refused_before_any_draw(self, monkeypatch):
        # the uncompensated PPBS at eps = 0 leaves no f = A coincidence at
        # theta = 120 deg, where wv_A is defined: both cells are exactly 0
        gate = GateParams(t_h=1.0, t_v=1 / math.sqrt(3), a_h=1.0)
        p = model_distribution(120.0, 0.0, ModelTag.EXACT_PPBS, gate)
        assert p[0] == p[1] == 0.0
        monkeypatch.setattr("weakmeas.montecarlo.philox_generator", no_draw)
        with pytest.raises(ZeroProbability, match=r"^post-selection probability p\(f=A\) is zero$"):
            run_ensemble(120.0, 0.0, ModelTag.EXACT_PPBS, 100, 20, base_seed=3, gate_params=gate)

    @pytest.mark.parametrize("shots", [0, 2**63])
    def test_rejects_shots_out_of_range(self, monkeypatch, shots):
        # refused before the model is evaluated
        monkeypatch.setattr("weakmeas.montecarlo.model_distribution", None)
        with pytest.raises(ValueError, match="shots"):
            run_ensemble(0.0, 0.0, ModelTag.LINEAR, shots, 2, base_seed=0)

    @pytest.mark.parametrize("mode", ["multinomial", "poisson"])
    @pytest.mark.parametrize("n, name", NON_INTEGER_SHOTS)
    def test_shots_must_be_an_integer(self, monkeypatch, mode, n, name):
        args = (0.0, 0.08, ModelTag.LINEAR)
        assert (run_ensemble(*args, np.int64(100), 4, base_seed=0, mode=mode)
                == run_ensemble(*args, 100, 4, base_seed=0, mode=mode))
        # refused before the model is evaluated
        monkeypatch.setattr("weakmeas.montecarlo.model_distribution", None)
        with pytest.raises(TypeError, match=f"^'{name}' object cannot be interpreted as an integer$"):
            run_ensemble(*args, n, 4, base_seed=0, mode=mode)

    @pytest.mark.parametrize("mode", ["multinomial", "poisson"])
    @pytest.mark.parametrize("seed, name", NON_INTEGER_SEEDS)
    def test_seed_must_be_an_integer(self, mode, seed, name):
        args = (0.0, 0.08, ModelTag.LINEAR, 100, 4)
        with pytest.raises(TypeError, match=f"^'{name}' object cannot be interpreted as an integer$"):
            run_ensemble(*args, base_seed=seed, mode=mode)
        assert (run_ensemble(*args, base_seed=np.uint64(2), mode=mode)
                == run_ensemble(*args, base_seed=2, mode=mode))

    @pytest.mark.parametrize("model", [ModelTag.LINEAR, ModelTag.EXACT_IDEAL])
    def test_gate_params_refused_for_other_models(self, model):
        with pytest.raises(ValueError, match="^gate_params apply only to model exact-ppbs$"):
            run_ensemble(30.0, 0.08, model, 1000, 10, 1, gate_params=UNCOMPENSATED_PPBS)

    def test_peak_memory_per_replica(self):
        # the ensemble keeps one float64 estimate a replica and one block
        # of counts at a time: below 20 traced bytes a replica, where
        # full-length count columns and their filtered copies took 42
        args = (0.0, 0.08, ModelTag.EXACT_IDEAL, 10**5)
        run_ensemble(*args, 100, base_seed=7)  # warm-up: imports and caches
        n_replicas = 200_000
        tracemalloc.start()
        try:
            run_ensemble(*args, n_replicas, base_seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n_replicas < 20

    def test_replicas_bound(self, monkeypatch):
        monkeypatch.setattr("weakmeas.montecarlo.MAX_REPLICAS", 4)
        assert run_ensemble(0.0, 0.0, ModelTag.LINEAR, 100, 4, base_seed=0).n_replicas == 4
        # refused before the model is evaluated
        monkeypatch.setattr("weakmeas.montecarlo.model_distribution", None)
        with pytest.raises(ValueError, match="replicas must not exceed 4, got 5"):
            run_ensemble(0.0, 0.0, ModelTag.LINEAR, 100, 5, base_seed=0)

    def test_rejects_single_replica(self):
        with pytest.raises(ValueError):
            run_ensemble(0.0, 0.0, ModelTag.LINEAR, 100, 1, base_seed=0)
