"""Self-tests of the benchmark's own logic (not of weakmeas).

    python3 -m pytest perfbench/test_harness.py    or    python3 perfbench/test_harness.py
"""

from __future__ import annotations

import math
import sys
import types
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


class SelfTimeTest(unittest.TestCase):
    def test_nested_call_self_times(self):
        # cli.main [0, 10] calls qstate.a [1, 4], which calls weakmodel.b
        # [2, 3], then calls qstate.c [5, 9].
        store = tracer.SpanStore(clock=scripted_clock(0, 1, 2, 3, 4, 5, 9, 10))

        def a():
            store.call("weakmodel.b", lambda: None)

        def main():
            store.call("qstate.a", a)
            store.call("qstate.c", lambda: None)

        store.call("cli.main", main)
        dur, self_t = store.self_times()
        self.assertEqual(list(store.parent), [-1, 0, 1, 0])
        self.assertEqual(dur.tolist(), [10, 3, 1, 4])
        self.assertEqual(self_t.tolist(), [3, 2, 1, 4])
        m = tracer.layer_metrics(store)
        self.assertEqual((m["cli.self_s"], m["qstate.self_s"], m["weakmodel.self_s"]), (3, 6, 1))
        self.assertEqual((m["qstate.calls"], m["gatesim.calls"]), (2, 0))
        self.assertEqual(m["qstate.call_us_p50"], 3.5e6)

    def test_error_is_recorded_and_raised(self):
        store = tracer.SpanStore(clock=scripted_clock(0, 1))

        def fail():
            raise ValueError("boom")

        with self.assertRaises(ValueError):
            store.call("estimation.fail", fail)
        self.assertEqual(tracer.layer_metrics(store)["estimation.errors"], 1)

    def test_rng_time_per_draw(self):
        # construct [0, 2], draw [2, 3], construct [3, 4], draw [4, 7]
        store = tracer.SpanStore(clock=scripted_clock(0, 2, 2, 3, 3, 4, 4, 7))
        for _ in range(2):
            store.call("rng.construct", lambda: None)
            store.call("rng.draw", lambda: None)
        m = tracer.layer_metrics(store)
        self.assertEqual((m["montecarlo.rng_calls"], m["montecarlo.rng_s"]), (2, 7))
        self.assertEqual(m["montecarlo.rng_us_p50"], 2e6)


class InstallTest(unittest.TestCase):
    def setUp(self):
        self.module = types.ModuleType("fake_layer")
        exec(
            "def present(x):\n    return 2 * x\n"
            "class Klass:\n    @classmethod\n    def make(cls, x):\n        return (cls, x)\n",
            self.module.__dict__,
        )
        sys.modules["fake_layer"] = self.module
        self.addCleanup(sys.modules.pop, "fake_layer")

    def test_missing_names_are_skipped_and_originals_restored(self):
        store = tracer.SpanStore()
        original = self.module.present
        restore, skipped = tracer.install(
            store, {"fake_layer": ("present", "gone", "Klass.make", "Nope.make")}, {})
        self.assertEqual(skipped, ["fake_layer:gone", "fake_layer:Nope.make"])
        self.assertEqual(self.module.present(4), 8)
        self.assertEqual(self.module.Klass.make(1), (self.module.Klass, 1))
        self.assertEqual(store.names, ["fake_layer.present", "fake_layer.make"])
        restore()
        self.assertIs(self.module.present, original)
        self.assertEqual(self.module.Klass.make(2), (self.module.Klass, 2))
        self.assertEqual(len(store.name_id), 2)


def synthetic_cells(n=200):
    """A (column, row) array shaped like a sweep, NaN where empty."""
    rows = []
    for k in range(n):
        f_a = 2.0 + math.sin(k / 7.0)
        wv = math.nan if k == 50 else 1.0 + k / n
        probs = [math.nan] * 4 if 90 <= k < 95 else [0.3, 0.2, 0.25, 0.25]
        eps_hat = 0.08 if math.isfinite(probs[0] + wv) else math.nan
        rows.append([k * 0.01, *probs, wv, wv, eps_hat, 1.0 / math.sqrt(f_a), f_a, 4.0 - f_a, 4.0])
    return np.array(rows).T.copy()


class SweepCheckTest(unittest.TestCase):
    def setUp(self):
        self.ref = synthetic_cells()
        self.versions = [check.SWEEP_FORMAT] * self.ref.shape[1]

    def problems(self, cells):
        return check.check_sweep(cells, self.versions[: cells.shape[1]], self.ref)

    def test_reference_output_passes(self):
        self.assertEqual(self.problems(self.ref.copy()), [])

    def test_perturbed_cell_is_rejected(self):
        cells, wv_a = self.ref.copy(), check._COL["wv_A"]
        cells[wv_a, 11] *= 1.0 + 1e-8
        self.assertEqual(self.problems(cells), [
            f"row 11 wv_A: {float(cells[wv_a, 11])!r} != reference {float(self.ref[wv_a, 11])!r}",
            "1 cells differ from the reference"])
        cells[wv_a, 11] = self.ref[wv_a, 11] * (1.0 + 1e-12)
        self.assertEqual(self.problems(cells), [])

    def test_emptied_cell_row_count_and_version_are_rejected(self):
        cells = self.ref.copy()
        cells[check._COL["eps_hat_A"], 10] = math.nan
        self.assertEqual(self.problems(cells),
                         ["empty cells of eps_hat_A differ from the reference, first at row 10"])
        self.assertEqual(self.problems(self.ref[:, :-1]), ["199 rows, reference has 200"])
        versions = list(self.versions)
        versions[3] = "sweep-2"
        self.assertEqual(len(check.check_sweep(self.ref, versions, self.ref)), 1)

    def test_csv_round_trip(self):
        lines = [",".join(check.SWEEP_COLUMNS)]
        for row in self.ref.T:
            lines.append(",".join("" if math.isnan(c) else f"{c:.12g}" for c in row) + ",sweep-1")
        cells, versions = check.parse_sweep("\n".join(lines) + "\n", "csv")
        self.assertEqual(check.check_sweep(cells, versions, self.ref), [])
        with self.assertRaises(ValueError):
            check.parse_sweep("\n".join(lines[:2] + [lines[2].replace("0.3", "nan", 1)]) + "\n", "csv")


class EnsembleCheckTest(unittest.TestCase):
    PARAMS = {"theta": 0.0, "epsilon": 0.08, "shots": 1_000_000, "replicas": 1000, "seed": 3}

    def payload(self, **changes):
        exp = check.ideal_gate_expectation(0.0, 0.08, 1_000_000)
        out = {"theta_deg": 0.0, "epsilon": 0.08, "model": "exact-ideal", "f": "A",
               "shots": 1_000_000, "replicas": 1000, "seed": 3, "mean_eps_hat": exp["mean"],
               "var_eps_hat": exp["var"], "n_replicas": 1000, "n_discarded": 0, "crb": exp["crb"]}
        out.update(changes)
        return out

    def problems(self, pinned=None, **changes):
        import json

        return check.check_ensemble(json.dumps(self.payload(**changes)), self.PARAMS, pinned)

    def test_expected_statistics_pass(self):
        self.assertEqual(self.problems(), [])
        self.assertEqual(self.problems(pinned=self.payload()), [])

    def test_pinned_mismatch_and_off_statistics_are_rejected(self):
        pinned = self.payload()
        self.assertEqual(len(self.problems(pinned, n_replicas=999, n_discarded=1)), 2)
        self.assertEqual(len(self.problems(pinned, var_eps_hat=pinned["var_eps_hat"] * (1 + 1e-9))), 1)
        self.assertEqual(len(self.problems(mean_eps_hat=0.08)), 1)
        self.assertEqual(len(self.problems(var_eps_hat=self.payload()["crb"] * 1.5)), 1)


class ImportTimeTest(unittest.TestCase):
    def test_cumulative_times(self):
        stderr = (
            "import time: self [us] | cumulative | imported package\n"
            "import time:      5816 |     265271 |         numpy\n"
            "import time:      9678 |     338177 |   weakmeas\n"
            "import time:     10038 |     356298 | weakmeas.cli\n"
        )
        self.assertEqual(run.import_times(stderr),
                         {"cli.import_numpy_s": 0.265271, "cli.import_weakmeas_s": 0.356298})



class SpeedFactorTest(unittest.TestCase):
    def test_each_interval_uses_the_probes_around_it(self):
        ref = run.PROBE_REF_S
        factors = run.speed_factors([ref, ref, 2 * ref, 3 * ref])
        self.assertEqual(len(factors), 3)
        self.assertAlmostEqual(factors[0], 1.0)
        self.assertAlmostEqual(factors[1], 2 / 3)
        self.assertAlmostEqual(factors[2], 2 / 5)


if __name__ == "__main__":
    unittest.main()
