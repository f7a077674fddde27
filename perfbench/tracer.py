"""In-process tracer for the per-layer numbers, and the child process that
runs one workload operation through ``weakmeas.cli.main`` in process.

The tracer works from outside the package: it replaces the functions
that ``weakmeas.cli`` and ``weakmeas.montecarlo`` look up in their own
module namespaces with wrappers that record a span per call. A span has
a name, a start, an end and the index of the span that was open when it
began, its parent. Spans stay in memory, in flat arrays, until the run
ends. A layer's self time is the duration of its spans minus the part
covered by their child spans, so the time of a helper a layer calls
without going through a wrapped name counts toward that layer.

    python3 perfbench/tracer.py --workload NAME --seed N --out-dir DIR --mode plain|traced

prints one JSON object: the wall time of ``cli.main`` and, when traced,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: Names wrapped in each module's namespace. The layer of a wrapped name
#: is the module that defines it. Names that no longer exist are
#: reported and skipped, so functions can be removed without breaking
#: the traced run.
WRAPPED = {
    "weakmeas.cli": (
        "linear_pol_state", "stokes_hv", "weak_value", "fisher_information",
        "estimate_epsilon", "extract_weak_value", "cramer_rao_bound",
        "model_distribution", "run_ensemble", "ConditionalPair.from_joint",
    ),
    "weakmeas.montecarlo": (
        "linear_pol_state", "diag_states", "stokes_hv", "weak_value",
        "joint_probabilities_linear", "exact_joint_probabilities",
        "fisher_information", "cramer_rao_bound", "estimate_epsilon",
        "ConditionalPair.from_counts",
    ),
}

#: Generator factories: construction and each draw from the returned
#: generator are timed as RNG spans. Generator state set up without
#: going through a factory (for example by rekeying one Philox) is not
#: seen, and its time counts toward the calling layer.
RNG_FACTORIES = {"weakmeas.montecarlo": ("philox_generator",)}
_DRAWS = ("multinomial",)

LAYERS = ("qstate", "weakmodel", "gatesim", "estimation", "montecarlo", "cli")


class SpanStore:
    """Spans of one run, kept in flat arrays."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.error.append(0)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self.clock())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.error[idx] = 1
            raise
        finally:
            self.end[idx] = self.clock()
            self._open.pop()

    def self_times(self):
        """Per span: its duration minus the durations of its children."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur, dur - covered

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=float), end=np.frombuffer(self.end, dtype=float),
                 error=np.frombuffer(self.error, dtype=np.int8))


def _layer(obj) -> str:
    return getattr(obj, "__module__", "").rpartition(".")[2]


def _resolve(module, dotted: str):
    """(owner, attribute, value) for ``Class.attr`` or ``attr``; None when missing."""
    owner_path, _, attr = dotted.rpartition(".")
    owner = getattr(module, owner_path, None) if owner_path else module
    value = getattr(owner, attr, None) if owner is not None else None
    if not callable(value):
        return None
    return owner, attr, value


class _TimedGenerator:
    """Forwards to a numpy Generator, timing each draw as an RNG span."""

    def __init__(self, store: SpanStore, gen):
        self._store, self._gen = store, gen

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name not in _DRAWS:
            return attr
        return lambda *a, **k: self._store.call("rng.draw", attr, *a, **k)


def install(store: SpanStore, wrapped=WRAPPED, rng_factories=RNG_FACTORIES):
    """Wrap the listed names. Returns (restore, skipped): a callable that
    puts the originals back, and the names that were not found."""
    undo, skipped = [], []

    def patch(module_name, dotted, make_wrapper):
        module = importlib.import_module(module_name)
        found = _resolve(module, dotted)
        if found is None:
            skipped.append(f"{module_name}:{dotted}")
            return
        owner, attr, original = found
        raw = vars(owner)[attr] if isinstance(owner, type) else original
        wrapper = make_wrapper(original)
        setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
        undo.append((owner, attr, raw))

    def span_wrapper(original):
        name = f"{_layer(original)}.{original.__name__}"
        return lambda *a, **k: store.call(name, original, *a, **k)

    def rng_wrapper(original):
        return lambda *a, **k: _TimedGenerator(store, store.call("rng.construct", original, *a, **k))

    for module_name, names in wrapped.items():
        for dotted in names:
            patch(module_name, dotted, span_wrapper)
    for module_name, names in rng_factories.items():
        for dotted in names:
            patch(module_name, dotted, rng_wrapper)

    def restore():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore, skipped


def _percentile_us(values, q: float) -> float:
    return float(np.percentile(values, q) * 1e6) if len(values) else 0.0


def layer_metrics(store: SpanStore) -> dict[str, float]:
    """Per-layer counts and times from the spans of one traced operation.

    ``call_us_*`` are percentiles of the inclusive duration of a call into
    the layer; ``self_s`` sums self times, so nested layers are not
    counted twice.
    """
    dur, self_t = store.self_times()
    ids = np.frombuffer(store.name_id, dtype=np.int32)
    known = store.names + ["-"]
    span_names = np.array(known)[ids]
    span_layers = np.array([n.partition(".")[0] for n in known])[ids]
    errors = np.frombuffer(store.error, dtype=np.int8).astype(bool)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        mask = span_layers == layer
        metrics[f"{layer}.calls"] = int(mask.sum())
        metrics[f"{layer}.self_s"] = float(self_t[mask].sum())
        metrics[f"{layer}.call_us_p50"] = _percentile_us(dur[mask], 50)
        metrics[f"{layer}.call_us_p99"] = _percentile_us(dur[mask], 99)
        metrics[f"{layer}.errors"] = int(errors[mask].sum())
    # rng_s holds generator construction and draws; the percentiles are
    # those of single draws.
    draws = dur[span_names == "rng.draw"]
    metrics["montecarlo.rng_calls"] = len(draws)
    metrics["montecarlo.rng_s"] = float(self_t[span_layers == "rng"].sum())
    metrics["montecarlo.rng_us_p50"] = _percentile_us(draws, 50)
    metrics["montecarlo.rng_us_p99"] = _percentile_us(draws, 99)
    return metrics


def run_once(argv: list[str], traced: bool, spans_path: Path | None = None) -> dict:
    """Run ``cli.main(argv)`` in this process, capturing its stdout."""
    from weakmeas import cli

    store = SpanStore()
    skipped: list[str] = []
    if traced:
        _, skipped = install(store)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = store.call("cli.main", cli.main, argv) if traced else cli.main(argv)
        wall = time.perf_counter() - t0
    report = {"rc": rc, "wall_s": wall, "stdout": buf.getvalue()}
    if traced:
        report.update(metrics=layer_metrics(store), skipped=skipped)
        if spans_path is not None:
            store.save(spans_path)
    return report


def main() -> int:
    from workloads import WORKLOADS, output_file

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    out = output_file(args.out_dir, workload, args.mode)
    report = run_once(workload.argv(args.seed, str(out)), args.mode == "traced",
                      args.out_dir / f"{args.workload}.spans.npz")
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
