"""Seeded count-level simulation and estimator-ensemble statistics.

Reproducibility contract: all randomness comes from numpy's Philox
(4x64) counter-based generator. A draw is addressed by a 128-bit key
composed of the user seed in the low 64 bits and a stream index in the
high 64 bits; distinct keys give independent streams by construction, and
the output is bit-stable across platforms and process layouts.
``sample_counts`` is numpy's own ``Generator`` draw on stream 0 and reads
nothing private to numpy. Replica r of ``run_ensemble`` uses stream
1 + r, so ensembles are reproducible bit-exactly from (base_seed,
parameters) regardless of execution order.

Replicas are drawn in blocks of consecutive streams, each through its
own bit generator, built once per ensemble: a copy of the Philox's
``bitgen_t`` (public, ``numpy/random/bitgen.h``) whose state is the
replica's row, a ``philox_state`` (private,
``numpy/random/src/philox/philox.h``, mapped as ``_PhiloxState``)
followed by the counter and key it points to. numpy column writes set
every row to the start of its stream before each block. Both layouts
are checked once per ensemble, or RuntimeError is raised. The counts are
the bits of ``Generator.multinomial`` and ``.poisson``, drawn by the C
functions these call, ``random_multinomial`` and ``random_poisson`` of
numpy's public ``numpy/random/distributions.h``; numpy's argument checks
run once, by one Generator draw on the full table. ``map`` drives a
block's C calls, each argument built once. Each block is estimated as
soon as it is drawn, so an ensemble holds one block of counts and one
float64 estimate per kept replica: the variance is taken in place.

An ensemble draws the cells in CELLS order up to the last one its
estimator reads. For f = A those are cells 0 and 1, (D, A) and (A, A):
a multinomial replica draws over [p_DA, p_AA, p_DD + p_AD], a Poisson
replica over [p_DA, p_AA]. For f = D, whose cells 2 and 3 follow them in
the stream, all four cells are drawn. The cells read keep the bits of
the four-cell draw: ``random_multinomial`` draws cell j as a binomial of
p_j / remaining_p over the events left, both set by the earlier cells
only, and Poisson cells are successive draws of one stream.
"""

from __future__ import annotations

import ctypes
import functools
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import TooManyDiscardedReplicas
from .estimation import cramer_rao_bound, estimate_epsilon
from .kernel import (COLUMN, GateParams, ModelTag, Outcome, angle_row, check_table, count,
                     moment_estimates)

#: Replicas with unusable counts may be discarded up to this fraction.
DISCARD_TOLERANCE = 0.01

#: Most replicas one ensemble may run. Each keeps one float64 estimate,
#: over which the variance is taken in place, so the bound holds an
#: ensemble to 80 MB.
MAX_REPLICAS = 10**7

#: Replicas drawn per block. An ensemble holds per row its Philox state,
#: counter and key (112 bytes), its ``bitgen_t`` (40) and a ctypes reference
#: to it (64), at most four int64 counts (32), and a reference to them (64,
#: multinomial) or two list slots per cell (64, Poisson): 312 KB a block.
_BLOCK_ROWS = 1024


def philox_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator over Philox4x64 keyed by (seed, stream); each must be an
    integer in [0, 2^64)."""
    seed, stream = count(seed), count(stream)
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < 1 << 64:
            raise ValueError(f"{name} must lie in [0, 2^64), got {value!r}")
    return np.random.Generator(np.random.Philox(key=seed | (stream << 64)))


@functools.cache
def _distributions():
    """(random_multinomial, random_poisson) from the module that holds
    numpy's Generator, which exports its C distribution functions.

    argtypes stay unset: callers build every argument once as an object
    that ctypes passes as it is, a ``byref`` or the ``from_param`` result
    of its C type, and drive the calls from ``map``, as converting an
    argument or a Python-level step per call costs about a draw. ``PyDLL``
    keeps the GIL over a call of about 0.2 us (releasing it cost 0.07 us a
    replica) and checks ``PyErr_Occurred``, which these never set.
    """
    lib = ctypes.PyDLL(np.random._generator.__file__)
    multinomial, poisson = lib.random_multinomial, lib.random_poisson
    multinomial.restype = None
    poisson.restype = ctypes.c_int64
    return multinomial, poisson


class _PhiloxState(ctypes.Structure):
    """``philox_state`` of numpy's private numpy/random/src/philox/philox.h,
    the struct at ``bits.ctypes.state_address`` that a Philox's draws read
    and advance: pointers to its counter (4 x uint64) and key
    (2 x uint64), then the buffered output block and cached 32-bit half."""

    _fields_ = [("ctr", ctypes.POINTER(ctypes.c_uint64 * 4)),
                ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
                ("buffer_pos", ctypes.c_int), ("buffer", ctypes.c_uint64 * 4),
                ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)]


class _Bitgen(ctypes.Structure):
    """``bitgen_t`` of numpy's public numpy/random/bitgen.h, at
    ``bits.ctypes.bit_generator``: a state, then the functions drawing from it."""

    _fields_ = [(name, ctypes.c_void_p)
                for name in ("state", "next_uint64", "next_uint32", "next_double", "next_raw")]


def _philox_words(bits: np.random.Philox, seed: int) -> None:
    """Check :class:`_PhiloxState` on ``bits``, a Philox keyed by (seed,
    some stream): rekeyed through it to stream 1, numpy's own
    ``bits.state`` must read back key [seed, 1], counter 0,
    ``buffer_pos`` 4 and ``has_uint32`` 0, or RuntimeError is raised."""
    state = _PhiloxState.from_address(bits.ctypes.state_address)
    state.key.contents[1], state.ctr.contents[0], state.buffer_pos = 1, 0, 4
    got = bits.state
    if (got["state"]["key"].tolist() != [seed, 1]
            or got["state"]["counter"].tolist() != [0, 0, 0, 0]
            or got["buffer_pos"] != 4 or got["has_uint32"] != 0):
        raise RuntimeError(
            f"numpy {np.__version__}: the Philox state does not have the "
            "philox_state layout of numpy/random/src/philox/philox.h that "
            "weakmeas.montecarlo draws through"
        )


def _bit_generators(bits: np.random.Philox, seed: int, rows: int):
    """(state, gens): ``rows`` :class:`_PhiloxState` rows keyed by seed,
    whose counter and key pointers point at their own ``counter`` and
    ``keys`` fields, and a ``byref`` to a copy of the ``bitgen_t`` of
    ``bits`` that draws from each. Both layouts are checked first, by
    :func:`_philox_words` and then on the ``bitgen_t`` words copied, which
    must read as ``bits.ctypes`` gives them, or RuntimeError is raised."""
    _philox_words(bits, seed)
    c, template = bits.ctypes, _Bitgen.from_address(bits.ctypes.bit_generator.value)
    fns = (c.next_uint64, c.next_uint32, c.next_double)
    if ([template.state, template.next_uint64, template.next_uint32, template.next_double]
            != [c.state_address, *(ctypes.cast(fn, ctypes.c_void_p).value for fn in fns)]):
        raise RuntimeError(
            f"numpy {np.__version__}: the Philox bit generator does not have "
            "the bitgen_t layout of numpy/random/bitgen.h that "
            "weakmeas.montecarlo copies"
        )
    size = ctypes.sizeof(_PhiloxState)
    fields = ("ctr", "key", "buffer_pos", "has_uint32", "uinteger")
    state = np.zeros(rows, np.dtype({
        "names": [*fields, "counter", "keys"], "itemsize": size + 48,
        "formats": [np.uintp, np.uintp, np.intc, np.intc, np.uint32, ("u8", 4), ("u8", 2)],
        "offsets": [getattr(_PhiloxState, f).offset for f in fields] + [size, size + 32]}))
    at = state.ctypes.data + state.itemsize * np.arange(rows, dtype=np.uintp)
    state["ctr"], state["key"], state["keys"][:, 0] = at + size, at + size + 32, seed
    gens = np.tile(np.frombuffer(template, np.dtype(_Bitgen)), rows)
    gens["state"] = at
    flat = (_Bitgen * rows).from_buffer(gens)  # kept by each byref
    return state, [ctypes.byref(flat, gens.itemsize * k) for k in range(rows)]


def _checked_shots(n: int, mode: str) -> int:
    """n as an int, checked with ``mode`` before any draw: n must lie in
    [1, 2^63), the range of the generator's counts, and ``mode`` is
    ``multinomial`` (exactly n events over the four cells) or ``poisson``
    (each cell independently with mean n * p, as for rate-based
    counting)."""
    n = count(n)
    if not 1 <= n < 1 << 63:
        raise ValueError(f"shots must lie in [1, 2^63), got {n!r}")
    if mode not in ("multinomial", "poisson"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    return n


def sample_counts(
    p: np.ndarray,
    n: int,
    seed: int,
    mode: str = "multinomial",
) -> np.ndarray:
    """Coincidence counts int64[4] in CELLS order drawn from the joint
    table p[4] in ``mode`` (see :func:`_checked_shots`) on stream
    (seed, 0); in ``poisson`` mode their sum is the realized total.
    Identical (seed, inputs) give bit-identical counts.
    """
    pvec = check_table(p)
    n = _checked_shots(n, mode)
    pvec = pvec / pvec.sum()
    gen = philox_generator(seed)
    return gen.poisson(n * pvec) if mode == "poisson" else gen.multinomial(n, pvec)


@dataclass(frozen=True)
class EnsembleStats:
    """Mean and variance of the estimator over replicas, with ``crb`` for
    comparison: the first-order Cramer-Rao bound of the post-selected
    strategy at eps = 0, 1 / (n F_f) with F_f = 4 p(f) wv^2 the ``F_f``
    column of the kernel row the ensemble draws from (see
    :func:`run_ensemble`), the same for every model and gate. At finite
    eps the sample variance can read below it: var/crb is 0.649 on the
    linear model at theta 60 and eps 0.08."""

    mean_eps_hat: float
    var_eps_hat: float
    n_replicas: int
    crb: float
    n_discarded: int = 0


def run_ensemble(
    theta: float,
    eps_true: float,
    model: ModelTag | str,
    n_per_replica: int,
    n_replicas: int,
    base_seed: int,
    f: Outcome | str = Outcome.A,
    gate_params: GateParams | None = None,
    mode: str = "multinomial",
) -> EnsembleStats:
    """Repeatedly sample counts, estimate eps from the chosen post-selected
    column, and report the empirical variance beside ``crb``, the
    first-order bound at eps = 0 (see :class:`EnsembleStats`).

    The table p, the reference weak value ``wv_f`` and ``F_f`` are read
    from one row of the kernel, ``sweep_columns([theta], ...)`` with the
    post-selection ``analyzer_basis(270)``. Before any draw
    ``angle_row(..., f=f)`` refuses the row (table status, then 4,
    ``wv_f`` undefined) and ``estimate_epsilon`` of its (D, f) and (A, f)
    cells the estimate (9, p(f) = 0, then 8, a reference below the
    floor). The bound, ``cramer_rao_bound(F_f, n_per_replica, f)``, does
    not depend on eps_true, the model or the gate. Replicas with a zero
    count in either (D, f) or (A, f) cell are discarded, not imputed; if
    more than DISCARD_TOLERANCE of the replicas are lost,
    TooManyDiscardedReplicas is raised. The estimates are
    :func:`weakmeas.kernel.moment_estimates` of the kept counts, each bit
    for bit its replica's ``estimate_epsilon(n_d, n_a, wv_ref, f=f)[0]``.
    """
    f = Outcome(f)
    n_replicas = count(n_replicas)
    if n_replicas < 2:
        raise ValueError("need at least two replicas")
    if n_replicas > MAX_REPLICAS:
        raise ValueError(f"replicas must not exceed {MAX_REPLICAS}, got {n_replicas}")
    n_per_replica = _checked_shots(n_per_replica, mode)
    p, row = angle_row(theta, eps_true, model, gate_params, f=f)
    pvec = p / p.sum()  # the model has checked its table
    wv_ref = row[f"wv_{f.value}"]
    estimate_epsilon(*p[list(COLUMN[f])], wv_ref, f=f)
    crb = cramer_rao_bound(row[f"F_{f.value}"], n_per_replica, f)

    # the kept estimates in replica order; their mean and variance sum
    # them as one array would
    estimates = np.empty(n_replicas)
    kept = 0
    for n_d, n_a in _replica_counts(mode, n_per_replica, base_seed, pvec, COLUMN[f], n_replicas):
        usable = (n_d != 0) & (n_a != 0)
        block = moment_estimates(n_d[usable], n_a[usable], wv_ref)[0]
        estimates[kept:kept + len(block)] = block
        kept += len(block)
    arr = estimates[:kept]
    discarded = n_replicas - kept
    if discarded > DISCARD_TOLERANCE * n_replicas:
        raise TooManyDiscardedReplicas(
            f"{discarded} of {n_replicas} replicas had a zero count in the "
            f"f={f.value} column"
        )
    # the steps of arr.mean() and arr.var(ddof=1), with the deviations
    # taken in place of a second kept-length temporary; at least two
    # replicas are kept, as DISCARD_TOLERANCE < 0.5 and n_replicas >= 2
    n = len(arr)
    mean = np.add.reduce(arr) / n
    np.subtract(arr, mean, out=arr)
    np.square(arr, out=arr)
    return EnsembleStats(
        mean_eps_hat=float(mean),
        var_eps_hat=float(np.add.reduce(arr) / (n - 1)),
        n_replicas=n,
        crb=crb,
        n_discarded=discarded,
    )


def _replica_counts(mode: str, n: int, seed: int, pvec: np.ndarray, cols: tuple[int, int],
                    n_replicas: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The counts in cells ``cols`` = (i, j) of CELLS of replicas
    0 .. n_replicas - 1, yielded as int64 arrays (n_i, n_j) block by
    block: row k of the block from replica ``first`` holds what
    ``philox_generator(seed, 1 + first + k).multinomial(n, pvec)`` (or
    ``.poisson(n * pvec)``) returns in those cells. n and ``mode`` are
    checked by the caller (:func:`_checked_shots`); numpy's checks of n
    and pvec, by one Generator draw on all of pvec, and both layout
    checks run when the first block is asked for, before any C draw.
    Only the cells up to the last of ``cols`` are drawn (see the module
    docstring), in multinomial mode with the rest summed into one last
    cell, not rescaled, as ``random_multinomial`` never reads its
    probability.
    """
    gen = philox_generator(seed)
    if mode == "poisson":
        lam = n * pvec
        gen.poisson(lam)
    else:
        gen.multinomial(n, pvec)
    state, gen_refs = _bit_generators(gen.bit_generator, seed, min(_BLOCK_ROWS, n_replicas))
    multinomial, poisson = _distributions()
    read = max(cols) + 1
    if mode == "poisson":
        lams = [ctypes.c_double.from_param(x) for x in lam.tolist()[:read]]
        cells = len(lams)
        # a block's calls, replica by replica and cell by cell
        cell_gens, cell_lams = [g for g in gen_refs for _ in lams], lams * len(gen_refs)
    else:
        values = pvec.tolist()
        if read < len(values) - 1:
            values = values[:read] + [sum(values[read:])]
        cells = len(values)
        # a ctypes array with its own copy of the values, kept by the byref
        pix = ctypes.byref((ctypes.c_double * cells)(*values))
        n_arg, cells_arg = ctypes.c_int64.from_param(n), ctypes.c_ssize_t.from_param(cells)
        # random_binomial's cache, numpy's private binomial_t (136 bytes in
        # numpy 1.24 to 2.4), never read here: zeroed, with room to grow
        cache = ctypes.byref(ctypes.create_string_buffer(1024))
        # one block of counts, drawn into for every block, and its rows
        out = np.empty((len(state), cells), dtype=np.int64)
        flat = (ctypes.c_int64 * out.size).from_buffer(out)
        rows_at = [ctypes.byref(flat, 8 * cells * k) for k in range(len(out))]

    for first in range(0, n_replicas, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n_replicas - first)
        # each row at the start of its replica's stream 1 + first + k
        state["keys"][:, 1] = first + np.arange(1, 1 + len(state), dtype=np.uint64)
        state["counter"] = state["has_uint32"] = state["uinteger"] = 0
        state["buffer_pos"] = 4
        if mode == "poisson":
            counts = np.fromiter(map(poisson, cell_gens, cell_lams), np.int64,
                                 rows * cells).reshape(rows, cells)
        else:
            counts = out[:rows]
            # zeroed: the C loop stops once all n events are placed and
            # leaves the later cells as they were
            counts.fill(0)
            deque(map(multinomial, gen_refs[:rows], repeat(n_arg), rows_at, repeat(pix),
                      repeat(cells_arg), repeat(cache)), maxlen=0)
        # copies: the next multinomial block is drawn into out again
        yield counts[:, cols[0]].copy(), counts[:, cols[1]].copy()
