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

An ensemble serves all its replicas from one Philox generator. Before
each draw it is rekeyed to the start of the replica's stream by three
writes into its C state, numpy's ``philox_state``
(``numpy/random/src/philox/philox.h``, mapped here as ``_PhiloxState``):
the high key word, the counter and ``buffer_pos``, which empties the
output buffer. That layout is private to numpy, so it is checked once
per ensemble: after one rekey, numpy's own ``bits.state`` must read back
the key, a zero counter and an empty buffer, or RuntimeError is raised.
The counts are drawn by ``random_multinomial`` and ``random_poisson``,
the functions of numpy's C distribution API
(``numpy/random/distributions.h``) that ``Generator.multinomial`` and
``Generator.poisson`` call, so they are the bits those methods return,
without their per-call argument checks. numpy's checks run once per
ensemble, by one Generator draw on the full table before the first.
Replicas are drawn in blocks of consecutive streams into one block of
counts per ensemble, reused from block to block: each row of counts is
written by the C function straight into it, zeroed before each
multinomial block, and every argument of the C call is built once. Each
block is estimated as soon as it is drawn, from copies of its two read
columns, so an ensemble holds one block of counts and one float64
estimate per kept replica, 8 bytes a replica: the variance is taken in
place over the estimates.

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
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import TooManyDiscardedReplicas
from .estimation import cramer_rao_bound, estimate_epsilon
from .kernel import COLUMN, GateParams, ModelTag, Outcome, angle_row, check_table, moment_estimates

#: Replicas with unusable counts may be discarded up to this fraction.
DISCARD_TOLERANCE = 0.01

#: Most replicas one ensemble may run. Each keeps one float64 estimate,
#: over which the variance is taken in place, so the bound holds an
#: ensemble to 80 MB.
MAX_REPLICAS = 10**7

#: Replicas drawn per block of counts: 1,024 rows of at most four int64
#: counts take 32 KB, and the ctypes reference to each row made once for
#: the multinomial draw about 72 KB more.
_BLOCK_ROWS = 1024


def philox_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator over Philox4x64 keyed by (seed, stream); each must be an
    integer in [0, 2^64)."""
    seed, stream = operator.index(seed), operator.index(stream)
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
    of its C type, because converting arguments through argtypes, or
    wrapping a ctypes object or int, on each call costs about as much as
    the draw itself.

    The library is loaded as ``PyDLL``, so a call keeps the GIL: a draw
    takes about 0.2 us, and releasing and re-acquiring the GIL around it,
    as ``CDLL`` does, cost a replica 0.07 us (multinomial) and a Poisson
    replica's four calls 0.2 us. ``PyDLL`` checks ``PyErr_Occurred``
    after each call, which these functions never set.
    """
    lib = ctypes.PyDLL(np.random._generator.__file__)
    multinomial, poisson = lib.random_multinomial, lib.random_poisson
    multinomial.restype = None
    poisson.restype = ctypes.c_int64
    return multinomial, poisson


class _PhiloxState(ctypes.Structure):
    """``philox_state`` of numpy/random/src/philox/philox.h, the struct
    at ``bits.ctypes.state_address`` that a Philox bit generator's draws
    read and advance: pointers to its counter (4 x uint64) and key
    (2 x uint64), then the buffered output block and the cached 32-bit
    half."""

    _fields_ = [("ctr", ctypes.POINTER(ctypes.c_uint64 * 4)),
                ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
                ("buffer_pos", ctypes.c_int), ("buffer", ctypes.c_uint64 * 4),
                ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)]


def _philox_words(bits: np.random.Philox, seed: int):
    """The state struct of ``bits``, a Philox keyed by (seed, some
    stream), mapped as :class:`_PhiloxState`, with its counter and key
    words: (state, counter, key).

    Rekeying through them takes three writes: ``key[1] = stream``,
    ``counter[0] = 0`` and ``state.buffer_pos = 4`` (the buffer is
    empty). The draws of one stream advance only the counter's low word
    (a carry needs 2^64 blocks), and no draw of ours reads a 32-bit
    half, so the result is the start of stream (seed, stream). The
    mapping is checked here once: after a rekey to stream 1, numpy's
    own ``bits.state`` must read back key [seed, 1], counter 0,
    ``buffer_pos`` 4 and ``has_uint32`` 0, or RuntimeError is raised.
    """
    state = _PhiloxState.from_address(bits.ctypes.state_address)
    # the struct and the words it points to live in bits
    state.bits = bits
    counter, key = state.ctr.contents, state.key.contents
    key[1] = 1
    counter[0] = 0
    state.buffer_pos = 4
    got = bits.state
    if (got["state"]["key"].tolist() != [seed, 1]
            or got["state"]["counter"].tolist() != [0, 0, 0, 0]
            or got["buffer_pos"] != 4 or got["has_uint32"] != 0):
        raise RuntimeError(
            f"numpy {np.__version__}: the Philox state does not have the "
            "philox_state layout of numpy/random/src/philox/philox.h that "
            "weakmeas.montecarlo rekeys through"
        )
    return state, counter, key


def _checked_shots(n: int, mode: str) -> int:
    """n as an int, checked with ``mode`` before any draw: n must lie in
    [1, 2^63), the range of the generator's counts, and ``mode`` is
    ``multinomial`` (exactly n events over the four cells) or ``poisson``
    (each cell independently with mean n * p, as for rate-based
    counting)."""
    n = operator.index(n)
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
    floor). The bound is ``cramer_rao_bound(F_f, n, f)``, 1 / (n F_f)
    with n = n_per_replica total trials and F_f = 4 p(f) wv^2, the per-f
    Fisher contribution at eps = 0 (equivalently, 4 wv^2 with the expected
    number of post-selected events); it does not depend on eps_true, the
    model or the gate. Replicas with a zero count in either (D, f) or
    (A, f) cell are discarded, not imputed; if more than DISCARD_TOLERANCE
    of the replicas are lost, TooManyDiscardedReplicas is raised. The
    estimates are :func:`weakmeas.kernel.moment_estimates` of the kept
    counts, each bit for bit its replica's
    ``estimate_epsilon(n_d, n_a, wv_ref, f=f)[0]``.
    """
    f = Outcome(f)
    n_replicas = operator.index(n_replicas)
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
    0 .. n_replicas - 1, yielded block by block as each block of up to
    ``_BLOCK_ROWS`` consecutive replicas is drawn: int64 arrays
    (n_i, n_j), copies that the next block leaves as they are, although
    every block is drawn into the same memory. Row k of the block from
    replica ``first`` holds
    what ``philox_generator(seed, 1 + first + k).multinomial(n, pvec)``
    (or ``.poisson(n * pvec)``) would return in those cells. n and
    ``mode`` are checked by the caller (:func:`_checked_shots`).

    One generator runs numpy's checks of n and pvec by one Generator draw
    and the check of the Philox state layout (:func:`_philox_words`),
    both when the first block is asked for, before any replica is drawn.
    Only the cells up to the last of ``cols`` are drawn (see the module
    docstring): a Poisson replica draws over those cells of pvec, a
    multinomial one over them followed by the sum of the rest, not
    rescaled, since the last cell takes the events left over and
    ``random_multinomial`` never reads its probability. The check draw
    runs on pvec, which holds every value the C draw reads, so a table
    is refused as it is for a full draw.
    """
    gen = philox_generator(seed)
    if mode == "poisson":
        lam = n * pvec
        gen.poisson(lam)
    else:
        gen.multinomial(n, pvec)
    bits = gen.bit_generator
    state, counter, key = _philox_words(bits, seed)
    # every argument of the C calls is built once (see _distributions).
    # The bit generator lives in bits, which state holds.
    bitgen = ctypes.byref(ctypes.c_char.from_address(bits.ctypes.bit_generator.value))
    multinomial, poisson = _distributions()
    read = max(cols) + 1
    if mode == "poisson":
        lams = [ctypes.c_double.from_param(x) for x in lam.tolist()[:read]]
        cells = len(lams)
    else:
        values = pvec.tolist()
        if read < len(values) - 1:
            values = values[:read] + [sum(values[read:])]
        cells = len(values)
        # a ctypes array with its own copy of the values, kept by the byref
        pix = ctypes.byref((ctypes.c_double * cells)(*values))
        n_arg, cells_arg = ctypes.c_int64.from_param(n), ctypes.c_ssize_t.from_param(cells)
        # random_binomial's cache of its last (n, p), numpy's private
        # binomial_t (136 bytes in numpy 1.24 to 2.4), which weakmeas never
        # reads: zeroed memory of at least its size, with room to grow
        cache = ctypes.byref(ctypes.create_string_buffer(1024))
    # one block of counts, drawn into again for every block of replicas
    out = np.empty((min(_BLOCK_ROWS, n_replicas), cells), dtype=np.int64)
    flat = (ctypes.c_int64 * out.size).from_buffer(out)
    if mode != "poisson":
        # where the C function writes each row's counts
        rows_at = [ctypes.byref(flat, 8 * cells * k) for k in range(len(out))]

    for first in range(0, n_replicas, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n_replicas - first)
        streams = range(1 + first, 1 + first + rows)
        if mode == "poisson":
            i = 0
            for stream in streams:
                key[1] = stream
                counter[0] = 0
                state.buffer_pos = 4
                for x in lams:
                    flat[i] = poisson(bitgen, x)
                    i += 1
        else:
            # zeroed: the C loop stops once all n events are placed and
            # leaves the later cells as they were
            out.fill(0)
            for stream, at in zip(streams, rows_at):
                key[1] = stream
                counter[0] = 0
                state.buffer_pos = 4
                multinomial(bitgen, n_arg, at, pix, cells_arg, cache)
        # copies: the next block is drawn into the same memory
        yield out[:rows, cols[0]].copy(), out[:rows, cols[1]].copy()
