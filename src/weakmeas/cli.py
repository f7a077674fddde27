"""Command-line front end.

Subcommands: probs, sweep, weakvalue, fisher, estimate, montecarlo.
Angles are accepted in degrees only. CSV output is UTF-8 with a header
row, comma separators, LF line endings and floats printed with 12
significant digits; undefined cells are emitted as empty fields. JSON
output is a single object or array with stable key order. Identical
invocations produce identical bytes.

A sweep is computed and written one block of grid rows at a time: the
kernel's columns of one block, the text of one % chunk of it, and the
theta grid, 8 bytes a row, are all it holds. The first block is computed
before any file is created, so a refusal leaves no file. The rows go to
a temporary file beside ``--out`` that replaces it once it is whole, so
a sweep that fails later leaves the file at ``--out`` as it was; a
symlink, /dev/stdout or a FIFO is written in place. The bytes are those
of the output contract above: each CSV cell as ``f"{x:.12g}"``, the JSON
as ``json.dumps(indent=2)`` of the whole file, an undefined cell empty
or null. The kernel is elementwise, so they do not depend on the block
size.

Every command loads numpy, ``args``, ``errors`` and ``kernel``;
``estimation``, ``montecarlo`` and ``json`` are imported inside the
commands that use them. ``__main__`` parses the command line with
``args``, which loads no numpy, before it imports this module.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import stat
import sys
import tempfile
from typing import Sequence

import numpy as np

from .args import IO_EXIT_CODE, build_parser
from .errors import WeakMeasError
from .kernel import (
    COLUMN, COMPENSATED_PPBS, GateParams, ModelTag, Outcome, analyzer_basis, fisher_information,
    linear_states, model_distribution, sweep_columns, weak_value,
)

SWEEP_FORMAT_VERSION = "sweep-1"

SWEEP_COLUMNS = (
    "theta_deg",
    "p_DA",
    "p_AA",
    "p_DD",
    "p_AD",
    "wv_A",
    "wv_D",
    "eps_hat_A",
    "sigma_rel_A",
    "F_A",
    "F_D",
    "F_total",
    "format_version",
)

def _gate_params(args) -> GateParams | None:
    if args.model != "exact-ppbs":
        given = [f"--{n}" for n in ("tv", "th", "ah") if getattr(args, n) is not None]
        if given:
            raise ValueError(f"{'/'.join(given)} apply only to --model exact-ppbs")
        return None
    t_v = args.tv if args.tv is not None else COMPENSATED_PPBS.t_v
    t_h = args.th if args.th is not None else COMPENSATED_PPBS.t_h
    a_h = args.ah if args.ah is not None else COMPENSATED_PPBS.a_h
    return GateParams(t_h=t_h, t_v=t_v, a_h=a_h)


def _print_json(payload: dict) -> None:
    import json

    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def cmd_probs(args) -> int:
    p_da, p_aa, p_dd, p_ad = model_distribution(
        args.theta, args.epsilon, args.model, _gate_params(args), args.postselect
    ).tolist()
    payload = {
        "theta_deg": args.theta,
        "epsilon": args.epsilon,
        "model": args.model,
        "p_DA": p_da,
        "p_AA": p_aa,
        "p_DD": p_dd,
        "p_AD": p_ad,
    }
    if args.format == "json":
        _print_json(payload)
    else:
        keys = ("p_DA", "p_AA", "p_DD", "p_AD")
        sys.stdout.write(",".join(keys) + "\n")
        sys.stdout.write(",".join("%.12g" % payload[k] for k in keys) + "\n")
    return 0


#: Most rows a sweep may have, about 28 times the 36,000 rows of a sweep
#: over the circle at 0.01 deg. A sweep holds the grid, 8 bytes a row, and
#: one block of rows: at this bound it peaks at about 40 MB of process RSS.
MAX_SWEEP_ROWS = 10**6


def _theta_grid(start: float, stop: float, step: float) -> np.ndarray:
    """start + k * step for k = 0, 1, ... while the angle does not exceed
    stop by more than 1e-9. A grid of more than MAX_SWEEP_ROWS rows is
    refused before it is allocated."""
    if step <= 0:
        raise ValueError("--theta-step must be positive")
    if start > stop:
        raise ValueError("--theta-start must not exceed --theta-stop")
    limit = stop + 1e-9
    rows = (limit - start) // step + 1
    if not rows <= MAX_SWEEP_ROWS:  # also NaN, from an infinite span
        raise ValueError(
            f"--theta-start/--theta-stop/--theta-step give more than {MAX_SWEEP_ROWS} rows"
        )
    # in place, in one array: the bits of start + k * step
    theta = np.arange(int(rows) + 1, dtype=float)
    theta *= step
    theta += start
    return theta[:np.searchsorted(theta, limit, "right")]


#: Grid rows the kernel computes per sweep_columns call of a sweep. A
#: call has a fixed cost, which smaller blocks pay more often: an 8-row
#: call takes about 0.16 ms (linear) to 0.29 ms (exact PPBS), the fastest
#: of 1,000 calls on one core of a Xeon server with numpy 2.4.
_KERNEL_ROWS = 1024

#: Rows formatted by one % call of the sweep writer. The writer holds the
#: text of one chunk at a time, whatever the size of the grid.
_BLOCK_ROWS = 256

_NUMERIC_COLUMNS = SWEEP_COLUMNS[:-1]

#: A CSV row: '%.12g' % x is f"{x:.12g}".
_CSV_ROW = ",".join(["%.12g"] * len(_NUMERIC_COLUMNS) + [SWEEP_FORMAT_VERSION])

#: A row as json.dumps(indent=2) prints it inside the rows array: json
#: prints a finite float as its repr.
_JSON_ROW = (
    "    {\n"
    + "".join(f'      "{c}": %r,\n' for c in _NUMERIC_COLUMNS)
    + f'      "format_version": "{SWEEP_FORMAT_VERSION}"\n    }}'
)


def _write_rows(handle, blocks, row: str, sep: str, words: tuple[tuple[str, str], ...]) -> None:
    """Write the numeric columns of each block of rows in turn as
    ``row % cells`` per row, rows separated by ``sep``, _BLOCK_ROWS rows
    per % call. % prints NaN and the infinities as nan, inf and -inf,
    which ``words`` rewrites in the text; no column name, version token or
    finite float contains them."""
    lead = ""
    for columns in blocks:
        cols = [columns[c] for c in _NUMERIC_COLUMNS]
        for start in range(0, len(cols[0]), _BLOCK_ROWS):
            chunk = np.column_stack([col[start:start + _BLOCK_ROWS] for col in cols])
            text = sep.join([row] * len(chunk)) % tuple(chunk.ravel().tolist())
            for word, printed in words:
                text = text.replace(word, printed)
            handle.write(lead + text)
            lead = sep


@contextlib.contextmanager
def _sweep_file(path: str):
    """A text handle for the sweep file at ``path``. A regular file, or a
    path where there is none, is written as a temporary file in the same
    directory, which replaces ``path`` after the last write with the mode
    of the file it replaces, or 0o666 less the umask. On an error the
    temporary file is removed and ``path`` keeps what it held. Anything
    else, such as a symlink, /dev/stdout or a FIFO, is written in place."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        return
    if mode is None:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory, name = os.path.split(path)
    try:
        fd, temp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory or ".")
    except OSError as exc:  # name the caller's path, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    os.close(fd)
    try:
        os.chmod(temp, stat.S_IMODE(mode))
        with open(temp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


def cmd_sweep(args) -> int:
    theta = _theta_grid(args.theta_start, args.theta_stop, args.theta_step)
    model, gate_params = ModelTag.parse(args.model), _gate_params(args)
    blocks = (
        sweep_columns(theta[i:i + _KERNEL_ROWS], args.epsilon, model, gate_params, args.postselect)
        for i in range(0, len(theta), _KERNEL_ROWS)
    )
    # the first block (a grid has at least one row) runs the kernel's
    # whole-call checks, the coupling guard, the probe and the basis,
    # before any file is created
    blocks = itertools.chain([next(blocks)], blocks)
    with _sweep_file(args.out) as handle:
        if args.format == "csv":
            handle.write(",".join(SWEEP_COLUMNS) + "\n")
            _write_rows(handle, blocks, _CSV_ROW, "\n", (("nan", ""),))
            handle.write("\n")
        else:
            # json.dumps(indent=2) of {"format": ..., "rows": [...]}
            handle.write(f'{{\n  "format": "{SWEEP_FORMAT_VERSION}",\n  "rows": [\n')
            _write_rows(handle, blocks, _JSON_ROW, ",\n", (("nan", "null"), ("inf", "Infinity")))
            handle.write("\n  ]\n}\n")
    return 0


def cmd_weakvalue(args) -> int:
    from .estimation import extract_weak_value

    psi = linear_states(args.theta)
    basis = analyzer_basis(args.postselect)
    analytic = weak_value(psi, basis[1]).real
    p_eps, p_zero = (model_distribution(args.theta, eps, ModelTag.LINEAR, None, args.postselect)
                     for eps in (args.eps_probe, 0.0))
    finite_diff = extract_weak_value(p_eps, p_zero, Outcome.A, args.eps_probe)
    _print_json(
        {
            "theta_deg": args.theta,
            "postselect_deg": args.postselect,
            "eps_probe": args.eps_probe,
            "wv_analytic": analytic,
            "wv_finite_difference": finite_diff,
        }
    )
    return 0


def cmd_fisher(args) -> int:
    from .estimation import cramer_rao_bound

    f_d, f_a = fisher_information(linear_states(args.theta), args.postselect).tolist()
    payload = {
        "theta_deg": args.theta,
        "postselect_deg": args.postselect,
        "F_A": f_a,
        "F_D": f_d,
        "F_total": f_d + f_a,
    }
    if args.shots is not None:
        payload["crb_total"] = cramer_rao_bound(f_d + f_a, args.shots)
        payload["crb_A"] = cramer_rao_bound(f_a, args.shots, Outcome.A)
    _print_json(payload)
    return 0


def cmd_estimate(args) -> int:
    from .estimation import estimate_epsilon

    psi = linear_states(args.theta)
    p = model_distribution(args.theta, args.epsilon, args.model, _gate_params(args), args.postselect)
    wv_ref = weak_value(psi, analyzer_basis(args.postselect)[1]).real
    w_d, w_a = (p[i].item() for i in COLUMN[Outcome.A])
    # the expected number of post-selected events among the shots
    n_events = None if args.shots is None else args.shots * (w_d + w_a)
    eps_hat, sigma = estimate_epsilon(w_d, w_a, wv_ref, n_events, f=Outcome.A)
    payload = {
        "theta_deg": args.theta,
        "epsilon_set": args.epsilon,
        "model": args.model,
        "f": "A",
        "wv_reference": wv_ref,
        "eps_hat": eps_hat,
    }
    if sigma is not None:
        payload["sigma_eps"] = sigma
    _print_json(payload)
    return 0


def cmd_montecarlo(args) -> int:
    from .montecarlo import run_ensemble

    stats = run_ensemble(
        args.theta,
        args.epsilon,
        ModelTag.parse(args.model),
        n_per_replica=args.shots,
        n_replicas=args.replicas,
        base_seed=args.seed,
        f=args.f,
        gate_params=_gate_params(args),
        mode=args.mode,
    )
    _print_json(
        {
            "theta_deg": args.theta,
            "epsilon": args.epsilon,
            "model": args.model,
            "f": args.f,
            "shots": args.shots,
            "replicas": args.replicas,
            "seed": args.seed,
            "mean_eps_hat": stats.mean_eps_hat,
            "var_eps_hat": stats.var_eps_hat,
            "n_replicas": stats.n_replicas,
            "n_discarded": stats.n_discarded,
            "crb": stats.crb,
        }
    )
    return 0


#: The function that runs each subcommand of ``weakmeas.args.build_parser``.
_COMMANDS = {"probs": cmd_probs, "sweep": cmd_sweep, "weakvalue": cmd_weakvalue,
             "fisher": cmd_fisher, "estimate": cmd_estimate, "montecarlo": cmd_montecarlo}


def run(args) -> int:
    """Run the subcommand parsed into ``args``; return its exit code."""
    try:
        return _COMMANDS[args.command](args)
    except WeakMeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return type(exc).exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return IO_EXIT_CODE


def main(argv: Sequence[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
