"""Command-line front end.

Subcommands: probs, sweep, weakvalue, fisher, estimate, montecarlo.
Angles are accepted in degrees only. CSV output is UTF-8 with a header
row, comma separators, LF line endings and floats printed with 12
significant digits; undefined cells are emitted as empty fields. JSON
output is a single object or array with stable key order. Identical
invocations produce identical bytes. Each ``cmd_*`` returns the text it
prints (``sweep`` none), and :func:`run` writes it to stdout once the
command has returned: a failed command prints nothing there, and a
closed stdout is an I/O error.

A sweep is computed and written one block of grid rows at a time: the
kernel's columns of one block, the text of one % chunk of it, and the
theta grid, 8 bytes a row, are all it holds. The first block is computed
before any file is created, so a refusal leaves no file. The rows go to
a temporary file beside ``--out`` that replaces it once it is whole, so
a sweep that fails later leaves the file at ``--out`` as it was; a
symlink, /dev/stdout or a FIFO is written in place; if the temporary
path stops naming the file written, the sweep fails. The bytes are those
of the output contract above: each CSV cell as ``f"{x:.12g}"``, the JSON
as ``json.dumps(indent=2)`` of the whole file, an undefined cell empty
or null. The kernel is elementwise, so they do not depend on the block
size.

The kernel is reached through two entries: each point command reads
its one-angle row from ``kernel.angle_row`` (``montecarlo`` through
``run_ensemble``, which reads the same row), and the sweep reads its
blocks from ``kernel.sweep_columns``.

Every command loads numpy, ``args``, ``errors`` and ``kernel``;
``estimation``, ``montecarlo`` and ``json`` are imported inside the
commands that use them. ``__main__`` parses the command line with
``args``, which loads no numpy, before it imports this module.
``python -m weakmeas.cli`` hands over to ``weakmeas.__main__.script()``
before anything else loads, so it runs as ``python -m weakmeas`` does.
"""

from __future__ import annotations

if __name__ == "__main__":
    from weakmeas.__main__ import script

    script()

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
from .kernel import GateParams, ModelTag, Outcome, angle_row, sweep_columns

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

def _model_and_gate(args) -> tuple[ModelTag, GateParams | None]:
    """The model of ``--model`` and, for exact-ppbs, the GateParams of the
    --tv/--th/--ah given, its defaults filling the rest; another model
    refuses them and has no gate."""
    given = {k: v for k, v in (("t_v", args.tv), ("t_h", args.th), ("a_h", args.ah)) if v is not None}
    model = ModelTag(args.model)
    if model is ModelTag.EXACT_PPBS:
        return model, GateParams(**given)
    if given:
        flags = "/".join("--" + k.replace("_", "") for k in given)
        raise ValueError(f"{flags} apply only to --model exact-ppbs")
    return model, None


def _json(payload: dict) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def cmd_probs(args) -> str:
    p_da, p_aa, p_dd, p_ad = angle_row(
        args.theta, args.epsilon, *_model_and_gate(args), args.postselect
    )[0].tolist()
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
        return _json(payload)
    keys = ("p_DA", "p_AA", "p_DD", "p_AD")
    return ",".join(keys) + "\n" + ",".join("%.12g" % payload[k] for k in keys) + "\n"


#: Most rows a sweep may have, about 28 times the 36,000 rows of a sweep
#: over the circle at 0.01 deg. A sweep holds the grid, 8 bytes a row, and
#: one block of rows: at this bound it peaks at about 40 MB of process RSS.
MAX_SWEEP_ROWS = 10**6


def _theta_grid(start: float, stop: float, step: float) -> np.ndarray:
    """start + k * step for k = 0, 1, ... while the angle does not exceed
    stop by more than 1e-9. A grid of more than MAX_SWEEP_ROWS rows is
    refused before it is allocated. So is a grid of two or more rows whose
    angles would not strictly increase as '%.12g' prints them, which also
    keeps them distinct as floats."""
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
    # in place, in one array: the bits of start + k * step; an angle past
    # the largest float, which searchsorted cuts, is inf without a warning
    theta = np.arange(int(rows) + 1, dtype=float)
    with np.errstate(over="ignore"):
        theta *= step
        theta += start
    theta = theta[:np.searchsorted(theta, limit, "right")]
    if len(theta) < 2:
        return theta
    # '%.12g' moves an angle no larger than `largest` by at most u / 2, with
    # u = 10^(e - 11) and e the exponent it prints for `largest`, so angles
    # more than u apart print in their order. start + k * step, rounded
    # twice, is within 3 * 2^-53 |largest| of its exact value, so
    # consecutive angles are at least step - 1e-15 |largest| apart.
    largest = max(theta[0], theta[-1], key=abs).item()
    u = 10.0 ** (int(f"{largest:.11e}".partition("e")[2]) - 11)
    if step - 1e-15 * abs(largest) <= u:
        raise ValueError(
            f"--theta-step {step!r} is too fine for the angle {largest!r}: the sweep "
            "file prints angles to 12 significant digits, where they would not increase"
        )
    return theta


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
    of the file it replaces, or 0o666 less the umask; it is written and
    chmodded through the descriptor ``mkstemp`` opened. If the temporary
    path no longer names that file (same device and inode) when the last
    write is done, the sweep's output is lost: OSError. On an error the
    temporary path is removed and ``path`` keeps what it held. Anything
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
    try:
        # a link put at the temporary path is neither chmodded nor truncated
        with open(fd, "w", encoding="utf-8", newline="\n") as handle:
            os.fchmod(fd, stat.S_IMODE(mode))
            yield handle
            written = os.fstat(fd)
        now = os.lstat(temp)
        if (now.st_dev, now.st_ino) != (written.st_dev, written.st_ino):
            raise OSError(f"{temp!r} no longer names the file written; {path!r} is left as it was")
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


def cmd_sweep(args) -> None:
    theta = _theta_grid(args.theta_start, args.theta_stop, args.theta_step)
    model, gate_params = _model_and_gate(args)
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


def cmd_weakvalue(args) -> str:
    from .estimation import extract_weak_value

    p_zero, row = angle_row(args.theta, 0.0, ModelTag.LINEAR, None, args.postselect, Outcome.A)
    p_eps = angle_row(args.theta, args.eps_probe, ModelTag.LINEAR, None, args.postselect)[0]
    finite_diff = extract_weak_value(p_eps, p_zero, Outcome.A, args.eps_probe)
    return _json(
        {
            "theta_deg": args.theta,
            "postselect_deg": args.postselect,
            "eps_probe": args.eps_probe,
            "wv_analytic": row["wv_A"],
            "wv_finite_difference": finite_diff,
        }
    )


def cmd_fisher(args) -> str:
    from .estimation import cramer_rao_bound

    # F reads only the amplitudes, and a linear row at eps = 0 is defined
    _, row = angle_row(args.theta, 0.0, ModelTag.LINEAR, None, args.postselect)
    payload = {
        "theta_deg": args.theta,
        "postselect_deg": args.postselect,
        "F_A": row["F_A"],
        "F_D": row["F_D"],
        "F_total": row["F_total"],
    }
    if args.shots is not None:
        payload["crb_total"] = cramer_rao_bound(row["F_total"], args.shots)
        payload["crb_A"] = cramer_rao_bound(row["F_A"], args.shots, Outcome.A)
    return _json(payload)


def cmd_estimate(args) -> str:
    from .estimation import estimate_epsilon

    _, row = angle_row(args.theta, args.epsilon, *_model_and_gate(args), args.postselect, Outcome.A)
    w_d, w_a, wv_ref = row["p_DA"], row["p_AA"], row["wv_A"]
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
    return _json(payload)


def cmd_montecarlo(args) -> str:
    from .montecarlo import run_ensemble

    model, gate_params = _model_and_gate(args)
    stats = run_ensemble(
        args.theta,
        args.epsilon,
        model,
        n_per_replica=args.shots,
        n_replicas=args.replicas,
        base_seed=args.seed,
        f=args.f,
        gate_params=gate_params,
        mode=args.mode,
    )
    return _json(
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


#: The function that runs each subcommand of ``weakmeas.args.build_parser``.
_COMMANDS = {"probs": cmd_probs, "sweep": cmd_sweep, "weakvalue": cmd_weakvalue,
             "fisher": cmd_fisher, "estimate": cmd_estimate, "montecarlo": cmd_montecarlo}


def run(args) -> int:
    """Run the subcommand parsed into ``args``, write its text; return its exit code."""
    try:
        text = _COMMANDS[args.command](args)
        if text:
            if sys.stdout is None:  # Python started with fd 1 closed
                raise OSError("stdout is closed")
            try:
                sys.stdout.write(text)
            except ValueError as exc:  # a closed stream, not a refused command
                raise OSError(exc) from exc
        return 0
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
