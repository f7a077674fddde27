"""Command-line parser. It loads only argparse and ``errors``, so ``--help``,
``<command> --help`` and a refused argument (exit code 2) exit before numpy
loads. ``cli.run`` runs the parsed command, which ``args.command`` names."""

import argparse
import math
import re

from . import errors

#: Exit code of an error reading or writing a file.
IO_EXIT_CODE = 20

#: Errors only a library caller can meet: ``--eps-probe`` refuses a probe
#: small enough to raise ZeroProbeCoupling.
_LIBRARY_ONLY = (errors.ZeroProbeCoupling,)


def _exit_code_table() -> list[tuple[int, str]]:
    rows = [(code, err.__name__) for code, err in errors.BY_CODE.items() if err not in _LIBRARY_ONLY]
    rows.append((IO_EXIT_CODE, "I/O error"))
    rows.append((2, "invalid arguments"))
    return sorted(rows)


def _epilog() -> str:
    lines = ["exit codes:"]
    for code, name in _exit_code_table():
        lines.append(f"  {code:>3}  {name}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """Reads ``-1e-3`` as a number, where Python 3.10 and 3.11 take it for an
    option. Subparsers are of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


# argparse names a type function in "invalid <name> value: ..."
_finite.__name__ = "number"


#: Smallest --eps-probe magnitude. The finite difference divides a
#: difference of logarithms by eps_probe, so round-off grows as the probe
#: shrinks: at theta = 30 deg its relative error is 9e-12 at 1e-6, 5e-6
#: at 1e-12 and 1e-2 at 1e-15, and at 1e-17 it prints 0.
MIN_EPS_PROBE = 1e-6


def _eps_probe(text: str) -> float:
    value = _finite(text)
    if abs(value) < MIN_EPS_PROBE:
        raise argparse.ArgumentTypeError(
            f"must be at least {MIN_EPS_PROBE:g} in magnitude, got {text!r}: "
            "a smaller probe leaves only round-off in the finite difference"
        )
    return value


_eps_probe.__name__ = "number"


def _shots(text: str) -> int:
    """A shot count in [1, 2^63), the range of the generator's counts."""
    value = int(text)
    if not 1 <= value < 1 << 63:
        raise argparse.ArgumentTypeError(f"must lie in [1, 2^63), got {text}")
    return value


_shots.__name__ = "integer"


def _out_path(text: str) -> str:
    """A sweep's ``--out``: an empty path names no file."""
    if not text:
        raise argparse.ArgumentTypeError("must name a file, got ''")
    return text


def _add_model_args(sub) -> None:
    sub.add_argument(
        "--model",
        choices=("linear", "exact-ideal", "exact-ppbs"),
        default="linear",
        help="probability model (default: linear)",
    )
    sub.add_argument("--tv", type=_finite, default=None, help="PPBS t_V amplitude")
    sub.add_argument("--th", type=_finite, default=None,
                     help="PPBS t_H amplitude; every t_H < 1 is an imperfect gate")
    sub.add_argument("--ah", type=_finite, default=None, help="H compensation amplitude")


def _add_postselect_arg(sub) -> None:
    sub.add_argument(
        "--postselect",
        type=_finite,
        default=270.0,
        help="post-selection analyzer angle in degrees (default: 270)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weakmeas",
        description="Weak-measurement simulation and coupling estimation.",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("probs", help="joint probabilities p(m, f) at one point")
    p.add_argument("--theta", type=_finite, required=True, help="input angle (deg)")
    p.add_argument("--epsilon", type=_finite, required=True, help="coupling strength")
    _add_model_args(p)
    _add_postselect_arg(p)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = subs.add_parser("sweep", help="theta sweep written to a file")
    p.add_argument("--theta-start", type=_finite, default=0.0)
    p.add_argument("--theta-stop", type=_finite, default=359.0)
    p.add_argument("--theta-step", type=_finite, default=1.0)
    p.add_argument("--epsilon", type=_finite, required=True)
    _add_model_args(p)
    _add_postselect_arg(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=_out_path, required=True, help="output file path")

    p = subs.add_parser("weakvalue", help="analytic and finite-difference weak value")
    p.add_argument("--theta", type=_finite, required=True)
    _add_postselect_arg(p)
    p.add_argument(
        "--eps-probe",
        type=_eps_probe,
        default=0.08,
        help="probe coupling for the finite difference, at least 1e-6 in magnitude "
        "(default: 0.08)",
    )

    p = subs.add_parser("fisher", help="Fisher information split by post-selection")
    p.add_argument("--theta", type=_finite, required=True)
    _add_postselect_arg(p)
    p.add_argument("--shots", type=_shots, default=None, help="trials for the CRB")

    p = subs.add_parser("estimate", help="moment estimate from model conditionals")
    p.add_argument("--theta", type=_finite, required=True)
    p.add_argument("--epsilon", type=_finite, required=True)
    _add_model_args(p)
    _add_postselect_arg(p)
    p.add_argument(
        "--shots",
        type=_shots,
        default=None,
        help="total trials; enables the binomial error on the estimate",
    )

    p = subs.add_parser("montecarlo", help="seeded estimator ensemble")
    p.add_argument("--theta", type=_finite, required=True)
    p.add_argument("--epsilon", type=_finite, required=True)
    _add_model_args(p)
    p.add_argument("--shots", type=_shots, required=True, help="events per replica")
    p.add_argument("--replicas", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--f", choices=("D", "A"), default="A", help="post-selection column")
    p.add_argument("--mode", choices=("multinomial", "poisson"), default="multinomial")

    return parser
