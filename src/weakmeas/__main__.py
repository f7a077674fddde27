"""Entry point of ``python -m weakmeas`` and of the installed ``weakmeas``
script: both run :func:`script`.

:func:`script` freezes the heap (``gc.freeze()``) once the command is done,
whether it returned, printed ``--help`` or was refused. Interpreter shutdown
runs several full garbage collections over every tracked object, and numpy
and weakmeas leave about 21,000 of them; frozen objects sit in the permanent
generation, which those collections skip. Shutdown still clears the modules,
flushes the streams and runs the atexit handlers. :func:`main` does not
freeze, so a caller that runs commands in its own process keeps its
collector."""

import gc
import sys

from .args import build_parser


def main(argv=None) -> int:
    """Run ``weakmeas`` on ``argv``. It is parsed before ``cli`` is imported,
    so ``--help`` and a refused argument exit before numpy loads."""
    args = build_parser().parse_args(argv)
    from .cli import run
    return run(args)


def script():
    """Run :func:`main` on ``sys.argv``, freeze the heap and exit with the
    command's code."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    script()
