import sys

from .args import build_parser


def main(argv=None) -> int:
    """Run ``weakmeas`` on ``argv``. It is parsed before ``cli`` is imported,
    so ``--help`` and a refused argument exit before numpy loads."""
    args = build_parser().parse_args(argv)
    from .cli import run
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
