"""Host-speed probe: a fixed piece of work, timed, that does not touch
the package.

The speed of a shared host drifts by a fifth or more over seconds to
minutes, and the drift slows this probe and the program's operations
largely alike. The benchmark runs the probe as a child right before and
right after every operation and scales the operation's times by it, so
that what it reports is mostly the program's cost and less the host's
load at that moment (see NOTES.md).

The work is of the kind the program does at every point of a sweep:
arithmetic on small numpy arrays and Python complex numbers, and float
formatting as in the CSV writer. Its size is fixed here; changing it
changes the unit of every normalized metric.

    python3 perfbench/calibrate.py REPS

prints one JSON list: the seconds of each of REPS repetitions.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np

POINTS = 1500
_OBSERVABLE = np.array([[1.0, 0.2j], [-0.2j, -1.0]], dtype=complex)


def work() -> float:
    """One repetition of the fixed work; returns a checksum."""
    acc = 0.0
    lines = []
    for i in range(POINTS):
        t = i * 1e-3
        v = np.array([math.cos(t), 1j * math.sin(t)], dtype=complex)
        v = v / np.linalg.norm(v)
        if not np.allclose(_OBSERVABLE, _OBSERVABLE.conj().T, rtol=0.0, atol=1e-12):
            raise AssertionError("observable is not Hermitian")
        amp = complex(np.vdot(v, _OBSERVABLE @ v))
        cells = (t, amp.real, amp.imag, abs(amp) ** 2)
        acc += cells[3]
        lines.append(",".join(f"{x:.17g}" for x in cells))
    return acc + len("\n".join(lines))


def main() -> int:
    reps = int(sys.argv[1])
    work()  # warm-up: first calls, caches
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
