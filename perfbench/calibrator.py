"""Host-speed sampler: times a fixed pure-Python kernel every SLEEP_S.

Usage: python3 calibrator.py LOGFILE DEADLINE_S CPU

The host this benchmark runs on is shared; its speed swings by a factor of
two within a minute, wall and CPU time swing together, and the two cores
swing apart.  This process pins itself to CPU, the core the passes are
pinned to, and logs per sample the CLOCK_MONOTONIC start and end of one
kernel run and the CPU time it took, flushed at once.  run.py reads the log
to rescale every time it reports to one reference host speed.  The kernel
does exact rational sums in a dict keyed by tuples, the operation mix of
the Fock-space accumulate loops, without calling paraferm.  The process
exits by itself after DEADLINE_S seconds.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction

SLEEP_S = 0.05


def kernel() -> None:
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(1000):
        key = (i % 89, i % 7)
        acc[key] = acc.get(key, 0) + x * Fraction(i % 11 + 1, i % 5 + 1)


def main() -> int:
    path, deadline = sys.argv[1], time.monotonic() + float(sys.argv[2])
    os.sched_setaffinity(0, {int(sys.argv[3])})
    with open(path, "w") as log:
        while time.monotonic() < deadline:
            start = time.monotonic()
            cpu = time.thread_time()
            kernel()
            log.write(f"{start} {time.monotonic()} {time.thread_time() - cpu}\n")
            log.flush()
            time.sleep(SLEEP_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
