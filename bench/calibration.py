"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a few shared cores whose speed for one process
drifts by a quarter or more within seconds, while the ratio of two pieces
of Python timed next to each other stays within a few percent.  So the
benchmark times this kernel beside every task and reports the task's time
scaled to the kernel's nominal time (see run.py).

The kernel does the kind of work torstab does: exact integer row
combination with gcd reduction, Fraction sums, tuple keys and dict lookups.
It lives here, not in torstab, so that no change to the program changes
its cost, and its input is fixed, so its cost never changes either.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

# CPU seconds of one sample() on a 2-vCPU x86-64 VM under Python 3.11 at
# its usual speed.  A fixed constant, so that two versions of the program
# are compared on one scale; it only sets the units' scale, not the ratios.
REFERENCE_S = 0.005

_rng = random.Random("torstab-bench-reference")
_ROWS = [tuple(_rng.randint(-3, 3) for _ in range(7)) for _ in range(52)]


def kernel() -> int:
    """One Fourier-Motzkin-like elimination step over _ROWS."""
    seen: dict[tuple, Fraction] = {}
    for a in _ROWS:
        for b in _ROWS:
            if a[0] > 0 > b[0]:
                row = [x * -b[0] + y * a[0] for x, y in zip(a, b)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                key = tuple(x // g for x in row) if g else tuple(row)
                seen[key] = seen.get(key, Fraction(0)) + Fraction(key[1], len(seen) + 1)
    return len(seen)


def sample() -> float:
    """CPU seconds of one kernel run."""
    start = time.process_time()
    kernel()
    return time.process_time() - start
