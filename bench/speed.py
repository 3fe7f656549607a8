"""Host-speed scaling of measured times.

The shared host this benchmark runs on changes speed in phases that last
from milliseconds to minutes (other tenants on the same cores): the same
code can take 1.7 times as long in a slow phase.  A phase that covers a
whole run cannot be filtered out by repeating ops within the run, so every
timing is scaled by the host's speed at the moment it was taken.

The speed is read from a fixed reference kernel (a pure-Python loop and
small numpy calls, no ukklattice code) timed right before each op, and
around each subprocess.  A time ``t`` taken while the kernel ran in a
median of ``r`` seconds is reported as ``t * REF_S / r``: the time it would have
taken with the kernel at ``REF_S``, its time in the host's fast phase.
The kernel is benchmark code, identical for every commit measured, so a
change to the program moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the reference kernel's time in the fast phase of the 2-CPU host the
# benchmark was tuned on (numpy 2.4, Python 3.11)
REF_S = 2.0e-4
# an op's speed reading is the median of the readings of the LOCAL ops
# before it and after it, and its own
LOCAL = 5
# a reading before an op runs the kernel for about this share of the
# previous op's time, so long ops, over which the speed changes more, get
# more kernel runs; at least one run, at most MAX_RUNS
SHARE = 0.02
MAX_RUNS = 25
# kernel runs before and after a subprocess
BURST = 11

_SMALL = np.arange(16.0)


def reference_s() -> float:
    """Time of one run of the reference kernel."""
    t0 = time.perf_counter()
    s = 0
    for i in range(2000):
        s += i * i % 7
    a = _SMALL
    for _ in range(30):
        a = np.maximum(a * 0.5, np.abs(a - 1.0))
    return time.perf_counter() - t0


def reading(budget_s: float) -> float:
    """Median kernel time over runs that take about ``budget_s`` in all."""
    times = [reference_s()]
    while sum(times) < budget_s and len(times) < MAX_RUNS:
        times.append(reference_s())
    return statistics.median(times)


def burst() -> list[float]:
    return [reference_s() for _ in range(BURST)]


def scale_sequence(times: list[float], refs: list[float]) -> list[float]:
    """Scale each time by the median kernel time of its neighbourhood.

    ``times[j]`` was taken right after a reading of ``refs[j]``.
    """
    return [
        t * REF_S / statistics.median(refs[max(0, j - LOCAL):j + LOCAL + 1])
        for j, t in enumerate(times)
    ]


def scale_one(t: float, before: list[float], after: list[float]) -> float:
    """Scale a subprocess's time by the kernel runs around it."""
    return t * REF_S / statistics.median(before + after)
