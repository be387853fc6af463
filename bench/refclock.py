"""Reference-speed clock: wall times scaled by the speed of a fixed kernel.

The shared 2-core host this benchmark was written on drifts in speed by up
to 2x over tens of seconds for the same work, and CPU time drifts with wall
time, so the cause is not descheduling that a CPU clock could skip. A fixed
reference kernel, timed every 0.1 s between the calls, slows by about the
same factor as the program does.

Interpreter-bound work and numpy work on shard-sized arrays drift by
different factors. The kernel does both, in about equal time, and every
workload uses the same kernel. So the scale factor does not depend on how
the program splits its work between the two, and a change that moves work
from the interpreter into numpy is scaled like the code it replaces.

A call's wall time is scaled by ``nominal / kernel time``. The result reads
as the time the call would take on a machine where the kernel takes its
nominal time, which is about that host's typical state. A set-up runs in a
child interpreter, which may sit on the other core, so the child times the
kernel itself, right after its set-up, and the set-up is scaled by that.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

INTERVAL_S = 0.1


def interp_kernel() -> float:
    """Scalar float math in the interpreter, like the rate and threshold code."""
    total = 0.0
    for i in range(1, 20001):
        total += math.log2(i)
    return total


def array_kernel() -> int:
    """RNG draws and masks on large arrays, like the simulator."""
    rng = np.random.default_rng(12345)
    u = rng.random(1 << 17)
    bits = rng.integers(0, 2, size=1 << 17, dtype=np.int8)
    flipped = np.where(u < 0.3, bits ^ 1, bits)
    return int(((u < 0.5) & (flipped == 1)).sum())


def kernel() -> None:
    """About 1 ms of interpreter work and 1.3 ms of array work."""
    interp_kernel()
    array_kernel()


NOMINAL_S = 2.3e-3


def sample() -> float:
    """Kernel seconds: the best of three runs, so one interrupt does not count."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class RefClock:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        """Sample the kernel if ``INTERVAL_S`` has passed since the last sample."""
        if force or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.samples.append(sample())
            self.times.append(time.perf_counter())

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time that began at ``start``, at reference speed.

        Uses the mean of the samples just before and just after ``start``.
        """
        i = bisect.bisect(self.times, start)
        before = self.samples[max(i - 1, 0)]
        after = self.samples[min(i, len(self.samples) - 1)]
        return seconds * NOMINAL_S * 2 / (before + after)
