"""How fast the machine ran while a job ran, and job times at one speed.

On a host shared with other tenants, a virtual CPU flips between a fast
state and one about half as fast. Each state lasts from a fifth of a second
to a few seconds, so raw times of the same job differ by a third from run to
run. While the timed jobs run, a timer signal interrupts the process every
`PERIOD` seconds and times `kernel`, a tiny fixed piece of pure-Python work
that does not use hetcat. A job's *speed factor* is the mean of
`REF_SECONDS / kernel time` over the samples taken during the job. Its
*scaled* time is its measured time, less the time spent in the sampler,
times that factor: the time the job would have taken at the speed where
`kernel` takes `REF_SECONDS`.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PERIOD = 0.02
# `kernel`'s time at the reference speed: its fast-state time on a 2-core
# x86-64 host under Python 3.11, rounded.
REF_SECONDS = 0.00015
# Samples a job's factor needs; a shorter job borrows the latest ones.
MIN_SAMPLES = 3


def kernel() -> None:
    table: dict = {}
    for i in range(400):
        key = (i % 97, str(i % 13))
        table[key] = table.get(key, 0) + 1


class Sampler:
    """Samples `kernel` from SIGALRM while the `with` block runs."""

    def __init__(self):
        self.stamps: list[float] = []     # when each sample started
        self.factors: list[float] = []    # REF_SECONDS / kernel time
        self.costs: list[float] = []      # time each interruption took

    def _sample(self, *_):
        # a collection started by the kernel's allocations would be work of
        # the interrupted job, timed as the kernel's
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        self.factors.append(REF_SECONDS / (time.perf_counter() - start))
        self.stamps.append(start)
        self.costs.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def __enter__(self) -> "Sampler":
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """The speed factor over [start, end], and the time the sampler took
        in that interval."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        factors = self.factors[max(0, min(lo, hi - MIN_SAMPLES)):hi]
        return statistics.fmean(factors), sum(self.costs[lo:hi])
