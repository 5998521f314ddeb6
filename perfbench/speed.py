"""Machine-speed probe that puts timings on a common scale.

On a shared virtual machine the per-core speed drifts: on a 2-core Intel
Xeon VM a fixed piece of interpreter-bound work took anywhere from 1.0x to
2x its fastest time, in phases lasting seconds to tens of seconds.  A fixed probe,
owned by the benchmark and independent of the code under test, is therefore
timed between jobs throughout each round, and each job's time is multiplied
by ``REFERENCE_S`` over the mean of the probes just before and just after
it.  Reported times are seconds on a machine where the probe takes
``REFERENCE_S``; raw times are kept in each run's detail line.

A probe sample is the median of ``REPEATS`` back-to-back runs with the
cyclic garbage collector paused.  A single run could be caught by a
collection, or by another process taking the core, and read several times
slower; one such sample after the 5 s case-study job once scaled that job
down to a quarter of its time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

REFERENCE_S = 1.4e-3
INTERVAL_S = 0.2
REPEATS = 3


def _agent_like(x, u):
    return -2.5 * np.sin(x) - 0.1 * x + u


class SpeedProbe:
    """Probe times, with when each finished, taken at least ``INTERVAL_S`` apart.

    The probe makes scalar callbacks, as the toolkit's agents do, and passes
    in place over ~2 MB of arrays.  It allocates nothing larger than a numpy
    scalar: a variant that allocated its result ran 0.8-1.9 ms depending on
    what the process had allocated before, while this one stays within a
    few percent.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.ends: list[float] = []
        self._grid = np.linspace(-5.0, 5.0, 100_001)
        self._weights = self._grid * self._grid
        self._buffer = np.empty_like(self._grid)
        self._work()  # first touch of the buffer's pages

    def _work(self) -> float:
        s = 0.0
        for _ in range(300):
            s += float(_agent_like(s * 1e-3, 0.5))
        np.multiply(self._grid, 0.99, out=self._buffer)
        np.sin(self._buffer, out=self._buffer)
        np.multiply(self._buffer, self._weights, out=self._buffer)
        return s + float(self._buffer.sum())

    def sample(self) -> None:
        times = []
        gc.disable()
        try:
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                self._work()
                times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self.ends.append(time.perf_counter())
        self.samples.append(statistics.median(times))

    def maybe_sample(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def local_scale(self, t0: float, t1: float) -> float:
        """Scale from the last probe before ``t0`` and the first after ``t1``."""
        i = bisect.bisect_right(self.ends, t0) - 1
        j = bisect.bisect_left(self.ends, t1)
        near = [self.samples[k] for k in (i, j) if 0 <= k < len(self.samples)]
        return REFERENCE_S / statistics.fmean(near)
