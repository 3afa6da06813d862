"""Rescaling of measured times to a fixed machine speed.

On a shared machine the speed available to one process drifts by 20-30%
over seconds to minutes, and a median over passes does not remove that.
So a fixed kernel is timed between every two operations and, from a
SIGALRM handler, every SAMPLE_PERIOD_S while an operation runs. An
operation's wall time, less the kernel time spent inside it, is multiplied
by CALIBRATION_S over the mean kernel time from the sample before it to
the sample after it.
"""
from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time

# the kernel's time on the reference machine (a 2-vCPU Intel Xeon
# sandbox), which fixes the scale of every reported time
CALIBRATION_S = 1.6e-3
SAMPLE_PERIOD_S = 0.05


class SpeedProbe:
    """Kernel timings: one between operations, and periodic ones during them."""

    def __init__(self) -> None:
        import mpmath
        import numpy

        self._mpmath = mpmath
        self._numpy = numpy
        self._small = numpy.arange(200.0)
        self._grid = numpy.linspace(0.0, 1.0, 801)
        self.samples: list[float] = []

    def kernel(self) -> float:
        """Seconds for a fixed mix of interpreter loops, small-array numpy
        calls, stencil arithmetic on a grid, 40-digit mpmath arithmetic and
        object churn: the kinds of work the workloads do, so that a slowdown
        reaches it about as it reaches them."""
        np, mp, arr, f = self._numpy, self._mpmath, self._small, self._grid
        collecting = gc.isenabled()
        gc.disable()  # collecting the workload's objects is not machine speed
        try:
            start = time.perf_counter()
            acc = 0
            for i in range(5000):
                acc += i * i
            for _ in range(50):
                arr.sum()
                np.sqrt(arr)
            for _ in range(3):
                ghosted = np.concatenate([[2.0 * f[0] - f[1]], f, [2.0 * f[-1] - f[-2]]])
                slope = 0.5 * (ghosted[2:] - ghosted[:-2])
                rate = (1.0 - f * f) * slope / (1.0 + slope * slope)
                rate[2:-2] -= 0.01 * (f[:-4] - 4.0 * f[1:-3] + 6.0 * f[2:-2]
                                      - 4.0 * f[3:-1] + f[4:])
                stacked = np.stack([f, rate, slope])
                bool(np.all(np.isfinite(stacked + 0.1 * stacked)))
            with mp.workdps(40):
                third = mp.mpf(1) / 3
                total = mp.mpf(0)
                for i in range(75):
                    total = total + third * (i + 1) / (third + i)
            table = {i: [float(i), str(i)] for i in range(750)}
            del table
            return time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()

    def sample(self) -> None:
        self.samples.append(self.kernel())

    @contextlib.contextmanager
    def sampling(self):
        """Sample every SAMPLE_PERIOD_S of wall time inside the block."""

        def handler(signum, frame):
            self.sample()

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def timed(self, rescaled: list[float], wall: list[float]):
        """Run the block between a sample before and one after it, sampling
        inside; append its wall time and its time at the reference speed."""
        if not self.samples:
            self.sample()
        first = len(self.samples)
        start = time.perf_counter()
        try:
            with self.sampling():
                yield
        finally:
            elapsed = time.perf_counter() - start
            inside = self.samples[first:]
            self.sample()
            bracket = self.samples[first - 1:]
            net = elapsed - sum(inside)
            wall.append(net)
            rescaled.append(net * CALIBRATION_S / statistics.fmean(bracket))
