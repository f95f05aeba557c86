"""Machine-speed sampler: converts measured seconds into reference seconds.

On a shared host one vCPU runs the same code up to a third faster or slower
from one stretch of seconds or minutes to the next, in CPU time as much as
in wall time, so raw times of unchanged code spread by 20-30% between runs.
The sampler measures that speed while the program runs: a SIGALRM handler
times short fixed kernels every INTERVAL_S seconds, and `mark` times them
once more at each boundary of a timed interval.  Each kernel's REF_*_S is
its time on the reference machine at its typical speed, so REF / duration
is the current speed relative to that, and the speed of a sample is the
geometric mean over its kernels.  An interval's reference seconds are its
measured seconds, less the time spent sampling, times the mean speed
sampled across it, each sample weighted by the time since the one before.
A change that makes eulerlab faster lowers its reference seconds; a host
that slows every process down does not raise them.

Interpreted code and BLAS calls slow down by different amounts: in probes
of 12-16 repeated passes, pass times corrected by the pure-Python kernel
alone spread (IQR/median) by 3% on chaos-survey but 6% on the BLAS-bound
splitting-sweep, and corrected by a matrix product alone by 8% and 3%.  The
workload process therefore samples both kernels; set-up samples only the
pure-Python one, because numpy must not be imported before eulerlab is.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time

INTERVAL_S = 0.1
PYTHON_LOOPS = 20000
BLAS_SIZE, BLAS_PRODUCTS = 128, 10
# Typical times of the two kernels on the reference machine (2-vCPU Xeon,
# Python 3.11, OpenBLAS on one thread): medians of the benchmark's tuning
# runs, in which they ranged over 0.8-2.0 ms.  They set the scale only: a
# reference second is about one second at that speed.
REF_PYTHON_S = 0.0015
REF_BLAS_S = 0.00125


def python_kernel():
    """A fixed slice of interpreter work: float and list arithmetic."""
    acc, values = 0.0, [0.5, 1.5, 2.5, 3.5]
    for i in range(PYTHON_LOOPS):
        acc = acc * 0.5 + values[i & 3]
    return acc


def blas_kernel():
    """A fixed run of dense matrix products; imports numpy."""
    import numpy

    a = numpy.linspace(-1.0, 1.0, BLAS_SIZE * BLAS_SIZE).reshape(BLAS_SIZE, BLAS_SIZE)
    out = numpy.empty_like(a)

    def run():
        for _ in range(BLAS_PRODUCTS):
            numpy.matmul(a, a, out=out)
    return run


class Sampler:
    """Samples of (time, speed) taken while `running()` is active."""

    def __init__(self, blas=False):
        self.kernels = [(python_kernel, REF_PYTHON_S)]
        if blas:
            self.kernels.append((blas_kernel(), REF_BLAS_S))
        self.times = []    # perf_counter at the end of each sample
        self.speeds = []   # speed of each sample relative to the reference
        self.spent = 0.0   # seconds spent sampling so far
        self._busy = False

    def _sample(self):
        self._busy = True
        start = time.perf_counter()
        log_speed = 0.0
        for kernel, reference in self.kernels:
            t0 = time.perf_counter()
            kernel()
            log_speed += math.log(reference / (time.perf_counter() - t0))
        self.times.append(time.perf_counter())
        self.speeds.append(math.exp(log_speed / len(self.kernels)))
        self.spent += time.perf_counter() - start
        self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._sample()

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self):
        """Take a sample now and return the boundary it marks."""
        self._sample()
        return time.perf_counter(), self.spent, len(self.times) - 1

    def seconds(self, start, end):
        """(measured, reference) seconds between two marks, sampling excluded."""
        measured = (end[0] - start[0]) - (end[1] - start[1])
        first, last = start[2], end[2]
        weights = [self.times[i] - self.times[i - 1] for i in range(first + 1, last + 1)]
        speeds = self.speeds[first + 1:last + 1]
        speed = sum(w * s for w, s in zip(weights, speeds)) / sum(weights)
        return measured, measured * speed
