"""Host speed: a fixed reference kernel timed beside every timed sample.

The benchmark runs on a few cores of a shared host.  Co-tenants slow one
process by up to 2x, for seconds to minutes, and every kind of work slows
alike, so raw times of the same code differ by a quarter between runs a
minute apart.  Each timed sample is therefore scaled by the time of a
reference kernel read around it:

    scaled = raw * REFERENCE_S / median(kernel readings within 1 s of it)

The scaled times read as seconds on a host where the kernel takes
``REFERENCE_S``, about its time on an unloaded 2-vCPU x86-64 VM with Python
3.11 and numpy 2.4.  The kernel is the benchmark's own code (small numpy
products and interpreted loops, the mix paralift runs) and never calls
paralift: a change to the package moves the scaled times, a change in the
host's speed moves the kernel too and cancels.  Raw wall times are printed
and dumped beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.006
# Kernel runs per reading; their median is the reading.
REPEATS = 3

_MATRIX = np.random.default_rng(0).standard_normal((6, 6))


def reference_kernel():
    """A fixed amount of numpy and interpreter work; returns a checksum."""
    a, acc = _MATRIX, 0.0
    for i in range(400):
        b = a @ a.T + np.eye(6)
        acc += float(np.linalg.det(b[:3, :3]))
        acc += sum(x * x for x in range(20))
        acc += {k: 0.5 * k for k in range(10)}[i % 10]
    return acc


def read_kernel():
    """Median wall time of ``REPEATS`` runs of the reference kernel."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Kernel readings between timed samples, and the scale for each sample.

    A reading is taken after every sample, so sample ``k`` of a run lies
    between readings ``k`` and ``k + 1``.  A reading lasts about 20 ms and
    jitters; a sample lasts from 0.1 s to a second or two.  A sample is
    therefore scaled by the median of the readings taken from ``WINDOW_S``
    before it starts to ``WINDOW_S`` after it ends, which follows the drift
    but not the jitter of single readings.
    """

    WINDOW_S = 1.0
    # Samples shorter than this share one reading.
    READ_EVERY_S = 0.2

    def __init__(self, read=read_kernel, clock=time.perf_counter):
        self.read = read
        self.clock = clock
        self.readings = []
        self.times = []

    @property
    def current(self):
        """Index of the sample timed since the last reading."""
        return len(self.readings) - 1

    def mark(self):
        """Take a reading, which ends the current sample."""
        self.times.append(self.clock())
        self.readings.append(self.read())

    def mark_if_due(self):
        """Take a reading once ``READ_EVERY_S`` has passed since the last."""
        if self.clock() - self.times[-1] >= self.READ_EVERY_S:
            self.mark()

    def scale(self, raw, index):
        """``raw`` seconds of sample ``index`` at the reference speed."""
        start = self.times[index] - self.WINDOW_S
        end = self.times[min(index + 1, self.current)] + self.WINDOW_S
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return raw * REFERENCE_S / statistics.median(self.readings[lo:hi])
