"""A fixed reference computation that measures how fast the machine runs now.

The benchmark runs on shared virtual machines whose speed drifts by up to
about 1.5x, over tenths of a second to minutes, with the load of the other
tenants of the host.  A run
measures the program and, interleaved with it in the same process, this
reference computation (``Sampler``); the end-to-end timings are then
reported in seconds at the machine's nominal speed (see ``speed_factor``).

The reference work does not use ``ngstate`` at all, so a change to the
program never changes it.  It mixes the kinds of work the workloads do:
masked element-wise transcendentals on numpy arrays, Bessel
tables from ``scipy.special``, many small numpy calls made from Python
loops, and number formatting.  Its inputs are fixed.
"""

import io
import signal
import time

import numpy as np
from scipy import special as _sp

# Seconds one call of unit() takes at the machine's nominal speed, by
# definition; about its median on the 2-vCPU Xeon VM of the baseline.
# Changing it rescales every end-to-end time.
UNIT_REF_S = 0.0125

_X = np.linspace(-3.0, 9.0, 4096)  # small, so samples barely move peak RSS
_R = np.linspace(0.0, 30.0, 1025)
_SCALARS = np.linspace(0.1, 2.0, 64)


def unit():
    """One unit of reference work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for _ in range(40):  # masked element-wise kernels, like specfun.small_f
        pos = _X > 0.5
        z = np.sqrt(np.abs(_X))
        big = np.where(pos, z / np.tanh(np.where(pos, z, 1.0)) - 1.0, 0.0)
        small = np.where(pos, 0.0, np.polyval([1 / 945, -1 / 45, 1 / 3], _X))
        acc += float(np.sum(big + small))
    for order in range(3):  # Bessel rows, like wigner's quadrature tables
        acc += float(np.sum(_sp.jv(order, _R)))
    for value in _SCALARS:  # single-point calls with fixed per-call costs
        for _ in range(6):
            a = np.asarray(value, dtype=float)
            acc += float(np.exp(-a) * np.log1p(a)) + float(np.max(np.atleast_1d(a)))
    buf = io.StringIO()  # CSV formatting, like gridio.write_csv
    for row in zip(_X[:750], _X[750:1500], _X[1500:2250]):
        buf.write(",".join(f"{v:.17g}" for v in row))
        buf.write("\n")
    return acc + len(buf.getvalue())


def measure(units):
    """Wall time of `units` calls of unit()."""
    start = time.perf_counter()
    for _ in range(units):
        unit()
    return time.perf_counter() - start


def speed_factor(seconds, units):
    """Nominal time / measured time of the reference work (1.0 at nominal
    speed, below 1 when the machine runs slow); multiply a time measured
    alongside it by this to express it at nominal speed."""
    return UNIT_REF_S * units / seconds


class Sampler:
    """Runs one unit() every `period` seconds of wall time, from SIGALRM.

    The handler runs in the main thread between two bytecodes, so while it
    runs the measured code does not; ``spent_between`` gives the time of
    the samples that fell inside an interval, to take out of its length.
    """

    def __init__(self, period):
        self.period = period
        self.samples = []  # (start, end) of each unit()

    def _tick(self, signum, frame):
        start = time.perf_counter()
        unit()
        self.samples.append((start, time.perf_counter()))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than the period
            self._tick(None, None)

    def _within(self, start, end):
        return [e - s for s, e in self.samples if start <= s and e <= end]

    def spent_between(self, start, end):
        """Time of the samples that lie inside [start, end]."""
        return sum(self._within(start, end))

    def speed_between(self, start, end):
        """Speed factor of the samples inside [start, end], or None."""
        times = self._within(start, end)
        return speed_factor(sum(times), len(times)) if times else None

    def speed(self):
        """Speed factor of all the samples."""
        return speed_factor(sum(e - s for s, e in self.samples), len(self.samples))
