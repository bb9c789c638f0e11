"""Host-speed calibration.

The benchmark's host is a shared virtual machine whose speed switches
between two states, 1.4x to 1.8x apart depending on the code, each lasting
seconds to minutes.  Raw wall times therefore spread by tens of percent
from run to run whatever the program does.  Every time the benchmark
reports is scaled to a fixed reference speed instead:

    reported = raw seconds * CAL_REF_S * mean(1 / slice seconds)

over calibration slices sampled while the operation ran.  A slice is a
fixed piece of pure-Python integer work that uses nothing from the package,
so no change to the package can move it.  A slice is only a proxy: code
unlike it (such as the p-adic residue search) slows by a different factor
in the slow state, so the scaling narrows the spread without removing it.
During a run a SIGALRM timer takes one slice every SAMPLE_PERIOD_S; the
time spent in the handler is subtracted from every operation it
interrupts.  The raw times are kept in the results file next to the scales.

The scaling assumes a single-process engine: the slices run in the
benchmark's process, and would read a busy host as a slow one if the engine
kept both CPUs busy with worker processes.  Each call therefore also
measures the CPU time of child processes that ended during it; the
benchmark adds it to the call's CPU time and fails the call if it is not 0.
"""

from __future__ import annotations

import bisect
import resource
import signal
import time

CAL_ITERATIONS = 400
# Seconds one slice takes at the reference speed (the fast state of a
# 2-vCPU Xeon guest, Python 3.11).
CAL_REF_S = 0.0024
SAMPLE_PERIOD_S = 0.25


def calibration_work():
    """Fixed pure-Python work that uses nothing from the package but looks
    like the engine's inner loops: a sextic form at 7-digit points, trial
    division of the multi-digit value, a 64-bit modular power and a tuple
    hash.  In the slow state it slows by about the same factor as integer
    search and the odd-place scan; loops over small integers, such as the
    p-adic residue search, slow by more."""
    acc = 0
    for n in range(1000003, 1000003 + CAL_ITERATIONS):
        x, y, z = n, n // 3 + 1, n // 7 + 2
        v = (50 * x ** 6 - 32 * x ** 5 * y + 44 * x ** 4 * y ** 2
             - 162 * x ** 4 * z ** 2 + 1458 * z ** 6)
        m = abs(v)
        d = 3
        while d < 60:
            if m % d:
                d += 2
            else:
                m //= d
        acc += pow(m % 1000000007 + 2, 65537,
                   18446744073709551557) & 0xffff
        acc ^= hash((x, y, z)) & 0xff
    return acc


def speed_scale(slices):
    """Factor from raw seconds to seconds at the reference speed."""
    return CAL_REF_S * sum(1 / c for c in slices) / len(slices)


class SpeedClock:
    """Times operations and samples the host's speed while they run.

    Use as a context manager: entering starts the sampling timer, leaving
    stops it and restores the previous SIGALRM handler.
    """

    def __init__(self, period=SAMPLE_PERIOD_S):
        self.period = period
        self.times = []
        self.slices = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        c0 = time.process_time()
        t0 = time.perf_counter()
        calibration_work()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.slices.append(t1 - t0)
        self.spent_wall += time.perf_counter() - t0
        self.spent_cpu += time.process_time() - c0

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def call(self, fn, *args):
        """Run fn(*args).  Returns (result, exception, timing) where timing
        is (start, end, wall seconds, cpu seconds, child cpu seconds), wall
        and cpu without the sampler's own time, cpu including the child
        processes' time.  An exception is returned, never raised, so that
        it is counted and the run goes on."""
        w0, c0 = self.spent_wall, self.spent_cpu
        child0 = children_cpu()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result, exc = fn(*args), None
        except Exception as e:
            result, exc = None, e
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        child = children_cpu() - child0
        wall = t1 - t0 - (self.spent_wall - w0)
        cpu = cpu1 - cpu0 - (self.spent_cpu - c0) + child
        return result, exc, (t0, t1, wall, cpu, child)

    def scale(self, start, end):
        """Speed scale over the samples taken within one period of
        [start, end], or the nearest sample if there is none."""
        lo = bisect.bisect_left(self.times, start - self.period)
        hi = bisect.bisect_right(self.times, end + self.period)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return speed_scale(self.slices[lo:hi])


def children_cpu():
    """User and system seconds of the ended child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime
