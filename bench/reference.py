"""Reference-speed scaling of measured times.

On a shared host one core switches, from one stretch of tens of
milliseconds to the next, between its full speed and about 0.6 of it (a
busy hardware sibling, most likely: CPU time follows wall time and no steal
time is reported), and the share of slow stretches drifts over seconds and
minutes.  Two runs of the same code minutes apart then disagree by 20% and
more.  While operations are timed,
a ``SIGALRM`` handler runs a small fixed kernel every ``INTERVAL_S``, made
of the same kinds of work as geocens (a LAPACK Cholesky factor and solve,
Bessel ``kv``, numpy element-wise arithmetic, a Python-level loop), and
records how long it took.  The handler's own time is taken out of every
operation's raw time, and each operation is reported scaled to a fixed
reference speed:

    scaled = raw * REFERENCE_S / (mean kernel time during the operation,
                                  widened by PAD_S on each side)

The mean, not the median: kernel times fall into two modes, and their mean
follows the share of slow stretches, which is what slows the operation.

``REFERENCE_S`` is a constant, about the kernel's mean time inside runs on
the machine the README's figures come from, so a scaled time reads as
seconds on that machine at its usual speed.  Raw times are kept beside the scaled ones in
the result file.  The kernel depends on numpy and scipy only, never on
geocens, so a change to geocens cannot move it; it touches no state of the
program, and Python runs the handler between bytecodes of the main thread,
never inside a call into LAPACK or scipy.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import kv

REFERENCE_S = 0.0027
INTERVAL_S = 0.05
PAD_S = 1.0


class SpeedSampler:
    def __init__(self):
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((80, 80))
        self.spd = a @ a.T + 80.0 * np.eye(80)
        self.rhs = rng.standard_normal((80, 20))
        self.h = rng.uniform(0.01, 5.0, 3000)
        self.at: list[float] = []  # kernel start times, increasing
        self.took: list[float] = []  # kernel durations
        self.stolen = 0.0  # total time spent in the handler
        self._busy = False
        self._kernel()  # first-call costs

    def _kernel(self):
        c = cho_factor(self.spd, lower=True)
        cho_solve(c, self.rhs)
        r = self.h ** 0.3 * kv(0.3, self.h)
        np.exp(-self.h, out=r)
        s = 0.0
        for i in range(1500):
            s += (i % 7) * 0.5

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self._busy = False
        self.stolen += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """Run ``fn``; return its result, its raw time (handler time taken
        out) and its span ``(start, end)``."""
        s0 = self.stolen
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        return out, (t1 - t0) - (self.stolen - s0), (t0, t1)

    def factor(self, span) -> float:
        """``REFERENCE_S`` over the mean kernel time in the padded span
        (1.0 when the sampler did not run)."""
        lo = bisect.bisect_left(self.at, span[0] - PAD_S)
        hi = bisect.bisect_right(self.at, span[1] + PAD_S)
        if hi <= lo:
            return 1.0
        return REFERENCE_S / statistics.fmean(self.took[lo:hi])
