"""Speed probe: a fixed piece of work, independent of the package, timed
every EVERY_S seconds while items run, to follow the speed of the machine.

On a shared 2-core box the same computation drifts by ±15% or more over
tens of seconds.  Over two minutes of such drift, an eta_vertical call
moved by 30% (max - min over median of 10 s windows) while its ratio to
this probe moved by 7%; a pure-Python loop tracked it less well (14%).
Timings are therefore reported at the probe's reference speed: a duration
measured while the probe takes d seconds is scaled by NOMINAL_S / d.  The
unscaled figures are reported next to them.

The probe is sampled from a timer signal, so also in the middle of an item
that lasts longer than EVERY_S; the handler runs in the benchmark's one
thread, between two bytecodes of the item.  Items and spans are timed with
busy_clock(), which leaves out the time spent in samples.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np
from scipy.special import betainc

# Median duration of one probe on the box that defined the benchmark
# (2 cores, CPython 3.11.7, numpy 2.4.6, scipy 1.17.1).  It only fixes the
# unit: scaled timings read as seconds at that speed.
NOMINAL_S = 3.3e-3
REPEATS = 5
WINDOW = 4
EVERY_S = 0.1

_in_samples = 0.0          # seconds this process spent taking samples


def busy_clock() -> float:
    """perf_counter() less the time spent taking probe samples."""
    return perf_counter() - _in_samples


_LOG_N = np.log(np.arange(1, 2001, dtype=float))
_X = [float(x) for x in np.linspace(0.01, 0.99, 400)]


def work() -> float:
    """The complex exp-and-sum of a zeta partial sum, and scalar calls into
    a scipy ufunc: the two kinds of work the package spends its time on."""
    total = 0j
    for k in range(20):
        total += np.exp(-(0.7 + 1000.5j + k) * _LOG_N).sum()
    for x in _X:
        total += float(betainc(5, 5, x))
    return abs(total)


class Probe:
    """Probe samples of one run: each the median of REPEATS timings.

    Inside `with probe:` a sample is taken on entry, every EVERY_S seconds
    from a timer signal, and on exit.
    """

    def __init__(self):
        self.durations: list[float] = []
        self._sampling = False

    def sample(self) -> None:
        global _in_samples
        if self._sampling:         # the timer fired during a sample
            return
        self._sampling = True
        start = perf_counter()
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            work()
            times.append(perf_counter() - t0)
        self.durations.append(statistics.median(times))
        _in_samples += perf_counter() - start
        self._sampling = False

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self, first: int, end: int) -> float:
        """Scale for an item during which samples first .. end - 1 were
        taken (none when first == end), from the mean of those and of the
        WINDOW samples on either side.  A sample is a median, so one
        preempted repeat does not count; the mean follows the share of fast
        and slow phases, between which the box switches within an item."""
        d = self.durations
        lo, hi = max(0, first - WINDOW), min(len(d), end + WINDOW)
        return NOMINAL_S / statistics.fmean(d[lo:hi])

    def summary(self) -> dict:
        d = self.durations
        return {"samples": len(d), "median": statistics.median(d),
                "min": min(d), "max": max(d)}
