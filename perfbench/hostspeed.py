"""Host speed, sampled while the benchmark measures.

The benchmark shares its host with other jobs.  On the 2-core host it
was written on, the same Python code ran up to 1.9 times slower while
the core's sibling was busy, and the state changed within seconds: raw
wall times of one pass spread by 15-30 % from run to run, more than any
bound a regression test could use.

The sampler times a fixed pure-Python kernel (Fraction, big-integer and
dict work, the solver's mix) every INTERVAL_S seconds from a SIGALRM
handler.  A measured interval is then reported at reference speed: its
wall time, less the time spent in the handler, times the mean of
REFERENCE_KERNEL_S / kernel time over the samples taken during the
interval and WINDOW_S around it.  The kernel is not library code, so no
change to the library can move it.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

REFERENCE_KERNEL_S = 0.003
INTERVAL_S = 0.1
WINDOW_S = 0.5

_clock = time.perf_counter


def kernel():
    x = Fraction(3, 7)
    big = 3 ** 200
    modulus = 7 ** 300
    counts = {}
    for i in range(600):
        x = Fraction(x.numerator % 1000003 + i,
                     x.denominator % 999983 + 1) * Fraction(i + 2, i + 3)
        big = (big * 1234567 + i) % modulus
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return x, big, counts


class SpeedSampler:
    """Kernel timings, `(start, seconds)`, taken every INTERVAL_S seconds
    while the sampler is entered and whenever `sample` is called."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.handler_s = 0.0
        self._previous = None

    def sample(self, count: int = 1):
        # the collector would walk the library's objects inside the kernel
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = _clock()
                kernel()
                self.samples.append((start, _clock() - start))
        finally:
            if collecting:
                gc.enable()

    def _tick(self, signum, frame):
        start = _clock()
        self.sample()
        self.handler_s += _clock() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Mean of REFERENCE_KERNEL_S / kernel time over the samples taken
        from WINDOW_S before `start` to WINDOW_S after `end`; the nearest
        sample when none falls in that window."""
        ratios = [REFERENCE_KERNEL_S / s for t, s in self.samples
                  if start - WINDOW_S <= t <= end + WINDOW_S]
        if not ratios:
            t, s = min(self.samples, key=lambda ts: abs(ts[0] - start))
            return REFERENCE_KERNEL_S / s
        return sum(ratios) / len(ratios)
