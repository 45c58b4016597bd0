"""Machine-speed sampling, to scale the timed end-to-end metrics.

On a host whose cores, caches and memory bandwidth are shared with other
processes, the speed of one Python process drifts by up to 40 % within
seconds and between minutes, and a run of under a minute can sit wholly in
a slow or a fast stretch.  The same pass then takes 2.8 s in one run and
4.5 s in the next, which no median within a run removes.

``probe`` times a fixed mix of standard-library work that never touches
mfcat: integer arithmetic, ``Fraction`` arithmetic and a tuple-keyed dict.
While a ``Sampler`` is on, a timer signal runs the probe every
``INTERVAL_S`` of wall time, in the middle of whatever mfcat is doing.  A
span's time is then scaled by ``REFERENCE_S / mean(probe times)``: scaled
times are seconds at the reference speed, the time the span would have taken
had every probe taken ``REFERENCE_S``.  The probe runs no mfcat code, so a
change to mfcat moves scaled times exactly as much as raw ones.

Probe time is not part of any measured span: timers subtract ``spent()``.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# About the probe's time on an unloaded core of a 2.1 GHz Xeon, CPython 3.11.
REFERENCE_S = 0.001
INTERVAL_S = 0.1

# Seconds spent in probes run by the timer signal.  A process has one
# SIGALRM handler, so this total is process-wide as well.
_spent = 0.0


def spent() -> float:
    """Seconds spent so far in probes run by a ``Sampler``'s timer.

    Read it after the clock when a span starts and before the clock when it
    ends, so a probe that falls between the two reads is never subtracted
    from a span that does not hold it.
    """
    return _spent


def probe() -> float:
    """Wall time of the fixed mix, about ``REFERENCE_S`` on an unloaded core."""
    start = time.perf_counter()
    total = 0
    for i in range(4000):
        total += i * i
    fraction = Fraction(0)
    for i in range(1, 120):
        fraction += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, 2)
    table = {(i, i ^ 0x55): i for i in range(1200)}
    total += sum(table[(k, k ^ 0x55)] for k in range(0, 1200, 3))
    return time.perf_counter() - start


class Sampler:
    """Probes every ``INTERVAL_S`` between ``start`` and ``stop``.

    ``stop`` adds ``end_probes`` probes of its own, so a span shorter than
    the interval still gets a scale.
    """

    def __init__(self, end_probes: int = 1):
        self.end_probes = end_probes
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        global _spent
        seconds = probe()
        self.samples.append(seconds)
        _spent += seconds

    def start(self) -> None:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Stop the timer and return the scale of the span since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [probe() for _ in range(self.end_probes)]
        return REFERENCE_S / statistics.fmean(self.samples)
