"""Machine-speed probe: makes timings comparable across the speed swings of
a shared machine.

On a 2-core Xeon virtual machine shared with other tenants, the same work
ran 1.5 to 1.9 times slower for stretches of a second to minutes, in CPU
time as well as wall time.  That swing is larger than any bound a
benchmark could keep.  So, while the benchmark measures, a timer signal interrupts it
every ``INTERVAL_S`` seconds and runs ``reference()``, a fixed piece of
interpreter and numpy work that never changes with the code under test.
An interval of measured work is then reported as

    (wall time - time spent in probe samples inside it) / slowdown

where the slowdown is the mean duration of the probe samples taken within
``PAD_S`` of the interval, divided by ``NOMINAL_S``, the reference's
duration on that virtual machine when it was not slowed.  The result is the
interval's time at nominal machine speed.  Raw wall times are printed
beside the normalised ones.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

# The machine's speed changes within a second.  On repeated identical fits
# (0.8 s each) and batches of 100 predictions (0.25 s), samples every 0.05 s
# weighed within 0.1 s left a coefficient of variation of 0.05-0.08, against
# 0.11-0.20 raw; samples every 0.1 s weighed within 1 s left 0.075 on the
# fits, where the narrower window left 0.05.
INTERVAL_S = 0.05
PAD_S = 0.1
NOMINAL_S = 0.002


def reference(buffer: np.ndarray) -> int:
    """Fixed work with the shape of the benchmark's own: string keys in a
    dict, then elementwise numpy passes over ``buffer`` (64 KB), in place,
    so that no allocation or page fault adds its own noise."""
    counts: dict[str, int] = {}
    for i in range(6000):
        key = str(i % 997)
        counts[key] = counts.get(key, 0) + i
    for _ in range(40):
        np.multiply(buffer, 1.0001, out=buffer)
        np.add(buffer, 1.0, out=buffer)
        np.sqrt(buffer, out=buffer)
    return len(counts)


@contextmanager
def deferred_samples():
    """Hold probe samples back until the block ends, so that a timed
    operation much shorter than INTERVAL_S is never interrupted by one.
    Harmless when no probe runs."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class SpeedProbe:
    """Context manager: samples ``reference()`` on a timer while entered.

    Only one probe may run at a time in a process, and only in the main
    thread, because it owns SIGALRM.
    """

    def __init__(self) -> None:
        self._buffer = np.ones(8192)
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._sampling = False
        self.starts = self.durations = self._cumulative = np.zeros(0)

    def _sample(self, signum, frame) -> None:
        # A sample that overruns INTERVAL_S (the machine stalled) must not be
        # interrupted by the next one: samples stay in time order, which
        # slowdown() and normalize() rely on.
        if self._sampling:
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            reference(self._buffer)
            self._starts.append(start)
            self._ends.append(time.perf_counter())
        finally:
            self._sampling = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.starts = np.asarray(self._starts)
        self.durations = np.asarray(self._ends) - self.starts
        self._cumulative = np.concatenate(([0.0], np.cumsum(self.durations)))

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe duration within PAD_S of [start, end], over NOMINAL_S;
        1.0 when no sample fell there."""
        lo, hi = np.searchsorted(self.starts, (start - PAD_S, end + PAD_S))
        if hi == lo:
            return 1.0
        return float(self.durations[lo:hi].mean()) / NOMINAL_S

    def normalize(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would take at nominal speed,
        leaving out the probe's own samples inside it."""
        lo, hi = np.searchsorted(self.starts, (start, end))
        probe_time = self._cumulative[hi] - self._cumulative[lo]
        return (end - start - probe_time) / self.slowdown(start, end)
