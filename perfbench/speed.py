"""Host speed, sampled while a workload runs, to scale its times to a fixed speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up
to 2x over seconds to minutes.  A timer interrupts the workload every
``INTERVAL_S`` and runs a small fixed reference kernel (small numpy matrix
products and softmaxes, an integer and dict loop, word counting and object
allocation: the kinds of work ngramlm does), recording how long it took.
A timed interval of the workload is then reported as

    (wall time - reference time spent inside it) * REFERENCE_S / local reference time

that is, as the time the interval would take on a host where the kernel
takes ``REFERENCE_S``.  While the host holds still the scaled time is the
wall time times a constant, so a change to the program moves it by the same
share as it moves the wall time.  The kernel is part of the benchmark and
does not depend on ngramlm.
"""

from __future__ import annotations

import bisect
import signal
import statistics

import numpy as np

from tracer import perf_counter

INTERVAL_S = 0.04
# Median kernel time on the machine the bounds were set on (2-vCPU Intel Xeon VM).
REFERENCE_S = 1.0e-3
NEAREST = 3

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((16, 64))
_W = _rng.standard_normal((64, 64)) * 0.1
_TEXT = " ".join(f"w{i}" for i in _rng.integers(0, 5000, 600))


class _Pair:
    __slots__ = ("key", "span")

    def __init__(self, key, span):
        self.key = key
        self.span = span


def reference_kernel() -> int:
    """Fixed work of the kinds ngramlm does: numpy calls on small arrays,
    an interpreter loop, string splitting and counting, object allocation."""
    x = _X
    for _ in range(12):
        h = x @ _W
        h = h - h.max(axis=1, keepdims=True)
        e = np.exp(h)
        x = e / e.sum(axis=1, keepdims=True)
    acc, table = 0, {}
    for i in range(800):
        acc += i * i % 7
        table[i & 63] = acc
    counts: dict = {}
    for word in _TEXT.split():
        counts[word] = counts.get(word, 0) + 1
    acc += len(sorted(counts.items()))
    pairs = [_Pair(i, (i, i + 1)) for i in range(400)]
    return acc + sum(p.key for p in pairs if p.span[0] & 1)


class HostSpeed:
    """Reference-kernel samples taken on a timer; scales intervals by them."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.starts: list = []  # sample start times, increasing
        self.ends: list = []
        self._previous = None

    def sample(self):
        self.starts.append(perf_counter())
        reference_kernel()
        self.ends.append(perf_counter())

    def _tick(self, signum, frame):
        # A tick that lands inside a sample (the vCPU stalled past the
        # interval) is dropped, so samples never nest and stay in order.
        if len(self.ends) == len(self.starts):
            self.sample()

    def __enter__(self):
        for _ in range(NEAREST):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(NEAREST):
            self.sample()
        return False

    def _inside(self, a: float, b: float) -> range:
        return range(bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b))

    def reference_s(self, a: float, b: float) -> float:
        """Local kernel time: median of the samples started in [a, b], or of
        the ``NEAREST`` samples nearest its midpoint when it holds fewer."""
        idx = self._inside(a, b)
        if len(idx) < NEAREST:
            mid = (a + b) / 2
            j = bisect.bisect_left(self.starts, mid)
            near = range(max(0, j - NEAREST), min(len(self.starts), j + NEAREST))
            idx = sorted(near, key=lambda i: abs(self.starts[i] - mid))[:NEAREST]
        return statistics.median(self.ends[i] - self.starts[i] for i in idx)

    def relative(self) -> float:
        """Host speed over the whole run, as a multiple of the reference speed."""
        return REFERENCE_S / statistics.median(e - s for s, e in zip(self.starts, self.ends))

    def scaled(self, a: float, b: float) -> float:
        """Seconds [a, b] would take at the reference speed, kernel time excluded."""
        busy = sum(self.ends[i] - self.starts[i] for i in self._inside(a, b))
        return (b - a - busy) * REFERENCE_S / self.reference_s(a, b)
