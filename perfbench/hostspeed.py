"""Host speed probe.

Shared hosts change speed by up to a factor of two for minutes at a time,
as neighbours load the machine.  A fixed piece of pure-Python work that
does what quatprym's kernels do (Fraction products, tuple-keyed counting,
small tuple arithmetic), timed on the measuring thread itself every half
second while a workload runs, tells how fast the host was meanwhile.  The
benchmark's end-to-end times are reported at a reference speed: the speed
at which ``reference_work()`` takes REFERENCE_S.  The reference work is
part of the benchmark, not of the program, so no change to the program
moves it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from itertools import combinations

REFERENCE_S = 0.010
SAMPLE_INTERVAL_S = 0.5

_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + 2 * j) % 3) for j in range(10)]
           for i in range(10)]
_WEIGHTS = [tuple(Fraction((t * c) % 5 - 2, 2) for c in range(3)) for t in range(12)]


def reference_work():
    """Run the fixed reference work once; return its wall time in seconds."""
    start = time.perf_counter()
    cols = list(zip(*_MATRIX))
    product = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in _MATRIX]
    counts = {}
    for combo in combinations(_WEIGHTS, 3):
        key = tuple(sum(w[c] for w in combo) for c in range(3))
        counts[key] = counts.get(key, 0) + 1
    acc = (1, 0)
    for t in range(3000):
        acc = (acc[0] * (-1 if t % 3 else 1), (acc[1] + t) % 4)
    assert product and counts and acc
    return time.perf_counter() - start


def scale(samples):
    """Factor from measured seconds to seconds at the reference speed: the
    mean of REFERENCE_S / sample, which is the time-average of the host's
    relative speed when the samples are evenly spaced."""
    return REFERENCE_S * sum(1 / s for s in samples) / len(samples)


class Sampler:
    """Times reference_work() before, every SAMPLE_INTERVAL_S during (from
    a SIGALRM handler, so on the working thread), and after a timed block."""

    def __init__(self):
        self.outside = []   # samples before and after the block
        self.inside = []    # samples taken while the block ran
        self.inside_s = 0.0  # their total, to leave out of measured times

    def _tick(self, signum, frame):
        sample = reference_work()
        self.inside.append(sample)
        self.inside_s += sample

    def clock(self):
        """perf_counter() minus the time spent in samples so far."""
        return time.perf_counter() - self.inside_s

    def __enter__(self):
        self.outside.append(reference_work())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.outside.append(reference_work())
        return False

    @property
    def scale(self):
        """scale() of the samples taken during the block, or of those
        taken around it when there are none."""
        return scale(self.inside or self.outside)
