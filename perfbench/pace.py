"""Host speed reference: wall times scaled to a fixed speed of the host.

The CPUs of a shared virtual machine change speed by up to 2x within
seconds, and each CPU on its own: the host runs other guests on the same
cores, caches and memory.  The benchmark pins itself, and so every
process it starts, to one CPU, and between operations it times a fixed
reference chunk of work on that CPU that does not touch pancha: an
interpreter loop, small numpy calls and a pass over an array twice the
size of L2, which feels the neighbours' use of caches and memory as the
operations do.  An operation's wall time is scaled by
``REFERENCE_S`` divided by the mean of the two readings around it, which
gives the time it would have taken at the speed where the chunk takes
``REFERENCE_S``.  Reported timings are in that unit; the raw wall times
are printed beside them.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: seconds the reference chunk takes at the reference speed
REFERENCE_S = 0.002
#: a stretch of operations between two readings ends with the first
#: operation to end this long after the stretch began
EVERY_S = 0.05
#: repetitions of each part of the chunk per reading; the best one counts
REPS = 3

_SMALL = np.array([[0.6, 0.1j], [0.1j, 0.6]])
_LARGE = np.ones(1 << 19)  # 4 MiB, twice the L2 cache of one core
_OUT = np.empty_like(_LARGE)


def _interpreter():
    total, seen = 0, {}
    for i in range(4000):
        total += i * i % 7
        seen[i & 63] = total
    return total


def _small_numpy():
    a = _SMALL
    for _ in range(100):
        a = (a @ _SMALL) / np.linalg.norm(a)
    return a


def _memory():
    return float(np.multiply(_LARGE, 1.0001, out=_OUT).sum())


def chunk_seconds() -> float:
    """Time of one reference chunk: the best of ``REPS`` for each part."""
    total = 0.0
    for part in (_interpreter, _small_numpy, _memory):
        best = float("inf")
        for _ in range(REPS):
            start = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - start)
        total += best
    return total


def pin() -> set[int]:
    """Pin this process, and the processes it starts, to one CPU; return
    the CPUs it was allowed before."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


class Pace:
    """Readings of the reference chunk, taken as operations run."""

    def __init__(self):
        self.readings: list[float] = []
        self.reset()

    def read(self, cpus=None) -> float:
        """Chunk time on this process's CPU, or the mean over ``cpus``."""
        if not cpus:
            value = chunk_seconds()
        else:
            own = os.sched_getaffinity(0)
            values = []
            try:
                for cpu in sorted(cpus):
                    os.sched_setaffinity(0, {cpu})
                    values.append(chunk_seconds())
            finally:
                os.sched_setaffinity(0, own)
            value = statistics.fmean(values)
        self.readings.append(value)
        return value

    def reset(self):
        """Take a fresh reading to start the next stretch."""
        self.last = self.read()
        self.when = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.when >= EVERY_S

    def step(self) -> float:
        """Take a reading; return the scale of the stretch since the last."""
        before = self.last
        self.reset()
        return scale(before, self.last)


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference time between two readings."""
    return 2.0 * REFERENCE_S / (before + after)
