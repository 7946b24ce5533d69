"""Host speed probe: a fixed, benchmark-owned reference timed during a run.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to a factor of two over minutes, while CPU time stays equal to wall time, so
no process clock removes the drift. The probe times a fixed piece of work
that uses no package code, made like the workloads' own work: an
interpreted loop with attribute access and calls and small-array numpy
calls, about two fifths of its time each, and a pass over an array larger
than the caches for the rest. It runs at most every
``PROBE_EVERY_S`` seconds: between ops, as each Monte-Carlo run or trial
starts and as a matrix game is solved. Each timed stretch is then scaled by
the host's speed while it ran, the mean reference time over the samples
taken within ``WINDOW_S`` of it, to the speed at which the reference takes
``REFERENCE_S``. A change to the package cannot move the reference, so it
moves the scaled timings exactly as it moves the raw ones.

Time spent probing is kept out of every timing: the workloads read
``work_clock``, which stops while the probe runs.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

#: Seconds the reference takes at the speed all scaled timings refer to.
REFERENCE_S = 0.009
PROBE_EVERY_S = 0.25
PROBE_REPEATS = 2
WINDOW_S = 0.5
#: float64 values of the array the reference sums: 16 MB.
SWEEP_VALUES = 2_000_000

_probing_s = 0.0


def work_clock() -> float:
    """``perf_counter`` less the time spent probing so far."""
    return time.perf_counter() - _probing_s


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value


def _bump(cell: _Cell, x: float) -> float:
    cell.value = cell.value * 0.999 + math.log1p(x)
    return cell.value


def reference_work(sweep: np.ndarray) -> float:
    cells = [_Cell(float(i)) for i in range(16)]
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(6000):
        acc += _bump(cells[i & 15], i * 0.5)
        table[i & 63] = acc
    x = np.linspace(0.1, 1.0, 8)
    for _ in range(600):
        shift = x.max()
        x = np.log1p(np.exp(x - shift)) + 0.01 * shift
    return acc + float(x.sum()) + sum(table.values()) + float(sweep.sum())


class SpeedProbe:
    """Samples the reference's time; call it wherever the run may pause."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Work-clock time of each sample.
        self.at: list[float] = []
        self._sweep = np.linspace(0.0, 1.0, SWEEP_VALUES)
        self._next = 0.0

    def __call__(self, force: bool = False) -> None:
        global _probing_s
        start = time.perf_counter()
        if not force and start < self._next:
            return
        at = work_clock()
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            reference_work(self._sweep)
            self.samples.append(time.perf_counter() - t0)
            self.at.append(at)
        end = time.perf_counter()
        _probing_s += end - start
        self._next = end + PROBE_EVERY_S

    def reference_s(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Mean reference time within ``WINDOW_S`` of the work-clock stretch
        from ``t0`` to ``t1``, or over the whole run if no sample is that near."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        near = self.samples[lo:hi] or self.samples
        return sum(near) / len(near)

    def scale(self, t0: float, t1: float) -> float:
        """Factor that takes seconds spent from ``t0`` to ``t1`` to
        reference-speed seconds."""
        return REFERENCE_S / self.reference_s(t0, t1)

    def hook(self, owner, name: str) -> None:
        """Probe, when due, at each call of ``owner.name``."""
        inner = getattr(owner, name)

        def probed(*args, **kwargs):
            self()
            return inner(*args, **kwargs)

        setattr(owner, name, probed)


#: The run's one probe.
PROBE = SpeedProbe()
