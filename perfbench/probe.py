"""A speed probe that runs inside the measured process, interleaved with it.

This host's speed drifts by tens of percent within seconds and between
minutes: the same seeded ``train`` took 14.4 s and 17.3 s a few minutes
apart, with CPU time equal to wall time, so the slowdown is the
processor's, not the scheduler's. A probe run before and after a command
does not see what happened during it, and one on the other core sees that
core. So a timer signal interrupts the measured process every
``PERIOD_S`` and runs a fixed probe on its main thread: an arithmetic
loop, a loop over Python objects, lists and dicts, and a random gather
from a buffer larger than the core's own caches, so that it slows down
with the host as the interpreter-bound and the memory-bound workloads
do. Each sample runs the probe twice and times the second pass, so that
the caches the program has just filled with its own data do not slow the
timed pass.

The host's speed at a sample is ``REFERENCE_S`` over the timed pass. A
command's time at reference speed is its wall time minus the probe's own
time, times the mean speed of the samples taken during it: the seconds
the command would have taken on a host where the probe takes
``REFERENCE_S``. Over 14 repeats of a fixed piece of each workload (a
short ge ``train``, a ``baselines`` on the large cache, a ``report``), on
a host switching between a fast and a slow state, the coefficient of
variation went from 0.13, 0.08 and 0.17 on the wall clock to 0.04, 0.08
and 0.08 at reference speed. The probe costs 2 to 3% of the measured
time, and its buffer ``BUFFER_BYTES`` of resident memory.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.1
LOOP = 3_000
OBJECTS = 512
OBJECT_STEPS = 800
BUFFER_BYTES = 64 << 20
GATHERS = 30_000
# About the probe's duration on the 2-vCPU Xeon (Sapphire Rapids, KVM) the
# benchmark was written on; any fixed value would do.
REFERENCE_S = 1.0e-3


class _Item:
    __slots__ = ("number", "items")

    def __init__(self, number: int) -> None:
        self.number = number
        self.items = [number]


class Probe:
    """Samples ``(start, cost, timed pass)`` of the probe while started."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []
        self._buffer = self._index = None
        self._names = {i: str(i) for i in range(OBJECTS)}
        self._floats = [float(i) for i in range(OBJECTS)]
        self._items = [_Item(i) for i in range(OBJECTS)]

    def _probe(self) -> float:
        total = 0
        for i in range(LOOP):
            total += i * i % 7
        names, floats, items = self._names, self._floats, self._items
        mixed = 0.0
        for i in range(OBJECT_STEPS):
            k = i * 37 % OBJECTS
            item = items[k]
            mixed += floats[k] * 0.5 + item.number
            if names[k]:
                mixed += len(item.items)
        return total + mixed + float(self._buffer[self._index].sum())

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._probe()
        timed = time.perf_counter()
        self._probe()
        end = time.perf_counter()
        self.samples.append((start, end - start, end - timed))

    def start(self) -> None:
        import numpy as np
        self._buffer = np.ones(BUFFER_BYTES // 8)
        self._index = np.random.default_rng(0).integers(0, len(self._buffer), GATHERS)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def at_reference(self, start: float, end: float) -> dict:
        """The interval's wall time, probe time and time at reference speed."""
        inside = [s for s in self.samples if start <= s[0] < end]
        probe_s = sum(cost for _, cost, _ in inside)
        probes = len(inside)
        if not inside:  # shorter than one period: use the whole run's speed
            inside = self.samples or [(0.0, 0.0, REFERENCE_S)]
        speed = sum(REFERENCE_S / timed for _, _, timed in inside) / len(inside)
        return {"wall_s": end - start, "probe_s": probe_s, "probes": probes,
                "speed": speed, "ref_s": (end - start - probe_s) * speed}
