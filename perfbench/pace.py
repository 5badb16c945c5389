"""Host speed, measured between runs, for scaling the benchmark's times.

The hosts this benchmark runs on are shared.  On them the same run takes
from 0.7x to 2x its median wall time, in phases of seconds to minutes,
so a median over one run of the benchmark moves by a quarter between
runs of identical code.  A fixed piece of interpreter work that uses no
``repro`` code, ``calibration()``, slows down in the same phases.  The
benchmark runs it before and after each timed interval and reports the
interval at the reference speed: the wall time times
``CALIBRATION_REF_S`` over the mean of the two calibrations.  A change
to the program moves the scaled time as it moves the wall time; the
host's phases mostly cancel.

Standard library only, so that it can load before the set-up clock
starts.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

clock = time.perf_counter

#: Reference host speed: the speed at which one ``calibration()`` takes
#: this many seconds (about its time on a quiet 2.0 GHz Xeon vCPU).
CALIBRATION_REF_S = 0.007


#: 16 MB of real (touched) memory, several times a core's cache.
_BUFFER = bytearray(range(256)) * (1 << 16)


def calibration(items: int = 8_000, reads: int = 20_000) -> int:
    """Fixed interpreter work: dict lookups, list appends and small
    tuples, as the simulator's inner loops do, then reads at
    pseudo-random places in ``_BUFFER``, which slow down when other
    tenants of the host fill its memory caches, as large runs do."""
    table: dict = {}
    total = 0
    for i in range(items):
        row = table.get(i % 1009)
        if row is None:
            row = table[i % 1009] = []
        row.append((i, i * i % 7))
        total += len(row) + row[-1][1]
    mask = len(_BUFFER) - 1
    j = 1
    for _ in range(reads):
        j = (j * 1103515245 + 12345) & mask
        total += _BUFFER[j]
    return total


class Pace:
    """Calibrations over time, and wall times scaled by them."""

    def __init__(self) -> None:
        self.at: list = []  # clock() at the end of each calibration
        self.took: list = []  # its duration in seconds
        self.segments: list = []  # (start, end) of each lap
        self.lap_start = 0.0

    @classmethod
    def started(cls) -> "Pace":
        """A pace that has calibrated once and starts its first lap now."""
        pace = cls()
        pace.sample()
        pace.lap_start = clock()
        return pace

    def sample(self) -> float:
        """Run one calibration now, with cyclic GC off so that the
        program's heap does not slow it; returns its duration."""
        gc.disable()
        try:
            t0 = clock()
            calibration()
            t1 = clock()
        finally:
            gc.enable()
        self.at.append(t1)
        self.took.append(t1 - t0)
        return t1 - t0

    def scale(self, t0: float, t1: float) -> float:
        """``CALIBRATION_REF_S`` over the mean of the calibrations just
        before ``t0`` and just after ``t1``."""
        before = bisect.bisect_right(self.at, t0) - 1
        after = bisect.bisect_left(self.at, t1)
        near = [self.took[i] for i in (before, after) if 0 <= i < len(self.took)]
        return CALIBRATION_REF_S / statistics.fmean(near)

    def lap(self) -> None:
        """End the current lap now and calibrate; the next lap starts
        after the calibration, so calibrations are never timed."""
        self.segments.append((self.lap_start, clock()))
        self.sample()
        self.lap_start = clock()

    def total(self) -> float:
        """Sum of the ended laps, each at the reference speed."""
        return sum((t1 - t0) * self.scale(t0, t1) for t0, t1 in self.segments)
