"""Timing helpers: the frozen host-calibration loop, normalization, percentiles.

On a shared 2-core host, speed drifts by tens of percent over minutes, and
CPU time drifts with it.  Every timed segment is therefore bracketed by
:func:`calibrate` readings and reported in *reference seconds*: wall seconds
scaled by ``C_REF / calibration`` (see :class:`Clock`), i.e. the time the
segment would take on a host where the calibration loop takes exactly
``C_REF`` seconds.

The calibration loop and ``C_REF`` are frozen: changing either rescales
every normalized number and invalidates all earlier baselines.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np

#: Median seconds of one :func:`calibrate` call on the reference host
#: (2-core x86-64 container, Python 3.11, NumPy 2.4).  Frozen.
C_REF = 0.022

_CAL_KEYS = 20_000
_CAL_NP_ITERS = 200
_CAL_NP_SIZE = 4096


def calibration_loop(seed: int = 12345) -> float:
    """Fixed work shaped like the program's hot paths.  Frozen.

    Pure-Python dict updates and a keyed sort (the per-node bookkeeping of
    prepare and the DP planning), then a small NumPy loop of short-array
    operations (the dense kernels' shape).  Returns a checksum so the work
    cannot be skipped.
    """
    table: dict = {}
    x = seed
    for i in range(_CAL_KEYS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 0xFFFF
        table[key] = table.get(key, 0) + i
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    a = np.arange(_CAL_NP_SIZE, dtype=np.float64)
    acc = 0.0
    for _ in range(_CAL_NP_ITERS):
        b = np.sort(a[::-1] * 1.0001)
        acc += float(b[7])
    return len(ranked) + acc


def calibrate() -> float:
    """Wall seconds of one :func:`calibration_loop` call.

    The garbage collector is paused: a collection would traverse the
    program's heap, making the reading depend on heap size, not host speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated.

    Raises on no samples rather than inventing a value.
    """
    if len(values) == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(values, q))


class Clock:
    """Timestamped calibration readings and per-segment normalization.

    The benchmark calls :meth:`mark` at every segment boundary.  A
    segment's factor is ``C_REF`` over the mean reading taken within
    ``window`` seconds of the segment (at least ``nearest`` readings).  On
    the reference host a single 20 ms reading swings by ±30% from one
    second to the next, while the drift that normalization must remove
    plays out over minutes, so several readings around a segment track the
    drift without adding a single reading's noise.  The mean, not the
    median: a slow reading is mostly time the host gave to other tenants,
    and a segment loses such time too (over three sets of ten runs per
    workload, the mean gave 29 of 48 pass spreads lower than the median
    and 17 higher).
    """

    def __init__(self, window: float = 4.0, nearest: int = 5) -> None:
        self.window = window
        self.nearest = nearest
        #: ``(perf_counter time, seconds)`` of every reading taken.
        self.readings: List[Tuple[float, float]] = []

    def mark(self) -> None:
        """Take one calibration reading now."""
        t = time.perf_counter()
        self.readings.append((t, calibrate()))

    def factor(self, t0: float, t1: float) -> float:
        """Wall→reference factor of the segment ``[t0, t1]``."""
        if not self.readings:
            raise ValueError("no calibration readings")
        near = [r for t, r in self.readings if t0 - self.window <= t <= t1 + self.window]
        if len(near) < self.nearest:
            mid = (t0 + t1) / 2.0
            ranked = sorted(self.readings, key=lambda tr: abs(tr[0] - mid))
            near = [r for _, r in ranked[: self.nearest]]
        return C_REF / statistics.fmean(near)
