"""Speed probe: how fast the benchmark's CPU runs interpreter work right now.

The shared host this benchmark was built on changes the speed of a vCPU by up
to 40% for seconds to minutes at a time, independently of the program, which
moved medians of whole runs by 25%.  A background thread, pinned to the same
CPU as the children, times a fixed slice of work every 50 ms: integer and
`Fraction` arithmetic, small numpy calls, dict and JSON work, the kinds of
work `dcset` does, about 1.5 ms in all, so it takes about 3% of that CPU.
`factor(a, b)` is the reference slice time divided by the mean slice time
measured between clock stamps `a` and `b`; a wall time taken over that
interval, multiplied by it, is in seconds at the reference speed.  The probe
does not use the program under test, so a faster program still reads faster.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from fractions import Fraction

import numpy as np

# Slice time on the reference box (2-vCPU Intel Xeon, 2.0 GHz nominal,
# Python 3.11.7, numpy 2.4.6); a constant, so that runs compare.
REFERENCE_SLICE_S = 0.00150
PERIOD_S = 0.05
_POINTS = np.linspace(0.001, 0.999, 64)


def _slice() -> None:
    total = 0
    for i in range(5000):
        total += i * i
    frac = Fraction(0)
    for i in range(1, 120):
        frac += Fraction(1, i)
    bounds = np.array([float(Fraction(k, 97)) for k in range(1, 40)])
    for _ in range(20):
        np.searchsorted(bounds, _POINTS)
        np.clip(_POINTS * 8, 0, 7).astype(np.int64)
    groups: dict = {}
    for k in range(200):
        groups.setdefault(k % 17, []).append(float(k))
    json.dumps({"bounds": bounds.tolist(), "groups": len(groups)}, sort_keys=True)


class SpeedProbe:
    """Background sampler of interpreter speed; use as a context manager."""

    def __init__(self, clock):
        self.clock = clock
        self.samples: list[tuple[float, float]] = []  # (start stamp, slice seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self) -> None:
        while True:
            t0 = self.clock()
            _slice()
            self.samples.append((t0, self.clock() - t0))
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        while not self.samples:
            time.sleep(0.001)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, a: float, b: float) -> float:
        """Reference speed over measured speed between stamps a and b.

        A program's wall time sums its slowness over the interval, so this
        takes the mean slice time, not the median.  The slowest tenth is
        dropped: those are mostly slices the scheduler interrupted.
        """
        inside = sorted(d for t, d in self.samples if a <= t <= b)
        if not inside:  # interval shorter than the sampling period
            inside = [d for t, d in self.samples if t <= b][-1:]
        kept = inside[: max(1, len(inside) * 9 // 10)]
        return REFERENCE_SLICE_S / statistics.fmean(kept)
