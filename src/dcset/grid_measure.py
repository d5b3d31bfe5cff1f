"""Dyadic discretization of (0,1): grids, bin sets, fat Cantor sets, cyclic shifts.

Points are plain floats in the open interval; all set algebra happens at bin
level in exact rational arithmetic (`fractions.Fraction`).  Bins follow the
half-open convention [k/n, (k+1)/n).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import BadParameter, OutOfDomain, UndefinedPoint

__all__ = [
    "UnitGrid",
    "BinSet",
    "CyclicShift",
    "FatCantor",
    "bin_of",
    "mes",
    "cyclic_shift_point",
    "cyclic_shift_points",
    "fat_cantor_build",
    "fat_cantor_contains",
]


@dataclass(frozen=True)
class UnitGrid:
    """Partition of [0,1) into n half-open bins [k/n, (k+1)/n)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise BadParameter(f"grid needs at least one bin, got n={self.n}")

    def bins(self, points) -> np.ndarray:
        """Vectorized bin indices for an array of points in (0,1)."""
        pts = np.asarray(points, dtype=float)
        return np.clip((pts * self.n).astype(np.int64), 0, self.n - 1)

    def full(self) -> "BinSet":
        return BinSet(self, frozenset(range(self.n)))

    def empty(self) -> "BinSet":
        return BinSet(self, frozenset())


@dataclass(frozen=True)
class BinSet:
    """A finite union of grid bins; the exact stand-in for a Borel subset."""

    grid: UnitGrid
    members: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        for k in members:
            if not 0 <= k < self.grid.n:
                raise BadParameter(f"bin index {k} outside [0, {self.grid.n})")

    @property
    def measure(self) -> Fraction:
        return Fraction(len(self.members), self.grid.n)

    def contains_points(self, points) -> np.ndarray:
        """Vectorized membership for points in (0,1)."""
        lookup = np.zeros(self.grid.n, dtype=bool)
        lookup[list(self.members)] = True
        return lookup[self.grid.bins(points)]

    def complement(self) -> "BinSet":
        return BinSet(self.grid, frozenset(range(self.grid.n)) - self.members)

    def shifted(self, j: int) -> "BinSet":
        """Image under the grid-aligned cyclic shift by j bins."""
        n = self.grid.n
        return BinSet(self.grid, frozenset((k + j) % n for k in self.members))


def bin_of(grid: UnitGrid, t: float) -> int:
    """Index k with k/n <= t < (k+1)/n for a point of the open interval."""
    if not 0.0 < t < 1.0:
        raise OutOfDomain(f"point {t} outside (0,1)")
    return int(grid.bins(np.array([t]))[0])


def mes(a: BinSet) -> Fraction:
    """Exact Lebesgue measure of a bin set."""
    return a.measure


@dataclass(frozen=True)
class CyclicShift:
    """The interval exchange t -> t + s mod 1 on (0,1); undefined at 1 - s."""

    s: object  # float or Fraction in (0,1)

    def __post_init__(self):
        if not 0 < self.s < 1:
            raise BadParameter(f"shift {self.s} outside (0,1)")


def cyclic_shift_point(shift: CyclicShift, t):
    """Apply the cyclic shift to one point.

    Exact when both the shift and the point are Fractions; float otherwise.
    Raises UndefinedPoint at t = 1 - s, where the exchange has no value.
    """
    if not 0 < t < 1:
        raise OutOfDomain(f"point {t} outside (0,1)")
    s = shift.s
    if t == 1 - s:
        raise UndefinedPoint(f"shift by {s} undefined at {t}")
    if t < 1 - s:
        return t + s
    return t + s - 1


def cyclic_shift_points(shift: CyclicShift, points: Iterable) -> list:
    """Image of a point list, silently dropping the single undefined point."""
    s = shift.s
    out = []
    for t in points:
        if t == 1 - s:
            continue
        out.append(t + s if t < 1 - s else t + s - 1)
    return out


@dataclass(frozen=True)
class FatCantor:
    """A nowhere dense compact subset of (0,1) with positive measure.

    Stored through its complement: `removed` is the sorted tuple of disjoint
    open rational intervals taken out of (0,1); the set itself is what is left.
    Intervals may touch, leaving their common endpoint in the set.
    """

    depth: int
    removed: tuple

    def __post_init__(self):
        removed = tuple(sorted((lo, hi) for lo, hi in self.removed))
        object.__setattr__(self, "removed", removed)
        for lo, hi in removed:
            if not 0 < lo < hi < 1:
                raise BadParameter(f"removed interval ({lo}, {hi}) needs 0 < lo < hi < 1")
        for a, b in zip(removed, removed[1:]):
            if a[1] > b[0]:
                raise BadParameter(f"removed intervals ({a[0]}, {a[1]}) and ({b[0]}, {b[1]}) overlap")

    @cached_property
    def gap_measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.removed), Fraction(0))

    @property
    def measure(self) -> Fraction:
        return 1 - self.gap_measure

    def kept_segments(self) -> list[tuple[Fraction, Fraction]]:
        """Closed segments making up the set, left to right (some may be points)."""
        bounds = [Fraction(0), *(x for interval in self.removed for x in interval), Fraction(1)]
        return list(zip(bounds[::2], bounds[1::2]))

    @cached_property
    def float_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kept segments as floats, built once: (starts, ends, cum).

        cum[k] is the float length of the segments before segment k; its last
        entry is their total.
        """
        segments = self.kept_segments()
        starts = np.array([float(a) for a, _ in segments])
        ends = np.array([float(b) for _, b in segments])
        cum = np.concatenate([[0.0], np.cumsum([float(b - a) for a, b in segments])])
        for table in (starts, ends, cum):
            table.flags.writeable = False  # shared by every caller
        return starts, ends, cum

    def contains_points(self, points) -> np.ndarray:
        """Vectorized membership for points in (0,1): True on a kept segment."""
        pts = np.asarray(points, dtype=float)
        starts, ends, _ = self.float_segments
        return pts <= ends[np.searchsorted(starts, pts, side="right") - 1]


def fat_cantor_build(target_gap, depth: int) -> FatCantor:
    """Standard fat-Cantor construction with a geometric removal schedule.

    Stage j removes a centered open interval of length 2*target_gap/4**j from
    each of the 2**(j-1) surviving closed segments, so the total removed after
    `depth` stages is target_gap * (1 - 2**-depth): strictly below the target
    and converging to it.  The complement of the removed union is nowhere
    dense (every dyadic bin at resolution 2**depth meets a removed interval)
    yet keeps measure 1 - gap > 1 - target_gap > 0.
    """
    gap = Fraction(target_gap)
    if not 0 < gap < 1:
        raise BadParameter(f"target gap {target_gap} outside (0,1)")
    if not 1 <= depth <= 16:
        # Each stage doubles the intervals: depth 16 takes seconds, 17 four times that.
        raise BadParameter(f"depth must be in [1, 16], got {depth}")

    removed = []
    segments = [(Fraction(0), Fraction(1))]
    for stage in range(1, depth + 1):
        piece = 2 * gap / 4**stage
        next_segments = []
        for lo, hi in segments:
            mid = (lo + hi) / 2
            cut_lo, cut_hi = mid - piece / 2, mid + piece / 2
            removed.append((cut_lo, cut_hi))
            next_segments.append((lo, cut_lo))
            next_segments.append((cut_hi, hi))
        segments = next_segments

    return FatCantor(depth=depth, removed=tuple(removed))


def fat_cantor_contains(cantor: FatCantor, t: float) -> bool:
    """True iff the point lies in no removed interval."""
    if not 0 < t < 1:
        raise OutOfDomain(f"point {t} outside (0,1)")
    i = bisect_right(cantor.removed, t, key=lambda interval: interval[0]) - 1
    if i < 0:
        return True
    return not (t < cantor.removed[i][1] and cantor.removed[i][0] < t)
