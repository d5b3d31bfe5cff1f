"""Dyadic discretization of (0,1): grids, bin sets, fat Cantor sets, cyclic shifts.

Points are plain floats in the open interval; all set algebra is exact.  Bins
follow the half-open convention [k/n, (k+1)/n) and measure in `Fraction`s.  A
fat Cantor set takes and gives its removed intervals as `Fraction`s, but
builds, stores, checks and measures them as integer units over one
denominator; its float tables are correctly rounded quotients of those units.
Membership looks each point up in a table of equal buckets of [0, 1), and
settles a point that equals a rounded segment end exactly, in units.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import BadParameter, OutOfDomain, UndefinedPoint
from .records import Record

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


def _unit_array(units, scale: int) -> np.ndarray:
    """Integer units over `scale` as an array: int64 when scale < 2**53 and the
    units fit, so every unit in [0, scale] converts to a float exactly and each
    quotient by `scale` rounds once, else Python ints (dtype object), on which
    the same expressions run exactly."""
    if scale < 2**53:
        try:
            return np.array(units, dtype=np.int64)
        except OverflowError:
            pass
    return np.array(units, dtype=object)


# FatCantor.contains_points steps at most this many starts past a bucket's
# table entry; a point in a more crowded bucket is binary-searched.
_MAX_PASSES = 3


class UnitGrid(Record):
    """Partition of [0,1) into n half-open bins [k/n, (k+1)/n)."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise BadParameter(f"grid needs at least one bin, got n={n}")
        super().__init__(n)

    def bins(self, points) -> np.ndarray:
        """Vectorized bin indices for an array of points in (0,1)."""
        pts = np.asarray(points, dtype=float)
        return np.clip((pts * self.n).astype(np.int64), 0, self.n - 1)

    def full(self) -> "BinSet":
        return BinSet(self, frozenset(range(self.n)))

    def empty(self) -> "BinSet":
        return BinSet(self, frozenset())


class BinSet(Record):
    """A finite union of grid bins; the exact stand-in for a Borel subset."""

    __slots__ = ("grid", "members")

    def __init__(self, grid: UnitGrid, members: frozenset = frozenset()):
        members = frozenset(members)
        for k in members:
            if not 0 <= k < grid.n:
                raise BadParameter(f"bin index {k} outside [0, {grid.n})")
        super().__init__(grid, members)

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


def bin_of(grid: UnitGrid, t: float) -> int:
    """Index k with k/n <= t < (k+1)/n for a point of the open interval."""
    if not 0.0 < t < 1.0:
        raise OutOfDomain(f"point {t} outside (0,1)")
    return int(grid.bins(np.array([t]))[0])


def mes(a: BinSet) -> Fraction:
    """Exact Lebesgue measure of a bin set."""
    return a.measure


class CyclicShift(Record):
    """The interval exchange t -> t + s mod 1 on (0,1); undefined at 1 - s."""

    __slots__ = ("s",)

    def __init__(self, s):  # float or Fraction in (0,1)
        if not 0 < s < 1:
            raise BadParameter(f"shift {s} outside (0,1)")
        super().__init__(s)


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


class FatCantor(Record):
    """A nowhere dense compact subset of (0,1) with positive measure.

    Given through its complement: `removed` is the sorted tuple of disjoint
    open rational intervals taken out of (0,1); the set itself is what is left.
    Intervals may touch, leaving their common endpoint in the set.

    What is stored is integer units over one denominator `_scale`: `_starts`
    and `_ends` hold the kept segments' ends in units, as tuples of ints for
    exact lookups, and all checks, measures and float tables are computed
    from them.  Checks and float tables run on the units as int64 arrays when
    `_scale` < 2**53, else as arrays of Python ints (dtype object).  A set
    built in units forms the `removed` Fractions only when something reads them.
    """

    __slots__ = ("depth", "_scale", "_starts", "_ends", "__dict__")
    _fields = ("depth", "removed")

    def __init__(self, depth: int, removed: tuple):
        try:
            pairs = [(Fraction(lo), Fraction(hi)) for lo, hi in removed]
        except (TypeError, ValueError, OverflowError) as exc:
            raise BadParameter(f"removed intervals need rational ends: {exc}") from None
        scale = math.lcm(*(x.denominator for pair in pairs for x in pair))
        keyed = sorted(
            (lo.numerator * (scale // lo.denominator), hi.numerator * (scale // hi.denominator), k)
            for k, (lo, hi) in enumerate(pairs)
        )
        super().__init__(depth, tuple(pairs[k] for _, _, k in keyed))
        self._set_units(scale, _unit_array([lo for lo, _, _ in keyed], scale),
                        _unit_array([hi for _, hi, _ in keyed], scale))

    @classmethod
    def _from_units(cls, depth: int, scale: int, lo: np.ndarray, hi: np.ndarray) -> "FatCantor":
        """The set whose removed intervals are (lo[k]/scale, hi[k]/scale), for unit
        arrays sorted by `lo`."""
        cantor = cls.__new__(cls)
        Record.__setstate__(cantor, (None, {"depth": depth}))
        cantor._set_units(scale, lo, hi)
        return cantor

    def _set_units(self, scale: int, lo: np.ndarray, hi: np.ndarray) -> None:
        """Check the removed intervals as unit arrays over `scale`, sorted by `lo`,
        then keep the kept segments' ends in those units.  The first bad interval,
        or the first overlapping pair, is the one named."""
        bad = ~((0 < lo) & (lo < hi) & (hi < scale))
        if bad.any():
            k = int(bad.argmax())
            raise BadParameter(
                f"removed interval ({Fraction(int(lo[k]), scale)}, {Fraction(int(hi[k]), scale)})"
                " needs 0 < lo < hi < 1"
            )
        bad = hi[:-1] > lo[1:]
        if bad.any():
            k = int(bad.argmax())
            a_lo, a_hi, b_lo, b_hi = (Fraction(int(u), scale) for u in (lo[k], hi[k], lo[k + 1], hi[k + 1]))
            raise BadParameter(f"removed intervals ({a_lo}, {a_hi}) and ({b_lo}, {b_hi}) overlap")
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_starts", (0, *hi.tolist()))
        object.__setattr__(self, "_ends", (*lo.tolist(), scale))

    @cached_property
    def removed(self) -> tuple[tuple[Fraction, Fraction], ...]:
        d = self._scale
        return tuple((Fraction(lo, d), Fraction(hi, d)) for lo, hi in zip(self._ends, self._starts[1:]))

    @cached_property
    def gap_measure(self) -> Fraction:
        return Fraction(self._scale + sum(self._starts) - sum(self._ends), self._scale)

    @property
    def measure(self) -> Fraction:
        return 1 - self.gap_measure

    def kept_segments(self) -> list[tuple[Fraction, Fraction]]:
        """Closed segments making up the set, left to right (some may be points)."""
        d = self._scale
        return [(Fraction(s, d), Fraction(e, d)) for s, e in zip(self._starts, self._ends)]

    @cached_property
    def float_segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kept segments as floats, built once: (starts, ends, cum).

        cum[k] is the float length of the segments before segment k; its last
        entry is their total.  Every float is a correctly rounded int / int.
        """
        d = self._scale
        s, e = _unit_array(self._starts, d), _unit_array(self._ends, d)
        starts, ends, lengths = ((u / d).astype(float) for u in (s, e, e - s))
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        for table in (starts, ends, cum):
            table.flags.writeable = False  # shared by every caller
        return starts, ends, cum

    def place(self, us: np.ndarray) -> np.ndarray:
        """The inverse CDF of the uniform law on C: each u in [0, mes C) goes to
        the point of C that leaves length u of C to its left, by the float
        cumulative lengths of the kept segments.  NaN stays NaN."""
        starts, _, cum = self.float_segments
        idx = np.clip(np.searchsorted(cum, us, side="right") - 1, 0, len(starts) - 1)
        return starts[idx] + (us - cum[idx])

    @cached_property
    def bucket_table(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Segment lookup over G equal buckets of [0, 1), built once: (first, next_start, passes).

        G is the least power of two at least 4 * segments.  first[b] is the
        index of the last float start at or before b / G, or -1 when more than
        _MAX_PASSES starts lie inside bucket b; first[G] takes points at or
        past 1 and NaN.  next_start[k] is the start after segment k (inf for
        the last), and `passes` steps along it reach every index.
        """
        starts, _, _ = self.float_segments
        n = len(starts)
        g = 1 << (4 * n - 1).bit_length()
        right = np.searchsorted(starts, np.arange(g + 1) / g, side="right")
        inside = np.searchsorted(starts, np.arange(1, g + 1) / g, side="left") - right[:-1]
        first = right - 1
        first[:-1][inside > _MAX_PASSES] = -1
        next_start = np.append(starts[1:], np.inf)
        for table in (first, next_start):
            table.flags.writeable = False  # shared by every caller
        return first, next_start, min(int(inside.max()), _MAX_PASSES)

    def _segment_index(self, pts: np.ndarray) -> np.ndarray:
        """searchsorted(starts, pts, "right") - 1 for a 1-d float array, read
        from the bucket table.  A point below 0 gets 0 rather than -1."""
        first, next_start, passes = self.bucket_table
        g = len(first) - 1
        bucket = pts * g
        np.fmin(bucket, g, out=bucket)  # NaN goes to bucket g
        np.fmax(bucket, 0, out=bucket)
        idx = first[bucket.astype(np.intp)]
        for _ in range(passes):
            idx += next_start[idx] <= pts
        if passes == _MAX_PASSES:  # points in crowded buckets are searched instead
            crowded = idx < 0
            idx[crowded] = np.searchsorted(self.float_segments[0], pts[crowded], side="right") - 1
        return idx

    def contains_points(self, points) -> np.ndarray:
        """Vectorized membership for points in (0,1): True on a kept segment.

        Exact: a float can be misjudged against the rounded segment ends only
        when it equals one, and such a point is settled in integer units.
        """
        pts = np.asarray(points, dtype=float)
        flat = pts.reshape(-1)
        starts, ends, _ = self.float_segments
        idx = self._segment_index(flat)
        end = ends[idx]
        inside = flat <= end
        for i in np.flatnonzero((flat == end) | (flat == starts[idx])).tolist():
            inside[i] = self._holds(flat[i])
        return inside.reshape(pts.shape)

    def _holds(self, t) -> bool:
        """Exact membership of a real t in [0, 1], compared in integer units."""
        x = Fraction(t) * self._scale
        return x <= self._ends[bisect_right(self._starts, x) - 1]


def fat_cantor_build(target_gap, depth: int) -> FatCantor:
    """Standard fat-Cantor construction with a geometric removal schedule.

    Stage j removes a centered open interval of length 2*target_gap/4**j from
    each of the 2**(j-1) surviving closed segments, so the total removed after
    `depth` stages is target_gap * (1 - 2**-depth): strictly below the target
    and converging to it.  The complement of the removed union is nowhere
    dense (every dyadic bin at resolution 2**depth meets a removed interval)
    yet keeps measure 1 - gap > 1 - target_gap > 0.

    The schedule runs in integer units over 2**(depth+1) * 4**depth * q for a
    target gap p/q, in which every cut end and midpoint is a whole number,
    one array pass per stage.
    """
    gap = Fraction(target_gap)
    if not 0 < gap < 1:
        raise BadParameter(f"target gap {target_gap} outside (0,1)")
    if not 1 <= depth <= 16:
        # Each stage doubles the intervals.  On a 2-vCPU Xeon, depth 16 builds in
        # about 0.01 s (0.015 s on Python ints), 0.04 to 0.09 s with its float
        # and bucket tables; 17 takes twice that.
        raise BadParameter(f"depth must be in [1, 16], got {depth}")

    scale = 2 ** (depth + 1) * 4**depth * gap.denominator
    # Every stage halves each segment less a cut, so all segments share one
    # length; a segment's right child starts `length - next_length` after it.
    length, starts = scale, _unit_array([0], scale)
    for stage in range(1, depth + 1):
        half = gap.numerator * 2 ** (depth + 1) * 4 ** (depth - stage)  # half a cut, in units
        next_length = length // 2 - half
        starts = (starts[:, None] + _unit_array([0, length - next_length], scale)).ravel()
        length = next_length
    return FatCantor._from_units(depth, scale, starts[:-1] + length, starts[1:])


def fat_cantor_contains(cantor: FatCantor, t: float) -> bool:
    """True iff the point lies in no removed interval (compared exactly)."""
    if not 0 < t < 1:
        raise OutOfDomain(f"point {t} outside (0,1)")
    return cantor._holds(t)
