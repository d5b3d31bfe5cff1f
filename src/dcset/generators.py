"""Seeded simulators producing truncated enumerations of random dense countable sets.

Three constructions are provided: the unordered uniform sample, local minima
of a Gaussian random walk (the desk-scale stand-in for Brownian local minima),
and the mixed counterexample that glues a Poisson set on a fat Cantor set to a
uniform sample on its dense open complement.  A fourth builder produces the
"revealing selectors" apparatus: selector values that betray the events which
drove them.

All randomness flows from one 64-bit seed.  Per-replica and per-component
substreams are split off with a fixed spawn-key convention, so components are
independent within and across replicas and every output is bit-reproducible:
`Seed(value, replica).stream(domain, component)` with domain 0 reserved for
generators, 1 for selector draws and 2 for test-side randomization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import BadParameter
from .grid_measure import BinSet, FatCantor

__all__ = [
    "Seed",
    "Enumeration",
    "WalkPath",
    "RevealingSelectors",
    "sample_uniform",
    "gaussian_walk",
    "walk_minima",
    "brownian_minima",
    "poisson_on_cantor",
    "counterexample_mix",
    "intensity_estimate",
    "revealing_selectors",
]

# Substream domains (first spawn-key slot after the replica index).
GENERATOR_DOMAIN = 0
SELECTOR_DOMAIN = 1
STATS_DOMAIN = 2

# Generator components within GENERATOR_DOMAIN.
_SAMPLE, _WALK, _POISSON, _MIX_SAMPLE, _LOW, _MID, _HIGH = range(7)

# Revealing-selectors geometry: low values live on (0, 1/4), mid values on
# (1/4, 1/2), drivers on (1/2, 1); the event is "driver below 3/4".
REVEAL_CUT = 0.25
EVENT_THRESHOLD = 0.75


@dataclass(frozen=True)
class Seed:
    """Root entropy plus replica index; equal pairs give identical output."""

    value: int
    replica: int = 0

    def __post_init__(self):
        if not 0 <= self.value < 2**64:
            raise BadParameter(f"seed value {self.value} outside [0, 2**64)")
        if self.replica < 0:
            raise BadParameter(f"replica index {self.replica} negative")

    def stream(self, *key: int) -> np.random.Generator:
        """Independent PCG64 generator for the given substream key."""
        seq = np.random.SeedSequence(self.value, spawn_key=(self.replica, *key))
        return np.random.Generator(np.random.PCG64(seq))

    def with_replica(self, replica: int) -> "Seed":
        return Seed(self.value, replica)


def _as_seed(seed) -> Seed:
    return seed if isinstance(seed, Seed) else Seed(int(seed))


@dataclass(frozen=True)
class Enumeration:
    """Finite prefix of an enumeration: ordered, pairwise-distinct points of (0,1).

    `tags` optionally labels each point with the component that produced it.
    """

    points: np.ndarray
    depth: int
    provenance: str
    tags: tuple | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if pts.size and (pts.min() <= 0.0 or pts.max() >= 1.0):
            raise BadParameter("enumeration points must lie in open (0,1)")
        if np.unique(pts).size != pts.size:
            raise BadParameter("enumeration points must be pairwise distinct")
        if self.tags is not None and len(self.tags) != pts.size:
            raise BadParameter("one tag per point required")

    def __len__(self) -> int:
        return int(self.points.size)

    def count_in(self, region) -> int:
        """Number of points inside a BinSet or FatCantor region."""
        if not len(self):
            return 0
        return int(region.contains_points(self.points).sum())


def _distinct_uniform(rng: np.random.Generator, count: int, lo: float, hi: float):
    """Uniform draws on the open interval, duplicates resolved by redraw."""
    picked: list[float] = []
    seen: set[float] = set()
    while len(picked) < count:
        chunk = rng.uniform(lo, hi, size=count - len(picked))
        if not picked:
            # A chunk of distinct draws inside (lo, hi) would be kept whole.
            ordered = np.unique(chunk)
            if ordered.size == count and lo < ordered[0] and ordered[-1] < hi:
                return chunk
        for t in chunk:
            t = float(t)
            if lo < t < hi and t not in seen:
                picked.append(t)
                seen.add(t)
    return np.array(picked)


def sample_uniform(depth: int, seed) -> Enumeration:
    """First `depth` points of an unordered infinite uniform sample."""
    if depth < 1:
        raise BadParameter(f"depth must be >= 1, got {depth}")
    rng = _as_seed(seed).stream(GENERATOR_DOMAIN, _SAMPLE)
    return Enumeration(
        _distinct_uniform(rng, depth, 0.0, 1.0), depth=depth, provenance="sample"
    )


@dataclass(frozen=True)
class WalkPath:
    """Random walk on the uniform grid k/K, started at zero."""

    steps: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.size != self.steps + 1:
            raise BadParameter("walk needs steps+1 values")


def gaussian_walk(steps: int, seed) -> WalkPath:
    """Walk with independent Gaussian increments of variance 1/steps."""
    if steps < 1:
        raise BadParameter(f"steps must be >= 1, got {steps}")
    rng = _as_seed(seed).stream(GENERATOR_DOMAIN, _WALK)
    increments = rng.normal(0.0, np.sqrt(1.0 / steps), size=steps)
    values = np.concatenate([[0.0], np.cumsum(increments)])
    return WalkPath(steps=steps, values=values)


def walk_minima(path: WalkPath) -> Enumeration:
    """Times k/K of strict interior local minima of a walk, ascending."""
    v = path.values
    core = v[1:-1]
    pattern = (v[:-2] > core) & (core < v[2:])
    times = (np.flatnonzero(pattern) + 1) / path.steps
    return Enumeration(
        times, depth=path.steps, provenance="walk-minima",
        tags=("walk",) * int(pattern.sum()),
    )


def brownian_minima(steps: int, seed) -> Enumeration:
    """Local-minima times of a fresh Gaussian walk."""
    if steps < 3:
        raise BadParameter(f"need steps >= 3 for interior minima, got {steps}")
    return walk_minima(gaussian_walk(steps, seed))


def poisson_on_cantor(cantor: FatCantor, seed) -> np.ndarray:
    """Poisson point set with Lebesgue intensity restricted to the Cantor set.

    The count is Poisson(mes C); positions are drawn uniformly on C by pushing
    a uniform variate on (0, mes C) through the cumulative length of the kept
    segments (inverse CDF through the removed-interval structure).
    """
    measure = float(cantor.measure)
    if measure <= 0:
        raise BadParameter("cantor set must have positive measure")
    rng = _as_seed(seed).stream(GENERATOR_DOMAIN, _POISSON)
    count = int(rng.poisson(measure))
    if count == 0:
        return np.empty(0)
    us = _distinct_uniform(rng, count, 0.0, measure)
    starts, _, cum = cantor.float_segments
    idx = np.clip(np.searchsorted(cum, us, side="right") - 1, 0, len(starts) - 1)
    return starts[idx] + (us - cum[idx])


def counterexample_mix(depth: int, cantor: FatCantor, seed) -> Enumeration:
    """Poisson points on the Cantor set united with sample points in its gaps.

    The sample component contributes exactly `depth` points, all falling in
    the dense open complement; the Poisson component's size does not depend on
    `depth` - the executable difference between this set and a pure sample.
    """
    if depth < 1:
        raise BadParameter(f"depth must be >= 1, got {depth}")
    poisson_part = poisson_on_cantor(cantor, seed)
    rng = _as_seed(seed).stream(GENERATOR_DOMAIN, _MIX_SAMPLE)
    seen = set(poisson_part.tolist())
    picked: list[float] = []
    while len(picked) < depth:
        chunk = rng.uniform(0.0, 1.0, size=max(64, depth))
        in_gap = ~cantor.contains_points(chunk)
        for t, keep in zip(chunk, in_gap):
            if len(picked) >= depth:
                break
            t = float(t)
            if keep and 0.0 < t < 1.0 and t not in seen:
                picked.append(t)
                seen.add(t)
    points = np.concatenate([poisson_part, np.array(picked)])
    tags = ("poisson",) * len(poisson_part) + ("sample",) * depth
    return Enumeration(points, depth=len(points), provenance="counterexample", tags=tags)


def intensity_estimate(
    make: Callable[[Seed], Enumeration], region: BinSet, replicas: int, seed
) -> Fraction:
    """Monte Carlo estimate of the weighted hit intensity sum_n n**-2 Pr(Y_n in A).

    Exact rational: the estimate is an average of dyadic-free rationals 1/n^2
    over replicas, so it is returned as a Fraction.
    """
    if replicas < 1:
        raise BadParameter(f"replicas must be >= 1, got {replicas}")
    base = _as_seed(seed)
    total = Fraction(0)
    for r in range(replicas):
        enum = make(base.with_replica(r))
        if not len(enum):
            continue
        hits = region.contains_points(enum.points)
        for n_index in np.flatnonzero(hits):
            n = int(n_index) + 1
            total += Fraction(1, n * n)
    return total / replicas


@dataclass(frozen=True)
class RevealingSelectors:
    """Selector values that reconstruct the events which chose them.

    For each index k an independent event (the driver point falling below the
    threshold) decides whether the selector takes the low point or the mid
    point; since the two ranges are disjoint, the event can be read back off
    the selector value exactly: event_k holds iff chosen_k < 1/4.
    """

    low: Enumeration
    mid: Enumeration
    high: Enumeration
    events: np.ndarray
    chosen: Enumeration

    @property
    def depth(self) -> int:
        return len(self.chosen)


def revealing_selectors(depth: int, seed) -> RevealingSelectors:
    """Build the coupled family U_k, V_k, Z_k, A_k, Y_k of one replica."""
    if depth < 1:
        raise BadParameter(f"depth must be >= 1, got {depth}")
    base = _as_seed(seed)
    low_pts = _distinct_uniform(base.stream(GENERATOR_DOMAIN, _LOW), depth, 0.0, 0.25)
    mid_pts = _distinct_uniform(base.stream(GENERATOR_DOMAIN, _MID), depth, 0.25, 0.5)
    high_pts = _distinct_uniform(base.stream(GENERATOR_DOMAIN, _HIGH), depth, 0.5, 1.0)
    events = high_pts < EVENT_THRESHOLD
    chosen = np.where(events, low_pts, mid_pts)
    return RevealingSelectors(
        low=Enumeration(low_pts, depth=depth, provenance="revealing-low"),
        mid=Enumeration(mid_pts, depth=depth, provenance="revealing-mid"),
        high=Enumeration(high_pts, depth=depth, provenance="revealing-high"),
        events=events,
        chosen=Enumeration(chosen, depth=depth, provenance="revealing-chosen"),
    )
