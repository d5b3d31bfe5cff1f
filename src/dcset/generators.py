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
`Seed(value).uniforms(replicas, domain, component, size=n)` is the batch form
of that convention: it draws the first n uniforms of every listed replica's
substream together, bit for bit equal to the streams themselves.  Seeding
hashes every row's replica word into SeedSequence's four pool words as one
(4, R) uint32 array.  PCG64 is a 128-bit LCG, so every k-th state of a row
follows another LCG (jump-ahead), and one array pass draws k columns of
every row; a pass updates the states in place, in a fixed set of work
arrays, and allocates nothing.

The stochastic batteries draw a range of replicas at once this way, as
NaN-padded rows (`rows(base, replicas)`): `_sample_rows` (shared with
`selector.sample_ensemble`), `_poisson_rows` (numpy's Poisson multiplication
method as one cumulative product per row) and `_counterexample_rows` (gap
picks read one PCG64 pass of columns at a time).  A row that runs out of drawn
doubles, or that the per-replica generator would not keep whole (a repeat, or
a point outside its interval), is redrawn by `sample_uniform`,
`poisson_on_cantor` or `counterexample_mix`, which stay the reference for
every row; `_minima_rows` loops `brownian_minima`.  Every generator and row
maker refuses more than `errors.WORK_BUDGET` points before it draws any:
depth for one enumeration (3 * depth for revealing selectors), steps for a
walk, depth * replicas (steps * replicas for minima) for a batch of rows.
Draws are held to the same budget: replicas * _POISSON_WIDTH doubles for
`_poisson_rows`, and about depth / gap measure gap-pick doubles for one
counterexample, replicas times that for `_counterexample_rows`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Callable

import numpy as np

from .errors import BadParameter, check_budget, check_count
from .grid_measure import BinSet, FatCantor
from .records import Record

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

# numpy's SeedSequence hashing constants and PCG64's 128-bit multiplier;
# numpy keeps these streams fixed (NEP 19).
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
# Operands of the in-place uint64 passes, as numpy scalars: wrapping
# arithmetic stays on arrays, where numpy 1.x and 2.x agree and never warn.
_LOW_32 = np.uint64(_M32)
_U1, _U11, _U32, _U58, _U63, _U64 = map(np.uint64, (1, 11, 32, 58, 63, 64))
_TWO_M53 = 2.0**-53

# Entries (rows * columns) one batch PCG64 pass aims at; see _pcg64_block.
# `distinguish --seed 1` draws 500 rows, so 8 columns a pass: peak RSS was
# 32.2 MB in fresh processes and a warm run took 7.3 ms, against 11.4 ms
# with one column a pass (500) and 9.2 ms with two (1024) at the same RSS;
# 32 columns (16384) took 8.0 ms and 33.0 MB (2-core VM, numpy 2.4, best of
# 29 warm runs).
_LEAP_ENTRIES = 4096

# Generator components within GENERATOR_DOMAIN.
_SAMPLE, _WALK, _POISSON, _MIX_SAMPLE, _LOW, _MID, _HIGH = range(7)

# Batch counterexample draws.  A Poisson row reads this many doubles; a count c
# needs 2c + 1 of them.  Gap picks are read one PCG64 pass at a time, up to
# _PICK_SLACK times the depth / gap-measure doubles a row needs on average.
# A row that runs out is drawn by the per-replica generator.
_POISSON_WIDTH = 24
_PICK_SLACK = 4
# Entries per slice of a row-wise check, which bounds its temporaries.
_SLICE_POINTS = 1 << 14

# Revealing-selectors geometry: low values live on (0, 1/4), mid values on
# (1/4, 1/2), drivers on (1/2, 1); the event is "driver below 3/4".
REVEAL_CUT = 0.25
EVENT_THRESHOLD = 0.75


class Seed(Record):
    """Root entropy plus replica index; equal pairs give identical output."""

    __slots__ = ("value", "replica")

    def __init__(self, value: int, replica: int = 0):
        if not 0 <= value < 2**64:
            raise BadParameter(f"seed value {value} outside [0, 2**64)")
        if replica < 0:
            raise BadParameter(f"replica index {replica} negative")
        super().__init__(value, replica)

    def stream(self, *key: int) -> np.random.Generator:
        """Independent PCG64 generator for the given substream key."""
        seq = np.random.SeedSequence(self.value, spawn_key=(self.replica, *key))
        return np.random.Generator(np.random.PCG64(seq))

    def uniforms(self, replicas, *key: int, size: int = 1) -> np.ndarray:
        """R-by-size array whose row k is
        `Seed(self.value, replicas[k]).stream(*key).uniform(size=size)`, bit for bit.

        The rows' seeds come from `_seed_state`, one (4, R) pass per
        spawn-key word.  The rows are then drawn together by `_pcg64_block`,
        k columns of every row per in-place array pass by PCG64's jump-ahead
        s <- a**k * s + B_k * inc.  k = max(1, min(size, _LEAP_ENTRIES // rows))
        gives a pass a few thousand entries, so its numpy calls are not
        mostly overhead.  A replica index of 2**32 or more spans two
        spawn-key words and is drawn by `stream`.  `replicas` may be a
        range, a list or an integer array.
        """
        reps = _replica_array(replicas)
        if reps.size and reps.min() < 0:
            raise BadParameter(f"replica index {reps.min()} negative")
        narrow = reps <= _M32
        drawn = _pcg64_block(_seed_state(self.value, reps[narrow], key), size)
        if narrow.all():
            return drawn
        out = np.empty((len(reps), size))
        out[narrow] = drawn
        for k in np.flatnonzero(~narrow).tolist():
            out[k] = Seed(self.value, int(reps[k])).stream(*key).uniform(size=size)
        return out

    def with_replica(self, replica: int) -> "Seed":
        return Seed(self.value, replica)


def _replica_array(replicas) -> np.ndarray:
    """Replica indices as one integer array; a range becomes an arange."""
    if isinstance(replicas, range):
        return np.arange(replicas.start, replicas.stop, replicas.step)
    reps = np.asarray(replicas)
    if reps.dtype.kind in "iu":
        return reps
    # An empty list, floats and ints past 64 bits: exact Python ints.
    return np.array([int(r) for r in replicas], dtype=object)


def _words(n: int) -> list[int]:
    """32-bit words of a spawn-key entry, least significant first, as SeedSequence splits it."""
    if n < 0:
        raise BadParameter(f"spawn-key entry {n} negative")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hash_steps(init: int, mult: int):
    """SeedSequence's hash constants, call by call: the pair (h, h * mult mod
    2**32) a call XORs its word with and then multiplies it by, from h = init."""
    h = init
    while True:
        g = h * mult & _M32
        yield h, g
        h = g


def _uint32_column(values) -> np.ndarray:
    column = np.array(values, dtype=np.uint32).reshape(-1, 1)
    column.setflags(write=False)
    return column


@lru_cache(maxsize=64)
def _seed_constants(value: int, key: tuple) -> tuple:
    """What `_seed_state` hashes alike for every replica word, as read-only
    uint32 columns: the pool after `value`'s 4 run words, times _MIX_L; the
    replica word's 4 hash constants (XOR, then multiply); a tuple holding
    each word of `key` hashed once per pool word, times _MIX_R; the 8 output
    hash constants (XOR, then multiply).

    A hash call's constants depend only on its position, so all of this is
    Python int arithmetic, done once per (value, key).
    """
    tail = [w for k in key for w in _words(k)]
    steps = _hash_steps(_INIT_A, _MULT_A)

    def hashmix(word: int) -> int:
        xor, mul = next(steps)
        word = (word ^ xor) * mul & _M32
        return word ^ word >> 16

    def mix(x: int, y: int) -> int:
        value = (x * _MIX_L & _M32) - (y * _MIX_R & _M32) & _M32
        return value ^ value >> 16

    pool = [hashmix(w) for w in (value & _M32, value >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    replica_xor, replica_mul = zip(*islice(steps, 4))
    hashed = tuple(_uint32_column([hashmix(w) * _MIX_R & _M32 for _ in range(4)]) for w in tail)
    out_xor, out_mul = zip(*islice(_hash_steps(_INIT_B, _MULT_B), 8))
    return (
        _uint32_column([v * _MIX_L & _M32 for v in pool]),
        _uint32_column(replica_xor),
        _uint32_column(replica_mul),
        hashed,
        _uint32_column(out_xor),
        _uint32_column(out_mul),
    )


def _seed_state(value: int, replicas, key) -> np.ndarray:
    """`SeedSequence(value, spawn_key=(r, *key)).generate_state(4, np.uint64)`
    for each replica index r below 2**32, one row each.

    SeedSequence hashes the 4 run-entropy words of a 64-bit `value` into its
    4 pool words and mixes them, then hashes the replica word and each word
    of `key` into all 4 pool words in turn, and hashes the pool into 8
    output words.  Rows differ only in the replica word, so everything else
    comes from `_seed_constants`.  From the replica word on, the pool is one
    (4, R) uint32 array, and each later word one pass over it; the output
    words are one (8, R) pass, paired into the R-by-4 uint64 state.  uint32
    arrays wrap, so no step needs a mask.
    """
    if not len(replicas):
        return np.empty((0, 4), dtype=np.uint64)
    run, xor, mul, tail, out_xor, out_mul = _seed_constants(value, tuple(key))
    # Pool word d becomes mix(pool[d], hashmix(word)), for d = 0..3 at once.
    pool = _replica_array(replicas).astype(np.uint32) ^ xor
    pool *= mul
    pool ^= pool >> 16
    pool *= _MIX_R
    np.subtract(run, pool, out=pool)
    pool ^= pool >> 16
    for hashed in tail:
        pool *= _MIX_L
        pool -= hashed
        pool ^= pool >> 16
    # Output word i hashes pool word i % 4; words 2j and 2j + 1 are the low
    # and high halves of state word j.
    out = np.tile(pool, (2, 1))
    out ^= out_xor
    out *= out_mul
    out ^= out >> 16
    state = out[1::2].astype(np.uint64)
    state <<= _U32
    state |= out[0::2]
    return state.T


def _mul_add(lo, hi, mul, add, work) -> None:
    """(lo, hi) <- (lo, hi) * mul + add mod 2**128, in place on 64-bit halves.

    `mul` is the multiplier as `_leap_constants` lays it out: its halves
    (m_lo, m_hi) and m_lo's 32-bit halves (b0, b1), each broadcasting against
    lo.  The high word of lo * m_lo is summed from 32-bit partial products.
    `add` is a pair of halves, or None for no addend.  Every step writes into
    (lo, hi) or into `work`, three uint64 arrays and one boolean array shaped
    like lo, so a call allocates nothing.
    """
    m_lo, m_hi, b0, b1 = mul
    a0, a1, t, carry = work
    np.bitwise_and(lo, _LOW_32, out=a0)
    np.right_shift(lo, _U32, out=a1)
    hi *= m_lo
    np.multiply(lo, m_hi, out=t)
    hi += t
    lo *= m_lo
    np.multiply(a1, b1, out=t)
    hi += t
    a1 *= b0
    np.multiply(a0, b0, out=t)
    t >>= _U32
    a1 += t  # mid = a1 * b0 + (a0 * b0 >> 32)
    a0 *= b1
    np.bitwise_and(a1, _LOW_32, out=t)
    a0 += t  # a0 * b1 + low half of mid
    a0 >>= _U32
    a1 >>= _U32
    hi += a1
    hi += a0  # hi * m_lo + lo * m_hi + high word of lo * m_lo
    if add is not None:
        add_lo, add_hi = add
        lo += add_lo
        hi += add_hi
        np.less(lo, add_lo, out=carry)
        hi += carry


@lru_cache(maxsize=8)
def _leap_constants(k: int) -> tuple[np.ndarray, np.ndarray]:
    """a**c and B_c = 1 + a + ... + a**(c-1) mod 2**128 for c = 1..k and
    PCG64's multiplier a, as two read-only (4, k, 1) uint64 arrays: the
    halves (lo, hi), then lo's 32-bit halves, as `_mul_add` takes them."""
    powers, sums = [1], [0]
    for _ in range(k):
        sums.append((sums[-1] + powers[-1]) % 2**128)
        powers.append(powers[-1] * _PCG_MULT % 2**128)
    tables = []
    for values in (powers[1:], sums[1:]):
        lows = [v & 0xFFFFFFFFFFFFFFFF for v in values]
        parts = [lows, [v >> 64 for v in values], [v & _M32 for v in lows], [v >> 32 for v in lows]]
        table = np.array(parts, dtype=np.uint64)[:, :, None]
        table.setflags(write=False)
        tables.append(table)
    return tables[0], tables[1]


def _pcg64_bits(state: np.ndarray, k: int):
    """Successive k-by-R uint64 arrays of the 53-bit words behind the doubles
    of `_pcg64_passes`: draws 1..k, then k+1..2k, and so on.

    Seeding follows pcg64_set_seed: initstate, then inc = 2*initseq + 1, one
    step, add initstate to get u, one step to s_0 = a*u + inc.  Draw c is
    the XSL-RR output x of state s_c, and its word is x >> 11.  A row's
    state follows s <- a*s + inc mod 2**128, so
    s_c = a**c * s_0 + B_c * inc with B_c = 1 + a + ... + a**(c-1), and
    columns c, c + k, c + 2k, ... follow s <- a**k * s + B_k * inc,
    another LCG (Brown 1994).  One array pass therefore draws k columns of
    every row.  Row c - 1 of the set-up addends is B_c * inc; at k = 1 that
    is inc itself (B_1 = 1), so no product is formed.  Rows run along the
    last axis, so at k = 1 every pass is a one-dimensional pass over them.

    The set-up runs when this is called and keeps nothing of `state`.  The
    returned generator updates the states in place through `_mul_add` and
    forms the words in its work arrays: it yields the same array each time,
    overwritten by the next pass.
    """
    powers, sums = _leap_constants(k)
    rows = len(state)
    lo, hi, add_lo, add_hi = np.empty((4, k, rows), dtype=np.uint64)
    work = (*np.empty((3, k, rows), dtype=np.uint64), np.empty((k, rows), dtype=bool))
    inc_lo, inc_hi = add_lo[0], add_hi[0]
    np.left_shift(state[:, 3], _U1, out=inc_lo)
    inc_lo |= _U1
    np.left_shift(state[:, 2], _U1, out=inc_hi)
    inc_hi |= state[:, 3] >> _U63
    np.add(inc_lo, state[:, 1], out=lo[0])  # u = inc + initstate
    np.add(inc_hi, state[:, 0], out=hi[0])
    hi[0] += lo[0] < inc_lo
    lo[1:], hi[1:], add_lo[1:], add_hi[1:] = lo[0], hi[0], inc_lo, inc_hi
    _mul_add(lo, hi, powers[:, :1], (inc_lo, inc_hi), work)  # s_0 in every row
    if k > 1:
        _mul_add(add_lo, add_hi, sums, None, work)  # B_c * inc in row c - 1
    _mul_add(lo, hi, powers, (add_lo, add_hi), work)  # s_c in row c - 1
    leap, step = powers[:, k - 1 :], (add_lo[k - 1], add_hi[k - 1])
    rot, x, t = work[:3]

    def passes():
        while True:
            np.right_shift(hi, _U58, out=rot)
            np.bitwise_xor(hi, lo, out=x)
            np.subtract(_U64, rot, out=t)
            np.bitwise_and(t, _U63, out=t)
            np.left_shift(x, t, out=t)
            np.right_shift(x, rot, out=x)
            np.bitwise_or(x, t, out=x)
            np.right_shift(x, _U11, out=x)
            yield x
            _mul_add(lo, hi, leap, step, work)

    return passes()


def _pcg64_passes(state: np.ndarray, k: int):
    """Successive k-by-R arrays of the doubles of the PCG64 generator seeded
    from each row of `_seed_state` (one column per row): the first holds
    draws 1..k, the next k+1..2k, and so on.  A double is the word of
    `_pcg64_bits` times 2**-53, and each pass is a fresh array, which the
    caller may keep or edit.
    """
    for bits in _pcg64_bits(state, k):
        yield bits * _TWO_M53


def _pcg64_block(state: np.ndarray, width: int) -> np.ndarray:
    """R-by-width array of the first `width` doubles of the PCG64 generator
    seeded from each row of `_seed_state`, one row each.

    The words come from `_pcg64_bits`, k columns of every row per in-place
    array pass, k = max(1, min(width, _LEAP_ENTRIES // R)): one column of a
    few hundred rows leaves each of a pass's ~30 numpy calls mostly overhead,
    while from _LEAP_ENTRIES rows up one column fills a pass.  Each pass is
    scaled by 2**-53 straight into a k-by-R slot of one staging block, and
    the block is written transposed into the output, whole passes of at
    least 8 columns at a time: written one column at a time, a 5000-row
    block cost more than twice as much per double.  Nothing here keeps the
    seeds past the set-up, so when the caller keeps none either, a draw
    holds besides the output only the passes' arrays and the staging block.
    """
    rows = len(state)
    k = max(1, min(width, _LEAP_ENTRIES // max(rows, 1)))
    out = np.empty((rows, width))
    if not width:
        return out
    bits = _pcg64_bits(state, k)
    del state  # the last reference, unless the caller keeps one
    step = k * min(-(-8 // k), -(-width // k))
    staging = np.empty((step, rows))
    for start in range(0, width, step):
        n = min(step, width - start)
        for j in range(0, n, k):
            np.multiply(next(bits), _TWO_M53, out=staging[j : j + k])
        out[:, start : start + n] = staging[:n].T
    return out


def _as_seed(seed) -> Seed:
    return seed if isinstance(seed, Seed) else Seed(int(seed))


def _in_open_unit(points: np.ndarray) -> np.ndarray:
    """Elementwise: the point lies strictly inside (0, 1); NaN does not."""
    return (points > 0.0) & (points < 1.0)


def _row_slices(rows: int, width: int) -> list[slice]:
    """Slices of `rows` rows of `width` entries, each at most _SLICE_POINTS
    entries; an array pass taken a slice at a time bounds its temporaries."""
    step = max(1, _SLICE_POINTS // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _distinct_rows(points: np.ndarray, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Per row: its points, the entries other than its NaN padding, are
    pairwise distinct and inside (lo, hi).

    On (0, 1) this is Enumeration's check; it is also the test by which
    `_distinct_uniform` keeps a chunk whole.  NaN sorts last, differs from
    every entry and fails both comparisons, so the padding passes.
    """
    kept = np.empty(len(points), dtype=bool)
    for rows in _row_slices(*points.shape):
        ordered = np.sort(points[rows], axis=1)
        inside = ~((ordered <= lo) | (ordered >= hi))
        kept[rows] = inside.all(axis=1) & (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
    return kept


class Enumeration(Record):
    """Finite prefix of an enumeration: ordered, pairwise-distinct points of (0,1).

    `tags` optionally labels each point with the component that produced it.
    """

    __slots__ = ("points", "depth", "provenance", "tags")

    def __init__(self, points: np.ndarray, depth: int, provenance: str, tags: tuple | None = None):
        pts = np.asarray(points, dtype=float)
        pts.setflags(write=False)
        if not _in_open_unit(pts).all():
            raise BadParameter("enumeration points must lie in open (0,1)")
        # Strictly increasing points are distinct; only others need a sort.
        flat = pts.reshape(-1)
        if not (flat[1:] > flat[:-1]).all():
            ordered = np.sort(flat)
            if (ordered[1:] == ordered[:-1]).any():
                raise BadParameter("enumeration points must be pairwise distinct")
        if tags is not None and len(tags) != pts.size:
            raise BadParameter("one tag per point required")
        super().__init__(pts, depth, provenance, tags)

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
        if not picked and _distinct_rows(chunk[None], lo, hi)[0]:
            return chunk  # distinct draws inside (lo, hi) are kept whole
        for t in chunk:
            t = float(t)
            if lo < t < hi and t not in seen:
                picked.append(t)
                seen.add(t)
    return np.array(picked)


def sample_uniform(depth: int, seed) -> Enumeration:
    """First `depth` points of an unordered infinite uniform sample."""
    check_count("depth", depth)
    check_budget("depth", depth)
    rng = _as_seed(seed).stream(GENERATOR_DOMAIN, _SAMPLE)
    return Enumeration(
        _distinct_uniform(rng, depth, 0.0, 1.0), depth=depth, provenance="sample"
    )


class WalkPath(Record):
    """Random walk on the uniform grid k/K, started at zero."""

    __slots__ = ("steps", "values")

    def __init__(self, steps: int, values: np.ndarray):
        vals = np.asarray(values, dtype=float)
        vals.setflags(write=False)
        if vals.size != steps + 1:
            raise BadParameter("walk needs steps+1 values")
        super().__init__(steps, vals)


def gaussian_walk(steps: int, seed) -> WalkPath:
    """Walk with independent Gaussian increments of variance 1/steps."""
    check_count("steps", steps)
    check_budget("steps", steps)
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

    The count is Poisson(mes C); positions are uniform variates on (0, mes C)
    pushed through `FatCantor.place`, the inverse CDF of the uniform law on C.
    """
    measure = float(cantor.measure)
    if measure <= 0:
        raise BadParameter("cantor set must have positive measure")
    rng = _as_seed(seed).stream(GENERATOR_DOMAIN, _POISSON)
    count = int(rng.poisson(measure))
    if count == 0:
        return np.empty(0)
    return cantor.place(_distinct_uniform(rng, count, 0.0, measure))


def _sample_gap(cantor: FatCantor, depth: int, replicas: int = 1) -> float:
    """The gap measure of C as a float, refused when C leaves no gap for sample
    picks, or when `depth` picks would take about depth / gap uniform draws,
    or `replicas` times that, more than the work budget."""
    gap = cantor.gap_measure
    if gap <= 0:
        raise BadParameter("cantor set must leave gaps for the sample")
    draws = math.ceil(depth / gap)
    check_budget("depth / gap measure", draws)
    check_budget("replicas * depth / gap measure", replicas * draws)
    return float(gap)


def counterexample_mix(depth: int, cantor: FatCantor, seed) -> Enumeration:
    """Poisson points on the Cantor set united with sample points in its gaps.

    The sample component contributes exactly `depth` points, all falling in
    the dense open complement; the Poisson component's size does not depend on
    `depth` - the executable difference between this set and a pure sample.
    """
    check_count("depth", depth)
    check_budget("depth", depth)
    _sample_gap(cantor, depth)
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


def _sample_rows(depth: int, base: Seed, replicas: range) -> np.ndarray:
    """Array whose row k is sample_uniform(depth, base.with_replica(replicas[k])).points.

    Every row comes from one `Seed.uniforms` call; a row that sample_uniform
    would not keep whole (a repeated point, or one outside (0, 1)) is rebuilt
    by sample_uniform.
    """
    check_count("depth", depth)
    check_budget("depth * replicas", depth * len(replicas))
    points = base.uniforms(replicas, GENERATOR_DOMAIN, _SAMPLE, size=depth)
    redo = ~_distinct_rows(points)
    return _redo_rows(points, redo, base, replicas, lambda s: sample_uniform(depth, s).points)


def _redo_rows(points: np.ndarray, redo: np.ndarray, base: Seed, replicas: range, make) -> np.ndarray:
    """NaN-padded points with each row k where redo[k] holds replaced by
    make(base.with_replica(replicas[k])), widened if that row needs it."""
    redone = {k: make(base.with_replica(replicas[k])) for k in np.flatnonzero(redo).tolist()}
    grow = max(map(len, redone.values()), default=0) - points.shape[1]
    if grow > 0:
        points = np.pad(points, ((0, 0), (0, grow)), constant_values=np.nan)
    for k, row in redone.items():
        points[k] = np.nan
        points[k, : len(row)] = row
    return points


def _minima_rows(steps: int, base: Seed, replicas: range) -> np.ndarray:
    """NaN-padded rows: row k holds brownian_minima(steps, base.with_replica(replicas[k])).points.

    Drawn one replica at a time, since numpy's ziggurat normal is not
    reproduced in array passes.
    """
    if steps < 3:
        raise BadParameter(f"need steps >= 3 for interior minima, got {steps}")
    check_budget("steps * replicas", steps * len(replicas))
    return _redo_rows(
        np.empty((len(replicas), 0)), np.ones(len(replicas), dtype=bool), base, replicas,
        lambda s: brownian_minima(steps, s).points,
    )


def _poisson_rows(cantor: FatCantor, base: Seed, replicas: range) -> np.ndarray:
    """NaN-padded rows: row k holds poisson_on_cantor(cantor, base.with_replica(replicas[k])).

    Below a mean of 10, numpy's Poisson draw is the multiplication method: the
    count is the number of leading doubles whose running product stays above
    exp(-mes C).  The next `count` doubles, times mes C, are the positions'
    uniforms.  A row whose doubles run out, or whose uniforms repeat or leave
    (0, mes C), is drawn by poisson_on_cantor.
    """
    measure = float(cantor.measure)
    if measure <= 0:
        raise BadParameter("cantor set must have positive measure")
    check_budget(f"replicas * {_POISSON_WIDTH} Poisson draws", len(replicas) * _POISSON_WIDTH)
    draws = base.uniforms(replicas, GENERATOR_DOMAIN, _POISSON, size=_POISSON_WIDTH)
    lengths = (np.cumprod(draws, axis=1) > math.exp(-measure)).sum(axis=1)
    cols = np.arange(int(lengths.max(initial=0)))
    take = np.minimum(lengths[:, None] + 1 + cols, _POISSON_WIDTH - 1)
    us = measure * np.take_along_axis(draws, take, axis=1)
    us[cols >= lengths[:, None]] = np.nan
    kept = (2 * lengths + 1 <= _POISSON_WIDTH) & _distinct_rows(us, 0.0, measure)
    return _redo_rows(cantor.place(us), ~kept, base, replicas, lambda s: poisson_on_cantor(cantor, s))


def _counterexample_rows(depth: int, cantor: FatCantor, base: Seed, replicas: range) -> np.ndarray:
    """NaN-padded rows: row k holds
    counterexample_mix(depth, cantor, base.with_replica(replicas[k])).points.

    The Poisson part comes from `_poisson_rows`.  The gap picks are the first
    `depth` doubles of each row's _MIX_SAMPLE substream that lie in a gap and
    inside (0, 1), read for all rows together one `_pcg64_passes` pass at a
    time, of k columns by `_pcg64_block`'s rule for width depth / gap measure.
    A row that runs short of picks, or that Enumeration would refuse (a pick
    repeated, or equal to a Poisson point), is drawn by counterexample_mix.
    """
    check_count("depth", depth)
    gap = _sample_gap(cantor, depth, len(replicas))
    poisson = _poisson_rows(cantor, base, replicas)
    lengths = (~np.isnan(poisson)).sum(axis=1)
    points = np.full((len(replicas), poisson.shape[1] + depth), np.nan)
    points[:, : poisson.shape[1]] = poisson
    k = max(1, min(math.ceil(depth / gap), _LEAP_ENTRIES // max(len(replicas), 1)))
    passes = _pcg64_passes(_seed_state(base.value, replicas, (GENERATOR_DOMAIN, _MIX_SAMPLE)), k)
    have = np.zeros(len(replicas), dtype=np.int64)
    read = 0
    while read <= _PICK_SLACK * depth / gap and (short := np.flatnonzero(have < depth)).size:
        block = next(passes).T[short]
        read += k
        keep = ~cantor.contains_points(block)  # 0 lies in C, so a gap double lies in (0, 1)
        slot = np.cumsum(keep, axis=1) + (have[short] - 1)[:, None]
        keep &= slot < depth
        rows = short[np.nonzero(keep)[0]]
        points[rows, lengths[rows] + slot[keep]] = block[keep]
        have[short] += keep.sum(axis=1)
    kept = (have == depth) & _distinct_rows(points)
    return _redo_rows(points, ~kept, base, replicas, lambda s: counterexample_mix(depth, cantor, s).points)


def intensity_estimate(
    make: Callable[[Seed], Enumeration], region: BinSet, replicas: int, seed
) -> Fraction:
    """Monte Carlo estimate of the weighted hit intensity sum_n n**-2 Pr(Y_n in A).

    Exact rational: with c_n the number of replicas whose n-th point lies in
    A, the estimate is sum_n c_n / n**2 / replicas, summed in integers over
    the least common multiple of the n**2 and returned as one Fraction.
    """
    check_count("replicas", replicas)
    check_budget("replicas", replicas)
    base = _as_seed(seed)
    rows = (make(base.with_replica(r)).points for r in range(replicas))
    hits = np.bincount(np.concatenate([np.flatnonzero(region.contains_points(row)) for row in rows]))
    counts = {n: c for n, c in enumerate(hits.tolist(), start=1) if c}
    scale = math.lcm(*(n * n for n in counts))
    return Fraction(sum(c * (scale // (n * n)) for n, c in counts.items()), scale * replicas)


class RevealingSelectors(Record):
    """Selector values that reconstruct the events which chose them.

    For each index k an independent event (the driver point falling below the
    threshold) decides whether the selector takes the low point or the mid
    point; since the two ranges are disjoint, the event can be read back off
    the selector value exactly: event_k holds iff chosen_k < 1/4.
    """

    __slots__ = ("low", "mid", "high", "events", "chosen")

    @property
    def depth(self) -> int:
        return len(self.chosen)


def revealing_selectors(depth: int, seed) -> RevealingSelectors:
    """Build the coupled family U_k, V_k, Z_k, A_k, Y_k of one replica."""
    check_count("depth", depth)
    check_budget("3 * depth", 3 * depth)
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
