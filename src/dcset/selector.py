"""Selectors over finite replica ensembles: coupling-driven, uniform, conditional.

The probability space is an ensemble of R seeded replicas with weight 1/R
each; a selector is one chosen point per replica.  A coupling between
replicas and value bins induces a selector by inverse-CDF sampling of a bin
per replica and picking the replica's lowest-index point inside it; a uniform
selector exists exactly when the replica-by-bin support mask carries a full
coupling, and conditioning on earlier selectors is realized cell-wise on the
joint coarse bins of their values.

An `Ensemble` holds its replicas as one read-only R-by-width array `points`,
row r's first `lengths[r]` entries being replica r's enumeration, and the
paths below run as array passes over it; the only Python loop left is over
conditioning cells, one cache lookup (or solve) per cell.
`Ensemble.first_index` holds, once per ensemble, each replica's lowest point
index in each bin (or -1); the support mask is where it is nonnegative.  A
selector table is drawn in one array pass: every replica's substream variate
comes from one `Seed.uniforms` call as an integer over 2**53, every row's
cumulative units are compared with it in exact integers at once, and values
are gathered from `points`.  Conditioning cells are dense integer ranks of
the joint coarse bins, taken in order by one stable sort.  The interleaved
enumeration marks used point indices in one R-by-width table, and
containment takes, for each point, the first table holding its value.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .duality import Coupling, MarginalCaps, SupportMask, solve
from .errors import (
    BadParameter,
    DepthExhausted,
    InsufficientDensity,
    UnsupportedCoupling,
    check_budget,
    check_count,
)
from .generators import (
    SELECTOR_DOMAIN,
    Enumeration,
    Seed,
    as_seed,
    row_slices,
    sample_rows,
)
from .grid_measure import UnitGrid
from .records import Record

# Filler past the end of a shorter replica's row of Ensemble.points.
_PAD = 0.5

__all__ = [
    "Ensemble",
    "SelectorTable",
    "sample_ensemble",
    "build_support_mask",
    "selector_from_coupling",
    "uniform_selector",
    "conditional_uniform_selector",
    "interleaved_enumeration",
    "interleave_containment",
    "verify_selector",
]


class Ensemble(Record, eq=False):
    """Replica enumerations packed as one padded points array, plus the value-axis grid.

    Row r of the read-only R-by-width array `points` holds replica r's
    enumeration in its first `lengths[r]` entries; the rest is padding.
    `Ensemble(replicas, grid)` packs a sequence of enumerations once.
    """

    __slots__ = ("points", "lengths", "grid", "__dict__")

    def __init__(self, replicas: Sequence[Enumeration], grid: UnitGrid):
        replicas = tuple(replicas)
        lengths = np.array([len(enum) for enum in replicas], dtype=np.int64)
        points = np.full((len(replicas), max(1, int(lengths.max(initial=0)))), _PAD)
        if replicas:
            points[np.arange(points.shape[1]) < lengths[:, None]] = np.concatenate(
                [enum.points for enum in replicas]
            )
        self._pack(points, lengths, grid)

    @classmethod
    def _packed(cls, points: np.ndarray, lengths: np.ndarray, grid: UnitGrid) -> "Ensemble":
        """Ensemble over rows already checked to be enumerations."""
        ensemble = cls.__new__(cls)
        ensemble._pack(points, lengths, grid)
        return ensemble

    def _pack(self, points: np.ndarray, lengths: np.ndarray, grid: UnitGrid) -> None:
        if not len(lengths):
            raise BadParameter("ensemble needs at least one replica")
        points.setflags(write=False)
        lengths.setflags(write=False)
        super().__init__(points, lengths, grid)

    @property
    def size(self) -> int:
        return len(self.lengths)

    @cached_property
    def first_index(self) -> np.ndarray:
        """R-by-n table: each replica's lowest point index in each bin, or -1.

        Rows are binned one `generators.row_slices` slice at a time, so no
        cell index of every point is held at once.
        """
        n = self.grid.n
        width = self.points.shape[1]
        index = np.arange(width)
        # Cell r*n + j takes the least index of replica r's points in bin j;
        # padding goes to one spare cell at the end.
        spare = self.size * n
        least = np.full(spare + 1, width, dtype=np.int64)
        first_cell = np.arange(0, spare, n)[:, None]
        for rows in row_slices(self.size, width):
            block = self.points[rows]
            cells = first_cell[rows] + self.grid.bins(block)
            cells[index >= self.lengths[rows, None]] = spare
            np.minimum.at(least, cells.ravel(), np.tile(index, len(block)))
        table = np.where(least[:spare] < width, least[:spare], -1).reshape(self.size, n)
        table.setflags(write=False)
        return table


def sample_ensemble(depth: int, count: int, grid: UnitGrid, seed) -> Ensemble:
    """Ensemble of uniform-sample replicas, the workhorse test bed.

    Replica r equals sample_uniform(depth, Seed(value, r)).  The rows come
    from `generators.sample_rows`: one `Seed.uniforms` call and one row check,
    a failing row rebuilt by sample_uniform.
    """
    if count < 1:
        raise BadParameter(f"ensemble needs at least one replica, got {count}")
    check_budget("replicas * bins", count * grid.n)
    points = sample_rows(depth, as_seed(seed), range(count))
    return Ensemble._packed(points, np.full(count, depth, dtype=np.int64), grid)


class SelectorTable(Record):
    """One selected point per replica plus its enumeration index."""

    __slots__ = ("values", "memberships")

    def __init__(self, values: np.ndarray, memberships: np.ndarray):
        vals = np.asarray(values, dtype=float)
        idx = np.asarray(memberships, dtype=np.int64)
        vals.setflags(write=False)
        idx.setflags(write=False)
        if vals.shape != idx.shape:
            raise BadParameter("values and memberships must align")
        super().__init__(vals, idx)

    def __len__(self) -> int:
        return int(self.values.size)


def verify_selector(ensemble: Ensemble, table: SelectorTable) -> bool:
    """Exact defining property: each value is its replica's indexed point."""
    if len(table) != ensemble.size:
        return False
    idx = table.memberships
    if not ((idx >= 0) & (idx < ensemble.lengths)).all():
        return False
    return bool((ensemble.points[np.arange(ensemble.size), idx] == table.values).all())


def build_support_mask(ensemble: Ensemble) -> SupportMask:
    """Replica-by-bin incidence: cell (r, j) true iff replica r hits bin j."""
    return SupportMask(ensemble.first_index >= 0)


def _units(units) -> np.ndarray:
    """Unit rows as an array: int64 when they are nonnegative with every row
    total below 2**10, so the draw's products stay below 2**63, else Python
    ints (dtype object), on which the same expressions run exactly."""
    try:
        units = np.asarray(units, dtype=np.int64)
    except OverflowError:
        return np.array(units, dtype=object)
    # The max bound also keeps the row sums from wrapping.
    small = units.min() >= 0 and units.max() < 2**10 and units.sum(axis=1).max() < 2**10
    return units if small else units.astype(object)


def _choose_bins(units: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Bin drawn by exact inverse CDF from each unit row with its variate k / 2**53.

    Row i takes the first bin j with k[i] / 2**53 < cum[i, j] / total[i],
    compared as k[i] * total[i] < 2**53 * cum[i, j].  For nonnegative units
    with a positive total that bin exists, as k[i] < 2**53, and carries
    mass, as cum steps up there.
    """
    cum = np.cumsum(units, axis=1)
    return (k[:, None] * cum[:, -1:] >= 2**53 * cum).sum(axis=1)


def _draw(
    ensemble: Ensemble, rows: np.ndarray, units: np.ndarray, seed: Seed, component: int
) -> SelectorTable:
    """Selector in which replica rows[i] draws its bin from unit row i.

    `rows` orders every replica once.  Each replica's variate from its own
    substream is a multiple of 2**-53, so `_choose_bins` draws its bin
    exactly; it then takes its lowest-index point in that bin.  A row with
    one charged bin takes that bin for every variate, so only rows with two
    or more draw one; the others keep k = 0.  Rows are checked in the given
    order, so the first bad one names the error.
    """
    first = ensemble.first_index[rows]
    negative = units < 0
    charged = units > 0
    missing = charged & (first < 0)
    bad = negative.any(axis=1) | ~charged.any(axis=1) | missing.any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        r = int(rows[i])
        if negative[i].any():
            j = int(np.argmax(negative[i]))
            raise UnsupportedCoupling(f"coupling gives replica {r} negative mass in bin {j}")
        if not charged[i].any():
            raise UnsupportedCoupling(f"coupling gives replica {r} zero mass")
        j = int(np.argmax(missing[i]))
        raise UnsupportedCoupling(f"coupling charges bin {j} where replica {r} has no point")
    k = np.zeros(len(rows), dtype=np.int64)
    multi = charged.sum(axis=1) > 1
    if multi.any():
        u = seed.uniforms(rows[multi], SELECTOR_DOMAIN, component)[:, 0]
        k[multi] = (u * 2**53).astype(np.int64)
    idx = first[np.arange(len(rows)), _choose_bins(units, k)]
    values = np.empty(ensemble.size)
    memberships = np.empty(ensemble.size, dtype=np.int64)
    memberships[rows] = idx
    values[rows] = ensemble.points[rows, idx]
    return SelectorTable(values, memberships)


def selector_from_coupling(
    ensemble: Ensemble, coupling: Coupling, seed, component: int = 0
) -> SelectorTable:
    """Selector induced by a replica-by-bin coupling.

    Raises UnsupportedCoupling if the coupling has a negative entry, charges a
    cell outside the ensemble's support mask or leaves a replica without mass.
    """
    base = as_seed(seed)
    if coupling.rows != ensemble.size or coupling.cols != ensemble.grid.n:
        raise BadParameter("coupling dimensions do not match the ensemble")
    return _draw(ensemble, np.arange(ensemble.size), _units(coupling.units), base, component)


def _full_units_or_obstruction(mask: SupportMask, cell=None) -> np.ndarray:
    """Unit rows of a full coupling on the mask under uniform caps, scattered
    from the solve's flow, or InsufficientDensity with the cheap cover."""
    cert = solve(mask, MarginalCaps.uniform(mask.rows, mask.cols))
    if cert.mass_units < cert.scale:  # value < 1, compared in integer units
        raise InsufficientDensity(cert.cover, cert.cover_cost, mask.cols, cell=cell)
    # An amount is at most the scale, lcm(rows, cols), which int64 holds.
    units = np.zeros(mask.cells.shape, dtype=np.int64)
    i, j, amounts = cert._flow_arrays
    units[i, j] = amounts
    return _units(units)


def uniform_selector(ensemble: Ensemble, seed, component: int = 0) -> SelectorTable:
    """Selector with per-bin frequencies converging to 1/n over replicas.

    Requires the ensemble's support mask to carry a full coupling; otherwise
    InsufficientDensity reports the cheap cover whose complement names the
    value bins the ensemble fails to reach.
    """
    units = _full_units_or_obstruction(build_support_mask(ensemble))
    return _draw(ensemble, np.arange(ensemble.size), units, as_seed(seed), component)


def _refine(rank: np.ndarray, bins: np.ndarray, n: int) -> np.ndarray:
    """Dense rank of (rank, bin) pairs, ordered as rank * n + bin."""
    return np.unique(rank * n + bins, return_inverse=True)[1].reshape(rank.shape)


def _conditional_by_rank(
    ensemble: Ensemble,
    rank: np.ndarray,
    label: Callable[[int], object],
    seed: Seed,
    component: int,
    mask: SupportMask,
    units_cache: dict,
) -> SelectorTable:
    """Uniform selector inside each cell of replicas sharing a rank.

    Cells are solved in rank order, and each cell's unit rows are cached by
    its sub-mask; the whole table is then drawn at once.  A cell with no full
    coupling is named by `label` of its first replica.
    """
    rows = np.argsort(rank, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(rank[rows])) + 1).tolist(), len(rows)]
    ordered = mask.cells[rows]
    # A cell's key is its rows' bytes, a slice of one buffer; the row count
    # is the key's length over the mask's width.
    raw, width = ordered.tobytes(), mask.cols
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        cache_key = raw[lo * width : hi * width]
        units = units_cache.get(cache_key)
        if units is None:
            cell = label(int(rows[lo]))
            sub = SupportMask(ordered[lo:hi])
            units = units_cache[cache_key] = _full_units_or_obstruction(sub, cell=cell)
        blocks.append(units)
    return _draw(ensemble, rows, np.concatenate(blocks), seed, component)


def conditional_uniform_selector(
    ensemble: Ensemble,
    priors: Sequence[SelectorTable],
    coarse: UnitGrid,
    seed,
    component: int = 0,
) -> SelectorTable:
    """Uniform selector independent of earlier selectors' coarse bins.

    Replicas are partitioned by the joint coarse-bin value of the priors and a
    uniform selector runs inside each cell, which enforces the product
    structure cell by cell.  A cell whose sub-mask has no full coupling raises
    InsufficientDensity naming that cell by its tuple of coarse bins.
    """
    base = as_seed(seed)
    if not priors:
        return uniform_selector(ensemble, base, component)
    for prior in priors:
        if len(prior) != ensemble.size:
            raise BadParameter("prior selector size does not match the ensemble")
    bin_rows = [coarse.bins(prior.values) for prior in priors]
    rank = np.zeros(ensemble.size, dtype=np.int64)
    for bins in bin_rows:
        rank = _refine(rank, bins, coarse.n)

    def label(r: int) -> tuple:
        return tuple(int(bins[r]) for bins in bin_rows)

    mask = build_support_mask(ensemble)
    return _conditional_by_rank(ensemble, rank, label, base, component, mask, {})


def interleaved_enumeration(
    ensemble: Ensemble, rounds: int, coarse: UnitGrid, seed
) -> list[SelectorTable]:
    """Alternating enumeration: fresh conditional selectors between base points.

    Table 1 copies each replica's first point.  Each round then appends an
    even table (a uniform selector conditioned on every table so far) and an
    odd table (the first enumeration point not yet used by that replica).
    The first j+1 base points are always contained in the first 2j+1 tables.

    Points of a replica are distinct, so a used value is a used index: one
    R-by-width table marks them.  Every index below the last odd pick is
    used, so the next odd pick is the first unused index of each row.  A
    failing conditioning cell is named by the mixed-radix int of its coarse
    bins over every table so far.
    """
    base = as_seed(seed)
    check_count("rounds", rounds, 0)
    check_budget("rounds * replicas", rounds * ensemble.size)
    empty = ensemble.lengths < 1
    if empty.any():
        raise DepthExhausted(int(np.argmax(empty)))

    mask = build_support_mask(ensemble)
    units_cache: dict = {}
    rows = np.arange(ensemble.size)
    # Padding counts as used, so no row can pick it.
    used = np.arange(ensemble.points.shape[1]) >= ensemble.lengths[:, None]
    history: list[np.ndarray] = []  # coarse bins of every table so far
    rank = np.zeros(ensemble.size, dtype=np.int64)

    def label(r: int) -> int:
        key = 0
        for bins in history:
            key = key * coarse.n + int(bins[r])
        return key

    def absorb(table: SelectorTable) -> None:
        nonlocal rank
        history.append(coarse.bins(table.values))
        rank = _refine(rank, history[-1], coarse.n)
        used[rows, table.memberships] = True

    first = SelectorTable(ensemble.points[:, 0], np.zeros(ensemble.size, dtype=np.int64))
    tables = [first]
    absorb(first)
    for round_no in range(1, rounds + 1):
        even = _conditional_by_rank(ensemble, rank, label, base, round_no, mask, units_cache)
        tables.append(even)
        absorb(even)

        odd_idx = np.argmax(~used, axis=1)
        exhausted = used[rows, odd_idx]
        if exhausted.any():
            raise DepthExhausted(int(np.argmax(exhausted)))
        odd = SelectorTable(ensemble.points[rows, odd_idx], odd_idx)
        tables.append(odd)
        absorb(odd)
    return tables


def interleave_containment(ensemble: Ensemble, tables: Sequence[SelectorTable]) -> np.ndarray:
    """Boolean matrix: entry (r, j) says the first j+1 base points of replica r
    all appear among tables 1..2j+1.

    Values are compared, not memberships.  first[r, k] is the first table
    whose value for replica r equals point k (len(tables) if none, or if the
    replica has no point k); the first j+1 points are in by table 2j+1
    exactly when the running max of first along k is at most 2j.
    """
    if any(len(table) != ensemble.size for table in tables):
        raise BadParameter("selector table size does not match the ensemble")
    rounds = (len(tables) - 1) // 2
    width = min(ensemble.points.shape[1], rounds + 1)
    index = np.arange(width)
    # Padding becomes NaN, which equals no value.
    points = np.where(index < ensemble.lengths[:, None], ensemble.points[:, :width], np.nan)
    first = np.full(points.shape, len(tables))
    for t in reversed(range(len(tables))):
        first[points == tables[t].values[:, None]] = t
    out = np.zeros((ensemble.size, rounds + 1), dtype=bool)
    out[:, :width] = np.maximum.accumulate(first, axis=1) <= 2 * index
    return out
