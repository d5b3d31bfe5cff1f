"""Selectors over finite replica ensembles: coupling-driven, uniform, conditional.

The probability space is an ensemble of R seeded replicas with weight 1/R
each; a selector is one chosen point per replica.  A coupling between
replicas and value bins induces a selector by inverse-CDF sampling of a bin
per replica and picking the replica's lowest-index point inside it; a uniform
selector exists exactly when the replica-by-bin support mask carries a full
coupling, and conditioning on earlier selectors is realized cell-wise on the
joint coarse bins of their values.

`Ensemble.first_index` holds, once per ensemble, each replica's lowest point
index in each bin (or -1); the support mask is where it is nonnegative.  A
selector table is drawn in one array pass: the coupling's integer units over
its scale become float weights, every row's CDF is formed at once, and every
replica's substream variate comes from one `Seed.uniforms` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .duality import Coupling, MarginalCaps, SupportMask, full_coupling
from .errors import (
    BadParameter,
    DeficientSupport,
    DepthExhausted,
    InsufficientDensity,
    UnsupportedCoupling,
)
from .generators import (
    _SAMPLE,
    GENERATOR_DOMAIN,
    SELECTOR_DOMAIN,
    Enumeration,
    Seed,
    _as_seed,
    sample_uniform,
)
from .grid_measure import UnitGrid

# Bound on the padded points binned at once in Ensemble.first_index.
_BLOCK_POINTS = 1 << 16

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


@dataclass(frozen=True)
class Ensemble:
    """Replica enumerations plus the value-axis grid."""

    replicas: tuple
    grid: UnitGrid

    def __post_init__(self):
        if not self.replicas:
            raise BadParameter("ensemble needs at least one replica")
        object.__setattr__(self, "replicas", tuple(self.replicas))

    @property
    def size(self) -> int:
        return len(self.replicas)

    @cached_property
    def first_index(self) -> np.ndarray:
        """R-by-n table: each replica's lowest point index in each bin, or -1.

        Replicas are binned a block at a time into a padded array, so no
        copy of every replica's points is held at once.
        """
        n = self.grid.n
        lengths = np.array([len(enum) for enum in self.replicas])
        width = max(1, int(lengths.max()))
        step = max(1, _BLOCK_POINTS // width)
        # Cell r*n + j takes the least index of replica r's points in bin j;
        # padding goes to one spare cell at the end.
        spare = self.size * n
        least = np.full(spare + 1, width, dtype=np.int64)
        for lo in range(0, self.size, step):
            block = self.replicas[lo : lo + step]
            points = np.full((len(block), width), 0.5)
            for k, enum in enumerate(block):
                points[k, : len(enum)] = enum.points
            cells = (lo + np.arange(len(block)))[:, None] * n + self.grid.bins(points)
            cells[np.arange(width) >= lengths[lo : lo + step, None]] = spare
            np.minimum.at(least, cells.ravel(), np.tile(np.arange(width), len(block)))
        table = np.where(least[:spare] < width, least[:spare], -1).reshape(self.size, n)
        table.setflags(write=False)
        return table

    @classmethod
    def generate(
        cls, make: Callable[[Seed], Enumeration], count: int, grid: UnitGrid, seed
    ) -> "Ensemble":
        base = _as_seed(seed)
        return cls(
            tuple(make(base.with_replica(r)) for r in range(count)), grid
        )


def sample_ensemble(depth: int, count: int, grid: UnitGrid, seed) -> Ensemble:
    """Ensemble of uniform-sample replicas, the workhorse test bed.

    Replica r equals sample_uniform(depth, Seed(value, r)).  Every replica's
    first `depth` draws come from one `Seed.uniforms` call; a row that
    sample_uniform would not keep whole (a repeated point or a 0.0) is
    rebuilt by sample_uniform itself.
    """
    if depth < 1:
        raise BadParameter(f"depth must be >= 1, got {depth}")
    base = _as_seed(seed)
    drawn = base.uniforms(range(count), GENERATOR_DOMAIN, _SAMPLE, size=depth)
    ordered = np.sort(drawn, axis=1)
    redraw = (ordered[:, 0] <= 0.0) | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    replicas = tuple(
        sample_uniform(depth, base.with_replica(r))
        if again
        else Enumeration(row, depth=depth, provenance="sample")
        for r, (row, again) in enumerate(zip(drawn, redraw.tolist()))
    )
    return Ensemble(replicas, grid)


@dataclass(frozen=True)
class SelectorTable:
    """One selected point per replica plus its enumeration index."""

    values: np.ndarray
    memberships: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        idx = np.asarray(self.memberships, dtype=np.int64)
        vals.setflags(write=False)
        idx.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "memberships", idx)
        if vals.shape != idx.shape:
            raise BadParameter("values and memberships must align")

    def __len__(self) -> int:
        return int(self.values.size)


def verify_selector(ensemble: Ensemble, table: SelectorTable) -> bool:
    """Exact defining property: each value is its replica's indexed point."""
    if len(table) != ensemble.size:
        return False
    for enum, value, idx in zip(ensemble.replicas, table.values, table.memberships):
        if idx < 0 or idx >= len(enum) or enum.points[idx] != value:
            return False
    return True


def build_support_mask(ensemble: Ensemble) -> SupportMask:
    """Replica-by-bin incidence: cell (r, j) true iff replica r hits bin j."""
    return SupportMask(ensemble.first_index >= 0)


def _weights(coupling: Coupling) -> np.ndarray:
    """Float weights units / scale.

    Python's int division rounds once, so each weight equals float(Fraction)
    of its entry, even for units and scales beyond 2**53.
    """
    scale = coupling.scale
    return np.array([[u / scale for u in row] for row in coupling.units])


def _choose_bins(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Bin drawn by inverse CDF from each weight row with its uniform variate.

    Row k gives np.searchsorted(np.cumsum(w / w.sum()), u[k], "right") for
    its weights w, clamped to the last bin and stepped down to the last
    charged bin at or below it.
    """
    n = weights.shape[1]
    cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    chosen = np.minimum((cdf <= u[:, None]).sum(axis=1), n - 1)
    # Guard against float cdf round-off, which can land on an uncharged bin.
    last_charged = np.maximum.accumulate(np.where(weights != 0, np.arange(n), -1), axis=1)
    return last_charged[np.arange(len(u)), chosen]


def _draw(
    ensemble: Ensemble, rows: np.ndarray, weights: np.ndarray, seed: Seed, component: int
) -> SelectorTable:
    """Selector in which replica rows[k] draws its bin from weight row k.

    `rows` orders every replica once.  Each replica draws a bin by inverse
    CDF from its own substream, then takes its lowest-index point in that
    bin.  Rows are checked in the given order, so the first bad one names
    the error.
    """
    first = ensemble.first_index[rows]
    negative = weights < 0
    charged = weights > 0
    missing = charged & (first < 0)
    bad = negative.any(axis=1) | ~charged.any(axis=1) | missing.any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        r = int(rows[k])
        if negative[k].any():
            j = int(np.argmax(negative[k]))
            raise UnsupportedCoupling(f"coupling gives replica {r} negative mass in bin {j}")
        if not charged[k].any():
            raise UnsupportedCoupling(f"coupling gives replica {r} zero mass")
        j = int(np.argmax(missing[k]))
        raise UnsupportedCoupling(f"coupling charges bin {j} where replica {r} has no point")
    u = seed.uniforms(rows.tolist(), SELECTOR_DOMAIN, component)[:, 0]
    idx = first[np.arange(len(rows)), _choose_bins(weights, u)]
    values = np.empty(ensemble.size)
    memberships = np.empty(ensemble.size, dtype=np.int64)
    memberships[rows] = idx
    for r, i in zip(rows.tolist(), idx.tolist()):
        values[r] = ensemble.replicas[r].points[i]
    return SelectorTable(values, memberships)


def selector_from_coupling(
    ensemble: Ensemble, coupling: Coupling, seed, component: int = 0
) -> SelectorTable:
    """Selector induced by a replica-by-bin coupling.

    Raises UnsupportedCoupling if the coupling has a negative entry, charges a
    cell outside the ensemble's support mask or leaves a replica without mass.
    """
    base = _as_seed(seed)
    if coupling.rows != ensemble.size or coupling.cols != ensemble.grid.n:
        raise BadParameter("coupling dimensions do not match the ensemble")
    return _draw(ensemble, np.arange(ensemble.size), _weights(coupling), base, component)


def _full_coupling_or_obstruction(mask: SupportMask, n_bins: int, cell=None) -> Coupling:
    try:
        return full_coupling(mask, MarginalCaps.uniform(mask.rows, mask.cols))
    except DeficientSupport as exc:
        raise InsufficientDensity(exc.witness, exc.cost, n_bins, cell=cell) from exc


def uniform_selector(ensemble: Ensemble, seed, component: int = 0) -> SelectorTable:
    """Selector with per-bin frequencies converging to 1/n over replicas.

    Requires the ensemble's support mask to carry a full coupling; otherwise
    InsufficientDensity reports the cheap cover whose complement names the
    value bins the ensemble fails to reach.
    """
    mask = build_support_mask(ensemble)
    coupling = _full_coupling_or_obstruction(mask, ensemble.grid.n)
    return selector_from_coupling(ensemble, coupling, seed, component)


def _conditional_by_keys(
    ensemble: Ensemble,
    keys: Sequence,
    seed: Seed,
    component: int,
    mask: SupportMask,
    weight_cache: dict,
) -> SelectorTable:
    """Uniform selector inside each cell of replicas sharing a key.

    Cells are solved in key order, and each cell's weight rows are cached by
    its sub-mask; the whole table is then drawn at once.
    """
    cells: dict = {}
    for r, key in enumerate(keys):
        cells.setdefault(key, []).append(r)
    rows: list[int] = []
    blocks = []
    for key in sorted(cells):
        members = cells[key]
        sub = mask.cells[members]
        cache_key = (len(members), sub.tobytes())
        weights = weight_cache.get(cache_key)
        if weights is None:
            coupling = _full_coupling_or_obstruction(SupportMask(sub), ensemble.grid.n, cell=key)
            weights = weight_cache[cache_key] = _weights(coupling)
        rows.extend(members)
        blocks.append(weights)
    return _draw(ensemble, np.array(rows), np.concatenate(blocks), seed, component)


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
    InsufficientDensity naming that cell.
    """
    base = _as_seed(seed)
    if not priors:
        return uniform_selector(ensemble, base, component)
    for prior in priors:
        if len(prior) != ensemble.size:
            raise BadParameter("prior selector size does not match the ensemble")
    bin_rows = [coarse.bins(prior.values) for prior in priors]
    keys = [tuple(int(row[r]) for row in bin_rows) for r in range(ensemble.size)]
    mask = build_support_mask(ensemble)
    return _conditional_by_keys(ensemble, keys, base, component, mask, {})


def interleaved_enumeration(
    ensemble: Ensemble, rounds: int, coarse: UnitGrid, seed
) -> list[SelectorTable]:
    """Alternating enumeration: fresh conditional selectors between base points.

    Table 1 copies each replica's first point.  Each round then appends an
    even table (a uniform selector conditioned on every table so far) and an
    odd table (the first enumeration point not yet used by that replica).
    The first j+1 base points are always contained in the first 2j+1 tables.
    """
    base = _as_seed(seed)
    if rounds < 0:
        raise BadParameter(f"rounds must be >= 0, got {rounds}")
    for r, enum in enumerate(ensemble.replicas):
        if len(enum) < 1:
            raise DepthExhausted(r)

    mask = build_support_mask(ensemble)
    weight_cache: dict = {}
    R = ensemble.size

    first = SelectorTable(
        np.array([enum.points[0] for enum in ensemble.replicas]),
        np.zeros(R, dtype=np.int64),
    )
    tables = [first]
    used = [{float(enum.points[0])} for enum in ensemble.replicas]
    scan = [1] * R  # per replica: first candidate index not yet checked off
    keys = [0] * R

    def absorb(table: SelectorTable) -> None:
        bins = coarse.bins(table.values)
        for r in range(R):
            keys[r] = keys[r] * coarse.n + int(bins[r])
            used[r].add(float(table.values[r]))

    absorb(first)
    for round_no in range(1, rounds + 1):
        even = _conditional_by_keys(ensemble, keys, base, round_no, mask, weight_cache)
        tables.append(even)
        absorb(even)

        odd_values = np.empty(R)
        odd_idx = np.empty(R, dtype=np.int64)
        for r, enum in enumerate(ensemble.replicas):
            pts = enum.points
            k = scan[r]
            while k < len(pts) and float(pts[k]) in used[r]:
                k += 1
            if k >= len(pts):
                raise DepthExhausted(r)
            scan[r] = k
            odd_values[r] = pts[k]
            odd_idx[r] = k
        odd = SelectorTable(odd_values, odd_idx)
        tables.append(odd)
        absorb(odd)
    return tables


def interleave_containment(ensemble: Ensemble, tables: Sequence[SelectorTable]) -> np.ndarray:
    """Boolean matrix: entry (r, j) says the first j+1 base points of replica r
    all appear among tables 1..2j+1."""
    rounds = (len(tables) - 1) // 2
    R = ensemble.size
    out = np.zeros((R, rounds + 1), dtype=bool)
    for r, enum in enumerate(ensemble.replicas):
        seen: set[float] = set()
        for j in range(rounds + 1):
            for t in range(max(0, 2 * j - 1), 2 * j + 1):
                if t < len(tables):
                    seen.add(float(tables[t].values[r]))
            needed = enum.points[: j + 1]
            out[r, j] = len(needed) == j + 1 and all(float(p) in seen for p in needed)
    return out
