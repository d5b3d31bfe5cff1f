"""Selectors over finite replica ensembles: coupling-driven, uniform, conditional.

The probability space is an ensemble of R seeded replicas with weight 1/R
each; a selector is one chosen point per replica.  A coupling between
replicas and value bins induces a selector by inverse-CDF sampling of a bin
per replica and picking the replica's lowest-index point inside it; a uniform
selector exists exactly when the replica-by-bin support mask carries a full
coupling, and conditioning on earlier selectors is realized cell-wise on the
joint coarse bins of their values.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .generators import SELECTOR_DOMAIN, Enumeration, Seed, _as_seed, sample_uniform
from .grid_measure import UnitGrid

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

    @classmethod
    def generate(
        cls, make: Callable[[Seed], Enumeration], count: int, grid: UnitGrid, seed
    ) -> "Ensemble":
        base = _as_seed(seed)
        return cls(
            tuple(make(base.with_replica(r)) for r in range(count)), grid
        )


def sample_ensemble(depth: int, count: int, grid: UnitGrid, seed) -> Ensemble:
    """Ensemble of uniform-sample replicas, the workhorse test bed."""
    return Ensemble.generate(lambda s: sample_uniform(depth, s), count, grid, seed)


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
    n = ensemble.grid.n
    cells = np.zeros((ensemble.size, n), dtype=bool)
    for r, enum in enumerate(ensemble.replicas):
        if len(enum):
            cells[r, ensemble.grid.bins(enum.points)] = True
    return SupportMask(cells)


def _replica_bins(ensemble: Ensemble) -> list[np.ndarray]:
    return [
        ensemble.grid.bins(enum.points) if len(enum) else np.empty(0, dtype=np.int64)
        for enum in ensemble.replicas
    ]


def _draw_rows(
    ensemble: Ensemble,
    rows: Sequence[int],
    coupling: Coupling,
    seed: Seed,
    component: int,
    bins_per_replica: list[np.ndarray],
    values: np.ndarray,
    memberships: np.ndarray,
) -> None:
    """Fill the selector arrays for the given global rows from a coupling.

    Row k of the coupling corresponds to rows[k].  Each replica draws a bin by
    inverse CDF from its own substream, then takes its lowest-index point in
    that bin.
    """
    n = ensemble.grid.n
    for local, r in enumerate(rows):
        mass_row = coupling.mass[local]
        replica_bins = bins_per_replica[r]
        present = set(replica_bins.tolist())
        charged = [j for j in range(n) if mass_row[j] > 0]
        if not charged:
            raise UnsupportedCoupling(f"coupling gives replica {r} zero mass")
        for j in charged:
            if j not in present:
                raise UnsupportedCoupling(
                    f"coupling charges bin {j} where replica {r} has no point"
                )
        weights = np.array([float(x) for x in mass_row])
        cdf = np.cumsum(weights / weights.sum())
        u = seed.with_replica(r).stream(SELECTOR_DOMAIN, component).uniform()
        chosen = int(np.searchsorted(cdf, u, side="right"))
        chosen = min(chosen, n - 1)
        while mass_row[chosen] == 0:  # guard against float cdf round-off
            chosen -= 1
        idx = int(np.flatnonzero(replica_bins == chosen)[0])
        values[r] = ensemble.replicas[r].points[idx]
        memberships[r] = idx


def selector_from_coupling(
    ensemble: Ensemble, coupling: Coupling, seed, component: int = 0
) -> SelectorTable:
    """Selector induced by a replica-by-bin coupling.

    Raises UnsupportedCoupling if the coupling charges a cell outside the
    ensemble's support mask or leaves a replica without mass.
    """
    base = _as_seed(seed)
    if coupling.rows != ensemble.size or coupling.cols != ensemble.grid.n:
        raise BadParameter("coupling dimensions do not match the ensemble")
    bins_per_replica = _replica_bins(ensemble)
    values = np.empty(ensemble.size)
    memberships = np.empty(ensemble.size, dtype=np.int64)
    _draw_rows(
        ensemble,
        range(ensemble.size),
        coupling,
        base,
        component,
        bins_per_replica,
        values,
        memberships,
    )
    return SelectorTable(values, memberships)


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
    bins_per_replica: list[np.ndarray],
    solve_cache: dict,
) -> SelectorTable:
    cells: dict = {}
    for r, key in enumerate(keys):
        cells.setdefault(key, []).append(r)
    values = np.empty(ensemble.size)
    memberships = np.empty(ensemble.size, dtype=np.int64)
    for key in sorted(cells):
        rows = cells[key]
        sub = SupportMask(mask.cells[rows])
        cache_key = (len(rows), sub.cells.tobytes())
        coupling = solve_cache.get(cache_key)
        if coupling is None:
            coupling = _full_coupling_or_obstruction(sub, ensemble.grid.n, cell=key)
            solve_cache[cache_key] = coupling
        _draw_rows(
            ensemble, rows, coupling, seed, component, bins_per_replica, values, memberships
        )
    return SelectorTable(values, memberships)


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
    return _conditional_by_keys(
        ensemble, keys, base, component, mask, _replica_bins(ensemble), {}
    )


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
    bins_per_replica = _replica_bins(ensemble)
    solve_cache: dict = {}
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
        even = _conditional_by_keys(
            ensemble, keys, base, round_no, mask, bins_per_replica, solve_cache
        )
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
