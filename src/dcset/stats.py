"""Statistical test batteries for the simulators and selectors.

Every test is a deterministic function of its seed and parameters and returns
a TestReport whose `passed` flag means "statistic below threshold".  Expected
failures (a counterexample being told apart from the pure sample, say) are
asserted by the caller reading `passed` as False; the tests themselves never
flip their own semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaincinv

from .errors import BadParameter, SparseTable, TooFewSamples, check_budget
from .generators import (
    REVEAL_CUT,
    STATS_DOMAIN,
    Enumeration,
    RevealingSelectors,
    Seed,
    _as_seed,
    _counterexample_rows,
    _poisson_rows,
    _row_slices,
    _sample_rows,
    gaussian_walk,
)
from .grid_measure import CyclicShift, FatCantor, cyclic_shift_points
from .selector import SelectorTable

__all__ = [
    "TestReport",
    "ShiftHitCurve",
    "ks_uniform",
    "chi_square_independence",
    "two_sample_test",
    "count_in",
    "fragment_independence_test",
    "stationarity_test",
    "distinguish_counterexample",
    "shift_hit_curve",
    "nonsingularity_diagnostic",
    "event_reconstruction_check",
    "dyadic_rationals",
]

# Points drawn per fragment by the sample observable of fragment_independence_test.
_FRAG_POINTS = 4
# nonsingularity_diagnostic keeps replicas whose Y lies below this cut ...
_HALF_THRESHOLD = 0.5
# ... and flags a cell whose joint mass exceeds this multiple of its product mass.
_RATIO_CAP = 4.0
# distinguish_counterexample holds every replica's arms at once, so it refuses
# more than this many replicas * (depth + 1) points (criterion 07 draws 100,500).
DISTINGUISH_BUDGET = 10_000_000
# shift_hit_curve tests every shift against the largest depth's prefix, so it
# refuses more than this many shifts * largest depth (200 * 1024 by default);
# `shifthit` holds its --grid bin count to the same budget.
SHIFT_HIT_BUDGET = 10_000_000
# fragment_independence_test holds one observable per fragment and replica and
# draws a walk of `steps` per replica for walks, so it refuses more than this
# many replicas * (fragments + walk steps) (400 * 2 sample fragments by default).
INDEPENDENCE_BUDGET = 10_000_000
# stationarity_test draws two enumerations per replica, so `stationarity`
# refuses more than this many replicas * depth points (replicas * steps for
# minima; 400 * 200 by default).  stationarity_test cannot see the depth and
# counts it as 1, refusing more than this many replicas before any shift.
STATIONARITY_BUDGET = 10_000_000


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical check; `passed` iff statistic below threshold."""

    name: str
    statistic: float
    threshold: float
    level: float
    passed: bool
    replicas: int | None = None
    seed: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def rejected(self) -> bool:
        return not self.passed


def _chi2_quantile(q: float, df: int) -> float:
    """The q-quantile of the chi-square law with df degrees of freedom.

    The formula scipy.stats.chi2.ppf evaluates, without importing scipy.stats.
    """
    return float(2 * gammaincinv(df / 2, q))


def _check_level(level: float) -> None:
    if not 0 < level < 1:
        raise BadParameter(f"level must lie strictly between 0 and 1, got {level}")


def ks_uniform(values, level: float = 0.01, seed: int | None = None) -> TestReport:
    """One-sample Kolmogorov-Smirnov test against the uniform law on (0,1).

    Uses the asymptotic critical value c(level)/sqrt(N) with
    c(a) = sqrt(ln(2/a)/2).
    """
    _check_level(level)
    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    if n < 20:
        raise TooFewSamples(f"KS needs >= 20 values, got {n}")
    grid = np.arange(1, n + 1) / n
    statistic = float(max((grid - xs).max(), (xs - (grid - 1 / n)).max()))
    threshold = math.sqrt(math.log(2 / level) / 2) / math.sqrt(n)
    return TestReport(
        name="ks-uniform",
        statistic=statistic,
        threshold=threshold,
        level=level,
        passed=statistic < threshold,
        replicas=n,
        seed=seed,
    )


def chi_square_independence(
    x_bins, y_bins, rows: int, cols: int, level: float = 0.01, seed: int | None = None
) -> TestReport:
    """Pearson independence test on a rows-by-cols contingency table."""
    _check_level(level)
    x = np.asarray(x_bins, dtype=np.int64)
    y = np.asarray(y_bins, dtype=np.int64)
    if x.shape != y.shape:
        raise BadParameter("paired categorical lists must have equal length")
    if rows < 2 or cols < 2:
        raise BadParameter("independence needs at least a 2x2 table")
    for name, cats, size in (("row", x, rows), ("column", y, cols)):
        if ((cats < 0) | (cats >= size)).any():
            raise BadParameter(f"{name} categories must lie in 0..{size - 1}")
    table = np.zeros((rows, cols))
    np.add.at(table, (x, y), 1)
    n = table.sum()
    if n == 0:
        raise SparseTable("empty table: every expected cell count is 0")
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    if not (expected >= 5).all():
        raise SparseTable(
            f"minimum expected cell count {expected.min():.3g} below 5"
        )
    statistic = float(((table - expected) ** 2 / expected).sum())
    df = (rows - 1) * (cols - 1)
    threshold = _chi2_quantile(1 - level, df)
    return TestReport(
        name="chi-square-independence",
        statistic=statistic,
        threshold=threshold,
        level=level,
        passed=statistic < threshold,
        replicas=int(n),
        seed=seed,
        details={"df": df},
    )


def _bucket_labels(pooled: np.ndarray, min_pooled: int) -> tuple[np.ndarray, int]:
    """Deterministic bucketing of pooled values: distinct values (or pooled
    quantiles when there are many), greedily merged left to right until each
    bucket holds at least `min_pooled` pooled observations."""
    uniq = np.unique(pooled)
    if uniq.size > 24:
        qs = np.quantile(pooled, np.linspace(0, 1, 13)[1:-1], method="lower")
        uniq = np.unique(qs)
    raw = np.searchsorted(uniq, pooled, side="right")
    counts = np.bincount(raw, minlength=uniq.size + 1)
    merged_of_raw = np.zeros(counts.size, dtype=np.int64)
    bucket, acc = 0, 0
    for k, c in enumerate(counts):
        merged_of_raw[k] = bucket
        acc += c
        if acc >= min_pooled:
            bucket += 1
            acc = 0
    if acc:  # fold a light tail into the previous bucket
        merged_of_raw[merged_of_raw == bucket] = max(bucket - 1, 0)
    n_buckets = int(merged_of_raw.max()) + 1
    return merged_of_raw[raw], n_buckets


def two_sample_test(
    xs, ys, level: float = 0.01, seed: int | None = None, name: str = "two-sample"
) -> TestReport:
    """Chi-square homogeneity test of two samples over deterministic buckets."""
    _check_level(level)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 10 or ys.size < 10:
        raise TooFewSamples("two-sample test needs >= 10 values per arm")
    pooled = np.concatenate([xs, ys])
    min_pooled = max(10, math.ceil(5 * pooled.size / min(xs.size, ys.size)))
    labels, n_buckets = _bucket_labels(pooled, min_pooled)
    if n_buckets < 2:
        return TestReport(
            name=name,
            statistic=0.0,
            threshold=_chi2_quantile(1 - level, 1),
            level=level,
            passed=True,
            replicas=int(pooled.size),
            seed=seed,
            details={"buckets": 1, "note": "single bucket; arms indistinguishable"},
        )
    table = np.zeros((2, n_buckets))
    np.add.at(table, (0, labels[: xs.size]), 1)
    np.add.at(table, (1, labels[xs.size :]), 1)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / pooled.size
    statistic = float(((table - expected) ** 2 / expected).sum())
    df = n_buckets - 1
    threshold = _chi2_quantile(1 - level, df)
    return TestReport(
        name=name,
        statistic=statistic,
        threshold=threshold,
        level=level,
        passed=statistic < threshold,
        replicas=int(pooled.size),
        seed=seed,
        details={"buckets": n_buckets, "df": df},
    )


def count_in(region) -> Callable[[np.ndarray], float]:
    """Observable factory: number of points falling in a BinSet or FatCantor."""

    def observe(points: np.ndarray) -> float:
        pts = np.asarray(points, dtype=float)
        if not pts.size:
            return 0.0
        return float(region.contains_points(pts).sum())

    return observe


def _sample_fragment_category(rng, lo: float, hi: float) -> int:
    pts = lo + (hi - lo) * rng.uniform(size=_FRAG_POINTS)
    count = int((pts < (lo + hi) / 2).sum())
    if count <= _FRAG_POINTS // 2 - 1:
        return 0
    if count == _FRAG_POINTS // 2:
        return 1
    return 2


def _walk_fragment_category(walk_values: np.ndarray, steps: int, lo: float, hi: float) -> int:
    # Strict minima whose detection pattern uses increments inside [lo, hi] only.
    k_lo = max(1, math.ceil(lo * steps) + 1)
    k_hi = min(steps - 1, math.floor(hi * steps) - 1)
    if k_hi < k_lo:
        return 0
    ks = np.arange(k_lo, k_hi + 1)
    v = walk_values
    pattern = (v[ks - 1] > v[ks]) & (v[ks] < v[ks + 1])
    candidates = ks[pattern]
    if not candidates.size:
        return 0
    deepest = candidates[np.argmin(v[candidates])]
    relative = (deepest / steps - lo) / (hi - lo)
    return 0 if relative < 0.5 else 1


def fragment_independence_test(
    kind: str,
    cuts: Sequence[float],
    replicas: int,
    seed,
    level: float = 0.01,
    steps: int = 2048,
) -> TestReport:
    """Independence of bounded per-fragment observables across a partition.

    For the sample, each fragment is realized by its own substream (the
    fragments of an infinite sample are independent sets; fixed-depth counts
    of one global sample are not, since they sum to the depth) and the
    observable is the capped count of the fragment's first points in its left
    half.  For walks the observable is the coarse position of the deepest
    strict local minimum detected from increments inside the fragment.
    """
    _check_level(level)
    cuts = [float(c) for c in cuts]
    if len(cuts) < 3:
        raise BadParameter("need at least two fragments")
    if cuts[0] != 0.0 or cuts[-1] != 1.0 or any(a >= b for a, b in zip(cuts, cuts[1:])):
        raise BadParameter("cuts must increase strictly from 0 to 1")
    if kind not in ("sample", "walk"):
        raise BadParameter(f"unknown fragment kind {kind!r}")
    if replicas < 1:
        raise BadParameter(f"replicas must be >= 1, got {replicas}")
    base = _as_seed(seed)

    fragments = list(zip(cuts, cuts[1:]))
    work = replicas * (len(fragments) + (steps if kind == "walk" else 0))
    check_budget("replicas * (fragments + walk steps)", work, INDEPENDENCE_BUDGET)
    categories = 3 if kind == "sample" else 2
    obs = np.zeros((len(fragments), replicas), dtype=np.int64)
    for r in range(replicas):
        own = base.with_replica(r)
        if kind == "walk":
            walk = gaussian_walk(steps, own)
        for f, (lo, hi) in enumerate(fragments):
            if kind == "sample":
                rng = own.stream(STATS_DOMAIN, 10 + f)
                obs[f, r] = _sample_fragment_category(rng, lo, hi)
            else:
                obs[f, r] = _walk_fragment_category(walk.values, steps, lo, hi)

    pair_reports = {}
    worst = None
    for i in range(len(fragments)):
        for j in range(i + 1, len(fragments)):
            rep = chi_square_independence(
                obs[i], obs[j], categories, categories, level, base.value
            )
            pair_reports[f"{i}-{j}"] = rep.statistic
            if worst is None or rep.statistic > worst.statistic:
                worst = rep
    return TestReport(
        name=f"fragment-independence-{kind}",
        statistic=worst.statistic,
        threshold=worst.threshold,
        level=level,
        passed=all(v < worst.threshold for v in pair_reports.values()),
        replicas=replicas,
        seed=base.value,
        details={"pairs": pair_reports, "df": worst.details["df"]},
    )


def stationarity_test(
    make: Callable[[Seed], Enumeration],
    observable: Callable[[np.ndarray], float],
    replicas: int,
    seed,
    level: float = 0.01,
) -> TestReport:
    """Two-sample comparison of an observable on X versus on a freshly shifted X.

    The second arm uses independent replicas and one fresh uniform shift per
    replica; a stationary construction produces identically distributed arms.
    """
    _check_level(level)
    if replicas < 1:
        raise BadParameter(f"replicas must be >= 1, got {replicas}")
    if replicas < 10:
        raise TooFewSamples("stationarity test needs >= 10 replicas per arm")
    check_budget("replicas", replicas, STATIONARITY_BUDGET)

    base = _as_seed(seed)
    shifts = base.uniforms(range(replicas, 2 * replicas), STATS_DOMAIN, 0)[:, 0]

    def one(r: int) -> tuple[float, float]:
        plain_obs = observable(make(base.with_replica(r)).points)
        twin = base.with_replica(replicas + r)
        moved = cyclic_shift_points(CyclicShift(float(shifts[r])), make(twin).points.tolist())
        return plain_obs, observable(np.array(moved))

    pairs = [one(r) for r in range(replicas)]
    plain = np.array([p for p, _ in pairs])
    shifted = np.array([q for _, q in pairs])
    report = two_sample_test(plain, shifted, level, base.value, name="stationarity")
    report.details["mean_plain"] = float(plain.mean())
    report.details["mean_shifted"] = float(shifted.mean())
    return report


def _count_in_rows(region, points: np.ndarray, lengths=None) -> np.ndarray:
    """Per row, as a float: how many of its first lengths[r] points (all of
    them by default) lie in the region, tested a slice of rows at a time."""
    counts = np.empty(len(points))
    for rows in _row_slices(*points.shape):
        hits = region.contains_points(points[rows])
        if lengths is not None:
            hits &= np.arange(points.shape[1]) < lengths[rows, None]
        counts[rows] = hits.sum(axis=1)
    return counts


def _distinguish_arms(cantor: FatCantor, depth: int, replicas: int, base: Seed):
    """Both arms of distinguish_counterexample, drawn for all replicas at once.

    Entry r is, as a float, the count in C of sample_uniform(depth, ...) and of
    counterexample_mix(depth, cantor, ...) at base.with_replica(r); at depth 0
    it is 0 and the size of poisson_on_cantor(cantor, ...).
    """
    if depth == 0:
        return np.zeros(replicas), _poisson_rows(cantor, base, replicas)[1].astype(float)
    return (
        _count_in_rows(cantor, _sample_rows(depth, replicas, base)),
        _count_in_rows(cantor, *_counterexample_rows(depth, cantor, base, replicas)),
    )


def distinguish_counterexample(
    cantor: FatCantor, depth: int, replicas: int, seed, level: float = 1e-6
) -> TestReport:
    """Count-in-C statistic separating the pure sample from the mixed set.

    The sample arm has mean depth * mes C, the mixed arm mean mes C, so the
    homogeneity test is expected to reject (`passed` False) decisively.
    Both arms are drawn for all replicas at once (see `_distinguish_arms`),
    so `replicas * (depth + 1)` may not exceed DISTINGUISH_BUDGET.
    """
    _check_level(level)
    if replicas < 1:
        raise BadParameter(f"replicas must be >= 1, got {replicas}")
    check_budget("replicas * (depth + 1)", replicas * (depth + 1), DISTINGUISH_BUDGET)
    base = _as_seed(seed)
    xs, ys = _distinguish_arms(cantor, depth, replicas, base)
    report = two_sample_test(xs, ys, level, base.value, name="distinguish-counterexample")
    report.details["mean_sample"] = float(xs.mean())
    report.details["mean_counterexample"] = float(ys.mean())
    return report


def dyadic_rationals(count: int) -> np.ndarray:
    """First `count` dyadic rationals of (0,1), enumerated level by level."""
    out: list[float] = []
    level = 1
    while len(out) < count:
        out.extend(k / 2**level for k in range(1, 2**level, 2))
        level += 1
    return np.array(out[:count])


@dataclass(frozen=True)
class ShiftHitCurve:
    """Hit counts of shifted dyadic prefixes against a fixed region."""

    depths: tuple
    means: tuple
    medians: tuple
    expected: tuple
    shifts: int
    seed: int

    @property
    def medians_nondecreasing(self) -> bool:
        return all(a <= b for a, b in zip(self.medians, self.medians[1:]))


def shift_hit_curve(region, depths: Sequence[int], shifts: int, seed) -> ShiftHitCurve:
    """Counts |{l in L_D : T_s(l) in A}| over random shifts s, per depth.

    By averaging over the uniform shift, the expected count equals
    D * mes(region) exactly; the curve grows without bound in D.
    `shifts * max(depths)` may not exceed SHIFT_HIT_BUDGET.
    """
    depths = sorted(int(d) for d in depths)
    if not depths or depths[0] < 1:
        raise BadParameter("depths must be positive")
    if shifts < 1:
        raise BadParameter(f"shifts must be >= 1, got {shifts}")
    check_budget("shifts * largest depth", shifts * depths[-1], SHIFT_HIT_BUDGET)
    base = _as_seed(seed)
    points = dyadic_rationals(depths[-1])
    ss = base.stream(STATS_DOMAIN, 1).uniform(size=shifts)
    counts = np.zeros((shifts, len(depths)))
    for i, s in enumerate(ss):
        moved = points + s
        moved = np.where(moved >= 1.0, moved - 1.0, moved)
        ok = (moved > 0.0) & (moved < 1.0)  # the single undefined point drops out
        hits = np.zeros(points.size, dtype=bool)
        hits[ok] = region.contains_points(moved[ok])
        prefix = np.cumsum(hits)
        counts[i] = [prefix[d - 1] for d in depths]
    measure = float(region.measure)
    return ShiftHitCurve(
        depths=tuple(depths),
        means=tuple(float(c) for c in counts.mean(axis=0)),
        medians=tuple(float(c) for c in np.median(counts, axis=0)),
        expected=tuple(measure * d for d in depths),
        shifts=shifts,
        seed=base.value,
    )


def nonsingularity_diagnostic(
    y_table: SelectorTable,
    z_table: SelectorTable,
    resolution: int = 8,
    seed: int | None = None,
) -> TestReport:
    """Empirical absolute-continuity proxy for a selector pair within an event.

    Restricted to the replicas with Y below 1/2, at least 4 r^2 of them, the
    joint histogram of (Y, Z) bins is compared cell-wise against the product
    of marginals: a cell is flagged when its joint mass exceeds four times the
    product mass (the product floored at 1/(4 r^2), to stabilize thin
    marginals).  Joint mass concentrating on a thin set flags; any pair with a
    bounded joint density passes.  A proxy, not a proof.
    """
    y = np.asarray(y_table.values, dtype=float)
    z = np.asarray(z_table.values, dtype=float)
    if y.shape != z.shape:
        raise BadParameter("selector tables must share the ensemble")
    keep = y < _HALF_THRESHOLD
    n_kept = int(keep.sum())
    required = 4 * resolution * resolution
    if n_kept < required:
        raise TooFewSamples(f"only {n_kept} replicas below the threshold; need {required}")
    floor = 1.0 / required

    yk = np.clip((y[keep] / _HALF_THRESHOLD * resolution).astype(int), 0, resolution - 1)
    zk = np.clip((z[keep] * resolution).astype(int), 0, resolution - 1)
    joint = np.zeros((resolution, resolution))
    np.add.at(joint, (yk, zk), 1)
    joint /= n_kept
    product = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    ratios = np.where(joint > 0, joint / np.maximum(product, floor), 0.0)
    statistic = float(ratios.max())
    flagged = [
        (int(i), int(j))
        for i, j in zip(*np.nonzero(ratios > _RATIO_CAP))
    ]
    return TestReport(
        name="nonsingularity-diagnostic",
        statistic=statistic,
        threshold=_RATIO_CAP,
        level=0.0,
        passed=not flagged,
        replicas=n_kept,
        seed=seed,
        details={"flagged_cells": flagged, "floor": floor},
    )


def event_reconstruction_check(
    families: RevealingSelectors | Sequence[RevealingSelectors],
    seed: int | None = None,
) -> TestReport:
    """Sure-event check: every driving event equals {selector value < 1/4}."""
    if isinstance(families, RevealingSelectors):
        families = [families]
    total = 0
    mismatches = 0
    for fam in families:
        reconstructed = fam.chosen.points < REVEAL_CUT
        mismatches += int((reconstructed != fam.events).sum())
        total += len(fam.chosen)
    rate = 1.0 if total == 0 else 1.0 - mismatches / total
    threshold = 1.0 if total == 0 else 1.0 / (2 * total)
    statistic = 0.0 if total == 0 else mismatches / total
    return TestReport(
        name="event-reconstruction",
        statistic=statistic,
        threshold=threshold,
        level=0.0,
        passed=statistic < threshold,
        replicas=len(families),
        seed=seed,
        details={"reconstruction_rate": rate, "pairs": total},
    )
