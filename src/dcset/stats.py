"""Statistical test batteries for the simulators and selectors.

Every test is a deterministic function of its seed and parameters and returns
a TestReport whose `passed` flag means "statistic below threshold".  Expected
failures (a counterexample being told apart from the pure sample, say) are
asserted by the caller reading `passed` as False; the tests themselves never
flip their own semantics.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import BadParameter, SparseTable, TooFewSamples, check_budget, check_count, check_level
from .generators import (
    REVEAL_CUT,
    STATS_DOMAIN,
    RevealingSelectors,
    Seed,
    as_seed,
    counterexample_mix,
    distinct_rows,
    gaussian_walk,
    poisson_rows,
    row_slices,
    sample_gap,
    sample_rows,
)
from .grid_measure import FatCantor
from .records import Record

__all__ = [
    "TestReport",
    "ShiftHitCurve",
    "ks_uniform",
    "chi_square_independence",
    "two_sample_test",
    "fragment_independence_test",
    "stationarity_test",
    "distinguish_counterexample",
    "shift_hit_curve",
    "event_reconstruction_check",
    "dyadic_rationals",
]

# Points drawn per fragment by the sample observable of fragment_independence_test.
_FRAG_POINTS = 4


class TestReport(Record):
    """Outcome of one statistical check; `passed` iff statistic below threshold.

    `details` defaults to a new empty dict.
    """

    __slots__ = ("name", "statistic", "threshold", "level", "passed", "replicas", "seed", "details")

    def __init__(
        self,
        name: str,
        statistic: float,
        threshold: float,
        level: float,
        passed: bool,
        replicas: int | None = None,
        seed: int | None = None,
        details: dict | None = None,
    ):
        details = {} if details is None else details
        super().__init__(name, statistic, threshold, level, passed, replicas, seed, details)

    @property
    def rejected(self) -> bool:
        return not self.passed


# 2 * gammaincinv(df / 2, q) for df = 1..64 (one float.hex each, df 1 first) at
# the two default levels, q = 1 - 0.01 and q = 1 - 1e-6, so that no default run
# imports scipy.special, which took about half of the CLI's start-up.
_CHI2_TABLE = {
    1 - 0.01: tuple(map(float.fromhex, """
    0x1.a8a2255a6e924p+2 0x1.26bb1bbb55514p+3 0x1.6b0925f3ee5a7p+3 0x1.a8dac2a1d7834p+3
    0x1.e2c2be7b52449p+3 0x1.0cfd84626b0b9p+4 0x1.279adb6a3558bp+4 0x1.41719a4955b70p+4
    0x1.5aa7e9ac98a50p+4 0x1.735917be45bebp+4 0x1.8b997a781aed5p+4 0x1.a378b2b5993e6p+4
    0x1.bb031206065d4p+4 0x1.d24282815268dp+4 0x1.e93f22eceb2c6p+4 0x1.ffffb35bbc066p+4
    0x1.0b44f16c947b7p+5 0x1.167144220eb75p+5 0x1.2186e664e03f2p+5 0x1.2c87a61a934c3p+5
    0x1.377516f3af68ap+5 0x1.42509c3481c67p+5 0x1.4d1b70791299cp+5 0x1.57d6abf0f3d1fp+5
    0x1.6283496d8632ap+5 0x1.6d222a8590c53p+5 0x1.77b41b002dfc4p+5 0x1.8239d3acf0a8bp+5
    0x1.8cb3fcc64769ap+5 0x1.97232ff4988bbp+5 0x1.a187fa03a9763p+5 0x1.abe2dc582f96fp+5
    0x1.b6344e30935f8p+5 0x1.c07cbdb9be5acp+5 0x1.cabc90ff1a0bap+5 0x1.d4f426bb8fa39p+5
    0x1.df23d7104a9d2p+5 0x1.e94bf425294b4p+5 0x1.f36ccab619f4ap+5 0x1.fd86a2901821ep+5
    0x1.03ccdf8006659p+6 0x1.08d32f9abbff7p+6 0x1.0dd65f4d3f7ffp+6 0x1.12d68a915db49p+6
    0x1.17d3cbc8fa27ep+6 0x1.1cce3bdddf9ddp+6 0x1.21c5f25e7166ap+6 0x1.26bb05979b603p+6
    0x1.2bad8aac51b42p+6 0x1.309d95aae699cp+6 0x1.358b39a0733b9p+6 0x1.3a7688aa890b2p+6
    0x1.3f5f94075a290p+6 0x1.44466c2481b7fp+6 0x1.492b20ac90186p+6 0x1.4e0dc0937abaap+6
    0x1.52ee5a220b851p+6 0x1.57ccfb00689ebp+6 0x1.5ca9b03fcaa5ep+6 0x1.6184866374d65p+6
    0x1.665d896900af1p+6 0x1.6b34c4d00c985p+6 0x1.700a43a15b8a8p+6 0x1.74de1075722edp+6
    """.split())),
    1 - 1e-6: tuple(map(float.fromhex, """
    0x1.7ed99bac43b90p+4 0x1.ba18a998fc064p+4 0x1.eaa339720b014p+4 0x1.0b03c584e7fb8p+5
    0x1.1f1b01b9054dfp+5 0x1.321112a999ab2p+5 0x1.442cb5daa46ebp+5 0x1.559b78c2bc449p+5
    0x1.667cccfe8b371p+5 0x1.76e7851aec7a7p+5 0x1.86ecd61ced6e8p+5 0x1.969a1dcb18eccp+5
    0x1.a5f9fed8f09f4p+5 0x1.b5151b10d15ffp+5 0x1.c3f291fb35547p+5 0x1.d29859cab506fp+5
    0x1.e10b7f79fcd08p+5 0x1.ef505618b8f4fp+5 0x1.fd6a9a6382b1bp+5 0x1.05aec7025cf7dp+6
    0x1.0c96066298d7bp+6 0x1.136c4ea00133ep+6 0x1.1a32bf1b2772fp+6 0x1.20ea58a7e2f08p+6
    0x1.279401eec77f5p+6 0x1.2e308b0755ca6p+6 0x1.34c0b074a2708p+6 0x1.3b451da437f6ap+6
    0x1.41be6f07a6b10p+6 0x1.482d33dbc64afp+6 0x1.4e91efac96b2ap+6 0x1.54ed1ba193b93p+6
    0x1.5b3f279bed1d7p+6 0x1.61887b2e3cbdfp+6 0x1.67c97673e40aap+6 0x1.6e0272cd1792dp+6
    0x1.7433c383b957ep+6 0x1.7a5db65c6aa11p+6 0x1.80809416aa2d3p+6 0x1.869ca0de5beb2p+6
    0x1.8cb21cb0b6024p+6 0x1.92c143b63f2bbp+6 0x1.98ca4e9348cbcp+6 0x1.9ecd72b018ef1p+6
    0x1.a4cae279cb3c7p+6 0x1.aac2cd9cca49dp+6 0x1.b0b56139a335dp+6 0x1.b6a2c814dad45p+6
    0x1.bc8b2ac25556cp+6 0x1.c26eafccce3f1p+6 0x1.c84d7bd9ce4a2p+6 0x1.ce27b1ca7f169p+6
    0x1.d3fd72d9b07f3p+6 0x1.d9cedeb759603p+6 0x1.df9c13a1d4bfap+6 0x1.e5652e7d14ae0p+6
    0x1.eb2a4ae7fda1ap+6 0x1.f0eb8350174ddp+6 0x1.f6a8f103bb04bp+6 0x1.fc62ac42e339fp+6
    0x1.010c66275e067p+7 0x1.03e5b3bc08a17p+7 0x1.06bd4996599dbp+7 0x1.09933201f4e1dp+7
    """.split())),
}


def _chi2_quantile(q: float, df: int) -> float:
    """The q-quantile of the chi-square law with df degrees of freedom.

    The formula scipy.stats.chi2.ppf evaluates, 2 * gammaincinv(df / 2, q)
    (Best & Roberts 1975, AS 91), read from _CHI2_TABLE when (q, df) is in it;
    any other (q, df) imports scipy.special here, never scipy.stats.
    """
    row = _CHI2_TABLE.get(q)
    if row is not None and 1 <= df <= len(row):
        return row[df - 1]
    from scipy.special import gammaincinv

    return float(2 * gammaincinv(df / 2, q))


def ks_uniform(values, level: float = 0.01, seed: int | None = None) -> TestReport:
    """One-sample Kolmogorov-Smirnov test against the uniform law on (0,1).

    Uses the asymptotic critical value c(level)/sqrt(N) with
    c(a) = sqrt(ln(2/a)/2).
    """
    check_level(level)
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
    check_level(level)
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


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values with every NaN counted as one, as np.unique gives
    them; sort-based, since plain np.unique imports numpy.ma on first use."""
    ordered = np.sort(values, axis=None)
    keep = np.ones(ordered.size, dtype=bool)
    keep[1:] = (ordered[1:] != ordered[:-1]) & ~np.isnan(ordered[:-1])
    return ordered[keep]


def _bucket_labels(pooled: np.ndarray, min_pooled: int) -> tuple[np.ndarray, int]:
    """Deterministic bucketing of pooled values: distinct values (or pooled
    quantiles when there are many), greedily merged left to right until each
    bucket holds at least `min_pooled` pooled observations."""
    uniq = _distinct(pooled)
    if uniq.size > 24:
        qs = np.quantile(pooled, np.linspace(0, 1, 13)[1:-1], method="lower")
        uniq = _distinct(qs)
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
    check_level(level)
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
    # Arm against bucket.  Every bucket holds at least min_pooled values, so
    # every expected count is at least 5 and the table is never too sparse.
    arms = np.repeat([0, 1], [xs.size, ys.size])
    report = chi_square_independence(arms, labels, 2, n_buckets, level, seed)
    return TestReport(
        name, report.statistic, report.threshold, level, report.passed, report.replicas, seed,
        {"buckets": n_buckets, **report.details},
    )


def _sample_categories(us: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per row of _FRAG_POINTS uniforms placed on the fragment (lo, hi): how
    many fall in its left half, capped to 0 (fewer than half), 1 (half) or 2."""
    count = (lo + (hi - lo) * us < (lo + hi) / 2).sum(axis=1)
    return np.clip(count - _FRAG_POINTS // 2 + 1, 0, 2)


def _walk_categories(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per walk (a row of steps + 1 values): 1 if its deepest strict local
    minimum detected from increments inside [lo, hi] lies in the right half
    of the fragment, else 0, also when there is none."""
    steps = values.shape[1] - 1
    k_lo = max(1, math.ceil(lo * steps) + 1)
    k_hi = min(steps - 1, math.floor(hi * steps) - 1)
    if k_hi < k_lo:
        return np.zeros(len(values), dtype=np.int64)
    core = values[:, k_lo : k_hi + 1]
    pattern = (values[:, k_lo - 1 : k_hi] > core) & (core < values[:, k_lo + 1 : k_hi + 2])
    deepest = k_lo + np.argmin(np.where(pattern, core, np.inf), axis=1)
    relative = (deepest / steps - lo) / (hi - lo)
    return (pattern.any(axis=1) & (relative >= 0.5)).astype(np.int64)


def _fragment_observables(kind: str, fragments, replicas: int, base: Seed, steps: int) -> np.ndarray:
    """Fragments-by-replicas categories of fragment_independence_test, a slice
    of replicas at a time: fragment f of the sample from one `Seed.uniforms`
    call on substream (STATS_DOMAIN, 10 + f), the walks stacked from
    `gaussian_walk`."""
    width = steps + 1 if kind == "walk" else _FRAG_POINTS * len(fragments)
    obs = np.empty((len(fragments), replicas), dtype=np.int64)
    for rows in row_slices(replicas, width):
        reps = range(replicas)[rows]
        if kind == "walk":
            values = np.stack([gaussian_walk(steps, base.with_replica(r)).values for r in reps])
            obs[:, rows] = [_walk_categories(values, lo, hi) for lo, hi in fragments]
        else:
            obs[:, rows] = [
                _sample_categories(base.uniforms(reps, STATS_DOMAIN, 10 + f, size=_FRAG_POINTS), lo, hi)
                for f, (lo, hi) in enumerate(fragments)
            ]
    return obs


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

    `level` is the family-wise level over all fragment pairs: each pair is
    tested at `level / pairs` (Bonferroni), and `threshold` is that per-pair
    threshold.
    """
    check_level(level)
    cuts = [float(c) for c in cuts]
    if len(cuts) < 3:
        raise BadParameter("need at least two fragments")
    if cuts[0] != 0.0 or cuts[-1] != 1.0 or any(a >= b for a, b in zip(cuts, cuts[1:])):
        raise BadParameter("cuts must increase strictly from 0 to 1")
    if kind not in ("sample", "walk"):
        raise BadParameter(f"unknown fragment kind {kind!r}")
    check_count("replicas", replicas)
    check_count("steps", steps)
    base = as_seed(seed)

    fragments = list(zip(cuts, cuts[1:]))
    work = replicas * (len(fragments) + (steps if kind == "walk" else 0))
    check_budget("replicas * (fragments + walk steps)", work)
    categories = 3 if kind == "sample" else 2
    obs = _fragment_observables(kind, fragments, replicas, base, steps)

    pair_level = level / math.comb(len(fragments), 2)
    reports = {
        f"{i}-{j}": chi_square_independence(obs[i], obs[j], categories, categories, pair_level, base.value)
        for i in range(len(fragments))
        for j in range(i + 1, len(fragments))
    }
    worst = max(reports.values(), key=lambda rep: rep.statistic)
    details = {"pairs": {key: rep.statistic for key, rep in reports.items()}, "df": worst.details["df"]}
    if len(reports) > 1:
        # With one pair the per-pair level is `level` itself: there is no split to name.
        details.update(pair_level=pair_level, pair_count=len(reports))
    return TestReport(
        name=f"fragment-independence-{kind}",
        statistic=worst.statistic,
        threshold=worst.threshold,
        level=level,
        passed=worst.passed,
        replicas=replicas,
        seed=base.value,
        details=details,
    )


def stationarity_test(
    rows: Callable[[Seed, range], np.ndarray],
    region,
    replicas: int,
    seed,
    level: float = 0.01,
) -> TestReport:
    """Two-sample comparison of the count in a region on X versus on a freshly shifted X.

    `rows(base, replicas)` returns NaN-padded rows, row k holding the points
    of replica replicas[k]: one of the row makers `generators.sample_rows`,
    `minima_rows`, `poisson_rows` or `counterexample_rows` with its leading
    arguments bound, as `functools.partial(sample_rows, depth)`.  The plain arm
    is replicas 0..R-1.  The shifted arm is replicas R..2R-1, each moved by
    its own uniform shift s by `_shift_rows`.  A stationary construction
    produces identically distributed arms.
    """
    check_level(level)
    check_count("replicas", replicas)
    if replicas < 10:
        raise TooFewSamples("stationarity test needs >= 10 replicas per arm")
    check_budget("replicas", replicas)

    base = as_seed(seed)
    shifts = base.uniforms(range(replicas, 2 * replicas), STATS_DOMAIN, 0)
    plain = _count_in_rows(region, rows(base, range(replicas)))
    shifted = _count_in_rows(region, _shift_rows(rows(base, range(replicas, 2 * replicas)), shifts))
    report = two_sample_test(plain, shifted, level, base.value, name="stationarity")
    report.details["mean_plain"] = float(plain.mean())
    report.details["mean_shifted"] = float(shifted.mean())
    return report


def _shift_rows(points: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Points moved by the cyclic shifts they broadcast against, with the
    float operations of `cyclic_shift_points`: t + s, or (t + s) - 1 where
    t > 1 - s.  A point equal to 1 - s has no image and becomes NaN."""
    moved = points + shifts
    moved[points > 1 - shifts] -= 1
    moved[points == 1 - shifts] = np.nan
    return moved


def _hits_in_rows(region, points: np.ndarray) -> np.ndarray:
    """Per entry: the point lies in the region.  NaN is no point: it never
    reaches `contains_points`, where UnitGrid.bins would put it in bin 0.
    A batch without NaN is tested whole, with no mask to gather and scatter."""
    real = ~np.isnan(points)
    if real.all():
        return region.contains_points(points.ravel()).reshape(points.shape)
    hits = np.zeros(points.shape, dtype=bool)
    hits[real] = region.contains_points(points[real])
    return hits


def _count_in_rows(region, points: np.ndarray) -> np.ndarray:
    """Per row, as a float: how many of its points lie in the region, tested
    a slice of rows at a time by `_hits_in_rows`."""
    counts = np.empty(len(points))
    for rows in row_slices(*points.shape):
        counts[rows] = _hits_in_rows(region, points[rows]).sum(axis=1)
    return counts


def _distinguish_arms(cantor: FatCantor, depth: int, replicas: int, base: Seed):
    """Both arms of distinguish_counterexample, drawn for all replicas at once.

    Entry r is, as a float, the count in C of sample_uniform(depth, ...) and of
    counterexample_mix(depth, cantor, ...) at base.with_replica(r); at depth 0
    it is 0 and the size of poisson_on_cantor(cantor, ...).

    The mixed arm is the count in C of the Poisson part alone, exactly: the
    mix keeps a gap pick only where `cantor.contains_points` said False, and
    that test is elementwise and deterministic, so counted again every pick
    counts 0.  The picks are therefore never drawn.  A replica whose Poisson
    points Enumeration would refuse (a repeat, or a point outside (0, 1)) is
    built by counterexample_mix, which raises that refusal.
    """
    reps = range(replicas)
    if depth > 0:
        sample_gap(cantor, depth)
    poisson = poisson_rows(cantor, base, reps)
    if depth == 0:
        return np.zeros(replicas), (~np.isnan(poisson)).sum(axis=1).astype(float)
    for r in np.flatnonzero(~distinct_rows(poisson)).tolist():
        counterexample_mix(depth, cantor, base.with_replica(r))
    return _count_in_rows(cantor, sample_rows(depth, base, reps)), _count_in_rows(cantor, poisson)


def distinguish_counterexample(
    cantor: FatCantor, depth: int, replicas: int, seed, level: float = 1e-6
) -> TestReport:
    """Count-in-C statistic separating the pure sample from the mixed set.

    The sample arm has mean depth * mes C, the mixed arm mean mes C, so the
    homogeneity test is expected to reject (`passed` False) decisively.
    Depth 0 leaves the sample arm empty; a negative depth is refused.  The
    mixed set's `depth` sample points all lie in the gaps, so its count in C
    is that of its Poisson part, which is what the mixed arm counts (see
    `_distinguish_arms`).  Both arms are drawn for all replicas at once, so
    `replicas * (depth + 1)` may not exceed `errors.WORK_BUDGET`.
    """
    check_level(level)
    check_count("replicas", replicas)
    check_count("depth", depth, 0)
    check_budget("replicas * (depth + 1)", replicas * (depth + 1))
    base = as_seed(seed)
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


class ShiftHitCurve(Record):
    """Hit counts of shifted dyadic prefixes against a fixed region."""

    __slots__ = ("depths", "means", "medians", "expected", "shifts", "seed")

    @property
    def medians_nondecreasing(self) -> bool:
        return all(a <= b for a, b in zip(self.medians, self.medians[1:]))


def shift_hit_curve(region, depths: Sequence[int], shifts: int, seed) -> ShiftHitCurve:
    """Counts |{l in L_D : T_s(l) in A}| over random shifts s, per depth.

    By averaging over the uniform shift, the expected count equals
    D * mes(region) exactly; the curve grows without bound in D.
    `shifts * max(depths)` may not exceed `errors.WORK_BUDGET`.  A slice of
    shifts at a time moves the largest depth's prefix by `_shift_rows`, and
    each row's hits are prefix-summed.
    """
    depths = sorted(int(d) for d in depths)
    if not depths or depths[0] < 1:
        raise BadParameter("depths must be positive")
    check_count("shifts", shifts)
    check_budget("shifts * largest depth", shifts * depths[-1])
    base = as_seed(seed)
    points = dyadic_rationals(depths[-1])
    ss = base.uniforms([base.replica], STATS_DOMAIN, 1, size=shifts)[0]
    ends = np.array(depths) - 1
    counts = np.empty((shifts, len(depths)))
    for rows in row_slices(shifts, points.size):
        hits = _hits_in_rows(region, _shift_rows(points, ss[rows, None]))
        counts[rows] = np.cumsum(hits, axis=1)[:, ends]
    # The two middle order statistics, averaged as numpy's median does; that
    # function imports numpy.ma on first use.
    ordered = np.sort(counts, axis=0)
    medians = (ordered[(shifts - 1) // 2] + ordered[shifts // 2]) / 2
    measure = float(region.measure)
    return ShiftHitCurve(
        depths=tuple(depths),
        means=tuple(float(c) for c in counts.mean(axis=0)),
        medians=tuple(float(c) for c in medians),
        expected=tuple(measure * d for d in depths),
        shifts=shifts,
        seed=base.value,
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
