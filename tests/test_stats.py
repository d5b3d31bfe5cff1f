"""Test batteries: goodness of fit, independence, stationarity, diagnostics."""

import math
import os
import warnings
import subprocess
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dcset import (
    BadParameter,
    BinSet,
    CyclicShift,
    Enumeration,
    FatCantor,
    Seed,
    SelectorTable,
    SparseTable,
    TooFewSamples,
    UnitGrid,
    brownian_minima,
    chi_square_independence,
    counterexample_mix,
    cyclic_shift_points,
    distinguish_counterexample,
    dyadic_rationals,
    event_reconstruction_check,
    fat_cantor_build,
    fragment_independence_test,
    gaussian_walk,
    ks_uniform,
    nonsingularity_diagnostic,
    poisson_on_cantor,
    revealing_selectors,
    sample_uniform,
    ShiftHitCurve,
    shift_hit_curve,
    stationarity_test,
    two_sample_test,
)
from dcset import generators, stats
from dcset.cli import main
from dcset.generators import (
    STATS_DOMAIN,
    _counterexample_rows,
    _minima_rows,
    _poisson_rows,
    _sample_rows,
)
from dcset.errors import WORK_BUDGET
from dcset.stats import (
    _CHI2_TABLE,
    _bucket_labels,
    _chi2_quantile,
    _count_in_rows,
    _distinct,
    _distinguish_arms,
    _fragment_observables,
    _hits_in_rows,
    _shift_rows,
)

CANTOR = fat_cantor_build(Fraction(1, 2), 10)


class TestKsUniform:
    def test_equispaced_near_perfect(self):
        n = 200
        report = ks_uniform(np.arange(1, n + 1) / (n + 1))
        assert report.statistic == pytest.approx(1 / (n + 1), rel=1e-6)
        assert report.passed

    def test_point_mass_fails(self):
        report = ks_uniform(np.full(100, 0.5))
        assert report.statistic == pytest.approx(0.5)
        assert not report.passed

    def test_sample_generator_passes(self):
        assert ks_uniform(sample_uniform(2000, 90).points, 0.01).passed

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            ks_uniform(np.linspace(0.1, 0.9, 10))


class TestChiSquare:
    def test_identical_lists_fail(self):
        rng = np.random.default_rng(91)
        x = rng.integers(0, 3, 1000)
        assert not chi_square_independence(x, x, 3, 3).passed

    def test_independent_pass(self):
        rng = np.random.default_rng(92)
        x = rng.integers(0, 3, 1000)
        y = rng.integers(0, 3, 1000)
        assert chi_square_independence(x, y, 3, 3).passed

    def test_sparse_table(self):
        with pytest.raises(SparseTable):
            chi_square_independence(np.zeros(40, dtype=int), np.zeros(40, dtype=int), 3, 3)
        # An empty table is refused before its expected counts divide 0 by 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SparseTable):
                chi_square_independence([], [], 2, 2)

    def test_shape_validation(self):
        with pytest.raises(BadParameter):
            chi_square_independence(np.zeros(5, dtype=int), np.zeros(6, dtype=int), 2, 2)

    # Numpy indexing would wrap a negative category into the last row or
    # column, and raise a bare IndexError for one past the end.
    @pytest.mark.parametrize("side", ["row", "column"])
    def test_negative_category_refused(self, side):
        x, y = np.arange(40) % 2, np.arange(40) // 20
        bad = (np.where(x == 1, -1, x), y) if side == "row" else (x, np.where(y == 1, -1, y))
        with pytest.raises(BadParameter, match=f"{side} categories must lie in 0..1"):
            chi_square_independence(*bad, 2, 2)

    @pytest.mark.parametrize("side", ["row", "column"])
    def test_category_past_table_refused(self, side):
        x, y = np.arange(40) % 2, np.arange(40) // 20
        bad = (x + 1, y) if side == "row" else (x, y * 2)
        with pytest.raises(BadParameter, match=f"{side} categories must lie in 0..1"):
            chi_square_independence(*bad, 2, 2)


class TestChiSquareQuantile:
    def test_equals_scipy_stats_exactly(self):
        from scipy.stats import chi2

        for level in (1e-6, 1e-3, 0.01, 0.05, 0.5):
            for df in range(1, 61):
                assert _chi2_quantile(1 - level, df) == chi2.ppf(1 - level, df)

    def test_import_leaves_scipy_stats_out(self):
        import dcset

        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dcset.__file__))}
        code = "import sys, dcset, dcset.cli; print('scipy.stats' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "False"

    @pytest.fixture
    def scipy_calls(self, monkeypatch):
        """Calls _chi2_quantile makes to scipy.special.gammaincinv, its fallback."""
        import scipy.special

        calls = []
        gammaincinv = scipy.special.gammaincinv

        def counted(a, q):
            calls.append((a, q))
            return gammaincinv(a, q)

        monkeypatch.setattr(scipy.special, "gammaincinv", counted)
        return calls

    def test_table_equals_scipy_stats(self, scipy_calls):
        from scipy.stats import chi2

        assert sorted(_CHI2_TABLE) == [0.99, 0.999999] == sorted([1 - 0.01, 1 - 1e-6])
        got = {(q, df): _chi2_quantile(q, df) for q in _CHI2_TABLE for df in range(1, 65)}
        assert scipy_calls == []
        for (q, df), value in got.items():
            assert value == _CHI2_TABLE[q][df - 1] == chi2.ppf(q, df)

    @pytest.mark.parametrize(
        "q, df",
        [(0.99, df) for df in range(65, 71)] + [(1 - 1e-6, 65), (0.95, 3), (1 - 1e-3, 7), (0.5, 1)],
    )
    def test_off_table_falls_back_to_scipy(self, scipy_calls, q, df):
        from scipy.stats import chi2

        value = _chi2_quantile(q, df)
        assert scipy_calls == [(df / 2, q)]
        assert value == chi2.ppf(q, df)


BAD_LEVELS = [0.0, 1.0, 1.5, -0.1, float("nan")]
LEVEL_TAKERS = {
    "ks_uniform": lambda level: ks_uniform(np.linspace(0.01, 0.99, 50), level),
    "chi_square_independence": lambda level: chi_square_independence(
        np.arange(40) % 2, np.arange(40) // 20, 2, 2, level
    ),
    "two_sample_test": lambda level: two_sample_test(np.arange(20), np.arange(20), level),
    "fragment_independence_test": lambda level: fragment_independence_test(
        "sample", [0, 0.5, 1], 100, 1, level
    ),
    "stationarity_test": lambda level: stationarity_test(
        partial(_sample_rows, 10), CANTOR, 20, 1, level
    ),
    "distinguish_counterexample": lambda level: distinguish_counterexample(
        CANTOR, 10, 20, 1, level
    ),
}


@pytest.mark.parametrize("level", BAD_LEVELS, ids=str)
@pytest.mark.parametrize("test", LEVEL_TAKERS)
def test_level_outside_unit_interval_rejected(test, level):
    with pytest.raises(BadParameter, match="level"):
        LEVEL_TAKERS[test](level)


class TestTwoSample:
    def test_same_distribution_passes(self):
        rng = np.random.default_rng(93)
        xs = rng.poisson(4.0, 600)
        ys = rng.poisson(4.0, 600)
        assert two_sample_test(xs, ys).passed

    def test_shifted_distribution_fails(self):
        rng = np.random.default_rng(94)
        assert not two_sample_test(rng.poisson(4.0, 600), rng.poisson(9.0, 600)).passed

    def test_constant_arms_trivially_pass(self):
        report = two_sample_test(np.full(50, 2.0), np.full(50, 2.0))
        assert report.passed and report.details["buckets"] == 1

    @settings(max_examples=80, deadline=None)
    @given(
        xs=st.lists(st.integers(0, 30) | st.floats(0, 1), min_size=10, max_size=80),
        ys=st.lists(st.integers(0, 30) | st.floats(0, 1), min_size=10, max_size=80),
        level=st.sampled_from([0.01, 1e-6, 0.05]),
    )
    def test_matches_inline_pearson_statistic(self, xs, ys, level):
        # The 2-by-buckets table, statistic and threshold as two_sample_test
        # once built them itself, kept here as the oracle.
        xs, ys = np.array(xs, dtype=float), np.array(ys, dtype=float)
        pooled = np.concatenate([xs, ys])
        min_pooled = max(10, math.ceil(5 * pooled.size / min(xs.size, ys.size)))
        labels, n_buckets = _bucket_labels(pooled, min_pooled)
        assume(n_buckets >= 2)
        table = np.zeros((2, n_buckets))
        np.add.at(table, (0, labels[: xs.size]), 1)
        np.add.at(table, (1, labels[xs.size :]), 1)
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / pooled.size
        statistic = float(((table - expected) ** 2 / expected).sum())
        threshold = _chi2_quantile(1 - level, n_buckets - 1)
        details = {"buckets": n_buckets, "df": n_buckets - 1}
        want = stats.TestReport("arms", statistic, threshold, level, statistic < threshold, pooled.size, 7, details)
        got = two_sample_test(xs, ys, level, seed=7, name="arms")
        assert got == want and list(got.details) == list(details)

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [3.0],
            [2.0, 1.0, 2.0, 2.0, 0.5],
            [np.nan, 1.0, np.nan, -0.0, 0.0, np.inf, 1.0, np.nan],
            np.random.default_rng(98).poisson(4.0, 300).astype(float),
        ],
        ids=["empty", "one", "repeats", "nan-and-signed-zero", "poisson"],
    )
    def test_distinct_values_match_numpy_unique(self, values):
        values = np.array(values, dtype=float)
        assert np.array_equal(_distinct(values), np.unique(values), equal_nan=True)


class TestFragmentIndependence:
    def test_sample_fragments_pass(self):
        report = fragment_independence_test("sample", [0, 0.5, 1], 500, 95)
        assert report.passed

    def test_walk_fragments_pass(self):
        report = fragment_independence_test("walk", [0, 0.5, 1], 500, 96, steps=2048)
        assert report.passed

    def test_three_fragments(self):
        report = fragment_independence_test("sample", [0, 0.25, 0.5, 1], 500, 97)
        assert report.passed and len(report.details["pairs"]) == 3

    def test_single_fragment_rejected(self):
        with pytest.raises(BadParameter):
            fragment_independence_test("sample", [0, 1], 100, 1)

    def test_bad_cuts_rejected(self):
        with pytest.raises(BadParameter):
            fragment_independence_test("sample", [0, 0.7, 0.3, 1], 100, 1)

    def test_unknown_kind(self):
        with pytest.raises(BadParameter):
            fragment_independence_test("poisson", [0, 0.5, 1], 100, 1)

    @pytest.mark.parametrize(
        "kind, replicas, steps",
        [("sample", WORK_BUDGET // 2 + 1, 2048), ("sample", 2_000_000_000, 2048),
         ("walk", WORK_BUDGET // 2050 + 1, 2048), ("walk", 10, WORK_BUDGET)],
    )
    def test_work_budget(self, kind, replicas, steps):
        # Refused before anything is allocated.
        with pytest.raises(BadParameter, match="exceeds the work budget"):
            fragment_independence_test(kind, [0, 0.5, 1], replicas, 1, steps=steps)

    # At 2048 steps, [0, 1/4096, 1] leaves fragment 0 too thin for any minimum.
    # The middle fragment of the third has one candidate step, 1002, in its
    # right half, so a walk without a minimum there must still read 0.
    CUTS = [[0, 0.5, 1], [0, 1 / 4096, 1], [0, 1000.1 / 2048, 1003 / 2048, 1]]

    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("cuts", CUTS, ids=["half", "thin", "narrow"])
    @pytest.mark.parametrize("kind, replicas", [("sample", 3000), ("walk", 30)])
    def test_observables_match_per_replica_reference(self, kind, replicas, cuts, seed):
        # Both sizes span several slices of rows.
        fragments = list(zip(cuts, cuts[1:]))
        batch = _fragment_observables(kind, fragments, replicas, Seed(seed), 2048)
        assert batch.tolist() == _reference_fragment_observables(kind, cuts, replicas, seed, 2048).tolist()

    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("kind", ["sample", "walk"])
    def test_report_matches_per_replica_reference(self, kind, seed):
        cuts, replicas = [0, 0.25, 0.5, 1], 300
        obs = _reference_fragment_observables(kind, cuts, replicas, seed, 2048)
        categories = 3 if kind == "sample" else 2
        # Each of the three pairs is tested at the family level 0.01 over 3.
        pairs = {
            f"{i}-{j}": chi_square_independence(obs[i], obs[j], categories, categories, 0.01 / 3, seed)
            for i in range(3) for j in range(i + 1, 3)
        }
        worst = max(pairs.values(), key=lambda rep: rep.statistic)
        # A Seed's own replica index is not used: replica r is Seed(seed, r).
        report = fragment_independence_test(kind, cuts, replicas, Seed(seed, 5))
        assert report.details == {
            "pairs": {k: rep.statistic for k, rep in pairs.items()},
            "df": worst.details["df"],
            "pair_level": 0.01 / 3,
            "pair_count": 3,
        }
        assert report.passed == all(rep.passed for rep in pairs.values())
        assert (report.level, report.threshold) == (0.01, worst.threshold)

    def test_level_is_family_wise(self):
        # Four fragments make six pairs. Under the null a family-wise 1% test
        # rejects Bin(300, <= 0.01) times over 300 seeds, and P(X >= 11) is
        # 2.6e-4. Testing every pair at the full level rejects 17 of these
        # seeds. The seeds are fixed: never re-choose them.
        cuts = [0, 0.25, 0.5, 0.75, 1]
        rejected = sum(
            not fragment_independence_test("sample", cuts, 400, seed, level=0.01).passed
            for seed in range(1, 301)
        )
        assert rejected <= 10


def _reference_fragment_observables(kind, cuts, replicas, seed, steps):
    """The per-replica loop the batch observables replaced: one substream per
    replica and fragment for the sample, one walk per replica."""
    fragments = list(zip(cuts, cuts[1:]))
    obs = np.zeros((len(fragments), replicas), dtype=np.int64)
    for r in range(replicas):
        own = Seed(seed, r)
        v = gaussian_walk(steps, own).values if kind == "walk" else None
        for f, (lo, hi) in enumerate(fragments):
            if kind == "sample":
                pts = lo + (hi - lo) * own.stream(STATS_DOMAIN, 10 + f).uniform(size=4)
                count = int((pts < (lo + hi) / 2).sum())
                obs[f, r] = 0 if count <= 1 else 1 if count == 2 else 2
                continue
            k_lo = max(1, math.ceil(lo * steps) + 1)
            k_hi = min(steps - 1, math.floor(hi * steps) - 1)
            if k_hi < k_lo:
                continue
            ks = np.arange(k_lo, k_hi + 1)
            candidates = ks[(v[ks - 1] > v[ks]) & (v[ks] < v[ks + 1])]
            if candidates.size:
                deepest = candidates[np.argmin(v[candidates])]
                obs[f, r] = 0 if (deepest / steps - lo) / (hi - lo) < 0.5 else 1
    return obs


HALF = BinSet(UnitGrid(2), frozenset({0}))


class TestStationarity:
    def test_sample_is_stationary(self):
        report = stationarity_test(partial(_sample_rows, 100), HALF, 300, 98)
        assert report.passed

    def test_walk_minima_stationary(self):
        report = stationarity_test(partial(_minima_rows, 2048), HALF, 300, 99)
        assert report.passed

    def test_counterexample_detected(self):
        report = stationarity_test(partial(_counterexample_rows, 200, CANTOR), CANTOR, 300, 98)
        assert not report.passed

    def test_shift_free_observable_trivially_passes(self):
        # The full region counts every point and ignores positions: both arms identical.
        report = stationarity_test(partial(_sample_rows, 60), UnitGrid(1).full(), 200, 97)
        assert report.passed

    @pytest.mark.parametrize("replicas, error", [(-5, BadParameter), (0, BadParameter), (9, TooFewSamples)])
    def test_replica_count_checked(self, replicas, error):
        with pytest.raises(error):
            stationarity_test(partial(_sample_rows, 10), HALF, replicas, 96)

    def test_work_budget(self):
        # Refused before any shift or row is drawn.
        def never(base, replicas):
            raise AssertionError("drew rows")

        for replicas in (WORK_BUDGET + 1, 2_000_000_000):
            with pytest.raises(BadParameter, match="exceeds the work budget"):
                stationarity_test(never, HALF, replicas, 96)

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("region", [HALF, CANTOR], ids=["half", "cantor"])
    @pytest.mark.parametrize(
        "rows, make",
        [
            (partial(_sample_rows, 30), lambda s: sample_uniform(30, s)),
            (partial(_minima_rows, 300), lambda s: brownian_minima(300, s)),
            (partial(_counterexample_rows, 30, CANTOR), lambda s: counterexample_mix(30, CANTOR, s)),
        ],
        ids=["sample", "minima", "counterexample"],
    )
    def test_report_matches_per_replica_reference(self, rows, make, region, seed):
        # Replica r of the plain arm, and replica R + r moved by its own shift.
        replicas = 40
        plain, shifted = [], []
        for r in range(replicas):
            plain.append(float(make(Seed(seed, r)).count_in(region)))
            twin = Seed(seed, replicas + r)
            shift = CyclicShift(float(twin.stream(STATS_DOMAIN, 0).uniform()))
            moved = cyclic_shift_points(shift, make(twin).points.tolist())
            shifted.append(float(Enumeration(moved, len(moved), "shifted").count_in(region)))
        expected = two_sample_test(plain, shifted, 0.01, seed, name="stationarity")
        expected.details["mean_plain"] = float(np.mean(plain))
        expected.details["mean_shifted"] = float(np.mean(shifted))
        assert stationarity_test(rows, region, replicas, seed) == expected

    @pytest.mark.parametrize("region", [HALF, HALF.complement()], ids=["bin0", "bin1"])
    def test_point_without_image_is_not_counted(self, region):
        # Each shifted row holds exactly 1 - s for its own shift s, then padding.
        # Counted, that point would land near 0 or near 1, in one of the two
        # bins; NaN reaching UnitGrid.bins would warn.
        replicas, seed = 10, 5
        shifts = Seed(seed).uniforms(range(replicas, 2 * replicas), STATS_DOMAIN, 0)

        def rows(base, reps):
            if reps.start == 0:
                return np.tile([0.25, 0.75], (replicas, 1))
            return np.column_stack([1 - shifts[:, 0], np.full(replicas, np.nan)])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = stationarity_test(rows, region, replicas, seed)
        assert report.details["mean_plain"] == 1.0
        assert report.details["mean_shifted"] == 0.0


class TestDistinguish:
    def test_full_scale_separation(self):
        report = distinguish_counterexample(CANTOR, 200, 300, 100, level=1e-6)
        assert report.rejected
        assert 90 <= report.details["mean_sample"] <= 110
        assert 0.3 <= report.details["mean_counterexample"] <= 0.7

    def test_depth_zero_still_separates(self):
        report = distinguish_counterexample(CANTOR, 0, 300, 101, level=0.01)
        assert report.rejected

    def test_thin_cantor_report_well_formed(self):
        thin = fat_cantor_build(Fraction(99, 100), 8)
        report = distinguish_counterexample(thin, 50, 100, 102, level=0.01)
        assert report.statistic >= 0

    @pytest.mark.parametrize("replicas, error", [(-2, BadParameter), (0, BadParameter), (9, TooFewSamples)])
    def test_replica_count_checked(self, replicas, error):
        with pytest.raises(error):
            distinguish_counterexample(CANTOR, 10, replicas, 103)

    def test_work_budget(self):
        # Refused before anything is allocated.
        for depth, replicas in [(200, WORK_BUDGET // 201 + 1), (0, WORK_BUDGET + 1), (10**12, 10)]:
            with pytest.raises(BadParameter, match="exceeds the work budget"):
                distinguish_counterexample(CANTOR, depth, replicas, 104)

    def test_negative_depth_refused(self):
        # Depth 0 is the documented empty sample arm, so the bound is 0, not 1.
        with pytest.raises(BadParameter, match="depth must be >= 0, got -1"):
            distinguish_counterexample(CANTOR, -1, 20, 105)

    @pytest.mark.parametrize("depth", [-2, -3, -10**12])
    def test_depth_below_minus_one_refused(self, depth):
        # replicas * (depth + 1) is negative here and would pass the budget check.
        with pytest.raises(BadParameter, match=f"depth must be >= 0, got {depth}"):
            distinguish_counterexample(CANTOR, depth, WORK_BUDGET, 105)

    @settings(max_examples=40, deadline=None)
    @given(
        value=st.integers(0, 2**64 - 1),
        gap=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
        cantor_depth=st.integers(1, 10),
        depth=st.one_of(st.sampled_from([0, 1]), st.integers(0, 300)),
        replicas=st.integers(1, 60),
    )
    def test_arms_match_per_replica_draws(self, value, gap, cantor_depth, depth, replicas):
        cantor = fat_cantor_build(gap, cantor_depth)
        xs, ys = _distinguish_arms(cantor, depth, replicas, Seed(value))
        for r in range(replicas):
            own = Seed(value, r)
            if depth == 0:
                expected = 0.0, float(len(poisson_on_cantor(cantor, own)))
            else:
                expected = (
                    float(sample_uniform(depth, own).count_in(cantor)),
                    float(counterexample_mix(depth, cantor, own).count_in(cantor)),
                )
            assert (xs[r], ys[r]) == expected

    def test_gapless_set_refused_with_a_sample(self):
        # The mixed set's sample points need gaps; depth 0 draws none.
        gapless = FatCantor(1, ())
        with pytest.raises(BadParameter, match="cantor set must leave gaps"):
            distinguish_counterexample(gapless, 10, 20, 107)
        assert distinguish_counterexample(gapless, 0, 20, 107).details["mean_sample"] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        value=st.integers(0, 2**64 - 1),
        gap=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]),
        cantor_depth=st.integers(1, 10),
        depth=st.integers(1, 200),
        offset=st.one_of(st.just(0), st.integers(0, 2**32 - 41)),
        replicas=st.integers(1, 40),
    )
    def test_mixed_rows_count_only_their_poisson_part(
        self, value, gap, cantor_depth, depth, offset, replicas
    ):
        # The full mixed rows, gap picks and all, are the oracle: every pick
        # lies in a gap, so each row counts in C what its Poisson part counts.
        cantor = fat_cantor_build(gap, cantor_depth)
        reps = range(offset, offset + replicas)
        mixed = _counterexample_rows(depth, cantor, Seed(value), reps)
        poisson = _poisson_rows(cantor, Seed(value), reps)
        assert np.array_equal(_count_in_rows(cantor, mixed), _count_in_rows(cantor, poisson))

    @pytest.mark.parametrize(
        "bad, message",
        [([0.25, 0.25], "pairwise distinct"), ([0.0, 0.5], "open \\(0,1\\)")],
        ids=["repeat", "outside"],
    )
    def test_refused_poisson_row_still_raises(self, monkeypatch, bad, message):
        # Replica 3's Poisson points are forced to ones Enumeration refuses;
        # counterexample_mix, handed that replica, raises the refusal.
        def forced(cantor, seed):
            return np.array(bad) if seed.replica == 3 else poisson_on_cantor(cantor, seed)

        def forced_rows(cantor, base, replicas):
            every = np.ones(len(replicas), dtype=bool)
            empty = np.empty((len(replicas), 0))
            return generators._redo_rows(empty, every, base, replicas, partial(forced, cantor))

        monkeypatch.setattr(generators, "poisson_on_cantor", forced)
        monkeypatch.setattr(generators, "_poisson_rows", forced_rows)
        monkeypatch.setattr(stats, "_poisson_rows", forced_rows)
        with pytest.raises(BadParameter, match=message):
            distinguish_counterexample(CANTOR, 20, 10, 106)
        xs, ys = _distinguish_arms(CANTOR, 0, 10, Seed(106))  # depth 0: sizes, unchecked
        assert ys[3] == 2.0

    def test_counterexample_arm_draws_no_gap_picks(self, monkeypatch, capsys):
        keys, mixes = [], []
        seed_state = generators._seed_state

        def spy_state(value, replicas, key):
            keys.append(tuple(key))
            return seed_state(value, replicas, key)

        def spy_mix(*args):
            mixes.append(args)
            return counterexample_mix(*args)

        monkeypatch.setattr(generators, "_seed_state", spy_state)
        monkeypatch.setattr(generators, "counterexample_mix", spy_mix)
        monkeypatch.setattr(stats, "counterexample_mix", spy_mix)
        assert main(["distinguish", "--seed", "1", "--replicas", "40", "--depth", "50"]) == 0
        assert (generators.GENERATOR_DOMAIN, generators._POISSON) in keys
        assert (generators.GENERATOR_DOMAIN, generators._MIX_SAMPLE) not in keys
        assert mixes == []


@pytest.mark.parametrize(
    "argv, reads_removed",
    [
        (["distinguish", "--seed", "1", "--replicas", "40", "--depth", "50"], False),
        (["stationarity", "--seed", "1", "--replicas", "40"], False),
        (["cantor", "--cantor-depth", "3"], True),  # the JSON writes them out
    ],
    ids=["distinguish", "stationarity", "cantor"],
)
def test_runs_form_removed_fractions_only_to_write_them(monkeypatch, capsys, argv, reads_removed):
    # The Cantor set is built in integer units; `removed` is read only at
    # the file-format boundary.
    reads = []
    removed = FatCantor.__dict__["removed"]

    class Spy:
        def __get__(self, cantor, owner=None):
            reads.append(cantor)
            return removed.__get__(cantor, owner)

    monkeypatch.setattr(FatCantor, "removed", Spy())
    assert main(argv) == 0
    assert bool(reads) == reads_removed


class TestShiftHit:
    def test_dyadic_enumeration(self):
        first = dyadic_rationals(7)
        assert first.tolist() == [0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875]

    def test_full_region_counts_depth(self):
        curve = shift_hit_curve(UnitGrid(4).full(), [16, 32], 50, 1)
        assert curve.means == (16.0, 32.0)

    def test_empty_region_counts_zero(self):
        curve = shift_hit_curve(UnitGrid(4).empty(), [16], 50, 1)
        assert curve.means == (0.0,)

    def test_half_measure_means(self):
        region = BinSet(UnitGrid(8), frozenset({0, 2, 4, 6}))
        curve = shift_hit_curve(region, [64, 256, 1024], 200, 104)
        for mean, expected in zip(curve.means, curve.expected):
            assert abs(mean - expected) <= 0.1 * expected
        assert curve.medians_nondecreasing
        assert curve.means[0] < curve.means[1] < curve.means[2]

    def test_cantor_region_supported(self):
        curve = shift_hit_curve(CANTOR, [64], 100, 105)
        assert abs(curve.means[0] - 64 * float(CANTOR.measure)) <= 8

    def test_work_budget(self):
        # Refused before anything is allocated.
        for depths, shifts in [([64, WORK_BUDGET], 2), ([2_000_000_000], 200), ([8], WORK_BUDGET)]:
            with pytest.raises(BadParameter, match="exceeds the work budget"):
                shift_hit_curve(UnitGrid(4).full(), depths, shifts, 106)

    @pytest.mark.parametrize("seed", [Seed(9), Seed(10, 3)], ids=["9", "10-replica-3"])
    @pytest.mark.parametrize(
        "region, depths, shifts",
        [(BinSet(UnitGrid(16), frozenset({0, 3, 5})), [1, 7, 100, 1024], 40), (CANTOR, [64, 1024], 40)],
        ids=["binset", "cantor"],
    )
    def test_curve_matches_per_shift_reference(self, region, depths, shifts, seed):
        # 40 shifts at depth 1024 span three slices of rows.
        ss = seed.stream(STATS_DOMAIN, 1).uniform(size=shifts)
        counts = _reference_shift_counts(region, dyadic_rationals(depths[-1]), ss, depths)
        assert shift_hit_curve(region, depths, shifts, seed) == ShiftHitCurve(
            depths=tuple(depths),
            means=tuple(counts.mean(axis=0).tolist()),
            medians=tuple(np.median(counts, axis=0).tolist()),
            expected=tuple(float(region.measure) * d for d in depths),
            shifts=shifts,
            seed=seed.value,
        )

    def test_point_without_image_is_not_counted(self):
        # The shift 1 - p moves the dyadic point p onto 1, which has no image.
        points = dyadic_rationals(16)
        ss = np.array([1 - points[5], 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hits = _hits_in_rows(UnitGrid(1).full(), _shift_rows(points, ss[:, None]))
        assert hits.sum(axis=1).tolist() == [15, 16] and not hits[0, 5]
        reference = _reference_shift_counts(UnitGrid(1).full(), points, ss, [16])
        assert reference[:, 0].tolist() == [15.0, 16.0]

    def test_shift_rounding_onto_one_lands_at_zero(self):
        # The one float case where the shared shift and the former shift-hit
        # rule part: p + s = 1 + 2**-53 rounds to 1.0.  p > 1 - s holds, so the
        # shared rule moves p to 1.0 - 1 = 0.0 and counts it there; the former
        # rule dropped it.
        points = np.array([0.5, 0.25])
        ss = np.array([0.5 + 2.0**-53])
        moved = _shift_rows(points, ss[:, None])
        assert moved[0].tolist() == [0.0, 0.75 + 2.0**-53]
        full = UnitGrid(1).full()
        assert _hits_in_rows(full, moved).sum() == 2
        assert _reference_shift_counts(full, points, ss, [2])[0, 0] == 1.0


@pytest.mark.parametrize("with_nan", [False, True], ids=["no-nan", "nan"])
@pytest.mark.parametrize(
    "region",
    [UnitGrid(16).full(), BinSet(UnitGrid(8), frozenset({0, 3, 5})), CANTOR],
    ids=["full", "binset", "cantor"],
)
def test_hits_in_rows_match_the_masked_path(region, with_nan):
    points = np.random.default_rng(3).random((40, 25))
    if with_nan:
        points[::3, 7:] = np.nan
    real = ~np.isnan(points)
    masked = np.zeros(points.shape, dtype=bool)
    masked[real] = region.contains_points(points[real])
    assert _hits_in_rows(region, points).tobytes() == masked.tobytes()


def _reference_shift_counts(region, points, ss, depths):
    """Per shift, the hits of each depth's prefix, one shift at a time with the
    former shift-hit rule: moved = p + s, minus 1 from 1 up, kept inside (0, 1)."""
    counts = np.zeros((len(ss), len(depths)))
    for i, s in enumerate(ss):
        moved = points + s
        moved = np.where(moved >= 1.0, moved - 1.0, moved)
        ok = (moved > 0.0) & (moved < 1.0)
        hits = np.zeros(points.size, dtype=bool)
        hits[ok] = region.contains_points(moved[ok])
        prefix = np.cumsum(hits)
        counts[i] = [prefix[d - 1] for d in depths]
    return counts


def _table(values):
    return SelectorTable(np.asarray(values, dtype=float), np.zeros(len(values), dtype=np.int64))


class TestNonsingularityDiagnostic:
    def test_independent_pair_passes(self):
        rng = np.random.default_rng(106)
        y = _table(rng.uniform(0, 1, 5000))
        z = _table(rng.uniform(0, 1, 5000))
        assert nonsingularity_diagnostic(y, z).passed

    def test_copied_pair_flags_at_fine_resolution(self):
        # Joint mass on the diagonal is ~1/r per cell against a product of
        # ~2/r^2: the density ratio grows like r/2 and crosses the cap.
        rng = np.random.default_rng(107)
        y = _table(rng.uniform(0, 1, 8000))
        report = nonsingularity_diagnostic(y, y, resolution=16)
        assert not report.passed
        assert report.details["flagged_cells"]

    def test_revealing_pair_passes(self):
        # The selector value and its driver are dependent but share a bounded
        # joint density (piecewise ratio 2), below the cap of 4.
        ys, zs = [], []
        for r in range(4000):
            fam = revealing_selectors(1, Seed(108, r))
            ys.append(float(fam.chosen.points[0]))
            zs.append(float(fam.high.points[0]))
        report = nonsingularity_diagnostic(_table(ys), _table(zs))
        assert report.passed
        assert report.statistic < 4

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            nonsingularity_diagnostic(_table([0.1] * 30), _table([0.2] * 30))


class TestEventReconstruction:
    def test_rate_exactly_one(self):
        fams = [revealing_selectors(100, Seed(109, r)) for r in range(30)]
        report = event_reconstruction_check(fams)
        assert report.passed
        assert report.details["reconstruction_rate"] == 1.0

    def test_shuffled_pairing_breaks_the_identity(self):
        fam = revealing_selectors(400, Seed(110))
        shuffled = fam.events[::-1]
        rate = float((shuffled == (fam.chosen.points < 0.25)).mean())
        assert rate < 0.9  # Monte Carlo control: agreement collapses to ~1/2

    def test_vacuous_pass_on_empty(self):
        report = event_reconstruction_check([])
        assert report.passed
        assert report.details["pairs"] == 0


class TestReportShape:
    def test_deterministic_reports(self):
        a = ks_uniform(sample_uniform(100, 7).points, 0.01, seed=7)
        b = ks_uniform(sample_uniform(100, 7).points, 0.01, seed=7)
        assert a == b

    @pytest.mark.parametrize(
        "run",
        [
            lambda s: fragment_independence_test("sample", [0, 0.5, 1], 200, s),
            lambda s: stationarity_test(partial(_sample_rows, 20), HALF, 20, s),
            lambda s: distinguish_counterexample(CANTOR, 20, 20, s, level=0.01),
            lambda s: shift_hit_curve(HALF, [8, 16], 10, s),
        ],
        ids=["fragment", "stationarity", "distinguish", "shifthit"],
    )
    def test_int_and_seed_give_equal_reports(self, run):
        # Like the generators, every seeded battery takes an int or a Seed.
        report = run(106)
        assert run(Seed(106)) == report and report.seed == 106
