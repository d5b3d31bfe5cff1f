"""Grid, bin set, cyclic shift and fat Cantor behavior."""

from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcset import (
    BadParameter,
    BinSet,
    CyclicShift,
    FatCantor,
    OutOfDomain,
    UndefinedPoint,
    UnitGrid,
    bin_of,
    cyclic_shift_point,
    cyclic_shift_points,
    fat_cantor_build,
    fat_cantor_contains,
    mes,
)
from dcset.formats import cantor_from_json, report_to_json


class TestBins:
    @pytest.mark.parametrize(
        "n,t,expected",
        [(4, 0.3, 1), (4, 0.25, 1), (10, 0.999, 9), (1, 0.5, 0), (8, 0.124, 0)],
    )
    def test_bin_of(self, n, t, expected):
        assert bin_of(UnitGrid(n), t) == expected

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.5, 1.5])
    def test_bin_of_out_of_domain(self, t):
        with pytest.raises(OutOfDomain):
            bin_of(UnitGrid(4), t)

    def test_bin_of_half_open_contract(self):
        # k/n <= t < (k+1)/n checked with exact rational comparison
        rng = np.random.default_rng(10)
        grid = UnitGrid(7)
        for t in rng.uniform(0.001, 0.999, 200):
            k = bin_of(grid, float(t))
            assert Fraction(k, 7) <= Fraction(float(t)) < Fraction(k + 1, 7)

    def test_bins_vectorized_matches_scalar(self):
        rng = np.random.default_rng(11)
        grid = UnitGrid(6)
        pts = rng.uniform(0.001, 0.999, 500)
        vec = grid.bins(pts)
        assert all(vec[i] == bin_of(grid, float(p)) for i, p in enumerate(pts))

    def test_grid_needs_a_bin(self):
        with pytest.raises(BadParameter):
            UnitGrid(0)


class TestMeasure:
    def test_examples(self):
        assert mes(BinSet(UnitGrid(4), frozenset({0, 2}))) == Fraction(1, 2)
        assert mes(BinSet(UnitGrid(4), frozenset())) == 0
        assert mes(UnitGrid(8).full()) == 1

    def test_additive_over_disjoint_and_monotone(self):
        rng = np.random.default_rng(12)
        grid = UnitGrid(16)
        for _ in range(50):
            members = [k for k in range(16) if rng.random() < 0.5]
            half = len(members) // 2
            a = BinSet(grid, frozenset(members[:half]))
            b = BinSet(grid, frozenset(members[half:]))
            union = BinSet(grid, a.members | b.members)
            assert mes(union) == mes(a) + mes(b)
            assert mes(a) <= mes(union)

    def test_bad_index_rejected(self):
        with pytest.raises(BadParameter):
            BinSet(UnitGrid(4), frozenset({4}))

    def test_complement(self):
        a = BinSet(UnitGrid(4), frozenset({1}))
        assert mes(a) + mes(a.complement()) == 1


class TestCyclicShift:
    def test_point_examples(self):
        assert cyclic_shift_point(CyclicShift(0.3), 0.5) == pytest.approx(0.8)
        assert cyclic_shift_point(CyclicShift(0.3), 0.8) == pytest.approx(0.1)

    def test_undefined_point(self):
        with pytest.raises(UndefinedPoint):
            cyclic_shift_point(CyclicShift(0.3), 0.7)

    def test_domain_checked(self):
        with pytest.raises(OutOfDomain):
            cyclic_shift_point(CyclicShift(0.3), 1.5)
        with pytest.raises(BadParameter):
            CyclicShift(0.0)

    def test_points_examples(self):
        assert cyclic_shift_points(CyclicShift(0.5), [0.25, 0.75]) == [0.75, 0.25]
        assert cyclic_shift_points(CyclicShift(0.5), [0.5]) == []
        out = cyclic_shift_points(CyclicShift(0.25), [0.1, 0.9])
        assert out == pytest.approx([0.35, 0.15])

    def test_roundtrip_exact_for_rationals(self):
        s = Fraction(3, 10)
        fwd = CyclicShift(s)
        back = CyclicShift(1 - s)
        for t in [Fraction(1, 7), Fraction(1, 2), Fraction(9, 11)]:
            if t in (1 - s, s):
                continue
            assert cyclic_shift_point(back, cyclic_shift_point(fwd, t)) == t

    def test_roundtrip_floats_close(self):
        rng = np.random.default_rng(13)
        s = 0.3
        for t in rng.uniform(0.01, 0.99, 100):
            t = float(t)
            if t in (1 - s, s):
                continue
            out = cyclic_shift_point(CyclicShift(1 - s), cyclic_shift_point(CyclicShift(s), t))
            assert out == pytest.approx(t, abs=1e-12)


def _exact_contains(cantor, points) -> list:
    """Reference membership: no removed open interval holds the point, in Fractions."""
    los = [lo for lo, _ in cantor.removed]
    out = []
    for p in points:
        x = Fraction(float(p))
        i = bisect_right(los, x) - 1
        out.append(i < 0 or not cantor.removed[i][0] < x < cantor.removed[i][1])
    return out


def _fraction_build(gap, depth) -> tuple:
    """fat_cantor_build's stage recurrence in Fractions: the sorted removed intervals."""
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
    return tuple(sorted(removed))


def _float_tables(removed) -> tuple:
    """(starts, ends, cum) of the kept segments, each float converted from a Fraction."""
    bounds = [Fraction(0), *(x for interval in removed for x in interval), Fraction(1)]
    segments = list(zip(bounds[::2], bounds[1::2]))
    starts = np.array([float(a) for a, _ in segments])
    ends = np.array([float(b) for _, b in segments])
    cum = np.concatenate([[0.0], np.cumsum([float(b - a) for a, b in segments])])
    return starts, ends, cum


@st.composite
def _removed_intervals(draw):
    """Disjoint rational intervals in (0, 1): consecutive cut points, some pairs
    sharing an end; half the time most cuts crowd into one narrow cluster."""
    den = draw(st.sampled_from([7, 1000, 3 * 2**40, 10**18 + 9]))
    nums = draw(st.lists(st.integers(1, den - 1), min_size=2, max_size=40, unique=True))
    cuts = sorted(Fraction(k, den) for k in nums)
    if draw(st.booleans()):
        base = draw(st.fractions(Fraction(1, 10), Fraction(9, 10), max_denominator=10**6))
        width = Fraction(1, draw(st.sampled_from([10**4, 10**9, 2**60])))
        offsets = draw(st.lists(st.integers(0, 1000), min_size=8, max_size=60, unique=True))
        cuts = sorted(set(cuts) | {base + width * k / 1000 for k in offsets})
    chosen = draw(st.lists(st.booleans(), min_size=len(cuts) - 1, max_size=len(cuts) - 1))
    return tuple((a, b) for a, b, take in zip(cuts, cuts[1:], chosen) if take)


def _check_lookup(cantor, rng) -> None:
    """The bucket lookup gives searchsorted's segment index, and membership is exact."""
    starts, ends, _ = cantor.float_segments
    edges = np.concatenate([starts, ends])
    pts = np.concatenate([
        rng.uniform(0.0, 1.0, 1000),
        edges,
        np.nextafter(edges, 0.0),
        np.nextafter(edges, 1.0),
        [0.0, 1.0, np.nan],
    ])
    expected = np.searchsorted(starts, pts, side="right") - 1
    assert np.array_equal(cantor._segment_index(pts), expected)
    inside = cantor.contains_points(pts)
    assert inside[:-1].tolist() == _exact_contains(cantor, pts[:-1])
    assert not inside[-1]  # NaN


class TestFatCantor:
    def test_depth_one_hand_evaluated(self):
        # Geometric schedule: stage 1 removes a centered interval of length
        # 2*(1/2)/4 = 1/4, so gap_measure is 1/4.
        c = fat_cantor_build(Fraction(1, 2), 1)
        assert c.removed == ((Fraction(3, 8), Fraction(5, 8)),)
        assert c.gap_measure == Fraction(1, 4)
        assert c.measure == Fraction(3, 4)

    @pytest.mark.parametrize("depth", [1, 2, 4, 8])
    def test_gap_partial_sums(self, depth):
        # Geometric series: after d stages the removed mass is g*(1 - 2**-d).
        g = Fraction(1, 2)
        c = fat_cantor_build(g, depth)
        assert c.gap_measure == g * (1 - Fraction(1, 2**depth))
        assert c.gap_measure < g

    def test_gap_increases_with_depth(self):
        gaps = [fat_cantor_build(Fraction(2, 3), d).gap_measure for d in range(1, 7)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("bad", [0, 1, Fraction(5, 4), Fraction(-1, 2)])
    def test_bad_gap_rejected(self, bad):
        with pytest.raises(BadParameter):
            fat_cantor_build(bad, 3)

    def test_bad_depth_rejected(self):
        for depth in (0, 17):
            with pytest.raises(BadParameter):
                fat_cantor_build(Fraction(1, 2), depth)

    @pytest.mark.parametrize("gap,depth", [(Fraction(1, 2), 4), (Fraction(9, 10), 5)])
    def test_density_witness(self, gap, depth):
        # Every dyadic bin at resolution 2**depth meets a removed interval.
        c = fat_cantor_build(gap, depth)
        n = 2**depth
        for k in range(n):
            lo, hi = Fraction(k, n), Fraction(k + 1, n)
            assert any(r_lo < hi and r_hi > lo for r_lo, r_hi in c.removed), k

    def test_removed_disjoint_and_inside(self):
        c = fat_cantor_build(Fraction(4, 5), 6)
        assert all(0 < lo < hi < 1 for lo, hi in c.removed)
        assert all(a[1] <= b[0] for a, b in zip(c.removed, c.removed[1:]))

    def test_contains_examples(self):
        c = fat_cantor_build(Fraction(1, 2), 1)
        assert not fat_cantor_contains(c, 0.5)
        assert fat_cantor_contains(c, 0.01)
        with pytest.raises(OutOfDomain):
            fat_cantor_contains(c, 0.0)

    def test_contains_vector_matches_scalar(self):
        c = fat_cantor_build(Fraction(1, 2), 6)
        rng = np.random.default_rng(15)
        pts = rng.uniform(0.001, 0.999, 400)
        vec = c.contains_points(pts)
        assert all(bool(vec[i]) == fat_cantor_contains(c, float(p)) for i, p in enumerate(pts))

    def test_kept_segments_account_for_measure(self):
        c = fat_cantor_build(Fraction(3, 7), 5)
        total = sum((b - a for a, b in c.kept_segments()), Fraction(0))
        assert total == c.measure

    @pytest.mark.parametrize("gap", [Fraction(1, 2), Fraction(1, 3), Fraction(9, 10), Fraction(99, 100)])
    def test_contains_matches_removed_interval_formula(self, gap):
        # Reference: a point is out of the set iff some removed open interval
        # holds it.  Uniform points are compared in floats; the float interval
        # ends and their neighbours, where rounding can mislead a float
        # comparison, are compared exactly.
        for depth in (1, 2, 3, 5, 8, 12):
            c = fat_cantor_build(gap, depth)
            los = np.array([float(lo) for lo, _ in c.removed])
            his = np.array([float(hi) for _, hi in c.removed])
            pts = np.random.default_rng(depth).uniform(0.0, 1.0, 2000)
            i = np.searchsorted(los, pts, side="right") - 1
            held = (i >= 0) & (pts > los[i]) & (pts < his[i])
            assert np.array_equal(c.contains_points(pts), ~held), (gap, depth)
            bounds = np.concatenate([los, his])
            near = np.concatenate([bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 1.0)])
            assert c.contains_points(near).tolist() == _exact_contains(c, near), (gap, depth)
            assert c.float_segments is c.float_segments

    @pytest.mark.parametrize("gap", [Fraction(1, 3), Fraction(9, 10), Fraction(2, 3)])
    def test_vector_and_scalar_agree_at_rounded_ends(self, gap):
        # Points next to a float-rounded end are where a float comparison can
        # disagree with the exact scalar test.
        c = fat_cantor_build(gap, 6)
        bounds = np.array([float(x) for interval in c.removed for x in interval])
        near = np.concatenate([bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 1.0)])
        assert len(near) == 378
        vec = c.contains_points(near)
        assert vec.tolist() == [fat_cantor_contains(c, float(p)) for p in near]
        assert vec.tolist() == _exact_contains(c, near)

    @pytest.mark.parametrize(
        "gap", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(9, 10), Fraction(99, 100), Fraction(1, 1025)]
    )
    def test_build_matches_fraction_recurrence(self, gap):
        # The integer schedule gives the same intervals, measure and float
        # tables, bit for bit, as the stage recurrence in Fractions, on int64
        # units and on Python ints: 1/1025 at depth 14 has 2**43 * 1025 > 2**53
        # units.
        for depth in (*range(1, 13), 14):
            c = fat_cantor_build(gap, depth)
            removed = _fraction_build(gap, depth)
            assert c.removed == removed, (gap, depth)
            assert c.gap_measure == sum((hi - lo for lo, hi in removed), Fraction(0))
            for table, expected in zip(c.float_segments, _float_tables(removed)):
                assert table.tobytes() == expected.tobytes(), (gap, depth)

    def test_lookup_tables_read_only_and_shared(self):
        c = fat_cantor_build(Fraction(1, 3), 7)
        first, next_start, passes = c.bucket_table
        assert c.bucket_table is c.bucket_table
        assert c.float_segments is c.float_segments
        for table in (first, next_start, *c.float_segments):
            assert not table.flags.writeable
        assert len(first) - 1 >= 4 * len(c.float_segments[0])
        assert 1 <= passes <= 3

    @pytest.mark.parametrize(
        "gap,depth",
        [(Fraction(1, 2), 10), (Fraction(1, 3), 10), (Fraction(9, 10), 12), (Fraction(99, 100), 14)],
    )
    def test_bucket_lookup_equals_searchsorted_on_built_sets(self, gap, depth):
        _check_lookup(fat_cantor_build(gap, depth), np.random.default_rng(depth))

    @settings(max_examples=100, deadline=None)
    @given(removed=_removed_intervals(), seed=st.integers(0, 2**32 - 1))
    def test_bucket_lookup_equals_searchsorted(self, removed, seed):
        # Arbitrary disjoint rational intervals, touching ones (a kept
        # segment of length 0) and clusters crowding many starts into one
        # bucket included.
        c = FatCantor(3, removed)
        _check_lookup(c, np.random.default_rng(seed))
        again = cantor_from_json(report_to_json(c))
        assert again == c
        _check_lookup(again, np.random.default_rng(seed))

    def test_crowded_buckets_are_searched(self):
        c = fat_cantor_build(Fraction(99, 100), 14)
        first, _, passes = c.bucket_table
        assert passes == 3 and (first < 0).any()
        # Points on C itself, which lie in the crowded buckets.
        starts, ends, _ = c.float_segments
        pts = (starts + ends) / 2
        assert np.array_equal(c._segment_index(pts), np.arange(len(starts)))
        assert c.contains_points(pts).all()

    def test_bad_interval_ends_rejected(self):
        for bad in (float("nan"), float("inf"), None):
            with pytest.raises(BadParameter, match="need rational ends"):
                FatCantor(1, ((bad, Fraction(1, 2)),))
        overlaps = [
            (((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 3), Fraction(3, 4))),
             "removed intervals (1/4, 1/2) and (1/3, 3/4) overlap"),
            # Out of order over a shared denominator 8; 4/8 is worded reduced.
            (((Fraction(3, 8), Fraction(5, 8)), (Fraction(1, 8), Fraction(4, 8))),
             "removed intervals (1/8, 1/2) and (3/8, 5/8) overlap"),
        ]
        for removed, message in overlaps:
            with pytest.raises(BadParameter) as info:
                FatCantor(1, removed)
            assert str(info.value) == message
        for lo, hi in [(Fraction(1, 2), Fraction(1, 2)), (0, Fraction(1, 2)), (Fraction(1, 2), 1)]:
            with pytest.raises(BadParameter) as info:
                FatCantor(1, ((lo, hi),))
            assert str(info.value) == f"removed interval ({lo}, {hi}) needs 0 < lo < hi < 1"

    def test_touching_intervals_keep_their_common_point(self):
        c = FatCantor(1, ((Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 4), Fraction(1, 2))))
        assert c.removed == ((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 4)))
        assert c.measure == Fraction(1, 2)
        pts = np.array([0.2, 0.3, 0.5, 0.6, 0.8])
        assert c.contains_points(pts).tolist() == [True, False, True, False, True]
        assert all(fat_cantor_contains(c, float(p)) == v for p, v in zip(pts, c.contains_points(pts)))


def _placed_by_hand(cantor, us):
    """The inverse CDF written out over the float segment tables: the oracle
    for `FatCantor.place`, which must match it bit for bit."""
    starts, _, cum = cantor.float_segments
    idx = np.clip(np.searchsorted(cum, us, side="right") - 1, 0, len(starts) - 1)
    return starts[idx] + (us - cum[idx])


class TestPlace:
    @staticmethod
    def check(cantor, drawn):
        # 0, every cumulative segment length, the largest float below mes C,
        # NaN padding, and drawn values, as one row and as a NaN-padded block.
        measure = float(cantor.measure)
        _, _, cum = cantor.float_segments
        us = np.concatenate([[0.0], cum, [np.nextafter(measure, 0.0), np.nan], drawn])
        for shaped in (us, np.resize(us, (3, len(us) + 1))):
            assert cantor.place(shaped).tobytes() == _placed_by_hand(cantor, shaped).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(gap=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)]),
           depth=st.integers(1, 12), data=st.data())
    def test_built_sets_bit_equal(self, gap, depth, data):
        c = fat_cantor_build(gap, depth)
        measure = float(c.measure)
        drawn = data.draw(st.lists(st.floats(0.0, measure, exclude_max=True), max_size=50))
        self.check(c, np.array(drawn))

    @settings(max_examples=60, deadline=None)
    @given(removed=_removed_intervals(), data=st.data())
    def test_rational_sets_bit_equal(self, removed, data):
        c = FatCantor(3, removed)
        measure = float(c.measure)
        drawn = data.draw(st.lists(st.floats(0.0, measure, exclude_max=True), max_size=50))
        self.check(c, np.array(drawn))

    def test_segment_starts_placed_exactly(self):
        # Length cum[k] of C lies left of segment k's start.
        c = fat_cantor_build(Fraction(1, 3), 4)
        starts, _, cum = c.float_segments
        assert np.array_equal(c.place(cum[:-1]), starts)
