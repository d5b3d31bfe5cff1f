"""Simulator behavior: determinism, distributional laws, constructions."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from dcset import (
    BadParameter,
    BinSet,
    Enumeration,
    FatCantor,
    Seed,
    UnitGrid,
    WalkPath,
    brownian_minima,
    counterexample_mix,
    fat_cantor_build,
    fat_cantor_contains,
    gaussian_walk,
    intensity_estimate,
    poisson_on_cantor,
    revealing_selectors,
    sample_uniform,
    walk_minima,
)
from dcset import generators
from dcset.errors import WORK_BUDGET
from dcset.generators import (
    _LEAP_ENTRIES,
    _counterexample_rows,
    _distinct_uniform,
    _minima_rows,
    _pcg64_block,
    _pcg64_passes,
    _poisson_rows,
    _replica_array,
    _sample_rows,
    _seed_state,
)

CANTOR = fat_cantor_build(Fraction(1, 2), 10)


def no_draw(*args):
    """Stand-in for a generator that must not run before a refusal."""
    raise AssertionError("drew before refusing")


class TestSeed:
    def test_validation(self):
        with pytest.raises(BadParameter):
            Seed(-1)
        with pytest.raises(BadParameter):
            Seed(2**64)
        with pytest.raises(BadParameter):
            Seed(3, -1)

    def test_streams_differ_by_component_and_replica(self):
        a = Seed(5, 0).stream(0, 0).uniform(size=4)
        b = Seed(5, 0).stream(0, 1).uniform(size=4)
        c = Seed(5, 1).stream(0, 0).uniform(size=4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_is_pcg64_with_default_rng_bits(self):
        seed = Seed(2**63 + 9, 4)
        gen = seed.stream(1, 3)
        assert type(gen.bit_generator) is np.random.PCG64
        seq = np.random.SeedSequence(seed.value, spawn_key=(4, 1, 3))
        assert np.array_equal(gen.uniform(size=8), np.random.default_rng(seq).uniform(size=8))


class TestUniforms:
    """Seed.uniforms against its oracle, the scalar Seed.stream."""

    @settings(max_examples=150, deadline=None)
    @given(
        value=st.integers(0, 2**64 - 1),
        key=st.lists(st.integers(0, 2**64), max_size=3),
        size=st.integers(0, 5),
        replicas=st.lists(
            st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)), max_size=12
        ),
    )
    def test_rows_match_stream(self, value, key, size, replicas):
        got = Seed(value).uniforms(replicas, *key, size=size)
        assert got.shape == (len(replicas), size)
        for row, r in zip(got, replicas):
            expected = Seed(value, r).stream(*key).uniform(size=size)
            assert np.array_equal(row, expected)

    def test_many_rows_match_stream(self):
        reps = list(range(0, 3000, 7)) + [2**32 - 1, 2**32, 2**40 + 3]
        for value, key in [(0, (1, 0)), (2**64 - 1, (2, 17)), (43, (0, 0)), (7, (2**32 + 1,))]:
            got = Seed(value, 5).uniforms(reps, *key, size=3)
            expected = [Seed(value, r).stream(*key).uniform(size=3) for r in reps]
            assert np.array_equal(got, np.array(expected))

    def test_negative_replica_rejected(self):
        with pytest.raises(BadParameter, match="replica index -1 negative"):
            Seed(3).uniforms([0, -1, 2], 1, 0)

    def test_blocks_continue_the_stream(self):
        # Successive passes of k columns, concatenated, are the stream in order.
        seed = Seed(2**64 - 1)
        for k in (1, 3, 8):
            passes = _pcg64_passes(_seed_state(seed.value, range(9), (0, 3)), k)
            got = np.concatenate([next(passes) for _ in range(5)]).T
            assert np.array_equal(got, seed.uniforms(range(9), 0, 3, size=5 * k))

    @settings(max_examples=30, deadline=None)
    @given(
        value=st.integers(0, 2**64 - 1),
        key=st.lists(st.integers(0, 2**64), max_size=2),
        rows=st.sampled_from(
            [0, 1, 3, _LEAP_ENTRIES // 5, _LEAP_ENTRIES // 2, _LEAP_ENTRIES, _LEAP_ENTRIES + 1]
        ),
        data=st.data(),
    )
    def test_blocks_match_stream(self, value, key, rows, data):
        # A pass draws k = max(1, min(width, _LEAP_ENTRIES // rows)) columns, so
        # these row counts put k on both sides of 1, and of 8, the fewest
        # columns a write takes; a width that is not a multiple of k leaves
        # part of the last pass unread.
        widths = st.integers(0, 11)
        if rows <= 3:
            widths |= st.sampled_from([_LEAP_ENTRIES - 1, _LEAP_ENTRIES + 3])
        width = data.draw(widths, label="width")
        got = _pcg64_block(_seed_state(value, range(rows), key), width)
        assert got.shape == (rows, width)
        for r in range(rows):
            assert np.array_equal(got[r], Seed(value, r).stream(*key).uniform(size=width))

    @pytest.mark.parametrize(
        "rows, width, reads", [(500, 200, 1), (500, 24, 1), (500, 32, 16), (5000, 64, 1)]
    )
    def test_benchmark_shapes_match_stream(self, rows, width, reads):
        # The distinguish sample and Poisson rows, 512 doubles of 500 rows,
        # and the selector's tall draw, each drawn as one block.
        got = _pcg64_block(_seed_state(1, range(rows), (0, 3)), width * reads)
        for r in (0, 1, rows - 1):
            assert np.array_equal(got[r], Seed(1, r).stream(0, 3).uniform(size=width * reads))

    @settings(max_examples=60, deadline=None)
    @given(
        value=st.integers(0, 2**64 - 1),
        replicas=st.lists(
            st.one_of(st.integers(0, 2**32 - 1), st.just(2**32 - 1), st.integers(2**32, 2**63 - 1)),
            min_size=1, max_size=80, unique=True,
        ),
        component=st.integers(0, 3),
        size=st.integers(1, 40),
    )
    def test_selector_replica_sets_match_stream(self, value, replicas, component, size):
        # selector._draw passes an unsorted int64 array of rows with gaps.  At
        # 64 entries a pass, up to 64 rows draw k > 1 columns a pass, over
        # many passes whose last is cut short; an index of 2**32 or more spans
        # two spawn-key words.  No wrapping product may warn or raise.
        reps = np.array(replicas, dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            mp.setattr(generators, "_LEAP_ENTRIES", 64)
            got = Seed(value).uniforms(reps, generators.SELECTOR_DOMAIN, component, size=size)
        for row, r in zip(got, replicas):
            expected = Seed(value, r).stream(generators.SELECTOR_DOMAIN, component).uniform(size=size)
            assert np.array_equal(row, expected)

    def test_peak_memory_stays_near_the_output(self):
        # A second array the size of the output would show in peak RSS.
        def peak(draw) -> int:
            draw()  # fills the constant caches
            tracemalloc.start()
            try:
                draw()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: Seed(1).uniforms(range(5000), 0, 0, size=64)) <= 5000 * 64 * 8 + 750_000
        assert peak(lambda: _seed_state(1, range(5000), (0, 0))) <= 5000 * 4 * 8 + 400_000

    def test_empty_replica_list(self):
        assert Seed(3).uniforms([], 1, 0, size=4).shape == (0, 4)
        assert Seed(3).uniforms(range(0), 1, 0).shape == (0, 1)

    @settings(max_examples=100, deadline=None)
    @given(
        value=st.integers(0, 2**64 - 1),
        replicas=st.lists(
            st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0, 2**31, 2**32 - 1])), max_size=8
        ),
        key=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64)), max_size=3),
    )
    def test_seed_state_matches_seed_sequence(self, value, replicas, key):
        # Only the replica word is hashed per row; the rest once, as Python ints.
        state = _seed_state(value, _replica_array(replicas), key)
        assert state.shape == (len(replicas), 4) and state.dtype == np.uint64
        for row, r in zip(state, replicas):
            expected = np.random.SeedSequence(value, spawn_key=(r, *key)).generate_state(4, np.uint64)
            assert np.array_equal(row, expected)

    @pytest.mark.parametrize(
        "replicas",
        [[], [3, 0, 2**32 - 1], [2**32, 5, 2**63, 2**64 - 1, 2**70], range(4, 40, 3),
         np.array([7, 2**40], dtype=np.uint64), np.arange(5, dtype=np.int32)],
        ids=["empty", "narrow", "mixed-wide", "range", "uint64", "int32"],
    )
    def test_replica_array_keeps_every_index(self, replicas):
        reps = _replica_array(replicas)
        assert reps.ndim == 1 and reps.dtype.kind in "iuO"
        assert [int(r) for r in reps] == [int(r) for r in replicas]

    def test_mixed_replica_array_matches_stream(self):
        # Indices of 2**32 or more are drawn by `stream`, the rest in one batch.
        reps = np.array([2**32, 4, 2**64 - 1, 0], dtype=np.uint64)
        got = Seed(11).uniforms(reps, 1, 2**33, size=3)
        for row, r in zip(got, reps.tolist()):
            assert np.array_equal(row, Seed(11, r).stream(1, 2**33).uniform(size=3))


class TestSampleUniform:
    def test_shape_and_domain(self):
        enum = sample_uniform(3, 7)
        assert len(enum) == 3 == enum.depth
        assert np.unique(enum.points).size == 3
        assert ((enum.points > 0) & (enum.points < 1)).all()

    def test_deterministic(self):
        assert np.array_equal(sample_uniform(64, 9).points, sample_uniform(64, 9).points)
        assert np.array_equal(
            sample_uniform(8, Seed(9, 2)).points, sample_uniform(8, Seed(9, 2)).points
        )

    def test_depth_zero_rejected(self):
        with pytest.raises(BadParameter):
            sample_uniform(0, 1)

    def test_work_budget(self):
        # Each is refused before anything is allocated.
        calls = [
            lambda: sample_uniform(WORK_BUDGET + 1, 1),
            lambda: sample_uniform(2_000_000_000, 1),
            lambda: gaussian_walk(WORK_BUDGET + 1, 1),
            lambda: counterexample_mix(2_000_000_000, CANTOR, 1),
            lambda: revealing_selectors(WORK_BUDGET // 3 + 1, 1),
            lambda: _sample_rows(WORK_BUDGET // 10 + 1, Seed(1), range(10)),
            lambda: _counterexample_rows(WORK_BUDGET // 10 + 1, CANTOR, Seed(1), range(10)),
            lambda: _minima_rows(WORK_BUDGET // 10 + 1, Seed(1), range(10)),
        ]
        for call in calls:
            with pytest.raises(BadParameter, match="exceeds the work budget"):
                call()

    def test_expected_count_in_binset(self):
        # Binomial mean oracle: E[count in A] = depth * mes(A); Monte Carlo
        # over 1000 replicas must land within 3 standard errors.
        region = BinSet(UnitGrid(4), frozenset({0, 2}))
        depth, replicas = 50, 1000
        counts = [sample_uniform(depth, Seed(41, r)).count_in(region) for r in range(replicas)]
        expected = depth * 0.5
        se = math.sqrt(depth * 0.5 * 0.5 / replicas)
        assert abs(np.mean(counts) - expected) <= 3 * se

    def test_per_bin_chi_square_uniform(self):
        # Fixed-seed goodness of fit of pooled per-bin counts at level 0.01.
        grid = UnitGrid(8)
        pooled = np.zeros(8)
        for r in range(200):
            pooled += np.bincount(grid.bins(sample_uniform(40, Seed(42, r)).points), minlength=8)
        expected = pooled.sum() / 8
        statistic = float(((pooled - expected) ** 2 / expected).sum())
        assert statistic < chi2.ppf(0.99, 7)


def loop_distinct_uniform(rng, count, lo, hi):
    """The redraw loop: keep interior draws not seen before, in order."""
    picked, seen = [], set()
    while len(picked) < count:
        for t in rng.uniform(lo, hi, size=count - len(picked)):
            t = float(t)
            if lo < t < hi and t not in seen:
                picked.append(t)
                seen.add(t)
    return np.array(picked)


class ScriptedRng:
    """Stand-in generator that returns the given chunks in turn."""

    def __init__(self, chunks):
        self.chunks = [np.array(c, dtype=float) for c in chunks]
        self.sizes = []

    def uniform(self, lo, hi, size):
        self.sizes.append(size)
        chunk = self.chunks[len(self.sizes) - 1]
        assert chunk.size == size
        return chunk


class TestDistinctUniform:
    @pytest.mark.parametrize("count,lo,hi", [(1, 0.0, 1.0), (64, 0.0, 1.0), (300, 0.25, 0.5), (7, 0.0, 0.3)])
    def test_matches_the_redraw_loop(self, count, lo, hi):
        for s in range(20):
            fast = _distinct_uniform(np.random.default_rng(s), count, lo, hi)
            assert np.array_equal(fast, loop_distinct_uniform(np.random.default_rng(s), count, lo, hi))
            assert fast.dtype == np.float64

    @pytest.mark.parametrize(
        "chunks,expected",
        [
            # 0.2 repeats and 0.0 and 1.0 are the open interval's endpoints:
            # two redraws, the first of which repeats an earlier pick.
            ([[0.2, 0.0, 0.7, 0.2, 1.0], [0.2, 0.9, 0.5], [0.4]], [0.2, 0.7, 0.9, 0.5, 0.4]),
            ([[0.3, 0.0, 0.6], [0.8]], [0.3, 0.6, 0.8]),  # an endpoint alone
            ([[0.3, 0.6, 1.0], [0.8]], [0.3, 0.6, 0.8]),
            ([[0.3, 0.6, 0.3], [0.8]], [0.3, 0.6, 0.8]),  # a duplicate alone
        ],
    )
    def test_duplicate_or_endpoint_falls_back_to_the_loop(self, chunks, expected):
        count = len(expected)
        fast_rng, loop_rng = ScriptedRng(chunks), ScriptedRng(chunks)
        fast = _distinct_uniform(fast_rng, count, 0.0, 1.0)
        assert np.array_equal(fast, loop_distinct_uniform(loop_rng, count, 0.0, 1.0))
        assert fast.tolist() == expected
        assert fast_rng.sizes == loop_rng.sizes == [len(c) for c in chunks]

    def test_zero_count_draws_nothing(self):
        rng = ScriptedRng([])
        assert _distinct_uniform(rng, 0, 0.0, 1.0).size == 0 and rng.sizes == []


class TestWalkMinima:
    def test_hand_example(self):
        path = WalkPath(steps=4, values=np.array([0.0, -1.0, 0.5, -0.2, 1.0]))
        assert walk_minima(path).points.tolist() == [0.25, 0.75]

    def test_monotone_path_has_none(self):
        path = WalkPath(steps=4, values=np.arange(5.0))
        assert len(walk_minima(path)) == 0

    def test_times_ascend_and_match_stored_path(self):
        enum = brownian_minima(500, 3)
        assert (np.diff(enum.points) > 0).all()
        path = gaussian_walk(500, 3)  # deterministic: same seed, same walk
        for t in enum.points:
            k = round(t * 500)
            assert path.values[k - 1] > path.values[k] < path.values[k + 1]

    def test_quarter_law_mean_count(self):
        # For a walk with independent continuous increments an interior time
        # is a strict local minimum iff the adjacent increments change sign
        # upward: probability 1/4, so the mean count is (K-1)/4.  Monte Carlo
        # over 200 replicas at K = 10^4 must sit within 2%.
        steps, replicas = 10**4, 200
        counts = [len(brownian_minima(steps, Seed(6, r))) for r in range(replicas)]
        expected = (steps - 1) / 4
        assert abs(np.mean(counts) - expected) <= 0.02 * expected

    def test_steps_validation(self):
        with pytest.raises(BadParameter):
            brownian_minima(2, 1)


class TestPoissonOnCantor:
    def test_membership_sure(self):
        for r in range(20):
            for t in poisson_on_cantor(CANTOR, Seed(8, r)):
                assert fat_cantor_contains(CANTOR, float(t))

    def test_poisson_mean(self):
        replicas = 4000
        counts = [len(poisson_on_cantor(CANTOR, Seed(13, r))) for r in range(replicas)]
        mean_c = float(CANTOR.measure)
        se = math.sqrt(mean_c / replicas)
        assert abs(np.mean(counts) - mean_c) <= 3 * se

    def test_empty_probability(self):
        # P(N = 0) = exp(-mes C), checked by Monte Carlo within 3 SE.
        replicas = 4000
        zero = np.mean([len(poisson_on_cantor(CANTOR, Seed(14, r))) == 0 for r in range(replicas)])
        p = math.exp(-float(CANTOR.measure))
        se = math.sqrt(p * (1 - p) / replicas)
        assert abs(zero - p) <= 3 * se

    def test_deterministic(self):
        assert np.array_equal(poisson_on_cantor(CANTOR, 77), poisson_on_cantor(CANTOR, 77))


class TestCounterexampleMix:
    def test_components_live_where_stated(self):
        for r in range(15):
            enum = counterexample_mix(30, CANTOR, Seed(21, r))
            for t, tag in zip(enum.points, enum.tags):
                inside = fat_cantor_contains(CANTOR, float(t))
                assert inside if tag == "poisson" else not inside

    def test_count_in_cantor_is_depth_free(self):
        # The mixed set charges C through its Poisson part only: mean mes C,
        # no matter the sample depth.  The pure sample would give depth*mes C.
        replicas = 600
        for depth in (20, 200):
            counts = [
                counterexample_mix(depth, CANTOR, Seed(22, r)).count_in(CANTOR)
                for r in range(replicas)
            ]
            mean_c = float(CANTOR.measure)
            se = math.sqrt(mean_c / replicas)
            assert abs(np.mean(counts) - mean_c) <= 4 * se

    def test_sample_contrast(self):
        depth, replicas = 100, 300
        counts = [sample_uniform(depth, Seed(23, r)).count_in(CANTOR) for r in range(replicas)]
        expected = depth * float(CANTOR.measure)
        se = math.sqrt(depth * 0.25 / replicas)
        assert abs(np.mean(counts) - expected) <= 4 * se

    def test_sample_part_size(self):
        enum = counterexample_mix(25, CANTOR, Seed(24))
        assert sum(1 for tag in enum.tags if tag == "sample") == 25

    def test_gapless_set_refused_like_its_row_maker(self):
        # A set with no gaps leaves the sample picks nowhere to fall, so a
        # missing refusal loops for ever: run it in a child under a timeout.
        import dcset

        code = (
            "from dcset import BadParameter, FatCantor, Seed, counterexample_mix\n"
            "from dcset.generators import _counterexample_rows\n"
            "for make in (lambda: counterexample_mix(1, FatCantor(1, ()), Seed(1)),\n"
            "             lambda: _counterexample_rows(1, FatCantor(1, ()), Seed(1), range(3))):\n"
            "    try:\n"
            "        make()\n"
            "    except BadParameter as err:\n"
            "        print(err)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dcset.__file__))}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        assert done.stdout.splitlines() == ["cantor set must leave gaps for the sample"] * 2

    def test_gapless_set_refused_before_drawing(self, monkeypatch):
        monkeypatch.setattr(generators, "poisson_on_cantor", no_draw)
        with pytest.raises(BadParameter, match="cantor set must leave gaps"):
            counterexample_mix(1, FatCantor(1, ()), Seed(1))

    def test_tiny_gap_refused_like_its_row_maker(self):
        # A gap of 10**-9 takes about 10**9 draws per pick, so a missing
        # refusal runs on for minutes: run it in a child under a timeout.
        import dcset

        code = (
            "from fractions import Fraction as F\n"
            "from dcset import BadParameter, FatCantor, Seed, counterexample_mix\n"
            "from dcset.generators import _counterexample_rows\n"
            "tiny = FatCantor(1, ((F(1, 2), F(1, 2) + F(1, 10**9)),))\n"
            "for make in (lambda: counterexample_mix(1, tiny, Seed(1)),\n"
            "             lambda: _counterexample_rows(1, tiny, Seed(1), range(2))):\n"
            "    try:\n"
            "        make()\n"
            "    except BadParameter as err:\n"
            "        print(err)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dcset.__file__))}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        refusal = f"depth / gap measure = 1000000000 exceeds the work budget {WORK_BUDGET}"
        assert done.stdout.splitlines() == [refusal] * 2

    def test_draws_over_budget_refused_before_drawing(self, monkeypatch):
        monkeypatch.setattr(generators, "poisson_on_cantor", no_draw)
        monkeypatch.setattr(generators, "_poisson_rows", no_draw)
        tiny = FatCantor(1, ((Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**7)),))
        for make in (lambda: counterexample_mix(2, tiny, Seed(1)),
                     lambda: _counterexample_rows(2, tiny, Seed(1), range(3))):
            with pytest.raises(BadParameter, match="depth / gap measure = 20000000 exceeds"):
                make()
        # Draws are rounded up and may reach the budget itself.
        half = FatCantor(1, ((Fraction(1, 4), Fraction(3, 4)),))
        assert generators._sample_gap(half, WORK_BUDGET // 2) == 0.5
        with pytest.raises(BadParameter, match=f"= {WORK_BUDGET + 2} exceeds"):
            generators._sample_gap(half, WORK_BUDGET // 2 + 1)
        two_thirds = FatCantor(1, ((Fraction(1, 6), Fraction(5, 6)),))
        assert generators._sample_gap(two_thirds, 6_666_666) == 2 / 3  # 9,999,999 draws
        with pytest.raises(BadParameter, match=f"= {WORK_BUDGET + 1} exceeds"):
            generators._sample_gap(two_thirds, 6_666_667)  # 10,000,000.5 draws


class Drew(Exception):
    """Raised by a spy on `_seed_state`: the budget checks passed and drawing began."""


def spy_on_draws(*args):
    raise Drew


class TestDrawBudgets:
    """The batch rows' Poisson and gap-pick draws are held to the work budget
    before anything is drawn; a call at the budget itself passes its checks,
    and a spy stops it at its first draw."""

    @pytest.mark.parametrize("width", [24, 20])
    def test_poisson_draws(self, monkeypatch, width):
        monkeypatch.setattr(generators, "_POISSON_WIDTH", width)
        monkeypatch.setattr(generators, "_seed_state", spy_on_draws)
        inside = WORK_BUDGET // width
        with pytest.raises(BadParameter) as refused:
            _poisson_rows(CANTOR, Seed(1), range(inside + 1))
        product = (inside + 1) * width
        assert str(refused.value) == (
            f"replicas * {width} Poisson draws = {product} exceeds the work budget {WORK_BUDGET}"
        )
        with pytest.raises(Drew):
            _poisson_rows(CANTOR, Seed(1), range(inside))

    def test_gap_pick_draws(self, monkeypatch):
        monkeypatch.setattr(generators, "_seed_state", spy_on_draws)
        # 909,091 draws a replica; 11 replicas are one draw over the budget.
        narrow = FatCantor(1, ((Fraction(1, 4), Fraction(1, 4) + Fraction(1, 909_091)),))
        with pytest.raises(BadParameter) as refused:
            _counterexample_rows(1, narrow, Seed(1), range(11))
        assert str(refused.value) == (
            f"replicas * depth / gap measure = {WORK_BUDGET + 1} exceeds the work budget {WORK_BUDGET}"
        )
        # 10 replicas of 10**6 draws each reach the budget itself.
        half = FatCantor(1, ((Fraction(1, 4), Fraction(3, 4)),))
        with pytest.raises(Drew):
            _counterexample_rows(WORK_BUDGET // 20, half, Seed(1), range(10))
        # A replica's own draws are still checked first, under their own name.
        with pytest.raises(BadParameter, match="^depth / gap measure = 10000002 exceeds"):
            _counterexample_rows(WORK_BUDGET // 2 + 1, half, Seed(1), range(1))


class TestIntensityEstimate:
    def test_uniform_sample_matches_binomial_mean(self):
        # Pr(Y_n in A) = mes A exactly, so the weighted sum has expectation
        # mes(A) * sum_{n<=D} 1/n^2.
        region = BinSet(UnitGrid(2), frozenset({0}))
        depth, replicas = 30, 1200
        estimate = intensity_estimate(
            lambda s: sample_uniform(depth, s), region, replicas, 31
        )
        exact = Fraction(1, 2) * sum(Fraction(1, n * n) for n in range(1, depth + 1))
        sd = 0.6  # generous bound on the per-replica standard deviation
        assert abs(float(estimate) - float(exact)) <= 3 * sd / math.sqrt(replicas)

    def test_empty_region_zero(self):
        region = UnitGrid(4).empty()
        assert intensity_estimate(lambda s: sample_uniform(5, s), region, 50, 1) == 0

    def test_mix_still_charges_cantor_heavy_bins(self):
        # Bins meeting C keep positive intensity through the Poisson part.
        region = BinSet(UnitGrid(4), frozenset({0}))
        estimate = intensity_estimate(
            lambda s: counterexample_mix(5, CANTOR, s), region, 400, 32
        )
        assert estimate > 0

    def test_exact_rational_average(self):
        est = intensity_estimate(lambda s: sample_uniform(3, s), UnitGrid(2).full(), 7, 2)
        # every point hits the full set: estimate is exactly 1 + 1/4 + 1/9
        assert est == Fraction(49, 36)

    @pytest.mark.parametrize("seed", [31, 32])
    @pytest.mark.parametrize("region", [BinSet(UnitGrid(4), frozenset({0, 1})), CANTOR], ids=["bins", "cantor"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda s: sample_uniform(40, s),
            lambda s: counterexample_mix(12, CANTOR, s),
            lambda s: walk_minima(gaussian_walk(64, s)),
        ],
        ids=["sample", "mix", "minima"],
    )
    def test_matches_per_hit_sum(self, make, region, seed):
        # The per-hit Fraction sum the integer counts replaced; walk minima
        # give replicas of differing lengths.
        total = Fraction(0)
        for r in range(60):
            enum = make(Seed(seed, r))
            for i in np.flatnonzero(region.contains_points(enum.points)).tolist():
                total += Fraction(1, (i + 1) ** 2)
        estimate = intensity_estimate(make, region, 60, seed)
        assert type(estimate) is Fraction and estimate == total / 60

    @pytest.mark.parametrize("replicas", [0, WORK_BUDGET + 1, 2_000_000_000])
    def test_refused_before_drawing(self, replicas):
        def never(seed):
            raise AssertionError("drew a replica")

        with pytest.raises(BadParameter, match="replicas must be >= 1|exceeds the work budget"):
            intensity_estimate(never, UnitGrid(2).full(), replicas, 1)


class TestRevealingSelectors:
    @pytest.mark.parametrize("seed", [0, 5, 91])
    def test_reconstruction_identity_sure(self, seed):
        fam = revealing_selectors(200, Seed(seed))
        assert np.array_equal(fam.events, fam.chosen.points < 0.25)

    def test_values_are_selector_values(self):
        fam = revealing_selectors(50, Seed(3))
        for k in range(50):
            assert fam.chosen.points[k] in (fam.low.points[k], fam.mid.points[k])

    def test_event_probability_half(self):
        # The driver is uniform on (1/2, 1) and the event threshold sits at
        # 3/4, the midpoint: probability exactly 1/2.
        events = np.concatenate(
            [revealing_selectors(100, Seed(35, r)).events for r in range(100)]
        )
        se = math.sqrt(0.25 / events.size)
        assert abs(events.mean() - 0.5) <= 3 * se

    def test_ranges(self):
        fam = revealing_selectors(40, Seed(4))
        assert ((fam.low.points > 0) & (fam.low.points < 0.25)).all()
        assert ((fam.mid.points > 0.25) & (fam.mid.points < 0.5)).all()
        assert ((fam.high.points > 0.5) & (fam.high.points < 1)).all()


class TestEnumerationType:
    def test_rejects_out_of_interval(self):
        with pytest.raises(BadParameter):
            Enumeration(np.array([0.0, 0.5]), depth=2, provenance="x")

    @pytest.mark.parametrize(
        "points", [[np.nan], [0.5, np.nan], [np.inf], [np.nan, 0.5], [-np.inf, 0.5]], ids=str
    )
    def test_rejects_non_finite(self, points):
        with pytest.raises(BadParameter, match="open"):
            Enumeration(np.array(points), depth=len(points), provenance="x")

    def test_rejects_duplicates(self):
        with pytest.raises(BadParameter):
            Enumeration(np.array([0.5, 0.5]), depth=2, provenance="x")

    @pytest.mark.parametrize(
        "points", [[0.1, 0.5, 0.5, 0.7], [0.7, 0.5, 0.1, 0.5], [0.5, 0.2, 0.5]], ids=str
    )
    def test_rejects_a_duplicate_sorted_or_not(self, points):
        # Strictly increasing input skips the sort; anything else is sorted.
        with pytest.raises(BadParameter, match="pairwise distinct"):
            Enumeration(np.array(points), depth=len(points), provenance="x")

    @pytest.mark.parametrize("points", [[0.1, 0.5, 0.7], [0.7, 0.1, 0.5], [0.5]], ids=str)
    def test_accepts_distinct_sorted_or_not(self, points):
        assert Enumeration(np.array(points), depth=len(points), provenance="x").points.tolist() == points

    def test_empty_is_fine(self):
        assert len(Enumeration(np.empty(0), depth=0, provenance="x")) == 0


def assert_enumeration_invariants(enum):
    """Pairwise distinct points inside (0, 1), one tag per point if tagged."""
    pts = np.asarray(enum.points)
    assert np.unique(pts).size == pts.size
    assert ((0.0 < pts) & (pts < 1.0)).all()
    if enum.tags is not None:
        assert len(enum.tags) == pts.size


seeds = st.builds(Seed, st.integers(0, 2**64 - 1), st.integers(0, 2**40))


class TestEnumerationInvariants:
    @settings(max_examples=60, deadline=None)
    @given(depth=st.integers(1, 300), seed=seeds)
    def test_sample_uniform(self, depth, seed):
        enum = sample_uniform(depth, seed)
        assert len(enum) == depth
        assert_enumeration_invariants(enum)

    @settings(max_examples=60, deadline=None)
    @given(steps=st.integers(3, 600), seed=seeds)
    def test_brownian_minima(self, steps, seed):
        assert_enumeration_invariants(brownian_minima(steps, seed))

    @settings(max_examples=40, deadline=None)
    @given(
        depth=st.integers(1, 120),
        gap=st.fractions(min_value=Fraction(1, 16), max_value=Fraction(15, 16), max_denominator=16),
        cantor_depth=st.integers(1, 8),
        seed=seeds,
    )
    def test_counterexample_mix(self, depth, gap, cantor_depth, seed):
        enum = counterexample_mix(depth, fat_cantor_build(gap, cantor_depth), seed)
        assert enum.tags is not None
        assert enum.tags.count("sample") == depth
        assert_enumeration_invariants(enum)


def rows_of(points):
    """The points of each NaN-padded row, checking that NaN only pads it."""
    lengths = (~np.isnan(points)).sum(axis=1)
    assert all(np.isnan(row[n:]).all() for row, n in zip(points, lengths))
    return [row[:n] for row, n in zip(points, lengths)]


class TestBatchCounterexample:
    """The batch rows the stochastic batteries draw, against their oracles:
    sample_uniform, poisson_on_cantor, counterexample_mix and brownian_minima
    per replica, for ranges of replicas that need not start at 0."""

    gaps = st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])

    @settings(max_examples=30, deadline=None)
    @given(value=st.integers(0, 2**64 - 1), gap=gaps, cantor_depth=st.integers(1, 10),
           first=st.integers(0, 100), replicas=st.integers(1, 60))
    def test_poisson_rows_match(self, value, gap, cantor_depth, first, replicas):
        cantor = fat_cantor_build(gap, cantor_depth)
        reps = range(first, first + replicas)
        got = rows_of(_poisson_rows(cantor, Seed(value), reps))
        for r, row in zip(reps, got):
            assert np.array_equal(row, poisson_on_cantor(cantor, Seed(value, r)))

    @settings(max_examples=30, deadline=None)
    @given(value=st.integers(0, 2**64 - 1), gap=gaps, cantor_depth=st.integers(1, 10),
           depth=st.one_of(st.just(1), st.integers(1, 300)), first=st.integers(0, 100),
           replicas=st.integers(1, 60))
    def test_rows_match(self, value, gap, cantor_depth, depth, first, replicas):
        cantor = fat_cantor_build(gap, cantor_depth)
        reps = range(first, first + replicas)
        samples = _sample_rows(depth, Seed(value), reps)
        mixes = rows_of(_counterexample_rows(depth, cantor, Seed(value), reps))
        for k, r in enumerate(reps):
            assert np.array_equal(samples[k], sample_uniform(depth, Seed(value, r)).points)
            assert np.array_equal(mixes[k], counterexample_mix(depth, cantor, Seed(value, r)).points)

    @settings(max_examples=10, deadline=None)
    @given(value=st.integers(0, 2**64 - 1), steps=st.integers(3, 200),
           first=st.integers(0, 100), replicas=st.integers(0, 20))
    def test_minima_rows_match(self, value, steps, first, replicas):
        reps = range(first, first + replicas)
        got = rows_of(_minima_rows(steps, Seed(value), reps))
        assert len(got) == replicas
        for r, row in zip(reps, got):
            assert np.array_equal(row, brownian_minima(steps, Seed(value, r)).points)

    @pytest.mark.parametrize("steps", [2, 0, -4])
    @pytest.mark.parametrize("replicas", [0, 5])
    def test_minima_rows_refuse_like_brownian_minima(self, monkeypatch, steps, replicas):
        with pytest.raises(BadParameter) as want:
            brownian_minima(steps, Seed(1))

        monkeypatch.setattr(generators, "brownian_minima", no_draw)
        with pytest.raises(BadParameter) as got:
            _minima_rows(steps, Seed(1), range(replicas))
        assert str(got.value) == str(want.value) == f"need steps >= 3 for interior minima, got {steps}"

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        engine = getattr(generators, name)

        def counting(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(generators, name, counting)
        return calls

    @pytest.mark.parametrize("width", [1, 3])
    def test_poisson_rows_that_run_out_are_redrawn(self, monkeypatch, width):
        # A count c needs 2c + 1 doubles; rows needing more take the per-replica path.
        monkeypatch.setattr(generators, "_POISSON_WIDTH", width)
        calls = self.counted(monkeypatch, "poisson_on_cantor")
        got = rows_of(_poisson_rows(CANTOR, Seed(31), range(100, 300)))
        assert 0 < len(calls) < 200
        for r, row in zip(range(100, 300), got):
            assert np.array_equal(row, poisson_on_cantor(CANTOR, Seed(31, r)))

    @pytest.mark.parametrize("slack", [0, 1])
    def test_rows_short_of_picks_are_redrawn(self, monkeypatch, slack):
        # At 100 rows a pass draws 8 columns.  Slack 0 reads one pass, so every
        # row runs short; slack 1 leaves some short.
        monkeypatch.setattr(generators, "_LEAP_ENTRIES", 800)
        monkeypatch.setattr(generators, "_PICK_SLACK", slack)
        monkeypatch.setattr(generators, "_POISSON_WIDTH", 3)
        calls = self.counted(monkeypatch, "counterexample_mix")
        got = rows_of(_counterexample_rows(20, CANTOR, Seed(32), range(50, 150)))
        assert 0 < len(calls) <= 100 and (len(calls) == 100) == (slack == 0)
        for r, row in zip(range(50, 150), got):
            assert np.array_equal(row, counterexample_mix(20, CANTOR, Seed(32, r)).points)

    def test_repeated_pick_row_is_redrawn(self, monkeypatch):
        passes = generators._pcg64_passes
        picks = _seed_state(33, range(7, 13), (0, generators._MIX_SAMPLE))

        def forged(state, k):
            drawn = passes(state, k)
            if np.array_equal(state, picks):
                first = next(drawn)
                first[:2, 2] = 0.5  # the centre of CANTOR's widest gap, picked twice
                yield first
            yield from drawn

        monkeypatch.setattr(generators, "_pcg64_passes", forged)
        calls = self.counted(monkeypatch, "counterexample_mix")
        got = rows_of(_counterexample_rows(10, CANTOR, Seed(33), range(7, 13)))
        assert [args[2] for args in calls] == [Seed(33, 9)]
        for r, row in zip(range(7, 13), got):
            assert np.array_equal(row, counterexample_mix(10, CANTOR, Seed(33, r)).points)
