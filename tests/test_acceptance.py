"""Acceptance battery: twelve criteria, each printing one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All statistical criteria use seeds frozen here once; every exact
criterion is checked in rational arithmetic.

Criterion 6 is asserted twice: once as stated (mean local-minima count of a
Gaussian walk within 2% of (K-2)/3), which is mathematically unattainable and
therefore marked strict-xfail, and once against the computed law.  For a walk
with independent continuous increments, time k is a strict 3-point local
minimum iff increment k is negative and increment k+1 positive: probability
exactly 1/4, so the true mean is (K-1)/4 = 2499.75 at K = 10^4, far outside
the 2% band around (K-2)/3 = 3332.67.  The 1/3 frequency would hold for
independent *values*, not for a walk.  The companion test pins the simulator
to the 1/4 law at the same 2% tolerance.
"""

import math
import time
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest

from dcset import (
    BinSet,
    FactorizationFailure,
    MarginalCaps,
    Seed,
    SelectorTable,
    SupportMask,
    UnitGrid,
    brownian_minima,
    chi_square_independence,
    conditional_uniform_selector,
    counterexample_rows,
    distinguish_counterexample,
    event_reconstruction_check,
    fat_cantor_build,
    frequency_profile,
    full_coupling,
    interleave_containment,
    interleaved_enumeration,
    ks_uniform,
    monotone_chain_check,
    periodic_limsup_mask,
    product_limsup_witness,
    revealing_selectors,
    sample_ensemble,
    sample_rows,
    shift_hit_curve,
    solve,
    stationarity_test,
    uniform_selector,
    verify_selector,
)

SEED_RANDOM_MASKS = 16161616
SEED_CHAINS = 88888
SEED_PROFILES = 50505
SEED_MINIMA = 606060
SEED_DISTINGUISH = 707070
SEED_SELECTOR_ENSEMBLE = 42
SEED_SELECTOR_DRAW = 43
SEED_CONDITIONAL_DRAW = 44
SEED_INTERLEAVE_ENSEMBLE = 20260801
SEED_INTERLEAVE_DRAW = 30260801
SEED_STATIONARITY = 1111
SEED_SHIFT_HIT = 121212
SEED_RECONSTRUCTION = 131313

GRID8 = UnitGrid(8)
CANTOR_HALF = fat_cantor_build(Fraction(1, 2), 10)  # measure 1/2 + 2^-11


def announce(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {text}")


def random_rational_caps(rng, n, m):
    rw = rng.integers(1, 30, n)
    cw = rng.integers(1, 30, m)
    return MarginalCaps(
        tuple(Fraction(int(x), int(rw.sum())) for x in rw),
        tuple(Fraction(int(x), int(cw.sum())) for x in cw),
    )


def assert_witnesses(mask, caps):
    cert = solve(mask, caps)
    value, coupling = cert.value, cert.coupling()
    cost, cover = cert.cover_cost, cert.cover
    assert coupling.is_feasible(caps, mask)
    assert coupling.total_mass() == value
    assert cover.covers(mask)
    assert cover.cost(caps) == cost
    assert value == cost


def test_criterion_01_strong_duality_sweep_and_random():
    """Exact gap 0 on every mask up to 4x4 (timed) and on 1000 random 16x16."""
    start = time.perf_counter()
    swept = 0
    for n in range(1, 5):
        for m in range(1, 5):
            caps = MarginalCaps.uniform(n, m)
            for bits in range(1 << (n * m)):
                assert solve(SupportMask.from_bits(n, m, bits), caps).gap == 0
                swept += 1
    elapsed = time.perf_counter() - start
    assert swept == sum(1 << (n * m) for n in range(1, 5) for m in range(1, 5))
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"

    rng = np.random.default_rng(SEED_RANDOM_MASKS)
    for _ in range(1000):
        mask = SupportMask(rng.random((16, 16)) < rng.uniform(0.2, 0.8))
        caps = random_rational_caps(rng, 16, 16)
        assert solve(mask, caps).gap == 0
    announce(1, True, f"gap 0 on {swept} swept masks ({elapsed:.1f}s) and 1000 random 16x16")


def test_criterion_02_witness_validity():
    """Coupling and cover witnesses verified in exact rational arithmetic.

    solve already certifies both witnesses exactly every time it runs
    (integer arithmetic after clearing denominators), so criterion 1 covers
    every swept instance; here the public Fraction-level witness API is
    checked exhaustively on all grids up to 3x4 and 4x3, on a deterministic
    1/16 stride of the 4x4 family, and on the full random 16x16 family.
    """
    checked = 0
    for n in range(1, 5):
        for m in range(1, 5):
            if n * m > 12:
                continue
            caps = MarginalCaps.uniform(n, m)
            for bits in range(1 << (n * m)):
                assert_witnesses(SupportMask.from_bits(n, m, bits), caps)
                checked += 1
    caps44 = MarginalCaps.uniform(4, 4)
    for bits in range(0, 1 << 16, 16):
        assert_witnesses(SupportMask.from_bits(4, 4, bits), caps44)
        checked += 1
    rng = np.random.default_rng(SEED_RANDOM_MASKS)
    for _ in range(1000):
        mask = SupportMask(rng.random((16, 16)) < rng.uniform(0.2, 0.8))
        caps = random_rational_caps(rng, 16, 16)
        assert_witnesses(mask, caps)
        checked += 1
    announce(2, True, f"witnesses exact on {checked} instances (rational checks)")


def test_criterion_03_monotone_chains():
    """100 random nested chains of length 8 on 8x8 grids."""
    rng = np.random.default_rng(SEED_CHAINS)
    caps = MarginalCaps.uniform(8, 8)
    for _ in range(100):
        cells = rng.random((8, 8)) < 0.08
        chain = [SupportMask(cells.copy())]
        for _ in range(7):
            cells = cells | (rng.random((8, 8)) < 0.08)
            chain.append(SupportMask(cells.copy()))
        report = monotone_chain_check(chain, caps)
        assert report.nondecreasing
        final = solve(chain[-1], caps)
        assert report.coupling_values[-1] == final.value
        assert report.cover_values[-1] == final.cover_cost
    announce(3, True, "100 nested chains of length 8: values nondecreasing, ends attained")


def test_criterion_04_full_coupling_on_feasible_masks():
    """Every 4x4 mask with cover value 1 yields an exactly tight coupling."""
    caps = MarginalCaps.uniform(4, 4)
    feasible = 0
    for bits in range(1 << 16):
        mask = SupportMask.from_bits(4, 4, bits)
        if solve(mask, caps).cover_cost != 1:
            continue
        feasible += 1
        coupling = full_coupling(mask, caps)
        assert coupling.row_sums() == caps.row_caps
        assert coupling.col_sums() == caps.col_caps
        assert coupling.supported_on(mask)
    assert feasible > 0
    announce(4, True, f"full coupling exact on all {feasible} feasible 4x4 masks")


def test_criterion_05_product_limsup_witnesses():
    """50 factorizing periodic pairs give valid witnesses; a coupled pair fails."""
    rng = np.random.default_rng(SEED_PROFILES)
    period_pairs = [(2, 3), (3, 4), (4, 5), (2, 5), (5, 6)]
    for trial in range(50):
        pa, pb = period_pairs[trial % len(period_pairs)]
        grid = UnitGrid(6)
        a_seq = [
            BinSet(grid, frozenset(k for k in range(6) if rng.random() < 0.5))
            for _ in range(pa)
        ]
        b_seq = [
            BinSet(grid, frozenset(k for k in range(6) if rng.random() < 0.5))
            for _ in range(pb)
        ]
        profile = frequency_profile(a_seq, b_seq, pa * pb)
        assert profile.residual() == 0
        mask = periodic_limsup_mask(a_seq, b_seq)
        a_set, b_set = product_limsup_witness(profile, mask, profile.mean_f, profile.mean_g)
        assert a_set.measure >= profile.mean_f
        assert b_set.measure >= profile.mean_g
        assert all(mask.cell(i, j) for i in a_set.members for j in b_set.members)

    grid2 = UnitGrid(2)
    coupled = [BinSet(grid2, frozenset({0})), BinSet(grid2, frozenset({1}))]
    with pytest.raises(FactorizationFailure):
        product_limsup_witness(
            frequency_profile(coupled, coupled, 2), periodic_limsup_mask(coupled, coupled)
        )
    announce(5, True, "50 periodic pairs: witnesses exact; coupled pair raises failure")


@lru_cache(maxsize=1)
def _minima_mean(steps: int = 10**4, replicas: int = 200) -> float:
    counts = [len(brownian_minima(steps, Seed(SEED_MINIMA, r))) for r in range(replicas)]
    return float(np.mean(counts))


@pytest.mark.xfail(
    strict=True,
    reason="unattainable target: strict 3-point minima of a random walk occur "
    "with probability 1/4 per interior time, not 1/3; the mean is (K-1)/4, "
    "which cannot sit within 2% of (K-2)/3 (see the module docstring)",
)
def test_criterion_06_minima_mean_as_stated():
    """Mean minima count within 2% of (K-2)/3 at K=10^4, 200 replicas."""
    steps = 10**4
    mean = _minima_mean()
    target = (steps - 2) / 3
    ok = abs(mean - target) <= 0.02 * target
    announce(6, ok, f"minima mean {mean:.1f} vs stated (K-2)/3 = {target:.1f} (2% band)")
    assert ok


def test_criterion_06_minima_mean_computed_law():
    """Companion: the same run sits within 2% of the walk law (K-1)/4."""
    steps = 10**4
    mean = _minima_mean()
    target = (steps - 1) / 4
    ok = abs(mean - target) <= 0.02 * target
    announce(6, ok, f"companion: minima mean {mean:.1f} vs walk law (K-1)/4 = {target:.2f}")
    assert ok


def test_criterion_07_distinguisher():
    """Sample vs mixed set separated at level 1e-6 with the stated means."""
    report = distinguish_counterexample(
        CANTOR_HALF, depth=200, replicas=500, seed=SEED_DISTINGUISH, level=1e-6
    )
    mean_s = report.details["mean_sample"]
    mean_x = report.details["mean_counterexample"]
    assert report.rejected
    assert 90 <= mean_s <= 110
    assert 0.3 <= mean_x <= 0.7
    assert mean_s / mean_x > 200 / 4  # separation grows linearly in depth
    announce(7, True, f"rejected at 1e-6; means {mean_s:.1f} vs {mean_x:.2f}")


def test_criterion_08_uniform_selector():
    """KS uniformity at 0.01 and exact membership, n=8, D=64, R=5000."""
    ensemble = sample_ensemble(64, 5000, GRID8, SEED_SELECTOR_ENSEMBLE)
    table = uniform_selector(ensemble, Seed(SEED_SELECTOR_DRAW))
    assert verify_selector(ensemble, table)
    report = ks_uniform(table.values, level=0.01, seed=SEED_SELECTOR_DRAW)
    assert report.passed
    frequencies = np.bincount(GRID8.bins(table.values), minlength=8) / 5000
    assert np.abs(frequencies - 1 / 8).max() <= 4 * math.sqrt(1 / (8 * 5000))
    announce(8, True, f"KS {report.statistic:.4f} < {report.threshold:.4f}; membership exact")


def test_criterion_09_conditional_selector():
    """Chi-square independence on an 8x8 table plus marginal uniformity."""
    ensemble = sample_ensemble(64, 5000, GRID8, SEED_SELECTOR_ENSEMBLE)
    first = ensemble.points[:, 0]
    prior = SelectorTable(first, np.zeros(5000, dtype=np.int64))
    table = conditional_uniform_selector(
        ensemble, [prior], UnitGrid(2), Seed(SEED_CONDITIONAL_DRAW), component=1
    )
    assert verify_selector(ensemble, table)
    chi = chi_square_independence(
        GRID8.bins(prior.values), GRID8.bins(table.values), 8, 8, 0.01
    )
    marginal = ks_uniform(table.values, level=0.01)
    assert chi.passed and marginal.passed
    announce(9, True, f"chi2 {chi.statistic:.1f} < {chi.threshold:.1f}; marginal KS passes")


def test_criterion_10_interleaved_enumeration():
    """100 rounds, 1000 replicas: containment sure; even tables pass 8 and 9."""
    ensemble = sample_ensemble(256, 1000, GRID8, SEED_INTERLEAVE_ENSEMBLE)
    tables = interleaved_enumeration(
        ensemble, 100, UnitGrid(2), Seed(SEED_INTERLEAVE_DRAW)
    )
    contained = interleave_containment(ensemble, tables)
    assert contained.shape == (1000, 101)
    assert contained.all(), "containment must hold for every replica and round"
    for table in tables:
        assert verify_selector(ensemble, table)
    first_bins = GRID8.bins(tables[0].values)
    for j in range(1, 101):
        even = tables[2 * j - 1]
        assert ks_uniform(even.values, level=0.01).passed, f"KS failed at table {2 * j}"
        chi = chi_square_independence(first_bins, GRID8.bins(even.values), 8, 8, 0.01)
        assert chi.passed, f"independence failed at table {2 * j}"
    announce(10, True, "containment sure over 100 rounds x 1000 replicas; 200 even-step tests pass")


def test_criterion_11_stationarity_both_directions():
    """Sample passes the shift test at 0.01; the mixed set is rejected."""
    half = BinSet(UnitGrid(2), frozenset({0}))
    passing = stationarity_test(partial(sample_rows, 200), half, 400, SEED_STATIONARITY)
    failing = stationarity_test(
        partial(counterexample_rows, 200, CANTOR_HALF), CANTOR_HALF, 400, SEED_STATIONARITY
    )
    assert passing.passed
    assert not failing.passed
    announce(11, True, "sample stationary at 0.01; counterexample rejected at 0.01")


def test_criterion_12_shift_hit_and_reconstruction():
    """Shift-hit means near D/2 and growing; event reconstruction rate 1.0."""
    region = BinSet(GRID8, frozenset({0, 2, 4, 6}))  # measure exactly 1/2
    curve = shift_hit_curve(region, [64, 256, 1024], 200, SEED_SHIFT_HIT)
    for mean, expected in zip(curve.means, curve.expected):
        assert abs(mean - expected) <= 0.1 * expected
    assert curve.means[0] < curve.means[1] < curve.means[2]
    assert curve.medians_nondecreasing

    families = [
        revealing_selectors(100, Seed(SEED_RECONSTRUCTION, r)) for r in range(1000)
    ]
    report = event_reconstruction_check(families)
    assert report.details["reconstruction_rate"] == 1.0
    assert report.passed
    announce(12, True, f"means {curve.means} ~ D/2; reconstruction rate exactly 1.0")
