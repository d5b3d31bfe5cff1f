"""Selector machinery: masks, coupling draws, uniformity, interleaving."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcset import (
    BadParameter,
    Coupling,
    DeficientSupport,
    DepthExhausted,
    Ensemble,
    Enumeration,
    InsufficientDensity,
    MarginalCaps,
    Seed,
    SelectorTable,
    UnitGrid,
    UnsupportedCoupling,
    build_support_mask,
    chi_square_independence,
    conditional_uniform_selector,
    full_coupling,
    interleave_containment,
    interleaved_enumeration,
    ks_uniform,
    sample_ensemble,
    sample_uniform,
    selector_from_coupling,
    uniform_selector,
    verify_selector,
)
from dcset import SupportMask, generators
from dcset.errors import WORK_BUDGET
from dcset.selector import _choose_bins, _draw, _units

GRID8 = UnitGrid(8)


def replica_rows(ens):
    """Replica r's points, `ens.points[r, :ens.lengths[r]]`, for every r."""
    return [ens.points[r, :n] for r, n in enumerate(ens.lengths.tolist())]


def single_replica_ensemble(points, grid):
    enum = Enumeration(np.array(points), depth=len(points), provenance="fixed")
    return Ensemble((enum,), grid)


class TestSupportMask:
    def test_two_point_replica(self):
        ens = single_replica_ensemble([0.1, 0.6], UnitGrid(2))
        assert build_support_mask(ens).cells.tolist() == [[True, True]]

    def test_empty_replica_row_all_false(self):
        empty = Enumeration(np.empty(0), depth=0, provenance="fixed")
        ens = Ensemble((empty,), UnitGrid(4))
        assert not build_support_mask(ens).cells.any()

    def test_expected_fill_fraction(self):
        # P(replica hits a given bin) = 1 - (1 - 1/n)^D; Monte Carlo check.
        n, depth, replicas = 8, 12, 2000
        ens = sample_ensemble(depth, replicas, UnitGrid(n), 50)
        fill = build_support_mask(ens).count() / (replicas * n)
        expected = 1 - (1 - 1 / n) ** depth
        se = math.sqrt(expected * (1 - expected) / (replicas * n))
        assert abs(fill - expected) <= 4 * se


class TestSampleEnsemble:
    def test_rows_equal_sample_uniform(self):
        ens = sample_ensemble(16, 40, GRID8, 91)
        for r, pts in enumerate(replica_rows(ens)):
            assert np.array_equal(pts, sample_uniform(16, Seed(91, r)).points)

    def test_rejected_rows_rebuilt_by_sample_uniform(self, monkeypatch):
        engine = generators._pcg64_block
        drawn = {}

        def flawed(state, size):
            out = engine(state, size)
            drawn["rows"] = out.copy()
            out[2, 3] = out[2, 1]  # a repeated point
            out[5, 0] = 0.0  # an open-interval endpoint
            return out

        monkeypatch.setattr(generators, "_pcg64_block", flawed)
        ens = sample_ensemble(6, 8, GRID8, 93)
        for r, pts in enumerate(replica_rows(ens)):
            assert np.array_equal(pts, sample_uniform(6, Seed(93, r)).points)
            if r not in (2, 5):
                assert np.array_equal(pts, drawn["rows"][r])

    def test_bad_sizes_rejected(self, monkeypatch):
        def never(*args):
            raise AssertionError("drew rows")

        with pytest.raises(BadParameter, match="depth must be >= 1, got 0"):
            sample_ensemble(0, 5, GRID8, 1)
        # No replica is refused before any row is drawn.
        monkeypatch.setattr("dcset.selector._sample_rows", never)
        with pytest.raises(BadParameter, match="ensemble needs at least one replica, got 0"):
            sample_ensemble(4, 0, GRID8, 1)

    def test_work_budget(self):
        # Each is refused before anything is allocated.
        calls = [
            lambda: sample_ensemble(64, WORK_BUDGET // 8 + 1, GRID8, 1),
            lambda: sample_ensemble(64, 2_000_000_000, GRID8, 1),
            lambda: sample_ensemble(4, 2, UnitGrid(WORK_BUDGET), 1),
            lambda: sample_ensemble(WORK_BUDGET, 2, GRID8, 1),
        ]
        for call in calls:
            with pytest.raises(BadParameter, match="exceeds the work budget"):
                call()


class TestSelectorFromCoupling:
    def test_concentrated_coupling_is_deterministic(self):
        ens = single_replica_ensemble([0.1, 0.6], UnitGrid(2))
        coupling = Coupling([[Fraction(1), Fraction(0)]])
        table = selector_from_coupling(ens, coupling, Seed(1))
        assert table.values[0] == 0.1 and table.memberships[0] == 0
        assert verify_selector(ens, table)

    def test_lowest_index_tie_break(self):
        # Two points in bin 0: index order decides, not value order.
        ens = single_replica_ensemble([0.4, 0.1], UnitGrid(2))
        coupling = Coupling([[Fraction(1), Fraction(0)]])
        table = selector_from_coupling(ens, coupling, Seed(1))
        assert table.values[0] == 0.4 and table.memberships[0] == 0

    def test_unsupported_coupling_rejected(self):
        ens = single_replica_ensemble([0.1], UnitGrid(2))
        with pytest.raises(UnsupportedCoupling):
            selector_from_coupling(ens, Coupling([[Fraction(0), Fraction(1)]]), Seed(1))

    def test_zero_row_rejected(self):
        ens = Ensemble(
            (
                Enumeration(np.array([0.3]), depth=1, provenance="fixed"),
                Enumeration(np.array([0.7]), depth=1, provenance="fixed"),
            ),
            UnitGrid(2),
        )
        coupling = Coupling([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(0)]])
        with pytest.raises(UnsupportedCoupling):
            selector_from_coupling(ens, coupling, Seed(1))

    @pytest.mark.parametrize("seed", range(5))
    def test_negative_entry_rejected(self, seed):
        # A negative bin makes the row's cdf non-monotone; it used to be drawn.
        ens = single_replica_ensemble([0.1, 0.5, 0.9], UnitGrid(3))
        with pytest.raises(UnsupportedCoupling, match="replica 0 negative mass in bin 1"):
            selector_from_coupling(ens, Coupling([[1, -1, 1]]), Seed(seed))

    def test_first_bad_row_named(self):
        # Row 0 is negative, row 1 has zero mass: the first in order is named.
        ens = Ensemble(
            (
                Enumeration(np.array([0.3, 0.7]), depth=2, provenance="fixed"),
                Enumeration(np.array([0.7]), depth=1, provenance="fixed"),
            ),
            UnitGrid(2),
        )
        with pytest.raises(UnsupportedCoupling, match="replica 0 negative mass in bin 0"):
            selector_from_coupling(ens, Coupling([[-1, 2], [0, 0]]), Seed(1))
        with pytest.raises(UnsupportedCoupling, match="replica 0 zero mass"):
            selector_from_coupling(ens, Coupling([[0, 0], [1, -1]]), Seed(1))

    def test_empirical_matches_column_marginal(self):
        # Selector bin frequencies track the coupling's column marginal.
        ens = sample_ensemble(32, 2000, GRID8, 51)
        coupling = full_coupling(build_support_mask(ens), MarginalCaps.uniform(2000, 8))
        table = selector_from_coupling(ens, coupling, Seed(52))
        freq = np.bincount(GRID8.bins(table.values), minlength=8) / 2000
        cols = np.array([float(c) for c in coupling.col_sums()])
        assert np.abs(freq - cols).max() < 0.05

    def test_product_coupling_row_distribution_exactly_uniform(self):
        # Composition identity: on the full mask the product coupling gives
        # every replica the exactly uniform bin distribution.
        replicas = 10
        mass = [[Fraction(1, replicas * 8)] * 8 for _ in range(replicas)]
        coupling = Coupling(mass)
        row = coupling.mass[0]
        total = sum(row, Fraction(0))
        assert all(x / total == Fraction(1, 8) for x in row)
        ens = sample_ensemble(64, replicas, GRID8, 53)
        table = selector_from_coupling(ens, coupling, Seed(54))
        assert verify_selector(ens, table)


class TestUniformSelector:
    def test_ks_passes_and_membership_exact(self):
        ens = sample_ensemble(64, 1500, GRID8, 55)
        table = uniform_selector(ens, Seed(56))
        assert verify_selector(ens, table)
        assert ks_uniform(table.values, 0.01).passed

    def test_obstruction_names_thin_bins(self):
        high = 0.25 + 0.75 * sample_ensemble(12, 40, UnitGrid(4), 57).points
        ens = Ensemble([Enumeration(row, depth=12, provenance="avoid-low") for row in high], UnitGrid(4))
        with pytest.raises(InsufficientDensity) as err:
            uniform_selector(ens, Seed(58))
        assert 0 in err.value.thin_bins
        assert err.value.cost < 1

    def test_single_bin_grid(self):
        ens = sample_ensemble(4, 30, UnitGrid(1), 59)
        table = uniform_selector(ens, Seed(60))
        assert verify_selector(ens, table)


class TestConditionalSelector:
    def test_no_priors_identical_to_uniform(self):
        ens = sample_ensemble(32, 200, GRID8, 61)
        a = conditional_uniform_selector(ens, [], UnitGrid(2), Seed(62), component=3)
        b = uniform_selector(ens, Seed(62), component=3)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.memberships, b.memberships)

    def test_independence_and_marginal(self):
        ens = sample_ensemble(64, 3000, GRID8, 63)
        first = SelectorTable(
            ens.points[:, 0],
            np.zeros(3000, dtype=np.int64),
        )
        z = conditional_uniform_selector(ens, [first], UnitGrid(2), Seed(64), component=1)
        assert verify_selector(ens, z)
        chi = chi_square_independence(
            GRID8.bins(first.values), GRID8.bins(z.values), 8, 8, 0.01
        )
        assert chi.passed
        assert ks_uniform(z.values, 0.01).passed

    def test_empty_replica_fails_its_cell(self):
        replicas = [sample_uniform(16, Seed(65, r)) for r in range(20)]
        replicas.append(Enumeration(np.empty(0), depth=0, provenance="fixed"))
        ens = Ensemble(tuple(replicas), UnitGrid(4))
        prior = SelectorTable(np.full(21, 0.3), np.zeros(21, dtype=np.int64))
        with pytest.raises(InsufficientDensity) as err:
            conditional_uniform_selector(ens, [prior], UnitGrid(2), Seed(66))
        assert err.value.cell is not None

    def test_first_failing_cell_in_tuple_order_is_named(self):
        # Cells (0, 1) and (1, 0) each hold an empty replica; (0, 1) comes
        # first in the order of the coarse-bin tuples.
        replicas = [sample_uniform(16, Seed(65, r)) for r in range(20)]
        replicas += [Enumeration(np.empty(0), depth=0, provenance="fixed")] * 2
        ens = Ensemble(replicas, UnitGrid(4))
        first = np.array([0.3] * 10 + [0.7] * 10 + [0.3, 0.7])
        second = np.array([0.2] * 20 + [0.8, 0.2])
        priors = [SelectorTable(v, np.zeros(22, dtype=np.int64)) for v in (first, second)]
        with pytest.raises(InsufficientDensity, match=r"cell \(0, 1\):") as err:
            conditional_uniform_selector(ens, priors, UnitGrid(2), Seed(66))
        assert err.value.cell == (0, 1)

    def test_prior_size_mismatch(self):
        ens = sample_ensemble(8, 10, GRID8, 67)
        bad = SelectorTable(np.full(9, 0.5), np.zeros(9, dtype=np.int64))
        with pytest.raises(BadParameter):
            conditional_uniform_selector(ens, [bad], UnitGrid(2), Seed(68))


class TestInterleavedEnumeration:
    def test_zero_rounds_is_first_point(self):
        ens = sample_ensemble(8, 50, GRID8, 70)
        tables = interleaved_enumeration(ens, 0, UnitGrid(2), Seed(71))
        assert len(tables) == 1
        assert np.array_equal(tables[0].values, ens.points[:, 0])

    def test_containment_sure(self):
        ens = sample_ensemble(64, 300, GRID8, 72)
        tables = interleaved_enumeration(ens, 8, UnitGrid(2), Seed(73))
        assert interleave_containment(ens, tables).all()

    def test_skip_rule(self):
        # Whenever the fresh table reused the second base point, the next odd
        # table must hold the third.
        ens = sample_ensemble(64, 400, GRID8, 74)
        tables = interleaved_enumeration(ens, 1, UnitGrid(2), Seed(75))
        y2, y3 = tables[1], tables[2]
        hit = 0
        for r, pts in enumerate(replica_rows(ens)):
            if y2.values[r] == pts[1]:
                hit += 1
                assert y3.values[r] == pts[2]
            else:
                assert y3.values[r] == pts[1]
        assert hit > 0  # the interesting branch actually occurred

    def test_odd_values_distinct_within_replica(self):
        # Depth far above grid*log(grid): every row covers every bin, so the
        # shrinking conditioning cells stay feasible through all rounds.
        ens = sample_ensemble(256, 100, GRID8, 76)
        tables = interleaved_enumeration(ens, 6, UnitGrid(2), Seed(77))
        for r in range(100):
            odd_values = [tables[2 * j].values[r] for j in range(7)]
            assert len(set(odd_values)) == len(odd_values)
            seen = {t.values[r] for t in tables}
            for j in range(1, 7):
                assert tables[2 * j].values[r] in seen

    def test_even_tables_are_selectors(self):
        ens = sample_ensemble(64, 200, GRID8, 78)
        tables = interleaved_enumeration(ens, 3, UnitGrid(2), Seed(79))
        for table in tables:
            assert verify_selector(ens, table)

    def test_depth_exhausted(self):
        # Single-bin grid keeps every even step feasible; three points per
        # replica run out after two rounds of odd steps.
        ens = sample_ensemble(3, 30, UnitGrid(1), 80)
        with pytest.raises(DepthExhausted):
            interleaved_enumeration(ens, 5, UnitGrid(1), Seed(81))

    def test_work_budget(self):
        # Refused before any table is drawn.
        ens = sample_ensemble(8, 50, GRID8, 70)
        for rounds in (WORK_BUDGET // 50 + 1, 2_000_000_000):
            with pytest.raises(BadParameter, match="exceeds the work budget"):
                interleaved_enumeration(ens, rounds, UnitGrid(2), Seed(71))


class TestVerifySelector:
    def test_detects_foreign_value(self):
        ens = sample_ensemble(64, 50, GRID8, 82)
        table = uniform_selector(ens, Seed(83))
        forged = SelectorTable(table.values + 1e-9, table.memberships)
        assert not verify_selector(ens, forged)


# Per-replica references: the loops that the array paths over Ensemble.points
# replaced, kept as oracles.


def reference_first_index(ens):
    first = np.full((ens.size, ens.grid.n), -1)
    for r, pts in enumerate(replica_rows(ens)):
        for i, j in reversed(list(enumerate(ens.grid.bins(pts)))):
            first[r, j] = i
    return first


def reference_verify(ens, table):
    if len(table) != ens.size:
        return False
    for pts, value, idx in zip(replica_rows(ens), table.values, table.memberships):
        if idx < 0 or idx >= len(pts) or pts[idx] != value:
            return False
    return True


def reference_units(sub, cell):
    """A cell's unit rows by way of the public `full_coupling`."""
    try:
        return _units(full_coupling(sub).units)
    except DeficientSupport as exc:
        raise InsufficientDensity(exc.witness, exc.cost, sub.cols, cell=cell) from exc


def reference_interleaving(ens, rounds, coarse, seed):
    """Per-replica sets of used values and mixed-radix Python-int cell keys."""
    replicas = replica_rows(ens)
    for r, pts in enumerate(replicas):
        if len(pts) < 1:
            raise DepthExhausted(r)
    mask = build_support_mask(ens)
    R = ens.size

    def conditional(keys, component):
        cells = {}
        for r, key in enumerate(keys):
            cells.setdefault(key, []).append(r)
        rows, blocks = [], []
        for key in sorted(cells):
            members = cells[key]
            sub = SupportMask(mask.cells[members])
            rows.extend(members)
            blocks.append(reference_units(sub, key))
        return _draw(ens, np.array(rows), np.concatenate(blocks), seed, component)

    first = SelectorTable(
        np.array([pts[0] for pts in replicas]), np.zeros(R, dtype=np.int64)
    )
    tables = [first]
    used = [{float(pts[0])} for pts in replicas]
    scan = [1] * R
    keys = [0] * R

    def absorb(table):
        bins = coarse.bins(table.values)
        for r in range(R):
            keys[r] = keys[r] * coarse.n + int(bins[r])
            used[r].add(float(table.values[r]))

    absorb(first)
    for round_no in range(1, rounds + 1):
        even = conditional(keys, round_no)
        tables.append(even)
        absorb(even)
        odd_values = np.empty(R)
        odd_idx = np.empty(R, dtype=np.int64)
        for r, pts in enumerate(replicas):
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


def reference_containment(ens, tables):
    rounds = (len(tables) - 1) // 2
    out = np.zeros((ens.size, rounds + 1), dtype=bool)
    for r, pts in enumerate(replica_rows(ens)):
        seen = set()
        for j in range(rounds + 1):
            for t in range(max(0, 2 * j - 1), 2 * j + 1):
                if t < len(tables):
                    seen.add(float(tables[t].values[r]))
            needed = pts[: j + 1]
            out[r, j] = len(needed) == j + 1 and all(float(p) in seen for p in needed)
    return out


def reference_bins(units, k):
    """The inverse-CDF draw one row at a time in Fractions: the first bin
    whose cumulative share of the row's total exceeds the variate k / 2**53."""
    chosen = []
    for row, x in zip(units, k):
        row = [int(v) for v in row]
        u = Fraction(int(x), 2**53)
        chosen.append(next(j for j in range(len(row)) if u < Fraction(sum(row[: j + 1]), sum(row))))
    return np.array(chosen)


def boundary_variates(row):
    """Each bin's first variate k past its CDF boundary, k - 1, 0 and 2**53 - 1."""
    row = [int(v) for v in row]
    ks = {0, 2**53 - 1}
    for j in range(len(row)):
        k = -(-(2**53) * sum(row[: j + 1]) // sum(row))  # least k with k / 2**53 >= cdf
        ks.update(x for x in (k - 1, k) if 0 <= x < 2**53)
    return sorted(ks)


@st.composite
def small_ensembles(draw):
    n = draw(st.integers(1, 6))
    replicas = draw(st.integers(1, 12))
    depth = draw(st.integers(1, 12))
    return sample_ensemble(depth, replicas, UnitGrid(n), draw(st.integers(0, 2**32)))


def check_table(ens, coupling, table):
    """Sound selector, every drawn bin charged, lowest index in its bin."""
    assert verify_selector(ens, table)
    for r, (value, idx) in enumerate(zip(table.values, table.memberships)):
        j = int(ens.grid.bins(value))
        assert coupling.units[r][j] > 0
        assert idx == np.flatnonzero(ens.grid.bins(ens.points[r, : ens.lengths[r]]) == j)[0]


class TestSelectorProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_ensembles(), st.integers(0, 2**32), st.data())
    def test_tables_verify_and_draw_charged_cells(self, ens, seed, data):
        n = ens.grid.n
        first = reference_first_index(ens)
        assert np.array_equal(ens.first_index, first)
        mask = build_support_mask(ens)
        assert np.array_equal(mask.cells, first >= 0)

        # A random coupling on the mask, over a scale that may pass 2**53.
        units = []
        for row in mask.cells:
            picks = data.draw(
                st.lists(st.integers(0, 2**60), min_size=n, max_size=n).filter(
                    lambda xs: any(x for x, ok in zip(xs, row) if ok)
                )
            )
            units.append([x if ok else 0 for x, ok in zip(picks, row)])
        coupling = Coupling.from_units(units, data.draw(st.integers(1, 2**70)))
        check_table(ens, coupling, selector_from_coupling(ens, coupling, Seed(seed)))
        try:
            table = uniform_selector(ens, Seed(seed))
        except InsufficientDensity:
            return
        check_table(ens, full_coupling(mask), table)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 6), st.sampled_from([2**6, 2**40, 2**80]), st.data())
    def test_vectorised_draw_matches_per_row_reference(self, n, m, top, data):
        # Rows with totals below 2**10 give int64 units, larger ones Python
        # ints; variates sit on every CDF boundary, one below it, 0 and 2**53 - 1.
        entry = st.integers(0, top // n)
        units = [
            data.draw(st.lists(entry, min_size=n, max_size=n).filter(any)) for _ in range(m)
        ]
        array = _units(Coupling.from_units(units, data.draw(st.integers(1, 2**70))).units)
        assert array.dtype == (np.int64 if max(map(sum, units)) < 2**10 else object)
        rows, ks = [], []
        for i, row in enumerate(units):
            near = boundary_variates(row)
            rows += [i] * len(near)
            ks += near
        stacked, k = array[rows], np.array(ks, dtype=np.int64)
        chosen = _choose_bins(stacked, k)
        assert np.array_equal(chosen, reference_bins(stacked, k))
        assert (stacked[np.arange(len(k)), chosen] > 0).all()

    @settings(max_examples=60, deadline=None)
    @given(small_ensembles(), st.integers(0, 2**32), st.integers(0, 3), st.data())
    def test_draw_equals_all_rows_draw(self, ens, seed, component, data):
        # Rows charging one bin mixed with rows charging several, in a
        # shuffled order; the reference draws a variate for every row.
        rows = np.array(data.draw(st.permutations(range(ens.size))))
        first = ens.first_index[rows]
        units = np.zeros(first.shape, dtype=np.int64)
        for i, supported in enumerate(first >= 0):
            bins = np.flatnonzero(supported).tolist()
            charged = data.draw(st.lists(st.sampled_from(bins), min_size=1, max_size=len(bins), unique=True))
            units[i, charged] = data.draw(st.lists(st.integers(1, 40), min_size=len(charged), max_size=len(charged)))
        u = Seed(seed).uniforms(rows, generators.SELECTOR_DOMAIN, component)[:, 0]
        idx = first[np.arange(len(rows)), _choose_bins(units, (u * 2**53).astype(np.int64))]
        table = _draw(ens, rows, units, Seed(seed), component)
        assert table.memberships[rows].tolist() == idx.tolist()
        assert np.array_equal(table.values[rows], ens.points[rows, idx])

    def test_one_charged_bin_draws_no_variate(self, monkeypatch):
        # Even replicas charge one supported bin, odd ones every supported bin.
        ens = sample_ensemble(12, 40, UnitGrid(4), 17)
        units = (ens.first_index >= 0).astype(np.int64)
        even = np.arange(0, 40, 2)
        lone = np.argmax(units[even], axis=1)
        units[even] = 0
        units[even, lone] = 1
        drawn = []
        uniforms = Seed.uniforms

        def spy(self, replicas, *key, size=1):
            drawn.append(np.asarray(replicas).tolist())
            return uniforms(self, replicas, *key, size=size)

        monkeypatch.setattr(Seed, "uniforms", spy)
        _draw(ens, np.arange(40), units, Seed(17), 0)
        assert drawn == [[r for r in range(1, 40, 2) if units[r].sum() > 1]]
        assert len(drawn[0]) > 10

    @pytest.mark.parametrize("row", [[2**54 + 3, 1], [1, 2**70], [2**64 + 1, 0, 2**63], [0, 1, 0, 2**10 - 2]])
    def test_draws_on_rows_beyond_float_precision(self, row):
        # As floats, 2**54 + 3 and 2**64 + 1 round, and 1 / (2**70 + 1) is a
        # CDF step below one variate step: the integer draw sees each exactly.
        coupling = Coupling.from_units([row], 3)
        ks = np.array(boundary_variates(row), dtype=np.int64)
        units = _units(coupling.units)[[0] * len(ks)]
        assert np.array_equal(_choose_bins(units, ks), reference_bins(units, ks))
        ens = single_replica_ensemble([(j + 0.5) / len(row) for j in range(len(row))], UnitGrid(len(row)))
        for seed in range(20):
            u = Seed(seed).stream(generators.SELECTOR_DOMAIN, 0).uniform()
            want = reference_bins([row], [int(u * 2**53)])[0]
            assert selector_from_coupling(ens, coupling, Seed(seed)).memberships.tolist() == [want]


inner_points = st.floats(0, 1, exclude_min=True, exclude_max=True)


@st.composite
def ragged_ensembles(draw):
    """Packed from enumerations of mixed lengths, empty ones included."""
    row = st.integers(0, 12).flatmap(
        lambda k: st.lists(inner_points, min_size=k, max_size=k, unique=True)
    )
    rows = draw(st.lists(row, min_size=1, max_size=7))
    replicas = [Enumeration(np.array(row, dtype=float), depth=len(row), provenance="x") for row in rows]
    return Ensemble(replicas, UnitGrid(draw(st.integers(1, 3))))


@st.composite
def forged_tables(draw, ens):
    """Tables mixing the replica's own points, other replicas' points, the
    row padding value, NaN and fresh floats, under memberships that may lie."""
    rows = replica_rows(ens)
    width = max(len(pts) for pts in rows)
    everything = [float(x) for pts in rows for x in pts]
    tables = []
    for _ in range(draw(st.integers(0, 7))):
        values, memberships = [], []
        for pts in rows:
            own = st.sampled_from(pts.tolist()) if len(pts) else inner_points
            foreign = st.sampled_from(everything) if everything else inner_points
            values.append(draw(st.one_of(own, own, foreign, st.just(0.5), st.just(np.nan), inner_points)))
            memberships.append(draw(st.integers(-1, width)))
        tables.append(SelectorTable(np.array(values), np.array(memberships)))
    return tables


def outcome(run, *args):
    """Tables, or the error with the replica or cell it names."""
    try:
        return run(*args)
    except DepthExhausted as exc:
        return ("DepthExhausted", exc.replica, str(exc))
    except InsufficientDensity as exc:
        return ("InsufficientDensity", exc.cell, str(exc))


class TestArrayPathsMatchReferences:
    def test_packing_round_trips(self):
        rows = [[0.3, 0.1], [], [0.9, 0.2, 0.6]]
        ens = Ensemble([Enumeration(np.array(row), depth=len(row), provenance="x") for row in rows], GRID8)
        assert ens.points.shape == (3, 3) and ens.lengths.tolist() == [2, 0, 3]
        assert [pts.tolist() for pts in replica_rows(ens)] == rows
        assert not ens.points.flags.writeable and not ens.lengths.flags.writeable
        with pytest.raises(BadParameter, match="at least one replica"):
            Ensemble([], GRID8)

    @settings(max_examples=150, deadline=None)
    @given(ragged_ensembles(), st.integers(0, 4), st.integers(1, 2), st.integers(0, 2**32))
    def test_interleaving(self, ens, rounds, coarse, seed):
        assert np.array_equal(ens.first_index, reference_first_index(ens))
        got = outcome(interleaved_enumeration, ens, rounds, UnitGrid(coarse), Seed(seed))
        want = outcome(reference_interleaving, ens, rounds, UnitGrid(coarse), Seed(seed))
        if isinstance(want, tuple):
            assert got == want
            return
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a.values, b.values) and np.array_equal(a.memberships, b.memberships)
            assert verify_selector(ens, a)
        assert np.array_equal(interleave_containment(ens, got), reference_containment(ens, want))

    @settings(max_examples=100, deadline=None)
    @given(ragged_ensembles())
    def test_first_index_any_slice_size(self, ens):
        # Slices of one row, of two rows, and of every row build one table.
        width = ens.points.shape[1]
        with pytest.MonkeyPatch.context() as mp:
            for rows in (1, 2, ens.size):
                mp.setattr(generators, "_SLICE_POINTS", rows * width)
                assert len(generators._row_slices(ens.size, width)) == -(-ens.size // rows)
                fresh = Ensemble._packed(ens.points, ens.lengths, ens.grid)
                assert np.array_equal(fresh.first_index, reference_first_index(ens))

    def test_first_index_over_many_slices(self):
        ens = sample_ensemble(64, 700, GRID8, 86)
        assert len(generators._row_slices(ens.size, ens.points.shape[1])) == 3
        assert np.array_equal(ens.first_index, reference_first_index(ens))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_containment_and_verify_on_forged_tables(self, data):
        ens = data.draw(ragged_ensembles())
        tables = data.draw(forged_tables(ens))
        assert np.array_equal(interleave_containment(ens, tables), reference_containment(ens, tables))
        for table in tables:
            assert verify_selector(ens, table) == reference_verify(ens, table)

    def test_containment_rejects_wrong_size(self):
        # A one-row table would otherwise broadcast across every replica.
        ens = sample_ensemble(4, 5, GRID8, 84)
        tables = [SelectorTable(ens.points[:1, 0], np.zeros(1, dtype=np.int64))]
        with pytest.raises(BadParameter, match="table size"):
            interleave_containment(ens, tables)

    def test_verify_rejects_wrong_size(self):
        ens = sample_ensemble(4, 3, GRID8, 84)
        table = SelectorTable(ens.points[:2, 0], np.zeros(2, dtype=np.int64))
        assert not verify_selector(ens, table) and not reference_verify(ens, table)

    def test_failing_cell_label_matches_reference(self):
        # The mixed-radix cell label is computed only for the failing cell.
        ens = sample_ensemble(32, 200, GRID8, 2)
        got = outcome(interleaved_enumeration, ens, 6, UnitGrid(2), Seed(2))
        assert got == outcome(reference_interleaving, ens, 6, UnitGrid(2), Seed(2))
        assert got[:2] == ("InsufficientDensity", 97)

    def test_depth_exhausted_names_first_short_replica(self):
        # On one bin every even table repeats point 0, so round j's odd table
        # needs point j: replicas 2 and 3 run out in round 2.
        rows = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8], [0.15, 0.25]]
        ens = Ensemble([Enumeration(np.array(row), depth=len(row), provenance="x") for row in rows], UnitGrid(1))
        tables = interleaved_enumeration(ens, 1, UnitGrid(1), Seed(85))
        assert tables[2].memberships.tolist() == [1, 1, 1, 1]
        got = outcome(interleaved_enumeration, ens, 2, UnitGrid(1), Seed(85))
        assert got == outcome(reference_interleaving, ens, 2, UnitGrid(1), Seed(85))
        assert got[:2] == ("DepthExhausted", 2)
