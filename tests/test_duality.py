"""Exact marginal/cover duality: oracle comparisons, certificates, profiles.

Three independent oracles guard the flow engine: exhaustive enumeration of all
covers (exact, for the cover problem), a second max-flow via networkx (exact,
for the coupling value) and an LP solve via scipy's HiGHS (floating point, for
the coupling problem).  The engine must agree with the first two exactly and
with the LP to solver tolerance.
"""

import itertools
import math
import pickle
import sys
from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dcset import (
    BadParameter,
    BinSet,
    Certificate,
    Coupling,
    Cover,
    DeficientSupport,
    FactorizationFailure,
    FrequencyProfile,
    MarginalCaps,
    NotNested,
    SupportMask,
    SweepTooLarge,
    UnitGrid,
    frequency_profile,
    full_coupling,
    monotone_chain_check,
    periodic_limsup_mask,
    product_limsup_witness,
    sample_ensemble,
    solve,
    sweep,
)
from dcset import duality
from dcset.errors import WORK_BUDGET
from dcset.selector import build_support_mask


def enumerate_min_cover(mask: SupportMask, caps: MarginalCaps) -> Fraction:
    """Brute-force cover oracle: try every (U, V) pair."""
    best = None
    for u_bits in range(1 << mask.rows):
        U = {i for i in range(mask.rows) if u_bits >> i & 1}
        v_needed = {j for i, j in mask.pairs() if i not in U}
        cost = sum((caps.row_caps[i] for i in U), Fraction(0)) + sum(
            (caps.col_caps[j] for j in v_needed), Fraction(0)
        )
        if best is None or cost < best:
            best = cost
    return best


def lp_max_mass(mask: SupportMask, caps: MarginalCaps) -> float:
    """Independent LP oracle for the coupling value (floating point)."""
    pairs = mask.pairs()
    if not pairs:
        return 0.0
    a_ub = []
    b_ub = []
    for i in range(mask.rows):
        a_ub.append([1.0 if p == i else 0.0 for p, _ in pairs])
        b_ub.append(float(caps.row_caps[i]))
    for j in range(mask.cols):
        a_ub.append([1.0 if q == j else 0.0 for _, q in pairs])
        b_ub.append(float(caps.col_caps[j]))
    res = linprog(-np.ones(len(pairs)), A_ub=a_ub, b_ub=b_ub, method="highs")
    assert res.success
    return -res.fun


def random_caps(rng, n: int, m: int) -> MarginalCaps:
    rw = rng.integers(1, 30, n)
    cw = rng.integers(1, 30, m)
    return MarginalCaps(
        tuple(Fraction(int(x), int(rw.sum())) for x in rw),
        tuple(Fraction(int(x), int(cw.sum())) for x in cw),
    )


def assert_witnesses_valid(mask, caps=None):
    caps = caps or MarginalCaps.uniform(mask.rows, mask.cols)
    cert = solve(mask, caps)
    value, coupling = cert.value, cert.coupling()
    cost, cover = cert.cover_cost, cert.cover
    assert coupling.is_feasible(caps, mask)
    assert coupling.total_mass() == value
    assert coupling.mass_on(mask) == value
    assert cover.covers(mask)
    assert cover.cost(caps) == cost
    assert value == cost
    return value


class TestHandOracles:
    def test_diagonal(self):
        w = SupportMask.from_cells(2, 2, [(0, 0), (1, 1)])
        cert = solve(w)
        assert cert.value == 1
        assert cert.coupling().mass[0][0] == Fraction(1, 2)
        assert cert.coupling().mass[1][1] == Fraction(1, 2)
        assert cert.cover_cost == 1
        assert cert.cover.covers(w)

    def test_single_cell(self):
        w = SupportMask.from_cells(2, 2, [(0, 0)])
        cert = solve(w)
        assert cert.value == Fraction(1, 2)
        assert cert.cover_cost == Fraction(1, 2)
        assert cert.cover == Cover(frozenset({0}), frozenset())

    def test_empty_mask(self):
        cert = solve(SupportMask.empty(3, 4))
        assert cert.value == 0
        assert cert.coupling().total_mass() == 0
        assert cert.gap == 0

    def test_full_mask_value_one(self):
        assert solve(SupportMask.full(3, 5)).value == 1


class TestAgainstOracles:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3)])
    def test_exhaustive_small_grids(self, n, m):
        caps = MarginalCaps.uniform(n, m)
        for bits in range(1 << (n * m)):
            mask = SupportMask.from_bits(n, m, bits)
            value = assert_witnesses_valid(mask, caps)
            assert value == enumerate_min_cover(mask, caps)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_caps_against_both_oracles(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(15):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            mask = SupportMask(rng.random((n, m)) < 0.5)
            caps = random_caps(rng, n, m)
            value = assert_witnesses_valid(mask, caps)
            assert value == enumerate_min_cover(mask, caps)
            assert abs(float(value) - lp_max_mass(mask, caps)) < 1e-8

    @pytest.mark.parametrize("seed", [10, 11])
    def test_random_16x16_lp_cross_check(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            mask = SupportMask(rng.random((16, 16)) < 0.4)
            caps = random_caps(rng, 16, 16)
            value = assert_witnesses_valid(mask, caps)
            assert abs(float(value) - lp_max_mass(mask, caps)) < 1e-8


class TestProperties:
    def test_weak_and_strong_duality_random(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            mask = SupportMask(rng.random((5, 5)) < rng.random())
            cert = solve(mask)
            assert cert.value <= cert.cover_cost
            assert cert.gap == 0

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            small = rng.random((4, 4)) < 0.3
            big = small | (rng.random((4, 4)) < 0.3)
            one, two = solve(SupportMask(small)), solve(SupportMask(big))
            assert one.value <= two.value and one.cover_cost <= two.cover_cost

    def test_value_bounded_by_one(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            mask = SupportMask(rng.random((6, 3)) < 0.7)
            assert solve(mask).value <= 1

    def test_caps_validation(self):
        with pytest.raises(BadParameter):
            MarginalCaps((Fraction(1, 2),), (Fraction(1),))
        with pytest.raises(BadParameter):
            MarginalCaps((Fraction(2),), (Fraction(1),))
        # Negative caps that still sum to one, a column side off by half, no rows.
        for rows, cols in [
            (("3/2", "-1/2"), (1,)),
            ((1,), ("-1/3", "4/3")),
            ((1,), ("1/2", "1/2", "1/2")),
            ((), (1,)),
        ]:
            with pytest.raises(BadParameter):
                MarginalCaps(rows, cols)
        with pytest.raises(BadParameter):
            MarginalCaps.uniform(0, 3)
        with pytest.raises(BadParameter):
            solve(SupportMask.full(2, 2), MarginalCaps.uniform(3, 2))


def networkx_max_units(mask: SupportMask, caps: MarginalCaps) -> int:
    """Second max-flow oracle on the same integer network."""
    scale, row_int, col_int = caps.scaled()
    return networkx_flow_value(mask.cells, row_int, col_int, scale)


def networkx_flow_value(cells, row_int, col_int, scale: int) -> int:
    """Max flow of the bipartite network of boolean `cells` under integer
    row, column and cell caps, by networkx."""
    graph = nx.DiGraph()
    graph.add_nodes_from(["s", "t"])
    for i, cap in enumerate(row_int):
        graph.add_edge("s", ("r", i), capacity=int(cap))
    for j, cap in enumerate(col_int):
        graph.add_edge(("c", j), "t", capacity=int(cap))
    for i, j in zip(*np.nonzero(cells)):
        graph.add_edge(("r", i), ("c", j), capacity=scale)
    return nx.maximum_flow_value(graph, "s", "t")


def reference_solve(mask: SupportMask, caps: MarginalCaps) -> Certificate:
    """Oracle: the uncompressed solve, one Dinic flow node per row.

    The flow network has a node for every row and one edge per mask cell; the
    cut is read from the last breadth-first search.
    """
    n, m = mask.rows, mask.cols
    scale, row_int, col_int = caps.scaled()
    source, sink = 0, n + m + 1
    adj = [[] for _ in range(n + m + 2)]
    to, cap = [], []

    def arc(u, v, c):
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)

    for i in range(n):
        arc(source, 1 + i, row_int[i])
    for j in range(m):
        arc(1 + n + j, sink, col_int[j])
    pairs = mask.pairs()
    first_cell_edge = len(to)
    for i, j in pairs:
        arc(1 + i, 1 + n + j, scale)
    while True:
        level = [-1] * len(adj)
        level[source] = 0
        queue = [source]
        for u in queue:
            for e in adj[u]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[u] + 1
                    queue.append(to[e])
        if level[sink] < 0:
            break
        iters = [0] * len(adj)
        path = []
        u = source
        while True:
            edges = adj[u]
            while iters[u] < len(edges) and not (
                cap[edges[iters[u]]] > 0 and level[to[edges[iters[u]]]] == level[u] + 1
            ):
                iters[u] += 1
            if iters[u] < len(edges):
                path.append(edges[iters[u]])
                u = to[path[-1]]
                if u == sink:
                    pushed = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    path.clear()
                    u = source
            elif path:
                u = to[path.pop() ^ 1]
                iters[u] += 1
            else:
                break
    U = frozenset(i for i in range(n) if level[1 + i] < 0)
    V = frozenset(j for j in range(m) if level[1 + n + j] >= 0)
    flow = [
        (i, j, scale - cap[first_cell_edge + 2 * k])
        for k, (i, j) in enumerate(pairs)
        if cap[first_cell_edge + 2 * k] < scale
    ]
    cost = sum(row_int[i] for i in U) + sum(col_int[j] for j in V)
    return Certificate(mask, caps, scale, flow, sum(u for *_, u in flow), Cover(U, V), cost)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    cells = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    weights = st.integers(0, 12)
    rw = draw(st.lists(weights, min_size=n, max_size=n).filter(any))
    cw = draw(st.lists(weights, min_size=m, max_size=m).filter(any))
    caps = MarginalCaps(
        tuple(Fraction(x, sum(rw)) for x in rw), tuple(Fraction(x, sum(cw)) for x in cw)
    )
    return SupportMask(np.array(cells).reshape(n, m)), caps


class TestSolve:
    @settings(max_examples=80, deadline=None)
    @given(instances())
    def test_certificate_against_oracles(self, instance):
        mask, caps = instance
        cert = solve(mask, caps)
        assert cert.gap == 0
        assert cert.value == Fraction(networkx_max_units(mask, caps), cert.scale)
        assert cert.cover_cost == enumerate_min_cover(mask, caps)
        coupling = cert.coupling()
        assert coupling.is_feasible(caps, mask)
        assert coupling.total_mass() == cert.value
        assert cert.cover.covers(mask) and cert.cover.cost(caps) == cert.cover_cost
        report = monotone_chain_check([mask], caps)
        assert report.coupling_values == (cert.value,)
        assert report.cover_values == (cert.cover_cost,)
        if cert.value == 1:
            assert full_coupling(mask, caps).mass == coupling.mass
        else:
            with pytest.raises(DeficientSupport) as err:
                full_coupling(mask, caps)
            assert err.value.witness == cert.cover and err.value.cost == cert.cover_cost

    def test_default_caps_are_uniform(self):
        mask = SupportMask.from_cells(2, 3, [(0, 0), (1, 2)])
        cert = solve(mask)
        assert cert.caps == MarginalCaps.uniform(2, 3)
        assert cert.value == Fraction(2, 3) and cert.gap == 0

    def test_recursion_limit_untouched(self):
        before = sys.getrecursionlimit()
        assert solve(SupportMask(np.eye(480, dtype=bool))).gap == 0
        assert sys.getrecursionlimit() == before


@st.composite
def class_instances(draw):
    """Masks of 1-4 row patterns, each repeated up to 40 times in shuffled
    order, under rational caps that differ between rows of one pattern."""
    m = draw(st.integers(1, 6))
    patterns = draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m), min_size=1, max_size=4))
    repeats = draw(st.lists(st.integers(1, 40), min_size=len(patterns), max_size=len(patterns)))
    rows = [row for row, k in zip(patterns, repeats) for _ in range(k)]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    weights = st.integers(0, 12)
    rw = draw(st.lists(weights, min_size=len(rows), max_size=len(rows)).filter(any))
    cw = draw(st.lists(weights, min_size=m, max_size=m).filter(any))
    caps = MarginalCaps(
        tuple(Fraction(x, sum(rw)) for x in rw), tuple(Fraction(x, sum(cw)) for x in cw)
    )
    return SupportMask(np.array(rows, dtype=bool).reshape(len(rows), m)), caps


def flow_node_counts(monkeypatch) -> list:
    """Record the row-node count of every flow network `solve` builds."""
    counts = []
    inner = duality._max_flow

    def counted(row_caps, *args):
        counts.append(len(row_caps))
        return inner(row_caps, *args)

    monkeypatch.setattr(duality, "_max_flow", counted)
    return counts


class TestRowClasses:
    @settings(max_examples=80, deadline=None)
    @given(class_instances())
    def test_class_solve_against_oracles(self, instance):
        mask, caps = instance
        cert = solve(mask, caps)
        ref = reference_solve(mask, caps)
        assert cert.gap == 0 == ref.gap
        assert cert.value == ref.value
        assert cert.value == Fraction(networkx_max_units(mask, caps), cert.scale)
        assert cert.cover_cost == ref.cover_cost
        coupling = cert.coupling()
        assert coupling.is_feasible(caps, mask)
        assert coupling.total_mass() == cert.value
        assert cert.cover.covers(mask) and cert.cover.cost(caps) == cert.cover_cost

    def test_distinct_rows_match_the_reference_exactly(self):
        # With no two rows alike the class network is the row network.
        rng = np.random.default_rng(25)
        compared = 0
        for _ in range(40):
            mask = SupportMask(rng.random((6, 5)) < 0.5)
            if len({row.tobytes() for row in mask.cells}) < mask.rows:
                continue
            caps = random_caps(rng, 6, 5)
            assert solve(mask, caps) == reference_solve(mask, caps)
            compared += 1
        assert compared > 20

    def test_ensemble_mask_flows_over_row_classes(self, monkeypatch):
        # selector --seed 1: 5000 replicas, depth 64, 8 bins.
        mask = build_support_mask(sample_ensemble(64, 5000, UnitGrid(8), 1))
        counts = flow_node_counts(monkeypatch)
        cert = solve(mask)
        assert counts == [len({row.tobytes() for row in mask.cells})] and counts[0] <= 7
        assert cert.gap == 0 and cert.value == 1
        scale, row_int, col_int = cert.caps.scaled()
        rows, cols = [0] * mask.rows, [0] * mask.cols
        for i, j, u in cert.flow:
            rows[i] += u
            cols[j] += u
        assert rows == list(row_int) and cols == list(col_int)

    def test_merged_rows_split_within_their_caps(self, monkeypatch):
        # Three equal rows with caps 1/6, 2/6, 3/6 over a two-column pattern.
        mask = SupportMask([[1, 1], [1, 1], [1, 1]])
        caps = MarginalCaps(("1/6", "1/3", "1/2"), ("1/2", "1/2"))
        counts = flow_node_counts(monkeypatch)
        cert = solve(mask, caps)
        assert counts == [1]
        assert cert.coupling().row_sums() == caps.row_caps
        assert cert.coupling().col_sums() == caps.col_caps


class TestWitnessCheck:
    """The integer check `solve` runs on its expanded witnesses, row by row."""

    MASK = SupportMask([[1, 0], [1, 0], [0, 1]])
    CAPS = MarginalCaps(("1/4", "1/4", "1/2"), ("1/2", "1/2"))

    def check(self, flow, U, V):
        scale, row_int, col_int = self.CAPS.scaled()
        return duality._check_witnesses(self.MASK, row_int, col_int, flow, frozenset(U), frozenset(V))

    def test_valid_witnesses_pass(self):
        assert self.check([(0, 0, 1), (1, 0, 1), (2, 1, 2)], {0, 1, 2}, set()) == 4

    def test_cover_is_checked_on_every_row_of_a_class(self):
        # Rows 0 and 1 share a pattern; leaving row 1 out of U uncovers its cell.
        with pytest.raises(AssertionError, match="cover witness misses a mask cell"):
            self.check([(0, 0, 1), (1, 0, 1), (2, 1, 2)], {0, 2}, set())

    def test_row_caps_are_checked_within_a_class(self):
        # The class flow 2 all on row 0 keeps the class cap but not row 0's.
        with pytest.raises(AssertionError, match="exceeds a row or column cap"):
            self.check([(0, 0, 2), (2, 1, 2)], {0, 1, 2}, set())

    @pytest.mark.parametrize(
        "flow, message",
        [
            ([(0, 1, 1)], "flow escaped the mask"),
            ([(0, 0, 0)], "non-positive entry"),
            ([(2, 1, 3)], "exceeds a row or column cap"),
        ],
    )
    def test_flow_entries_are_checked(self, flow, message):
        with pytest.raises(AssertionError, match=message):
            self.check(flow, {0, 1, 2}, set())


@st.composite
def tall_instances(draw):
    """Masks of 1-80 rows drawn from 1-5 row patterns over 1-9 columns, under
    uniform caps or integer weights with zero entries."""
    m = draw(st.integers(1, 9))
    patterns = draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m), min_size=1, max_size=5))
    n = draw(st.integers(1, 80))
    picks = draw(st.lists(st.integers(0, len(patterns) - 1), min_size=n, max_size=n))
    mask = SupportMask(np.array([patterns[k] for k in picks], dtype=bool).reshape(n, m))
    if draw(st.booleans()):
        return mask, MarginalCaps.uniform(n, m)
    weights = st.integers(0, 6)
    rw = draw(st.lists(weights, min_size=n, max_size=n).filter(any))
    cw = draw(st.lists(weights, min_size=m, max_size=m).filter(any))
    caps = MarginalCaps(
        tuple(Fraction(x, sum(rw)) for x in rw), tuple(Fraction(x, sum(cw)) for x in cw)
    )
    return mask, caps


def tall_calls(monkeypatch) -> list:
    """Record the mask of every solve that takes the tall path."""
    calls = []
    inner = duality._tall_witnesses

    def recorded(mask, *args):
        calls.append(mask)
        return inner(mask, *args)

    monkeypatch.setattr(duality, "_tall_witnesses", recorded)
    return calls


def tall_mask(n: int) -> SupportMask:
    """n rows cycling through four patterns of three columns."""
    patterns = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 0, 0]], dtype=bool)
    return SupportMask(patterns[np.arange(n) % 4])


def move_onto_first_row(fi, fj, fu, cells):
    """The next entry in the first entry's column joins the first entry:
    column sums keep, and the first entry's row exceeds its cap."""
    k = np.flatnonzero(fj == fj[0])[1]
    fu = fu.copy()
    fu[0] += fu[k]
    keep = np.arange(len(fu)) != k
    return fi[keep], fj[keep], fu[keep]


def move_to_another_column(fi, fj, fu, cells):
    """The first entry moves to another mask cell of its row: row sums keep,
    and the column it joins, already full, exceeds its cap."""
    fj = fj.copy()
    fj[0] = next(j for j in np.flatnonzero(cells[fi[0]]) if j != fj[0])
    return fi, fj, fu


def negate_entries(fi, fj, fu, cells):
    return fi, fj, -fu


def add_entry_outside(fi, fj, fu, cells):
    i, j = np.argwhere(~cells)[0]
    return np.append(fi, i), np.append(fj, j), np.append(fu, 1)


class TestTallMasks:
    """`solve`'s array path for masks of at least `_TALL_ROWS` rows."""

    @settings(max_examples=120, deadline=None)
    @given(tall_instances(), st.sampled_from([1, 10, 40]))
    def test_equals_row_loop_and_reference(self, instance, threshold):
        mask, caps = instance
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(duality, "_TALL_ROWS", threshold)
            cert = solve(mask, caps)
            mp.setattr(duality, "_TALL_ROWS", mask.rows + 1)
            loop = solve(mask, caps)
        # Same flow entries in the same order, same cover, same units.
        assert cert == loop and cert.flow == loop.flow
        ref = reference_solve(mask, caps)
        assert cert.gap == 0 == ref.gap
        assert (cert.value, cert.cover_cost) == (ref.value, ref.cover_cost)

    def test_threshold_picks_the_path(self, monkeypatch):
        calls = tall_calls(monkeypatch)
        for n in (duality._TALL_ROWS - 1, duality._TALL_ROWS):
            solve(tall_mask(n))
        solve(SupportMask(np.random.default_rng(7).random((64, 64)) < 0.1))
        assert [mask.rows for mask in calls] == [duality._TALL_ROWS]

    def test_ensemble_mask_equals_row_loop(self, monkeypatch):
        # selector --seed 1: 5000 replicas, depth 64, 8 bins.
        mask = build_support_mask(sample_ensemble(64, 5000, UnitGrid(8), 1))
        calls = tall_calls(monkeypatch)
        cert = solve(mask)
        assert len(calls) == 1 and cert.value == 1 and cert.gap == 0
        monkeypatch.setattr(duality, "_TALL_ROWS", mask.rows + 1)
        loop = solve(mask)
        assert len(calls) == 1 and cert == loop and cert.flow == loop.flow

    def test_flow_list_is_formed_on_first_read(self, monkeypatch):
        # The tall path keeps its flow as int64 arrays; the list, its repr and
        # its copies equal the loop's, and the loop's arrays equal the tall's.
        mask = tall_mask(duality._TALL_ROWS)
        cert = solve(mask)
        assert "flow" not in cert.__dict__
        monkeypatch.setattr(duality, "_TALL_ROWS", mask.rows + 1)
        loop = solve(mask)
        for got, want in zip(cert._flow_arrays, loop._flow_arrays):
            assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
        clone = pickle.loads(pickle.dumps(cert))
        assert "flow" not in clone.__dict__
        assert repr(cert) == repr(loop) == repr(clone) and cert == loop == clone
        assert cert.flow == loop.flow and all(type(v) is int for entry in cert.flow for v in entry)
        for record in (cert, loop):
            with pytest.raises(TypeError):
                hash(record)

    def test_units_overflow_falls_back_to_the_loop(self, monkeypatch):
        # scale = lcm(rows, 2**61) puts scale * rows * (cols + 1) past 2**62.
        mask = tall_mask(duality._TALL_ROWS)
        tiny = Fraction(1, 2**61)
        caps = MarginalCaps((Fraction(1, mask.rows),) * mask.rows, (tiny, Fraction(1, 2) - tiny, Fraction(1, 2)))
        calls = tall_calls(monkeypatch)
        cert = solve(mask, caps)
        assert calls == [] and cert.gap == 0
        assert cert.value == reference_solve(mask, caps).value

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda fi, fj, fu, cells: (fi, fj, fu), None),
            (negate_entries, "non-positive entry"),
            (add_entry_outside, "flow escaped the mask"),
            (move_onto_first_row, "exceeds a row or column cap"),
            (move_to_another_column, "exceeds a row or column cap"),
        ],
        ids=["unchanged", "negative", "outside", "row-over-cap", "column-over-cap"],
    )
    def test_flow_is_checked(self, monkeypatch, corrupt, message):
        inner = duality._tall_witnesses

        def corrupted(mask, *args):
            fi, fj, fu, in_U, in_V = inner(mask, *args)
            return (*corrupt(fi, fj, fu, mask.cells), in_U, in_V)

        monkeypatch.setattr(duality, "_tall_witnesses", corrupted)
        mask = tall_mask(duality._TALL_ROWS)
        if message is None:
            cert = solve(mask)
            monkeypatch.setattr(duality, "_TALL_ROWS", mask.rows + 1)
            assert cert == solve(mask) and cert.value == 1
        else:
            with pytest.raises(AssertionError, match=message):
                solve(mask)

    def test_cover_is_checked(self, monkeypatch):
        inner = duality._tall_witnesses

        def drop_a_cover_row(mask, *args):
            fi, fj, fu, in_U, in_V = inner(mask, *args)
            in_U = in_U.copy()
            in_U[np.argmax(in_U)] = False
            return fi, fj, fu, in_U, in_V

        monkeypatch.setattr(duality, "_tall_witnesses", drop_a_cover_row)
        with pytest.raises(AssertionError, match="cover witness misses a mask cell"):
            solve(tall_mask(duality._TALL_ROWS))


class TestMarginalCaps:
    @pytest.mark.parametrize("n, m", [(1, 1), (3, 7), (7, 9), (12, 8), (5000, 8)])
    def test_uniform_scaled_matches_fractions(self, n, m):
        # `uniform` builds its units directly; the checking constructor agrees.
        caps = MarginalCaps.uniform(n, m)
        checked = MarginalCaps((Fraction(1, n),) * n, (Fraction(1, m),) * m)
        assert caps == checked and caps.scaled() == checked.scaled()
        scale = math.lcm(*(c.denominator for c in caps.row_caps + caps.col_caps))
        assert caps.scaled() == (
            scale,
            tuple(int(c * scale) for c in caps.row_caps),
            tuple(int(c * scale) for c in caps.col_caps),
        )
        assert all(type(c) is int for c in caps.scaled()[1] + caps.scaled()[2])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 50), min_size=1, max_size=12).filter(any),
        st.lists(st.integers(0, 50), min_size=1, max_size=12).filter(any),
    )
    def test_scaled_is_the_least_common_scale(self, rw, cw):
        rows = tuple(Fraction(x, sum(rw)) for x in rw)
        cols = tuple(Fraction(x, sum(cw)) for x in cw)
        scale, row_int, col_int = MarginalCaps(rows, cols).scaled()
        assert scale == math.lcm(*(c.denominator for c in rows + cols))
        assert tuple(Fraction(u, scale) for u in row_int + col_int) == rows + cols

    def test_ints_strings_and_fractions_give_equal_caps(self):
        as_fractions = MarginalCaps((Fraction(1), Fraction(0)), (Fraction(1, 3), Fraction(2, 3)))
        for other in (
            MarginalCaps((1, 0), ("1/3", "2/3")),
            MarginalCaps(("1", "0"), (Fraction(1, 3), "2/3")),
        ):
            assert other == as_fractions
            assert other.scaled() == as_fractions.scaled() == (3, (3, 0), (1, 2))
            assert all(type(c) is Fraction for c in other.row_caps + other.col_caps)


def pile_on_first_cell(flow, cells):
    """All flow on its first cell: on one column this overfills a row, on one row a column."""
    return [(*flow[0][:2], sum(u for *_, u in flow))] if flow else flow


def negate_flow(flow, cells):
    return [(i, j, -u) for i, j, u in flow]


def zero_first_entry(flow, cells):
    """The first flow entry kept on its cell with amount 0."""
    return [(*flow[0][:2], 0), *flow[1:]] if flow else flow


def add_flow_outside(flow, cells):
    """One unit on the first cell outside the mask, if there is one."""
    return flow + [(*np.argwhere(~cells)[0].tolist(), 1)] if not cells.all() else flow


def move_first_entry_along_its_row(flow, cells):
    """The first entry moves to the next other cell of its row, if there is one:
    row sums keep, and on a full mask the column it joins, already full,
    exceeds its cap."""
    if not flow:
        return flow
    i, j, u = flow[0]
    others = [k for k in np.flatnonzero(cells[i]).tolist() if k != j]
    return [(i, others[0], u), *flow[1:]] if others else flow


def sweep_representatives(monkeypatch, edit=None) -> list:
    """Record every representative `sweep` solves in its one flow network.

    Returns the list that collects, per representative, its cells in the
    sweep's frame, its flow entries as (row, col, units) and its cut as sets
    U of rows and V of columns, as `_orbit_flows` gives them.  With `edit`,
    `edit(cells, flow, U, V)` returns the (flow, U, V) that the sweep checks.
    """
    seen = []
    inner = duality._orbit_flows

    def recorded(cells, *args):
        fq, fr, fc, fu, U, V = inner(cells, *args)
        entries, U, V = [], U.copy(), V.copy()
        for q, rep in enumerate(cells):
            at = fq == q
            flow = list(zip(fr[at].tolist(), fc[at].tolist(), fu[at].tolist()))
            cut = set(np.flatnonzero(U[q]).tolist()), set(np.flatnonzero(V[q]).tolist())
            seen.append((rep, flow, *cut))
            if edit is not None:
                flow, *cut = edit(rep, flow, *cut)
                U[q], V[q] = [r in cut[0] for r in range(U.shape[1])], [c in cut[1] for c in range(V.shape[1])]
            entries += [(q, r, c, u) for r, c, u in flow]
        return (*np.array(entries, dtype=np.int64).reshape(-1, 4).T, U, V)

    monkeypatch.setattr(duality, "_orbit_flows", recorded)
    return seen


def number(bits) -> int:
    """The bit number of a 0/1 sequence, bit k first."""
    return sum(1 << k for k, bit in enumerate(bits) if bit)


def reference_orbit_table(R: int, C: int, moved: np.ndarray) -> tuple:
    """Oracle: `_orbit_table`'s keys, permutations and representatives by a
    loop over the permutations, each key keeping the first whose moved codes,
    sorted, pack strictly least."""
    weights = 1 << C * np.arange(R)
    rows = itertools.combinations_with_replacement(range(1 << C), R)
    rows = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.uint8).reshape(-1, R)
    keys = rows @ weights
    rep, perm = keys.copy(), np.zeros(len(keys), dtype=np.int8)  # permutation 0 moves nothing
    for p in range(1, len(moved) >> C):
        packed = np.sort(moved[p << C : (p + 1) << C][rows], axis=1) @ weights
        less = packed < rep
        rep[less], perm[less] = packed[less], p
    return keys, perm, rep


class TestSweep:
    @pytest.mark.parametrize(
        "n, m",
        [(n, m) for n in range(1, 5) for m in range(1, 5)] + [(1, 16), (16, 1), (2, 8), (8, 2)],
    )
    def test_every_mask_certified(self, monkeypatch, n, m):
        reps = sweep_representatives(monkeypatch)
        assert sweep(n, m) == (2 ** (n * m), 0, Fraction(0))
        # Each representative's share of the one network has the mass and
        # cover cost of its own solve.
        scale, row_int, col_int = MarginalCaps.uniform(n, m).scaled()
        row_cap, col_cap = (col_int, row_int) if m > n else (row_int, col_int)
        for cells, flow, U, V in reps:
            cert = solve(SupportMask(cells.T if m > n else cells))
            assert sum(u for *_, u in flow) == cert.mass_units
            assert sum(row_cap[r] for r in U) + sum(col_cap[c] for c in V) == cert.cost_units

    def test_4x4_solves_fewer_masks_than_column_multisets(self, monkeypatch):
        # C(16 + 4 - 1, 4) = 3,876 multisets of four 4-bit columns.
        reps = sweep_representatives(monkeypatch)
        assert sweep(4, 4) == (65536, 0, Fraction(0))
        assert 0 < len(reps) < math.comb(16 + 4 - 1, 4)

    @pytest.mark.parametrize(
        "shape, orbits",
        [((1, m), m + 1) for m in (1, 2, 3, 4, 16)]
        + [((m, 1), m + 1) for m in (2, 3, 4, 16)]
        + [((2, 2), 7), ((2, 3), 13), ((3, 2), 13), ((2, 4), 22), ((4, 2), 22),
           ((3, 3), 36), ((3, 4), 87), ((4, 3), 87), ((4, 4), 317)],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_each_representative_solved_once(self, monkeypatch, shape, orbits):
        # One representative per orbit under row and column permutations;
        # OEIS A028657 counts the orbits of binary n-by-m matrices (Harary 1958).
        reps = sweep_representatives(monkeypatch)
        assert sweep(*shape) == (2 ** (shape[0] * shape[1]), 0, Fraction(0))
        masks = [cells.tobytes() for cells, *_ in reps]
        assert len(masks) == len(set(masks)) == orbits

    @pytest.mark.parametrize("rows, cols", [(2, 3), (3, 3)])
    def test_masks_share_a_representative_exactly_when_permutations_join_them(
        self, monkeypatch, rows, cols
    ):
        masks = [SupportMask.from_bits(rows, cols, b).cells for b in range(1 << (rows * cols))]
        # Brute force: an orbit is named by its least bit number.
        orbit = [
            min(number(cells[list(r)][:, list(c)].ravel())
                for r in itertools.permutations(range(rows))
                for c in itertools.permutations(range(cols)))
            for cells in masks
        ]
        # The sweep's frame is the taller one: R row codes of C bits.
        R, C = max(rows, cols), min(rows, cols)
        perms, moved = duality._column_moves(C)
        keys, perm, rep, _ = duality._orbit_table(R, C, moved)
        perm_of = dict(zip(keys.tolist(), perm.tolist()))
        rep_of = dict(zip(keys.tolist(), rep.tolist()))
        assigned = []
        for cells in masks:
            frame = cells.T if cols > rows else cells
            codes = sorted(number(row) for row in frame)
            key = sum(code << C * r for r, code in enumerate(codes))
            # Moving the columns by the key's permutation and sorting the rows
            # gives the representative.
            moved_codes = sorted(number(row[perms[perm_of[key]]]) for row in frame)
            assert sum(code << C * r for r, code in enumerate(moved_codes)) == rep_of[key]
            assigned.append(rep_of[key])
        # Same representative exactly when same orbit.
        assert len(set(zip(orbit, assigned))) == len(set(orbit)) == len(set(assigned))

        reps = sweep_representatives(monkeypatch)
        sweep(rows, cols)
        assert sorted(number(cells.ravel()) for cells, *_ in reps) == sorted(set(assigned))

    @pytest.mark.parametrize("R, C", [(R, C) for C in range(1, 5) for R in range(C, 17) if R * C <= 16])
    def test_histogram_ranking_equals_the_permutation_loop(self, R, C):
        perms, moved = duality._column_moves(C)
        keys, perm, rep, hist = duality._orbit_table(R, C, moved)
        for got, want in zip((keys, perm, rep), reference_orbit_table(R, C, moved)):
            np.testing.assert_array_equal(got, want)
        codes = (keys[:, None] >> C * np.arange(R)) & ((1 << C) - 1)
        np.testing.assert_array_equal(hist, (codes[:, :, None] == np.arange(1 << C)).sum(axis=1))
        # The ranks in exact integers: the largest is the full mask's,
        # R (R+1)**(2**C - 1), at most 4 * 5**15 (4x4), so float64 holds them.
        ranks = hist @ ((R + 1) ** moved.astype(np.int64)).reshape(-1, 1 << C).T
        assert ranks.max() == R * (R + 1) ** ((1 << C) - 1) <= 4 * 5**15 < 2**53

    def test_wrong_representative_certificate_is_caught(self, monkeypatch):
        # The full mask is its own representative; answering it with the
        # empty mask's witnesses (no flow, empty cut) leaves its cells uncovered.
        def answer_full_with_empty(cells, flow, U, V):
            return ([], set(), set()) if cells.all() else (flow, U, V)

        sweep_representatives(monkeypatch, answer_full_with_empty)
        with pytest.raises(AssertionError, match="cover witness misses a mask cell"):
            sweep(3, 3)

    @pytest.mark.parametrize(
        "shape, corrupt, message",
        [
            ((3, 3), lambda flow, cells: flow, None),
            ((3, 3), negate_flow, "non-positive entry"),
            ((3, 3), zero_first_entry, "non-positive entry"),
            ((3, 3), add_flow_outside, "flow escaped the mask"),
            ((3, 1), pile_on_first_cell, "exceeds a row or column cap"),
            # Swept as its 3x1 transpose: the overfilled column is a frame row.
            ((1, 3), pile_on_first_cell, "exceeds a row or column cap"),
            ((3, 3), move_first_entry_along_its_row, "exceeds a row or column cap"),
            # A wide grid is swept in its transpose.
            ((2, 4), lambda flow, cells: flow, None),
            ((2, 4), negate_flow, "non-positive entry"),
            ((2, 4), add_flow_outside, "flow escaped the mask"),
        ],
        ids=["unchanged", "negative", "zero", "outside", "row-over-cap", "column-over-cap",
             "frame-column-over-cap", "unchanged-wide", "negative-wide", "outside-wide"],
    )
    def test_carried_flow_is_checked(self, monkeypatch, shape, corrupt, message):
        sweep_representatives(monkeypatch, lambda cells, flow, U, V: (corrupt(flow, cells), U, V))
        if message is None:
            assert sweep(*shape) == (2 ** (shape[0] * shape[1]), 0, Fraction(0))
        else:
            with pytest.raises(AssertionError, match=message):
                sweep(*shape)

    def test_negative_network_flow_is_refused(self, monkeypatch):
        # A flow entry is every cell with nonzero units, so a negative amount
        # out of the max flow reaches the sign check instead of being dropped.
        inner = duality._lockstep_flow

        def negated(*args):
            units, row_reached, col_reached = inner(*args)
            return -units, row_reached, col_reached

        monkeypatch.setattr(duality, "_lockstep_flow", negated)
        with pytest.raises(AssertionError, match="non-positive entry"):
            sweep(2, 2)

    def test_carried_cover_is_checked(self, monkeypatch):
        def drop_a_cover_row(cells, flow, U, V):
            return flow, U - {min(U)} if U else U, V

        sweep_representatives(monkeypatch, drop_a_cover_row)
        for shape in ((3, 3), (2, 4)):  # 2x4 is swept in its transpose
            with pytest.raises(AssertionError, match="cover witness misses a mask cell"):
                sweep(*shape)

    def test_gap_comes_from_carried_witnesses(self, monkeypatch):
        # Dropping one flow entry leaves a feasible but short coupling, so
        # every nonempty 2x2 mask shows a gap of one unit, 1/2.
        sweep_representatives(monkeypatch, lambda cells, flow, U, V: (flow[1:], U, V))
        assert sweep(2, 2) == (16, 15, Fraction(1, 2))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (2, 4), (1, 16)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_each_multiset_counts_its_masks(self, monkeypatch, shape):
        # Brute force: bin every bit number by its sorted row codes in the
        # sweep's frame, the transpose of a wide grid.
        rows, cols = shape
        flip = cols > rows
        R, C = (cols, rows) if flip else (rows, cols)
        cells = (np.arange(1 << (rows * cols))[:, None] >> np.arange(rows * cols)) & 1
        cells = cells.reshape(-1, rows, cols)
        codes = np.sort((cells.transpose(0, 2, 1) if flip else cells) @ (1 << np.arange(C)), axis=1)
        masks_of = Counter((codes @ (1 << C * np.arange(R))).tolist())

        # Make every multiset its own representative, then inflate one
        # multiset's cover to all rows and columns: only its masks show a gap.
        def own_representatives(R, C, moved):
            keys, perm, rep, hist = orbit_table(R, C, moved)
            return keys, np.zeros_like(perm), keys.copy(), hist

        orbit_table = duality._orbit_table
        monkeypatch.setattr(duality, "_orbit_table", own_representatives)

        def inflated(cells, flow, U, V):
            return (flow, set(range(R)), set(range(C))) if number(cells.ravel()) == target else (flow, U, V)

        sweep_representatives(monkeypatch, inflated)
        for target, count in masks_of.items():
            total, nonzero, worst = sweep(rows, cols)
            assert (total, nonzero) == (1 << (rows * cols), count)
            assert worst > 0

    @pytest.mark.parametrize("shape, caught", [((3, 3), 71), ((2, 4), 26)], ids=["3x3", "2x4"])
    def test_corrupted_permutation_caught_as_per_mask(self, monkeypatch, shape, caught):
        # One key's column permutation is moved to the next one.  The sweep
        # must fail or show a gap exactly where checking each of that key's
        # masks in the corrupted frame, against its representative's
        # witnesses from the one network, does.
        rows, cols = shape
        flip = cols > rows
        R, C = (cols, rows) if flip else (rows, cols)
        perms, moved = duality._column_moves(C)
        keys, perm, rep, _ = duality._orbit_table(R, C, moved)
        scale, row_int, col_int = MarginalCaps.uniform(rows, cols).scaled()
        row_cap, col_cap = (col_int, row_int) if flip else (row_int, col_int)
        messages = ["non-positive entry", "flow escaped the mask", "exceeds a row or column cap",
                    "cover witness misses a mask cell", "gap"]
        with monkeypatch.context() as patched:
            reps = sweep_representatives(patched)
            sweep(rows, cols)
        witnesses = {number(cells.ravel()): rest for cells, *rest in reps}

        def first_failure(frame, q, flow, U, V):
            """Index into `messages` of the first check that `frame` fails, or None."""
            frame = frame[:, perms[q]]
            rho = sorted(range(R), key=lambda r: frame[r].tolist()[::-1])
            frame = frame[rho]
            rsum, csum = [0] * R, [0] * C
            for r, c, u in flow:
                rsum[r] += u
                csum[c] += u
            failed = [
                any(u <= 0 for *_, u in flow),
                any(not frame[r, c] for r, c, _ in flow),
                any(rsum[r] > row_cap[rho[r]] for r in range(R))
                or any(csum[c] > col_cap[perms[q][c]] for c in range(C)),
                any(frame[r, c] and r not in U and c not in V for r in range(R) for c in range(C)),
                sum(row_cap[rho[r]] for r in U) + sum(col_cap[perms[q][c]] for c in V) != sum(rsum),
            ]
            return failed.index(True) if any(failed) else None

        index = {key: k for k, key in enumerate(keys.tolist())}
        expected = {}
        for bits in range(1 << (rows * cols)):
            cells = SupportMask.from_bits(rows, cols, bits).cells
            frame = cells.T if flip else cells
            codes = sorted(int(row @ (1 << np.arange(C))) for row in frame)
            k = index[sum(code << C * r for r, code in enumerate(codes))]
            failure = first_failure(frame, (perm[k] + 1) % len(perms), *witnesses[int(rep[k])])
            if failure is not None:
                expected[k] = min(failure, expected.get(k, failure))

        orbit_table = duality._orbit_table
        found = {}
        for k in range(len(keys)):
            def corrupted(R, C, moved):
                keys, perm, rep, hist = orbit_table(R, C, moved)
                perm = perm.copy()
                perm[k] = (perm[k] + 1) % len(perms)
                return keys, perm, rep, hist

            monkeypatch.setattr(duality, "_orbit_table", corrupted)
            try:
                if sweep(rows, cols)[1]:
                    found[k] = messages.index("gap")
            except AssertionError as error:
                found[k] = next(i for i, m in enumerate(messages) if m in str(error))
        assert found == expected
        assert len(found) == caught

    def test_sweep_runs_no_per_node_flow(self, monkeypatch):
        # `sweep` solves its representatives in lockstep array passes; only
        # `solve` goes through the per-node Python flow.
        def refused(*args):
            raise RuntimeError("sweep called the per-node flow")

        counts = flow_node_counts(monkeypatch)
        solve(SupportMask.full(2, 2))
        assert counts == [1]
        monkeypatch.setattr(duality, "_max_flow", refused)
        monkeypatch.setattr(duality, "solve", refused)
        assert sweep(4, 4) == (65536, 0, Fraction(0))

    def test_bounds_rejected(self):
        with pytest.raises(SweepTooLarge):
            sweep(5, 4)
        with pytest.raises(BadParameter):
            sweep(0, 3)


@st.composite
def network_stacks(draw):
    """Q = 1..12 random R-by-C masks (R, C = 1..6) under one set of
    nonnegative integer row and column caps, some above the cell cap."""
    Q, R, C = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.booleans(), min_size=Q * R * C, max_size=Q * R * C))
    scale = draw(st.integers(1, 6))
    row_cap = draw(st.lists(st.integers(0, 3 * scale), min_size=R, max_size=R))
    col_cap = draw(st.lists(st.integers(0, 3 * scale), min_size=C, max_size=C))
    return np.array(cells).reshape(Q, R, C), np.array(row_cap), np.array(col_cap), scale


class TestLockstepFlow:
    @settings(max_examples=150, deadline=None)
    @given(network_stacks())
    def test_each_network_against_oracles(self, stack):
        cells, row_cap, col_cap, scale = stack
        units, row_reached, col_reached = duality._lockstep_flow(cells, row_cap, col_cap, scale)
        assert units.dtype == np.int64 and units.shape == cells.shape
        assert (units >= 0).all() and (units <= scale * cells).all()
        assert (units.sum(axis=2) <= row_cap).all() and (units.sum(axis=1) <= col_cap).all()
        for q, net in enumerate(cells):
            pairs = list(zip(*(k.tolist() for k in np.nonzero(net))))
            alone, cut, reached = duality._max_flow(row_cap.tolist(), col_cap.tolist(), pairs, scale)
            value = int(units[q].sum())
            assert value == sum(alone) == networkx_flow_value(net, row_cap, col_cap, scale)
            np.testing.assert_array_equal(~row_reached[q], cut)
            np.testing.assert_array_equal(col_reached[q], reached)

    def test_rounds_are_bounded(self, monkeypatch):
        # A push that moves nothing leaves every path in place; the rounds
        # stop at the total row cap plus one instead of spinning.
        rounds = []
        monkeypatch.setattr(duality, "_push_paths", lambda *args: rounds.append(1))
        cells = np.array([[[True, True], [True, False]]] * 3)  # the greedy start leaves a path
        with pytest.raises(AssertionError, match="total row cap plus one"):
            duality._lockstep_flow(cells, np.array([1, 1]), np.array([1, 1]), 2)
        assert len(rounds) == 3  # the total row cap, 2, plus one


@st.composite
def couplings(draw):
    """A coupling from a solve (units over the caps' scale, not reduced) or
    from hand-picked rationals."""
    if draw(st.booleans()):
        mask, caps = draw(instances())
        return solve(mask, caps).coupling()
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    entry = st.fractions(min_value=0, max_value=3, max_denominator=30)
    return Coupling(draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)))


class TestCoupling:
    @settings(max_examples=80, deadline=None)
    @given(couplings())
    def test_units_round_trip_and_integer_sums(self, coupling):
        again = Coupling(coupling.mass)
        # The same matrix over the least common scale, which divides the old one.
        assert coupling.scale % again.scale == 0
        factor = coupling.scale // again.scale
        assert all(
            u == factor * v
            for row, row_again in zip(coupling.units, again.units)
            for u, v in zip(row, row_again)
        )
        assert again.mass == coupling.mass
        assert all(type(u) is int for row in coupling.units for u in row)
        mass = coupling.mass
        assert coupling.row_sums() == tuple(sum(row, Fraction(0)) for row in mass)
        assert coupling.col_sums() == tuple(sum(col, Fraction(0)) for col in zip(*mass))
        assert coupling.total_mass() == sum(map(sum, mass), Fraction(0))

    def test_mass_view_is_fractions(self):
        coupling = Coupling([[Fraction(1, 4), 0], [Fraction(1, 6), Fraction(7, 12)]])
        assert coupling.scale == 12
        assert coupling.units == ((3, 0), (2, 7))
        assert coupling.mass == ((Fraction(1, 4), Fraction(0)), (Fraction(1, 6), Fraction(7, 12)))
        with pytest.raises(AttributeError):
            coupling.mass = ()


class TestChains:
    def test_canonical_chain(self):
        chain = [
            SupportMask.empty(2, 2),
            SupportMask.from_cells(2, 2, [(0, 0)]),
            SupportMask.from_cells(2, 2, [(0, 0), (1, 1)]),
        ]
        report = monotone_chain_check(chain)
        assert report.coupling_values == (0, Fraction(1, 2), 1)
        assert report.cover_values == (0, Fraction(1, 2), 1)
        assert report.nondecreasing

    def test_constant_chain(self):
        w = SupportMask.from_cells(2, 2, [(0, 1)])
        report = monotone_chain_check([w, w, w])
        assert len(set(report.coupling_values)) == 1

    def test_not_nested(self):
        a = SupportMask.from_cells(2, 2, [(0, 0)])
        b = SupportMask.from_cells(2, 2, [(1, 1)])
        with pytest.raises(NotNested):
            monotone_chain_check([a, b])

    def test_random_nested_chains_nondecreasing(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            cells = np.zeros((5, 5), dtype=bool)
            chain = [SupportMask(cells.copy())]
            for _ in range(5):
                cells = cells | (rng.random((5, 5)) < 0.15)
                chain.append(SupportMask(cells.copy()))
            assert monotone_chain_check(chain).nondecreasing


class TestFullCoupling:
    def test_diagonal(self):
        w = SupportMask.from_cells(2, 2, [(0, 0), (1, 1)])
        coupling = full_coupling(w)
        assert coupling.mass[0][0] == coupling.mass[1][1] == Fraction(1, 2)

    def test_deficient_support_carries_cover(self):
        w = SupportMask.from_cells(2, 2, [(0, 0)])
        with pytest.raises(DeficientSupport) as err:
            full_coupling(w)
        assert err.value.cost == Fraction(1, 2)
        assert err.value.witness.U == frozenset({0})

    def test_full_mask_marginals_exact(self):
        caps = MarginalCaps.uniform(3, 4)
        coupling = full_coupling(SupportMask.full(3, 4), caps)
        assert coupling.row_sums() == caps.row_caps
        assert coupling.col_sums() == caps.col_caps

    def test_random_feasible_masks(self):
        rng = np.random.default_rng(24)
        found = 0
        for _ in range(40):
            mask = SupportMask(rng.random((4, 4)) < 0.8)
            caps = MarginalCaps.uniform(4, 4)
            if solve(mask, caps).value != 1:
                continue
            found += 1
            coupling = full_coupling(mask, caps)
            assert coupling.row_sums() == caps.row_caps
            assert coupling.col_sums() == caps.col_caps
            assert coupling.supported_on(mask)
        assert found > 10


def binsets(grid, *memberships):
    return [BinSet(grid, frozenset(m)) for m in memberships]


def loop_rows(sets):
    """Per-set 0/1 rows, one Python pass per set."""
    rows = np.zeros((len(sets), sets[0].grid.n), dtype=np.int64)
    for k, s in enumerate(sets):
        rows[k, list(s.members)] = 1
    return rows


def loop_frequency_profile(a_sets, b_sets, horizon, periodic=True):
    """Per-step reference: add the step-k rows and their outer product, step by step."""
    a_arr, b_arr = loop_rows(a_sets), loop_rows(b_sets)
    f_counts = np.zeros(a_arr.shape[1], dtype=np.int64)
    g_counts = np.zeros(b_arr.shape[1], dtype=np.int64)
    h_counts = np.zeros((a_arr.shape[1], b_arr.shape[1]), dtype=np.int64)
    for k in range(horizon):
        a = a_arr[k % len(a_sets) if periodic else k]
        b = b_arr[k % len(b_sets) if periodic else k]
        f_counts += a
        g_counts += b
        h_counts += np.outer(a, b)
    f = tuple(Fraction(int(c), horizon) for c in f_counts)
    g = tuple(Fraction(int(c), horizon) for c in g_counts)
    h = tuple(tuple(Fraction(int(c), horizon) for c in row) for row in h_counts)
    return FrequencyProfile(a_sets[0].grid, b_sets[0].grid, f, g, h)


def loop_limsup_cells(a_sets, b_sets):
    """Per-step reference: the union of A_k x B_k over one joint period."""
    a_arr, b_arr = loop_rows(a_sets).astype(bool), loop_rows(b_sets).astype(bool)
    cells = np.zeros((a_arr.shape[1], b_arr.shape[1]), dtype=bool)
    for k in range(math.lcm(len(a_sets), len(b_sets))):
        cells |= np.outer(a_arr[k % len(a_sets)], b_arr[k % len(b_sets)])
    return cells


def loop_residual(profile):
    """Per-cell reference for FrequencyProfile.residual."""
    worst = Fraction(0)
    for i, fi in enumerate(profile.f):
        for j, gj in enumerate(profile.g):
            worst = max(worst, abs(profile.h[i][j] - fi * gj))
    return worst


@st.composite
def bin_sequences(draw, min_size=1, max_size=6):
    grid = UnitGrid(draw(st.integers(1, 5)))
    members = st.frozensets(st.integers(0, grid.n - 1))
    return [BinSet(grid, m) for m in draw(st.lists(members, min_size=min_size, max_size=max_size))]


class TestProfileAgainstPerStepLoop:
    """frequency_profile and periodic_limsup_mask gather each sequence's rows
    once; the per-step loops above are their oracles."""

    @settings(max_examples=150, deadline=None)
    @given(a_seq=bin_sequences(), b_seq=bin_sequences(), horizon=st.integers(1, 40))
    def test_periodic_profile(self, a_seq, b_seq, horizon):
        profile = frequency_profile(a_seq, b_seq, horizon)
        assert profile == loop_frequency_profile(a_seq, b_seq, horizon)
        assert profile.residual() == loop_residual(profile)

    @settings(max_examples=100, deadline=None)
    @given(a_seq=bin_sequences(max_size=40), b_seq=bin_sequences(max_size=40), data=st.data())
    def test_prefix_profile(self, a_seq, b_seq, data):
        horizon = data.draw(st.integers(1, min(len(a_seq), len(b_seq))))
        profile = frequency_profile(a_seq, b_seq, horizon, periodic=False)
        assert profile == loop_frequency_profile(a_seq, b_seq, horizon, periodic=False)
        assert profile.residual() == loop_residual(profile)

    @settings(max_examples=150, deadline=None)
    @given(a_seq=bin_sequences(), b_seq=bin_sequences())
    def test_limsup_mask(self, a_seq, b_seq):
        mask = periodic_limsup_mask(a_seq, b_seq)
        assert np.array_equal(mask.cells, loop_limsup_cells(a_seq, b_seq))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 5), cols=st.integers(1, 5))
    def test_witness_names_first_missing_cell(self, data, rows, cols):
        # A product profile, so only the mask decides; the first cell of the
        # rectangle missing from the mask, in ascending (i, j) order, is named.
        weights = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1)])
        f = tuple(data.draw(st.lists(weights, min_size=rows, max_size=rows)))
        g = tuple(data.draw(st.lists(weights, min_size=cols, max_size=cols)))
        profile = FrequencyProfile(
            UnitGrid(rows), UnitGrid(cols), f, g, tuple(tuple(fi * gj for gj in g) for fi in f)
        )
        cells = data.draw(st.lists(st.lists(st.booleans(), min_size=cols, max_size=cols),
                                   min_size=rows, max_size=rows))
        support = [(i, j) for i in range(rows) if f[i] for j in range(cols) if g[j]]
        missing = [(i, j) for i, j in support if not cells[i][j]]
        if missing:
            with pytest.raises(BadParameter) as err:
                product_limsup_witness(profile, SupportMask(cells))
            i, j = missing[0]
            assert str(err.value) == f"limsup mask misses cell ({i},{j}); it does not match the profile"
        else:
            a, b = product_limsup_witness(profile, SupportMask(cells))
            assert a.members == {i for i in range(rows) if f[i]}
            assert b.members == {j for j in range(cols) if g[j]}


class TestProfileRefusals:
    def test_empty_sequence(self):
        seq = binsets(UnitGrid(2), {0}, {1})
        for make in (
            lambda: periodic_limsup_mask([], seq),
            lambda: periodic_limsup_mask(seq, []),
            lambda: frequency_profile([], seq, 2),
            lambda: frequency_profile(seq, [], 2, periodic=False),
        ):
            with pytest.raises(BadParameter, match="sequences must be nonempty"):
                make()

    def test_mask_of_wrong_shape(self):
        g4 = UnitGrid(4)
        a_seq, b_seq = binsets(g4, {0, 1}), binsets(g4, {0, 1})
        profile = frequency_profile(a_seq, b_seq, 1)
        for cells in (np.ones((2, 2)), np.ones((4, 5)), np.ones((5, 4))):
            with pytest.raises(BadParameter, match=r"does not match the profile's bins \(4, 4\)"):
                product_limsup_witness(profile, SupportMask(cells))
        # The shape is checked before the profile's factorization.
        coupled = frequency_profile(binsets(g4, {0}, {1}), binsets(g4, {0}, {1}), 2)
        with pytest.raises(BadParameter, match="does not match"):
            product_limsup_witness(coupled, SupportMask(np.ones((2, 2))))

    def test_horizon_over_budget(self):
        g1000 = UnitGrid(1000)
        seq = binsets(g1000, {0}, {999})
        horizon = WORK_BUDGET // 1000 + 1
        with pytest.raises(BadParameter, match=f"horizon \\* bins = {horizon * 1000} exceeds"):
            frequency_profile(seq, binsets(UnitGrid(2), {1}), horizon)
        with pytest.raises(BadParameter, match="horizon \\* bins = 4000000000000 exceeds"):
            frequency_profile(binsets(UnitGrid(4), {1}), binsets(UnitGrid(2), {1}), 10**12)

    def test_period_over_budget(self):
        # Coprime lengths: the joint period is 16,016,003 steps.
        a_seq = binsets(UnitGrid(2), {0}) * 4001
        b_seq = binsets(UnitGrid(3), {2}) * 4003
        period = 4001 * 4003
        with pytest.raises(BadParameter, match=f"period \\* bins = {period * 2} exceeds"):
            periodic_limsup_mask(a_seq, b_seq)


class TestFrequencyProfile:
    def test_alternating_example(self):
        g2 = UnitGrid(2)
        a_seq = binsets(g2, {0}, {1})
        b_seq = binsets(g2, {0})
        profile = frequency_profile(a_seq, b_seq, 2)
        assert profile.f == (Fraction(1, 2), Fraction(1, 2))
        assert profile.g == (Fraction(1), Fraction(0))
        assert profile.h[0][0] == profile.h[1][0] == Fraction(1, 2)
        assert profile.factorizes

    def test_constant_sequences_outer_product(self):
        g4 = UnitGrid(4)
        a_seq = binsets(g4, {0, 1})
        b_seq = binsets(g4, {2})
        profile = frequency_profile(a_seq, b_seq, 6)
        for i in range(4):
            for j in range(4):
                assert profile.h[i][j] == profile.f[i] * profile.g[j]

    def test_periodic_exactness_denominators(self):
        g2 = UnitGrid(2)
        a_seq = binsets(g2, {0}, {1}, {0, 1})
        b_seq = binsets(g2, {1}, set())
        profile = frequency_profile(a_seq, b_seq, 6)
        period = math.lcm(3, 2)
        for x in profile.f + profile.g:
            assert period % x.denominator == 0

    def test_independent_random_sequences_residual_shrinks(self):
        # Law of large numbers oracle: independent random sets factorize
        # approximately over a long horizon.
        rng = np.random.default_rng(30)
        g4 = UnitGrid(4)
        a_seq = [BinSet(g4, frozenset(k for k in range(4) if rng.random() < 0.5)) for _ in range(5000)]
        b_seq = [BinSet(g4, frozenset(k for k in range(4) if rng.random() < 0.5)) for _ in range(5000)]
        profile = frequency_profile(a_seq, b_seq, 5000, periodic=False)
        assert float(profile.residual()) < 0.05

    def test_empirical_prefix_bounds(self):
        g2 = UnitGrid(2)
        seq = binsets(g2, {0}, {1})
        with pytest.raises(BadParameter):
            frequency_profile(seq, seq, 3, periodic=False)


class TestLimsupWitness:
    def test_alternating_witness(self):
        g2 = UnitGrid(2)
        a_seq = binsets(g2, {0}, {1})
        b_seq = binsets(g2, {0})
        profile = frequency_profile(a_seq, b_seq, 2)
        mask = periodic_limsup_mask(a_seq, b_seq)
        a, b = product_limsup_witness(profile, mask, profile.mean_f, profile.mean_g)
        assert a.members == frozenset({0, 1})
        assert b.members == frozenset({0})

    def test_constant_witness(self):
        g4 = UnitGrid(4)
        a_seq = binsets(g4, {1, 2})
        b_seq = binsets(g4, {0})
        profile = frequency_profile(a_seq, b_seq, 4)
        mask = periodic_limsup_mask(a_seq, b_seq)
        a, b = product_limsup_witness(profile, mask)
        assert a.members == frozenset({1, 2}) and b.members == frozenset({0})
        assert all(mask.cell(i, j) for i in a.members for j in b.members)

    def test_coupled_alternation_fails_factorization(self):
        # A_k = B_k alternating on two bins: h has diagonal mass 1/2 but
        # f*g is 1/4 everywhere.
        g2 = UnitGrid(2)
        seq = binsets(g2, {0}, {1})
        profile = frequency_profile(seq, seq, 2)
        with pytest.raises(FactorizationFailure) as err:
            product_limsup_witness(profile, periodic_limsup_mask(seq, seq))
        assert err.value.residual == Fraction(1, 4)

    @pytest.mark.parametrize("seed", range(6))
    def test_coprime_periods_factorize_exactly(self, seed):
        # Sequences with coprime periods pair every combination equally often
        # over the joint period, so the factorization h = f*g is exact.
        rng = np.random.default_rng(100 + seed)
        periods = [(2, 3), (3, 4), (4, 5), (2, 5), (3, 5), (5, 6)][seed]
        pa, pb = periods
        g = UnitGrid(6)
        a_seq = [BinSet(g, frozenset(k for k in range(6) if rng.random() < 0.5)) for _ in range(pa)]
        b_seq = [BinSet(g, frozenset(k for k in range(6) if rng.random() < 0.5)) for _ in range(pb)]
        horizon = pa * pb
        profile = frequency_profile(a_seq, b_seq, horizon)
        assert profile.factorizes
        mask = periodic_limsup_mask(a_seq, b_seq)
        a, b = product_limsup_witness(profile, mask, profile.mean_f, profile.mean_g)
        assert a.measure >= profile.mean_f
        assert b.measure >= profile.mean_g
        assert all(mask.cell(i, j) for i in a.members for j in b.members)
