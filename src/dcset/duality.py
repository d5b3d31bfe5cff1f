"""Exact finite-grid marginal and cover problems with strong-duality witnesses.

Given a boolean support mask W on an n-by-m grid and marginal caps (row and
column budgets summing to one), two numbers are computed exactly:

* the largest total mass of a nonnegative matrix supported on W whose row and
  column sums stay below the caps (the marginal problem), and
* the cheapest "cross" cover (U x all) | (all x V) of W, priced by the caps
  (the cover problem).

Both are realized by one integer max-flow after clearing denominators, so the
two values agree exactly.  `solve` runs that flow once and returns a
Certificate holding both witnesses, checked in integers: a feasible coupling
achieving the first value and a covering pair achieving the second.

The flow runs over row classes: rows with the same support pattern share one
node whose cap is the sum of theirs, so a tall mask with few distinct rows
(an ensemble's replica-by-bin mask) gives a small network.  The class flow
is split back to rows by the north-west-corner rule at the same integer
scale, a row joins the cover when its class does, and both witnesses are
checked row by row against the original mask.  Rows are merged, columns are
not: the masks that shrink are tall, and splitting columns too would cost a
second expansion on every small mask.  From `_TALL_ROWS` rows up, the
classes are keyed from packed row codes, split and checked in int64 array
passes (`_tall_witnesses`), with the same classes, flow, cover and messages
as the loop over rows that smaller masks keep.  `sweep` certifies every
mask of a small grid: it solves one representative per orbit under row and
column permutations, all of them at once as small networks side by side in
int64 array passes (`_lockstep_flow`: a greedy start, then one shortest
augmenting path per network per round; the min cut read from the last
residual search is the same for every max flow, so it is `_max_flow`'s),
and finds each orbit's representative by ranking row-code histograms, read
as base R + 1 numbers that float64 holds exactly (`_orbit_table`).  The
frequency-profile machinery at the bottom handles periodic set sequences:
exact limit frequencies, their product factorization, and the limsup
witness rectangle.  It reads each sequence's 0/1 rows periodically in one
gather, so the horizon (for a profile) and the joint period (for a limsup
mask) times either bin count may not exceed `errors.WORK_BUDGET`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement, compress, permutations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadParameter, DeficientSupport, FactorizationFailure, NotNested, SweepTooLarge, check_budget, check_count
)
from .grid_measure import BinSet
from .records import Record

__all__ = [
    "SupportMask",
    "MarginalCaps",
    "Coupling",
    "Cover",
    "ChainReport",
    "Certificate",
    "FrequencyProfile",
    "solve",
    "sweep",
    "monotone_chain_check",
    "full_coupling",
    "frequency_profile",
    "periodic_limsup_mask",
    "product_limsup_witness",
    "all_masks",
]

_ZERO = Fraction(0)


class SupportMask:
    """Boolean n-by-m matrix marking the allowed cells of the square."""

    __slots__ = ("cells", "rows", "cols", "_pairs")

    def __init__(self, cells):
        arr = np.array(cells, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise BadParameter(f"mask must be a 2-D matrix, got shape {arr.shape}")
        arr.setflags(write=False)
        self.cells = arr
        self.rows, self.cols = arr.shape
        self._pairs = None

    def pairs(self) -> list[tuple[int, int]]:
        """True cells as (row, col) pairs, row-major; computed once."""
        if self._pairs is None:
            ii, jj = np.nonzero(self.cells)
            self._pairs = list(zip(ii.tolist(), jj.tolist()))
        return self._pairs

    @classmethod
    def empty(cls, rows: int, cols: int) -> "SupportMask":
        return cls(np.zeros((rows, cols), dtype=bool))

    @classmethod
    def full(cls, rows: int, cols: int) -> "SupportMask":
        return cls(np.ones((rows, cols), dtype=bool))

    @classmethod
    def from_cells(cls, rows: int, cols: int, true_cells: Iterable) -> "SupportMask":
        arr = np.zeros((rows, cols), dtype=bool)
        for i, j in true_cells:
            arr[i, j] = True
        return cls(arr)

    @classmethod
    def from_bits(cls, rows: int, cols: int, bits: int) -> "SupportMask":
        """Mask number `bits` in the row-major enumeration of all 2**(rows*cols)."""
        flat = (bits >> np.arange(rows * cols)) & 1
        return cls(flat.astype(bool).reshape(rows, cols))

    def cell(self, i: int, j: int) -> bool:
        return bool(self.cells[i, j])

    def count(self) -> int:
        return int(self.cells.sum())

    def is_subset(self, other: "SupportMask") -> bool:
        return self.cells.shape == other.cells.shape and not bool(
            (self.cells & ~other.cells).any()
        )

    def __eq__(self, other):
        return isinstance(other, SupportMask) and np.array_equal(self.cells, other.cells)

    def __repr__(self):
        return f"SupportMask({self.rows}x{self.cols}, {self.count()} cells)"


def all_masks(rows: int, cols: int) -> Iterator[SupportMask]:
    """Every mask on a rows-by-cols grid, in bit order."""
    for bits in range(1 << (rows * cols)):
        yield SupportMask.from_bits(rows, cols, bits)


class MarginalCaps(Record):
    """Row and column budgets; exact rationals summing to one on each side.

    The caps are checked once, in integer units over the least common
    denominator `scale`, and `scaled()` returns those units.
    """

    __slots__ = ("row_caps", "col_caps", "_scaled")

    def __init__(self, row_caps: tuple, col_caps: tuple):
        rows = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in row_caps)
        cols = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in col_caps)
        scale = math.lcm(*{c.denominator for c in rows + cols})
        row_int = tuple(c.numerator * (scale // c.denominator) for c in rows)
        col_int = tuple(c.numerator * (scale // c.denominator) for c in cols)
        if any(u < 0 for u in row_int + col_int):
            raise BadParameter("caps must be nonnegative")
        if sum(row_int) != scale or sum(col_int) != scale:
            raise BadParameter(
                "caps must sum to 1 on each side, got "
                f"{Fraction(sum(row_int), scale)} and {Fraction(sum(col_int), scale)}"
            )
        super().__init__(rows, cols)
        object.__setattr__(self, "_scaled", (scale, row_int, col_int))

    @classmethod
    @lru_cache(maxsize=64)
    def uniform(cls, rows: int, cols: int) -> "MarginalCaps":
        """Caps 1/rows and 1/cols, in units over lcm(rows, cols), which are
        valid by construction and so are not checked one by one."""
        if rows < 1 or cols < 1:
            raise BadParameter(f"uniform caps need a positive shape, got {rows}x{cols}")
        caps = cls.__new__(cls)
        Record.__init__(caps, (Fraction(1, rows),) * rows, (Fraction(1, cols),) * cols)
        scale = math.lcm(rows, cols)
        object.__setattr__(caps, "_scaled", (scale, (scale // rows,) * rows, (scale // cols,) * cols))
        return caps

    def scaled(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """Common denominator and the caps in integer units over it."""
        return self._scaled


class Coupling:
    """Nonnegative rational matrix with capped marginals, in integer units.

    Entry (i, j) is `units[i][j] / scale`; `units` is a tuple of rows of
    Python ints.  The constructor takes rationals and clears their
    denominators; `mass` is the derived `Fraction` view.
    """

    __slots__ = ("units", "scale")

    def __init__(self, mass):
        rows = [[Fraction(x) for x in row] for row in mass]
        scale = math.lcm(*(x.denominator for row in rows for x in row))
        self.units = tuple(
            tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows
        )
        self.scale = scale

    @classmethod
    def from_units(cls, units, scale: int) -> "Coupling":
        coupling = cls.__new__(cls)
        coupling.units = tuple(tuple(row) for row in units)
        coupling.scale = scale
        return coupling

    @property
    def mass(self) -> tuple:
        return tuple(tuple(Fraction(u, self.scale) for u in row) for row in self.units)

    @property
    def rows(self) -> int:
        return len(self.units)

    @property
    def cols(self) -> int:
        return len(self.units[0])

    def total_mass(self) -> Fraction:
        return Fraction(sum(map(sum, self.units)), self.scale)

    def row_sums(self) -> tuple:
        return tuple(Fraction(sum(row), self.scale) for row in self.units)

    def col_sums(self) -> tuple:
        return tuple(Fraction(sum(col), self.scale) for col in zip(*self.units))

    def supported_on(self, mask: SupportMask) -> bool:
        return all(
            u == 0 or mask.cells[i, j]
            for i, row in enumerate(self.units)
            for j, u in enumerate(row)
        )

    def is_feasible(self, caps: MarginalCaps, mask: SupportMask | None = None) -> bool:
        """Exact check: marginals capped, all entries nonnegative, support inside mask."""
        if any(u < 0 for row in self.units for u in row):
            return False
        if any(r > c for r, c in zip(self.row_sums(), caps.row_caps)):
            return False
        if any(r > c for r, c in zip(self.col_sums(), caps.col_caps)):
            return False
        if mask is not None and not self.supported_on(mask):
            return False
        return True


class Cover(Record):
    """A cross-shaped cover: chosen rows U and columns V."""

    __slots__ = ("U", "V")

    def cost(self, caps: MarginalCaps) -> Fraction:
        return sum((caps.row_caps[i] for i in self.U), _ZERO) + sum(
            (caps.col_caps[j] for j in self.V), _ZERO
        )

    def covers(self, mask: SupportMask) -> bool:
        ii, jj = np.nonzero(mask.cells)
        return all(int(i) in self.U or int(j) in self.V for i, j in zip(ii, jj))


class Certificate(Record):
    """Both witnesses of one exact solve, checked in integer units.

    Every amount is an integer multiple of 1/scale.  The coupling witness is
    `flow`, a list of (row, col, units) with positive units.  `Fraction`s are
    formed only by the accessors.  A tall solve keeps its flow as the int64
    arrays `_flow_arrays` (rows, columns, units), and `flow` is formed from
    them on its first read; a certificate built from a list forms the arrays
    from it when they are first read.
    """

    __slots__ = ("mask", "caps", "scale", "mass_units", "cover", "cost_units", "__dict__")
    _fields = ("mask", "caps", "scale", "flow", "mass_units", "cover", "cost_units")

    @classmethod
    def _from_arrays(cls, flow_arrays: tuple, **fields) -> "Certificate":
        """The certificate with the other `fields` whose flow is `flow_arrays`."""
        for array in flow_arrays:
            array.setflags(write=False)
        cert = cls.__new__(cls)
        Record.__setstate__(cert, ({"_flow_arrays": flow_arrays}, fields))
        return cert

    @cached_property
    def flow(self) -> list[tuple[int, int, int]]:
        return list(zip(*(array.tolist() for array in self._flow_arrays)))

    @cached_property
    def _flow_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Formed from a list only for amounts int64 holds.
        return tuple(np.fromiter(chain.from_iterable(self.flow), np.int64).reshape(-1, 3).T)

    @property
    def value(self) -> Fraction:
        """Total mass of the coupling witness."""
        return Fraction(self.mass_units, self.scale)

    @property
    def cover_cost(self) -> Fraction:
        return Fraction(self.cost_units, self.scale)

    @property
    def gap(self) -> Fraction:
        """Cover cost minus coupling mass; zero proves both witnesses optimal."""
        return Fraction(self.cost_units - self.mass_units, self.scale)

    def coupling(self) -> Coupling:
        units = [[0] * self.mask.cols for _ in range(self.mask.rows)]
        for i, j, u in self.flow:
            units[i][j] = u
        return Coupling.from_units(units, self.scale)


# Row count from which `solve` keys row classes, splits their flow and checks
# its witnesses in array passes (`_tall_witnesses`) instead of loops over
# rows.  Measured crossover (2-core Xeon, Python 3.11, numpy 2.4; best of 7
# loops, loop/array µs per solve under uniform caps) on replica-by-bin masks
# of 8 bins: 79/162 at 64 rows, 175/196 at 192, 212/197 at 256, 311/225 at
# 384, about 4200/2000 at 5000; on random masks of density 0.7 the paths
# meet near 256 rows too.  Square masks up to 64x64 stay on the loop.
_TALL_ROWS = 384


def solve(mask: SupportMask, caps: MarginalCaps | None = None) -> Certificate:
    """Solve the marginal and cover problems of a mask by one integer max-flow.

    Caps default to uniform.  Rows with one support pattern form a row class,
    a single flow node whose cap is the sum of theirs; the class flow is split
    back to rows by the north-west-corner rule, and a row joins U when its
    class does.  Both witnesses are checked in integer units, row by row on
    the mask, before they are returned: the coupling charges mask cells only
    and keeps within every row and column cap, and the cover meets every mask
    cell.  A zero `gap` is therefore a proof of strong duality for the instance.
    A mask of `_TALL_ROWS` rows or more takes the same steps in array passes
    (`_tall_witnesses`, `_check_witness_arrays`) and gives an equal Certificate.
    """
    if caps is None:
        caps = MarginalCaps.uniform(mask.rows, mask.cols)
    if len(caps.row_caps) != mask.rows or len(caps.col_caps) != mask.cols:
        raise BadParameter("caps dimensions do not match the mask")

    n, m = mask.rows, mask.cols
    scale, row_int, col_int = caps.scaled()
    # A row's bits fit one uint64 code, and the at most rows * (cols + 1) flow
    # entries, each at most `scale`, sum within int64.
    if n >= _TALL_ROWS and m < 64 and scale * n * (m + 1) < 2**62:
        row_cap, col_cap = np.fromiter(row_int, np.int64, n), np.array(col_int, dtype=np.int64)
        fi, fj, fu, in_U, in_V = _tall_witnesses(mask, row_cap, col_int, scale)
        supp = np.zeros_like(mask.cells)
        supp[fi, fj] = True
        row_units, col_units = np.zeros(n, dtype=np.int64), np.zeros(m, dtype=np.int64)
        np.add.at(row_units, fi, fu)
        np.add.at(col_units, fj, fu)
        cover = in_U[:, None] | in_V
        _check_witness_arrays(mask.cells, fu, supp, row_units, row_cap, col_units, col_cap, cover)
        U, V = (frozenset(np.flatnonzero(cut).tolist()) for cut in (in_U, in_V))
        return Certificate._from_arrays(
            (fi, fj, fu), mask=mask, caps=caps, scale=scale, mass_units=int(fu.sum()),
            cover=Cover(U, V), cost_units=int(row_cap[in_U].sum() + col_cap[in_V].sum()),
        )

    # Row classes in order of their first row, keyed on the row's bytes; a
    # class's cap is the sum of its rows' caps.
    raw = mask.cells.tobytes()
    classes: dict[bytes, int] = {}
    members: list[list[int]] = []
    class_caps: list[int] = []
    for i in range(n):
        key = raw[i * m : i * m + m]
        c = classes.get(key)
        if c is None:
            classes[key] = len(members)
            members.append([i])
            class_caps.append(row_int[i])
        else:
            members[c].append(i)
            class_caps[c] += row_int[i]
    pairs = [(c, j) for c, key in enumerate(classes) for j in compress(range(m), key)]
    units, class_cut, col_reached = _max_flow(class_caps, col_int, pairs, scale)

    # A class of one row passes its flow on as it is; the flow of a larger
    # class is split by the north-west-corner rule: lay its rows' caps and
    # its columns' flows end to end, and row t takes each column's overlap
    # with its cap interval.
    flow = []
    split: dict[int, list[tuple[int, int]]] = {}
    for (c, j), u in zip(pairs, units):
        if u:
            rows = members[c]
            if len(rows) == 1:
                flow.append((rows[0], j, u))
            else:
                split.setdefault(c, []).append((j, u))
    for c, class_flow in split.items():
        rows = members[c]
        t, room = 0, row_int[rows[0]]
        for j, u in class_flow:
            while u:
                while not room:
                    t += 1
                    room = row_int[rows[t]]
                take = min(room, u)
                flow.append((rows[t], j, take))
                room -= take
                u -= take

    U = frozenset(chain.from_iterable(compress(members, class_cut)))
    V = frozenset(compress(range(m), col_reached))
    mass_units = _check_witnesses(mask, row_int, col_int, flow, U, V)
    cost_units = sum(map(row_int.__getitem__, U)) + sum(map(col_int.__getitem__, V))
    return Certificate(mask, caps, scale, flow, mass_units, Cover(U, V), cost_units)


def _tall_witnesses(mask: SupportMask, row_cap: np.ndarray, col_int, scale: int):
    """`solve`'s row classes, flow and cut for a tall mask, in array passes.

    Takes the row caps as an int64 array.  Returns the flow as three int64
    arrays (rows, columns, units) and U and V as boolean arrays, equal to
    what `solve`'s loop over rows gives: the same classes in order of their
    first row (the min cut `_max_flow` finds depends on node order), the
    same flow entries in the same order, and the same cut.
    """
    row_class, starts, class_codes = _row_classes(mask.cells)
    sizes = np.bincount(row_class)
    members = np.argsort(row_class, kind="stable")  # rows by class, then row
    cap_end = np.cumsum(row_cap[members])
    class_caps = np.diff(cap_end[np.cumsum(sizes) - 1], prepend=0)
    pc, pj = np.nonzero(class_codes[:, None] >> np.arange(mask.cols, dtype=np.uint64) & 1)
    units, class_cut, col_reached = _max_flow(
        class_caps.tolist(), col_int, list(zip(pc.tolist(), pj.tolist())), scale
    )
    units = np.array(units, dtype=np.int64)
    one = sizes[pc] == 1
    single, split = one & (units > 0), ~one & (units > 0)
    # Classes of one row come first, in pair order, as in the loop.
    fi, fj, fu = [starts[pc[single]]], [pj[single]], [units[single]]
    if split.any():
        member, pair, amounts = _north_west(units[split], pc[split], cap_end, row_class[members])
        fi.append(members[member])
        fj.append(pj[split][pair])
        fu.append(amounts)
    in_U = np.array(class_cut)[row_class]
    return np.concatenate(fi), np.concatenate(fj), np.concatenate(fu), in_U, np.array(col_reached)


def _row_classes(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of one pattern form a class, numbered in order of its first row.

    Each row's bits pack into one uint64 code (cols < 64).  Returns each
    row's class, and each class's first row and code.
    """
    codes = cells @ (1 << np.arange(cells.shape[1], dtype=np.uint64))
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order], distinct[order]


def _north_west(flows, flow_class, cap_end, member_class) -> tuple[np.ndarray, ...]:
    """North-west-corner split of every class's flow among its rows at once.

    `flows` are the positive pair flows of classes of two or more rows, in
    class then column order, and `flow_class` their classes; `cap_end` is
    the running sum of the row caps over the rows listed by class, and
    `member_class` each listed row's class.  On one line the class flows lie
    end to end, class c's on [S_c, S_c+1), and a listed row's cap interval
    ends at S_c plus the running sum of its class's caps, clipped to S_c+1.
    Each segment between consecutive ends of either kind lies in one pair's
    flow and one row's cap, and that row takes it in that pair's column.
    Returns, per piece in line order (the loop's order), the listed row,
    the pair and the amount.
    """
    pair_end = np.cumsum(flows)
    classes = np.arange(member_class[-1] + 2)
    S = np.concatenate(([0], pair_end))[np.searchsorted(flow_class, classes)]
    cap_start = np.concatenate(([0], cap_end))[np.searchsorted(member_class, classes[:-1])]
    row_end = np.minimum(cap_end - cap_start[member_class] + S[member_class], S[member_class + 1])
    ends = np.sort(np.concatenate((pair_end, row_end)))
    amounts = np.diff(ends, prepend=0)
    piece = amounts > 0
    at = ends[piece] - amounts[piece]  # each piece's start
    return (
        np.searchsorted(row_end, at, side="right"),
        np.searchsorted(pair_end, at, side="right"),
        amounts[piece],
    )


def _check_witness_arrays(cells, least, supp, rsum, rcap, csum, ccap, cover) -> None:
    """`_check_witnesses` in integer arrays, for `solve`'s tall path and `sweep`.

    `cells`, `supp` (cells carrying flow) and `cover` (cells the cover meets)
    may be boolean cells or rows of bit codes, which `&` and `~` read alike;
    `least` holds the flow entries.  Same checks and messages.
    """
    if (least <= 0).any():
        raise AssertionError("coupling witness has a non-positive entry")
    if (supp & ~cells).any():
        raise AssertionError("flow escaped the mask")
    if (rsum > rcap).any() or (csum > ccap).any():
        raise AssertionError("coupling witness exceeds a row or column cap")
    if (cells & ~cover).any():
        raise AssertionError("cover witness misses a mask cell")


def _max_flow(row_caps, col_caps, pairs, scale) -> tuple[list[int], list[bool], list[bool]]:
    """Dinic max-flow from the rows to the columns of a bipartite network.

    The source feeds row r up to row_caps[r], column c drains up to
    col_caps[c] into the sink, and each (r, c) of `pairs` carries up to
    `scale`.  Returns the units on each pair, then the rows cut off from the
    source and the columns still reached from it in the final residual
    network: the two sides of a minimum cut.
    """
    n, m = len(row_caps), len(col_caps)
    # Node layout: 0 source, 1..n rows, n+1..n+m cols, n+m+1 sink.
    source, sink = 0, n + m + 1
    n_nodes = n + m + 2
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    to: list[int] = []
    cap: list[int] = []

    for i in range(n):
        adj[source].append(len(to))
        to.append(1 + i)
        cap.append(row_caps[i])
        adj[1 + i].append(len(to))
        to.append(source)
        cap.append(0)
    for j in range(m):
        adj[1 + n + j].append(len(to))
        to.append(sink)
        cap.append(col_caps[j])
        adj[sink].append(len(to))
        to.append(1 + n + j)
        cap.append(0)
    first_pair_edge = len(to)
    for i, j in pairs:
        adj[1 + i].append(len(to))
        to.append(1 + n + j)
        cap.append(scale)
        adj[1 + n + j].append(len(to))
        to.append(1 + i)
        cap.append(0)

    while True:
        level = [-1] * n_nodes
        level[source] = 0
        queue = [source]
        for u in queue:
            # Once the sink has a level, the nodes left to scan can only label
            # nodes at the sink's level or beyond, where the depth-first
            # search finds no path; only the last search, which misses the
            # sink, runs to the end and so marks the cut.
            if level[sink] >= 0:
                break
            next_level = level[u] + 1
            for e in adj[u]:
                if cap[e]:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = next_level
                        queue.append(v)
        if level[sink] < 0:
            break
        # Blocking flow: a depth-first search along level-increasing edges,
        # holding its current path as a list of edges.  iters[u] is the next
        # edge of u to try; it stays put after a push, since that edge may
        # still have capacity, and moves on when the edge leads to a dead end.
        iters = [0] * n_nodes
        path: list[int] = []
        u = source
        while True:
            edges = adj[u]
            k, end = iters[u], len(edges)
            next_level = level[u] + 1
            while k < end:
                e = edges[k]
                if cap[e] and level[to[e]] == next_level:
                    break
                k += 1
            iters[u] = k
            if k < end:
                path.append(e)
                u = to[e]
                if u == sink:
                    pushed = min(map(cap.__getitem__, path))
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

    units = [scale - cap[e] for e in range(first_pair_edge, len(to), 2)]
    return units, [lv < 0 for lv in level[1 : 1 + n]], [lv >= 0 for lv in level[1 + n : 1 + n + m]]


def _check_witnesses(mask: SupportMask, row_int, col_int, flow, U, V) -> int:
    """Check a solve's witnesses row by row on the mask; return the flow's mass.

    In integer units: every flow entry is a positive amount on a mask cell,
    every row and column sum keeps within its cap, and every mask cell lies
    in a row of U or a column of V.  A failure raises AssertionError.
    """
    n, m = mask.rows, mask.cols
    raw = mask.cells.tobytes()
    row_units = [0] * n
    col_units = [0] * m
    for i, j, u in flow:
        if u <= 0:
            raise AssertionError("coupling witness has a non-positive entry")
        if not raw[i * m + j]:
            raise AssertionError("flow escaped the mask")
        row_units[i] += u
        col_units[j] += u
        if row_units[i] > row_int[i] or col_units[j] > col_int[j]:
            raise AssertionError("coupling witness exceeds a row or column cap")
    for i in range(n):
        if i not in U:
            for j in range(m):
                if raw[i * m + j] and j not in V:
                    raise AssertionError("cover witness misses a mask cell")
    return sum(row_units)


def sweep(rows: int, cols: int) -> tuple[int, int, Fraction]:
    """Certify every mask on a rows-by-cols grid under uniform caps.

    Returns (masks, nonzero, worst): the mask count, how many masks have a
    nonzero gap, and the largest absolute gap.  Uniform caps are unchanged by
    row and column permutations, so each orbit of the two is solved once, at
    its representative (see `_orbit_table`).

    The sweep works in the taller frame, the transpose when cols > rows: a
    mask is R row codes of C <= 4 bits.  All representatives' max flows run
    in lockstep array passes (`_orbit_flows`): a greedy start, then rounds
    that push one shortest augmenting path in every network that has one,
    and the min cut from the last residual search.  Each one's witnesses are
    gathered in its own frame in array passes: flow-support row codes, row
    sums, cover row codes (every bit for a row of U, else V's code), U,
    column sums and V.

    Masks with the same multiset of rows differ by a row permutation, which
    moves no uniform cap, so each multiset is checked once and stands for
    R!/prod(m_c!) masks, m_c being how often code c occurs in it (its row-code
    histogram); these counts must sum to the mask count.  A multiset's own
    codes are moved by its column permutation and sorted into its
    representative's frame, and checked there by `_check_witness_arrays`: no
    non-positive flow entry, flow inside the cells, row and column sums within
    the caps read through the permutations, the cover meeting every cell, and
    the gap.
    """
    if rows < 1 or cols < 1:
        raise BadParameter("sweep bounds must be positive")
    if rows * cols > 16:
        raise SweepTooLarge(f"{rows}x{cols} gives 2**{rows * cols} masks; limit is n*m <= 16")
    caps = MarginalCaps.uniform(rows, cols)
    scale, row_int, col_int = caps.scaled()
    flip = cols > rows
    R, C = (cols, rows) if flip else (rows, cols)
    row_cap, col_cap = map(np.array, (col_int, row_int) if flip else (row_int, col_int))
    perms, moved = _column_moves(C)
    keys, perm, rep, hist = _orbit_table(R, C, moved)
    reps, rep_index = np.unique(rep, return_inverse=True)
    cells = ((reps[:, None] >> np.arange(R * C)) & 1).astype(bool).reshape(-1, R, C)
    fq, fr, fc, fu, U, V = _orbit_flows(cells, row_cap, col_cap, scale)
    supp, rsum = np.zeros((2, len(reps), R), dtype=np.int64)
    csum = np.zeros((len(reps), C), dtype=np.int64)
    np.bitwise_or.at(supp, (fq, fr), 1 << fc)
    np.add.at(rsum, (fq, fr), fu)
    np.add.at(csum, (fq, fc), fu)
    cover = np.where(U, (1 << C) - 1, (V @ (1 << np.arange(C)))[:, None])

    factorial = np.array([math.factorial(k) for k in range(R + 1)], dtype=np.int64)
    masks = factorial[R] // factorial[hist].prod(axis=1)
    total = int(masks.sum())
    if total != 1 << (rows * cols):
        raise AssertionError(f"row multisets count {total} masks, not 2**{rows * cols}")
    # Each multiset in its representative's frame: columns moved by perms[p],
    # then rows sorted, each carrying its own index in the low four bits (R
    # <= 16 rows and codes < 16 share a byte), so rho[:, r] is the row that
    # lands on row r.
    codes = ((keys[:, None] >> C * np.arange(R)) & ((1 << C) - 1)).astype(np.uint8)
    tagged = np.sort((moved[(perm << C)[:, None] | codes] << 4) | np.arange(R, dtype=np.uint8), axis=1)
    codes, rho = tagged >> 4, tagged & 15
    rcap, ccap = row_cap[rho], col_cap[perms[perm]]
    supp, rsum, cover, U, csum, V = (w[rep_index] for w in (supp, rsum, cover, U, csum, V))

    # Every representative is some multiset's, so checking every flow entry
    # checks each multiset's entries; a representative with no flow has none.
    _check_witness_arrays(codes, fu, supp, rsum, rcap, csum, ccap, cover)
    gap = (U * rcap).sum(axis=1) + (V * ccap).sum(axis=1) - rsum.sum(axis=1)
    return total, int(masks[gap != 0].sum()), Fraction(int(np.abs(gap).max()), scale)


def _orbit_flows(cells: np.ndarray, row_cap, col_cap, scale: int) -> tuple[np.ndarray, ...]:
    """Every representative's flow and min cut, in `sweep`'s frame.

    `cells` holds Q representatives' R-by-C cells, each one small bipartite
    network under the caps, and `_lockstep_flow` solves them all at once.
    Returns the flow entries, every cell with nonzero units, as four arrays
    (representative, row, column, units), then U (Q by R), the rows the last
    residual search did not reach, and V (Q by C), the columns it reached,
    as boolean arrays.  The source-reachable set is the same for every
    maximum flow (Picard & Queyranne 1980), so U and V are those of
    `_max_flow` on each representative alone, though the flows may differ.
    """
    units, row_reached, col_reached = _lockstep_flow(cells, row_cap, col_cap, scale)
    fq, fr, fc = np.nonzero(units)
    return fq, fr, fc, units[fq, fr, fc], ~row_reached, col_reached


def _lockstep_flow(cells: np.ndarray, row_cap, col_cap, scale: int) -> tuple[np.ndarray, ...]:
    """Max flows of Q small bipartite networks at once, in int64 array passes.

    In network q the source feeds row r up to row_cap[r], column c drains up
    to col_cap[c] into the sink, and each true cell of cells[q] carries up
    to `scale`.  A greedy start fills the cells in row-major order, each by
    the least of its row's, its column's and its own room.  Then each round
    searches every residual network level by level, recording each node's
    parent, and every network that reaches a column with room pushes one
    shortest augmenting path by its bottleneck (Edmonds & Karp 1972).  Each
    such round raises a network's value by at least one unit, so more rounds
    than the total row cap plus one mean a defect, and raise AssertionError.
    Returns the units F (Q by R by C), then the rows and the columns the
    last search, which found no path and so ran to the end, reached from
    the source.
    """
    Q, R, C = cells.shape
    units = np.zeros((Q, R, C), dtype=np.int64)
    row_room = np.tile(np.asarray(row_cap, dtype=np.int64), (Q, 1))
    col_room = np.tile(np.asarray(col_cap, dtype=np.int64), (Q, 1))
    for r in range(R):
        for c in range(C):
            take = np.minimum(np.minimum(row_room[:, r], col_room[:, c]), scale) * cells[:, r, c]
            units[:, r, c] = take
            row_room[:, r] -= take
            col_room[:, c] -= take
    for _ in range(int(np.sum(row_cap)) + 1):
        forward, back = cells & (units < scale), units > 0
        row_reached, col_reached = row_room > 0, np.zeros((Q, C), dtype=bool)
        row_from = np.full((Q, R), -1)  # the column a row was reached from; -1 for the source
        col_from = np.zeros((Q, C), dtype=np.intp)
        found, end = np.zeros(Q, dtype=bool), np.zeros(Q, dtype=np.intp)
        rows = row_reached
        while rows.any():
            step = rows[:, :, None] & forward
            cols = step.any(axis=1) & ~col_reached
            col_from[cols] = step.argmax(axis=1)[cols]
            col_reached |= cols
            sink = cols & (col_room > 0)
            first = sink.any(axis=1) & ~found
            end[first] = sink.argmax(axis=1)[first]
            found |= first
            step = cols[:, None, :] & back
            rows = step.any(axis=2) & ~row_reached
            row_from[rows] = step.argmax(axis=2)[rows]
            row_reached |= rows
        if not found.any():
            return units, row_reached, col_reached
        _push_paths(units, np.flatnonzero(found), end, row_from, col_from, row_room, col_room, scale)
        row_room = row_cap - units.sum(axis=2)
        col_room = col_cap - units.sum(axis=1)
    raise AssertionError("lockstep max flow found paths after the total row cap plus one rounds")


def _push_paths(units, nets, end, row_from, col_from, row_room, col_room, scale) -> None:
    """Push one augmenting path in each network of `nets`, in place.

    A path runs back from the network's `end` column: a column's parent row
    fills it through a forward cell, and a row reached from a column gives
    back flow on that cell, until a row reached from the source.  The
    bottleneck is the least room along it: the end column's, each forward
    cell's up to `scale`, each back cell's flow and the first row's.  A path
    meets each cell at most once, so plain fancy-indexed `+=` pushes it.
    """
    at, col = np.arange(len(nets)), end[nets]
    bottleneck = col_room[nets, col]
    path = []
    while at.size:
        q = nets[at]
        row = col_from[q, col]
        back = row_from[q, row]
        first = back < 0
        room = np.where(first, row_room[q, row], units[q, row, back])
        bottleneck[at] = np.minimum(bottleneck[at], np.minimum(scale - units[q, row, col], room))
        path += [(at, q, row, col, 1), (at[~first], q[~first], row[~first], back[~first], -1)]
        at, col = at[~first], back[~first]
    for at, q, row, col, sign in path:
        units[q, row, col] += sign * bottleneck[at]


def _column_moves(C: int) -> tuple[np.ndarray, np.ndarray]:
    """The C! permutations of C columns, and what each does to a C-bit code.

    Returns (perms, moved): perms[p, c] is the column that permutation p
    brings to column c, and bit c of moved[p << C | code] is bit perms[p, c]
    of the code.
    """
    perms = np.array(list(permutations(range(C))))
    moved = ((np.arange(1 << C)[None, :, None] >> perms[:, None, :]) & 1) << np.arange(C)
    return perms, moved.sum(axis=2, dtype=np.uint8).ravel()


def _orbit_table(R: int, C: int, moved: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every multiset of R codes of C bits, with its orbit's representative.

    A mask in `sweep`'s frame is R row codes of C bits, row r at bits
    C*r..C*r+C-1 of its number; sorting its codes and packing them so gives
    its key, which names its multiset of rows.  Returns (keys, perm, rep,
    hist): every key, the column permutation (an index into
    `_column_moves(C)`) whose moved codes, sorted, pack least, that least
    packing, and the key's row-code histogram (hist[k, c] rows of code c).
    The representative is the same for all masks one row and column
    permutation apart, and no two other masks share it, so it names their orbit.

    Sorted packings order as the histograms read as numbers in base R + 1,
    sum_c hist[c] (R+1)**c: both compare the largest codes' counts first.  So
    one product ranks every key's C! moved images, and the first least rank
    picks the first permutation that packs least.  The ranks are integers of
    at most R (R+1)**(2**C - 1) <= 4 * 5**15 < 2**53 for R*C <= 16 and
    C <= 4, as are the product's partial sums, so float64 holds them exactly.
    """
    weights = 1 << C * np.arange(R)
    rows = combinations_with_replacement(range(1 << C), R)
    rows = np.fromiter(chain.from_iterable(rows), dtype=np.uint8).reshape(-1, R)
    K = len(rows)
    hist = np.bincount(((np.arange(K) << C)[:, None] | rows).ravel(), minlength=K << C).reshape(K, 1 << C)
    place = ((R + 1) ** moved.astype(np.int64)).reshape(-1, 1 << C).T.astype(np.float64)
    perm = (hist.astype(np.float64) @ place).argmin(axis=1)
    rep = np.sort(moved[(perm << C)[:, None] | rows], axis=1) @ weights
    return rows @ weights, perm, rep, hist


class ChainReport(Record):
    """Coupling and cover values along a nested chain of masks."""

    __slots__ = ("coupling_values", "cover_values")

    @property
    def nondecreasing(self) -> bool:
        return all(
            a <= b for a, b in zip(self.coupling_values, self.coupling_values[1:])
        ) and all(a <= b for a, b in zip(self.cover_values, self.cover_values[1:]))


def monotone_chain_check(
    chain: Sequence[SupportMask], caps: MarginalCaps | None = None
) -> ChainReport:
    """Values along an increasing chain W1 <= W2 <= ...; both sequences climb."""
    for idx, (a, b) in enumerate(zip(chain, chain[1:])):
        if not a.is_subset(b):
            raise NotNested(idx + 1)
    certs = [solve(mask, caps) for mask in chain]
    return ChainReport(tuple(c.value for c in certs), tuple(c.cover_cost for c in certs))


def full_coupling(mask: SupportMask, caps: MarginalCaps | None = None) -> Coupling:
    """A probability coupling living entirely on the mask.

    Exists exactly when no cross cover is cheaper than 1; otherwise the cheap
    cover is raised as the obstruction (DeficientSupport).  On success both
    marginals equal the caps exactly.
    """
    cert = solve(mask, caps)
    if cert.mass_units < cert.scale:  # value < 1, compared in integer units
        raise DeficientSupport(cert.cover, cert.cover_cost)
    return cert.coupling()


# ---------------------------------------------------------------------------
# Frequency profiles of periodic set sequences


class FrequencyProfile(Record):
    """Per-bin visit frequencies f, g and joint frequencies h of two sequences."""

    __slots__ = ("row_grid", "col_grid", "f", "g", "h")

    def residual(self) -> Fraction:
        """Largest deviation |h(i,j) - f(i) g(j)| over all cells."""
        f, g = np.array(self.f, dtype=object), np.array(self.g, dtype=object)
        return np.abs(np.array(self.h, dtype=object) - np.outer(f, g)).max(initial=_ZERO)

    @property
    def factorizes(self) -> bool:
        return self.residual() == 0

    @property
    def mean_f(self) -> Fraction:
        """Average of f over bins: the exact mass target for the witness row set."""
        return Fraction(sum(self.f, _ZERO), self.row_grid.n)

    @property
    def mean_g(self) -> Fraction:
        return Fraction(sum(self.g, _ZERO), self.col_grid.n)


def _periodic_rows(a_sets: Sequence[BinSet], b_sets: Sequence[BinSet], steps: int, what: str) -> tuple:
    """Grid and 0/1 rows of each sequence, row k marking set k mod its length, for k < steps.

    Both sequences must be nonempty and each on one grid, and steps times
    either bin count may not exceed the work budget; all checked before any
    row is made.  The rows are float64 so that products of them run in BLAS;
    the budget keeps every count they sum below 2**53, so the sums are exact.
    """
    if not a_sets or not b_sets:
        raise BadParameter("sequences must be nonempty")
    seqs = [(sets, sets[0].grid) for sets in (a_sets, b_sets)]
    for sets, grid in seqs:
        if any(s.grid != grid for s in sets):
            raise BadParameter("all sets in a sequence must share one grid")
        check_budget(f"{what} * bins", steps * grid.n)
    out = ()
    for sets, grid in seqs:
        rows = np.zeros((len(sets), grid.n))
        for k, s in enumerate(sets):
            rows[k, list(s.members)] = 1
        out += (grid, rows[np.arange(steps) % len(sets)])
    return out


def frequency_profile(
    a_sets: Sequence[BinSet],
    b_sets: Sequence[BinSet],
    horizon: int,
) -> FrequencyProfile:
    """Visit frequencies of two bin-set sequences over a finite horizon.

    The given lists are read as one period each and indices wrap, so a
    horizon divisible by both periods yields the exact limit frequencies as
    rationals with denominator dividing the horizon; a horizon no longer than
    either list reads them as finite prefixes (empirical frequencies).
    `horizon` times either grid's bin count may not exceed the work budget.
    """
    check_count("horizon", horizon)
    row_grid, a, col_grid, b = _periodic_rows(a_sets, b_sets, horizon, "horizon")
    f = tuple(Fraction(int(c), horizon) for c in a.sum(0))
    g = tuple(Fraction(int(c), horizon) for c in b.sum(0))
    h = tuple(tuple(Fraction(int(c), horizon) for c in row) for row in a.T @ b)
    return FrequencyProfile(row_grid, col_grid, f, g, h)


def periodic_limsup_mask(
    a_sets: Sequence[BinSet], b_sets: Sequence[BinSet]
) -> SupportMask:
    """Cells hit by A_k x B_k for infinitely many k, exact for periodic input:
    those hit within one joint period, which times either bin count may not
    exceed the work budget."""
    period = math.lcm(len(a_sets), len(b_sets))
    _, a, _, b = _periodic_rows(a_sets, b_sets, period, "period")
    return SupportMask(a.T @ b > 0)


def product_limsup_witness(
    profile: FrequencyProfile,
    limsup_mask: SupportMask,
    a_target: Fraction | None = None,
    b_target: Fraction | None = None,
) -> tuple[BinSet, BinSet]:
    """Witness rectangle A x B inside the limsup from a factorizing profile.

    A is the support of f and B the support of g.  Raises
    FactorizationFailure when h != f*g somewhere (the identity is only
    guaranteed along subsequences in general; this artifact reports rather
    than extracts).  When mass targets are supplied the witness measures are
    checked against them exactly.
    """
    shape = (profile.row_grid.n, profile.col_grid.n)
    if limsup_mask.cells.shape != shape:
        raise BadParameter(
            f"limsup mask shape {limsup_mask.cells.shape} does not match the profile's bins {shape}"
        )
    residual = profile.residual()
    if residual != 0:
        raise FactorizationFailure(residual)
    rows = [i for i, v in enumerate(profile.f) if v > 0]
    cols = [j for j, v in enumerate(profile.g) if v > 0]
    missing = np.argwhere(~limsup_mask.cells[np.ix_(rows, cols)])
    if missing.size:
        i, j = missing[0]
        raise BadParameter(
            f"limsup mask misses cell ({rows[i]},{cols[j]}); it does not match the profile"
        )
    a_set, b_set = BinSet(profile.row_grid, frozenset(rows)), BinSet(profile.col_grid, frozenset(cols))
    if a_target is not None and a_set.measure < a_target:
        raise BadParameter(f"witness row set measure {a_set.measure} < {a_target}")
    if b_target is not None and b_set.measure < b_target:
        raise BadParameter(f"witness column set measure {b_set.measure} < {b_target}")
    return a_set, b_set
