"""The frozen record classes: construction, immutability, field equality and hashing, repr.

Every value class of the package derives from `dcset.records.Record`.  Each
case below builds two instances from equal fields; fields that are arrays are
one shared object, since arrays compare elementwise.
"""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dcset
from dcset import (
    BinSet,
    Certificate,
    ChainReport,
    Cover,
    CyclicShift,
    Enumeration,
    FatCantor,
    FrequencyProfile,
    MarginalCaps,
    Seed,
    SupportMask,
    UnitGrid,
    fat_cantor_build,
    solve,
)
from dcset.generators import RevealingSelectors, WalkPath
from dcset.records import Record
from dcset.selector import Ensemble, SelectorTable, sample_ensemble
from dcset.stats import ShiftHitCurve
from dcset.stats import TestReport as Report  # not a test class

HALF = Fraction(1, 2)
POINTS = np.array([0.25, 0.5, 0.75])
ENUM = Enumeration(POINTS, depth=3, provenance="sample")
INDEX = np.arange(3)
WALK = np.array([0.0, 0.5, -0.25])
MASK = SupportMask([[1, 0], [1, 1]])

# (class, factory, hashable): two calls of the factory give equal fields.
CASES = [
    (UnitGrid, lambda: UnitGrid(4), True),
    (BinSet, lambda: BinSet(UnitGrid(4), frozenset({1, 3})), True),
    (CyclicShift, lambda: CyclicShift(Fraction(1, 4)), True),
    (FatCantor, lambda: FatCantor(1, ((Fraction(1, 3), Fraction(2, 3)),)), True),
    (Seed, lambda: Seed(7, 2), True),
    (Enumeration, lambda: Enumeration(POINTS, depth=3, provenance="sample"), False),
    (WalkPath, lambda: WalkPath(2, WALK), False),
    (RevealingSelectors, lambda: RevealingSelectors(ENUM, ENUM, ENUM, POINTS, ENUM), False),
    (SelectorTable, lambda: SelectorTable(POINTS, INDEX), False),
    (Report, lambda: Report("t", 1.0, 2.0, 0.01, True, 40, 1), False),
    (ShiftHitCurve, lambda: ShiftHitCurve((4,), (2.0,), (2.0,), (2.0,), 10, 1), True),
    (MarginalCaps, lambda: MarginalCaps((HALF, HALF), (1,)), True),
    (Cover, lambda: Cover(frozenset({0}), frozenset()), True),
    (Certificate, lambda: solve(MASK), False),
    (ChainReport, lambda: ChainReport((HALF, 1), (HALF, 1)), True),
    (FrequencyProfile, lambda: FrequencyProfile(UnitGrid(1), UnitGrid(1), (1,), (1,), ((1,),)), True),
]


def same(left, right) -> bool:
    """Equal fields, arrays compared elementwise, records field by field."""
    if isinstance(left, Record):
        return type(left) is type(right) and all(map(same, left._values(), right._values()))
    if isinstance(left, np.ndarray):
        return np.array_equal(left, right)
    return left == right


def test_every_record_class_is_covered():
    tested = {cls for cls, _, _ in CASES} | {Ensemble}
    assert set(Record.__subclasses__()) == tested


@pytest.mark.parametrize("cls, make, hashable", CASES, ids=[cls.__name__ for cls, _, _ in CASES])
class TestRecord:
    def test_fields_bind_by_keyword_as_by_position(self, cls, make, hashable):
        record = make()
        by_position = cls(*record._values())
        by_keyword = cls(**{name: getattr(record, name) for name in reversed(cls._fields)})
        assert same(by_keyword, by_position) and same(by_position, record)

    def test_refuses_assignment_and_deletion(self, cls, make, hashable):
        record = make()
        assert type(record) is cls
        name = record._fields[0]
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) is value

    def test_equal_fields_compare_and_hash_equal(self, cls, make, hashable):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert a != object()
        if hashable:
            assert hash(a) == hash(b) == hash(a._values())
            assert {a: 1}[b] == 1
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_copies_keep_the_fields(self, cls, make, hashable):
        record = make()
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert same(clone, record)


A, B = frozenset({0}), frozenset({1})


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((A, B), {"W": B}, "Cover() has no field 'W'"),
        ((A,), {"U": B}, "Cover() got field 'U' twice"),
        ((A,), {}, "Cover() missing field(s) 'V'"),
        ((), {}, "Cover() missing field(s) 'U', 'V'"),
        ((A, B, A), {}, "Cover() takes 2 fields, got 3"),
    ],
    ids=["unknown", "repeated", "missing", "none", "extra"],
)
def test_bad_binding_raises_type_error(args, kwargs, message):
    with pytest.raises(TypeError) as info:
        Cover(*args, **kwargs)
    assert str(info.value) == message


def test_fields_are_stored_only_by_record():
    # Outside records.py, object.__setattr__ may set only a private slot, named
    # by a string literal; every field goes through Record.__init__.
    found = []
    for path in sorted(Path(dcset.__file__).parent.glob("*.py")):
        if path.name == "records.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
                name = node.args[1] if len(node.args) > 1 else None
                if not (isinstance(name, ast.Constant) and str(name.value).startswith("_")):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, "fields set outside Record.__init__ at " + ", ".join(found)


def test_ensemble_compares_by_identity():
    a = sample_ensemble(4, 3, UnitGrid(2), 1)
    b = Ensemble._packed(a.points, a.lengths, a.grid)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    with pytest.raises(AttributeError):
        a.grid = UnitGrid(3)
    assert a.first_index.shape == (3, 2)  # cached_property keeps a __dict__


def test_fields_differ_and_classes_differ():
    assert Seed(7) != Seed(7, 1)
    assert UnitGrid(4) != BinSet(UnitGrid(4))
    middle_third = ((Fraction(1, 3), Fraction(2, 3)),)
    assert FatCantor(1, middle_third) != FatCantor(2, middle_third)


def test_defaults_are_fresh_and_empty():
    assert BinSet(UnitGrid(2)).members == frozenset()
    a = Report("t", 1.0, 2.0, 0.01, True)
    b = Report("t", 1.0, 2.0, 0.01, True)
    assert a.details == {} and a.details is not b.details
    assert (a.replicas, a.seed) == (None, None)


def test_reprs_match_the_dataclass_reprs():
    assert repr(Seed(7)) == "Seed(value=7, replica=0)"
    assert repr(UnitGrid(4)) == "UnitGrid(n=4)"
    assert repr(Cover(frozenset({0}), frozenset())) == "Cover(U=frozenset({0}), V=frozenset())"
    assert repr(CyclicShift(0.25)) == "CyclicShift(s=0.25)"


def test_fat_cantor_copy_keeps_its_units():
    cantor = FatCantor(1, ((Fraction(1, 3), Fraction(2, 3)),))
    cantor.float_segments  # fills the cached_property's __dict__ entry
    clone = copy.deepcopy(cantor)
    assert clone.measure == cantor.measure == Fraction(2, 3)
    assert clone.contains_points(np.array([0.2, 0.5])).tolist() == [True, False]


def _built_cantor() -> FatCantor:
    # Built over the unit scale 2048, while its cut ends reduce to at most 128.
    return fat_cantor_build(HALF, 3)


def test_built_fat_cantor_equals_its_rational_form():
    built = _built_cantor()
    given = FatCantor(3, built.removed)
    assert given._scale < built._scale
    assert built == given and hash(built) == hash(given) and repr(built) == repr(given)
    assert FatCantor(depth=3, removed=built.removed) == given


def test_fat_cantor_copies_taken_before_removed_is_read():
    built = _built_cantor()
    for clone in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert "removed" not in built.__dict__ and "removed" not in clone.__dict__
        assert clone == _built_cantor() and hash(clone) == hash(_built_cantor())


def test_fat_cantor_forms_removed_only_when_read():
    cantor = _built_cantor()
    assert cantor.gap_measure == Fraction(7, 16) and cantor.measure == Fraction(9, 16)
    cantor.float_segments
    assert cantor.contains_points(np.array([0.01, 0.5])).tolist() == [True, False]
    assert "removed" not in cantor.__dict__
    assert cantor.removed[0] == (Fraction(9, 128), Fraction(11, 128))
    assert "removed" in cantor.__dict__
