"""The value classes keep the behaviour they had as frozen dataclasses.

``ContinuedFraction``, ``SymbolicPath``, ``EnclosingBracket``, ``HarosGraph``
and ``DegreeDistribution`` are plain classes on one base: the
same repr text, equality, hashing, immutability, copying and ``match``
patterns, and constructors that check what they are given.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from harosgraph import (
    BracketSide,
    ContinuedFraction,
    DegreeDistribution,
    EnclosingBracket,
    HarosGraph,
    NotRationalError,
    SymbolicPath,
    build,
    cf_form_distribution,
    symbolic_path,
)

# One instance of each class, with its repr as the frozen dataclasses printed it
VALUES = [
    (ContinuedFraction((2, 3, 3)), "ContinuedFraction(terms=(2, 3, 3))"),
    (symbolic_path(Fraction(10, 23)), "SymbolicPath(runs=(('L', 2), ('R', 3), ('L', 2)))"),
    (
        EnclosingBracket(
            Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), BracketSide.UPPER_SUBINTERVAL
        ),
        "EnclosingBracket(lower=Fraction(1, 3), pivot=Fraction(2, 5), upper=Fraction(3, 7), "
        "side=<BracketSide.UPPER_SUBINTERVAL: 'upper-subinterval'>)",
    ),
    (
        build(Fraction(10, 23)),
        "HarosGraph(label=Fraction(10, 23), degrees=(5, 3, 2, 5, 2, 5, 2, 8, 3, 2, 5, 2, 5, "
        "2, 8, 3, 2, 5, 2, 5, 2, 5, 2, 5))",
    ),
    (
        cf_form_distribution(Fraction(10, 23)),
        "DegreeDistribution(counts=mappingproxy({2: 10, 3: 3, 5: 7, 8: 2, 10: 1}), "
        "denominator=23)",
    ),
]
IDS = [type(value).__name__ for value, _ in VALUES]
# Another value of each class
OTHERS = {
    ContinuedFraction: ContinuedFraction((2, 3)),
    SymbolicPath: symbolic_path(Fraction(1, 3)),
    EnclosingBracket: EnclosingBracket(None, None, None, BracketSide.ELSEWHERE),
    HarosGraph: build(Fraction(1, 3)),
    DegreeDistribution: cf_form_distribution(Fraction(1, 3)),
}
FIELDS = {
    ContinuedFraction: ("terms",),
    SymbolicPath: ("runs",),
    EnclosingBracket: ("lower", "pivot", "upper", "side"),
    HarosGraph: ("label", "degrees"),
    DegreeDistribution: ("counts", "denominator"),
}


def _fields(value):
    return {name: getattr(value, name) for name in FIELDS[type(value)]}


def _unpack(value):
    match value:
        case ContinuedFraction(terms):
            return (terms,)
        case SymbolicPath(runs):
            return (runs,)
        case EnclosingBracket(lower, pivot, upper, side):
            return lower, pivot, upper, side
        case HarosGraph(label, degrees):
            return label, degrees
        case DegreeDistribution(counts, denominator):
            return counts, denominator


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_repr_is_the_dataclass_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", [value for value, _ in VALUES], ids=IDS)
class TestValueClass:
    def test_keyword_construction_gives_an_equal_value(self, value):
        again = type(value)(**_fields(value))
        assert again == value and not again != value
        assert again is not value
        if isinstance(value, DegreeDistribution):
            # as before: the read-only counts are not hashable
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
        else:
            assert hash(again) == hash(value) == hash(tuple(_fields(value).values()))

    def test_unequal_to_another_class_and_to_another_value(self, value):
        for other, _ in VALUES:
            if type(other) is not type(value):
                assert value != other
                assert value.__eq__(other) is NotImplemented
        assert value != tuple(_fields(value).values())
        other = OTHERS[type(value)]
        assert value != other and not value == other

    def test_positional_match_pattern(self, value):
        assert type(value).__match_args__ == FIELDS[type(value)]
        assert _unpack(value) == tuple(_fields(value).values())

    def test_fields_and_new_names_cannot_be_set_or_deleted(self, value):
        before = _fields(value)
        for name in (*FIELDS[type(value)], "extra"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
        assert _fields(value) == before
        assert not hasattr(value, "extra")

    @pytest.mark.parametrize(
        "roundtrip",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal_and_stay_immutable(self, value, roundtrip):
        again = roundtrip(value)
        assert again == value and type(again) is type(value)
        assert repr(again) == repr(value)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(again, FIELDS[type(value)][0], None)
        if isinstance(value, DegreeDistribution):
            with pytest.raises(TypeError):
                again.counts[2] = 1


# Each was accepted, or died on a bare TypeError or unpacking ValueError
@pytest.mark.parametrize(
    "cls, args, named",
    [
        (DegreeDistribution, (None, 3), "NoneType"),
        (DegreeDistribution, ([5, 6], 3), "list"),
        (SymbolicPath, ([5],), "int"),
        (SymbolicPath, (["L"],), "str"),
        (SymbolicPath, ([("L", 1, 2)],), "tuple"),
        (SymbolicPath, (None,), "NoneType"),
        (HarosGraph, (0.5, "abc"), "float"),
        (HarosGraph, (Fraction(1, 2), None), "NoneType"),
    ],
    ids=[
        "DegreeDistribution(None)", "DegreeDistribution([5, 6])",
        "SymbolicPath([5])", "SymbolicPath(['L'])", "SymbolicPath([('L', 1, 2)])",
        "SymbolicPath(None)",
        "HarosGraph(0.5, 'abc')", "HarosGraph(1/2, None)",
    ],
)
def test_bad_constructor_input_is_a_package_type_error(cls, args, named):
    with pytest.raises(NotRationalError, match=named):
        cls(*args)


def test_sequences_are_held_as_tuples():
    graph = HarosGraph(Fraction(1, 2), [2, 3, 1])
    assert graph.degrees == (2, 3, 1) and isinstance(graph.degrees, tuple)
    degrees = build(Fraction(10, 23)).degrees
    assert HarosGraph(Fraction(10, 23), degrees).degrees is degrees
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        HarosGraph(Fraction(3, 2), (1, 1))
