"""The value semantics of the nine record classes: equality and hash on
their compared fields, the exact repr, the defaults, and frozen fields (a
mutable, unhashable ComparisonReport aside)."""

from dataclasses import FrozenInstanceError

import pytest

from digicon import (
    BinaryArray,
    BlockProfile,
    ComparisonReport,
    CyclicBinaryString,
    EnumerationBudget,
    Graph,
    LinearRecurrence,
    PowerSeries,
    VertexSet,
)

PATH_2 = ((1,), (0,))

# record, a separately built equal record, an unequal one, its compared
# fields (their tuple is the hash), and its exact repr
FROZEN = [
    (VertexSet(3, 5), VertexSet(universe=3, mask=5), VertexSet(3, 4), (3, 5),
     "VertexSet(universe=3, mask=5)"),
    (Graph(2, PATH_2, "P_2"), Graph(2, PATH_2), Graph(2, ((), ())), (2, PATH_2),
     "Graph(order=2, adjacency=((1,), (0,)), family='P_2')"),
    (EnumerationBudget(1 << 26), EnumerationBudget(), EnumerationBudget(5), (1 << 26,),
     "EnumerationBudget(max_subsets=67108864)"),
    (CyclicBinaryString((1, 0, 1)), CyclicBinaryString([1, 0, 1]), CyclicBinaryString((1, 1, 0)),
     ((1, 0, 1),), "CyclicBinaryString(bits=(1, 0, 1))"),
    (BlockProfile(((1, 2), (0, 1))), BlockProfile(runs=((1, 2), (0, 1))),
     BlockProfile(((1, 3),)), (((1, 2), (0, 1)),), "BlockProfile(runs=((1, 2), (0, 1)))"),
    (BinaryArray(((1, 0), (0, 1))), BinaryArray([[1, 0], [0, 1]]), BinaryArray(((1, 0),)),
     (((1, 0), (0, 1)),), "BinaryArray(cells=((1, 0), (0, 1)))"),
    (PowerSeries((1, 2, 3)), PowerSeries([1, 2, 3]), PowerSeries((1, 2)), ((1, 2, 3),),
     "PowerSeries(coefficients=(1, 2, 3))"),
]


@pytest.mark.parametrize("record, same, other, fields, text", FROZEN,
                         ids=[type(case[0]).__name__ for case in FROZEN])
def test_frozen_record_value_semantics(record, same, other, fields, text):
    assert record == same and not record != same
    assert record != other and not record == other
    assert hash(record) == hash(same) == hash(fields)
    assert repr(record) == text
    # a record equals no object of another class, even one with equal fields
    assert record != fields
    assert record.__eq__(fields) is NotImplemented
    assert len({record, same, other}) == 2


@pytest.mark.parametrize("record", [case[0] for case in FROZEN],
                         ids=[type(case[0]).__name__ for case in FROZEN])
def test_frozen_record_refuses_assignment_and_deletion(record):
    field = repr(record).split("(", 1)[1].split("=", 1)[0]
    before = repr(record)
    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    # a name that is no field is refused too
    with pytest.raises(FrozenInstanceError):
        record.extra = 1
    assert repr(record) == before


def test_record_defaults():
    assert VertexSet(4) == VertexSet(4, 0)
    assert VertexSet(4).mask == 0
    assert Graph(2, PATH_2).family is None
    assert EnumerationBudget().max_subsets == 1 << 26
    assert EnumerationBudget._fields == ("max_subsets",)


def test_graph_family_and_closed_masks_are_not_compared_or_shown():
    g = Graph(2, PATH_2, "P_2")
    h = Graph(2, PATH_2, family="other")
    assert g == h and hash(g) == hash(h) == hash((2, PATH_2))
    assert g.closed_masks == (3, 3)
    assert "closed_masks" not in repr(g)
    assert repr(Graph(2, PATH_2)) == "Graph(order=2, adjacency=((1,), (0,)), family=None)"
    for name in ("family", "closed_masks"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(g, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(g, name)
    # closed_masks is computed, never passed
    with pytest.raises(TypeError):
        Graph(2, PATH_2, None, (3, 3))
    with pytest.raises(TypeError):
        Graph(order=2, adjacency=PATH_2, closed_masks=(3, 3))


def test_linear_recurrence_is_frozen_and_unhashable():
    rec = LinearRecurrence(((1, 1), (2, 1)), {0: 0, 1: 1}, 2)
    same = LinearRecurrence(taps=[(1, 1), (2, 1)], initial_terms={1: 1, 0: 0},
                            first_recurrent_index=2)
    assert rec == same and rec != LinearRecurrence(((1, 1),), {0: 0, 1: 1}, 2)
    assert rec.__eq__(((1, 1), (2, 1))) is NotImplemented
    assert repr(rec) == ("LinearRecurrence(taps=((1, 1), (2, 1)), initial_terms={0: 0, 1: 1}, "
                         "first_recurrent_index=2)")
    # the initial terms are a dict, so the hash of the fields fails
    with pytest.raises(TypeError, match="unhashable"):
        hash(rec)
    for name in ("taps", "initial_terms", "first_recurrent_index"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(rec, name)


def test_comparison_report_is_mutable_and_unhashable():
    report = ComparisonReport(3)
    assert repr(report) == ("ComparisonReport(matched=3, mismatches=[], only_left=[], "
                            "only_right=[])")
    other = ComparisonReport(matched=3)
    # each report gets its own default lists
    assert report.mismatches is not other.mismatches
    assert report.only_left is not other.only_left
    assert report.only_right is not other.only_right
    assert report == other
    report.mismatches.append((1, 2, 3))
    assert report != other and other.mismatches == []
    report.matched = 4
    assert report == ComparisonReport(4, [(1, 2, 3)], [], [])
    assert report.__eq__((4, [(1, 2, 3)], [], [])) is NotImplemented
    del report.only_left
    assert not hasattr(report, "only_left")
    with pytest.raises(TypeError, match="unhashable"):
        hash(other)
    assert ComparisonReport.__hash__ is None
