"""The package's eight value records: construction, repr, equality,
hashing, immutability, pickle and copy."""

import copy
import pickle

import pytest

from critforge import (
    AbelianGroup,
    ArithmeticalStructure,
    ArithStructError,
    BroomPlan,
    EnumerationConfig,
    ExactLinalgError,
    GraphError,
    IntegerMatrix,
    SmithDecomposition,
    StarlikeDecomposition,
    StarlikeSplitting,
    Tentacle,
    build_tree,
    plan_broom,
    smith_normal_form,
    starlike_decomposition,
    structure_from_r,
)

DOUBLE_STAR = [("a", "b"), ("b", "c"), ("b", "d"), ("d", "e"), ("d", "f")]
PIECE = "Tree([('a', 'b', 1), ('b', 'b*', 1), ('b', 'c', 1)])"
ARMS = "(Tentacle(vertices=('a',), attachment='b'), Tentacle(vertices=('c',), attachment='b'))"
SPLITTING = (f"StarlikeSplitting(piece={PIECE}, merge_leaf='b*', target='d', regular=False, "
             f"center='b', tentacles={ARMS})")
FIELDS = {
    Tentacle: ("vertices", "attachment"),
    SmithDecomposition: ("source", "left", "d", "right"),
    AbelianGroup: ("invariant_factors",),
    StarlikeSplitting: ("piece", "merge_leaf", "target", "regular", "center", "tentacles"),
    StarlikeDecomposition: ("pieces", "splittings", "irregular_count", "_tentacles"),
    EnumerationConfig: ("r_bound", "vertex_cap"),
    BroomPlan: ("target", "center_value", "prong_values", "tail_values"),
}


def frozen_records():
    """One of each frozen record, with its literal repr."""
    dec = starlike_decomposition(build_tree(DOUBLE_STAR))
    return [
        (Tentacle(("b", "c"), "a"), "Tentacle(vertices=('b', 'c'), attachment='a')"),
        (smith_normal_form(IntegerMatrix([[2]])),
         "SmithDecomposition(source=IntegerMatrix([[2]]), left=IntegerMatrix([[1]]), "
         "d=IntegerMatrix([[2]]), right=IntegerMatrix([[1]]))"),
        (AbelianGroup((3, 18)), "AbelianGroup(invariant_factors=(3, 18))"),
        (dec.splittings[0], SPLITTING),
        (dec, f"StarlikeDecomposition(pieces=({PIECE}, Tree([('d', 'e', 1), ('d', 'f', 1)])), "
              f"splittings=({SPLITTING},), irregular_count=1)"),
        (EnumerationConfig(r_bound=7), "EnumerationConfig(r_bound=7, vertex_cap=12)"),
        (plan_broom(AbelianGroup((3,)), 1),
         "BroomPlan(target=AbelianGroup(invariant_factors=(3,)), center_value=9, "
         "prong_values=(3, 1), tail_values=(5, 1))"),
    ]


def structure():
    return structure_from_r(build_tree([("a", "b")]), {"a": 1, "b": 1})


def test_reprs_are_literal():
    for rec, text in frozen_records():
        assert repr(rec) == text
    assert repr(structure()) == (
        "ArithmeticalStructure(graph=Tree([('a', 'b', 1)]), r={'a': 1, 'b': 1}, "
        "d={'a': 1, 'b': 1})")


def test_defaults():
    assert AbelianGroup() == AbelianGroup(()) == AbelianGroup.trivial()
    assert repr(AbelianGroup()) == "AbelianGroup(invariant_factors=())"
    cfg = EnumerationConfig()
    assert (cfg.r_bound, cfg.vertex_cap) == (60, 12)
    assert EnumerationConfig(5) == EnumerationConfig(r_bound=5, vertex_cap=12)


def test_equality_and_hash_follow_the_fields():
    for rec, _ in frozen_records():
        values = [getattr(rec, f) for f in FIELDS[type(rec)]]
        twin = type(rec)(*values)
        assert twin == rec and hash(twin) == hash(rec)
        assert rec != tuple(values)
    assert Tentacle(("b",), "a") != Tentacle(("b",), "c")
    assert hash(AbelianGroup((2,))) == hash(((2,),))
    g = AbelianGroup([2, 4])
    assert g.invariant_factors == (2, 4) and g == AbelianGroup((2, 4))
    m = IntegerMatrix([[1]])
    assert SmithDecomposition(m, m, m, m) != SmithDecomposition(m, m, IntegerMatrix([[0]]), m)
    t = build_tree([("a", "b"), ("b", "c")])
    sp = StarlikeSplitting(t, "a", "x", True, "b", ())
    assert sp != StarlikeSplitting(t, "a", "x", False, "b", ())
    plan = BroomPlan(AbelianGroup(), 1, (1,), (1,))
    assert plan != BroomPlan(AbelianGroup(), 1, (1,), (1, 1))


def test_decomposition_tentacles_stay_out_of_value_and_repr():
    dec = starlike_decomposition(build_tree(DOUBLE_STAR))
    bare = StarlikeDecomposition(dec.pieces, dec.splittings, dec.irregular_count, ((), ()))
    assert bare == dec and hash(bare) == hash(dec)
    assert repr(bare) == repr(dec)
    assert "_tentacles" not in repr(dec)
    assert dec.tentacles(0) != bare.tentacles(0) == ()
    assert bare != StarlikeDecomposition(dec.pieces, dec.splittings, 0, ((), ()))


def test_frozen_records_refuse_assignment():
    for rec, _ in frozen_records():
        for name in (*FIELDS[type(rec)], "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)


def test_structures_are_mutable_and_unhashable():
    s = structure()
    s.r = {"a": 2, "b": 2}
    assert s.r == {"a": 2, "b": 2}
    assert s != structure()
    with pytest.raises(TypeError):
        hash(s)
    assert ArithmeticalStructure(s.graph, {"a": 1, "b": 1}, {"a": 1, "b": 1}) == structure()


@pytest.mark.parametrize("protocol", [2, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
def test_pickle_round_trips(protocol):
    for rec, _ in frozen_records() + [(structure(), None)]:
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is type(rec) and back == rec
        assert repr(back) == repr(rec)
    dec = starlike_decomposition(build_tree(DOUBLE_STAR))
    assert pickle.loads(pickle.dumps(dec, protocol)).tentacles(0) == dec.tentacles(0)


def test_copies_are_equal():
    for rec, _ in frozen_records() + [(structure(), None)]:
        for dup in (copy.copy(rec), copy.deepcopy(rec)):
            assert type(dup) is type(rec) and dup == rec
    s = structure()
    dup = copy.deepcopy(s)
    dup.r["a"] = 5
    assert s.r["a"] == 1


def test_construction_checks_and_their_messages():
    with pytest.raises(GraphError, match="tentacle needs at least one vertex"):
        Tentacle((), "a")
    with pytest.raises(ExactLinalgError, match=r"invariant factor 2\.0 is not an integer"):
        AbelianGroup((2.0,))
    with pytest.raises(ExactLinalgError, match="invariant factor True is not an integer"):
        AbelianGroup((True,))
    with pytest.raises(ValueError, match="invariant factor 1 is below 2"):
        AbelianGroup((1, 2))
    with pytest.raises(ValueError, match=r"4 does not divide 2 in \(4, 2\)"):
        AbelianGroup((4, 2))
    with pytest.raises(ValueError, match="r_bound must be a positive integer, got 0"):
        EnumerationConfig(r_bound=0)
    with pytest.raises(ValueError, match="vertex_cap must lie in 1..12, got 13"):
        EnumerationConfig(vertex_cap=13)
    t = build_tree([("a", "b")])
    with pytest.raises(ArithStructError, match=r"r\(b\) = 1\.5 is not an integer"):
        ArithmeticalStructure(t, {"a": 1, "b": 1.5}, {"a": 1, "b": 1})
    with pytest.raises(ArithStructError, match=r"d\(a\) = True is not an integer"):
        ArithmeticalStructure(graph=t, r={"a": 1, "b": 1}, d={"a": True, "b": 1})
