"""Splitting trees into starlike pieces and the invariants that follow."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import max_two_matching, peripheral_split, reference_decomposition
from corpus import (
    all_trees,
    double_star_tree,
    fixture_tree,
    only_cyclic_shape,
    running_example_tree,
    path_tree,
    random_name_tree,
    star_tree,
)
from critforge import (
    CyclicClass,
    Tree,
    build_tree,
    critical_group,
    cyclic_classification,
    has_adjacent_branch_vertices,
    invariant_factor_bound,
    iota,
    merge_structures,
    starlike_decomposition,
    starlike_split,
    structure_from_r,
    subdivide,
    tentacles,
    two_matching_number,
    wedge,
)


def brute_nu2(t):
    return max_two_matching([(u, v) for u, v, _ in t.edges()])


def test_split_reproduces_the_worked_example():
    t = running_example_tree()
    sp = starlike_split(t)
    assert sp.center == "w02"
    assert sp.merge_leaf == "w02*"
    assert sp.target == "w01"
    assert not sp.regular
    assert sorted(sp.piece.leaves) == ["w02*", "w04", "w05", "w15"]
    assert sp.piece.vertex_count == 6
    assert sp.remainder.vertex_count == 9
    assert sorted(sp.remainder.vertices) == [
        "w01", "w06", "w07", "w08", "w09", "w10", "w11", "w12", "w13",
    ]


def test_split_from_the_other_end():
    sp = starlike_split(running_example_tree(), prefer="highest")
    assert sp.center == "w08"
    assert sp.target == "w07"
    assert sp.regular
    assert sorted(sp.piece.leaves) == ["w08*", "w09", "w10"]


def test_split_returns_none_when_nothing_to_do():
    assert starlike_split(path_tree(6)) is None
    assert starlike_split(star_tree(5)) is None
    with pytest.raises(ValueError):
        starlike_split(running_example_tree(), prefer="middle")


def assert_split_matches_the_definition(t):
    """starlike_split against the independent peripheral_split oracle."""
    edges = [(u, v) for u, v, _ in t.edges()]
    for prefer in ("lowest", "highest"):
        sp = starlike_split(t, prefer=prefer)
        want = peripheral_split(edges, prefer)
        if want is None:
            assert sp is None
            continue
        center, piece, target = want
        assert sp.center == center
        assert sp.target == target
        assert set(sp.piece.vertices) - {sp.merge_leaf} == piece
        assert set(sp.remainder.vertices) == set(t.vertices) - piece
        assert sp.regular == (t.degree(target) == 2)


def test_split_matches_the_definition_on_every_small_shape():
    shapes = all_trees(11)
    assert len(shapes) == 435
    for t in shapes:
        assert_split_matches_the_definition(t)


def test_split_matches_the_definition_on_random_name_trees():
    rng = random.Random(13)
    for n in range(10, 201, 5):
        for _ in range(2):
            assert_split_matches_the_definition(random_name_tree(rng, n))


def test_decomposition_of_the_worked_example():
    t = running_example_tree()
    dec = starlike_decomposition(t)
    assert [len(p.leaves) for p in dec.pieces] == [4, 3, 3]
    assert len(dec.splittings) == 2
    assert dec.irregular_count == 1
    rebuilt = dec.last_piece
    for sp in reversed(dec.splittings):
        rebuilt = wedge(rebuilt, sp.target, sp.piece, sp.merge_leaf)
    assert rebuilt == t


def edge_set(t):
    return {(u, v) for u, v, _ in t.edges()}


def assert_decomposition_matches_the_reference(t):
    """starlike_decomposition against repeated peripheral_split, for both
    orders, with every remainder read."""
    edges = [(u, v) for u, v, _ in t.edges()]
    for prefer in ("lowest", "highest"):
        dec = starlike_decomposition(t, prefer=prefer)
        splits, last = reference_decomposition(edges, prefer)
        assert len(dec.splittings) == len(splits) == len(dec.pieces) - 1
        for sp, piece, want in zip(dec.splittings, dec.pieces, splits):
            center, piece_edges, leaf, target, regular, rest = want
            assert sp.piece is piece
            assert (sp.center, sp.merge_leaf, sp.target, sp.regular) == (
                center, leaf, target, regular,
            )
            assert edge_set(piece) == piece_edges
            assert edge_set(sp.remainder) == rest
        assert edge_set(dec.last_piece) == last
        assert dec.irregular_count == sum(not want[4] for want in splits)


def test_decomposition_matches_the_reference_on_every_small_shape():
    shapes = all_trees(12)
    assert len(shapes) == 986
    for t in shapes:
        assert_decomposition_matches_the_reference(t)


def test_decomposition_matches_the_reference_on_random_name_trees():
    rng = random.Random(15)
    for k in range(100):
        assert_decomposition_matches_the_reference(
            random_name_tree(rng, 10 + 290 * k // 99)
        )


def assert_pieces_carry_their_tentacles(t):
    """dec.tentacles(i) against a fresh walk of piece i, merge leaf left out."""
    for prefer in ("lowest", "highest"):
        dec = starlike_decomposition(t, prefer=prefer)
        k = len(dec.pieces)
        for i, piece in enumerate(dec.pieces):
            leaf = dec.merge_leaf(i) if i < len(dec.splittings) else None
            want = tuple(ten for ten in tentacles(piece) if ten.leaf != leaf)
            assert dec.tentacles(i) == dec.tentacles(i - k) == want
        for sp in dec.splittings:
            assert sp.piece.branch_vertices == (sp.center,)
            assert {ten.attachment for ten in sp.tentacles} == {sp.center}
        with pytest.raises(IndexError):
            dec.tentacles(k)


def test_pieces_carry_their_tentacles_on_every_small_shape():
    for t in all_trees(8):
        assert_pieces_carry_their_tentacles(t)


def test_pieces_carry_their_tentacles_on_random_name_trees():
    rng = random.Random(1616)
    for n in (10, 20, 40, 80, 160, 300):
        for _ in range(3):
            assert_pieces_carry_their_tentacles(random_name_tree(rng, n))


def test_decomposition_matches_the_reference_where_star_names_are_taken():
    # vertex k is named "v" and k stars, so each fresh "c*" must step
    # past a vertex of the piece, of the remainder, or of an earlier piece
    for t in all_trees(9):
        for order in (t.vertices, t.vertices[::-1]):
            name = {v: "v" + "*" * k for k, v in enumerate(order)}
            assert_decomposition_matches_the_reference(
                build_tree([(name[u], name[v]) for u, v, _ in t.edges()])
            )


def test_decomposition_builds_one_tree_per_piece(monkeypatch):
    t = random_name_tree(random.Random(2000), 2000)
    built = []
    real = Tree.__init__

    def counting(self, adjacency):
        built.append(len(adjacency))
        real(self, adjacency)

    monkeypatch.setattr(Tree, "__init__", counting)
    dec = starlike_decomposition(t)
    assert len(dec.pieces) > 100
    assert len(built) == len(dec.pieces)
    sp = dec.splittings[len(dec.splittings) // 2]
    rest = sp.remainder
    assert sp.remainder is rest
    assert len(built) == len(dec.pieces) + 1
    assert built[-1] == rest.vertex_count


def test_frozen_invariants_of_the_two_cousins():
    t1 = fixture_tree("t1")
    t2 = fixture_tree("t2")
    assert sorted(t1.degree(v) for v in t1.vertices) == sorted(
        t2.degree(v) for v in t2.vertices
    )
    assert iota(t1) == 1
    assert iota(t2) == 2
    assert two_matching_number(t1) == 5 == brute_nu2(t1)
    assert two_matching_number(t2) == 6 == brute_nu2(t2)
    assert invariant_factor_bound(t1) == 3
    assert invariant_factor_bound(t2) == 2


def test_frozen_invariants_of_the_big_binary_tree():
    t = fixture_tree("fig4_tree")
    assert len(t.leaves) == 12
    assert two_matching_number(t) == 14
    assert iota(t) == 3
    assert invariant_factor_bound(t) == 7 == t.edge_count - 14


def test_worked_example_invariants():
    t = running_example_tree()
    assert iota(t) == 1
    assert two_matching_number(t) == 9 == brute_nu2(t)
    assert invariant_factor_bound(t) == 4


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([t for t in all_trees(10) if t.is_starlike]))
def test_starlike_matching_formula(t):
    assert two_matching_number(t) == t.edge_count - len(t.leaves) + 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(all_trees(10)))
def test_matching_number_matches_brute_force(t):
    assert two_matching_number(t) == brute_nu2(t)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(all_trees(10)))
def test_matching_number_adds_across_splits(t):
    sp = starlike_split(t)
    if sp is None:
        assert t.is_path or t.is_starlike
    else:
        assert two_matching_number(t) == two_matching_number(
            sp.piece
        ) + two_matching_number(sp.remainder)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(all_trees(10)))
def test_iota_bound_and_leaf_accounting(t):
    io = iota(t)
    leaves = len(t.leaves)
    assert 0 <= io
    if not t.is_path:
        assert io <= leaves / 2 - 1
        assert invariant_factor_bound(t) == leaves - 2 - io
    assert (io > 0) == has_adjacent_branch_vertices(t)
    for prefer in ("lowest", "highest"):
        dec = starlike_decomposition(t, prefer=prefer)
        assert dec.irregular_count == io
        if not t.is_path:
            budget = sum(max(len(p.leaves) - 2, 0) for p in dec.pieces)
            assert budget == leaves - 2 - io


def assert_iota_routes_agree(t):
    """The DP iota against the decomposition, the bound both ways, and
    the pieces' leaf budget against the whole tree's."""
    io = iota(t)
    for prefer in ("lowest", "highest"):
        dec = starlike_decomposition(t, prefer=prefer)
        assert dec.irregular_count == io
        if not t.is_path:
            budget = sum(max(len(p.leaves) - 2, 0) for p in dec.pieces)
            assert budget == len(t.leaves) - 2 - io
    assert len(t.leaves) - 2 - io == t.edge_count - two_matching_number(t)


def test_iota_matches_the_decomposition_on_every_small_shape():
    shapes = all_trees(13)
    assert len(shapes) == 2287
    for t in shapes:
        assert_iota_routes_agree(t)


def test_iota_matches_the_decomposition_on_random_name_trees():
    rng = random.Random(11)
    irregular = 0
    for n in range(10, 201, 5):
        for _ in range(2):
            t = random_name_tree(rng, n)
            assert_iota_routes_agree(t)
            irregular += iota(t) > 0
    assert irregular >= 70


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(all_trees(8)), st.data())
def test_subdividing_an_edge_moves_one_invariant(t, data):
    u, v, _ = data.draw(st.sampled_from(t.edges()))
    t2 = subdivide(t, (u, v), 2)
    step = (
        two_matching_number(t2) - two_matching_number(t),
        iota(t2) - iota(t),
    )
    assert step in ((1, 0), (0, -1))


def test_classification_of_known_shapes():
    assert cyclic_classification(path_tree(7)) is CyclicClass.ALL_TRIVIAL
    assert cyclic_classification(star_tree(3)) is CyclicClass.ALL_CYCLIC
    assert cyclic_classification(star_tree(4)) is CyclicClass.ADMITS_NONCYCLIC
    assert cyclic_classification(double_star_tree((1, 1), (1, 1))) is CyclicClass.ALL_CYCLIC
    assert (
        cyclic_classification(double_star_tree((1, 1, 1), (1, 1)))
        is CyclicClass.ADMITS_NONCYCLIC
    )
    assert cyclic_classification(running_example_tree()) is CyclicClass.ADMITS_NONCYCLIC


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(all_trees(10)))
def test_classification_matches_the_shape_condition(t):
    got = cyclic_classification(t)
    if t.is_path:
        assert got is CyclicClass.ALL_TRIVIAL
    elif only_cyclic_shape(t):
        assert got is CyclicClass.ALL_CYCLIC
    else:
        assert got is CyclicClass.ADMITS_NONCYCLIC


def recipe_r(piece, count, merge_leaf=None):
    """An r labelling on a starlike piece hitting ``count`` factors of two.

    The stand-in leaf for the rest of the tree, when present, always
    carries value one so that gluing it back changes nothing.
    """
    if count == 0:
        return {v: 1 for v in piece.vertices}
    tens = tentacles(piece)
    if merge_leaf is not None:
        tens.sort(key=lambda ten: ten.leaf != merge_leaf)
    k = len(tens)
    if count % 2 == 0:
        center_value = 2
        arm_values = [1] * (count + 2) + [2] * (k - count - 2)
    else:
        center_value = 4
        arm_values = [1] * 2 + [2] * count + [4] * (k - count - 2)
    (c,) = piece.branch_vertices
    r = {c: center_value}
    for ten, val in zip(tens, arm_values):
        for v in ten.vertices:
            r[v] = val
    return r


def spread(total, capacities):
    out = []
    for cap in capacities:
        take = min(cap, total)
        out.append(take)
        total -= take
    assert total == 0
    return out


def attained_group(t, total):
    """Build a structure on t whose group is ``total`` copies of Z/2."""
    dec = starlike_decomposition(t)
    caps = [max(len(p.leaves) - 2, 0) for p in dec.pieces]
    counts = spread(total, caps)
    cur_g = dec.last_piece
    cur_s = structure_from_r(cur_g, recipe_r(cur_g, counts[-1]))
    for i in reversed(range(len(dec.splittings))):
        sp = dec.splittings[i]
        ps = structure_from_r(sp.piece, recipe_r(sp.piece, counts[i], sp.merge_leaf))
        cur_g, cur_s = merge_structures(
            cur_g, sp.target, cur_s, sp.piece, sp.merge_leaf, ps
        )
    assert cur_g == t
    return critical_group(cur_g, cur_s)


def test_every_count_up_to_the_bound_is_attained():
    cases = [
        (star_tree(4), 2),
        (fixture_tree("t1"), 3),
        (fixture_tree("t2"), 2),
        (running_example_tree(), 4),
    ]
    for t, bound in cases:
        assert invariant_factor_bound(t) == bound
        for count in range(bound + 1):
            k = attained_group(t, count)
            assert k.invariant_factors == (2,) * count
