"""Splitting trees into starlike pieces and the invariants that follow."""

import gc
import hashlib
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
    invariant_factor_bound,
    iota,
    merge_structures,
    starlike_decomposition,
    structure_from_r,
    subdivide,
    tentacles,
    two_matching_number,
    wedge,
)


def brute_nu2(t):
    return max_two_matching([(u, v) for u, v, _ in t.edges()])


def rest_vertices(dec, i):
    """The vertices left after splitting i: the later pieces' vertices
    without their merge leaves."""
    return set().union(*(p.vertices for p in dec.pieces[i + 1:])) - {
        sp.merge_leaf for sp in dec.splittings[i + 1:]
    }


def test_split_reproduces_the_worked_example():
    t = running_example_tree()
    dec = starlike_decomposition(t)
    sp = dec.splittings[0]
    assert sp.center == "w02"
    assert sp.merge_leaf == "w02*"
    assert sp.target == "w01"
    assert not sp.regular
    assert sorted(sp.piece.leaves) == ["w02*", "w04", "w05", "w15"]
    assert sp.piece.vertex_count == 6
    assert sorted(rest_vertices(dec, 0)) == [
        "w01", "w06", "w07", "w08", "w09", "w10", "w11", "w12", "w13",
    ]


def test_split_from_the_other_end():
    # the reference splits highest first; iota does not depend on the order
    t = running_example_tree()
    edges = [(u, v) for u, v, _ in t.edges()]
    splits, _ = reference_decomposition(edges, "highest")
    center, piece_edges, leaf, target, regular, _ = splits[0]
    assert (center, leaf, target, regular) == ("w08", "w08*", "w07", True)
    assert piece_edges == {("w08", "w08*"), ("w08", "w09"), ("w08", "w10")}
    irregular = sum(not split[4] for split in splits)
    assert irregular == iota(t) == starlike_decomposition(t).irregular_count == 1


def test_nothing_to_split_gives_no_splittings():
    for t in (path_tree(6), star_tree(5)):
        dec = starlike_decomposition(t)
        assert dec.splittings == ()
        assert dec.pieces == (t,)
        assert dec.irregular_count == 0


def test_a_kept_decomposition_makes_no_reference_cycle():
    # the last piece of a tree with no splitting is a fresh equal tree, not
    # t itself, so t and the decomposition it keeps go with their last reference
    def decompose():
        t = star_tree(3)
        dec = starlike_decomposition(t)
        assert dec.last_piece == t

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        decompose()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def assert_split_matches_the_definition(t):
    """The first splitting against the independent peripheral_split oracle."""
    edges = [(u, v) for u, v, _ in t.edges()]
    dec = starlike_decomposition(t)
    want = peripheral_split(edges, "lowest")
    if want is None:
        assert dec.splittings == ()
        return
    center, piece, target = want
    sp = dec.splittings[0]
    assert sp.center == center
    assert sp.target == target
    assert set(sp.piece.vertices) - {sp.merge_leaf} == piece
    assert rest_vertices(dec, 0) == set(t.vertices) - piece
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


def edge_set(t, name=None):
    """t's edges as (u, v) pairs with u < v, vertices renamed by ``name``."""
    name = name or {}
    out = set()
    for u, v, _ in t.edges():
        u, v = name.get(u, u), name.get(v, v)
        out.add((u, v) if u < v else (v, u))
    return out


def assert_decomposition_matches_the_reference(t):
    """starlike_decomposition against repeated peripheral_split, lowest
    first, with the rest after every split rebuilt from the later pieces.
    Splitting highest first must give the same irregular count."""
    edges = [(u, v) for u, v, _ in t.edges()]
    dec = starlike_decomposition(t)
    splits, last = reference_decomposition(edges, "lowest")
    assert len(dec.splittings) == len(splits) == len(dec.pieces) - 1
    for sp, piece, want in zip(dec.splittings, dec.pieces, splits):
        center, piece_edges, leaf, target, regular, _ = want
        assert sp.piece is piece
        assert (sp.center, sp.merge_leaf, sp.target, sp.regular) == (
            center, leaf, target, regular,
        )
        assert edge_set(piece) == piece_edges
    assert edge_set(dec.last_piece) == last
    rest = edge_set(dec.last_piece)
    for sp, want in zip(reversed(dec.splittings), reversed(splits)):
        assert rest == want[5]
        rest |= edge_set(sp.piece, {sp.merge_leaf: sp.target})
    assert rest == edge_set(t)
    assert dec.irregular_count == sum(not want[4] for want in splits)
    high, _ = reference_decomposition(edges, "highest")
    assert sum(not want[4] for want in high) == iota(t) == dec.irregular_count


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


def decomposition_golden_cases():
    """Every shape with up to 10 vertices, then the random-name trees of
    ``test_decomposition_matches_the_reference_on_random_name_trees``."""
    yield from all_trees(10)
    rng = random.Random(15)
    for k in range(100):
        yield random_name_tree(rng, 10 + 290 * k // 99)


def decomposition_record(t):
    dec = starlike_decomposition(t)
    return (
        [(sp.center, sp.merge_leaf, sp.target, sp.regular, sp.tentacles)
         for sp in dec.splittings],
        [piece.edges() for piece in dec.pieces],
        [dec.tentacles(i) for i in range(len(dec.pieces))],
        dec.irregular_count,
    )


def decomposition_digest(trees):
    digest = hashlib.sha256()
    for t in trees:
        digest.update(repr(decomposition_record(t)).encode())
    return digest.hexdigest()


# SHA-256 of every golden tree's splittings, piece edges, piece tentacles
# and irregular count, as computed when the pass still took a ``prefer``
# order and built each split's remainder on demand; the same under -O
GOLDEN_DECOMPOSITIONS = "6750639493ecf6da6a7891620778470da57fb881fff643d12a6889884e55ee82"


def test_decompositions_match_the_golden_digest():
    trees = list(decomposition_golden_cases())
    assert len(trees) == 300
    assert decomposition_digest(trees) == GOLDEN_DECOMPOSITIONS


def assert_pieces_carry_their_tentacles(t):
    """dec.tentacles(i) against a fresh walk of piece i, merge leaf left out."""
    dec = starlike_decomposition(t)
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
    # t keeps it: a second call builds nothing and returns the same object
    assert starlike_decomposition(t) is dec
    assert len(built) == len(dec.pieces)
    # an equal but distinct tree makes an equal decomposition of its own
    twin = build_tree(t.edges())
    assert twin == t and twin is not t
    other = starlike_decomposition(twin)
    assert other == dec and other is not dec
    assert len(built) == 2 * len(dec.pieces)
    assert all(other.tentacles(i) == dec.tentacles(i) for i in range(len(dec.pieces)))
    assert starlike_decomposition(t) is dec and starlike_decomposition(twin) is other


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
    dec = starlike_decomposition(t)
    if not dec.splittings:
        assert t.is_path or t.is_starlike
    assert two_matching_number(t) == sum(map(two_matching_number, dec.pieces))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(all_trees(10)))
def test_iota_bound_and_leaf_accounting(t):
    io = iota(t)
    leaves = len(t.leaves)
    assert 0 <= io
    if not t.is_path:
        assert io <= leaves / 2 - 1
        assert invariant_factor_bound(t) == leaves - 2 - io
    assert (io > 0) == any(
        t.degree(u) >= 3 and t.degree(v) >= 3 for u, v, _ in t.edges()
    )
    dec = starlike_decomposition(t)
    assert dec.irregular_count == io
    if not t.is_path:
        budget = sum(max(len(p.leaves) - 2, 0) for p in dec.pieces)
        assert budget == leaves - 2 - io
    high, _ = reference_decomposition([(u, v) for u, v, _ in t.edges()], "highest")
    assert sum(not want[4] for want in high) == io


def assert_iota_routes_agree(t):
    """The DP iota against the decomposition, the bound both ways, and
    the pieces' leaf budget against the whole tree's."""
    io = iota(t)
    dec = starlike_decomposition(t)
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
