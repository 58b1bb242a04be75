"""Brooms and subdivision realizations hitting prescribed groups."""

import ast
import hashlib
import importlib
import inspect
import pkgutil
import random
from math import gcd

import pytest

from corpus import (
    all_trees,
    count_tentacle_walks,
    fixture_graph,
    fixture_tree,
    running_example_tree,
    path_tree,
    random_name_tree,
    star_tree,
)
import critforge
from critforge import construct, graphcore, mergestar, treedecomp
from critforge import (
    AbelianGroup,
    BetaOutOfRange,
    ConstructError,
    InternalInconsistency,
    PathWithNontrivialTarget,
    TooManyFactors,
    broom_with_group,
    build_tree,
    critical_group,
    iota,
    laplacian_structure,
    merge_structures,
    plan_broom,
    realize_group,
    realize_on_subdivision,
    starlike_critical_group,
    starlike_decomposition,
    structure_from_r,
    subdivide,
)


def test_plan_for_the_worked_broom():
    plan = plan_broom(AbelianGroup((3, 18)), 2)
    assert plan.center_value == 324
    assert plan.prong_values == (108, 18, 1)
    assert plan.tail_values == (197, 70, 13, 8, 3, 1)


def test_plan_for_a_single_factor():
    plan = plan_broom(AbelianGroup((4,)), 1)
    assert plan.center_value == 16
    assert plan.prong_values == (4, 1)
    assert plan.tail_values == (11, 6, 1)


def test_plan_validation():
    with pytest.raises(TooManyFactors):
        plan_broom(AbelianGroup((2, 4)), 1)
    with pytest.raises(ConstructError):
        plan_broom(AbelianGroup((4,)), 0)


def test_plan_broom_refuses_a_plan_past_its_cap_before_allocating():
    # A Z/m broom with one prong plans 2 prong vertices and a tail of m - 1.
    plan = plan_broom(AbelianGroup((99_999,)), 1)
    cap = construct.MAX_BROOM_VERTICES
    assert len(plan.prong_values) + len(plan.tail_values) == cap
    for target, prongs in ((AbelianGroup((100_000,)), 1),
                           (AbelianGroup((1_000_003,)), 1),
                           (AbelianGroup((6, 6, 6, 6, 6 * 10 ** 6)), 5),
                           (AbelianGroup((6,)), cap - 1),
                           (AbelianGroup((6,)), 10 ** 12)):
        with pytest.raises(ConstructError, match=f"exceed {cap} vertices"):
            plan_broom(target, prongs)


@pytest.mark.parametrize("flag", [True, False])
def test_plan_broom_refuses_a_bool_prong_count(flag):
    with pytest.raises(ConstructError,
                       match=f"prong count must be a positive integer, got {flag!r}"):
        plan_broom(AbelianGroup((4,)), flag)


def test_broom_matches_the_shipped_fixture():
    tree, s = broom_with_group(AbelianGroup((3, 18)), 2)
    assert s.r == {
        "c": 324,
        "p01": 108, "p02": 18, "p03": 1,
        "t01": 197, "t02": 70, "t03": 13, "t04": 8, "t05": 3, "t06": 1,
    }
    assert critical_group(tree, s) == AbelianGroup((3, 18))
    assert critical_group(tree, s).order == 54

    # same shape and values as the shipped broom, vertex names aside
    _, r_fix, d_fix = fixture_graph("fig3_broom")
    assert sorted(s.r.values()) == sorted(r_fix.values())
    assert sorted(s.d.values()) == sorted(d_fix.values())


def test_broom_leaf_count_tracks_the_prong_parameter():
    for prongs in (1, 2, 3):
        tree, s = broom_with_group(AbelianGroup((6,)), prongs)
        assert len(tree.leaves) == prongs + 2
        assert critical_group(tree, s) == AbelianGroup((6,))


def test_realize_group_known_cases():
    tree, s = realize_group(AbelianGroup(()))
    assert tree.vertex_count == 2
    assert s.is_laplacian

    tree, s = realize_group(AbelianGroup((105,)))
    assert s.r["c"] == 105 * 105
    assert critical_group(tree, s) == AbelianGroup((105,))


def random_chain(rng):
    factors = []
    cur = rng.randint(2, 6)
    while len(factors) < 4 and cur <= 50:
        factors.append(cur)
        if rng.random() < 0.4:
            break
        cur *= rng.randint(1, 3)
    return AbelianGroup(tuple(f for f in factors if f <= 50))


def test_realized_brooms_hit_random_targets():
    rng = random.Random(8451)
    for _ in range(15):
        target = random_chain(rng)
        tree, s = realize_group(target)
        assert critical_group(tree, s) == target
        plan = plan_broom(target, len(target.invariant_factors))
        tail = plan.tail_values
        assert tail[-1] == 1
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert all(gcd(a, b) == 1 for a, b in zip(tail, tail[1:]))
        assert gcd(plan.center_value, tail[0]) == 1
        assert plan.prong_values[-1] == 1


def test_subdivision_realization_on_a_star():
    t, s = realize_on_subdivision(star_tree(4), AbelianGroup((2, 6)), 0)
    assert t.vertex_count == 9
    assert critical_group(t, s) == AbelianGroup((2, 6))
    assert iota(t) == 0
    assert starlike_decomposition(t).irregular_count == 0
    assert s.r["hub"] == 36


def test_subdivision_realization_on_the_cousins():
    t1 = fixture_tree("t1")
    for beta, target in (
        (1, AbelianGroup((2, 2, 6))),
        (0, AbelianGroup((2, 2, 2, 16))),
        (1, AbelianGroup(())),
        (0, AbelianGroup((7,))),
    ):
        out, s = realize_on_subdivision(t1, target, beta)
        assert iota(out) == beta
        assert starlike_decomposition(out).irregular_count == beta
        assert critical_group(out, s) == target

    t2 = fixture_tree("t2")
    out, s = realize_on_subdivision(t2, AbelianGroup((5, 10)), 0)
    assert iota(out) == 0
    assert starlike_decomposition(out).irregular_count == 0
    assert critical_group(out, s) == AbelianGroup((5, 10))


def test_trivial_target_at_full_irregularity_changes_nothing():
    t1 = fixture_tree("t1")
    out, s = realize_on_subdivision(t1, AbelianGroup(()), iota(t1))
    assert out == t1
    assert s.is_laplacian


@pytest.mark.parametrize("flag", [True, False])
def test_realize_on_subdivision_refuses_a_bool_beta(flag):
    t1 = fixture_tree("t1")
    assert iota(t1) >= 1
    with pytest.raises(BetaOutOfRange, match=f"beta must lie in 0..{iota(t1)}, got {flag!r}"):
        realize_on_subdivision(t1, AbelianGroup(()), flag)


def test_subdivision_realization_validation():
    t1 = fixture_tree("t1")
    with pytest.raises(BetaOutOfRange):
        realize_on_subdivision(t1, AbelianGroup(()), -1)
    with pytest.raises(BetaOutOfRange):
        realize_on_subdivision(t1, AbelianGroup(()), iota(t1) + 1)
    with pytest.raises(BetaOutOfRange):
        realize_on_subdivision(t1, AbelianGroup(()), "0")
    with pytest.raises(TooManyFactors):
        realize_on_subdivision(t1, AbelianGroup((2, 2, 2, 2, 16)), 1)
    with pytest.raises(PathWithNontrivialTarget):
        realize_on_subdivision(path_tree(5), AbelianGroup((2,)), 0)
    out, s = realize_on_subdivision(path_tree(5), AbelianGroup(()), 0)
    assert out == path_tree(5)
    assert s.is_laplacian


def test_subdivision_realization_on_the_worked_tree():
    t = running_example_tree()
    target = AbelianGroup((2, 4, 4, 8))
    out, s = realize_on_subdivision(t, target, 0)
    assert iota(out) == 0
    assert starlike_decomposition(out).irregular_count == 0
    assert critical_group(out, s) == target


def test_tail_names_are_fresh_against_the_whole_tree():
    # m's leaf already has the name subdivide gives the first new vertex
    # on the edge a-b, which the broom on a's piece stretches
    t = build_tree([("a", "b"), ("a", "x1"), ("a", "x2"), ("a", "m"),
                    ("m", "a.b.1"), ("m", "q")])
    target = AbelianGroup((6,))
    out, s = realize_on_subdivision(t, target, 0)
    assert iota(out) == 0
    assert critical_group(out, s) == target
    assert sorted(out.neighbors("m")) == ["a.b.1", "a.m.1", "q"]
    # only the clashing name moves aside; the others keep theirs
    assert {"a.b.1.2", "a.b.2", "a.b.3", "a.b.4"} <= set(out.vertices)


def test_realization_builds_one_decomposition(monkeypatch):
    calls = []
    real = treedecomp.starlike_decomposition

    def counting(t):
        calls.append(t)
        return real(t)

    for mod in (treedecomp, construct):
        monkeypatch.setattr(mod, "starlike_decomposition", counting)
    t = random_name_tree(random.Random(100), 100)
    base = iota(t)
    assert base >= 3
    assert calls == []
    target = AbelianGroup((2, 6))
    out, s = realize_on_subdivision(t, target, 0)
    assert len(calls) == 1
    monkeypatch.undo()
    assert starlike_decomposition(out).irregular_count == 0
    assert critical_group(out, s) == target


def test_realization_walks_tentacles_at_most_twice(monkeypatch):
    rng = random.Random(1616)
    for n in (30, 100, 200):
        t = random_name_tree(rng, n)
        pieces = len(starlike_decomposition(t).pieces)
        assert pieces >= n // 10
        for beta in (0, iota(t)):
            # t keeps its decomposition, so each call gets a fresh copy
            fresh = build_tree(t.edges())
            calls = count_tentacle_walks(monkeypatch)
            realize_on_subdivision(fresh, AbelianGroup((2, 6)), beta)
            monkeypatch.undo()
            assert 1 <= len(calls) <= 2, (n, beta, pieces, len(calls))


def test_quotient_route_sees_constructed_structures(monkeypatch):
    for m in (2, 12, 60, 175):
        target = AbelianGroup((m,))
        tree, s = broom_with_group(target, 1)
        assert starlike_critical_group(tree, s) == target

    pieces = []
    real = construct._realize_piece

    def recording(piece, tens, merge_leaf, target, taken):
        edges, r = real(piece, tens, merge_leaf, target, taken)
        grown = build_tree(edges)
        s = structure_from_r(grown, r)
        assert s.r == r
        pieces.append((grown, s, target))
        return edges, r

    monkeypatch.setattr(construct, "_realize_piece", recording)
    rng = random.Random(31)
    for n in (20, 40, 60):
        t = random_name_tree(rng, n)
        realize_on_subdivision(t, AbelianGroup((2, 6, 12)), max(0, iota(t) - 2))
    starlike = [(g, s, k) for g, s, k in pieces if g.is_starlike]
    assert len(starlike) >= 6
    assert any(not k.is_trivial for _, _, k in starlike)
    for grown, s, target in pieces:
        assert critical_group(grown, s) == target
    for grown, s, target in starlike:
        assert starlike_critical_group(grown, s) == target


def realize_recording(monkeypatch, t, target, beta):
    """realize_on_subdivision, plus its decomposition and its pieces in
    the order they were realized."""
    decs, pieces = [], []
    real_dec = construct.starlike_decomposition
    real_piece = construct._realize_piece

    def dec_recording(t):
        decs.append(real_dec(t))
        return decs[-1]

    def piece_recording(piece, tens, merge_leaf, target, taken):
        edges, r = real_piece(piece, tens, merge_leaf, target, taken)
        pieces.append((build_tree(edges), merge_leaf, r))
        return edges, r

    with monkeypatch.context() as m:
        m.setattr(construct, "starlike_decomposition", dec_recording)
        m.setattr(construct, "_realize_piece", piece_recording)
        out, s = realize_on_subdivision(t, target, beta)
    (dec,) = decs
    return out, s, dec, pieces


def test_glued_pieces_match_the_merge_chain(monkeypatch):
    rng = random.Random(1414)
    trees = [fixture_tree("t1"), fixture_tree("t2"), running_example_tree()]
    trees += [random_name_tree(rng, n) for n in (20, 50, 100, 200)]
    merged = 0
    for t in trees:
        for beta in {0, max(0, iota(t) - 2)}:
            k = min(3, len(t.leaves) - 2 - beta)
            target = AbelianGroup((2, 6, 12)[3 - k:])
            out, s, dec, pieces = realize_recording(monkeypatch, t, target, beta)
            # the reference: merge_structures folds the pieces last first,
            # each target absorbing the next piece's merge leaf
            (acc, first_leaf, r), rest = pieces[0], pieces[1:]
            assert first_leaf is None
            assert [leaf for _, leaf, _ in rest] == [
                dec.merge_leaf(i) for i in reversed(range(len(dec.splittings)))
            ]
            glue = {sp.merge_leaf: sp.target for sp in dec.splittings}
            acc_s = structure_from_r(acc, r)
            for grown, leaf, r in rest:
                acc, acc_s = merge_structures(
                    acc, glue[leaf], acc_s, grown, leaf, structure_from_r(grown, r)
                )
            assert acc == out
            assert acc_s.r == s.r and acc_s.d == s.d
            merged += len(rest)
    assert merged >= 40


def test_realization_merges_nothing_and_computes_one_group(monkeypatch):
    merges, groups = [], []
    real_merge = mergestar.merge_structures
    real_group = construct.critical_group

    def merge_counting(*args):
        merges.append(args)
        return real_merge(*args)

    def group_counting(g, s):
        groups.append(g)
        return real_group(g, s)

    monkeypatch.setattr(mergestar, "merge_structures", merge_counting)
    monkeypatch.setattr(construct, "critical_group", group_counting)
    assert not hasattr(construct, "merge_structures")
    t = random_name_tree(random.Random(100), 100)
    out, s = realize_on_subdivision(t, AbelianGroup((2, 6)), 0)
    assert merges == []
    assert groups == [out]


def wrong_group(g, s):
    return AbelianGroup((999,))


def test_a_wrong_broom_group_raises(monkeypatch):
    monkeypatch.setattr(construct, "critical_group", wrong_group)
    with pytest.raises(InternalInconsistency, match="broom produced"):
        broom_with_group(AbelianGroup((6,)), 2)


def test_a_wrong_piece_group_raises(monkeypatch):
    monkeypatch.setattr(construct, "critical_group", wrong_group)
    with pytest.raises(InternalInconsistency, match="critical group"):
        realize_on_subdivision(fixture_tree("t1"), AbelianGroup((2, 6)), 0)


def test_construction_checks_survive_optimized_mode():
    # chipfiring keeps reduce_support's three asserts: the benchmark
    # recognises its known defect by their source text
    names = [m.name for m in pkgutil.iter_modules(critforge.__path__)]
    assert {"arithstruct", "construct", "mergestar", "treedecomp"} <= set(names)
    mods = [critforge] + [
        importlib.import_module(f"critforge.{name}")
        for name in names if name != "chipfiring"
    ]
    for mod in mods:
        tree = ast.parse(inspect.getsource(mod))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), mod


def repeated_subdivision(rng, t, steps):
    cur = t
    for _ in range(steps):
        u, v, _ = rng.choice(cur.edges())
        cur = subdivide(cur, (u, v), rng.randint(2, 4))
    return cur


def test_suppressing_fresh_vertices_recovers_every_subdivision():
    rng = random.Random(31)
    trees = all_trees(7) + [random_name_tree(rng, n) for n in (5, 20, 60)]
    for t in trees:
        assert construct._suppress_fresh(t, t)
        assert construct._suppress_fresh(repeated_subdivision(rng, t, 6), t)


def test_suppressing_fresh_vertices_rejects_a_fresh_vertex_off_degree_two():
    rng = random.Random(32)
    for t in [running_example_tree(), random_name_tree(rng, 30)]:
        big = repeated_subdivision(rng, t, 4)
        adj = {v: dict(big.incident(v)) for v in big.vertices}
        (x, *_) = sorted(set(big.vertices) - set(t.vertices))
        # a fresh leaf hanging off an original vertex has degree one
        leafy = {**adj, t.vertices[0]: {**adj[t.vertices[0]], "new": 1}, "new": {t.vertices[0]: 1}}
        assert not construct._suppress_fresh(graphcore.Tree(leafy), t)
        # a fresh degree-two vertex given a pendant leaf has degree three
        spiked = {**adj, x: {**adj[x], "spike": 1}, "spike": {x: 1}}
        assert not construct._suppress_fresh(graphcore.Tree(spiked), t)


def test_suppressing_fresh_vertices_rejects_a_subdivision_of_another_tree():
    rng = random.Random(33)
    path = build_tree([("a", "b"), ("b", "c"), ("c", "d")])
    shuffled = build_tree([("a", "c"), ("c", "b"), ("b", "d")])
    assert not construct._suppress_fresh(repeated_subdivision(rng, shuffled, 3), path)
    for t in [running_example_tree(), random_name_tree(rng, 40)]:
        names = list(t.vertices)
        rng.shuffle(names)
        other = build_tree([(names[t.index(u)], names[t.index(v)]) for u, v, _ in t.edges()])
        assert other != t
        assert not construct._suppress_fresh(repeated_subdivision(rng, other, 5), t)
        # a subdivision of t minus a leaf lacks an original vertex
        leaf = t.leaves[0]
        smaller = build_tree([(u, v) for u, v, _ in t.edges() if leaf not in (u, v)])
        assert not construct._suppress_fresh(repeated_subdivision(rng, smaller, 5), t)


def separation_by_subdividing(t):
    """The reference: subdivide each branch pair of ``t`` in edge order
    and recount the whole grown tree after every step."""
    cur, out = t, []
    for u, v, _ in t.edges():
        if t.degree(u) >= 3 and t.degree(v) >= 3:
            grown = subdivide(cur, (u, v), 2)
            (x,) = set(grown.vertices) - set(cur.vertices)
            cur = grown
            count = iota(cur)
            assert starlike_decomposition(cur).irregular_count == count
            out.append((u, v, x, count))
    return out


def assert_separation_matches_the_reference(t):
    got = list(construct._separations(t, treedecomp.TwoMatchingTable(t)))
    assert got == separation_by_subdividing(t), t
    counts = [iota(t)] + [count for *_, count in got]
    assert all(b in (a, a - 1) for a, b in zip(counts, counts[1:])), counts


# the branch pairs a-b.c and a.b-c both name their new vertex a.b.c.1
PAIRS_SHARING_A_FRESH_NAME = build_tree([
    ("a", "a.b"), ("a", "b.c"), ("a.b", "c"), ("a", "l1"), ("a.b", "l2"),
    ("b.c", "l3"), ("b.c", "l4"), ("c", "l5"), ("c", "l6"),
])


def test_separation_counts_match_repeated_subdivision_on_small_shapes():
    shapes = [t for t in all_trees(10)
              if any(t.degree(u) >= 3 and t.degree(v) >= 3 for u, v, _ in t.edges())]
    assert len(shapes) >= 50
    shapes.append(PAIRS_SHARING_A_FRESH_NAME)
    for t in shapes:
        assert_separation_matches_the_reference(t)


def test_separation_counts_match_repeated_subdivision_on_random_name_trees():
    rng = random.Random(1718)
    steps = 0
    for n in range(10, 301, 10):
        t = random_name_tree(rng, n)
        if n % 20 == 0:
            t = clash_renamed(rng, t)
        assert_separation_matches_the_reference(t)
        steps += len(list(construct._separations(t, treedecomp.TwoMatchingTable(t))))
    assert steps >= 200


def test_separation_subdivides_nothing_and_runs_two_dp_tables(monkeypatch):
    tables, subdivisions = [], []
    real_table = treedecomp.TwoMatchingTable.__init__
    real_subdivide = graphcore.subdivide

    def table_counting(self, t):
        tables.append(t)
        real_table(self, t)

    def subdivide_counting(*args):
        subdivisions.append(args)
        return real_subdivide(*args)

    monkeypatch.setattr(treedecomp.TwoMatchingTable, "__init__", table_counting)
    for mod in (critforge, graphcore, construct):
        monkeypatch.setattr(mod, "subdivide", subdivide_counting, raising=False)
    small = build_tree([("a", "b"), ("a", "x1"), ("a", "x2"),
                        ("b", "y1"), ("b", "y2"), ("b", "y3")])
    big = random_name_tree(random.Random(1600), 1600)
    assert iota(small) == 1 and iota(big) >= 100
    target = AbelianGroup((6, 6, 12))
    for t, beta in ((small, 0), (big, 0), (big, iota(big))):
        tables.clear()
        out, s = realize_on_subdivision(t, target if t is big else AbelianGroup(()), beta)
        assert subdivisions == []
        # one on t for the base iota and every separation step, one for iota(out)
        assert len(tables) == 2
        assert tables[0] is t and tables[-1] is out


def clash_renamed(rng, t):
    """``t`` with one leaf renamed to the name that separating its first
    branch pair would invent."""
    pairs = [(u, v) for u, v, _ in t.edges() if t.degree(u) >= 3 and t.degree(v) >= 3]
    if not pairs:
        return t
    u, v = pairs[0]
    w = rng.choice([x for x in t.leaves if x not in (u, v)])
    name = f"{u}.{v}.1"
    return build_tree([(name if a == w else a, name if b == w else b) for a, b, _ in t.edges()])


def golden_cases():
    """Seeded (tree, target, beta) cases: random-name trees, some with a
    leaf named as a fresh vertex would be, and the hand-made clashes."""
    rng = random.Random(1717)
    trees = [
        build_tree([("a", "b"), ("a", "x1"), ("a", "x2"), ("a", "m"),
                    ("m", "a.b.1"), ("m", "q")]),
        build_tree([("a", "b"), ("a", "x1"), ("a", "x2"), ("b", "a.b.1"),
                    ("b", "a.b.1.2"), ("a.b.1", "c"), ("a.b.1", "a.b.1.3")]),
        PAIRS_SHARING_A_FRESH_NAME,
        fixture_tree("t1"), fixture_tree("t2"), running_example_tree(),
    ]
    for i in range(110):
        t = random_name_tree(rng, rng.randint(12, 150))
        trees.append(clash_renamed(rng, t) if i % 3 == 0 else t)
    for t in trees:
        top = iota(t)
        for beta in sorted({0, max(0, top - 2), top}):
            factors = []
            for _ in range(rng.randint(0, 3)):
                factors.append((factors[-1] if factors else 1) * rng.choice((2, 3, 5, 6)))
            yield t, AbelianGroup(tuple(factors)), beta


def realization_record(t, target, beta):
    try:
        out, s = realize_on_subdivision(t, target, beta)
    except ConstructError as exc:
        return type(exc).__name__
    return (out.edges(), sorted(s.r.items()), sorted(s.d.items()))


# SHA-256 of every golden case's (edges, r, d), or its exception's name,
# as computed when each separation step still subdivided a whole copy of
# the tree; any change to fresh names or to the order of choices shows here
GOLDEN_REALIZATIONS = "91305b32115868077eb71dd30040f6d512882ce320e8024b6311f5363a0de40a"


def test_realizations_match_the_golden_digest():
    digest = hashlib.sha256()
    cases = 0
    for t, target, beta in golden_cases():
        digest.update(repr(realization_record(t, target, beta)).encode())
        cases += 1
    assert cases >= 300
    assert digest.hexdigest() == GOLDEN_REALIZATIONS
