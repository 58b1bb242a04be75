"""Structures (d, r), their validation, and critical groups."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import minor_gcd
from corpus import (
    all_trees,
    cycle_graph,
    fixture_graph,
    fixture_tree,
    path_tree,
    star_tree,
    structures_by_search,
    sweep_config,
)
from critforge import arithstruct
from critforge import (
    AbelianGroup,
    InternalInconsistency,
    ArithStructError,
    ArithmeticalStructure,
    DivisibilityViolation,
    EnumerationConfig,
    IntegerMatrix,
    MissingVertexValue,
    NonIntegralOrder,
    RankDefect,
    Tree,
    UnknownVertex,
    broom_with_group,
    build_graph,
    build_tree,
    critical_group,
    enumerate_structures,
    extend_at,
    laplacian,
    laplacian_structure,
    realize_on_subdivision,
    smith_normal_form,
    structure_from_r,
    tree_order_formula,
    validate,
)


def test_fixture_structure_validates():
    g, r, d = fixture_graph("c4_example")
    ok, problems = validate(g, d, r)
    assert ok and problems == []
    s = structure_from_r(g, r)
    assert s.d == d
    assert s.r == r
    assert not s.is_laplacian
    assert s.r_vector() == (1, 2, 3, 1)
    assert s.d_vector() == (3, 2, 1, 4)


def test_fixture_laplacian_matrix():
    g, r, d = fixture_graph("c4_example")
    m = laplacian(g, d)
    assert m.rows == (
        (3, -1, 0, -1),
        (-1, 2, -1, 0),
        (0, -1, 1, -1),
        (-1, 0, -1, 4),
    )
    assert smith_normal_form(m).diagonal == (1, 1, 2, 0)
    assert critical_group(g, ArithmeticalStructure(graph=g, r=r, d=d)) == AbelianGroup((2,))


def test_validate_reports_the_first_offender():
    t = path_tree(3)
    ok, problems = validate(t, {"p00": 1, "p01": 3, "p02": 1}, {"p00": 1, "p01": 1, "p02": 2})
    assert not ok
    assert "balance fails at p02" in problems[0]
    ok, problems = validate(t, {v: 2 for v in t.vertices}, {v: 2 for v in t.vertices})
    assert not ok
    assert problems[0] == "gcd of r values exceeds 1"
    ok, problems = validate(t, {v: 1 for v in t.vertices}, {"p00": 0, "p01": 1, "p02": 1})
    assert not ok
    assert "not positive" in problems[0]


def test_diagnostics_survive_integers_past_the_digit_limit():
    # Products and sums of values under the int -> str limit can pass it.
    big = 10 ** 3000
    t = path_tree(2)
    ok, problems = validate(t, {"p00": big, "p01": big}, {"p00": big, "p01": 1})
    assert not ok
    assert problems[0].startswith("balance fails at p00: d*r = <")
    heavy = build_graph([("a", "b", big), ("b", "c", big)])
    with pytest.raises(DivisibilityViolation, match=r"^r\(c\) = 3 .* sum <"):
        structure_from_r(heavy, {"a": 1, "b": 10 ** 2000, "c": 3})


def test_structure_from_r_divisibility_diagnostic():
    t = path_tree(3)
    with pytest.raises(DivisibilityViolation) as info:
        structure_from_r(t, {"p00": 1, "p01": 1, "p02": 2})
    assert "r(p02) = 2" in str(info.value)
    with pytest.raises(ArithStructError):
        structure_from_r(t, {"p00": 1, "p01": -1, "p02": 1})


def test_structure_from_r_takes_exact_integers_only():
    t = path_tree(3)
    for bad in (1.5, 1.0, True, "1"):
        r = {"p00": 1, "p01": bad, "p02": 1}
        with pytest.raises(ArithStructError, match=r"^r\(p01\) = .* is not an integer"):
            structure_from_r(t, r)


def test_structures_take_exact_integers_only():
    t = path_tree(2)
    for label in ("r", "d"):
        for bad in (1.5, 1.0, True):
            vals = {"r": {"p00": 1, "p01": 1}, "d": {"p00": 1, "p01": 1}}
            vals[label]["p00"] = bad
            with pytest.raises(ArithStructError, match=rf"^{label}\(p00\) = .* is not an integer"):
                ArithmeticalStructure(graph=t, **vals)
    r = {"p00": 1, "p01": 1}
    s = ArithmeticalStructure(graph=t, r=r, d={"p00": 1, "p01": 1})
    assert s.r == r and s.r is not r


@pytest.mark.parametrize("bad", [1.5, True])
def test_laplacian_takes_exact_integers_only(bad):
    t = path_tree(3)
    d = {**laplacian_structure(t).d, "p01": bad}
    with pytest.raises(ArithStructError, match=rf"^d\(p01\) = {bad!r} is not an integer"):
        laplacian(t, d)


@pytest.mark.parametrize("bad", [1.5, True])
def test_tree_order_formula_takes_exact_integers_only(bad):
    t = path_tree(3)
    r = {"p00": 1, "p01": bad, "p02": 1}
    with pytest.raises(ArithStructError, match=rf"^r\(p01\) = {bad!r} is not an integer"):
        tree_order_formula(t, r)


def test_structure_from_r_strips_common_factors():
    t = path_tree(4)
    s = structure_from_r(t, {v: 3 for v in t.vertices})
    assert s.is_laplacian
    assert s.d == {"p00": 1, "p01": 2, "p02": 2, "p03": 1}


def test_missing_values_are_named():
    t = path_tree(3)
    with pytest.raises(MissingVertexValue):
        validate(t, {v: 1 for v in t.vertices}, {"p00": 1, "p01": 1})
    with pytest.raises(MissingVertexValue):
        laplacian(t, {"p00": 1})
    with pytest.raises(MissingVertexValue):
        tree_order_formula(t, {"p00": 1, "p02": 1})


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(all_trees(7)))
def test_laplacian_structure_on_trees_is_trivial(t):
    s = laplacian_structure(t)
    assert s.is_laplacian
    assert critical_group(t, s).is_trivial
    assert tree_order_formula(t, s.r) == 1


def test_broom_fixture_group():
    t = fixture_tree("fig3_broom")
    _, r, d = fixture_graph("fig3_broom")
    s = structure_from_r(t, r)
    assert s.d == d
    k = critical_group(t, s)
    assert k.invariant_factors == (3, 18)
    assert k.order == 54
    assert tree_order_formula(t, r) == 54


def test_order_formula_matches_group_on_enumerated_structures():
    cfg = EnumerationConfig(r_bound=8, vertex_cap=12)
    for t in (path_tree(4), path_tree(5), star_tree(3)):
        for s in enumerate_structures(t, cfg):
            assert tree_order_formula(t, s.r) == critical_group(t, s).order


def test_order_formula_rejects_leftover_leaf_weight():
    t = star_tree(3)
    with pytest.raises(NonIntegralOrder):
        tree_order_formula(t, {"hub": 1, "leaf00": 2, "leaf01": 1, "leaf02": 1})


def _invariants_by_minors(m):
    """Invariant factors computed from gcds of k x k minors, dropping ones."""
    rows = [list(r) for r in m.rows]
    n = len(rows)
    divisors = [minor_gcd(rows, k) for k in range(n + 1)]
    out = []
    for k in range(1, n + 1):
        if divisors[k] == 0:
            break
        out.append(divisors[k] // divisors[k - 1])
    return tuple(x for x in out if x > 1)


def test_extend_at_keeps_the_group():
    cfg = EnumerationConfig(r_bound=8, vertex_cap=12)
    for t in (path_tree(3), star_tree(3)):
        for s in enumerate_structures(t, cfg):
            before = critical_group(t, s)
            for v in t.vertices:
                g2, s2 = extend_at(t, s, v)
                assert isinstance(g2, Tree)
                assert g2.vertex_count == t.vertex_count + 1
                assert critical_group(g2, s2) == before
                assert _invariants_by_minors(laplacian(g2, s2.d)) == before.invariant_factors


def test_extend_at_on_a_graph_with_cycles():
    g, r, d = fixture_graph("c4_example")
    s = ArithmeticalStructure(graph=g, r=r, d=d)
    g2, s2 = extend_at(g, s, "v3")
    assert not g2.is_tree
    assert s2.r[[x for x in g2.vertices if x not in g.vertices][0]] == r["v3"]
    assert critical_group(g2, s2) == AbelianGroup((2,))
    with pytest.raises(UnknownVertex):
        extend_at(g, s, "v9")


def test_critical_group_refuses_invalid_structures():
    t = path_tree(3)
    bad = ArithmeticalStructure(
        graph=t, r={v: 1 for v in t.vertices}, d={v: 5 for v in t.vertices}
    )
    with pytest.raises(ArithStructError):
        critical_group(t, bad)


# Dense oracle for critical_group: the Smith form of the full matrix,
# whose left * m * right == d re-check then runs at full size.


def dense_group(g, s):
    return AbelianGroup(smith_normal_form(laplacian(g, s.d)).invariant_factors)


def test_critical_group_matches_the_dense_route_on_small_trees():
    count = 0
    for t in all_trees(6):
        for s in enumerate_structures(t, sweep_config(t)):
            assert critical_group(t, s) == dense_group(t, s)
            count += 1
    assert count > 1000


def test_critical_group_matches_the_dense_route_off_trees():
    g, r, d = fixture_graph("c4_example")
    s = ArithmeticalStructure(graph=g, r=r, d=d)
    assert critical_group(g, s) == dense_group(g, s) == AbelianGroup((2,))
    doubled = build_graph([("a", "b", 2), ("b", "c"), ("c", "d"), ("b", "d")])
    graphs = [cycle_graph(n) for n in range(3, 7)] + [doubled]
    for g in graphs:
        structures = structures_by_search(g, 4 if g.vertex_count <= 5 else 3)
        assert len(structures) > 1
        nontrivial = 0
        for s in structures:
            k = critical_group(g, s)
            assert k == dense_group(g, s)
            nontrivial += not k.is_trivial
        assert nontrivial
    # A cycle's Laplacian group is cyclic of order n, and a doubled edge
    # is no unit pivot.
    assert critical_group(cycle_graph(6), laplacian_structure(cycle_graph(6))) == (
        AbelianGroup((6,)))
    two = build_graph([("a", "b", 2)])
    assert critical_group(two, laplacian_structure(two)) == AbelianGroup((2,))


def test_critical_group_matches_the_dense_route_on_brooms():
    for m in (2, 12, 60, 175):
        tree, s = broom_with_group(AbelianGroup.cyclic(m), 1)
        assert critical_group(tree, s) == dense_group(tree, s) == AbelianGroup((m,))


def test_critical_group_matches_the_dense_route_on_large_realizations():
    rng = random.Random(7)
    cases = [(nx.from_prufer_sequence([rng.randrange(90) for _ in range(88)]),
              AbelianGroup((2, 6)), 1),
             (nx.from_prufer_sequence([rng.randrange(100) for _ in range(98)]),
              AbelianGroup((3, 9)), 2)]
    for g, target, beta in cases:
        t = build_tree([(f"v{u:03d}", f"v{v:03d}") for u, v in g.edges()])
        tree, s = realize_on_subdivision(t, target, beta)
        assert tree.vertex_count >= 100
        assert critical_group(tree, s) == dense_group(tree, s) == target


def test_critical_group_of_a_2000_vertex_tree():
    # Far past what the dense route finishes in a test run.
    rng = random.Random(2000)
    g = nx.from_prufer_sequence([rng.randrange(2000) for _ in range(1998)])
    t = build_tree([(f"v{u:04d}", f"v{v:04d}") for u, v in g.edges()])
    assert t.vertex_count == 2000
    assert critical_group(t, laplacian_structure(t)).is_trivial


def test_critical_group_checks_corank_and_tree_order(monkeypatch):
    t = fixture_tree("fig3_broom")
    _, r, _ = fixture_graph("fig3_broom")
    s = structure_from_r(t, r)
    assert critical_group(t, s).order == tree_order_formula(t, s.r) == 54
    # Feed the checks a wrong core: they raise, not assert.  t keeps the
    # right factorization of s.d, so each check runs on a fresh copy of t.
    def core(rows):
        class WrongCore(arithstruct._Elimination):
            def __init__(self, g, d):
                super().__init__(g, d)
                self.core = IntegerMatrix(rows)
        return WrongCore

    for rows, error, message in (
            ([[3, 0], [0, 0]], InternalInconsistency, "tree_order_formula 54"),
            ([[54, 0], [0, 1]], RankDefect, "expected corank 1")):
        monkeypatch.setattr(arithstruct, "_Elimination", core(rows))
        with pytest.raises(error, match=message):
            critical_group(build_tree(t.edges()), s)
