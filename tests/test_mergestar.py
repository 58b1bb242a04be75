"""Gluing structures at a vertex, and starlike critical groups against the
quotient-formula oracle."""

import random
from math import gcd

import pytest

import bruteforce
from bruteforce import (
    laplacian,
    reduce_to_lstar,
    smith_invariant_factors,
    starlike_group,
    starlike_summary,
)
from corpus import (
    all_trees,
    count_calls,
    fixture_graph,
    fixture_tree,
    path_tree,
    running_example_tree,
    star_tree,
    sweep_config,
)
from critforge import arithstruct, exactlinalg, mergestar
from critforge import (
    AbelianGroup,
    ArithStructError,
    ArithmeticalStructure,
    EnumerationConfig,
    InternalInconsistency,
    NotStarlike,
    Tree,
    check_merge_additivity,
    critical_group,
    enumerate_structures,
    group_from_orders,
    laplacian_structure,
    merge_structures,
    smith_normal_form,
    starlike_critical_group,
    structure_from_r,
)


def load(name):
    g, r, d = fixture_graph(name)
    if g.is_tree:
        g = Tree.from_graph(g)
    return g, structure_from_r(g, r)


def test_merge_reproduces_the_paired_stars_fixture():
    g1, s1 = load("fig1_star3")
    g2, s2 = load("fig1_star4")
    merged, sm = merge_structures(g1, "s0", s1, g2, "t1", s2)
    want_g, want_r, want_d = fixture_graph("fig2_merged")
    assert merged == want_g
    assert sm.r == want_r
    assert sm.d == want_d
    k1, k2, km, additive = check_merge_additivity(g1, "s0", s1, g2, "t1", s2)
    assert k1 == AbelianGroup((2,))
    assert k2 == AbelianGroup((2, 6))
    assert km == AbelianGroup((2, 2, 6))
    assert additive
    assert km.order == 24


def test_a_wrong_coprime_merge_group_raises(monkeypatch):
    g1, s1 = load("fig1_star3")
    g2, s2 = load("fig1_star4")
    monkeypatch.setattr(mergestar, "critical_group", lambda g, s: AbelianGroup((999,)))
    with pytest.raises(InternalInconsistency, match="coprime merge"):
        check_merge_additivity(g1, "s0", s1, g2, "t1", s2)


def test_merge_with_shared_factor_is_not_additive():
    a = path_tree(3, prefix="a")
    b = path_tree(3, prefix="b")
    sa = structure_from_r(a, {"a00": 1, "a01": 2, "a02": 1})
    sb = structure_from_r(b, {"b00": 1, "b01": 2, "b02": 1})
    k1, k2, km, additive = check_merge_additivity(a, "a01", sa, b, "b01", sb)
    assert k1.is_trivial and k2.is_trivial
    assert km == AbelianGroup((2, 2))
    assert not additive


def test_merge_rejects_invalid_inputs():
    g1, s1 = load("fig1_star3")
    g2, _ = load("fig1_star4")
    broken = ArithmeticalStructure(
        graph=g2, r={v: 1 for v in g2.vertices}, d={v: 9 for v in g2.vertices}
    )
    with pytest.raises(ArithStructError):
        merge_structures(g1, "s0", s1, g2, "t1", broken)


def test_random_merges_obey_the_coprimality_rule():
    cfg = EnumerationConfig(r_bound=10, vertex_cap=12)
    left_pool = [
        (star_tree(3), s) for s in enumerate_structures(star_tree(3), cfg)
    ]
    right_tree = path_tree(4, prefix="q")
    right_pool = [
        (right_tree, s) for s in enumerate_structures(right_tree, cfg)
    ]
    rng = random.Random(424242)
    for _ in range(25):
        g1, s1 = rng.choice(left_pool)
        g2, s2 = rng.choice(right_pool)
        x = rng.choice(g1.vertices)
        y = rng.choice(g2.vertices)
        k1, k2, km, additive = check_merge_additivity(g1, x, s1, g2, y, s2)
        g0 = gcd(s1.r[x], s2.r[y])
        assert additive == (g0 == 1)
        assert km.order == k1.order * k2.order * g0 * g0


def test_summary_of_the_broom():
    t, s = load("fig3_broom")
    summary = starlike_summary(t, s)
    assert summary.center == "v0"
    assert summary.center_value == 324
    assert summary.center_degree_value == 1
    assert summary.leaf_quotients == (324, 324, 18, 3)
    assert summary.first_quotients == (1, 197, 1, 1)


def test_summary_needs_a_starlike_tree():
    t, s = load("fig3_broom")
    with pytest.raises(bruteforce.NotStarlike):
        starlike_summary(path_tree(4), laplacian_structure(path_tree(4)))
    pt = running_example_tree()
    with pytest.raises(bruteforce.NotStarlike):
        starlike_summary(pt, laplacian_structure(pt))
    broken = ArithmeticalStructure(
        graph=t, r=dict(s.r), d={v: 7 for v in t.vertices}
    )
    with pytest.raises(ValueError, match="invalid structure"):
        starlike_summary(t, broken)


def test_the_starlike_call_reuses_the_factorization_and_refuses_as_before(monkeypatch):
    t, s = load("fig3_broom")
    built = count_calls(monkeypatch, arithstruct, "_Elimination")
    smiths = count_calls(monkeypatch, exactlinalg, "smith_normal_form")
    assert critical_group(t, s) == AbelianGroup((3, 18))
    assert starlike_critical_group(t, s) == AbelianGroup((3, 18))
    assert len(built) == 1
    assert len(smiths) == 1

    with pytest.raises(NotStarlike):
        starlike_critical_group(path_tree(4), laplacian_structure(path_tree(4)))
    pt = running_example_tree()
    with pytest.raises(NotStarlike):
        starlike_critical_group(pt, laplacian_structure(pt))
    broken = ArithmeticalStructure(
        graph=t, r=dict(s.r), d={v: 7 for v in t.vertices}
    )
    with pytest.raises(ArithStructError):
        starlike_critical_group(t, broken)


def test_reduced_matrix_of_the_broom():
    t, s = load("fig3_broom")
    assert reduce_to_lstar(t, s).rows == (
        (324, 0, 0, 0, -1),
        (0, 324, 0, 0, -197),
        (0, 0, 18, 0, -1),
        (0, 0, 0, 3, -1),
        (-1, -1, -1, -1, 1),
    )


def test_quotient_route_matches_the_matrix_route():
    big = star_tree(5)
    cases = [
        (load("fig3_broom"), AbelianGroup((3, 18))),
        (load("fig1_star3"), AbelianGroup((2,))),
        (load("fig1_star4"), AbelianGroup((2, 6))),
        ((big, laplacian_structure(big)), AbelianGroup(())),
    ]
    for (t, s), want in cases:
        assert starlike_group(t, s) == want
        assert critical_group(t, s) == want
        assert starlike_critical_group(t, s) == want


def test_only_the_matrix_route_runs_a_smith_form(monkeypatch):
    t, s = load("fig3_broom")
    calls = count_calls(monkeypatch, exactlinalg, "smith_normal_form")
    assert starlike_group(t, s) == AbelianGroup((3, 18))
    assert AbelianGroup((2, 6)).direct_sum(AbelianGroup((4, 12))) == AbelianGroup((2, 2, 12, 12))
    assert calls == []
    assert critical_group(t, s) == AbelianGroup((3, 18))
    assert len(calls) == 1


def test_quotient_sums_match_the_smith_route_on_every_small_starlike_structure():
    count = 0
    for t in all_trees(7):
        if not t.is_starlike:
            continue
        for s in enumerate_structures(t, sweep_config(t)):
            summary = starlike_summary(t, s)
            r0 = summary.center_value
            for orders in (summary.leaf_quotients, (r0, r0)):
                want = smith_invariant_factors(orders)
                assert group_from_orders(orders).invariant_factors == want, orders
            k = critical_group(t, s)
            assert starlike_critical_group(t, s) == k == starlike_group(t, s)
            count += 1
    assert count == 11019


def _starlike_corpus():
    yield load("fig3_broom")
    for leaves, bound in ((3, 10), (4, 6)):
        t = star_tree(leaves)
        cfg = EnumerationConfig(r_bound=bound, vertex_cap=12)
        for s in enumerate_structures(t, cfg):
            yield t, s


def test_reduced_matrix_has_the_same_smith_form_padded():
    for t, s in _starlike_corpus():
        full = sorted(smith_normal_form(laplacian(t, s.d)).diagonal)
        small = sorted(smith_normal_form(reduce_to_lstar(t, s)).diagonal)
        pad = t.vertex_count - len(small)
        assert pad >= 0
        assert full == sorted(small + [1] * pad)
        assert starlike_group(t, s) == critical_group(t, s)


def _prime_power_parts(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 1
            n //= p
            while n % p == 0:
                n //= p
                a += 1
            out.append(p**a)
        p += 1
    if n > 1:
        out.append(n)
    return out


def test_every_center_prime_power_divides_two_quotients():
    for t, s in _starlike_corpus():
        summary = starlike_summary(t, s)
        for q in _prime_power_parts(summary.center_value):
            hits = [x for x in summary.leaf_quotients if x % q == 0]
            assert len(hits) >= 2, (summary.center_value, summary.leaf_quotients)
