"""End-to-end release gate: one test per acceptance requirement.

Run with -v to get a single pass/fail line per criterion. The checks
pin the worked examples exactly, then sweep the enumerated corpus for
the universally quantified laws with zero tolerance for violations.
"""

import itertools
import random
from math import gcd

from bruteforce import (
    fire_simulation,
    minor_gcd,
    reduce_to_lstar,
    starlike_group,
    starlike_summary,
)
from corpus import (
    adjacency_map,
    all_trees,
    cycle_graph,
    fixture_graph,
    fixture_tree,
    only_cyclic_shape,
    path_tree,
    star_tree,
    sweep_config,
)
from critforge import (
    AbelianGroup,
    ArithmeticalStructure,
    EnumerationConfig,
    IntegerMatrix,
    Tree,
    broom_with_group,
    check_merge_additivity,
    clearable,
    count_structures,
    critical_group,
    determinantal_divisor,
    divisor_degree,
    enumerate_structures,
    equivalent,
    fire,
    full_divisor,
    invariant_factor_bound,
    iota,
    laplacian,
    laplacian_structure,
    merge_structures,
    order_in_group,
    realize_on_subdivision,
    smith_normal_form,
    solve_integer,
    starlike_critical_group,
    structure_from_r,
    tentacles,
    tree_order_formula,
    two_matching_number,
    validate,
)

C4_DELTA = {"v1": 3, "v2": 1, "v3": -1, "v4": -2}


def load_structure(name):
    g, r, _ = fixture_graph(name)
    if g.is_tree:
        g = Tree.from_graph(g)
    return g, structure_from_r(g, r)


def test_01_cycle_worked_example():
    g, r, d = fixture_graph("c4_example")
    ok, problems = validate(g, d, r)
    assert ok and problems == []
    s = ArithmeticalStructure(graph=g, r=dict(r), d=dict(d))

    assert divisor_degree(full_divisor(g, C4_DELTA), r) == 0
    assert fire(g, d, C4_DELTA, "v2") == {"v1": 4, "v2": -1, "v3": 0, "v4": -2}
    zero = full_divisor(g, {})
    assert equivalent(g, d, C4_DELTA, zero) is None
    assert order_in_group(g, s, C4_DELTA) == 2


def test_02_star_merge_matches_the_merged_fixture():
    g1, s1 = load_structure("fig1_star3")
    g2, s2 = load_structure("fig1_star4")
    k1, k2, km, additive = check_merge_additivity(g1, "s0", s1, g2, "t1", s2)
    assert k1 == AbelianGroup((2,))
    assert k2 == AbelianGroup((2, 6))
    assert km == AbelianGroup((2, 2, 6))
    assert additive is True

    merged, sm = merge_structures(g1, "s0", s1, g2, "t1", s2)
    want_g, want_r, want_d = fixture_graph("fig2_merged")
    assert merged == want_g
    assert sm.r == want_r
    assert sm.d == want_d


def test_03_broom_construction_is_exact():
    tree, s = broom_with_group(AbelianGroup((3, 18)), 2)
    assert s.r == {
        "c": 324, "p01": 108, "p02": 18, "p03": 1,
        "t01": 197, "t02": 70, "t03": 13, "t04": 8, "t05": 3, "t06": 1,
    }
    assert critical_group(tree, s) == AbelianGroup((3, 18))
    assert tree_order_formula(tree, s.r) == 54


def test_04_starlike_summary_agrees_with_smith_route():
    t, s = load_structure("fig3_broom")
    summary = starlike_summary(t, s)
    assert summary.leaf_quotients == (324, 324, 18, 3)
    shortcut = starlike_group(t, s)
    assert shortcut == AbelianGroup((3, 18))
    assert shortcut == critical_group(t, s) == starlike_critical_group(t, s)


def test_05_large_tree_matching_and_bound():
    t = fixture_tree("fig4_tree")
    nu = two_matching_number(t)
    assert nu == 14
    assert iota(t) == 3
    assert len(t.leaves) == 12
    assert invariant_factor_bound(t) == 7
    assert t.edge_count - nu == 7 == 21 - 14


def test_06_irregularity_separates_equal_degree_sequences():
    assert iota(fixture_tree("t1")) == 1
    assert iota(fixture_tree("t2")) == 2


def test_07_subdivision_realization_end_to_end():
    base = fixture_tree("fig4_tree")
    target = AbelianGroup((4,) * 7)
    out, s = realize_on_subdivision(base, target, 3)

    # out is a subdivision of the input: the original vertices keep
    # their degrees and every inserted vertex is a degree-2 waypoint.
    for v in base.vertices:
        assert out.degree(v) == base.degree(v)
    for v in out.vertices:
        if v not in base.vertices:
            assert out.degree(v) == 2
    assert out.leaves == base.leaves

    assert iota(out) == 3
    assert critical_group(out, s) == target

    # The single-factor piece labelling (16; 4, 1; 11, 6, 1) appears:
    # a branch vertex carrying 16 with a unit neighbor, a one-edge
    # tentacle carrying 4, and a three-edge tail running 11, 6, 1.
    found = False
    for c in out.branch_vertices:
        if s.r[c] != 16:
            continue
        vals = [tuple(s.r[u] for u in ten.vertices)
                for ten in tentacles(out) if ten.attachment == c]
        if (4,) in vals and (11, 6, 1) in vals and any(
            s.r[u] == 1 for u in out.neighbors(c)
        ):
            found = True
            break
    assert found


def test_08_corpus_sweep_group_laws():
    total = 0
    for t in all_trees(8):
        it = iota(t)
        bound = max(len(t.leaves) - 2 - it, 0)
        is_path = t.is_path
        starlike = t.is_starlike
        cyclic_only = only_cyclic_shape(t)
        for s in enumerate_structures(t, sweep_config(t)):
            total += 1
            k = critical_group(t, s)
            assert k.order == tree_order_formula(t, s.r)
            assert len(k.invariant_factors) <= bound
            if is_path:
                assert k.is_trivial
            if cyclic_only:
                assert len(k.invariant_factors) <= 1
            if starlike:
                assert starlike_critical_group(t, s) == k == starlike_group(t, s)
    assert total == 82717

    # Merging random structure pairs: the order identity carries the
    # squared gcd of the glued values, and coprime gluing is additive.
    rng = random.Random(20260822)
    star = star_tree(3)
    path = path_tree(4)
    star_pool = list(enumerate_structures(star, EnumerationConfig(r_bound=10)))
    path_pool = list(enumerate_structures(path, EnumerationConfig(r_bound=8)))
    coprime = mixed = 0
    for _ in range(30):
        s1 = rng.choice(star_pool)
        s2 = rng.choice(path_pool)
        x = rng.choice(list(star.vertices))
        y = rng.choice(list(path.vertices))
        k1, k2, km, additive = check_merge_additivity(star, x, s1, path, y, s2)
        g0 = gcd(s1.r[x], s2.r[y])
        assert km.order == k1.order * k2.order * g0 * g0
        if g0 == 1:
            assert additive is True
            coprime += 1
        else:
            mixed += 1
    assert coprime and mixed


def test_09_matrix_level_oracles():
    # Determinantal divisors against cofactor-expansion minor gcds on
    # every matrix the small fixtures give rise to.
    matrices = []
    for name in ("c4_example", "fig1_star3", "fig1_star4"):
        g, s = load_structure(name)
        matrices.append(laplacian(g, s.d))
        if g.is_tree and g.is_starlike:
            matrices.append(reduce_to_lstar(g, s))
    for m in matrices:
        n = m.shape[0]
        assert n <= 5
        rows = [[m.entry(i, j) for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            assert determinantal_divisor(m, k) == minor_gcd(rows, k)

    # Clearability answered through the Smith form agrees with the
    # top minor gcd, and positive answers replay as chip arithmetic.
    g, s = load_structure("c4_example")
    cases = [(g, s.d), (cycle_graph(5), laplacian_structure(cycle_graph(5)).d)]
    for t in (path_tree(4), path_tree(5), star_tree(3), star_tree(4)):
        cases.append((t, laplacian_structure(t).d))
    for g, d in cases:
        verts = list(g.vertices)
        lap = laplacian(g, d)
        adj = adjacency_map(g)
        for nx in range(1, len(verts) + 1):
            for xs in itertools.combinations(verts, nx):
                for ny in range(nx, len(verts) + 1):
                    for ys in itertools.combinations(verts, ny):
                        got = clearable(g, d, list(xs), list(ys))
                        block = [
                            [lap.entry(g.index(x), g.index(y)) for y in ys]
                            for x in xs
                        ]
                        assert got == (minor_gcd(block, nx) == 1)
                        if not got:
                            continue
                        m = IntegerMatrix(block)
                        for i, x in enumerate(xs):
                            sol = solve_integer(
                                m, [1 if j == i else 0 for j in range(nx)])
                            assert sol is not None
                            counts = {v: 0 for v in verts}
                            counts.update(zip(ys, sol))
                            pile = {v: (1 if v == x else 0) for v in verts}
                            final = fire_simulation(adj, d, pile, counts)
                            assert all(final[v] == 0 for v in xs)

    # Reducing a starlike structure pads its Smith form with ones and
    # changes nothing else, across the whole small starlike corpus.
    pad_bounds = {2: 10, 3: 8, 4: 6, 5: 5, 6: 4, 7: 3, 8: 3}

    def padded_ok(t, s):
        full = sorted(smith_normal_form(laplacian(t, s.d)).diagonal)
        small = sorted(smith_normal_form(reduce_to_lstar(t, s)).diagonal)
        pad = t.vertex_count - len(small)
        return pad >= 0 and full == sorted(small + [1] * pad)

    broom, broom_s = load_structure("fig3_broom")
    assert padded_ok(broom, broom_s)
    for t in all_trees(9):
        if not t.is_starlike:
            continue
        cfg = EnumerationConfig(r_bound=pad_bounds[max(2, len(t.leaves))])
        for s in enumerate_structures(t, cfg):
            assert padded_ok(t, s)


def test_10_path_enumeration_counts_saturate():
    for n, want in ((2, 1), (3, 2), (4, 5), (5, 14)):
        t = path_tree(n)
        assert count_structures(t, EnumerationConfig(r_bound=60)) == want
        assert count_structures(t, EnumerationConfig(r_bound=120)) == want
