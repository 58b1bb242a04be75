"""Firing moves, equivalence witnesses, sweeps, and clearability."""

import hashlib
import itertools
import random
import sys
import threading
import traceback
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import fire_simulation, minor_gcd, small_solution
from corpus import (
    adjacency_map,
    count_tentacle_walks,
    all_trees,
    count_calls,
    cycle_graph,
    fixture_graph,
    fixture_tree,
    running_example_tree,
    path_tree,
    random_name_tree,
    star_tree,
    structures_by_search,
    sweep_config,
)
from critforge import arithstruct, chipfiring, exactlinalg
from critforge import (
    AbelianGroup,
    ArithmeticalStructure,
    ChipFiringError,
    InternalInconsistency,
    NonzeroDegree,
    SizeViolation,
    Tentacle,
    Tree,
    UnknownVertex,
    build_graph,
    build_tree,
    clearable,
    critical_group,
    divisor_degree,
    enumerate_structures,
    equivalent,
    fire,
    full_divisor,
    invariant_factor_bound,
    iota,
    laplacian,
    laplacian_structure,
    order_in_group,
    realize_on_subdivision,
    reduce_support,
    smith_normal_form,
    solve_integer,
    sweep_tentacle,
    starlike_decomposition,
    structure_from_r,
    tentacles,
)

C4_DELTA = {"v1": 3, "v2": 1, "v3": -1, "v4": -2}


def c4():
    g, r, d = fixture_graph("c4_example")
    return g, ArithmeticalStructure(graph=g, r=r, d=d)


def broom():
    t = fixture_tree("fig3_broom")
    _, r, _ = fixture_graph("fig3_broom")
    return t, structure_from_r(t, r)


def assert_witness(g, d, d1, d2, x):
    """x must satisfy d1 - L x = d2 entrywise."""
    moved = laplacian(g, d).apply([x[v] for v in g.vertices])
    a = full_divisor(g, d1)
    b = full_divisor(g, d2)
    for i, v in enumerate(g.vertices):
        assert a[v] - moved[i] == b[v]


def test_fire_and_degree_on_the_cycle():
    g, s = c4()
    assert divisor_degree(C4_DELTA, s.r) == 0
    after = fire(g, s.d, C4_DELTA, "v2")
    assert after == {"v1": 4, "v2": -1, "v3": 0, "v4": -2}
    assert divisor_degree(after, s.r) == 0
    borrowed = fire(g, s.d, after, "v2", times=-1)
    assert borrowed == full_divisor(g, C4_DELTA)


def test_fire_validation():
    g, s = c4()
    with pytest.raises(UnknownVertex):
        fire(g, s.d, C4_DELTA, "v9")
    with pytest.raises(UnknownVertex):
        full_divisor(g, {"v9": 1})
    with pytest.raises(ChipFiringError):
        fire(g, {"v1": 3}, C4_DELTA, "v2")


@pytest.mark.parametrize("call", [
    lambda t, d, r, bad: full_divisor(t, {"p01": bad}),
    lambda t, d, r, bad: fire(t, {**d, "p01": bad}, {}, "p01"),
    lambda t, d, r, bad: fire(t, d, {}, "p01", bad),
    lambda t, d, r, bad: divisor_degree({"p01": bad}, r),
    lambda t, d, r, bad: divisor_degree({"p01": 1}, {**r, "p01": bad}),
    lambda t, d, r, bad: equivalent(t, {**d, "p01": bad}, {}, {}),
    lambda t, d, r, bad: clearable(t, {**d, "p01": bad}, ["p01"], ["p01"]),
], ids=["full_divisor", "fire", "fire_times", "divisor_degree_chips",
        "divisor_degree_r", "equivalent", "clearable"])
@pytest.mark.parametrize("bad", [1.5, True])
def test_chip_firing_takes_exact_integers_only(call, bad):
    t = path_tree(3)
    s = laplacian_structure(t)
    with pytest.raises(ChipFiringError, match=rf"\(p01\) = {bad!r} is not an integer"):
        call(t, s.d, s.r, bad)


@pytest.mark.parametrize("call", [
    lambda t, s, d: fire(t, d, {}, "p01"),
    lambda t, s, d: equivalent(t, d, {}, {}),
    lambda t, s, d: order_in_group(t, ArithmeticalStructure(graph=t, r=s.r, d=d), {}),
    lambda t, s, d: clearable(t, d, ["p00"], ["p00"]),
], ids=["fire", "equivalent", "order_in_group", "clearable"])
def test_a_missing_d_value_is_one_chip_firing_error(call):
    t = path_tree(3)
    s = laplacian_structure(t)
    d = {v: x for v, x in s.d.items() if v != "p01"}
    with pytest.raises(ChipFiringError, match=r"^d labelling lacks vertex 'p01'$"):
        call(t, s, d)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(all_trees(7)),
    st.data(),
    st.integers(-3, 3),
)
def test_fire_preserves_weighted_degree(t, data, times):
    s = laplacian_structure(t)
    delta = {
        v: data.draw(st.integers(-4, 4), label=f"chips at {v}")
        for v in t.vertices
    }
    v = data.draw(st.sampled_from(t.vertices))
    before = divisor_degree(delta, s.r)
    after = fire(t, s.d, delta, v, times=times)
    assert divisor_degree(after, s.r) == before


def test_equivalence_on_the_cycle():
    g, s = c4()
    # one copy of the divisor is not a multiple of the lattice ...
    assert equivalent(g, s.d, C4_DELTA, {v: 0 for v in g.vertices}) is None
    lap = [list(row) for row in laplacian(g, s.d).rows]
    rhs = [C4_DELTA[v] for v in g.vertices]
    assert small_solution(lap, rhs, 8) is None
    # ... but two copies are, witnessed by an explicit firing vector.
    doubled = {v: 2 * x for v, x in C4_DELTA.items()}
    x = equivalent(g, s.d, doubled, {v: 0 for v in g.vertices})
    assert x is not None
    assert_witness(g, s.d, doubled, {}, x)
    reached = fire_simulation(adjacency_map(g), s.d, doubled, x)
    assert all(c == 0 for c in reached.values())


def test_equivalent_finds_the_zero_witness():
    g, s = c4()
    x = equivalent(g, s.d, C4_DELTA, C4_DELTA)
    assert x is not None
    assert_witness(g, s.d, C4_DELTA, C4_DELTA, x)


def test_order_on_the_cycle():
    g, s = c4()
    assert order_in_group(g, s, C4_DELTA) == 2
    assert order_in_group(g, s, {}) == 1
    with pytest.raises(NonzeroDegree):
        order_in_group(g, s, {"v1": 1})


def test_order_scales_with_multiples():
    g, s = c4()
    t, st_ = broom()
    probe = [(g, s, C4_DELTA), (t, st_, {"v2": 1, "v9": -18})]
    for graph, struct, delta in probe:
        n = order_in_group(graph, struct, delta)
        for k in range(1, 7):
            scaled = {v: k * x for v, x in delta.items()}
            from math import gcd

            assert order_in_group(graph, struct, scaled) == n // gcd(n, k)


def test_broom_divisor_order_divides_the_exponent():
    t, s = broom()
    delta = {"v2": 1, "v9": -18}
    assert divisor_degree(delta, s.r) == 0
    n = order_in_group(t, s, delta)
    assert 18 % n == 0


def test_sweep_inward_parks_chips_at_the_attachment_end():
    t, s = broom()
    tail = [ten for ten in tentacles(t) if ten.leaf == "v9"][0]
    assert tail.vertices == ("v4", "v5", "v6", "v7", "v8", "v9")
    delta = full_divisor(t, {"v9": 5, "v7": -2, "v0": 1})
    before = divisor_degree(delta, s.r)
    after, fired = sweep_tentacle(t, s.d, delta, tail, "inward")
    assert all(after[v] == 0 for v in tail.vertices[1:])
    assert divisor_degree(after, s.r) == before
    assert fire_simulation(adjacency_map(t), s.d, delta, fired) == after


def test_sweep_outward_pushes_chips_to_the_leaf():
    t, s = broom()
    tail = [ten for ten in tentacles(t) if ten.leaf == "v9"][0]
    delta = full_divisor(t, {"v9": 5, "v7": -2, "v0": 1})
    after, fired = sweep_tentacle(t, s.d, delta, tail, "outward")
    assert after["v0"] == 0
    assert all(after[v] == 0 for v in tail.vertices[:-1])
    assert divisor_degree(after, s.r) == divisor_degree(delta, s.r)
    assert fire_simulation(adjacency_map(t), s.d, delta, fired) == after


def test_sweep_leaves_short_tentacles_alone():
    t, s = broom()
    prong = [ten for ten in tentacles(t) if ten.leaf == "v2"][0]
    assert prong.length == 1
    delta = {"v2": 3}
    after, fired = sweep_tentacle(t, s.d, delta, prong, "inward")
    assert after == full_divisor(t, delta)
    assert all(x == 0 for x in fired.values())


def test_sweep_validation():
    t, s = broom()
    tail = [ten for ten in tentacles(t) if ten.leaf == "v9"][0]
    with pytest.raises(ValueError):
        sweep_tentacle(t, s.d, {}, tail, "sideways")
    with pytest.raises(ChipFiringError):
        bad = Tentacle(vertices=("v4", "v6"), attachment="v0")
        sweep_tentacle(t, s.d, {}, bad, "inward")
    with pytest.raises(UnknownVertex):
        bad = Tentacle(vertices=("v4", "zz"), attachment="v0")
        sweep_tentacle(t, s.d, {}, bad, "inward")


def test_reduce_support_on_a_path():
    t = path_tree(5)
    s = laplacian_structure(t)
    delta = {"p04": 3, "p01": -1}
    dec = starlike_decomposition(t)
    reduced = reduce_support(t, s.d, delta, dec)
    assert reduced == {"p00": 2, "p01": 0, "p02": 0, "p03": 0, "p04": 0}
    assert equivalent(t, s.d, delta, reduced) is not None


def test_reduce_support_on_starlike_trees():
    t = star_tree(3)
    s = laplacian_structure(t)
    dec = starlike_decomposition(t)
    reduced = reduce_support(t, s.d, {"hub": 4, "leaf00": -1}, dec)
    support = [v for v, c in reduced.items() if c]
    assert len(support) <= 2
    assert all(t.degree(v) == 1 for v in support)

    t2, s2 = broom()
    dec2 = starlike_decomposition(t2)
    delta2 = {"v0": 7, "v6": -3, "v9": 2}
    reduced2 = reduce_support(t2, s2.d, delta2, dec2)
    support2 = [v for v, c in reduced2.items() if c]
    assert len(support2) <= 3
    assert all(t2.degree(v) == 1 for v in support2)
    assert divisor_degree(reduced2, s2.r) == divisor_degree(delta2, s2.r)


def test_reduce_support_on_a_branching_tree():
    t = running_example_tree()
    s = laplacian_structure(t)
    dec = starlike_decomposition(t)
    rng = random.Random(20260822)
    for _ in range(12):
        delta = {v: rng.randint(-5, 5) for v in t.vertices}
        reduced = reduce_support(t, s.d, delta, dec)
        support = [v for v, c in reduced.items() if c]
        assert len(support) <= 5
        assert all(t.degree(v) == 1 for v in support)
        x = equivalent(t, s.d, delta, reduced)
        assert x is not None
        assert fire_simulation(adjacency_map(t), s.d, delta, x) == reduced


def test_reduce_support_walks_tentacles_at_most_twice(monkeypatch):
    rng = random.Random(1616)
    for n in (30, 100, 200):
        t = random_name_tree(rng, n)
        s = laplacian_structure(t)
        delta = {v: rng.randint(-3, 3) for v in t.vertices}
        calls = count_tentacle_walks(monkeypatch)
        dec = starlike_decomposition(t)
        try:
            reduce_support(t, s.d, delta, dec)
        except AssertionError as exc:
            # only the known leaf-postcondition defect; the walks still count
            line = traceback.extract_tb(exc.__traceback__)[-1].line
            assert line.startswith(("assert all(v in allowed", "assert t.vertex_count == 1"))
        monkeypatch.undo()
        assert len(dec.pieces) >= n // 10
        assert 1 <= len(calls) <= 2, (n, len(dec.pieces), len(calls))


def test_reduce_support_copies_the_divisor_at_most_twice(monkeypatch):
    rng = random.Random(2122)
    for n in (30, 100):
        t = random_name_tree(rng, n)
        s = laplacian_structure(t)
        delta = {v: rng.randint(-3, 3) for v in t.vertices}
        dec = starlike_decomposition(t)
        calls = count_calls(monkeypatch, chipfiring, "full_divisor")
        try:
            reduce_support(t, s.d, delta, dec)
        except AssertionError as exc:
            # only the known leaf-postcondition defect; the copies still count
            line = traceback.extract_tb(exc.__traceback__)[-1].line
            assert line.startswith(("assert all(v in allowed", "assert t.vertex_count == 1"))
        monkeypatch.undo()
        assert 1 <= len(calls) <= 2, (n, len(calls))


def sweep_golden_cases():
    """Seeded (graph, structure, divisor) cases: random-name trees of 10 to
    60 vertices, each with its Laplacian structure and a structure
    realized on a subdivision, each with a degree-zero divisor and an
    arbitrary one."""
    rng = random.Random(2121)
    for _ in range(110):
        t = random_name_tree(rng, rng.randint(10, 60))
        chain = {0: (), 1: (6,)}.get(invariant_factor_bound(t), (2, 6))
        _, realized = realize_on_subdivision(t, AbelianGroup(chain), max(0, iota(t) - 2))
        for s in (laplacian_structure(t), realized):
            g = s.graph
            yield g, s, degree_zero_divisor(rng, g, s)
            yield g, s, {v: rng.randint(-4, 4) for v in rng.sample(g.vertices, 6)}


def sweep_record(g, s, delta):
    """reduce_support's result, or the text of the assert line it raised,
    with every tentacle swept both ways and three firings."""
    try:
        reduced = reduce_support(g, s.d, delta, starlike_decomposition(g))
    except AssertionError as exc:
        reduced = traceback.extract_tb(exc.__traceback__)[-1].line
    sweeps = [sweep_tentacle(g, s.d, delta, ten, direction)
              for ten in tentacles(g) for direction in ("inward", "outward")]
    fired = [fire(g, s.d, delta, v, k) for v, k in zip(g.vertices, (-2, 1, 3))]
    return reduced, sweeps, fired


# SHA-256 of every golden case's record, as computed when each chip move
# still copied the whole divisor.  Under ``python -O`` reduce_support
# skips its asserts and returns what they would have refused.
GOLDEN_SWEEPS = {
    True: "e537da54a19bc662dcdfd0bd3bae47907f635719a162dc322a82d5a413ef155e",
    False: "a2b3f45b851575933ce4e15faddac53c3c01870e2a4c4b3f8f99adad16987458",
}


def test_sweeps_match_the_golden_digest():
    digest = hashlib.sha256()
    cases = 0
    for g, s, delta in sweep_golden_cases():
        digest.update(repr(sweep_record(g, s, delta)).encode())
        cases += 1
    assert cases == 440
    assert digest.hexdigest() == GOLDEN_SWEEPS[__debug__]


def divisor_golden_cases():
    """The sweep cases, then c4_example and every structure with r up to 4
    on a graph with a doubled edge, each with a degree-zero divisor."""
    yield from sweep_golden_cases()
    g, s = c4()
    yield g, s, C4_DELTA
    rng = random.Random(2323)
    doubled = build_graph([("a", "b", 2), ("b", "c"), ("c", "d"), ("b", "d")])
    for s in structures_by_search(doubled, 4):
        yield doubled, s, degree_zero_divisor(rng, doubled, s)


def divisor_record(g, s, delta):
    """The order of delta's class (None off degree zero) and the witnesses
    that take delta to nothing, to delta fired twice at one vertex, and to
    one chip there (None where there is none)."""
    order = order_in_group(g, s, delta) if divisor_degree(delta, s.r) == 0 else None
    v = g.vertices[g.vertex_count // 2]
    targets = ({}, fire(g, s.d, delta, v, 2), {v: 1})
    return order, [equivalent(g, s.d, delta, other) for other in targets]


def divisor_digest(cases):
    digest = hashlib.sha256()
    for g, s, delta in cases:
        digest.update(repr(divisor_record(g, s, delta)).encode())
    return digest.hexdigest()


# SHA-256 of every divisor golden case's record, as computed when chip
# firing still replayed the unit-pivot log itself; the same under -O
GOLDEN_DIVISORS = "9ece543c7ca4e13022fbc642b929952dce38bc9ec3c4cab232d429dcb025e971"


def test_divisor_queries_match_the_golden_digest():
    cases = list(divisor_golden_cases())
    assert len(cases) > 440
    assert divisor_digest(cases) == GOLDEN_DIVISORS


def test_clearable_known_answers():
    g, s = c4()
    assert clearable(g, s.d, [], []) is True
    assert clearable(g, s.d, [], list(g.vertices)) is True
    assert clearable(g, s.d, list(g.vertices), list(g.vertices)) is False
    with pytest.raises(SizeViolation):
        clearable(g, s.d, ["v1", "v2"], ["v3"])
    with pytest.raises(UnknownVertex):
        clearable(g, s.d, ["zz"], ["v1"])
    for n in (3, 4, 5):
        t = path_tree(n)
        d = laplacian_structure(t).d
        xs = [v for v in t.vertices if v != f"p{n - 1:02d}"]
        assert clearable(t, d, xs, list(t.vertices)) is True


def _clearable_cases():
    g, s = c4()
    yield g, s.d
    for t in (path_tree(3), path_tree(4), path_tree(5), star_tree(3), star_tree(4)):
        yield t, laplacian_structure(t).d


def test_clearable_agrees_with_minors_and_simulation():
    """Sweep every (xs, ys) pair on each small graph and cross-check.

    The library answers through a Smith form; the check recomputes the
    top minor gcd by cofactor expansion, and for positive answers also
    exhibits firing vectors that clear each unit pile, replayed through
    plain chip arithmetic.
    """
    from critforge import IntegerMatrix, solve_integer

    for g, d in _clearable_cases():
        verts = list(g.vertices)
        lap = laplacian(g, d)
        adj = adjacency_map(g)
        for nx in range(len(verts) + 1):
            for xs in itertools.combinations(verts, nx):
                for ny in range(nx, len(verts) + 1):
                    for ys in itertools.combinations(verts, ny):
                        got = clearable(g, d, list(xs), list(ys))
                        if not xs:
                            assert got is True
                            continue
                        block = [
                            [lap.entry(g.index(x), g.index(y)) for y in ys]
                            for x in xs
                        ]
                        assert got == (minor_gcd(block, len(xs)) == 1)
                        if not got:
                            continue
                        m = IntegerMatrix(block)
                        for i, x in enumerate(xs):
                            rhs = [1 if j == i else 0 for j in range(len(xs))]
                            sol = solve_integer(m, rhs)
                            assert sol is not None
                            counts = {v: 0 for v in verts}
                            counts.update(zip(ys, sol))
                            pile = {v: (1 if v == x else 0) for v in verts}
                            final = fire_simulation(adj, d, pile, counts)
                            assert all(final[v] == 0 for v in xs)


# Dense oracle for order_in_group and equivalent: the Smith form of the
# full matrix, whose left * m * right == d re-check then runs at full
# size.  The library solves only the unit-pivot core.


def dense_order(g, s, delta):
    dec = smith_normal_form(laplacian(g, s.d))
    out = full_divisor(g, delta)
    c = dec.left.apply([out[v] for v in g.vertices])
    order = 1
    for di, ci in zip(dec.diagonal, c):
        if di:
            order = lcm(order, di // gcd(di, ci))
        else:
            assert ci == 0
    return order


def dense_witness(g, d, d1, d2):
    a = full_divisor(g, d1)
    b = full_divisor(g, d2)
    x = solve_integer(laplacian(g, d), [a[v] - b[v] for v in g.vertices])
    return None if x is None else dict(zip(g.vertices, x))


def degree_zero_divisor(rng, g, s, pairs=3):
    """A sum of seeded multiples of r(v) e_u - r(u) e_v, so degree zero
    on any structure."""
    delta = {v: 0 for v in g.vertices}
    for _ in range(pairs):
        u, v = rng.sample(g.vertices, 2)
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        delta[u] += k * s.r[v]
        delta[v] -= k * s.r[u]
    return delta


def fired_at_random(rng, g, d, delta, count=3):
    out = full_divisor(g, delta)
    for v in rng.sample(g.vertices, min(count, g.vertex_count)):
        out = fire(g, d, out, v, rng.choice((-2, -1, 1, 2)))
    return out


def replay(g, d, delta, x):
    out = full_divisor(g, delta)
    for v, times in x.items():
        if times:
            out = fire(g, d, out, v, times)
    return out


def check_against_dense(rng, g, s, delta):
    """order_in_group and equivalent agree with the dense route, to zero
    and to a divisor reached by firing; returns the order."""
    assert divisor_degree(delta, s.r) == 0
    order = order_in_group(g, s, delta)
    assert order == dense_order(g, s, delta)
    for target in ({}, fired_at_random(rng, g, s.d, delta)):
        x = equivalent(g, s.d, delta, target)
        assert (x is None) == (dense_witness(g, s.d, delta, target) is None)
        if target == {}:
            assert (x is None) == (order > 1)
        else:
            assert x is not None
        if x is not None:
            assert_witness(g, s.d, delta, target, x)
            assert replay(g, s.d, delta, x) == full_divisor(g, target)
    return order


def test_divisor_queries_match_the_dense_route_on_small_trees():
    rng = random.Random(61)
    count = nontrivial = 0
    for t in all_trees(6):
        for s in enumerate_structures(t, sweep_config(t)):
            nontrivial += check_against_dense(rng, t, s, degree_zero_divisor(rng, t, s)) > 1
            count += 1
    assert count > 1000
    assert nontrivial > 100


def test_divisor_queries_match_the_dense_route_off_trees():
    rng = random.Random(62)
    g, r, d = fixture_graph("c4_example")
    s = ArithmeticalStructure(graph=g, r=r, d=d)
    assert check_against_dense(rng, g, s, C4_DELTA) == 2
    doubled = build_graph([("a", "b", 2), ("b", "c"), ("c", "d"), ("b", "d")])
    graphs = [cycle_graph(n) for n in range(3, 7)] + [doubled]
    for g in graphs:
        nontrivial = 0
        for s in structures_by_search(g, 4 if g.vertex_count <= 5 else 3):
            for _ in range(2):
                nontrivial += check_against_dense(rng, g, s, degree_zero_divisor(rng, g, s)) > 1
        assert nontrivial


def test_divisor_queries_match_the_dense_route_on_random_name_trees():
    rng = random.Random(63)
    realized = nontrivial = 0
    for n in range(10, 61, 5):
        t = random_name_tree(rng, n)
        structures = [laplacian_structure(t)]
        chain = (2, 6) if invariant_factor_bound(t) >= 2 else (6,)
        tree, s = realize_on_subdivision(t, AbelianGroup(chain), max(0, iota(t) - 2))
        if tree.vertex_count <= 80:
            structures.append(s)
            realized += 1
        for s in structures:
            for _ in range(2):
                g = s.graph
                nontrivial += check_against_dense(rng, g, s, degree_zero_divisor(rng, g, s)) > 1
    assert realized >= 6
    assert nontrivial


def test_equivalent_on_a_2000_vertex_tree():
    # Far past what the dense route finishes in a test run.
    rng = random.Random(2000)
    t = random_name_tree(rng, 2000)
    s = laplacian_structure(t)
    delta = degree_zero_divisor(rng, t, s, pairs=20)
    assert order_in_group(t, s, delta) == 1
    x = equivalent(t, s.d, delta, {})
    assert x is not None
    for v in t.vertices:
        moved = s.d[v] * x[v] - sum(x[w] for w in t.neighbors(v))
        assert delta[v] - moved == 0
    assert equivalent(t, s.d, delta, {t.vertices[0]: 1}) is None


def test_divisor_queries_build_no_dense_laplacian(monkeypatch):
    rng = random.Random(100)
    t = random_name_tree(rng, 100)
    s = laplacian_structure(t)
    sides = []
    smith = exactlinalg.smith_normal_form

    def recording_smith(m):
        sides.append(max(m.shape))
        return smith(m)

    def refuse(*args):
        raise AssertionError("a divisor query built the dense n x n matrix")

    for mod in (chipfiring, arithstruct):
        monkeypatch.setattr(mod, "laplacian", refuse, raising=False)
    for mod in (arithstruct, exactlinalg):
        monkeypatch.setattr(mod, "smith_normal_form", recording_smith)
    delta = degree_zero_divisor(rng, t, s)
    assert order_in_group(t, s, delta) == 1
    assert equivalent(t, s.d, delta, {}) is not None
    xs = rng.sample(t.vertices, 2)
    clearable(t, s.d, xs, xs + rng.sample(t.vertices, 2))
    # the core's one Smith form, shared by both queries, and clearable's block
    assert len(sides) == 2
    assert max(sides) <= 4
    try:
        reduce_support(t, s.d, delta, starlike_decomposition(t))
    except AssertionError as exc:
        # only reduce_support's known leaf-postcondition defect, which it
        # raises itself after its firing-vector check
        assert traceback.extract_tb(exc.__traceback__)[-1].name == "reduce_support"


def test_reduce_support_raises_on_a_wrong_firing_vector(monkeypatch):
    real = chipfiring._sweep

    def off_by_one(g, d, cur, fired, ten, direction):
        real(g, d, cur, fired, ten, direction)
        fired[ten.vertices[0]] += 1

    monkeypatch.setattr(chipfiring, "_sweep", off_by_one)
    t = running_example_tree()
    s = laplacian_structure(t)
    delta = {v: (-1) ** i * (i % 4) for i, v in enumerate(t.vertices)}
    with pytest.raises(InternalInconsistency, match="firing vector"):
        reduce_support(t, s.d, delta, starlike_decomposition(t))


def test_divisor_queries_raise_on_a_broken_elimination(monkeypatch):
    g, s = c4()

    class BadBackSubstitution(arithstruct._Elimination):
        def __init__(self, g, d):
            super().__init__(g, d)
            i, j, p, prow, pcol = self.log[-1]
            self.log[-1] = (i, j, p, {c: e + 1 for c, e in prow.items()}, pcol)

    monkeypatch.setattr(arithstruct, "_Elimination", BadBackSubstitution)
    doubled = {v: 2 * x for v, x in C4_DELTA.items()}
    with pytest.raises(InternalInconsistency, match="firing vector"):
        equivalent(g, s.d, doubled, {})
    # An r that is not the kernel of diag(d) - A leaves an r-degree-zero
    # divisor with a nonzero image on the zero Smith row.
    monkeypatch.undo()
    t = path_tree(3)
    off = ArithmeticalStructure(graph=t, r={"p00": 1, "p01": 2, "p02": 1},
                                d=laplacian_structure(t).d)
    with pytest.raises(InternalInconsistency, match="nonzero image"):
        order_in_group(t, off, {"p00": 2, "p01": -1})


# Each graph keeps one factorization of diag(d) - A, for the last d
# asked about on it.  Each answer read through it must equal the answer
# computed cold, on a fresh, equal copy of the graph.

def answer(call, g, *args):
    """call(g, *args) through g's kept factorization, checked against the
    same call on a fresh copy of g, which keeps none."""
    got = call(g, *args)
    fresh = (build_tree if isinstance(g, Tree) else build_graph)(g.edges())
    assert fresh == g and fresh._elimination is None
    assert call(fresh, *args) == got
    return got


def queries(rng, g, s):
    """The divisor queries of the bench on one structure, and its group."""
    delta = degree_zero_divisor(rng, g, s)
    return [(critical_group, g, s), (order_in_group, g, s, delta),
            (equivalent, g, s.d, delta, {}),
            (equivalent, g, s.d, delta, fired_at_random(rng, g, s.d, delta))]


def test_two_d_labellings_on_one_graph_queried_alternately():
    t, s = broom()
    other = laplacian_structure(t)
    rng = random.Random(24)
    mixed = zip(queries(rng, t, s), queries(rng, t, other))
    for pair in list(mixed) * 2:
        for call, *args in pair:
            answer(call, *args)
    assert critical_group(t, s) == AbelianGroup((3, 18))
    assert critical_group(t, other).is_trivial


def test_two_equal_graphs_with_the_same_d():
    t1, s1 = broom()
    t2, s2 = broom()
    assert t1 == t2 and t1 is not t2 and s1.d == s2.d
    rng = random.Random(25)
    for first, second in zip(queries(rng, t1, s1), queries(rng, t2, s2)):
        for call, *args in (first, second, first):
            answer(call, *args)


def test_a_d_dict_mutated_in_place_between_calls():
    t, s = broom()
    lap = laplacian_structure(t)
    delta = degree_zero_divisor(random.Random(26), t, lap)
    assert answer(critical_group, t, s) == AbelianGroup((3, 18))
    answer(equivalent, t, s.d, delta, {})
    s.r.update(lap.r)
    s.d.update(lap.d)
    assert answer(critical_group, t, s).is_trivial
    assert answer(order_in_group, t, s, delta) == 1
    assert answer(equivalent, t, s.d, delta, {}) is not None
    d = dict(s.d)
    for v in t.vertices:
        answer(equivalent, t, d, delta, {})
        d[v] += 1


def test_two_structures_queries_interleaved():
    rng = random.Random(27)
    g, s = c4()
    t = random_name_tree(rng, 30)
    chain = realize_on_subdivision(t, AbelianGroup((2, 6)), 0)
    for pair in zip(queries(rng, g, s), queries(rng, *broom()), queries(rng, *chain)):
        for call, *args in pair:
            answer(call, *args)


def test_one_structure_is_factored_once(monkeypatch):
    t, s = broom()
    built, smiths = [], []
    smith = arithstruct.smith_normal_form

    class Counting(arithstruct._Elimination):
        def __init__(self, g, d):
            built.append(g)
            super().__init__(g, d)

    def counting_smith(m):
        smiths.append(m)
        return smith(m)

    monkeypatch.setattr(arithstruct, "_Elimination", Counting)
    monkeypatch.setattr(arithstruct, "smith_normal_form", counting_smith)
    delta = degree_zero_divisor(random.Random(28), t, s)
    assert critical_group(t, s) == AbelianGroup((3, 18))
    assert order_in_group(t, s, delta) > 1
    assert equivalent(t, s.d, delta, {}) is None
    assert len(built) == 1
    assert smiths == [t._elimination[1].core]
    # one changed d value is another factorization, and only the last is kept
    d = dict(s.d)
    d[t.vertices[0]] += 1
    equivalent(t, d, delta, {})
    assert len(built) == len(smiths) == 2
    equivalent(t, s.d, delta, {})
    assert len(built) == len(smiths) == 3


def test_queries_alternating_between_graphs_factor_each_once(monkeypatch):
    built = []

    class Counting(arithstruct._Elimination):
        def __init__(self, g, d):
            built.append(g)
            super().__init__(g, d)

    monkeypatch.setattr(arithstruct, "_Elimination", Counting)
    (a, sa), (b, sb) = broom(), c4()
    rng = random.Random(32)
    da, db = degree_zero_divisor(rng, a, sa), degree_zero_divisor(rng, b, sb)
    moved = fired_at_random(rng, b, sb.d, db)
    for _ in range(3):
        assert order_in_group(a, sa, da) == 18
        assert equivalent(b, sb.d, db, moved) is not None
        assert critical_group(a, sa) == AbelianGroup((3, 18))
    # a, b, a and so on: each graph keeps its own, so none is made again
    assert len(built) == 2 and built[0] is a and built[1] is b


def test_threads_sharing_the_memo_get_their_own_answers():
    t, s = broom()
    lap = laplacian_structure(t)
    rng = random.Random(31)
    cases = [(struct, degree_zero_divisor(rng, t, struct)) for struct in (s, lap)]
    want = [order_in_group(build_tree(t.edges()), struct, delta) for struct, delta in cases]
    assert want[0] > 1 == want[1]
    wrong = []

    def work(k):
        struct, delta = cases[k % 2]
        for _ in range(300):
            try:
                got = order_in_group(t, struct, delta)
            except Exception as exc:
                got = exc
            if got != want[k % 2]:
                wrong.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []
