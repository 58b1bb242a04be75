"""Graph construction, tentacle extraction, and surgery helpers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import adjacency_rows, extend_at
from corpus import (
    all_trees,
    cycle_graph,
    path_tree,
    random_name_tree,
    running_example_tree,
    star_tree,
)
from critforge import (
    DisconnectedGraph,
    DuplicateVertex,
    EmptyGraph,
    Graph,
    GraphError,
    LoopEdge,
    NotATree,
    Tentacle,
    Tree,
    UnknownEdge,
    UnknownVertex,
    build_graph,
    build_tree,
    fresh_name,
    laplacian_structure,
    path_as_tentacle,
    path_endpoints,
    subdivide,
    tentacles,
    wedge,
)


def test_build_graph_accumulates_multiplicity():
    g = build_graph([("a", "b"), ("b", "a"), ("a", "b", 2)])
    assert g.multiplicity("a", "b") == 4
    assert g.multiplicity("b", "a") == 4
    assert g.edges() == [("a", "b", 4)]
    assert g.edge_count == 4
    assert g.vertex_count == 2


def test_build_graph_rejects_bad_input():
    with pytest.raises(EmptyGraph):
        build_graph([])
    with pytest.raises(LoopEdge):
        build_graph([("a", "a")])
    with pytest.raises(GraphError):
        build_graph([("a", "b", 0)])
    with pytest.raises(GraphError):
        build_graph([("a", "b", "x", "y")])


def test_graph_constructor_validation():
    with pytest.raises(EmptyGraph):
        Graph({})
    with pytest.raises(DisconnectedGraph):
        Graph({"a": {"b": 1}, "b": {"a": 1}, "c": {"d": 1}, "d": {"c": 1}})
    with pytest.raises(UnknownVertex):
        Graph({"a": {"b": 1}})
    with pytest.raises(GraphError):
        Graph({"a": {"b": 2}, "b": {"a": 1}})


def test_multiplicities_must_be_integers_not_bools():
    for bad in (True, 1.0, 2.5):
        with pytest.raises(GraphError, match="bad multiplicity"):
            build_graph([("a", "b", bad)])
        with pytest.raises(GraphError, match="bad multiplicity"):
            Graph({"a": {"b": bad}, "b": {"a": bad}})


def recomputed_tables(g):
    """Every table a graph keeps, recomputed from its edge list alone."""
    incident = {v: {} for v in g.vertices}
    for u, v, mult in g.edges():
        incident[u][v] = mult
        incident[v][u] = mult
    degree = {v: sum(nbrs.values()) for v, nbrs in incident.items()}
    order = sorted(incident)
    return {
        "degree": degree,
        "neighbors": {v: tuple(sorted(incident[v])) for v in order},
        "incident": {v: sorted(incident[v].items()) for v in order},
        "leaves": tuple(v for v in order if degree[v] == 1),
        "branch_vertices": tuple(v for v in order if degree[v] >= 3),
        "edge_count": sum(mult for _, _, mult in g.edges()),
        "is_tree": sum(mult for _, _, mult in g.edges()) == len(order) - 1,
    }


def assert_tables_match_the_edges(g):
    want = recomputed_tables(g)
    assert g.edges() == sorted(g.edges())
    assert {v: g.degree(v) for v in g.vertices} == want["degree"]
    assert {v: g.neighbors(v) for v in g.vertices} == want["neighbors"]
    assert {v: list(g.incident(v)) for v in g.vertices} == want["incident"]
    for v in g.vertices:
        for w, mult in g.incident(v):
            assert g.multiplicity(v, w) == mult == g.multiplicity(w, v)
    assert g.leaves == want["leaves"]
    assert g.branch_vertices == want["branch_vertices"]
    assert g.edge_count == want["edge_count"]
    assert g.is_tree == want["is_tree"]
    if isinstance(g, Tree):
        assert g.is_path == all(d <= 2 for d in want["degree"].values())


def graphs_by_every_route():
    """Graphs from every constructor and surgery step, trees and not."""
    rng = random.Random(20261019)
    trees = all_trees(10) + [random_name_tree(rng, n) for n in (2, 3, 12, 40, 97)]
    for t in trees:
        yield t
        yield Tree({v: dict(t.incident(v)) for v in t.vertices})
        yield Tree.from_graph(Graph({v: dict(t.incident(v)) for v in t.vertices}))
        u, v, _ = rng.choice(t.edges())
        yield subdivide(t, (u, v), rng.randint(2, 4))
        yield wedge(t, rng.choice(t.vertices), star_tree(3), "leaf01")
        yield extend_at(t, laplacian_structure(t), rng.choice(t.vertices))[0]
    for n in (3, 4, 7):
        c = cycle_graph(n)
        yield c
        yield wedge(c, "v1", path_tree(3), "p01")
        yield extend_at(c, laplacian_structure(c), "v2")[0]
    doubled = build_graph([("a", "b"), ("b", "c"), ("c", "a"), ("a", "b")])
    yield doubled
    yield build_graph([("a", "b", 2)])
    yield wedge(doubled, "c", star_tree(4), "hub")


def test_kept_tables_match_the_edges_on_every_route():
    count = 0
    for g in graphs_by_every_route():
        assert_tables_match_the_edges(g)
        count += 1
    assert count > 1000


def test_unknown_vertices_raise_from_every_lookup():
    g = build_graph([("a", "b", 2), ("b", "c")])
    for lookup in (g.degree, g.neighbors, g.incident, g.index):
        with pytest.raises(UnknownVertex, match="'z'"):
            lookup("z")
    with pytest.raises(UnknownVertex, match="'z'"):
        g.multiplicity("a", "z")
    with pytest.raises(UnknownVertex, match="'y'"):
        g.multiplicity("y", "a")
    with pytest.raises(UnknownVertex, match="'y'"):
        g.multiplicity("y", "z")
    assert g.multiplicity("a", "c") == 0
    assert list(g.incident("b")) == [("a", 2), ("c", 1)]


def test_build_tree_rejects_cycles_and_multi_edges():
    with pytest.raises(NotATree):
        build_tree([("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(NotATree):
        build_tree([("a", "b", 2)])
    with pytest.raises(NotATree):
        Tree.from_graph(cycle_graph(4))


def test_from_graph_reuses_the_checked_graph():
    t = running_example_tree()
    assert Tree.from_graph(t) is t
    g = Graph({v: dict.fromkeys(t.neighbors(v), 1) for v in t.vertices})
    view = Tree.from_graph(g)
    assert type(view) is Tree
    assert view == t and view.leaves == t.leaves


def test_accessors_on_a_small_tree():
    t = running_example_tree()
    assert t.vertex_count == 14
    assert t.edge_count == 13
    assert len(t.leaves) == 7
    assert t.branch_vertices == ("w01", "w02", "w06", "w08")
    assert t.degree("w02") == 4
    assert t.neighbors("w11") == ("w06", "w12")
    assert t.is_tree and not t.is_path and not t.is_starlike
    assert t.index("w01") == 0
    with pytest.raises(UnknownVertex):
        t.degree("nope")
    rows = adjacency_rows(t)
    names = t.vertices
    for u, v, mult in t.edges():
        assert rows[t.index(u)][t.index(v)] == mult
    assert sum(sum(r) for r in rows) == 2 * t.edge_count
    assert all(rows[i][i] == 0 for i in range(len(names)))


def test_path_and_starlike_predicates():
    assert path_tree(5).is_path
    assert star_tree(4).is_starlike
    single = Tree({"a": {}})
    assert single.is_path
    assert path_endpoints(single) == ("a", "a")
    assert path_endpoints(path_tree(3)) == ("p00", "p02")
    with pytest.raises(GraphError):
        path_endpoints(star_tree(3))


@pytest.mark.parametrize("flag", [True, False])
def test_subdivide_refuses_a_bool_part_count(flag):
    with pytest.raises(GraphError, match=f"parts must be a positive integer, got {flag!r}"):
        subdivide(path_tree(3), ("p00", "p01"), flag)


def test_graph_equality_and_hash():
    a = build_graph([("a", "b"), ("b", "c")])
    b = build_graph([("b", "c"), ("a", "b")])
    assert a == b
    assert hash(a) == hash(b)
    assert a != build_graph([("a", "b", 2), ("b", "c")])


def test_tentacles_of_a_spider():
    t = build_tree(
        [
            ("c", "a1"),
            ("a1", "a2"),
            ("c", "b1"),
            ("c", "d1"),
            ("d1", "d2"),
            ("d2", "d3"),
        ]
    )
    ts = tentacles(t)
    assert [ten.vertices for ten in ts] == [
        ("a1", "a2"),
        ("b1",),
        ("d1", "d2", "d3"),
    ]
    assert all(ten.attachment == "c" for ten in ts)
    assert [ten.length for ten in ts] == [2, 1, 3]
    assert [ten.leaf for ten in ts] == ["a2", "b1", "d3"]


def test_tentacles_skip_paths_and_corridors():
    assert tentacles(path_tree(6)) == []
    t = running_example_tree()
    ts = tentacles(t)
    assert len(ts) == len(t.leaves)
    seen = [v for ten in ts for v in ten.vertices]
    assert len(seen) == len(set(seen))
    # w07 sits between two branch vertices; no tentacle may claim it.
    assert "w07" not in seen
    for ten in ts:
        assert ten.attachment in t.branch_vertices
        assert all(t.degree(v) <= 2 for v in ten.vertices)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(all_trees(9)))
def test_tentacle_count_matches_leaf_count(t):
    ts = tentacles(t)
    if t.is_path:
        assert ts == []
    else:
        assert len(ts) == len(t.leaves)
        assert sorted(ten.leaf for ten in ts) == sorted(t.leaves)
        assert ts == tentacles(t)


def test_path_as_tentacle():
    t = path_tree(4)
    ten = path_as_tentacle(t, "p03")
    assert ten.vertices == ("p03", "p02", "p01", "p00")
    assert ten.attachment is None
    assert ten.leaf == "p00"
    with pytest.raises(UnknownVertex):
        path_as_tentacle(t, "p01")
    with pytest.raises(GraphError):
        Tentacle(vertices=(), attachment=None)


def test_wedge_glues_and_keeps_the_left_name():
    s = star_tree(3)
    t = build_tree([("x", "y"), ("y", "z")])
    merged = wedge(s, "leaf00", t, "y")
    assert isinstance(merged, Tree)
    assert "y" not in merged.vertices
    assert merged.degree("leaf00") == 3
    assert merged.vertex_count == s.vertex_count + t.vertex_count - 1
    assert merged.edge_count == s.edge_count + t.edge_count


def test_wedge_validation():
    s = star_tree(3)
    with pytest.raises(DuplicateVertex):
        wedge(s, "hub", star_tree(2), "hub")
    with pytest.raises(UnknownVertex):
        wedge(s, "nope", path_tree(2, prefix="q"), "q00")
    c = cycle_graph(3)
    glued = wedge(s, "leaf01", c, "v1")
    assert isinstance(glued, Graph) and not isinstance(glued, Tree)
    assert not glued.is_tree


def test_fresh_name():
    assert fresh_name("a", ["b", "c"]) == "a"
    assert fresh_name("a", ["a"]) == "a.2"
    assert fresh_name("a", ["a", "a.2", "a.3"]) == "a.4"


def test_subdivide():
    t = star_tree(3)
    assert subdivide(t, ("hub", "leaf00"), 1) is t
    longer = subdivide(t, ("hub", "leaf00"), 3)
    assert longer.vertex_count == t.vertex_count + 2
    assert longer.edge_count == t.edge_count + 2
    assert sorted(longer.leaves) == sorted(t.leaves)
    assert longer.multiplicity("hub", "leaf00") == 0
    assert longer.degree("hub") == 3
    with pytest.raises(UnknownEdge):
        subdivide(t, ("leaf00", "leaf01"), 2)
    with pytest.raises(GraphError):
        subdivide(t, ("hub", "leaf00"), 0)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(all_trees(8)), st.integers(2, 4), st.data())
def test_subdivide_preserves_leaves_and_degrees(t, parts, data):
    u, v, _ = data.draw(st.sampled_from(t.edges()))
    out = subdivide(t, (u, v), parts)
    assert out.vertex_count == t.vertex_count + parts - 1
    assert sorted(out.leaves) == sorted(t.leaves)
    assert out.degree(u) == t.degree(u)
    assert out.degree(v) == t.degree(v)
    assert out.branch_vertices == t.branch_vertices
