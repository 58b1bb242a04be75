"""Shared graphs, fixture loaders, and enumeration budgets for the tests."""

import json
import pkgutil
from importlib import import_module
from itertools import combinations, product

import networkx as nx

import critforge
from critforge import ArithStructError, EnumerationConfig, build_graph, build_tree, structure_from_r
from critforge import graphcore
from critforge.cli import fixture_path

# r-value search ceilings for the corpus sweeps, keyed by leaf count.
# Leafier trees blow up fastest, so their ceilings shrink. These are search
# budgets, not completeness bounds; the fixtures with a measured saturation
# point get their own doubling checks in test_enumeration.
R_BOUND_BY_LEAVES = {2: 60, 3: 36, 4: 24, 5: 15, 6: 10, 7: 8}


def sweep_config(t):
    bound = R_BOUND_BY_LEAVES[max(2, len(t.leaves))]
    return EnumerationConfig(r_bound=bound, vertex_cap=12)


def path_tree(n, prefix="p"):
    return build_tree(
        [(f"{prefix}{i:02d}", f"{prefix}{i + 1:02d}") for i in range(n - 1)]
    )


def star_tree(leaves):
    return build_tree([("hub", f"leaf{i:02d}") for i in range(leaves)])


def cycle_graph(n, prefix="v"):
    names = [f"{prefix}{i + 1}" for i in range(n)]
    return build_graph(
        [(names[i], names[(i + 1) % n]) for i in range(n)]
    )


def all_trees(max_vertices, min_vertices=2):
    """Every tree shape with the given vertex counts, one per isomorphism class."""
    out = []
    for n in range(min_vertices, max_vertices + 1):
        for g in nx.nonisomorphic_trees(n):
            out.append(
                build_tree([(f"n{u:02d}", f"n{v:02d}") for u, v in g.edges()])
            )
    return out


def random_name_tree(rng, n):
    """A seeded Pruefer tree whose names do not follow its shape."""
    g = nx.from_prufer_sequence([rng.randrange(n) for _ in range(n - 2)])
    names = [f"{rng.choice('kqxz')}{k}" for k in rng.sample(range(10 ** 6), n)]
    return build_tree([(names[u], names[v]) for u, v in g.edges()])


def structures_by_search(g, r_max):
    """Every structure on g with r values up to r_max, by trying each r."""
    out = []
    for vals in product(range(1, r_max + 1), repeat=g.vertex_count):
        try:
            s = structure_from_r(g, dict(zip(g.vertices, vals)))
        except ArithStructError:
            continue
        if s.r_vector() == vals:
            out.append(s)
    return out


def double_star_tree(left_arms, right_arms):
    """Two adjacent hubs, each carrying its own tentacles of the given lengths."""
    edges = [("hubL", "hubR")]
    for side, arms in (("L", left_arms), ("R", right_arms)):
        for i, length in enumerate(arms):
            prev = f"hub{side}"
            for j in range(length):
                nxt = f"{side}{i}x{j:02d}"
                edges.append((prev, nxt))
                prev = nxt
    return build_tree(edges)


def running_example_tree():
    """The 14-vertex running example: four branch vertices, seven leaves."""
    raw = [
        (9, 8), (8, 7), (7, 6), (6, 1), (1, 2), (2, 3), (1, 13),
        (2, 4), (2, 5), (10, 8), (6, 11), (11, 12), (15, 3),
    ]
    return build_tree([(f"w{a:02d}", f"w{b:02d}") for a, b in raw])


def fixture_doc(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def fixture_graph(name):
    """Parse a shipped fixture into (graph, r, d); r and d may be None."""
    doc = fixture_doc(name)
    edges = [tuple(e) for e in doc["edges"]]
    g = build_graph(edges)
    r = {v: int(x) for v, x in doc["r"].items()} if "r" in doc else None
    d = {v: int(x) for v, x in doc["d"].items()} if "d" in doc else None
    return g, r, d


def fixture_tree(name):
    doc = fixture_doc(name)
    return build_tree([tuple(e) for e in doc["edges"]])


def adjacency_map(g):
    """{vertex: {neighbor: multiplicity}} for handing graphs to the oracles."""
    adj = {v: {} for v in g.vertices}
    for u, v, mult in g.edges():
        adj[u][v] = mult
        adj[v][u] = mult
    return adj


def only_cyclic_shape(t):
    """Structural test for the trees that never produce a two-factor group:
    no vertex of degree four or more, and no two non-adjacent branch vertices.
    """
    if any(t.degree(v) >= 4 for v in t.vertices):
        return False
    branches = t.branch_vertices
    for u, v in combinations(branches, 2):
        if v not in t.neighbors(u):
            return False
    return True


def count_calls(monkeypatch, home, name):
    """Count calls of ``home.<name>`` from anywhere in critforge; returns
    the list that each call appends its first argument to."""
    calls = []
    real = getattr(home, name)

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    for info in pkgutil.iter_modules(critforge.__path__):
        mod = import_module(f"critforge.{info.name}")
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


def count_tentacle_walks(monkeypatch):
    """Count calls of ``graphcore.tentacles``; returns the list that each
    call appends its tree to."""
    return count_calls(monkeypatch, graphcore, "tentacles")
