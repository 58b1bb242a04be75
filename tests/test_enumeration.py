"""Exhaustive structure search on small trees against a brute oracle."""

import hashlib
import random
import tracemalloc

import pytest

from bruteforce import arithmetical_r_vectors, count_structures
from corpus import (
    adjacency_map,
    all_trees,
    cycle_graph,
    path_tree,
    random_name_tree,
    star_tree,
    sweep_config,
)
from critforge import (
    EnumerationConfig,
    NotATree,
    TreeTooLarge,
    build_graph,
    cyclic_classification,
    CyclicClass,
    critical_group,
    enumerate_structures,
    validate,
)


def brute_vectors(t, bound):
    return arithmetical_r_vectors(adjacency_map(t), bound)


def test_search_agrees_with_brute_force_box_scan():
    cases = [
        (path_tree(2), 6),
        (path_tree(3), 10),
        (path_tree(4), 8),
        (star_tree(3), 6),
    ]
    # names that do not follow the shape reach other depth-first orders
    rng = random.Random(5)
    cases += [(random_name_tree(rng, n), 5) for n in (5, 6, 6, 7, 7, 7)]
    for t, bound in cases:
        got = enumerate_structures(t, EnumerationConfig(r_bound=bound, vertex_cap=12))
        want = sorted(brute_vectors(t, bound))
        assert [s.r_vector() for s in got] == want


def test_only_trees_are_enumerated():
    # a cycle has no depth-first order in which each balance settles once,
    # and neighbour sums on a doubled edge would need its multiplicity
    with pytest.raises(NotATree):
        enumerate_structures(cycle_graph(4))
    with pytest.raises(NotATree):
        enumerate_structures(build_graph([("a", "b", 2)]))


def enumeration_digest():
    """SHA-256 of the r vectors listed on every shape with up to 7 vertices
    at the corpus bounds, 14,863 structures."""
    vectors = [[s.r_vector() for s in enumerate_structures(t, sweep_config(t))]
               for t in all_trees(7)]
    return hashlib.sha256(repr(vectors).encode()).hexdigest()


GOLDEN_ENUMERATION = "f4531cacf7db8906f507bcf6adda008a0a36bbecc55de113986ed06536943e7d"


def test_enumeration_matches_the_golden_digest():
    assert enumeration_digest() == GOLDEN_ENUMERATION


def test_small_tree_counts_are_saturated():
    """Counts frozen after checking that doubling the bound adds nothing."""
    cases = [
        (path_tree(2), 1),
        (path_tree(3), 2),
        (path_tree(4), 5),
        (path_tree(5), 14),
        (star_tree(3), 14),
        (star_tree(4), 263),
    ]
    for t, want in cases:
        assert count_structures(t, EnumerationConfig(r_bound=60, vertex_cap=12)) == want
        assert count_structures(t, EnumerationConfig(r_bound=120, vertex_cap=12)) == want


def test_every_result_is_a_valid_primitive_structure():
    from math import gcd

    t = star_tree(4)
    for s in enumerate_structures(t, EnumerationConfig(r_bound=20, vertex_cap=12)):
        ok, problems = validate(t, s.d, s.r)
        assert ok, problems
        assert gcd(*s.r_vector()) == 1
        assert max(s.r_vector()) <= 20


def test_search_is_deterministic_and_sorted():
    t = star_tree(3)
    cfg = EnumerationConfig(r_bound=12, vertex_cap=12)
    first = [s.r_vector() for s in enumerate_structures(t, cfg)]
    second = [s.r_vector() for s in enumerate_structures(t, cfg)]
    assert first == second == sorted(first)


def test_three_armed_stars_only_reach_cyclic_groups():
    t = star_tree(3)
    assert cyclic_classification(t) is CyclicClass.ALL_CYCLIC
    for s in enumerate_structures(t, EnumerationConfig(r_bound=30, vertex_cap=12)):
        assert critical_group(t, s).is_cyclic


def test_single_vertex_and_single_edge():
    from critforge import Tree

    lone = Tree({"a": {}})
    (only,) = enumerate_structures(lone, EnumerationConfig(r_bound=5, vertex_cap=12))
    assert only.r == {"a": 1}
    assert count_structures(path_tree(2), EnumerationConfig(r_bound=1, vertex_cap=12)) == 1


def test_search_memory_does_not_grow_with_the_bound():
    # nothing as long as the bound may be built: one edge at this bound
    # visits 3 * 10**5 root values and keeps one structure
    tracemalloc.start()
    try:
        found = enumerate_structures(path_tree(2), EnumerationConfig(r_bound=3 * 10**5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.r_vector() for s in found] == [(1, 1)]
    assert peak < 5 * 10**6


def test_size_and_config_validation():
    with pytest.raises(TreeTooLarge):
        enumerate_structures(path_tree(13))
    with pytest.raises(ValueError):
        EnumerationConfig(r_bound=0)
    with pytest.raises(ValueError):
        EnumerationConfig(vertex_cap=13)
    with pytest.raises(ValueError):
        EnumerationConfig(r_bound="60")


@pytest.mark.parametrize("flag", [True, False])
def test_config_refuses_bool_knobs(flag):
    with pytest.raises(ValueError, match=f"r_bound must be a positive integer, got {flag!r}"):
        EnumerationConfig(r_bound=flag)
    with pytest.raises(ValueError, match=f"vertex_cap must lie in 1..12, got {flag!r}"):
        EnumerationConfig(vertex_cap=flag)


def test_count_matches_list_length():
    t = path_tree(4)
    cfg = EnumerationConfig(r_bound=15, vertex_cap=12)
    assert count_structures(t, cfg) == len(enumerate_structures(t, cfg))
