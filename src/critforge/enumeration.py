"""Exhaustive search for arithmetical structures on small trees.

A structure's one rule is the balance at each vertex u: r(u) divides the
sum of r over u's neighbors.  The search assigns r values in a depth-first
order rooted at a highest-degree vertex, leaf children last.  On a tree a
vertex's only earlier neighbor is its parent, so each balance is settled
once, at the step where it becomes decidable: a non-root leaf's value must
divide its parent's, and any other vertex's last child is pinned to one
residue modulo that vertex's value.  The candidates obey both rules, so
every full assignment is balanced.  Input that is not a tree raises
``NotATree``.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Iterable

from ._record import _Record
from .arithstruct import ArithmeticalStructure, structure_from_r
from .graphcore import Tree, _is_int


class EnumerationError(Exception):
    """Base class for errors raised by this module."""


class TreeTooLarge(EnumerationError):
    pass


class EnumerationConfig(_Record):
    """Knobs for the exhaustive search.

    ``r_bound`` caps every r value.  ``vertex_cap`` refuses trees too
    large to finish in reasonable time; it cannot be raised past 12.
    """

    __slots__ = _fields = ("r_bound", "vertex_cap")

    def __init__(self, r_bound: int = 60, vertex_cap: int = 12) -> None:
        if not _is_int(r_bound) or r_bound < 1:
            raise ValueError(f"r_bound must be a positive integer, got {r_bound!r}")
        if not _is_int(vertex_cap) or not 1 <= vertex_cap <= 12:
            raise ValueError(f"vertex_cap must lie in 1..12, got {vertex_cap!r}")
        object.__setattr__(self, "r_bound", r_bound)
        object.__setattr__(self, "vertex_cap", vertex_cap)


def _divisors(x: int) -> list[int]:
    """The divisors of x in increasing order, by trial division."""
    low = [d for d in range(1, isqrt(x) + 1) if x % d == 0]
    return low + [x // d for d in reversed(low) if d * d != x]


def enumerate_structures(t: Tree, config: EnumerationConfig | None = None,
                         ) -> list[ArithmeticalStructure]:
    """All structures on the tree t with every r value at most the bound.

    Results are sorted by their r vectors in canonical vertex order.
    A large enough bound makes the list complete for the tree: every
    structure at all appears once the bound passes the tree's largest
    reachable r value.  Each balance is settled by the candidates of one
    step, and ``structure_from_r`` still checks every result.
    """
    t = Tree.from_graph(t)
    cfg = config or EnumerationConfig()
    if t.vertex_count > cfg.vertex_cap:
        raise TreeTooLarge(
            f"{t.vertex_count} vertices exceed the cap {cfg.vertex_cap}"
        )
    bound = cfg.r_bound
    n = t.vertex_count

    if n == 1:
        return [structure_from_r(t, {t.vertices[0]: 1})]

    root = min(t.vertices, key=lambda v: (-t.degree(v), v))
    # depth-first order, leaf children last so residue pinning kicks in early
    order: list[str] = []
    parent: dict[str, str] = {}
    last_child: set[str] = set()
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        kids = sorted((w for w in t.neighbors(v) if w != parent.get(v)),
                      key=lambda w: (t.degree(w) == 1, w), reverse=True)
        parent.update(dict.fromkeys(kids, v))
        # the stack pops kids[0] last, once the other subtrees are done
        last_child.update(kids[:1])
        stack.extend(kids)
    pos = {v: i for i, v in enumerate(order)}

    # per step: the parent's position, whether the value must divide the
    # parent's (a non-root leaf), and, at a last child, the positions of
    # the parent's other neighbors, whose sum pins the value
    up = [pos[parent[v]] if v in parent else -1 for v in order]
    leaf = [v in parent and t.degree(v) == 1 for v in order]
    rest: list[tuple[int, ...] | None] = [
        tuple(pos[w] for w in t.neighbors(parent[v]) if w != v) if v in last_child else None
        for v in order
    ]
    canonical = [pos[v] for v in t.vertices]

    r = [0] * n
    found: list[tuple[int, ...]] = []

    def candidates(i: int) -> Iterable[int]:
        """Step i's values in increasing order, made as they are read, so
        memory follows the search and not the bound."""
        if rest[i] is None:
            return _divisors(r[up[i]]) if leaf[i] else range(1, bound + 1)
        m = r[up[i]]
        first = -sum(r[j] for j in rest[i]) % m or m
        if leaf[i]:
            # a divisor of m pinned modulo m
            return (first,) if m % first == 0 else ()
        return range(first, bound + 1, m)

    def walk(i: int) -> None:
        if i == n:
            if gcd(*r) == 1:
                found.append(tuple(r[j] for j in canonical))
            return
        for val in candidates(i):
            r[i] = val
            walk(i + 1)

    walk(0)
    found.sort()
    return [structure_from_r(t, dict(zip(t.vertices, vec))) for vec in found]
