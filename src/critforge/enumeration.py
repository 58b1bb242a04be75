"""Exhaustive search for arithmetical structures on small trees.

The search assigns r values in a depth-first vertex order rooted at a
highest-degree vertex.  Leaf values must divide their neighbor's value,
and once all but one member of some vertex's neighborhood is fixed the
last member is pinned to a residue class, which prunes hard enough to
finish on every tree this module accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterable, Iterator

from .arithstruct import ArithmeticalStructure, structure_from_r
from .graphcore import Tree, _is_int


class EnumerationError(Exception):
    """Base class for errors raised by this module."""


class TreeTooLarge(EnumerationError):
    pass


@dataclass(frozen=True)
class EnumerationConfig:
    """Knobs for the exhaustive search.

    ``r_bound`` caps every r value.  ``vertex_cap`` refuses trees too
    large to finish in reasonable time; it cannot be raised past 12.
    """

    r_bound: int = 60
    vertex_cap: int = 12

    def __post_init__(self) -> None:
        if not _is_int(self.r_bound) or self.r_bound < 1:
            raise ValueError(f"r_bound must be a positive integer, got {self.r_bound!r}")
        if not _is_int(self.vertex_cap) or not 1 <= self.vertex_cap <= 12:
            raise ValueError(f"vertex_cap must lie in 1..12, got {self.vertex_cap!r}")


def _divisors(x: int) -> list[int]:
    """The divisors of x in increasing order, by trial division."""
    low = [d for d in range(1, isqrt(x) + 1) if x % d == 0]
    return low + [x // d for d in reversed(low) if d * d != x]


def _congruent(xs: Iterable[int], m: int, a: int) -> Iterator[int]:
    return (x for x in xs if x % m == a)


def enumerate_structures(t: Tree, config: EnumerationConfig | None = None,
                         ) -> list[ArithmeticalStructure]:
    """All structures on t with every r value at most the bound.

    Results are sorted by their r vectors in canonical vertex order.
    A large enough bound makes the list complete for the tree: every
    structure at all appears once the bound passes the tree's largest
    reachable r value.
    """
    cfg = config or EnumerationConfig()
    if t.vertex_count > cfg.vertex_cap:
        raise TreeTooLarge(
            f"{t.vertex_count} vertices exceed the cap {cfg.vertex_cap}"
        )
    bound = cfg.r_bound
    n = t.vertex_count

    if n == 1:
        return [structure_from_r(t, {t.vertices[0]: 1})]

    nbrs = {v: t.neighbors(v) for v in t.vertices}
    root = min(t.vertices, key=lambda v: (-t.degree(v), v))
    # depth-first order, leaf children last so residue pinning kicks in early
    order: list[str] = []
    parent: dict[str, str | None] = {root: None}
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        order.append(v)
        kids = [w for w in nbrs[v] if w not in seen]
        kids.sort(key=lambda w: (t.degree(w) == 1, w), reverse=True)
        for w in kids:
            seen.add(w)
            parent[w] = v
        stack.extend(kids)
    pos = {v: i for i, v in enumerate(order)}

    # the step at which each vertex's whole neighborhood becomes known
    complete_at: dict[str, int] = {
        u: max(pos[w] for w in (u, *nbrs[u])) for u in t.vertices
    }
    checks: list[list[str]] = [[] for _ in range(n)]
    for u, i in complete_at.items():
        checks[i].append(u)
    # each pinner u of step i, with u's other neighbors, all fixed by then
    pinners: list[list[tuple[str, tuple[str, ...]]]] = [[] for _ in range(n)]
    for i, v in enumerate(order):
        for u in nbrs[v]:
            if complete_at[u] == i:
                pinners[i].append((u, tuple(w for w in nbrs[u] if w != v)))
    # a leaf other than the root must divide its parent's value
    leaf_parent = [parent[v] if t.degree(v) == 1 else None for v in order]

    r: dict[str, int] = {}
    found: list[tuple[int, ...]] = []

    def candidates(i: int) -> Iterable[int]:
        """Step i's values in increasing order, made as they are read, so
        memory follows the search and not the bound."""
        p = leaf_parent[i]
        residue = [(r[u], (-sum(r[w] for w in rest)) % r[u]) for u, rest in pinners[i]]
        if not residue:
            return range(1, bound + 1) if p is None else _divisors(r[p])
        (m0, a0), *others = residue
        top = bound if p is None else r[p]
        hits: Iterable[int] = range(a0 or m0, top + 1, m0)
        if p is not None:
            hits = (x for x in hits if top % x == 0)
        for m, a in others:
            hits = _congruent(hits, m, a)
        return hits

    def ok_after(i: int) -> bool:
        for u in checks[i]:
            total = sum(r[w] for w in nbrs[u])
            if total % r[u]:
                return False
        return True

    def walk(i: int) -> None:
        if i == n:
            if gcd(*(r[v] for v in order)) == 1:
                found.append(tuple(r[v] for v in t.vertices))
            return
        v = order[i]
        for val in candidates(i):
            r[v] = val
            if ok_after(i):
                walk(i + 1)
        r.pop(v, None)

    walk(0)
    found.sort()
    out = []
    for vec in found:
        out.append(structure_from_r(t, dict(zip(t.vertices, vec))))
    return out


def count_structures(t: Tree, config: EnumerationConfig | None = None) -> int:
    return len(enumerate_structures(t, config))
