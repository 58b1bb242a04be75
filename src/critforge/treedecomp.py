"""Decomposing trees into starlike pieces, and the invariant factor bound.

A starlike tree has exactly one branch vertex.  Any other non-path tree
splits at a peripheral branch vertex: one all of whose neighbors except
one start a tentacle.  Splitting off that vertex with its tentacles,
plus a fresh merge leaf standing in for the rest of the tree,
and repeating on the remainder, yields an ordered list of starlike
pieces (the last piece may degenerate to a path).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graphcore import Tentacle, Tree, fresh_name, tentacles


class TreeDecompError(Exception):
    """Base class for errors raised by this module."""


class InternalInconsistency(TreeDecompError):
    """Two routes to the same quantity disagreed; this is a bug if raised."""


class CyclicClass(enum.Enum):
    ALL_TRIVIAL = "AllTrivial"
    ALL_CYCLIC = "AllCyclic"
    ADMITS_NONCYCLIC = "AdmitsNoncyclic"


@dataclass(frozen=True)
class StarlikeSplitting:
    """One split: a starlike piece cut off a larger tree.

    ``piece`` contains the chosen branch vertex, its tentacles, and the
    fresh leaf ``merge_leaf`` standing in for the remainder.
    ``target`` is the vertex of ``remainder`` the merge leaf represents.
    A splitting is regular when the target is a leaf of the remainder.
    """

    piece: Tree
    remainder: Tree
    merge_leaf: str
    target: str
    regular: bool

    @property
    def center(self) -> str:
        (c,) = self.piece.branch_vertices
        return c


@dataclass(frozen=True)
class StarlikeDecomposition:
    """Ordered starlike pieces of a tree.

    ``pieces[i]`` for i below the number of splittings is the piece of
    ``splittings[i]``; the final piece is the last remainder, either
    starlike or a path, and carries no merge leaf.  ``irregular_count``
    is the number of irregular splittings.
    """

    pieces: tuple[Tree, ...]
    splittings: tuple[StarlikeSplitting, ...]
    irregular_count: int

    @property
    def last_piece(self) -> Tree:
        return self.pieces[-1]

    def merge_leaf(self, i: int) -> str:
        return self.splittings[i].merge_leaf

    def target(self, i: int) -> str:
        return self.splittings[i].target


def starlike_split(t: Tree, prefer: str = "lowest") -> StarlikeSplitting | None:
    """Split one starlike piece off a tree, or None if it is already a piece.

    Trees with fewer than two branch vertices (paths and starlike trees)
    cannot be split further and yield None.
    """
    if prefer not in ("lowest", "highest"):
        raise ValueError(f"prefer must be 'lowest' or 'highest', not {prefer!r}")
    branch = t.branch_vertices
    if len(branch) < 2:
        return None
    arms: dict[str, list[Tentacle]] = {}
    for ten in tentacles(t):
        arms.setdefault(ten.attachment, []).append(ten)
    # with two or more branch vertices, a peripheral one has exactly one
    # neighbor that does not start one of its tentacles
    peripheral = [c for c in branch if t.degree(c) - len(arms.get(c, ())) == 1]
    if not peripheral:
        raise InternalInconsistency("no peripheral branch vertex in a non-path tree")
    c = peripheral[0] if prefer == "lowest" else peripheral[-1]
    piece_vertices = {c}.union(*(ten.vertices for ten in arms[c]))
    (toward_rest,) = [w for w in t.neighbors(c) if w not in piece_vertices]

    merge_leaf = fresh_name(f"{c}*", t.vertices)
    piece_adj = {
        v: {w: 1 for w in t.neighbors(v) if w in piece_vertices}
        for v in piece_vertices
    }
    piece_adj[c][merge_leaf] = 1
    piece_adj[merge_leaf] = {c: 1}
    piece = Tree(piece_adj)

    rest_vertices = set(t.vertices) - piece_vertices
    rest_adj = {
        v: {w: 1 for w in t.neighbors(v) if w in rest_vertices}
        for v in rest_vertices
    }
    remainder = Tree(rest_adj)
    regular = remainder.degree(toward_rest) == 1
    return StarlikeSplitting(
        piece=piece,
        remainder=remainder,
        merge_leaf=merge_leaf,
        target=toward_rest,
        regular=regular,
    )


def starlike_decomposition(t: Tree, prefer: str = "lowest") -> StarlikeDecomposition:
    """Iterate starlike_split until the remainder is starlike or a path."""
    pieces = []
    splittings = []
    cur = t
    while True:
        sp = starlike_split(cur, prefer=prefer)
        if sp is None:
            break
        pieces.append(sp.piece)
        splittings.append(sp)
        cur = sp.remainder
    pieces.append(cur)
    irregular = sum(1 for sp in splittings if not sp.regular)
    return StarlikeDecomposition(
        pieces=tuple(pieces),
        splittings=tuple(splittings),
        irregular_count=irregular,
    )


def iota(t: Tree) -> int:
    """Number of irregular splittings in the canonical decomposition.

    Read off the 2-matching DP in O(n), with no decomposition built:
    leaves - 2 - iota and edges - nu2 are the same bound, so
    iota = leaves - 2 - edges + nu2.
    """
    if t.is_path or t.is_starlike:
        return 0
    return len(t.leaves) - 2 - t.edge_count + two_matching_number(t)


def two_matching_number(t: Tree) -> int:
    """Largest edge set using every vertex at most twice.

    Computed by a rooted dynamic program; each vertex tracks its best
    totals with capacity 2 or capacity 1 left toward its parent.
    """
    if t.vertex_count == 1:
        return 0
    root = t.leaves[0]
    seen = {root}
    order = [root]
    parent: dict[str, str | None] = {root: None}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in t.neighbors(v):
            if w not in seen:
                seen.add(w)
                parent[w] = v
                order.append(w)
                stack.append(w)

    full: dict[str, int] = {}
    capped: dict[str, int] = {}
    for v in reversed(order):
        kids = [w for w in t.neighbors(v) if parent.get(w) == v]
        base = sum(full[c] for c in kids)
        # gain of also taking the edge v-c: the child then loses one slot
        gains = sorted((1 + capped[c] - full[c] for c in kids), reverse=True)
        best2 = base + sum(x for x in gains[:2] if x > 0)
        best1 = base + sum(x for x in gains[:1] if x > 0)
        full[v] = best2
        capped[v] = best1
    return full[root]


def invariant_factor_bound(t: Tree) -> int:
    """Cap on how many invariant factors any structure on t can produce.

    Edges minus the 2-matching number, which equals leaves - 2 minus
    the irregular splittings of any starlike decomposition.
    """
    return t.edge_count - two_matching_number(t)


def cyclic_classification(t: Tree) -> CyclicClass:
    """Which critical groups the tree's structures can reach.

    Paths only give the trivial group.  Trees whose bound is one give
    cyclic groups only.  Everything else admits a noncyclic group.
    """
    if t.is_path:
        return CyclicClass.ALL_TRIVIAL
    if invariant_factor_bound(t) <= 1:
        return CyclicClass.ALL_CYCLIC
    return CyclicClass.ADMITS_NONCYCLIC


def has_adjacent_branch_vertices(t: Tree) -> bool:
    return any(
        t.degree(u) >= 3 and t.degree(v) >= 3 for u, v, _ in t.edges()
    )
