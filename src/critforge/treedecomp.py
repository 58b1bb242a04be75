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
import heapq
from dataclasses import dataclass, field

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

    ``piece`` contains the chosen branch vertex ``center``, its
    ``tentacles``, and the fresh leaf ``merge_leaf`` standing in for the
    rest of the tree.  ``tentacles`` leaves out the merge leaf and is
    sorted by vertex sequence, each attached at ``center``.  ``target``
    is the vertex of the rest that the merge leaf represents.  A
    splitting is regular when the target is a leaf of the rest.
    """

    piece: Tree
    merge_leaf: str
    target: str
    regular: bool
    center: str
    tentacles: tuple[Tentacle, ...]


@dataclass(frozen=True)
class StarlikeDecomposition:
    """Ordered starlike pieces of a tree.

    ``pieces[i]`` for i below the number of splittings is the piece of
    ``splittings[i]``; the final piece is what the splittings leave,
    either starlike or a path, and carries no merge leaf.
    ``irregular_count`` is the number of irregular splittings.
    ``tentacles(i)`` gives piece i's tentacles, read off the pass.
    """

    pieces: tuple[Tree, ...]
    splittings: tuple[StarlikeSplitting, ...]
    irregular_count: int
    _tentacles: tuple[tuple[Tentacle, ...], ...] = field(repr=False, compare=False)

    @property
    def last_piece(self) -> Tree:
        return self.pieces[-1]

    def merge_leaf(self, i: int) -> str:
        return self.splittings[i].merge_leaf

    def target(self, i: int) -> str:
        return self.splittings[i].target

    def tentacles(self, i: int) -> tuple[Tentacle, ...]:
        """Tentacles of piece i other than its merge leaf, sorted by
        vertex sequence; none when the last piece is a path."""
        return self._tentacles[i]


def _induced(t: Tree, keep: set[str]) -> dict[str, dict[str, int]]:
    return {v: {w: 1 for w in t.neighbors(v) if w in keep} for v in keep}


def _sorted_tentacles(arms: list[list[str]], c: str) -> tuple[Tentacle, ...]:
    """Leaf-first arms at ``c`` as tentacles, sorted by vertex sequence."""
    return tuple(sorted((Tentacle(tuple(reversed(arm)), c) for arm in arms),
                        key=lambda ten: ten.vertices))


def starlike_decomposition(t: Tree) -> StarlikeDecomposition:
    """Split starlike pieces off, lowest peripheral branch vertex first,
    until what is left is starlike or a path.

    Made once per tree and kept on it, so every later call on ``t``
    returns the same object, which like its pieces is immutable.

    One leaf-first pass over ``t``, O(n log n) for n vertices, building
    one ``Tree`` per piece.  A branch vertex is peripheral when its
    degree exceeds its tentacle count by one.  A cut only lowers the
    target's degree, so only the target, and the branch vertex a new or
    grown tentacle reaches, can change status; they go on the heap,
    which is checked as it is read.  Tentacles ("arms") are kept leaf
    first, so each vertex is walked O(1) times, and every piece,
    the last one too, takes its tentacles from them.
    """
    if t._decomposition is not None:
        return t._decomposition
    deg = {v: t.degree(v) for v in t.vertices}
    branches = len(t.branch_vertices)
    arms: dict[str, list[list[str]]] = {}
    for ten in tentacles(t):
        arms.setdefault(ten.attachment, []).append(list(reversed(ten.vertices)))
    heap = list(t.branch_vertices)  # sorted, so already a heap
    live = set(t.vertices)

    def grow(arm: list[str], prev: str | None, cur: str) -> None:
        """Run an arm on through ``cur`` and degree-two vertices to a branch."""
        while deg[cur] < 3:
            arm.append(cur)
            prev, (cur,) = cur, [x for x in t.neighbors(cur) if x in live and x != prev]
        arms.setdefault(cur, []).append(arm)
        heapq.heappush(heap, cur)

    splittings = []
    while branches >= 2:
        if not heap:
            raise InternalInconsistency("no peripheral branch vertex in a non-path tree")
        c = heapq.heappop(heap)
        if c not in live or deg[c] < 3 or deg[c] - len(arms.get(c, ())) != 1:
            continue
        own = arms.pop(c)
        cut = {c}.union(*own)
        (w,) = [x for x in t.neighbors(c) if x in live and x not in cut]
        merge_leaf = fresh_name(f"{c}*", live)
        adj = _induced(t, cut)
        adj[c][merge_leaf] = 1
        adj[merge_leaf] = {c: 1}
        live -= cut
        deg[w] -= 1
        branches -= 1 + (deg[w] == 2)
        if deg[w] == 1:
            grow([], None, w)
        elif deg[w] == 2 and branches:
            # w stops branching; a lone arm runs on through it
            for arm in arms.pop(w, ()):
                grow(arm, arm[-1], w)
        elif deg[w] >= 3:
            heapq.heappush(heap, w)
        splittings.append(StarlikeSplitting(Tree(adj), merge_leaf, w, deg[w] == 1, c,
                                            _sorted_tentacles(own, c)))
    last: tuple[Tentacle, ...] = ()
    if branches:
        # the keys of ``arms`` are live branch vertices: one is left
        ((c, own),) = arms.items()
        last = _sorted_tentacles(own, c)
    t._decomposition = StarlikeDecomposition(
        # a fresh last piece, so t and its decomposition form no cycle
        pieces=tuple(sp.piece for sp in splittings) + (Tree(_induced(t, live)),),
        splittings=tuple(splittings),
        irregular_count=sum(not sp.regular for sp in splittings),
        _tentacles=tuple(sp.tentacles for sp in splittings) + (last,),
    )
    return t._decomposition


def iota(t: Tree) -> int:
    """Number of irregular splittings in the canonical decomposition.

    Read off the 2-matching DP in O(n), with no decomposition built:
    leaves - 2 - iota and edges - nu2 are the same bound, so
    iota = leaves - 2 - edges + nu2.
    """
    if t.is_path or t.is_starlike:
        return 0
    return TwoMatchingTable(t).iota


def two_matching_number(t: Tree) -> int:
    """Largest edge set using every vertex at most twice.

    A rooted dynamic program.  Below v, ``full[v]`` is the best total
    and ``capped[v]`` the best that leaves v one edge for its parent;
    also taking the edge to a child c gains ``1 + capped[c] - full[c]``.
    That gain is 0 or 1, because capped <= full <= capped + 1 at every
    vertex.  Proof from the leaves up: at a leaf both are 0.  If it
    holds at every child of v, each gain is 0 or 1, so with ``base`` the
    sum of the children's ``full`` and ``ones`` the number of gains of
    1, full = base + min(ones, 2) and capped = base + min(ones, 1),
    which differ by 0 or 1.  So ``TwoMatchingTable`` keeps only
    ``base`` and ``ones`` per vertex, and sorts nothing.
    """
    return TwoMatchingTable(t).nu2 if t.vertex_count > 1 else 0


class TwoMatchingTable:
    """``two_matching_number``'s table, rooted at the first leaf.  ``separate``
    walks up from the subdivided edge until a vertex's share is unchanged."""

    def __init__(self, t: Tree):
        self.root = t.leaves[0]
        # leaves - 2 - edges; ``separate`` adds an edge and no leaf
        self._excess = len(t.leaves) - 2 - t.edge_count
        self.parent: dict[str, str | None] = {self.root: None}
        order = [self.root]
        for v in order:
            for w in t.neighbors(v):
                if w not in self.parent:
                    self.parent[w] = v
                    order.append(w)
        self.base = dict.fromkeys(order, 0)
        self.ones = dict.fromkeys(order, 0)
        for v in reversed(order[1:]):
            full, gain = self._share(v)
            self.base[self.parent[v]] += full
            self.ones[self.parent[v]] += gain

    @property
    def nu2(self) -> int:
        return self._share(self.root)[0]

    @property
    def iota(self) -> int:
        """leaves - 2 - edges + nu2, the tree's ``iota`` (see there)."""
        return self._excess + self.nu2

    def _share(self, v: str) -> tuple[int, int]:
        """What v adds to its parent's ``base`` and ``ones``."""
        return self.base[v] + min(self.ones[v], 2), int(self.ones[v] < 2)

    def separate(self, u: str, v: str, x: str) -> None:
        """Put the new vertex x on the edge u-v."""
        self._excess -= 1
        c = v if self.parent[v] == u else u
        old = self._share(c)
        self.parent[x], self.parent[c] = self.parent[c], x
        self.base[x], self.ones[x] = old
        c = x
        while (p := self.parent[c]) is not None and (new := self._share(c)) != old:
            old_p = self._share(p)
            self.base[p] += new[0] - old[0]
            self.ones[p] += new[1] - old[1]
            c, old = p, old_p


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
