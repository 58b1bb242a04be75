"""Connected multigraphs and trees with opaque string vertex identifiers.

Vertices are kept in lexicographic order throughout, so every derived
object (matrices, vectors, enumerations) has one canonical layout.
A graph never changes after it is built, so it keeps its degree per
vertex, edge count, leaves and branch vertices from the pass that
checks its adjacency; reading them costs a lookup.  It also keeps two
things derived from it, each made on first use by the module that
derives it: a tree's starlike decomposition (``treedecomp``) and the
last elimination of diag(d) - A, with the d it was made for
(``arithstruct``).  Each is written whole, in one assignment.
Surgery (``wedge``, ``subdivide``) builds a new graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence


class GraphError(Exception):
    """Base class for errors raised by this module."""


class EmptyGraph(GraphError):
    pass


class LoopEdge(GraphError):
    pass


class DisconnectedGraph(GraphError):
    pass


class UnknownVertex(GraphError):
    pass


class UnknownEdge(GraphError):
    pass


class DuplicateVertex(GraphError):
    pass


class NotATree(GraphError):
    pass


def _is_int(x: object) -> bool:
    """Is x an int and not a bool?"""
    return isinstance(x, int) and not isinstance(x, bool)


class Graph:
    """A finite connected multigraph without loops."""

    __slots__ = ("_order", "_adj", "_index", "_deg", "_edge_count", "_leaves", "_branch",
                 "_decomposition", "_elimination")

    def __init__(self, adjacency: Mapping[str, Mapping[str, int]]):
        if not adjacency:
            raise EmptyGraph("graph needs at least one vertex")
        deg = {}
        for v, nbrs in adjacency.items():
            if not isinstance(v, str):
                raise GraphError(f"vertex identifier {v!r} is not a string")
            k = 0
            for w, mult in nbrs.items():
                if v == w:
                    raise LoopEdge(f"loop at {v}")
                try:
                    back = adjacency[w].get(v)
                except KeyError:
                    raise UnknownVertex(f"edge endpoint {w} missing from vertex set") from None
                # a plain int skips the call
                if type(mult) is not int and not _is_int(mult) or mult < 1:
                    raise GraphError(f"bad multiplicity {mult!r} on edge ({v}, {w})")
                if back != mult:
                    raise GraphError(f"asymmetric multiplicity on edge ({v}, {w})")
                k += mult
            deg[v] = k
        self._order = order = tuple(sorted(adjacency))
        self._adj = {v: dict(sorted(adjacency[v].items())) for v in order}
        self._deg = deg
        self._edge_count = sum(deg.values()) // 2
        self._leaves = tuple([v for v in order if deg[v] == 1])
        self._branch = tuple([v for v in order if deg[v] >= 3])
        self._index = {v: i for i, v in enumerate(order)}
        self._decomposition = None  # StarlikeDecomposition, kept by treedecomp
        self._elimination = None  # (d in vertex order, its _Elimination), kept by arithstruct
        self._check_connected()

    def _check_connected(self) -> None:
        seen = {self._order[0]}
        stack = [self._order[0]]
        while stack:
            v = stack.pop()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self._order):
            missing = sorted(set(self._order) - seen)
            raise DisconnectedGraph(f"unreachable vertices: {missing}")

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._order

    @property
    def vertex_count(self) -> int:
        return len(self._order)

    @property
    def edge_count(self) -> int:
        """Number of edges counted with multiplicity."""
        return self._edge_count

    def edges(self) -> list[tuple[str, str, int]]:
        """Sorted list of (u, v, multiplicity) with u < v."""
        out = []
        for v in self._order:
            for w, mult in self._adj[v].items():
                if v < w:
                    out.append((v, w, mult))
        return out

    def has_vertex(self, v: str) -> bool:
        return v in self._adj

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r}") from None

    def degree(self, v: str) -> int:
        try:
            return self._deg[v]
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r}") from None

    def neighbors(self, v: str) -> tuple[str, ...]:
        self.index(v)
        return tuple(self._adj[v])

    def incident(self, v: str) -> Iterable[tuple[str, int]]:
        """The (neighbour, multiplicity) pairs of v, neighbours in order."""
        try:
            return self._adj[v].items()
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r}") from None

    def multiplicity(self, u: str, v: str) -> int:
        self.index(u)
        self.index(v)
        return self._adj[u].get(v, 0)

    def adjacency_rows(self) -> list[list[int]]:
        return [
            [self._adj[v].get(w, 0) for w in self._order] for v in self._order
        ]

    @property
    def leaves(self) -> tuple[str, ...]:
        return self._leaves

    @property
    def branch_vertices(self) -> tuple[str, ...]:
        return self._branch

    @property
    def is_tree(self) -> bool:
        return self.edge_count == self.vertex_count - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(tuple((v, tuple(self._adj[v].items())) for v in self._order))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.edges()!r})"


class Tree(Graph):
    """A connected graph with edge count exactly vertex count minus one."""

    def __init__(self, adjacency: Mapping[str, Mapping[str, int]]):
        super().__init__(adjacency)
        self._check_edge_count()

    def _check_edge_count(self) -> None:
        if self.edge_count != self.vertex_count - 1:
            raise NotATree(
                f"{self.edge_count} edges on {self.vertex_count} vertices"
            )

    @classmethod
    def from_graph(cls, g: Graph) -> "Tree":
        """View a checked graph as a tree; only the edge count is checked.

        The tree shares ``g``'s adjacency and tables, which nothing mutates,
        and starts out keeping what ``g`` keeps."""
        if isinstance(g, cls):
            return g
        t = cls.__new__(cls)
        for slot in Graph.__slots__:
            setattr(t, slot, getattr(g, slot))
        t._check_edge_count()
        return t

    @property
    def is_path(self) -> bool:
        return not self._branch

    @property
    def is_starlike(self) -> bool:
        return len(self.branch_vertices) == 1


def build_graph(edges: Iterable[Sequence]) -> Graph:
    """Build a graph from (u, v) or (u, v, multiplicity) entries.

    Repeated (u, v) entries accumulate multiplicity.  Isolated vertices
    cannot be expressed, which is fine: every graph here is connected.
    """
    counts: dict[tuple[str, str], int] = {}
    for e in edges:
        if len(e) == 2:
            u, v = e
            mult = 1
        elif len(e) == 3:
            u, v, mult = e
        else:
            raise GraphError(f"edge {e!r} is not a pair or triple")
        u, v = str(u), str(v)
        if u == v:
            raise LoopEdge(f"loop at {u}")
        if type(mult) is not int and not _is_int(mult) or mult < 1:
            raise GraphError(f"bad multiplicity {mult!r} on edge ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        counts[key] = counts.get(key, 0) + mult
    if not counts:
        raise EmptyGraph("no edges given")
    adj: dict[str, dict[str, int]] = {}
    for (u, v), mult in counts.items():
        adj.setdefault(u, {})[v] = mult
        adj.setdefault(v, {})[u] = mult
    return Graph(adj)


def build_tree(edges: Iterable[Sequence]) -> Tree:
    return Tree.from_graph(build_graph(edges))


@dataclass(frozen=True)
class Tentacle:
    """A maximal branch-free dangling path.

    ``vertices`` runs from the vertex adjacent to the attachment out to
    the leaf end.  The attachment vertex itself is not part of the
    tentacle; it is recorded separately, and is None only when the whole
    tree is a path treated as a single tentacle.
    """

    vertices: tuple[str, ...]
    attachment: str | None

    def __post_init__(self) -> None:
        if not self.vertices:
            raise GraphError("tentacle needs at least one vertex")

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def leaf(self) -> str:
        return self.vertices[-1]


def tentacles(t: Tree) -> list[Tentacle]:
    """All tentacles of a tree, sorted by their vertex sequence.

    A path has no branch vertex and therefore no tentacles; callers that
    want to sweep a whole path build a Tentacle with attachment None.
    """
    if t.is_path:
        return []
    out = []
    for leaf in t.leaves:
        walk = [leaf]
        prev, cur = None, leaf
        while t.degree(cur) < 3:
            nxt = [w for w in t.neighbors(cur) if w != prev]
            prev, cur = cur, nxt[0]
            if t.degree(cur) >= 3:
                break
            walk.append(cur)
        out.append(Tentacle(vertices=tuple(reversed(walk)), attachment=cur))
    out.sort(key=lambda ten: ten.vertices)
    return out


def path_endpoints(t: Tree) -> tuple[str, str]:
    if not t.is_path:
        raise GraphError("not a path")
    if t.vertex_count == 1:
        v = t.vertices[0]
        return (v, v)
    a, b = t.leaves
    return (a, b)


def path_as_tentacle(t: Tree, keep_end: str) -> Tentacle:
    """View a whole path as one tentacle whose first vertex is ``keep_end``."""
    a, b = path_endpoints(t)
    if keep_end not in (a, b):
        raise UnknownVertex(f"{keep_end} is not an endpoint of the path")
    order = [keep_end]
    prev, cur = None, keep_end
    while len(order) < t.vertex_count:
        nxt = [w for w in t.neighbors(cur) if w != prev]
        prev, cur = cur, nxt[0]
        order.append(cur)
    return Tentacle(vertices=tuple(order), attachment=None)


def wedge(g1: Graph, x: str, g2: Graph, y: str) -> Graph:
    """Glue two graphs by identifying ``y`` in g2 with ``x`` in g1.

    The merged vertex keeps the name ``x``.  Apart from the identified
    pair, vertex names must not collide.
    """
    g1.index(x)
    g2.index(y)
    clash = sorted(set(g1.vertices) & set(g2.vertices))
    if clash:
        raise DuplicateVertex(f"vertex names shared by both sides: {clash}")

    def rename(v: str) -> str:
        return x if v == y else v
    adj: dict[str, dict[str, int]] = {v: dict(g1._adj[v]) for v in g1.vertices}
    for v in g2.vertices:
        adj.setdefault(rename(v), {})
    for u, v, mult in g2.edges():
        ru, rv = rename(u), rename(v)
        adj[ru][rv] = adj[ru].get(rv, 0) + mult
        adj[rv][ru] = adj[rv].get(ru, 0) + mult
    if isinstance(g1, Tree) and isinstance(g2, Tree):
        return Tree(adj)
    return Graph(adj)


def fresh_name(base: str, taken: Collection[str]) -> str:
    """Deterministic fresh identifier derived from ``base``; ``taken`` is not copied."""
    name, i = base, 2
    while name in taken:
        name, i = f"{base}.{i}", i + 1
    return name


def subdivide(t: Tree, edge: tuple[str, str], parts: int) -> Tree:
    """Replace one edge by a path of ``parts`` edges.

    ``parts`` = 1 returns the tree unchanged.  The fresh interior
    vertices are named after the edge they subdivide.
    """
    u, v = edge
    if t.multiplicity(u, v) != 1:
        raise UnknownEdge(f"no edge ({u}, {v})")
    if not _is_int(parts) or parts < 1:
        raise GraphError(f"parts must be a positive integer, got {parts!r}")
    if parts == 1:
        return t
    adj = {a: dict(t._adj[a]) for a in t.vertices}
    del adj[u][v]
    del adj[v][u]
    taken = set(t.vertices)
    chain = [u]
    for i in range(1, parts):
        name = fresh_name(f"{u}.{v}.{i}", taken)
        taken.add(name)
        adj[name] = {}
        chain.append(name)
    chain.append(v)
    for a, b in zip(chain, chain[1:]):
        adj[a][b] = 1
        adj[b][a] = 1
    return Tree(adj)
