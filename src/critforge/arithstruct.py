"""Arithmetical structures on connected graphs.

A structure is a pair of positive integer labellings (d, r) with
(diag(d) - A) r = 0 and gcd of r equal to 1.  The usual graph Laplacian
is the special case r identically 1, d the degree map.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd
from typing import Mapping

from .exactlinalg import AbelianGroup, IntegerMatrix, SmithDecomposition, smith_normal_form
from .graphcore import Graph, Tree, UnknownVertex, fresh_name
from .treedecomp import InternalInconsistency


class ArithStructError(Exception):
    """Base class for errors raised by this module."""


class MissingVertexValue(ArithStructError):
    pass


class DivisibilityViolation(ArithStructError):
    pass


class RankDefect(ArithStructError):
    pass


class NonIntegralOrder(ArithStructError):
    pass


@dataclass
class ArithmeticalStructure:
    """Container for the two labellings of one structure on one graph."""

    graph: Graph
    r: dict[str, int]
    d: dict[str, int]

    def __post_init__(self) -> None:
        self.r = {v: _integer(x, "r", v) for v, x in self.r.items()}
        self.d = {v: _integer(x, "d", v) for v, x in self.d.items()}

    def r_vector(self) -> tuple[int, ...]:
        return tuple(self.r[v] for v in self.graph.vertices)

    def d_vector(self) -> tuple[int, ...]:
        return tuple(self.d[v] for v in self.graph.vertices)

    @property
    def is_laplacian(self) -> bool:
        return all(x == 1 for x in self.r.values())


def _integer(x: int, label: str, v: str, error: type[Exception] = ArithStructError) -> int:
    """x itself; raises ``error`` naming v unless x is an int, not a bool."""
    if type(x) is not int and (not isinstance(x, int) or isinstance(x, bool)):
        raise error(f"{label}({v}) = {x!r} is not an integer")
    return x


def _require_values(g: Graph, values: Mapping[str, int], label: str) -> None:
    for v in g.vertices:
        if v not in values:
            raise MissingVertexValue(f"no {label} value for vertex {v}")


def _decimal(x: int) -> str:
    """``str(x)``, or its bit length when x has more decimal digits than
    the interpreter converts, so a diagnostic never fails to format."""
    try:
        return str(x)
    except ValueError:
        return f"<{x.bit_length()}-bit integer>"


def _neighbor_sum(g: Graph, v: str, r: Mapping[str, int]) -> int:
    """The sum of r over the neighbors of v, with edge multiplicity."""
    return sum(m * r[w] for w, m in g.incident(v))


def validate(g: Graph, d: Mapping[str, int], r: Mapping[str, int]) -> tuple[bool, list[str]]:
    """Check the pair (d, r) against the structure conditions.

    Returns validity plus diagnostics, reported in canonical vertex
    order with the first offender first; an empty list means valid.
    """
    _require_values(g, r, "r")
    _require_values(g, d, "d")
    problems = []
    for v in g.vertices:
        if r[v] < 1:
            problems.append(f"r({v}) = {_decimal(r[v])} is not positive")
        if d[v] < 0:
            problems.append(f"d({v}) = {_decimal(d[v])} is negative")
    if not problems:
        if gcd(*(r[v] for v in g.vertices)) != 1:
            problems.append("gcd of r values exceeds 1")
        for v in g.vertices:
            total = _neighbor_sum(g, v, r)
            if d[v] * r[v] != total:
                problems.append(
                    f"balance fails at {v}: d*r = {_decimal(d[v] * r[v])}, "
                    f"neighbor sum = {_decimal(total)}"
                )
    return not problems, problems


def structure_from_r(g: Graph, r: Mapping[str, int]) -> ArithmeticalStructure:
    """Derive the d labelling from a positive r labelling.

    The r values are first divided by their gcd, so any positive
    multiple of a valid labelling is accepted.  A vertex whose value
    fails to divide its weighted neighbor sum raises, naming the first
    such vertex in canonical order.
    """
    _require_values(g, r, "r")
    vals = {v: _integer(r[v], "r", v) for v in g.vertices}
    for v in g.vertices:
        if vals[v] < 1:
            raise ArithStructError(f"r({v}) = {_decimal(vals[v])} is not positive")
    g0 = gcd(*vals.values())
    if g0 > 1:
        vals = {v: x // g0 for v, x in vals.items()}
    d = {}
    for v in g.vertices:
        total = _neighbor_sum(g, v, vals)
        q, rem = divmod(total, vals[v])
        if rem:
            raise DivisibilityViolation(
                f"r({v}) = {_decimal(vals[v])} does not divide its neighbor sum "
                f"{_decimal(total)}"
            )
        d[v] = q
    return ArithmeticalStructure(graph=g, r=vals, d=d)


def laplacian_structure(g: Graph) -> ArithmeticalStructure:
    """The classical structure: r identically 1, d the degree map."""
    return structure_from_r(g, {v: 1 for v in g.vertices})


def laplacian(g: Graph, d: Mapping[str, int]) -> IntegerMatrix:
    """The matrix diag(d) - A in canonical vertex order."""
    _require_values(g, d, "d")
    rows = g.adjacency_rows()
    n = g.vertex_count
    return IntegerMatrix(
        [
            [
                (_integer(d[v], "d", v) if i == j else 0) - rows[i][j]
                for j in range(n)
            ]
            for i, v in enumerate(g.vertices)
        ]
    )


class _Elimination:
    """diag(d) - A with its +-1 entries eliminated, and the log of how.

    Pivoting on a unit entry p at (i, j) replaces the matrix by [p] plus
    its Schur complement on the other rows and columns, an integral and
    unimodular step, so the Smith form of ``core``, padded with ones, is
    that of the whole matrix.  Lines (rows and columns) of the sparse
    matrix are taken fewest live entries first from a heap refreshed
    only where a pivot changed a line, so a tree's leaves come first;
    within a line the unit whose crossing line is shortest is used,
    which keeps the fill small.  At most n - 1 pivots are made, so the
    core is at least 1 x 1.  ``rows`` and ``cols`` are the core's lines
    as vertex positions.  ``log`` holds each pivot, in order, as
    ``(i, j, p, prow, pcol)``: the rest of pivot row i as {column: entry}
    and of pivot column j as {row: entry} when it was taken; only
    ``reduce`` and ``lift`` read it.  ``smith`` is the core's Smith form, made once.
    """

    def __init__(self, g: Graph, d: Mapping[str, int]):
        index = {v: i for i, v in enumerate(g.vertices)}
        rows: dict[int, dict[int, int]] = {}
        cols: dict[int, dict[int, int]] = {i: {} for i in range(g.vertex_count)}
        for i, v in enumerate(g.vertices):
            row = {index[w]: -m for w, m in g.incident(v)}
            if d[v]:
                row[i] = d[v]
            rows[i] = row
            for j, x in row.items():
                cols[j][i] = x
        lines = (rows, cols)
        heap = [(len(row), 0, i) for i, row in rows.items()]
        heap += [(len(col), 1, j) for j, col in cols.items()]
        heapq.heapify(heap)
        log: list[tuple[int, int, int, dict[int, int], dict[int, int]]] = []
        budget = g.vertex_count - 1
        while budget and heap:
            count, kind, k = heapq.heappop(heap)
            line = lines[kind].get(k)
            if line is None or len(line) != count:
                continue  # pivoted away, or superseded by a newer heap entry
            cross = lines[1 - kind]
            m = None
            for at, x in line.items():
                if (x == 1 or x == -1) and (m is None or len(cross[at]) < len(cross[m])):
                    m = at
            if m is None:
                continue  # pushed again if a pivot ever changes this line
            i, j = (k, m) if kind == 0 else (m, k)
            p = rows[i][j]
            prow = rows.pop(i)
            pcol = cols.pop(j)
            del prow[j]
            del pcol[i]
            for c in prow:
                del cols[c][i]
            for r in pcol:
                del rows[r][j]
            log.append((i, j, p, prow, pcol))
            for r, a in pcol.items():
                f = a * p  # a / p, as p is +-1
                row = rows[r]
                for c, b in prow.items():
                    x = row.get(c, 0) - f * b
                    if x:
                        row[c] = x
                        cols[c][r] = x
                    else:
                        row.pop(c, None)
                        cols[c].pop(r, None)
                heapq.heappush(heap, (len(row), 0, r))
            for c in prow:
                heapq.heappush(heap, (len(cols[c]), 1, c))
            budget -= 1
        self.log = log
        self.rows = sorted(rows)
        self.cols = sorted(cols)
        self.core = IntegerMatrix([[rows[i].get(j, 0) for j in self.cols] for i in self.rows])
        self._smith: SmithDecomposition | None = None

    def reduce(self, b: list[int]) -> list[int]:
        """Replay the pivots' row operations on b in place (row r lost
        ``a * p`` times row i for each (r, a) in pcol); b on the core's rows."""
        for i, _, p, _, pcol in self.log:
            bi = b[i]
            if bi:
                for r, a in pcol.items():
                    b[r] -= a * p * bi
        return [b[i] for i in self.rows]

    def lift(self, y: list[int], b: list[int]) -> list[int]:
        """x with ``L x = b`` from y with ``core y = reduce(b)``, b as reduced:
        in reverse, pivot (i, j) gives ``p x[j] + sum(prow[c] x[c]) = b[i]``."""
        x = [0] * len(b)
        for j, yj in zip(self.cols, y):
            x[j] = yj
        for i, j, p, prow, _ in reversed(self.log):
            x[j] = p * (b[i] - sum(e * x[c] for c, e in prow.items()))
        return x

    @property
    def smith(self) -> SmithDecomposition:
        if self._smith is None:
            self._smith = smith_normal_form(self.core)
        return self._smith


def _factorization(g: Graph, d: Mapping[str, int]) -> _Elimination:
    """The ``_Elimination`` of (g, d), d checked by the caller.  Each graph
    keeps its last one as a (d in vertex order, elimination) pair, read and
    written whole, so a thread never pairs one d with another's elimination."""
    key = tuple(map(d.__getitem__, g.vertices))
    kept = g._elimination
    if kept is not None and kept[0] == key:
        return kept[1]
    e = _Elimination(g, d)
    g._elimination = key, e
    return e


def critical_group(g: Graph, s: ArithmeticalStructure) -> AbelianGroup:
    """Torsion of the cokernel of diag(d) - A.

    Every +-1 entry of the matrix, such as the -1 of a simple edge, is a
    unimodular pivot.  Such pivots are eliminated exactly on a sparse
    copy of the matrix, and the Smith form of the small core left over
    gives the group; on a tree that core usually has only a few rows.
    ``order_in_group`` and ``equivalent`` on the same (g, d) reuse both.
    For a valid structure on a connected graph the kernel is spanned by
    r, so exactly one diagonal entry of the core's Smith form vanishes;
    on a tree the order must also equal ``tree_order_formula``.  Both
    are checked on every call.
    """
    ok, problems = validate(g, s.d, s.r)
    if not ok:
        raise ArithStructError(f"invalid structure: {problems[0]}")
    diag = _factorization(g, s.d).smith.diagonal
    zeros = sum(1 for x in diag if x == 0)
    if zeros != 1:
        raise RankDefect(f"expected corank 1, found {zeros} zero entries")
    group = AbelianGroup(tuple(x for x in diag if x > 1))
    if g.is_tree:
        expected = tree_order_formula(g, s.r)
        if group.order != expected:
            raise InternalInconsistency(
                f"critical group order {_decimal(group.order)} != "
                f"tree_order_formula {_decimal(expected)}"
            )
    return group


def tree_order_formula(t: Tree, r: Mapping[str, int]) -> int:
    """Order of the critical group of a tree as a product of r powers.

    Each vertex contributes r(v) to the power (degree - 2); leaves
    therefore divide rather than multiply, and an excess of leaf weight
    that does not cancel signals that r came from no valid structure.
    """
    _require_values(t, r, "r")
    num = 1
    den = 1
    for v in t.vertices:
        e = t.degree(v) - 2
        if e >= 0:
            num *= _integer(r[v], "r", v) ** e
        else:
            den *= _integer(r[v], "r", v) ** (-e)
    q, rem = divmod(num, den)
    if rem:
        raise NonIntegralOrder(f"{num} not divisible by {den}")
    return q


def extend_at(g: Graph, s: ArithmeticalStructure, v: str) -> tuple[Graph, ArithmeticalStructure]:
    """Attach a fresh leaf at ``v`` carrying a copy of its r value.

    The old structure extends: the new leaf gets d = 1 and r = r(v), and
    d(v) grows by one.  Validity is preserved, which is re-checked.
    """
    if not g.has_vertex(v):
        raise UnknownVertex(f"no vertex {v!r}")
    leaf = fresh_name(f"{v}+", g.vertices)
    adj = {u: dict(g.incident(u)) for u in g.vertices}
    adj[v][leaf] = 1
    adj[leaf] = {v: 1}
    g2 = Tree(adj) if isinstance(g, Tree) else Graph(adj)
    r2 = dict(s.r)
    d2 = dict(s.d)
    r2[leaf] = s.r[v]
    d2[leaf] = 1
    d2[v] = s.d[v] + 1
    s2 = ArithmeticalStructure(graph=g2, r=r2, d=d2)
    ok, bad = validate(g2, d2, r2)
    if not ok:
        raise ArithStructError(f"extension broke the structure: {bad[0]}")
    return g2, s2
