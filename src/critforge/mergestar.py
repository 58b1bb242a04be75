"""Merging structures at a vertex, and the starlike shortcut matrix.

Two structures glued at a vertex scale into one structure on the wedge;
when the glued r values are coprime the critical group is the direct
sum of the two sides.  On starlike trees the full matrix collapses to
a small square matrix indexed by tentacles plus the center, giving the
critical group without touching most of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arithstruct import (
    ArithmeticalStructure,
    ArithStructError,
    critical_group,
    validate,
)
from .exactlinalg import (
    AbelianGroup,
    IntegerMatrix,
    group_from_orders,
    quotient_strip,
)
from .graphcore import Graph, Tree, tentacles, wedge
from .treedecomp import InternalInconsistency


class MergeStarError(Exception):
    """Base class for errors raised by this module."""


class NotStarlike(MergeStarError):
    pass


def merge_structures(g1: Graph, x: str, s1: ArithmeticalStructure,
                     g2: Graph, y: str, s2: ArithmeticalStructure,
                     ) -> tuple[Graph, ArithmeticalStructure]:
    """Glue two structures by identifying x with y.

    The r labellings are cross-scaled so both sides agree at the glued
    vertex (kept under the name x); the d values add there and survive
    unchanged everywhere else.  The scaled labelling is automatically
    primitive, which is checked rather than renormalized.
    """
    for g, s, label in ((g1, s1, "first"), (g2, s2, "second")):
        ok, bad = validate(g, s.d, s.r)
        if not ok:
            raise ArithStructError(f"{label} structure invalid: {bad[0]}")
    merged = wedge(g1, x, g2, y)
    a = s1.r[x]
    b = s2.r[y]
    g0 = gcd(a, b)
    f1 = b // g0
    f2 = a // g0
    r = {v: s1.r[v] * f1 for v in g1.vertices}
    for v in g2.vertices:
        if v != y:
            r[v] = s2.r[v] * f2
    d = {v: s1.d[v] for v in g1.vertices}
    for v in g2.vertices:
        if v != y:
            d[v] = s2.d[v]
    d[x] = s1.d[x] + s2.d[y]
    out = ArithmeticalStructure(graph=merged, r=r, d=d)
    ok, bad = validate(merged, out.d, out.r)
    if not ok:
        raise InternalInconsistency(f"merge produced an invalid structure: {bad[0]}")
    return merged, out


def check_merge_additivity(g1: Graph, x: str, s1: ArithmeticalStructure,
                           g2: Graph, y: str, s2: ArithmeticalStructure,
                           ) -> tuple[AbelianGroup, AbelianGroup, AbelianGroup, bool]:
    """Merge and compare the group of the whole against the two parts.

    Returns the groups of the two sides, the merged group, and whether
    the merged group is their direct sum, which happens exactly when
    the glued r values are coprime.  The merged order always equals the
    product of the two orders times the square of the glued gcd; that
    identity is checked rather than reported.
    """
    return _additivity(g1, x, s1, g2, y, s2, *merge_structures(g1, x, s1, g2, y, s2))


def _additivity(g1: Graph, x: str, s1: ArithmeticalStructure, g2: Graph, y: str,
                s2: ArithmeticalStructure, merged: Graph, sm: ArithmeticalStructure,
                ) -> tuple[AbelianGroup, AbelianGroup, AbelianGroup, bool]:
    """check_merge_additivity on a merge already made."""
    k1 = critical_group(g1, s1)
    k2 = critical_group(g2, s2)
    km = critical_group(merged, sm)
    g0 = gcd(s1.r[x], s2.r[y])
    additive = km == k1.direct_sum(k2)
    if g0 == 1 and not additive:
        raise InternalInconsistency(f"coprime merge gave {km}, not {k1} + {k2}")
    if km.order != k1.order * k2.order * g0 * g0:
        raise InternalInconsistency("merged order identity failed")
    return k1, k2, km, additive


@dataclass(frozen=True)
class StarlikeStructureSummary:
    """Per-tentacle quotients controlling a starlike structure.

    Tentacles are sorted by descending leaf quotient, ties broken by
    vertex sequence; entry i of ``leaf_quotients`` is the center value
    over the i-th leaf value, and ``first_quotients`` divides the first
    tentacle vertex value by the leaf value.  Coprimality of each pair
    comes with the territory.
    """

    center: str
    center_value: int
    center_degree_value: int
    leaf_quotients: tuple[int, ...]
    first_quotients: tuple[int, ...]


def starlike_summary(t: Tree, s: ArithmeticalStructure) -> StarlikeStructureSummary:
    if not (isinstance(t, Tree) and t.is_starlike):
        raise NotStarlike("summary needs a tree with exactly one branch vertex")
    ok, bad = validate(t, s.d, s.r)
    if not ok:
        raise ArithStructError(f"invalid structure: {bad[0]}")
    (center,) = t.branch_vertices
    r0 = s.r[center]
    entries = []
    for ten in tentacles(t):
        r_leaf = s.r[ten.leaf]
        r_first = s.r[ten.vertices[0]]
        if r0 % r_leaf or r_first % r_leaf:
            raise MergeStarError(
                f"leaf value {r_leaf} fails to divide along tentacle {ten.vertices}"
            )
        entries.append((r0 // r_leaf, r_first // r_leaf, ten.vertices))
    entries.sort(key=lambda e: (-e[0], e[2]))
    leaf_q = [e[0] for e in entries]
    first_q = [e[1] for e in entries]
    for a, b in zip(leaf_q, first_q):
        if gcd(a, b) != 1:
            raise InternalInconsistency(f"tentacle quotients {a} and {b} are not coprime")
    return StarlikeStructureSummary(
        center=center,
        center_value=r0,
        center_degree_value=s.d[center],
        leaf_quotients=tuple(leaf_q),
        first_quotients=tuple(first_q),
    )


def reduce_to_lstar(t: Tree, s: ArithmeticalStructure) -> IntegerMatrix:
    """Collapse a starlike structure to its tentacle-by-center matrix.

    The matrix is square of side one more than the tentacle count:
    diagonal the leaf quotients then the center d value, last column
    minus the first quotients, last row all minus one.  Its Smith form
    padded with ones is the Smith form of the full matrix.
    """
    summary = starlike_summary(t, s)
    ell = len(summary.leaf_quotients)
    rows = []
    for i in range(ell):
        row = [0] * (ell + 1)
        row[i] = summary.leaf_quotients[i]
        row[ell] = -summary.first_quotients[i]
        rows.append(row)
    rows.append([-1] * ell + [summary.center_degree_value])
    return IntegerMatrix(rows)


def starlike_critical_group(t: Tree, s: ArithmeticalStructure) -> AbelianGroup:
    """Critical group of a starlike structure by the quotient formula.

    The direct sum of cyclic groups of the leaf-quotient orders covers
    the group plus two extra copies of the center value; stripping them
    recovers the group.  The tests compare this route with the
    full-matrix ``critical_group``.
    """
    summary = starlike_summary(t, s)
    r0 = summary.center_value
    total = group_from_orders(summary.leaf_quotients)
    if r0 == 1:
        return total
    return quotient_strip(total, group_from_orders([r0, r0]))
