"""Merging structures at a vertex, and critical groups on starlike trees.

Two structures glued at a vertex scale into one structure on the wedge;
when the glued r values are coprime the critical group is the direct
sum of the two sides.  A starlike tree's group comes from the same
diag(d) - A route as any other graph's.
"""

from __future__ import annotations

from math import gcd

from .arithstruct import (
    ArithmeticalStructure,
    ArithStructError,
    critical_group,
    validate,
)
from .exactlinalg import AbelianGroup
from .graphcore import Graph, Tree, wedge
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


def starlike_critical_group(t: Tree, s: ArithmeticalStructure) -> AbelianGroup:
    """``critical_group`` of a structure on a starlike tree.

    Refuses any other graph with ``NotStarlike``.  The paper's quotient
    formula (the sum of Z/(r0 / r_leaf) over the tentacles, less two
    copies of Z/r0) is a test oracle, not a second route: right after
    ``critical_group`` on the same (t, s) this call reuses its
    factorization, while a cold call costs a full ``critical_group``.
    """
    if not (isinstance(t, Tree) and t.is_starlike):
        raise NotStarlike("needs a tree with exactly one branch vertex")
    return critical_group(t, s)
