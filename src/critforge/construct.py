"""Building trees and structures that hit a prescribed critical group.

The workhorse is a broom: a starlike tree with a fan of length-one
prong tentacles and one long tail.  Prong values encode the wanted
invariant factors; the tail is a remainder cascade that winds the
center value down to one, keeping the labelling primitive.  Brooms are
then planted onto the pieces of a starlike decomposition to realize a
group on a subdivision of an arbitrary tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

from .arithstruct import (
    ArithmeticalStructure,
    critical_group,
    laplacian_structure,
    structure_from_r,
)
from .exactlinalg import AbelianGroup
from .graphcore import Tentacle, Tree, _is_int, build_tree, fresh_name
from .treedecomp import InternalInconsistency, TwoMatchingTable, iota, starlike_decomposition

MAX_BROOM_VERTICES = 100_000  # prongs plus tail; ``plan_broom`` refuses more, unallocated


class ConstructError(Exception):
    """Base class for errors raised by this module."""


class TooManyFactors(ConstructError):
    pass


class BetaOutOfRange(ConstructError):
    pass


class PathWithNontrivialTarget(ConstructError):
    pass


@dataclass(frozen=True)
class BroomPlan:
    """Numeric layout of a broom realizing a group.

    ``prong_values`` lists the r values of the length-one tentacles,
    the final one always 1; ``tail_values`` runs from the vertex next
    to the center out to the tail leaf, strictly decreasing to 1.
    """

    target: AbelianGroup
    center_value: int
    prong_values: tuple[int, ...]
    tail_values: tuple[int, ...]


def plan_broom(target: AbelianGroup, prongs: int) -> BroomPlan:
    """Lay out a broom with ``prongs`` + 1 prong tentacles and a tail.

    The target's invariant factors are padded with ones to length
    ``prongs``; the center carries the square of the top factor and
    each prong divides it by one factor.  The tail alternates the
    negated remainder cascade down to 1, so consecutive tail values
    are coprime and the whole labelling is primitive.  Plans of more
    than ``MAX_BROOM_VERTICES`` vertices raise ``ConstructError``.
    """
    if not _is_int(prongs) or prongs < 1:
        raise ConstructError(f"prong count must be a positive integer, got {prongs!r}")
    too_big = ConstructError(f"the broom would exceed {MAX_BROOM_VERTICES} vertices")
    if prongs + 2 > MAX_BROOM_VERTICES:  # prongs, their extra one, a tail
        raise too_big
    factors = target.invariant_factors
    if len(factors) > prongs:
        raise TooManyFactors(
            f"{len(factors)} invariant factors need at least that many prongs, "
            f"got {prongs}"
        )
    padded = (1,) * (prongs - len(factors)) + factors
    top = padded[-1]
    center = top * top
    prong_values = tuple(center // a for a in padded) + (1,)
    if center == 1:
        tail = (1,)
    else:
        prev, cur = center, (-(sum(prong_values))) % center
        tail = [cur]
        while cur != 1:
            if prongs + 2 + len(tail) > MAX_BROOM_VERTICES:
                raise too_big
            prev, cur = cur, (-prev) % cur
            tail.append(cur)
        tail = tuple(tail)
    for a, b in zip((center,) + tail, tail):
        if gcd(a, b) != 1:
            raise InternalInconsistency(f"tail values {a} and {b} are not coprime")
    return BroomPlan(
        target=target,
        center_value=center,
        prong_values=prong_values,
        tail_values=tail,
    )


def broom_with_group(target: AbelianGroup, prongs: int) -> tuple[Tree, ArithmeticalStructure]:
    """A starlike tree and structure whose critical group is ``target``.

    The tree has ``prongs`` + 1 leaves at distance one from the center
    and a tail path; its leaf count is ``prongs`` + 2.
    """
    plan = plan_broom(target, prongs)
    width = max(2, len(str(len(plan.prong_values))), len(str(len(plan.tail_values))))
    center = "c"
    prong_names = [f"p{i + 1:0{width}d}" for i in range(len(plan.prong_values))]
    tail_names = [f"t{i + 1:0{width}d}" for i in range(len(plan.tail_values))]
    edges = [(center, p) for p in prong_names]
    chain = [center] + tail_names
    edges += list(zip(chain, chain[1:]))
    tree = build_tree(edges)
    r = {center: plan.center_value}
    for name, val in zip(prong_names, plan.prong_values):
        r[name] = val
    for name, val in zip(tail_names, plan.tail_values):
        r[name] = val
    s = structure_from_r(tree, r)
    if s.r != r:
        raise InternalInconsistency("broom labelling was not primitive")
    got = critical_group(tree, s)
    if got != target:
        raise InternalInconsistency(f"broom produced {got}, wanted {target}")
    return tree, s


def realize_group(target: AbelianGroup) -> tuple[Tree, ArithmeticalStructure]:
    """Some tree and structure with the given critical group.

    The trivial group comes from the Laplacian on a single edge; any
    other group comes from a broom with one prong per invariant factor.
    """
    if target.is_trivial:
        tree = build_tree([("a", "b")])
        return tree, laplacian_structure(tree)
    return broom_with_group(target, len(target.invariant_factors))


def _realize_piece(piece: Tree, tens: tuple[Tentacle, ...], merge_leaf: str | None,
                   target: AbelianGroup, taken: set[str],
                   ) -> tuple[list[tuple[str, str]], dict[str, int]]:
    """Put a broom labelling onto one decomposition piece.

    ``tens`` are the piece's tentacles other than the merge leaf; a path
    piece has none.  The longest becomes the tail, stretched when short
    by new vertices named as by ``subdivide`` but fresh against
    ``taken``, which they join.  The original leaf keeps its name and
    always carries the last tail value, which is 1.  Returns the grown
    piece's edges and its r values, 1 on the merge leaf.
    """
    if not tens:
        if not target.is_trivial:
            raise InternalInconsistency(f"path piece given the target {target}")
        return [(u, v) for u, v, _ in piece.edges()], dict.fromkeys(piece.vertices, 1)
    center = tens[0].attachment
    plan = plan_broom(target, len(tens) - 2 + (merge_leaf is not None))
    tail, *prongs = sorted(tens, key=lambda ten: (-ten.length, ten.vertices))
    verts, values = list(tail.vertices), plan.tail_values
    if len(values) <= len(verts):
        values = values[:-1] + (1,) * (len(verts) - len(values) + 1)
    else:
        u = verts[-2] if len(verts) >= 2 else center
        for i in range(1, len(values) - len(verts) + 1):
            verts.insert(-1, fresh_name(f"{u}.{tail.leaf}.{i}", taken))
            taken.add(verts[-2])
    edges = list(zip([center] + verts, verts))
    r = dict(zip(verts, values))
    r[center] = plan.center_value
    for ten, val in zip(prongs, plan.prong_values):
        edges += zip((center,) + ten.vertices, ten.vertices)
        r.update(dict.fromkeys(ten.vertices, val))
    if merge_leaf is not None:
        edges.append((center, merge_leaf))
        r[merge_leaf] = 1
    return edges, r


def _suppress_fresh(big: Tree, original: Tree) -> bool:
    """Does contracting the non-original degree-two vertices give back the tree?

    Contracting one keeps every other vertex's degree, and on a tree the
    order of the contractions cannot change the result."""
    fresh = set(big.vertices) - set(original.vertices)
    if any(big.degree(v) != 2 for v in fresh):
        return False
    adj = {v: {w: 1 for w in big.neighbors(v)} for v in big.vertices}
    for f in fresh:
        a, b = sorted(adj[f])
        del adj[a][f]
        del adj[b][f]
        del adj[f]
        if b in adj[a]:
            return False
        adj[a][b] = 1
        adj[b][a] = 1
    return Tree(adj) == original


def _separations(t: Tree, table: TwoMatchingTable) -> Iterator[tuple[str, str, str, int]]:
    """Separate the branch pairs of ``t`` in ``t.edges()`` order on ``t``'s
    2-matching table, yielding each pair u, v, the vertex x put between them,
    named as by ``subdivide``, and the irregularity so far.  A fresh vertex
    has degree two: it makes no branch pair and keeps the leaves, so one
    table serves every step."""
    taken = set(t.vertices)
    pairs = [(u, v) for u, v, _ in t.edges() if t.degree(u) >= 3 and t.degree(v) >= 3]
    for u, v in pairs:
        x = fresh_name(f"{u}.{v}.1", taken)
        taken.add(x)
        table.separate(u, v, x)
        yield u, v, x, table.iota


def realize_on_subdivision(t: Tree, target: AbelianGroup, beta: int,
                           ) -> tuple[Tree, ArithmeticalStructure]:
    """A structure with the given group on a subdivision of ``t``.

    ``beta`` prescribes the irregularity count of the subdivision; it
    can be anything from 0 up to the irregularity of ``t`` itself.
    Adjacent branch vertices are separated until the count lands on
    ``beta``, then each starlike piece receives a broom labelling
    carrying its share of the invariant factors, and the pieces are
    glued back along the original tree by relabelling.  The separation
    costs one 2-matching DP on ``t``, O(depth) per separated pair, and
    one build of the grown tree.  The subdivision relation, the final
    irregularity, and the critical group are checked once.
    """
    # iota(t), read off the table that the separation then updates; a path
    # has iota 0 and needs no table (the one-vertex tree has no leaf to root one at)
    table = None if t.is_path else TwoMatchingTable(t)
    base_iota = 0 if table is None else table.iota
    if not _is_int(beta) or not 0 <= beta <= base_iota:
        raise BetaOutOfRange(
            f"beta must lie in 0..{base_iota}, got {beta!r}"
        )
    factors = target.invariant_factors
    if table is None:
        if factors:
            raise PathWithNontrivialTarget(
                "paths only carry the trivial critical group"
            )
        return t, laplacian_structure(t)

    cnt, steps, split = base_iota, _separations(t, table), {}
    while cnt != beta:
        # Separating a branch pair drops the count by at most one and
        # never raises it, so the loop walks through beta exactly before
        # the pairs run out.
        u, v, x, after = next(steps, (None,) * 4)
        if u is None:
            raise InternalInconsistency("no adjacent branch vertices left to separate")
        if after not in (cnt, cnt - 1):
            raise InternalInconsistency(
                f"separating one branch pair moved the count {cnt} -> {after}"
            )
        split[u, v], cnt = [(u, x), (x, v)], after
    cur = build_tree(e for u, v, _ in t.edges() for e in split.get((u, v), [(u, v)])) if split else t

    dec = starlike_decomposition(cur)
    caps = [max(len(p.leaves) - 2, 0) for p in dec.pieces]
    if len(factors) > sum(caps):
        raise TooManyFactors(
            f"{len(factors)} factors exceed the budget {sum(caps)} "
            f"of this subdivision"
        )
    buckets: list[list[int]] = [[] for _ in dec.pieces]
    remaining = caps[:]
    for f in sorted(factors, reverse=True):
        i = max(range(len(caps)), key=lambda j: (remaining[j], -j))
        if remaining[i] <= 0:
            raise InternalInconsistency("factor buckets overflowed the piece budgets")
        remaining[i] -= 1
        buckets[i].append(f)
    piece_targets = [AbelianGroup(tuple(sorted(b))) for b in buckets]

    # Each merge leaf carries 1 and becomes its target, so gluing only scales
    # the piece by the target's value; coprime glue makes the group a direct sum.
    last = len(dec.pieces) - 1
    taken = {*cur.vertices, *(dec.merge_leaf(i) for i in range(last))}
    edges, r = _realize_piece(dec.pieces[last], dec.tentacles(last), None,
                              piece_targets[last], taken)
    for i in range(last - 1, -1, -1):
        leaf, glue = dec.merge_leaf(i), dec.target(i)
        piece_edges, piece_r = _realize_piece(dec.pieces[i], dec.tentacles(i), leaf,
                                              piece_targets[i], taken)
        edges += [(glue if u == leaf else u, glue if v == leaf else v) for u, v in piece_edges]
        scale = r[glue]
        r.update((v, val * scale) for v, val in piece_r.items() if v != leaf)
    out = build_tree(edges)
    s = structure_from_r(out, r)
    if s.r != r:
        raise InternalInconsistency("glued labelling was not primitive")

    if not _suppress_fresh(out, t):
        raise InternalInconsistency("result does not contract back onto the input tree")
    got_iota = iota(out)
    if got_iota != beta:
        raise InternalInconsistency(f"irregularity {got_iota} != requested {beta}")
    got = critical_group(out, s)
    if got != target:
        raise InternalInconsistency(f"critical group {got} != target {target}")
    return out, s
