"""Independent brute-force oracles for the test suite.

Each function is a small, obviously-correct (and mostly exponential-time)
reference implementation; the tests compare library results against these
on inputs where the brute force is feasible.  Three groups of oracles import
the package under test.  The dense route (``adjacency_rows``, ``laplacian``,
``solve_integer``), ``extend_at``, ``count_structures`` and ``exponent``
were public names of the package that only the tests called.
``smith_invariant_factors`` keeps the former production route for cyclic
sums, whose Smith form is itself checked against ``minor_gcd``.  The starlike quotient oracles (``starlike_summary``,
``reduce_to_lstar``, ``quotient_strip`` and ``starlike_group``) keep the
former second route to a starlike critical group: they walk the tentacles
from the edge list themselves and take from the package only its value types
and ``group_from_orders``, never a Smith form or an elimination.
"""

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from math import gcd


def det(rows):
    """Exact determinant of a small square integer matrix.

    Cofactor expansion over rows with memoization on the set of used
    columns, so an n x n determinant costs O(2^n * n) big-int operations.
    """
    n = len(rows)
    for row in rows:
        assert len(row) == n
    cache = {}

    def expand(i, used):
        if i == n:
            return 1
        key = used
        if key in cache:
            return cache[key]
        total = 0
        sign = 1
        for j in range(n):
            bit = 1 << j
            if used & bit:
                continue
            a = rows[i][j]
            if a:
                total += sign * a * expand(i + 1, used | bit)
            sign = -sign
        cache[key] = total
        return total

    return expand(0, 0)


def minor_gcd(rows, k):
    """gcd of all k x k minors of an integer matrix (1 when k == 0)."""
    if k == 0:
        return 1
    nrows = len(rows)
    ncols = len(rows[0])
    if k > nrows or k > ncols:
        raise ValueError("minor size exceeds matrix dimensions")
    g = 0
    for rsel in combinations(range(nrows), k):
        for csel in combinations(range(ncols), k):
            sub = [[rows[i][j] for j in csel] for i in rsel]
            g = gcd(g, det(sub))
            if g == 1:
                return 1
    return g


def smith_invariant_factors(orders):
    """Invariant factors of the direct sum of Z/n for n in ``orders``, from
    the Smith normal form of the diagonal matrix of the orders above 1."""
    from critforge import IntegerMatrix, smith_normal_form

    vals = [x for x in orders if x > 1]
    if not vals:
        return ()
    rows = [[x if i == j else 0 for j in range(len(vals))] for i, x in enumerate(vals)]
    diag = smith_normal_form(IntegerMatrix(rows)).diagonal
    return tuple(x for x in diag if x > 1)


def adjacency_rows(g):
    """The adjacency matrix of graph ``g``, multiplicities included, in
    canonical vertex order."""
    return [[g.multiplicity(v, w) for w in g.vertices] for v in g.vertices]


def laplacian(g, d):
    """The dense matrix diag(d) - A in canonical vertex order, with the
    package's checks on d; the package itself never builds it."""
    from critforge import IntegerMatrix
    from critforge.arithstruct import _integer, _require_values

    _require_values(g, d, "d")
    rows = adjacency_rows(g)
    return IntegerMatrix([
        [(_integer(d[v], "d", v) if i == j else 0) - x for j, x in enumerate(rows[i])]
        for i, v in enumerate(g.vertices)
    ])


def solve_integer(m, b):
    """One integer solution x of m x = b, or None, from m's Smith form."""
    from critforge import smith_normal_form
    from critforge.exactlinalg import _solve_smith

    return _solve_smith(smith_normal_form(m), b)


def extend_at(g, s, v):
    """Attach a fresh leaf at ``v`` carrying a copy of its r value.

    The old structure extends: the new leaf gets d = 1 and r = r(v), and
    d(v) grows by one.  Validity is preserved, which is re-checked.
    """
    from critforge import (
        ArithmeticalStructure, ArithStructError, Graph, Tree, UnknownVertex, fresh_name,
        validate,
    )

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


def count_structures(t, config=None):
    from critforge import enumerate_structures

    return len(enumerate_structures(t, config))


def exponent(group):
    """The largest invariant factor of an ``AbelianGroup``, 1 when trivial."""
    return group.invariant_factors[-1] if group.invariant_factors else 1


def max_two_matching(edges):
    """Maximum size of an edge subset touching every vertex at most twice.

    Plain subset enumeration; callers keep the edge count small.
    """
    assert len(edges) <= 16, "subset enumeration would be too slow"
    best = 0
    for mask in range(1 << len(edges)):
        load = {}
        size = 0
        feasible = True
        for idx, (u, v) in enumerate(edges):
            if not mask >> idx & 1:
                continue
            size += 1
            load[u] = load.get(u, 0) + 1
            load[v] = load.get(v, 0) + 1
            if load[u] > 2 or load[v] > 2:
                feasible = False
                break
        if feasible and size > best:
            best = size
    return best


def arithmetical_r_vectors(adjacency, r_bound):
    """All valid r-labelings with entries in 1..r_bound, as sorted tuples.

    ``adjacency`` maps each vertex to a {neighbor: multiplicity} map. A
    labeling qualifies when the values have gcd 1 and each r(v) divides the
    multiplicity-weighted sum of its neighbors' values. Exhaustive over the
    full box, so only usable for a handful of vertices.
    """
    order = sorted(adjacency)
    found = []
    for values in product(range(1, r_bound + 1), repeat=len(order)):
        if reduce(gcd, values) != 1:
            continue
        r = dict(zip(order, values))
        if all(
            sum(mult * r[u] for u, mult in adjacency[v].items()) % r[v] == 0
            for v in order
        ):
            found.append(values)
    return found


def small_solution(rows, b, box):
    """Search the box [-box, box]^ncols for an integer solution of M x = b.

    Returns one solution tuple, or None if the box holds none. A None is
    only evidence of insolvability, not proof; tests say so where they rely
    on it.
    """
    ncols = len(rows[0])
    for x in product(range(-box, box + 1), repeat=ncols):
        if all(
            sum(a * xi for a, xi in zip(row, x)) == bi
            for row, bi in zip(rows, b)
        ):
            return x
    return None


def fire_simulation(adjacency, d, delta, counts):
    """Apply a whole firing vector by plain dict arithmetic.

    Firing v once removes d(v) chips from v and adds one chip per connecting
    edge to each neighbor; negative counts mean borrowing.
    """
    out = dict(delta)
    for v, times in counts.items():
        if times == 0:
            continue
        out[v] -= times * d[v]
        for u, mult in adjacency[v].items():
            out[u] += times * mult
    return out


def peripheral_split(edges, prefer):
    """The first split of a starlike decomposition, from its definition.

    A branch vertex (degree at least 3) is peripheral when exactly one
    component of the tree minus it holds a branch vertex.  Returns
    (c, piece, target) for the lowest or highest peripheral c: piece is
    c with every component free of branch vertices, and target is c's
    neighbour in the other component.  None when no vertex qualifies,
    which is the case on paths and starlike trees.
    """
    assert prefer in ("lowest", "highest")
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    branch = {v for v, nbrs in adj.items() if len(nbrs) >= 3}
    candidates = []
    for c in sorted(branch):
        parts = {}
        for w in adj[c]:
            seen = {c, w}
            stack = [w]
            while stack:
                for x in adj[stack.pop()] - seen:
                    seen.add(x)
                    stack.append(x)
            parts[w] = seen - {c}
        loaded = [w for w, part in parts.items() if part & branch]
        if len(loaded) == 1:
            candidates.append((c, parts, loaded[0]))
    if not candidates:
        return None
    c, parts, target = candidates[0] if prefer == "lowest" else candidates[-1]
    piece = {c}.union(*(part for w, part in parts.items() if w != target))
    return c, piece, target


def fresh_label(base, taken):
    """``base`` if it is free, else ``base.i`` for the least free i >= 2."""
    if base not in taken:
        return base
    i = 2
    while f"{base}.{i}" in taken:
        i += 1
    return f"{base}.{i}"


def reference_decomposition(edges, prefer):
    """A starlike decomposition by repeating ``peripheral_split``.

    Each step names its merge leaf ``c*`` made fresh against the current
    remainder, then deletes every edge that touches the piece.  Returns
    (splits, last): one (center, piece edges, merge leaf, target,
    regular, remainder edges) per split, and the edges of the last
    piece.  Edges are sets of (u, v) pairs with u < v.
    """
    rest = {(u, v) if u < v else (v, u) for u, v in edges}
    splits = []
    while True:
        got = peripheral_split(sorted(rest), prefer)
        if got is None:
            return splits, rest
        c, piece, target = got
        leaf = fresh_label(f"{c}*", {x for e in rest for x in e})
        piece_edges = {e for e in rest if e[0] in piece and e[1] in piece}
        piece_edges.add((c, leaf) if c < leaf else (leaf, c))
        rest = {e for e in rest if e[0] not in piece and e[1] not in piece}
        regular = sum(target in e for e in rest) == 1
        splits.append((c, piece_edges, leaf, target, regular, rest))


class NotStarlike(ValueError):
    """The quotient oracles need a tree with exactly one branch vertex."""


class NotADirectSummand(ValueError):
    """``quotient_strip`` was asked for a factor that is not there."""


@dataclass(frozen=True)
class StarlikeStructureSummary:
    """Per-tentacle quotients controlling a starlike structure.

    Tentacles are sorted by descending leaf quotient, ties broken by
    vertex sequence; entry i of ``leaf_quotients`` is the center value
    over the i-th leaf value, and ``first_quotients`` divides the first
    tentacle vertex value by the leaf value.  Each pair is coprime.
    """

    center: str
    center_value: int
    center_degree_value: int
    leaf_quotients: tuple
    first_quotients: tuple


def starlike_summary(g, s):
    """The tentacle quotients of structure ``s`` on the starlike tree ``g``.

    Reads only ``g.edges()``, ``s.r`` and ``s.d``.  Refuses a graph that
    is not a tree with one branch vertex, a labelling that is not a
    structure (r positive with gcd 1, and d(v) r(v) the sum of the
    neighbours' r), a leaf value that fails to divide its tentacle's
    first value or the center value, and a non-coprime quotient pair.
    """
    adj = {}
    for u, v, mult in g.edges():
        adj.setdefault(u, {})[v] = mult
        adj.setdefault(v, {})[u] = mult
    branch = [v for v, nbrs in adj.items() if len(nbrs) >= 3]
    simple = all(m == 1 for nbrs in adj.values() for m in nbrs.values())
    if len(branch) != 1 or not simple or 2 * len(adj) - 2 != sum(map(len, adj.values())):
        raise NotStarlike("not a tree with exactly one branch vertex")
    r, d = s.r, s.d
    if min(r[v] for v in adj) < 1 or reduce(gcd, (r[v] for v in adj)) != 1 or any(
        d[v] * r[v] != sum(m * r[u] for u, m in adj[v].items()) for v in adj
    ):
        raise ValueError("invalid structure")
    (center,) = branch
    r0 = r[center]
    entries = []
    for first in adj[center]:
        seq, prev = [first], center
        while len(adj[seq[-1]]) == 2:
            nxt = next(u for u in adj[seq[-1]] if u != prev)
            prev = seq[-1]
            seq.append(nxt)
        r_leaf, r_first = r[seq[-1]], r[first]
        if r0 % r_leaf or r_first % r_leaf:
            raise ValueError(f"leaf value {r_leaf} fails to divide along tentacle {seq}")
        entries.append((r0 // r_leaf, r_first // r_leaf, tuple(seq)))
    entries.sort(key=lambda e: (-e[0], e[2]))
    for a, b, seq in entries:
        if gcd(a, b) != 1:
            raise ValueError(f"tentacle quotients {a} and {b} along {seq} are not coprime")
    return StarlikeStructureSummary(
        center=center,
        center_value=r0,
        center_degree_value=d[center],
        leaf_quotients=tuple(e[0] for e in entries),
        first_quotients=tuple(e[1] for e in entries),
    )


def reduce_to_lstar(g, s):
    """The tentacle-by-center matrix of a starlike structure.

    Square of side one more than the tentacle count: diagonal the leaf
    quotients then the center d value, last column minus the first
    quotients, last row all minus one.  Its Smith form padded with ones
    is the Smith form of the full matrix diag(d) - A.
    """
    from critforge import IntegerMatrix

    summary = starlike_summary(g, s)
    ell = len(summary.leaf_quotients)
    rows = []
    for i in range(ell):
        row = [0] * (ell + 1)
        row[i] = summary.leaf_quotients[i]
        row[ell] = -summary.first_quotients[i]
        rows.append(row)
    rows.append([-1] * ell + [summary.center_degree_value])
    return IntegerMatrix(rows)


def quotient_strip(g, h):
    """Remove the invariant factors of group ``h`` from group ``g``, as multisets.

    This is the complement of ``h`` inside ``g`` when ``h`` sits in ``g``
    as a sublist of its invariant factors; if some factor of ``h`` is
    missing from ``g`` the deletion is refused.
    """
    from critforge import AbelianGroup

    remaining = Counter(g.invariant_factors)
    for x in h.invariant_factors:
        if remaining[x] <= 0:
            raise NotADirectSummand(f"factor {x} of {h} does not appear in {g}")
        remaining[x] -= 1
    return AbelianGroup(tuple(sorted(remaining.elements())))


def starlike_group(g, s):
    """The critical group of a starlike structure by the quotient formula.

    The direct sum of cyclic groups of the leaf-quotient orders is the
    group plus two extra copies of Z/r0, r0 the center value; stripping
    them recovers the group.
    """
    from critforge import group_from_orders

    summary = starlike_summary(g, s)
    r0 = summary.center_value
    total = group_from_orders(summary.leaf_quotients)
    if r0 == 1:
        return total
    return quotient_strip(total, group_from_orders([r0, r0]))
