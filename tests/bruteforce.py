"""Independent brute-force oracles for the test suite.

Each function is a small, obviously-correct (and mostly exponential-time)
reference implementation; the tests compare library results against these
on inputs where the brute force is feasible.  Only ``smith_invariant_factors``
imports the package under test: it keeps the former production route for
cyclic sums, whose Smith form is itself checked against ``minor_gcd``.
"""

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
    diag = smith_normal_form(IntegerMatrix.diagonal(vals)).diagonal
    return tuple(x for x in diag if x > 1)


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
