"""Chip firing relative to an arithmetical structure.

Firing at v costs d(v) chips and sends one along each incident edge;
negative fire counts borrow.  Degree is weighted by r, so it is
conserved by every move.  Divisors are plain vertex-to-int dicts.
Most operations need only the d labelling; the full structure shows up
where r does (degree and order computations).
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Mapping, Sequence

from .arithstruct import ArithmeticalStructure, _factorization, _integer
from .exactlinalg import IntegerMatrix, _solve_smith, determinantal_divisor
from .graphcore import Graph, Tentacle, Tree, UnknownVertex, path_as_tentacle
from .treedecomp import InternalInconsistency, StarlikeDecomposition

Divisor = dict[str, int]


class ChipFiringError(Exception):
    """Base class for errors raised by this module."""


class NonzeroDegree(ChipFiringError):
    pass


class SizeViolation(ChipFiringError):
    pass


def full_divisor(g: Graph, delta: Mapping[str, int]) -> Divisor:
    """Copy a divisor, filling unmentioned vertices with zero chips."""
    for v, x in delta.items():
        if not g.has_vertex(v):
            raise UnknownVertex(f"divisor mentions unknown vertex {v!r}")
        if type(x) is not int:  # a plain int skips the call
            _integer(x, "chips", v, ChipFiringError)
    return {v: delta.get(v, 0) for v in g.vertices}


def _diagonal(g: Graph, d: Mapping[str, int], v: str) -> int:
    if v not in d:
        raise ChipFiringError(f"d labelling lacks vertex {v!r}")
    return _integer(d[v], "d", v, ChipFiringError)


def _move(g: Graph, d: Mapping[str, int], cur: Divisor, v: str, times: int) -> None:
    """Fire ``times`` times at v on ``cur`` in place, in O(deg v)."""
    cur[v] -= times * _diagonal(g, d, v)
    for w, m in g.incident(v):
        cur[w] += times * m


def fire(g: Graph, d: Mapping[str, int], delta: Mapping[str, int], v: str,
         times: int = 1) -> Divisor:
    """Fire ``times`` times at v; negative counts borrow.  ``delta`` is
    copied once, and the move touches only v and its neighbours."""
    out = full_divisor(g, delta)
    if not g.has_vertex(v):
        raise UnknownVertex(f"no vertex {v!r}")
    _move(g, d, out, v, _integer(times, "times", v, ChipFiringError))
    return out


def divisor_degree(delta: Mapping[str, int], r: Mapping[str, int]) -> int:
    """Total chip count weighted by the r labelling."""
    return sum(_integer(r[v], "r", v, ChipFiringError) * _integer(c, "chips", v, ChipFiringError)
               for v, c in delta.items())


def _require_d(g: Graph, d: Mapping[str, int]) -> None:
    """Raise, naming the first vertex in canonical order, unless d holds
    an integer at every vertex."""
    for v in g.vertices:
        _diagonal(g, d, v)


def _check_witness(g: Graph, d: Mapping[str, int], x: Mapping[str, int],
                   rhs: Sequence[int]) -> None:
    """Raise unless L x == rhs, summed over each vertex's neighbours."""
    for v, want in zip(g.vertices, rhs):
        got = _diagonal(g, d, v) * x[v] - sum(m * x[w] for w, m in g.incident(v))
        if got != want:
            raise InternalInconsistency(
                f"firing vector moves {got} chips at {v}, not {want}"
            )


def equivalent(g: Graph, d: Mapping[str, int], d1: Mapping[str, int],
               d2: Mapping[str, int]) -> Divisor | None:
    """A firing vector taking d1 to d2, or None when they are inequivalent.

    The witness x satisfies d1 - L x = d2 entrywise, where L is the
    structure matrix diag(d) - A, whose one factorization is shared
    with ``critical_group`` and ``order_in_group`` on the same (g, d):
    its pivots' row operations are replayed on d1 - d2, the small core
    is solved on its Smith form, and the pivots are back-substituted in
    reverse order.  Any integer solution is a valid witness, so which
    one is returned is not part of the contract.  L x is checked
    against d1 - d2 over each vertex's neighbours on every call.
    """
    a = full_divisor(g, d1)
    b = full_divisor(g, d2)
    rhs = [a[v] - b[v] for v in g.vertices]
    _require_d(g, d)
    e = _factorization(g, d)
    reduced = list(rhs)
    y = _solve_smith(e.smith, e.reduce(reduced))
    if y is None:
        return None
    witness = dict(zip(g.vertices, e.lift(y, reduced)))
    _check_witness(g, d, witness, rhs)
    return witness


def order_in_group(g: Graph, s: ArithmeticalStructure, delta: Mapping[str, int]) -> int:
    """Order of a degree-zero divisor in the critical group.

    diag(d) - A has one factorization, shared with ``critical_group``
    and ``equivalent`` on the same (g, d): an elimination, whose core's
    cokernel is the group, and the core's Smith form.  The divisor's
    class is its image under the pivots' row operations on the core's
    rows, and the order is read off it through the left transform.
    """
    out = full_divisor(g, delta)
    deg = divisor_degree(out, s.r)
    if deg != 0:
        raise NonzeroDegree(f"divisor has degree {deg}, not 0")
    _require_d(g, s.d)
    e = _factorization(g, s.d)
    c = e.smith.left.apply(e.reduce([out[v] for v in g.vertices]))
    order = 1
    for di, ci in zip(e.smith.diagonal, c):
        if di:
            order = lcm(order, di // gcd(di, ci))
        elif ci:
            # the zero row of the Smith form pairs with the r vector,
            # so a degree-zero divisor always lands on zero here
            raise InternalInconsistency(
                "a degree-zero divisor has a nonzero image on the kernel of "
                "diag(d) - A; are d and r one structure?"
            )
    return order


def _check_chain(g: Graph, ten: Tentacle) -> None:
    verts = ten.vertices
    if len(set(verts)) != len(verts):
        raise ChipFiringError("tentacle repeats a vertex")
    for v in verts:
        if not g.has_vertex(v):
            raise UnknownVertex(f"tentacle mentions unknown vertex {v!r}")
    if ten.attachment is not None and g.multiplicity(ten.attachment, verts[0]) != 1:
        raise ChipFiringError(
            f"attachment {ten.attachment} not simply adjacent to {verts[0]}"
        )
    for a, b in zip(verts, verts[1:]):
        if g.multiplicity(a, b) != 1:
            raise ChipFiringError(f"{a} and {b} are not simply adjacent")


def _sweep(g: Graph, d: Mapping[str, int], cur: Divisor, fired: Divisor,
           ten: Tentacle, direction: str) -> None:
    """``sweep_tentacle`` in place on ``cur``, adding its borrows to ``fired``."""
    if direction not in ("inward", "outward"):
        raise ValueError(f"direction must be 'inward' or 'outward', not {direction!r}")
    _check_chain(g, ten)
    verts = ten.vertices
    if direction == "inward":
        steps = list(zip(verts, verts[1:]))[::-1]
    else:
        chain = verts if ten.attachment is None else (ten.attachment, *verts)
        steps = zip(chain[1:], chain)
    for at, target in steps:  # borrow at ``at`` until ``target`` is empty
        amount = cur[target]
        if amount:
            _move(g, d, cur, at, -amount)
            fired[at] -= amount


def sweep_tentacle(g: Graph, d: Mapping[str, int], delta: Mapping[str, int],
                   ten: Tentacle, direction: str) -> tuple[Divisor, Divisor]:
    """Concentrate a tentacle's chips at one of its ends.

    Inward zeroes every tentacle vertex except the first by borrowing
    along the chain toward the attachment; a length-one tentacle is
    untouched.  Outward zeroes the attachment (when present) and all
    tentacle vertices except the leaf, pushing everything onto the leaf
    end.  Returns the new divisor and the net firing vector, negative
    entries meaning borrows.  ``delta`` is copied once; each borrow then
    touches only the borrowing vertex and its neighbours.
    """
    cur = full_divisor(g, delta)
    fired = dict.fromkeys(g.vertices, 0)
    _sweep(g, d, cur, fired, ten, direction)
    return cur, fired


def clearable(g: Graph, d: Mapping[str, int], xs: Sequence[str],
              ys: Sequence[str]) -> bool:
    """Can any chip pile on xs be cleared by firing only at ys?

    True exactly when the xs-by-ys block of the structure matrix has a
    right integer inverse, which its top determinantal divisor detects.
    """
    for v in list(xs) + list(ys):
        if not g.has_vertex(v):
            raise UnknownVertex(f"no vertex {v!r}")
    xs = sorted(set(xs), key=g.index)
    ys = sorted(set(ys), key=g.index)
    if not xs:
        return True
    if len(xs) > len(ys):
        raise SizeViolation(
            f"{len(xs)} target vertices but only {len(ys)} firing sites"
        )
    _require_d(g, d)
    block = IntegerMatrix(
        [[d[x] if x == y else -g.multiplicity(x, y) for y in ys] for x in xs]
    )
    return determinantal_divisor(block, len(xs)) == 1


def reduce_support(t: Tree, d: Mapping[str, int], delta: Mapping[str, int],
                   decomposition: StarlikeDecomposition) -> Divisor:
    """Push a divisor onto few leaves by sweeping piece by piece.

    Works through the decomposition front to back, parking each piece's
    weight near its center, concentrates the last piece onto its leaves,
    then unwinds back to front, sweeping every parked pile out to a
    leaf.  The result is equivalent to the input and supported on at
    most one more vertex than the sum of the per-piece leaf budgets,
    every support vertex a leaf.  ``delta`` is copied once; each move on
    that copy touches only the vertex fired and its neighbours.
    """
    base = full_divisor(t, delta)
    cur = dict(base)
    fired = dict.fromkeys(t.vertices, 0)
    k = len(decomposition.pieces)
    allowed = set(t.vertices) if t.vertex_count == 1 else set()

    # forward pass: park one tentacle per piece on its attachment, by an
    # inward sweep of the chain that starts at the attachment
    for i in range(k):
        tens = decomposition.tentacles(i)
        if tens:
            chain = Tentacle((tens[0].attachment, *tens[0].vertices), None)
            _sweep(t, d, cur, fired, chain, "inward")

    # a path last piece (or tree) has no tentacles: flatten it onto one end
    last = decomposition.last_piece
    if last.is_path and last.vertex_count > 1:
        end = sorted(last.leaves)[0]
        _sweep(t, d, cur, fired, path_as_tentacle(last, end), "inward")
        allowed.add(end)

    # backward pass: sweep each parked pile out to its leaves
    for i in range(k - 1, -1, -1):
        for ten in decomposition.tentacles(i)[1:]:
            _sweep(t, d, cur, fired, ten, "outward")
            allowed.add(ten.leaf)

    _check_witness(t, d, fired, [base[v] - cur[v] for v in t.vertices])
    budget = sum(max(len(p.leaves) - 2, 0) for p in decomposition.pieces) + 1
    support = [v for v in t.vertices if cur[v]]
    assert len(support) <= budget
    assert all(v in allowed for v in support)
    assert t.vertex_count == 1 or all(t.degree(v) == 1 for v in support)
    return cur
