"""Exact integer linear algebra over dense Python-int matrices.

Everything here is deliberately dependency-free: matrices are tuples of
tuples of ints, Smith normal form tracks its unimodular transforms, and
finite abelian groups are invariant-factor tuples.  No floats anywhere.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from ._record import _Record


class ExactLinalgError(Exception):
    """Base class for errors raised by this module."""


class DimensionMismatch(ExactLinalgError):
    pass


class IndexOutOfRange(ExactLinalgError):
    pass


class NonpositiveOrder(ExactLinalgError):
    pass


class IntegerMatrix:
    """An immutable dense matrix with integer entries."""

    __slots__ = ("_rows", "_nrows", "_ncols")

    def __init__(self, rows: Iterable[Iterable[int]]):
        data = tuple(tuple(row) for row in rows)
        if not data or not data[0]:
            raise DimensionMismatch("matrix must have at least one row and one column")
        width = len(data[0])
        for row in data:
            if len(row) != width:
                raise DimensionMismatch(
                    f"ragged rows: expected width {width}, got {len(row)}"
                )
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise DimensionMismatch(f"non-integer entry {x!r}")
        self._rows = data
        self._nrows = len(data)
        self._ncols = width

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    @property
    def shape(self) -> tuple[int, int]:
        return (self._nrows, self._ncols)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self._nrows and 0 <= j < self._ncols):
            raise IndexOutOfRange(f"entry ({i}, {j}) outside shape {self.shape}")
        return self._rows[i][j]

    def mul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self._ncols != other._nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        ot = list(zip(*other._rows))
        return IntegerMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot]
             for row in self._rows]
        )

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(vec) != self._ncols:
            raise DimensionMismatch(
                f"vector of length {len(vec)} against {self.shape} matrix"
            )
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self._rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntegerMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"IntegerMatrix({[list(r) for r in self._rows]!r})"


class SmithDecomposition(_Record):
    """Smith normal form ``d = left * source * right``.

    ``left`` and ``right`` are unimodular, ``d`` is diagonal with
    nonnegative entries forming a divisibility chain, zeros last.
    """

    __slots__ = _fields = ("source", "left", "d", "right")

    def __init__(self, source: IntegerMatrix, left: IntegerMatrix, d: IntegerMatrix,
                 right: IntegerMatrix) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "right", right)

    @property
    def diagonal(self) -> tuple[int, ...]:
        nr, nc = self.d.shape
        return tuple(self.d.entry(i, i) for i in range(min(nr, nc)))

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Diagonal entries larger than 1 (the torsion data)."""
        return tuple(x for x in self.diagonal if x > 1)


def _swap_rows(a: list[list[int]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _find_pivot(a: list[list[int]], k: int) -> tuple[int, int] | None:
    """Smallest nonzero absolute value in the trailing block, row-major ties."""
    best = None
    best_val = 0
    for i in range(k, len(a)):
        for j in range(k, len(a[0])):
            x = abs(a[i][j])
            if x != 0 and (best is None or x < best_val):
                best, best_val = (i, j), x
                if x == 1:
                    return best
    return best


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Compute the Smith normal form with its unimodular transforms.

    Deterministic: the pivot at each stage is the entry of smallest
    nonzero absolute value in the trailing block, earliest row first,
    then earliest column.  The result satisfies left * m * right == d,
    which is re-checked before returning.
    """
    nr, nc = m.shape
    a = [list(row) for row in m.rows]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(dst: int, src: int, q: int) -> None:
        # row dst -= q * row src, mirrored on u
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def col_op(dst: int, src: int, q: int) -> None:
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    k = 0
    limit = min(nr, nc)
    while k < limit:
        piv = _find_pivot(a, k)
        if piv is None:
            break
        while True:
            pi, pj = piv
            if pi != k:
                _swap_rows(a, k, pi)
                _swap_rows(u, k, pi)
            if pj != k:
                swap_cols(k, pj)
            if a[k][k] < 0:
                a[k] = [-x for x in a[k]]
                u[k] = [-x for x in u[k]]
            p = a[k][k]
            # clear the rest of column k, then row k
            for i in range(k + 1, nr):
                if a[i][k]:
                    row_op(i, k, a[i][k] // p)
            for j in range(k + 1, nc):
                if a[k][j]:
                    col_op(j, k, a[k][j] // p)
            dirty = any(a[i][k] for i in range(k + 1, nr)) or any(
                a[k][j] for j in range(k + 1, nc)
            )
            if dirty:
                # some remainder (strictly smaller than p) survived; re-pivot
                piv = _find_pivot(a, k)
                continue
            # enforce the divisibility chain: p must divide the trailing block
            culprit = None
            for i in range(k + 1, nr):
                for j in range(k + 1, nc):
                    if a[i][j] % p:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_op(k, culprit, -1)
            piv = (k, k)
        k += 1

    d = IntegerMatrix(a)
    left = IntegerMatrix(u)
    right = IntegerMatrix(v)
    if left.mul(m).mul(right) != d:
        raise AssertionError("smith normal form transform check failed")
    return SmithDecomposition(source=m, left=left, d=d, right=right)


def determinantal_divisor(m: IntegerMatrix, k: int) -> int:
    """The gcd of all k x k minors, via the Smith normal form.

    Equals the product of the first k diagonal entries of the Smith
    form; by convention the 0th divisor is 1, and the value is 0 when
    the rank is below k.
    """
    nr, nc = m.shape
    if not 0 <= k <= min(nr, nc):
        raise IndexOutOfRange(f"order {k} outside 0..{min(nr, nc)}")
    if k == 0:
        return 1
    diag = smith_normal_form(m).diagonal
    out = 1
    for x in diag[:k]:
        out *= x
    return out


def _solve_smith(dec: SmithDecomposition, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution x of ``dec.source`` x = b, or None."""
    nr, nc = dec.source.shape
    if len(b) != nr:
        raise DimensionMismatch(f"rhs of length {len(b)} against {dec.source.shape} matrix")
    c = dec.left.apply(b)
    y = [0] * nc
    for i in range(nr):
        di = dec.d.entry(i, i) if i < min(nr, nc) else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            q, rem = divmod(c[i], di)
            if rem:
                return None
            y[i] = q
    return dec.right.apply(y)


class AbelianGroup(_Record):
    """A finite abelian group in invariant-factor form.

    ``invariant_factors`` is a tuple of ints, each at least 2, each
    dividing the next.  The empty tuple is the trivial group.
    """

    __slots__ = _fields = ("invariant_factors",)

    def __init__(self, invariant_factors: Iterable[int] = ()) -> None:
        fs = tuple(invariant_factors)
        for x in fs:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ExactLinalgError(f"invariant factor {x!r} is not an integer")
            if x < 2:
                raise ValueError(f"invariant factor {x} is below 2")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError(f"{a} does not divide {b} in {fs}")
        object.__setattr__(self, "invariant_factors", fs)

    @classmethod
    def trivial(cls) -> "AbelianGroup":
        return cls(())

    @classmethod
    def cyclic(cls, n: int) -> "AbelianGroup":
        if n < 1:
            raise NonpositiveOrder(f"cyclic group of order {n}")
        return cls(() if n == 1 else (n,))

    @property
    def order(self) -> int:
        out = 1
        for x in self.invariant_factors:
            out *= x
        return out

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def is_cyclic(self) -> bool:
        return len(self.invariant_factors) <= 1

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return group_from_orders(self.invariant_factors + other.invariant_factors)

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "0"
        return " + ".join(f"Z/{x}" for x in self.invariant_factors)


def group_from_orders(orders: Iterable[int]) -> AbelianGroup:
    """The direct sum of cyclic groups Z/n for n in ``orders``.

    Orders need not form a chain.  Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b),
    so each entry in turn is swapped with the gcd of itself and every
    later entry it fails to divide, that entry taking the lcm; it then
    divides all later entries, and the list ends as a divisibility chain.
    """
    vals = []
    for x in orders:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ExactLinalgError(f"cyclic order {x!r} is not an integer")
        if x < 1:
            raise NonpositiveOrder(f"cyclic order {x} is not positive")
        if x > 1:
            vals.append(x)
    for i, a in enumerate(vals):
        for j in range(i + 1, len(vals)):
            b = vals[j]
            if b % a:
                g = gcd(a, b)
                vals[j] = a // g * b
                vals[i] = a = g
    return AbelianGroup(tuple(x for x in vals if x > 1))

