"""Tests for the exact integer matrix layer: Smith forms, groups, solvers."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from critforge import (
    AbelianGroup,
    DimensionMismatch,
    ExactLinalgError,
    IntegerMatrix,
    NonpositiveOrder,
    determinantal_divisor,
    group_from_orders,
    smith_normal_form,
    solve_integer,
)

from bruteforce import (
    NotADirectSummand,
    det,
    minor_gcd,
    quotient_strip,
    small_solution,
    smith_invariant_factors,
)

entries = st.integers(min_value=-30, max_value=30)


@st.composite
def matrices(draw, max_dim=4):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    return IntegerMatrix(
        [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    )


def bordered_block(diag, border, corner, pad):
    """A diagonal block with one bordering row/column plus two extra
    diagonal entries; the shape that turns up when a star's reduced matrix
    is padded out for cokernel bookkeeping.
    """
    ell = len(diag)
    n = ell + 3
    rows = [[0] * n for _ in range(n)]
    for i, x in enumerate(diag):
        rows[i][i] = x
        rows[i][ell] = -1
        rows[ell][i] = -border[i]
    rows[ell][ell] = corner
    rows[ell + 1][ell + 1] = pad
    rows[ell + 2][ell + 2] = pad
    return rows


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_smith_transforms_reproduce_the_matrix(m):
    dec = smith_normal_form(m)
    assert dec.left.mul(m).mul(dec.right) == dec.d
    assert abs(det([list(r) for r in dec.left.rows])) == 1
    assert abs(det([list(r) for r in dec.right.rows])) == 1


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_smith_diagonal_is_a_divisibility_chain(m):
    diag = smith_normal_form(m).diagonal
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
        # once a zero appears the rest must be zeros
        if a == 0:
            assert b == 0


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_determinantal_divisors_match_brute_minors(m):
    rows = [list(r) for r in m.rows]
    for k in range(min(m.shape) + 1):
        assert determinantal_divisor(m, k) == minor_gcd(rows, k)


def test_known_diagonal_forms():
    wide = IntegerMatrix([[2, 0, 0], [0, 3, 0]])
    assert smith_normal_form(wide).diagonal == (1, 6)

    stacked = IntegerMatrix(
        [[324, 0, 0, 0], [0, 324, 0, 0], [0, 0, 18, 0], [0, 0, 0, 3]]
    )
    assert smith_normal_form(stacked).diagonal == (3, 18, 324, 324)

    cycle = IntegerMatrix(
        [[3, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 1, -1], [-1, 0, -1, 4]]
    )
    assert smith_normal_form(cycle).diagonal == (1, 1, 2, 0)
    assert smith_normal_form(cycle).invariant_factors == (2,)


def test_bordered_block_minor_gcds():
    # Frozen from the cofactor-expansion oracle; the k = 2 value is 1, not
    # the gcd of the diagonal entries, because a 2 x 2 minor can mix one
    # diagonal entry with the -1 border column.
    rows = bordered_block((324, 324, 18, 3), (1, 197, 1, 1), 1, 324)
    m = IntegerMatrix(rows)
    expected = (1, 1, 1, 3, 54, 17496, 5668704, 0)
    for k, want in enumerate(expected):
        assert determinantal_divisor(m, k) == want
        assert minor_gcd(rows, k) == want
    # the border multipliers do not change any of the gcds as long as they
    # stay coprime to their diagonal entries
    swapped = bordered_block((324, 324, 18, 3), (197, 1, 1, 1), 1, 324)
    for k, want in enumerate(expected):
        assert minor_gcd(swapped, k) == want


@given(matrices(max_dim=3), st.lists(st.integers(-6, 6), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_solve_reproduces_constructed_rhs(m, x):
    xs = (x * 3)[: m.shape[1]]
    b = [sum(a * xi for a, xi in zip(row, xs)) for row in m.rows]
    y = solve_integer(m, b)
    assert y is not None
    assert [sum(a * yi for a, yi in zip(row, y)) for row in m.rows] == b


def test_solve_rejects_unsolvable_systems():
    m = IntegerMatrix([[2]])
    assert solve_integer(m, [3]) is None
    assert small_solution([[2]], [3], 30) is None

    parity = IntegerMatrix([[2, 4], [6, 8]])
    assert solve_integer(parity, [1, 1]) is None
    assert small_solution([[2, 4], [6, 8]], [1, 1], 8) is None


def test_solve_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_integer(IntegerMatrix([[1, 2]]), [1, 2, 3])


@given(st.lists(st.integers(1, 30), max_size=5))
@settings(max_examples=100, deadline=None)
def test_group_from_orders_ignores_presentation_order(orders):
    g = group_from_orders(orders)
    assert g == group_from_orders(sorted(orders, reverse=True))
    product = 1
    for x in orders:
        product *= x
    assert g.order == product
    for a, b in zip(g.invariant_factors, g.invariant_factors[1:]):
        assert b % a == 0


orders_to_normalise = st.lists(
    st.one_of(st.integers(1, 10 ** 4), st.integers(2 ** 64, 2 ** 70)), max_size=8
)


@given(orders_to_normalise)
@settings(max_examples=200, deadline=None)
def test_group_from_orders_matches_the_smith_route(orders):
    assert group_from_orders(orders).invariant_factors == smith_invariant_factors(orders)


@given(orders_to_normalise, orders_to_normalise)
@settings(max_examples=60, deadline=None)
def test_direct_sum_matches_the_smith_route(a, b):
    g, h = group_from_orders(a), group_from_orders(b)
    want = smith_invariant_factors(g.invariant_factors + h.invariant_factors)
    assert g.direct_sum(h).invariant_factors == want


def test_group_from_orders_takes_exact_integers_only():
    for bad in ([2.9, 3], [6.0], [True, 3], ["6"]):
        with pytest.raises(ExactLinalgError, match="is not an integer"):
            group_from_orders(bad)
    with pytest.raises(NonpositiveOrder):
        group_from_orders([3, 0])


def test_abelian_group_takes_exact_integers_only():
    for bad in ((6.7,), (2, 6.0), (True,), (2, False)):
        with pytest.raises(ExactLinalgError, match=r"invariant factor .* is not an integer"):
            AbelianGroup(bad)
    assert AbelianGroup([2, 6]).invariant_factors == (2, 6)


def test_group_from_orders_known_values():
    assert group_from_orders([2, 3]).invariant_factors == (6,)
    assert group_from_orders([324, 324, 18, 3]).invariant_factors == (3, 18, 324, 324)
    assert group_from_orders([]).is_trivial
    assert group_from_orders([1, 1]).is_trivial
    assert group_from_orders([4, 6, 10]).invariant_factors == (2, 2, 60)
    assert group_from_orders([12, 8, 1, 3]).invariant_factors == (12, 24)


def test_group_invariants_and_operations():
    g = AbelianGroup((2, 6))
    assert g.order == 12
    assert g.exponent == 6
    assert not g.is_cyclic
    assert AbelianGroup.cyclic(5).is_cyclic
    assert AbelianGroup.cyclic(1).is_trivial
    assert g.direct_sum(AbelianGroup.cyclic(5)).invariant_factors == (2, 30)
    assert str(AbelianGroup.trivial()) == "0"

    with pytest.raises(ValueError):
        AbelianGroup((4, 2))
    with pytest.raises(ValueError):
        AbelianGroup((1, 2))
    with pytest.raises(NonpositiveOrder):
        AbelianGroup.cyclic(0)


small_groups = st.lists(st.integers(1, 12), max_size=3).map(group_from_orders)


@given(small_groups, st.integers(1, 6), st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_quotient_strip_undoes_direct_sum(g, mult, copies):
    # Stripping works by deleting factors, so the stripped part must keep
    # its factors verbatim through normalization; multiples of g's exponent
    # are guaranteed to. That is also how the callers use it.
    top = g.exponent * mult
    h = AbelianGroup((top,) * copies) if top > 1 else AbelianGroup(())
    assert quotient_strip(g.direct_sum(h), h) == g


def test_quotient_strip_known_values():
    left = AbelianGroup((2, 6, 6, 6))
    assert quotient_strip(left, AbelianGroup((6, 6))) == AbelianGroup((2, 6))
    assert quotient_strip(left, left).is_trivial
    with pytest.raises(NotADirectSummand):
        quotient_strip(AbelianGroup.cyclic(4), AbelianGroup.cyclic(2))
    # Z/6 does split as Z/2 + Z/3, but the contract is deletion from the
    # normalized factor list, so asking for the Z/3 half is refused rather
    # than answered with Z/2.
    with pytest.raises(NotADirectSummand):
        quotient_strip(AbelianGroup.cyclic(6), AbelianGroup.cyclic(3))


def test_matrix_validation_and_accessors():
    with pytest.raises(DimensionMismatch):
        IntegerMatrix([])
    with pytest.raises(DimensionMismatch):
        IntegerMatrix([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        IntegerMatrix([[True]])

    m = IntegerMatrix([[1, 2, 3], [4, 5, 6]])
    assert m.shape == (2, 3)
    assert m.entry(1, 2) == 6
    assert m.apply([1, 0, -1]) == (-2, -2)


@given(matrices(max_dim=3), matrices(max_dim=3))
@settings(max_examples=60, deadline=None)
def test_matrix_product_matches_plain_arithmetic(a, b):
    if a.shape[1] != b.shape[0]:
        with pytest.raises(DimensionMismatch):
            a.mul(b)
        return
    prod = a.mul(b)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            want = sum(a.entry(i, k) * b.entry(k, j) for k in range(a.shape[1]))
            assert prod.entry(i, j) == want
