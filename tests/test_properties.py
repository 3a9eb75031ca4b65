"""Randomized algebraic invariants, checked with hypothesis."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from tdpairs import GF, Matrix, ParseError
from tdpairs.linalg import rref_rows
from tdpairs.pairs import ShapeVector
from tdpairs.subspaces import (
    Subspace,
    subspace_intersect,
    subspace_sum,
)

from oracles import subspace_leq

PRIMES = (2, 3, 5, 7, 11)

prime_st = st.sampled_from(PRIMES)
int_st = st.integers(min_value=-30, max_value=30)


@settings(max_examples=50, deadline=None)
@given(prime_st, int_st, int_st, int_st)
def test_prime_field_arithmetic_laws(p, x, y, z):
    f = GF(p)
    a, b, c = f.scalar(x), f.scalar(y), f.scalar(z)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + f.zero == a
    assert a * f.one == a
    assert a + (-a) == f.zero
    if b != f.zero:
        assert b * (f.one / b) == f.one
        assert (a / b) * b == a


@settings(max_examples=30, deadline=None)
@given(
    prime_st,
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_row_reduction_is_idempotent(p, nrows, ncols, data):
    f = GF(p)
    entries = data.draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    m = Matrix(f, [[f.scalar(x) for x in row] for row in entries])
    rows, rank, pivots = rref_rows(f, [list(row) for row in m.rows])
    assert rref_rows(f, [list(row) for row in rows]) == (rows, rank, pivots)
    assert rank <= min(nrows, ncols)


def _random_subspace(data, f, p, n):
    count = data.draw(st.integers(min_value=0, max_value=2))
    vecs = data.draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
            min_size=count,
            max_size=count,
        )
    )
    return Subspace.span(f, n, [tuple(f.scalar(x) for x in v) for v in vecs])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(min_value=2, max_value=4), st.data())
def test_subspace_lattice_modular_law(p, n, data):
    f = GF(p)
    x = _random_subspace(data, f, p, n)
    y = _random_subspace(data, f, p, n)
    w = _random_subspace(data, f, p, n)
    z = subspace_sum(x, w)  # guarantees x <= z
    assert subspace_leq(x, z)
    left = subspace_intersect(subspace_sum(x, y), z)
    right = subspace_sum(x, subspace_intersect(y, z))
    assert left == right
    # dimension formula for the same draw
    assert (
        subspace_sum(x, y).dim + subspace_intersect(x, y).dim == x.dim + y.dim
    )


def _acceptable_shape(rho):
    if not rho or any(x < 1 for x in rho):
        return False
    if list(rho) != list(reversed(rho)):
        return False
    half = rho[: (len(rho) + 1) // 2]
    return all(half[i] <= half[i + 1] for i in range(len(half) - 1))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6))
def test_shape_vector_matches_reference_predicate(rho):
    rho = tuple(rho)
    try:
        ShapeVector(rho)
        accepted = True
    except ParseError:
        accepted = False
    assert accepted == _acceptable_shape(rho)
