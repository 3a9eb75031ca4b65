"""Subspace lattice operations against enumeration oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from tdpairs import (
    GF,
    QQ,
    DimensionMismatch,
    FieldMismatch,
    InvariantViolation,
    Matrix,
    Subspace,
    annihilator,
    kernel,
    maps_into,
    subspace_intersect,
    subspace_sum,
)
from tdpairs.pairs import _checked_reducible
from tdpairs.subspaces import _lands_in, sum_of

from oracles import image_of, int_rref, int_span, kernel_by_two_eliminations, subspace_leq, subspace_vector_set


def _random_subspace(rng, field, n, p):
    k = rng.randint(0, n)
    vecs = [[field.scalar(rng.randrange(p)) for _ in range(n)] for _ in range(k)]
    return Subspace.span(field, n, vecs)


def test_span_canonical_form_deduplicates():
    f = GF(3)
    s1 = Subspace.span(f, 2, [[f.one, f.one]])
    s2 = Subspace.span(f, 2, [[f.scalar(2), f.scalar(2)]])
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert s1.dim == 1


def test_contains_and_coordinates():
    s = Subspace.span(QQ, 3, [[QQ.one, QQ.zero, QQ.one], [QQ.zero, QQ.one, QQ.one]])
    v = (QQ.scalar(2), QQ.scalar(3), QQ.scalar(5))
    assert s.contains(v)
    coords = s.coordinates(v)
    assert coords is not None
    rebuilt = [QQ.zero, QQ.zero, QQ.zero]
    for c, b in zip(coords, s.basis):
        rebuilt = [x + c * y for x, y in zip(rebuilt, b)]
    assert tuple(rebuilt) == v
    assert not s.contains((QQ.one, QQ.zero, QQ.zero))
    assert s.coordinates((QQ.one, QQ.zero, QQ.zero)) is None


def test_zero_and_full():
    z = Subspace.zero(QQ, 3)
    full = Subspace.full(QQ, 3)
    assert z.is_zero() and z.dim == 0
    assert full.is_full() and full.dim == 3
    assert subspace_leq(z, full)


def test_dimension_formula_sum_and_intersection():
    rng = random.Random(31)
    for p in (2, 3):
        f = GF(p)
        for _ in range(80):
            n = rng.randint(1, 4)
            x = _random_subspace(rng, f, n, p)
            y = _random_subspace(rng, f, n, p)
            s = subspace_sum(x, y)
            i = subspace_intersect(x, y)
            assert s.dim + i.dim == x.dim + y.dim
            assert subspace_leq(i, x) and subspace_leq(i, y)
            assert subspace_leq(x, s) and subspace_leq(y, s)


def test_intersection_matches_vector_enumeration():
    rng = random.Random(37)
    for _ in range(100):
        p = rng.choice((2, 3))
        f = GF(p)
        n = rng.randint(1, 3)
        x = _random_subspace(rng, f, n, p)
        y = _random_subspace(rng, f, n, p)
        got = subspace_vector_set(subspace_intersect(x, y))
        expected = subspace_vector_set(x) & subspace_vector_set(y)
        assert got == expected


def test_sum_matches_vector_enumeration():
    rng = random.Random(41)
    for _ in range(100):
        p = rng.choice((2, 3))
        f = GF(p)
        n = rng.randint(1, 3)
        x = _random_subspace(rng, f, n, p)
        y = _random_subspace(rng, f, n, p)
        got = subspace_vector_set(subspace_sum(x, y))
        both = [tuple(c.v for c in b) for b in x.basis] + [
            tuple(c.v for c in b) for b in y.basis
        ]
        assert got == frozenset(int_span(p, both, n))


def test_kernel_and_image_of():
    f = GF(5)
    m = Matrix(f, [[f.one, f.scalar(2), f.zero], [f.scalar(2), f.scalar(4), f.zero]])
    k = kernel(m)
    assert k.dim == 2
    for b in k.basis:
        assert all(x == f.zero for x in m.apply(b))
    s = Subspace.span(f, 3, [[f.one, f.zero, f.zero], [f.zero, f.zero, f.one]])
    img = image_of(m, s)
    assert img == Subspace.span(f, 2, [[f.one, f.scalar(2)]])


def _entry(rng, field, digits):
    """A random field element; over Q a fraction with up to `digits`
    digits above and below."""
    if getattr(field, "p", None):
        return field.scalar(rng.randrange(field.p))
    top = 10 ** rng.randint(1, digits)
    return Fraction(rng.randint(-top, top), rng.randint(1, 10 ** rng.randint(1, digits)))


def _random_matrix(rng, field, nrows, ncols, digits=1):
    """A random matrix, of full rank or, as a product through a narrower
    middle, of lower rank; sometimes zero or the identity."""
    kind = rng.random()
    if kind < 0.1:
        return Matrix.zeros(field, nrows, ncols)
    if kind < 0.15 and nrows == ncols:
        return Matrix.identity(field, nrows)
    if kind < 0.6:
        return Matrix(field, [[_entry(rng, field, digits) for _ in range(ncols)] for _ in range(nrows)])
    k = rng.randint(1, max(1, min(nrows, ncols) - 1))
    left = Matrix(field, [[_entry(rng, field, digits) for _ in range(k)] for _ in range(nrows)])
    return left @ Matrix(field, [[_entry(rng, field, digits) for _ in range(ncols)] for _ in range(k)])


def _is_canonical(s):
    """Whether the Echelon rows of s are a canonical RREF: each row 0 left
    of its pivot and at every other pivot, with pivot 1 over GF(p), and
    over Q primitive with a positive pivot."""
    rows, p = s.echelon.rows, s.echelon.p
    for c, row in rows.items():
        if any(row[:c]) or any(row[o] for o in rows if o != c):
            return False
        if (row[c] != 1 or any(not 0 <= x < p for x in row)) if p else (row[c] <= 0 or gcd(*row) != 1):
            return False
    return True


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(101), GF(65521), QQ], ids=str)
def test_kernel_matches_the_two_elimination_oracle(field):
    # square, wide and tall matrices of every rank, zero and full rank; over
    # Q with entries of 1 to 30 digits
    rng = random.Random(str(field))
    ranks = set()
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = _random_matrix(rng, field, nrows, ncols, digits=rng.choice([1, 3, 10, 30]))
        k = kernel(m)
        assert k == kernel_by_two_eliminations(m), m.rows
        assert _is_canonical(k), m.rows
        assert all(not any(m.apply(b)) for b in k.basis)
        ranks.add("zero" if m.is_zero() else "full" if k.dim == max(0, ncols - nrows) else "deficient")
    assert ranks == {"zero", "full", "deficient"}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_shifted_kernel_matches_the_shifted_matrix_and_the_rank_oracle(field):
    # kernel(m, theta) feeds m's int rows with theta subtracted into one
    # elimination; it must give kernel(m.shift(theta)) row for row, of
    # dimension n - rank(m - theta I), for eigenvalues (fractional over
    # Q), for theta off the spectrum and on triangular m with a repeated
    # diagonal entry
    rng = random.Random(f"shifted kernel {field}")
    p = getattr(field, "p", None)

    def draw():
        return rng.randrange(p) if p else Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    seen = set()
    for _ in range(80):
        n, shape = rng.randint(1, 6), rng.choice(["dense", "upper", "lower"])
        rows = [[draw() for _ in range(n)] for _ in range(n)]
        if shape != "dense":  # sparse above (or below) a diagonal of two values
            diag, upper = [draw(), draw()], shape == "upper"

            def entry(i, j, x):
                if i == j:
                    return rng.choice(diag)
                return x if (j > i) == upper and rng.random() < 0.5 else 0

            rows = [[entry(i, j, x) for j, x in enumerate(row)] for i, row in enumerate(rows)]
        m = Matrix(field, rows)
        for theta in [draw(), *(row[i] for i, row in enumerate(rows))]:
            k, shifted = kernel(m, theta), m.shift(theta)
            assert k == kernel(shifted) and k.basis == kernel(shifted).basis, (rows, theta)
            minus = [[x - theta if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
            assert k.dim == n - int_rref(p, minus)[1], (rows, theta)
            assert _is_canonical(k) and all(not any(shifted.apply(b)) for b in k.basis)
            seen.add((shape == "dense", k.dim > 0, k.dim > 1))
    assert seen >= {(True, False, False), (True, True, False), (False, True, True)}
    with pytest.raises(DimensionMismatch, match="shift of a non-square matrix"):
        kernel(Matrix(field, [[1, 0, 0], [0, 1, 0]]), 1)


@pytest.mark.parametrize("field", [GF(3), GF(101), QQ], ids=str)
def test_maps_into_matches_the_image_and_containment(field):
    rng = random.Random(str(field))
    verdicts = set()
    for _ in range(150):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, field, k, n, digits=3)
        s = rng.choice([Subspace.zero(field, n), Subspace.full(field, n), kernel(_random_matrix(rng, field, 2, n))])
        other = kernel(_random_matrix(rng, field, rng.randint(1, k), k))
        t = rng.choice([Subspace.zero(field, k), Subspace.full(field, k), other, subspace_sum(image_of(m, s), other)])
        verdict = maps_into(m, s, t)
        assert verdict == subspace_leq(image_of(m, s), t), (m.rows, s, t)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_shifted_maps_into_matches_the_shifted_matrix(field):
    # _lands_in(R, r, s, t), maps_into's core shifted by an int r on m's
    # int rows R = d m, must agree with maps_into(m.shift(r / d), s, t) for
    # r on and off the spectrum (theta fractional over Q), with s an
    # eigenspace, the whole space or a random kernel, and t zero, s itself
    # or the shifted image
    rng = random.Random(f"shifted maps_into {field}")
    p = getattr(field, "p", None)

    def draw():
        return rng.randrange(p) if p else Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    verdicts = set()
    for _ in range(120):
        n = rng.randint(1, 6)
        m = Matrix(field, [[draw() for _ in range(n)] for _ in range(n)])
        rows, d = m._ints
        r = rng.choice([rng.randrange(p) if p else rng.randint(-30, 30), rows[0][0]])
        theta = field.scalar(r) / field.scalar(d)
        shifted = m.shift(theta)
        s = rng.choice([kernel(m, theta), Subspace.full(field, n), kernel(_random_matrix(rng, field, 2, n))])
        other = kernel(_random_matrix(rng, field, rng.randint(1, n), n))
        t = rng.choice([Subspace.zero(field, n), s, other, subspace_sum(image_of(shifted, s), other)])
        verdict = _lands_in(rows, r, s, t)
        assert verdict == maps_into(shifted, s, t), (m.rows, theta, s, t)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_maps_into_checks_fields_and_dimensions():
    f = GF(3)
    m = Matrix.identity(f, 3)
    full = Subspace.full(f, 3)
    with pytest.raises(FieldMismatch):
        maps_into(m, Subspace.full(GF(5), 3), full)
    with pytest.raises(FieldMismatch):
        maps_into(m, full, Subspace.full(QQ, 3))
    with pytest.raises(DimensionMismatch):
        maps_into(m, Subspace.full(f, 2), full)
    with pytest.raises(DimensionMismatch):
        maps_into(Matrix.zeros(f, 2, 3), full, full)
    # the target is checked as the image's space, messages and all
    with pytest.raises(FieldMismatch) as caught:
        maps_into(m, full, Subspace.full(QQ, 3))
    assert str(caught.value) == "GF(3) vs Q"
    with pytest.raises(DimensionMismatch) as caught:
        maps_into(Matrix.zeros(f, 2, 3), full, full)
    assert str(caught.value) == "ambient 2 vs 3"
    with pytest.raises(DimensionMismatch) as caught:
        maps_into(m, Subspace.full(f, 2), full)
    assert str(caught.value) == "operator domain does not match ambient space"
    with pytest.raises(TypeError, match="^expected a Subspace$"):
        maps_into(m, full, [[1, 0, 0]])


def test_a_witness_that_is_not_invariant_is_a_bug():
    f = GF(3)
    a = Matrix(f, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    astar = Matrix(f, [[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    line = Subspace.span(f, 3, [[1, 0, 0]])  # A-invariant, moved by Astar
    assert maps_into(a, line, line) and not maps_into(astar, line, line)
    with pytest.raises(InvariantViolation, match="witness fails its checks"):
        _checked_reducible(a, astar, line, "test")


def test_annihilator_dimension_and_orthogonality():
    rng = random.Random(43)
    f = GF(3)
    for _ in range(50):
        n = rng.randint(1, 4)
        s = _random_subspace(rng, f, n, 3)
        ann = annihilator(f, n, [list(b) for b in s.basis])
        assert ann.dim == n - s.dim
        for u in ann.basis:
            for b in s.basis:
                assert sum((x * y for x, y in zip(u, b)), f.zero) == f.zero


def test_sum_of_many():
    f = QQ
    spaces = [Subspace.span(f, 3, [[f.one, f.zero, f.zero]]),
              Subspace.span(f, 3, [[f.zero, f.one, f.zero]]),
              Subspace.span(f, 3, [[f.one, f.one, f.zero]])]
    total = sum_of(spaces)
    assert total.dim == 2
    assert sum_of([], field=f, ambient_dim=3).is_zero()


def test_mismatched_ambient_dimensions_rejected():
    with pytest.raises(DimensionMismatch):
        subspace_sum(Subspace.zero(QQ, 2), Subspace.zero(QQ, 3))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101), GF(65521)], ids=["Q", "GF2", "GF101", "GF65521"])
def test_equal_subspaces_compare_equal_whatever_the_route(field):
    # == and hash compare the Echelon rows, so every route to a subspace
    # must leave them canonical: a span of shuffled, rescaled generators,
    # a sum, an intersection, full and zero
    rng = random.Random(16)
    p = getattr(field, "p", None)

    def scalar():
        if p is None:
            return Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12))
        return field.scalar(rng.randrange(p))

    def gens(n):
        vecs = [[scalar() for _ in range(n)] for _ in range(rng.randint(0, n))]
        if len(vecs) >= 2:  # a dependent one, so some spans lose a dimension
            c = scalar()
            vecs.append([u + c * v for u, v in zip(vecs[0], vecs[1])])
        return vecs

    def nonzero():
        c = scalar()
        return c if c else nonzero()

    def respan(n, vecs):
        moved = [[c * u for u in v] for v in vecs for c in [nonzero()]]
        rng.shuffle(moved)
        return Subspace.span(field, n, moved)

    for _ in range(20):
        n = rng.randint(1, 5)
        xs, ys = gens(n), gens(n)
        x, y = Subspace.span(field, n, xs), Subspace.span(field, n, ys)
        full, zero = Subspace.full(field, n), Subspace.zero(field, n)
        both, meet = subspace_sum(x, y), subspace_intersect(x, y)
        assert meet.dim == x.dim + y.dim - both.dim
        assert subspace_leq(meet, x) and subspace_leq(meet, y)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        routes = [
            (x, respan(n, xs)),
            (both, respan(n, xs + ys)),
            (both, sum_of([y, x])),
            (meet, respan(n, meet.basis)),
            (meet, subspace_intersect(y, x)),
            (full, respan(n, eye)),
            (full, subspace_sum(x, full)),
            (x, subspace_intersect(x, full)),
            (zero, Subspace.span(field, n, [])),
            (zero, subspace_intersect(x, zero)),
            (x, subspace_sum(zero, x)),
        ]
        for want, got in routes:
            assert got == want and hash(got) == hash(want)
            assert got.basis == want.basis
