"""Subspace lattice operations against enumeration oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from tdpairs import GF, QQ, DimensionMismatch, Matrix, Subspace, annihilator, image_of, kernel, subspace_intersect, subspace_leq, subspace_sum
from tdpairs.subspaces import sum_of

from oracles import int_span, subspace_vector_set


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
