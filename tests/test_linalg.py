"""Exact matrix operations against independent oracles."""

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
    HypothesisNotMet,
    InvariantViolation,
    Matrix,
    Polynomial,
    min_poly,
)
from tdpairs.eigen import invert
from tdpairs.fields import GFElement
from tdpairs.linalg import Echelon, row_elements, rref_rows, vec_is_zero
from tdpairs.subspaces import Subspace, kernel, subspace_intersect
import tdpairs.pairs

from oracles import (
    brute_intersection,
    int_mat_apply,
    int_matmul,
    int_rref,
    poly_eval_matrix,
    ref_rank_q,
    subspace_vector_set,
)


def qm(rows):
    return Matrix(QQ, [[QQ.scalar(x) for x in r] for r in rows])


def gm(p, rows):
    f = GF(p)
    return Matrix(f, [[f.scalar(x) for x in r] for r in rows])


def _random_q_matrix(rng, nrows, ncols, den=4):
    return qm(
        [
            [Fraction(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
    )


def test_matrix_shape_and_entry_access():
    m = qm([[1, 2, 3], [4, 5, 6]])
    assert m.nrows == 2 and m.ncols == 3
    assert m[1, 2] == 6
    assert m.row(0) == (1, 2, 3)
    assert m.column(2) == (3, 6)
    assert m.flatten() == (1, 2, 3, 4, 5, 6)


def test_ragged_rows_rejected():
    with pytest.raises(DimensionMismatch):
        qm([[1, 2], [3]])


def test_arithmetic_against_definitions():
    a = qm([[1, 2], [3, 4]])
    b = qm([[0, 1], [1, 0]])
    assert a + b == qm([[1, 3], [4, 4]])
    assert a - b == qm([[1, 1], [2, 4]])
    assert -a == qm([[-1, -2], [-3, -4]])
    assert a @ b == qm([[2, 1], [4, 3]])
    assert a.scale(QQ.scalar(2)) == qm([[2, 4], [6, 8]])
    assert a.apply((1, 1)) == (3, 7)
    assert a.transpose() == qm([[1, 3], [2, 4]])
    assert Matrix.identity(QQ, 2) @ a == a
    assert Matrix.diagonal(QQ, [QQ.scalar(2), QQ.scalar(3)]) @ b == qm([[0, 2], [3, 0]])


def test_mixed_field_operations_rejected():
    with pytest.raises(FieldMismatch):
        qm([[1]]) + gm(5, [[1]])


def test_rref_properties_random_q():
    rng = random.Random(7)
    for _ in range(40):
        m = _random_q_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        rows, r, pivots = rref_rows(QQ, [list(row) for row in m.rows])
        assert r == len(pivots)
        # pivot structure: strictly increasing columns, unit pivots,
        # zeros elsewhere in pivot columns
        assert list(pivots) == sorted(pivots)
        for i, c in enumerate(pivots):
            assert rows[i][c] == QQ.one
            for k in range(len(rows)):
                if k != i:
                    assert rows[k][c] == QQ.zero
        # all-zero rows trail
        for i in range(r, len(rows)):
            assert vec_is_zero(rows[i])


def test_rank_matches_independent_elimination():
    rng = random.Random(13)
    for _ in range(60):
        m = _random_q_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert Echelon.of_rows(m).dim == ref_rank_q([list(r) for r in m.rows])


def test_rank_matches_span_size_over_gf():
    from oracles import int_span

    rng = random.Random(17)
    for p in (2, 3):
        f = GF(p)
        for _ in range(40):
            n = rng.randint(1, 3)
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            m = gm(p, rows)
            span = int_span(p, rows, n)
            assert p ** Echelon.of_rows(m).dim == len(span)


def test_kernel_vectors_annihilate_and_count():
    rng = random.Random(23)
    for _ in range(40):
        m = _random_q_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        ks = kernel(m).basis
        assert len(ks) == m.ncols - Echelon.of_rows(m).dim
        for k in ks:
            assert vec_is_zero(m.apply(k))


def test_min_poly_annihilates_and_is_minimal():
    a = qm([[0, 0, 0], [1, 1, 0], [0, 1, 2]])
    p = min_poly(a)
    assert poly_eval_matrix(p, a).is_zero()
    assert p.degree == 3
    # monic
    assert p.coeffs[-1] == QQ.one
    # distinct eigenvalues 0,1,2: minimal polynomial is x(x-1)(x-2)
    assert p == Polynomial.from_roots(QQ, [QQ.scalar(0), QQ.scalar(1), QQ.scalar(2)])


def test_min_poly_of_projection_has_degree_two():
    a = qm([[1, 0], [0, 0]])
    p = min_poly(a)
    assert p.degree == 2
    assert poly_eval_matrix(p, a).is_zero()


def test_poly_eval_matrix_on_known_polynomial():
    a = qm([[1, 1], [0, 1]])
    p = Polynomial(QQ, [QQ.scalar(2), QQ.scalar(-3), QQ.one])  # 2 - 3x + x^2
    expected = qm([[0, -1], [0, 0]])
    assert poly_eval_matrix(p, a) == expected


# ---- the Echelon engine and its users against the plain oracle ----------------


def _ints(rows):
    return [_vals(row) for row in rows]


def _vals(vec):
    """Scalars as oracle values: int residues over GF(p), Fractions over Q."""
    return [x.v if type(x) is GFElement else x for x in vec]


def _draw(rng, p):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if p is None else rng.randrange(p)


def _random_int_rows(rng, p, nrows, ncols):
    """Random residues (p None: small rationals), with some rows
    combinations of earlier ones so the rank drops below
    min(nrows, ncols)."""
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(rows, 2)
            c = _draw(rng, p)
            rows.append([x + c * y if p is None else (x + c * y) % p for x, y in zip(a, b)])
        else:
            rows.append([_draw(rng, p) if rng.random() < 0.7 else 0 for _ in range(ncols)])
    return rows


def _check_residue_kernels(field, entry, rows, other, v):
    """The Echelon engine, rref_rows, kernel, contains,
    coordinates, subspace_intersect, apply, @ and transpose of the rows
    (entries built by entry()) against the plain oracle: ints mod p over
    GF(p), Fractions over Q.  The columns of other span a second
    subspace to intersect with the rows' span."""
    p = getattr(field, "p", None)
    ncols = len(rows[0])

    def elements(vecs):
        return [[entry(x) for x in vec] for vec in vecs]

    m = Matrix(field, elements(rows))
    ref, rank_, pivots = int_rref(p, rows)
    out, r, piv = rref_rows(field, elements(rows))
    assert (_ints(out), r, piv) == (ref, rank_, pivots)
    assert all(type(x) is type(field.zero) for row in out for x in row)
    # the engine's back-substitution basis: a 1 at each free column
    nullspace = Echelon.of_rows(m).nullspace(ncols)
    assert [free for free, _ in nullspace] == [c for c in range(ncols) if c not in pivots]
    back = [row_elements(field, u, u[free]) for free, u in nullspace]
    ker = kernel(m)
    assert len(ker.basis) == m.ncols - rank_
    for k in back + list(ker.basis):
        assert int_mat_apply(p, rows, _vals(k)) == (0,) * len(rows)
    assert ker == Subspace.span(field, ncols, back)
    assert _ints(ker.basis) == int_rref(p, _ints(back))[0][: ker.dim]
    assert _vals(m.apply(elements([v])[0])) == list(int_mat_apply(p, rows, v))
    product = m @ Matrix(field, elements(other))
    assert _ints(product.rows) == int_matmul(p, rows, other)
    assert product == Matrix(field, int_matmul(p, rows, other))
    assert _ints(m.transpose().rows) == [list(col) for col in zip(*rows)]
    # the engine on the matrix's int rows: growth flags, pivots, and the
    # canonical RREF, row / row[pivot] (over GF(p) the pivot entry is 1)
    eng = Echelon(field)
    grew = [eng.insert(row) for row in m._ints[0]]
    assert grew == [int_rref(p, rows[: i + 1])[1] > int_rref(p, rows[:i])[1] for i in range(len(rows))]
    assert (eng.dim, eng.pivots) == (rank_, pivots)
    canonical = [[Fraction(a, row[c]) for a in row] for c, row in sorted(eng.rows.items())]
    assert canonical == ref[:rank_]
    for c, row in eng.rows.items():  # residues with pivot 1, or primitive with a positive pivot
        if p:
            assert row[c] == 1 and all(0 <= a < p for a in row)
        else:
            assert row[c] > 0 and gcd(*row) == 1
    x = Subspace.span(field, ncols, elements(rows))
    assert x.echelon.rows == eng.rows
    assert _ints(x.basis) == ref[:rank_]
    # membership and coordinates: one residual against the RREF basis
    for w in rows + [v]:
        inside = int_rref(p, rows + [w])[1] == rank_
        assert x.contains(elements([w])[0]) == inside
        coords = x.coordinates(elements([w])[0])
        if not inside:
            assert coords is None
            continue
        combined = [sum(c * b[j] for c, b in zip(_vals(coords), ref)) for j in range(ncols)]
        assert all((a - b) % p == 0 if p else a == b for a, b in zip(combined, w))
    # the intersection with the span of other's columns
    ys = [list(col) for col in zip(*other)]
    y = Subspace.span(field, ncols, elements(ys))
    meet = subspace_intersect(x, y)
    rank_y = int_rref(p, ys)[1]
    assert meet.dim == rank_ + rank_y - int_rref(p, rows + ys)[1]
    for b in meet.basis:
        assert int_rref(p, rows + [_vals(b)])[1] == rank_
        assert int_rref(p, ys + [_vals(b)])[1] == rank_y
    assert _ints(meet.basis) == int_rref(p, _ints(meet.basis))[0][: meet.dim]
    if p in (2, 3):
        assert subspace_vector_set(meet) == brute_intersection(p, rows, ys, ncols)


@pytest.mark.parametrize("p", (2, 3, 101, 65521))
def test_residue_kernels_match_the_int_oracle(p):
    field = GF(p)
    # GF(65521) has no element table, so its results take the GFElement path
    assert (field._cache is None) == (p > 1024)
    rng = random.Random(p)
    for _ in range(25):
        nrows, ncols, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 4)
        rows = _random_int_rows(rng, p, nrows, ncols)
        other = _random_int_rows(rng, p, ncols, k)
        v = [rng.randrange(p) for _ in range(ncols)]
        _check_residue_kernels(field, field.scalar, rows, other, v)


@pytest.mark.parametrize("p", (2, 3, 101))
def test_echelon_keeps_canonical_lists_of_its_own_whatever_the_input(p):
    # insert does not rescale a row whose pivot is already 1, yet it must
    # keep a new list: tuple rows, and lists the caller reuses afterwards,
    # leave the same rows, == and hash as a span of fresh lists
    field, rng = GF(p), random.Random(p)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, n)):
            c = rng.randrange(n)
            rows.append((0,) * c + (1,) + tuple(rng.randrange(p) for _ in range(n - c - 1)))
        fed = [list(r) if rng.random() < 0.5 else r for r in rows]
        eng, fresh = Echelon(field), Echelon(field)
        for u, r in zip(fed, rows):
            eng.insert(u)
            fresh.insert(list(r))
        for u in fed:
            if isinstance(u, list):
                u[:] = [0] * n
        assert all(type(row) is list for row in eng.rows.values())
        got = Subspace(eng, n)
        for want in (Subspace(fresh, n), Subspace.span(field, n, [list(r) for r in rows])):
            assert got == want and hash(got) == hash(want) and got.basis == want.basis


def test_echelon_users_match_the_rational_oracle():
    rng = random.Random(5)
    for _ in range(25):
        nrows, ncols, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        rows = _random_int_rows(rng, None, nrows, ncols)
        other = _random_int_rows(rng, None, ncols, k)
        v = [_draw(rng, None) for _ in range(ncols)]
        _check_residue_kernels(QQ, QQ.scalar, rows, other, v)


def _wide(rng):
    """0, or a rational whose numerator and denominator have 1 to 30
    digits each."""
    if rng.random() < 0.2:
        return Fraction(0)
    num = rng.randint(1, 10 ** rng.randint(1, 30)) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, 10 ** rng.randint(1, 30)))


def _dependent(rng, rows):
    """rows plus a combination of two of them, so the rank drops."""
    a, b = rng.sample(rows, 2)
    c = _wide(rng)
    return rows + [[x + c * y for x, y in zip(a, b)]]


def _oracle_spin(seeds, ops):
    """The canonical RREF of the smallest span holding the seeds and
    closed under ops, grown one round of images at a time by the plain
    Fraction oracle."""
    rows, rank_, _ = int_rref(None, seeds)
    basis = rows[:rank_]
    while True:
        grown = basis + [list(int_mat_apply(None, g, b)) for g in ops for b in basis]
        rows, rank_, _ = int_rref(None, grown)
        if rank_ == len(basis):
            return basis
        basis = rows[:rank_]


def _check_q_kernels(rows, other, v):
    """_check_residue_kernels over Q, plus the exact residual of
    Subspace.residual and of Echelon._residual on int rows, and the
    product's kept int form, against the Fraction oracle."""
    _check_residue_kernels(QQ, QQ.scalar, rows, other, v)
    m, o = qm(rows), qm(other)
    ref, rank_, pivots = int_rref(None, rows)
    x = Subspace.span(QQ, len(v), rows)
    for w in rows + [v]:
        residual = [a - sum(w[c] * r[j] for c, r in zip(pivots, ref)) for j, a in enumerate(w)]
        assert list(x.residual(w)) == residual
        (u,), d = qm([w])._ints
        reduced, s = x.echelon._residual(u)
        assert s > 0 and [Fraction(a, d * s) for a in reduced] == residual
        assert x.echelon.reduce(u) == reduced
    (kept, d), (fresh, d_fresh) = (m @ o)._ints, Matrix(QQ, (m @ o).rows)._ints
    assert (list(map(list, kept)), d) == (list(map(list, fresh)), d_fresh)


def test_q_kernels_match_the_fraction_oracle_on_wide_denominators():
    # fraction-free elimination and int products have to give the exact
    # canonical values whatever the size of the numbers
    rng = random.Random(97)
    for _ in range(25):
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        rows = [[_wide(rng) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        if len(rows) >= 2 and rng.random() < 0.5:
            rows = _dependent(rng, rows)
        other = [[_wide(rng) for _ in range(k)] for _ in range(n)]
        _check_q_kernels(rows, other, [_wide(rng) for _ in range(n)])


def test_q_spin_matches_the_fraction_oracle_on_proper_invariant_subspaces():
    # two operators P T P^-1 with T block upper triangular, so that the
    # span of P's first k columns is invariant, and a seed inside it: the
    # spin, on primitive int vectors, is a proper subspace to get right
    rng = random.Random(13)
    proper = 0
    for _ in range(15):
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        p = [[_wide(rng) for _ in range(n)] for _ in range(n)]
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        aug = int_rref(None, [row + e for row, e in zip(p, eye)])[0]
        if [row[:n] for row in aug] != eye:  # P is singular
            continue
        p_inv = [row[n:] for row in aug]
        ops = []
        for _ in range(2):
            t = [[0 if i >= k > j else _wide(rng) for j in range(n)] for i in range(n)]
            ops.append(int_matmul(None, int_matmul(None, p, t), p_inv))
        seeds = [int_mat_apply(None, p, [_wide(rng) for _ in range(k)] + [0] * (n - k))]
        spun = tdpairs.pairs._spin(QQ, n, qm(seeds)._ints[0], [qm(g) for g in ops])
        assert spun.dim <= k
        assert [list(b) for b in spun.basis] == _oracle_spin(seeds, ops)
        proper += spun.dim < n
    assert proper >= 10


def test_q_kernels_match_the_fraction_oracle_on_the_hilbert_matrix():
    # coefficient growth: the n = 10 Hilbert matrix has full rank and a
    # determinant near 1e-53, and one more row, a combination of two,
    # drops the rank of the stacked rows to 10 and leaves a kernel line
    rng = random.Random(10)
    hilbert = [[Fraction(1, i + j + 1) for j in range(10)] for i in range(10)]
    v = [_wide(rng) for _ in range(10)]
    _check_q_kernels(hilbert, hilbert, v)
    stacked = _dependent(rng, hilbert)
    assert int_rref(None, stacked)[1] == 10
    _check_q_kernels(stacked, hilbert, v)
    columns = [list(col) for col in zip(*stacked)]
    (line,) = kernel(qm(columns)).basis
    assert int_mat_apply(None, columns, line) == (0,) * 10
    _check_q_kernels(columns, stacked, v + [_wide(rng)])
    # the spin of e_0 under H is all of Q^10
    spun = tdpairs.pairs._spin(QQ, 10, [[1] + [0] * 9], [qm(hilbert)])
    assert [list(b) for b in spun.basis] == _oracle_spin([[1] + [0] * 9], [hilbert])


@pytest.mark.parametrize("p", (2, 101, 65521, None))
def test_subspace_residual_matches_the_oracle(p):
    # Subspace.residual is the one way out of the engine's exact
    # residual: field elements, over Q with 1- to 30-digit entries
    field = GF(p) if p else QQ
    rng = random.Random(p or 30)
    for _ in range(25):
        n = rng.randint(1, 6)
        if p:
            rows = _random_int_rows(rng, p, rng.randint(1, 5), n)
            extra = [rng.randrange(p) for _ in range(n)]
        else:
            rows = [[_wide(rng) for _ in range(n)] for _ in range(rng.randint(1, 5))]
            rows = _dependent(rng, rows) if len(rows) >= 2 and rng.random() < 0.5 else rows
            extra = [_wide(rng) for _ in range(n)]
        ref, _, pivots = int_rref(p, rows)
        x = Subspace.span(field, n, [[field.scalar(a) for a in row] for row in rows])
        for w in rows + [extra]:
            want = [a - sum(w[c] * r[j] for c, r in zip(pivots, ref)) for j, a in enumerate(w)]
            want = [a % p for a in want] if p else want
            got = x.residual([field.scalar(a) for a in w])
            assert all(type(e) is type(field.zero) for e in got)
            assert _vals(got) == want
            assert x.contains(w) == (not any(want))


# ---- the eigen steps on int rows: shift, kernel and inverse ---------------------


def _oracle_kernel(p, rows):
    """The canonical RREF basis of {x : rows x = 0} by int_rref alone: the
    back-substitution basis of the rows' RREF, reduced once more."""
    ref, rank_, pivots = int_rref(p, rows)
    n = len(rows[0])
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        u = [0] * n
        u[free] = 1
        for i, c in enumerate(pivots):
            u[c] = -ref[i][free] if p is None else -ref[i][free] % p
        basis.append(u)
    return int_rref(p, basis)[0][: len(basis)] if basis else []


def _kept_form(m):
    """A matrix's kept int form and that of a fresh construction of it."""
    kept, d = m._ints
    fresh, d_fresh = Matrix(m.field, m.rows)._ints
    return (list(map(list, kept)), d), (list(map(list, fresh)), d_fresh)


def _check_int_eigen_steps(field, a, theta):
    """M = A + theta I for an n x n oracle matrix A: M.shift(theta) against
    M - theta I, its kernel and M's inverse against int_rref."""
    p = getattr(field, "p", None)
    n = len(a)
    m_rows = [[x + theta * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
    if p is not None:
        m_rows = [[x % p for x in row] for row in m_rows]
    m = Matrix(field, m_rows)
    shifted = m.shift(field.scalar(theta))
    assert shifted.rows == (m - Matrix.identity(field, n).scale(theta)).rows
    assert _ints(shifted.rows) == [[x if p is None else x % p for x in row] for row in a]
    kept, fresh = _kept_form(shifted)
    assert kept == fresh
    assert _ints(kernel(shifted).basis) == _oracle_kernel(p, a)
    ref, rank_, _ = int_rref(p, [row + [int(i == j) for j in range(n)] for i, row in enumerate(m_rows)])
    if int_rref(p, m_rows)[1] < n:
        with pytest.raises(HypothesisNotMet, match="singular"):
            invert(m)
        return
    inverse = invert(m)
    assert _ints(inverse.rows) == [row[n:] for row in ref]
    kept, fresh = _kept_form(inverse)
    assert kept == fresh


@pytest.mark.parametrize("p", (2, 3, 101, 65521))
def test_int_eigen_steps_match_the_int_oracle_over_gf(p):
    field = GF(p)
    rng = random.Random(p + 1)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = _random_int_rows(rng, p, n, n)
        _check_int_eigen_steps(field, a, rng.randrange(p))


def test_int_eigen_steps_match_the_fraction_oracle_on_wide_denominators():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 6)
        a = [[_wide(rng) for _ in range(n)] for _ in range(n - 1 if n > 2 else n)]
        if len(a) < n:  # a singular A: a combination of two rows
            a = _dependent(rng, a)
        _check_int_eigen_steps(QQ, a, _wide(rng))


def test_residue_kernels_take_entries_of_an_equal_field_instance():
    f1, f2 = GF(7), GF(7)
    assert f1 is not f2 and f1 == f2
    rng = random.Random(71)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = _random_int_rows(rng, 7, n, n)
        other = _random_int_rows(rng, 7, n, n)
        v = [rng.randrange(7) for _ in range(n)]
        _check_residue_kernels(f1, f2.scalar, rows, other, v)
    m1 = Matrix(f1, [[1, 2], [3, 4]])
    m2 = Matrix(f2, [[0, 1], [1, 0]])
    assert _ints((m1 @ m2).rows) == [[2, 1], [4, 3]]
    assert _ints((m1 + m2 - m1.scale(3)).rows) == [[5, 4], [2, 6]]


def test_residue_kernels_still_reject_another_prime():
    f, g = GF(7), GF(5)
    m = Matrix(f, [[1, 2], [3, 4]])
    foreign = [g.scalar(1), g.scalar(2)]
    with pytest.raises(FieldMismatch):
        m.apply(foreign)
    with pytest.raises(FieldMismatch):
        m @ Matrix(g, [[1, 0], [0, 1]])
    with pytest.raises(FieldMismatch):
        rref_rows(f, [foreign])
    with pytest.raises(FieldMismatch):
        Subspace.span(f, 2, [foreign])
    with pytest.raises(FieldMismatch):
        Subspace.full(f, 2).residual(foreign)
    with pytest.raises(FieldMismatch):
        Subspace.full(f, 2).contains(foreign)
    with pytest.raises(FieldMismatch):
        Subspace.full(f, 2).coordinates(foreign)
    with pytest.raises(FieldMismatch):
        Matrix(f, [foreign])


def test_outside_construction_still_coerces_every_entry():
    f = GF(7)
    m = Matrix(f, [[8, "3"], [f.scalar(2), -1]])
    assert all(type(x) is GFElement for row in m.rows for x in row)
    assert _ints(m.rows) == [[1, 3], [2, 6]]
    with pytest.raises(TypeError):
        Matrix(f, [[Fraction(1, 2)]])
    with pytest.raises(TypeError):
        m.apply([Fraction(1, 2), 0])
    # arithmetic results hold the same scalars a coercing construction gives
    for result in (m + m, m - m.transpose(), -m, m.scale(3), m @ m, m.transpose()):
        assert result == Matrix(f, result.rows)
        assert all(type(x) is GFElement for row in result.rows for x in row)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101), GF(65521)], ids=["Q", "GF2", "GF101", "GF65521"])
def test_int_form_arithmetic_matches_the_entrywise_oracle(field):
    # +, -, unary -, scale and transpose run on the int form, and == and
    # hash compare it: each result must hold the entries the field's own
    # element arithmetic gives, and equal and hash as Matrix(field, rows)
    # of them, which only holds while every route keeps the form canonical
    rng = random.Random(16)
    p = getattr(field, "p", None)

    def entry():
        return _wide(rng) if p is None else field.scalar(rng.randint(-(10**9), 10**9))

    for _ in range(20):
        nrows, ncols = rng.sample(range(1, 6), 2)
        x, y = ([[entry() for _ in range(ncols)] for _ in range(nrows)] for _ in range(2))
        a, b = Matrix(field, x), Matrix(field, y)
        scalars = [0, -1, entry()]
        scalars += [Fraction(0), Fraction(-3, 7), -abs(_wide(rng))] if p is None else [-rng.randrange(1, p + 1)]
        cases = [
            (a + b, [[u + v for u, v in zip(r, s)] for r, s in zip(x, y)]),
            (a - b, [[u - v for u, v in zip(r, s)] for r, s in zip(x, y)]),
            (-a, [[-u for u in r] for r in x]),
            (a.transpose(), [list(col) for col in zip(*x)]),
            (a - a, [[field.zero] * ncols for _ in range(nrows)]),
        ]
        cases += [(a.scale(c), [[field.scalar(c) * u for u in r] for r in x]) for c in scalars]
        for got, want in cases:
            fresh = Matrix(field, want)
            assert got.rows == tuple(map(tuple, want))
            assert got == fresh and hash(got) == hash(fresh)
        assert (a - a).is_zero() and a - a == Matrix.zeros(field, nrows, ncols)
        assert a + b - b == a and hash(a + b - b) == hash(a)
        assert (a == b) == (x == y) and a.transpose() != a
    assert Matrix.identity(field, 2) != Matrix.identity(GF(3), 2)
