"""Eigendecomposition, idempotents, and eigencoordinates."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest

from tdpairs import (
    GF,
    QQ,
    DimensionMismatch,
    HypothesisNotMet,
    InvariantViolation,
    Matrix,
    NotDiagonalizableOverField,
    Polynomial,
    TdpError,
    eigen_decompose,
    min_poly,
    primitive_idempotents,
    random_leonard,
)
import tdpairs.eigen
import tdpairs.search
from tdpairs.eigen import (
    EigenDecomposition,
    _rational_roots,
    eigencoordinate_change,
    eigenspaces,
    field_roots,
    invert,
    residue_roots,
    row_lanes,
    split_lanes,
    splits_mod_p,
)
from tdpairs.pairs import validate_pair
from tdpairs.subspaces import Subspace, kernel
from tdpairs.linalg import char_poly, residue_product

from oracles import (
    char_poly_by_interpolation,
    int_rref,
    kron_sum_fixture,
    rational_roots_by_divisors,
    ref_rank_q,
    scalar_restriction_fixture,
)


def qm(rows):
    return Matrix(QQ, [[QQ.scalar(x) for x in r] for r in rows])


def gm(p, rows):
    f = GF(p)
    return Matrix(f, [[f.scalar(x) for x in r] for r in rows])


def test_diagonal_matrix_decomposes_with_multiplicities():
    m = qm([[2, 0, 0], [0, 2, 0], [0, 0, 5]])
    eig = eigen_decompose(m)
    assert sorted((ev, sp.dim) for ev, sp in zip(eig.eigenvalues, eig.eigenspaces)) == [
        (QQ.scalar(2), 2),
        (QQ.scalar(5), 1),
    ]
    assert eig.diameter == 1
    for ev, sp in zip(eig.eigenvalues, eig.eigenspaces):
        for b in sp.basis:
            assert m.apply(b) == tuple(ev * x for x in b)


def test_nontrivial_rational_eigenvectors():
    m = qm([[0, 1], [1, 0]])
    eig = eigen_decompose(m)
    assert sorted(eig.eigenvalues) == [QQ.scalar(-1), QQ.scalar(1)]


def test_jordan_block_rejected():
    with pytest.raises(NotDiagonalizableOverField):
        eigen_decompose(qm([[5, 1], [0, 5]]))


def test_irrational_spectrum_rejected_over_q():
    # x^2 - 2: eigenvalues are not rational
    with pytest.raises(NotDiagonalizableOverField):
        eigen_decompose(qm([[0, 2], [1, 0]]))


_REPEATED = "minimal polynomial has a repeated root"


def _unsplit(found, n):
    return (
        "minimal polynomial has an irreducible factor of degree > 1 "
        f"(found {found} of {n} roots of the characteristic polynomial)"
    )


@pytest.mark.parametrize(
    "field, rows, message",
    [
        # p <= n, not triangular: the scan over GF(p) finds too little
        (GF(2), [[0, 1, 0], [1, 0, 0], [0, 0, 1]], _REPEATED),
        (GF(3), [[0, 0, 1], [1, 0, 1], [0, 1, 0]], _unsplit(0, 3)),
        (GF(2), [[0, 1, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0]], _unsplit(2, 4)),
        (GF(2), [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1]], _REPEATED),
        (GF(3), [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [1, 0, 0, 0]], _REPEATED),
        # p > n and Q: one kernel per root
        (GF(101), [[1, 1, 0], [0, 1, 0], [1, 0, 2]], _REPEATED),
        (QQ, [[0, 2], [1, 0]], _unsplit(0, 2)),
        (QQ, [[Fraction(-2, 3), 1, 0], [-1, Fraction(4, 3), 0], [0, 1, Fraction(1, 3)]], _REPEATED),
        # triangular with a repeated diagonal entry
        (GF(2), [[1, 1, 0], [0, 1, 1], [0, 0, 0]], _REPEATED),
        (QQ, [[Fraction(1, 2), 1], [0, Fraction(1, 2)]], _REPEATED),
    ],
)
def test_rejection_messages_are_pinned(field, rows, message):
    # the eigenspaces come from kernels of the int rows with theta
    # subtracted as they are fed in; the verdict and its message are the
    # ones the shifted matrices gave
    with pytest.raises(NotDiagonalizableOverField) as caught:
        eigen_decompose(Matrix(field, rows))
    assert str(caught.value) == message


def test_gf_spectrum_must_split():
    # x^2 + 1 has no roots mod 3, two roots mod 5
    m3 = gm(3, [[0, -1], [1, 0]])
    with pytest.raises(NotDiagonalizableOverField):
        eigen_decompose(m3)
    m5 = gm(5, [[0, -1], [1, 0]])
    eig = eigen_decompose(m5)
    f = GF(5)
    assert sorted(e.v for e in eig.eigenvalues) == [2, 3]
    for ev, sp in zip(eig.eigenvalues, eig.eigenspaces):
        for b in sp.basis:
            assert m5.apply(b) == tuple(ev * x for x in b)
    assert f.scalar(2) * f.scalar(3) == f.one  # determinant check: product of eigenvalues


def test_repeated_root_with_full_eigenspace_is_accepted():
    m = gm(7, [[3, 0, 0], [0, 3, 0], [0, 0, 1]])
    eig = eigen_decompose(m)
    assert eig.dims() in ((2, 1), (1, 2))


def test_reordered_and_reversed():
    m = qm([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    eig = eigen_decompose(m)
    perm = (2, 0, 1)
    re = eig.reordered(perm)
    assert tuple(re.eigenvalues) == tuple(eig.eigenvalues[i] for i in perm)
    assert tuple(re.eigenspaces) == tuple(eig.eigenspaces[i] for i in perm)
    rev = eig.reversed()
    assert tuple(rev.eigenvalues) == tuple(reversed(eig.eigenvalues))


def test_the_identity_reorder_is_the_decomposition_itself():
    # a decomposition is immutable, so the identity order gives it back,
    # with the eigenbasis change it carries, computed or not
    eig = eigen_decompose(qm([[1, 0, 0], [1, 2, 0], [0, 1, 3]]))
    assert eig.reordered((0, 1, 2)) is eig and eig.reordered(range(3)) is eig
    change = eigencoordinate_change(eig)
    assert eig.reordered([0, 1, 2]) is eig and eigencoordinate_change(eig) is change
    assert eig.reordered((1, 0, 2)) is not eig
    line = eigen_decompose(gm(5, [[2, 0], [0, 2]]))
    assert line.diameter == 0 and line.reversed() is line


def test_reordered_copies_skip_the_eigenvector_check(monkeypatch):
    # reordering cannot break an eigenpair, so a copy checks no vector;
    # a fresh construction checks A u = theta u for every engine row u
    eig = eigen_decompose(qm([[1, 0, 0], [1, 2, 0], [0, 1, 3]]))
    calls = []
    real_check = tdpairs.eigen._are_eigenvectors

    def check(rows, p, a, b, vectors):
        calls.append((rows, p, a, b, [list(u) for u in vectors]))
        return real_check(rows, p, a, b, vectors)

    monkeypatch.setattr(tdpairs.eigen, "_are_eigenvectors", check)
    eig.reordered((2, 0, 1))
    eig.reversed()
    assert calls == []
    EigenDecomposition(eig.operator, eig.eigenvalues, eig.eigenspaces)
    m = eig.operator
    assert calls == [  # one call per eigenspace, with every engine row
        (m._ints[0], None, *m._shift_ints(theta), [list(u) for u in space.echelon.rows.values()])
        for theta, space in zip(eig.eigenvalues, eig.eigenspaces)
    ]
    assert sum(len(c[-1]) for c in calls) == 3
    for bad in ((0, 1), (0, 0, 1), (0, 1, 3)):
        with pytest.raises(DimensionMismatch):
            eig.reordered(bad)
    with pytest.raises(InvariantViolation, match="not one"):
        EigenDecomposition(eig.operator, eig.eigenvalues[::-1], eig.eigenspaces)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(65521)], ids=["Q", "GF7", "GF65521"])
def test_eigenvector_check_rejects_a_wrong_eigenvalue_or_a_moved_vector(field):
    # A = P diag(1, 1, 2, 3) P^-1: the check must catch one wrong
    # eigenvalue and one basis vector moved off its eigenspace, so that it
    # can never pass vacuously
    lower = Matrix(field, [[1, 0, 0, 0], [2, 1, 0, 0], [0, 3, 1, 0], [1, 0, 2, 1]])
    p = lower @ lower.transpose()  # determinant 1 in every field
    a = p @ Matrix.diagonal(field, [1, 1, 2, 3]) @ invert(p)
    eig = eigen_decompose(a)
    assert eig.dims() == (2, 1, 1)
    EigenDecomposition(a, eig.eigenvalues, eig.eigenspaces)
    for i in range(3):
        wrong = list(eig.eigenvalues)
        wrong[i] = field.scalar(5)
        with pytest.raises(InvariantViolation, match="claimed eigenvector is not one"):
            EigenDecomposition(a, tuple(wrong), eig.eigenspaces)
        space = eig.eigenspaces[i]
        for j, k in itertools.product(range(3), range(space.dim)):
            if j == i:
                continue
            moved = list(space.basis)  # vector k of space i plus one of space j
            moved[k] = tuple(x + y for x, y in zip(moved[k], eig.eigenspaces[j].basis[0]))
            spaces = list(eig.eigenspaces)
            spaces[i] = Subspace.span(field, 4, moved)
            assert spaces[i].dim == space.dim and spaces[i] != space
            with pytest.raises(InvariantViolation, match="claimed eigenvector is not one"):
                EigenDecomposition(a, eig.eigenvalues, tuple(spaces))
    # the int check reads the spaces in the operator's field and dimension
    for foreign in (Subspace.full(GF(3), 1), Subspace.full(field, 5)):
        with pytest.raises(InvariantViolation, match="outside the operator's space"):
            EigenDecomposition(a, eig.eigenvalues[:1], (foreign,))


def test_primitive_idempotents_resolve_identity():
    m = qm([[0, 0, 0], [1, 1, 0], [0, 1, 2]])
    eig = eigen_decompose(m)
    es = primitive_idempotents(eig)
    n = m.nrows
    eye = Matrix.identity(QQ, n)
    total = Matrix.zeros(QQ, n, n)
    recon = Matrix.zeros(QQ, n, n)
    for i, e in enumerate(es):
        total = total + e
        recon = recon + e.scale(eig.eigenvalues[i])
        assert e @ e == e
        for j, other in enumerate(es):
            if j != i:
                assert (e @ other).is_zero()
    assert total == eye
    assert recon == m


def test_eigencoordinate_change_block_diagonalizes():
    m = qm([[0, 0, 0], [1, 1, 0], [0, 1, 2]])
    eig = eigen_decompose(m)
    c, c_inv, ranges = eigencoordinate_change(eig)
    assert c @ c_inv == Matrix.identity(QQ, 3)
    d = c_inv @ m @ c
    for (start, stop), ev in zip(ranges, eig.eigenvalues):
        for i in range(start, stop):
            for j in range(3):
                expected = ev if i == j else QQ.zero
                assert d[i, j] == expected


def test_invert_round_trip():
    m = qm([[1, 2], [3, 5]])
    assert invert(m) @ m == Matrix.identity(QQ, 2)
    g = gm(7, [[2, 1], [1, 1]])
    assert g @ invert(g) == Matrix.identity(GF(7), 2)


@pytest.mark.parametrize(
    "m",
    [
        # [M | I] has rank 4 although M has rank 2
        gm(2, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0]]),
        qm([[1, 2, 3], [0, 1, 1], [1, 3, 4]]),
        qm([[0, 0], [0, 0]]),
    ],
)
def test_invert_rejects_singular_matrices(m):
    with pytest.raises(HypothesisNotMet, match="singular"):
        invert(m)


def test_a_library_caller_catches_a_singular_inverse_as_tdp_error():
    try:
        invert(qm([[1, 2], [2, 4]]))
    except TdpError as e:
        assert not isinstance(e, InvariantViolation)
    else:
        raise AssertionError("a singular matrix was inverted")


def test_a_singular_eigenbasis_is_a_bug():
    # a decomposition built without its checks, whose two "eigenlines"
    # coincide, has a singular eigenbasis: that can only be a bug
    line = Subspace.span(QQ, 2, [(1, 1)])
    eig = EigenDecomposition(qm([[1, 0], [0, 2]]), (1, 2), (line, line), False)
    with pytest.raises(InvariantViolation, match="singular"):
        eigencoordinate_change(eig)


@pytest.mark.parametrize("p", [None, 7, 101])
def test_a_reordered_decomposition_carries_the_fresh_eigenbasis_change(p, monkeypatch):
    # the copy's C and C^-1 are the parent's with blocks permuted, equal
    # to what a fresh decomposition in the copy's order computes
    rng = random.Random(p or 5)
    half, third = (Fraction(1, 2), Fraction(-4, 3)) if p is None else (1, 4)
    block = _block_diagonal([[[t]] for t in (0, 0, half, 3, 3, 3, third, 6)])
    m = _conjugate_q(block, rng) if p is None else gm(p, _conjugate(p, block, rng))
    eig = eigen_decompose(m)
    assert sorted(eig.dims()) == [1, 1, 1, 2, 3]
    calls = []
    monkeypatch.setattr(tdpairs.eigen, "invert", lambda c: calls.append(c) or invert(c))
    change = eigencoordinate_change(eig)
    assert eigencoordinate_change(eig) is change and len(calls) == 1
    copies = [eig.reordered(rng.sample(range(5), 5)) for _ in range(4)]
    copies.append(copies[-1].reversed())
    carried = [eigencoordinate_change(copy) for copy in copies]
    assert len(calls) == 1
    for copy, kept in zip(copies, carried):
        assert kept == eigencoordinate_change(EigenDecomposition(m, copy.eigenvalues, copy.eigenspaces))
    assert len(calls) == 1 + len(copies)
    # a copy taken before its parent's change is computed computes its own
    fresh = eigencoordinate_change(eigen_decompose(m).reversed())
    assert len(calls) == 2 + len(copies)
    assert fresh == eigencoordinate_change(eig.reversed())


@pytest.mark.parametrize(
    "pair",
    [
        lambda: random_leonard(GF(13), 5, seed=1)[1],
        # no eigenline on either side: irreducible decides on A's eigenbasis
        lambda: validate_pair(*scalar_restriction_fixture(QQ, (-2, 0, 0, 1), 2)),
    ],
    ids=["leonard", "no_eigenline"],
)
def test_validation_inverts_each_eigenbasis_once(pair, monkeypatch):
    source = pair()
    a, astar = source.a, source.astar
    calls = []
    monkeypatch.setattr(tdpairs.eigen, "invert", lambda c: calls.append(c) or invert(c))
    validated = validate_pair(a, astar)
    assert len(calls) == 2
    es = primitive_idempotents(validated.eig_a)
    assert len(calls) == 2
    assert sum(es[1:], es[0]) == Matrix.identity(a.field, a.nrows)


# ---- the M^p == M search prefilter against eigen_decompose ------------------


def _agree_with_eigen_decompose(rows, p):
    """splits_mod_p's verdict, checked against eigen_decompose."""
    try:
        eigen_decompose(gm(p, rows))
        reference = True
    except NotDiagonalizableOverField:
        reference = False
    verdict = splits_mod_p(rows, p)
    assert verdict == reference, (p, rows)
    return verdict


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 2), (2, 3)])
def test_splits_mod_p_matches_eigen_decompose_on_every_small_matrix(p, n):
    verdicts = set()
    for entries in itertools.product(range(p), repeat=n * n):
        rows = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
        verdicts.add(_agree_with_eigen_decompose(rows, p))
    assert verdicts == {True, False}


def _conjugate(p, block, rng):
    """P block P^-1 as int rows mod p, for a random invertible P."""
    n = len(block)
    while True:
        c = gm(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        try:
            c_inv = invert(c)
        except HypothesisNotMet:
            continue
        return [[x.v for x in row] for row in (c @ gm(p, block) @ c_inv).rows]


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(b)] = row
        at += len(b)
    return rows


def _irreducible_quadratic_companion(p, rng):
    """Companion matrix of a random x^2 + b x + c with no root mod p."""
    while True:
        b, c = rng.randrange(p), rng.randrange(p)
        if all((x * x + b * x + c) % p for x in range(p)):
            return [[0, (-c) % p], [1, (-b) % p]]


@pytest.mark.parametrize("p", [7, 13, 101])
def test_splits_mod_p_matches_eigen_decompose_on_random_matrices(p):
    # diagonalizable with eigenvalues drawn from {0, 1, 2}, so repeated; a
    # Jordan block; a companion matrix of an irreducible quadratic; and
    # unstructured matrices; each hidden by a random change of basis
    rng = random.Random(p)
    for n in (4, 5, 6):
        for _ in range(8):
            diag = [rng.randrange(3) for _ in range(n)]
            split = _block_diagonal([[[t]] for t in diag])
            jordan = _block_diagonal([[[diag[0], 1], [0, diag[0]]]] + [[[t]] for t in diag[2:]])
            quadratic = _block_diagonal(
                [_irreducible_quadratic_companion(p, rng)] + [[[t]] for t in diag[2:]]
            )
            assert _agree_with_eigen_decompose(_conjugate(p, split, rng), p)
            assert not _agree_with_eigen_decompose(_conjugate(p, jordan, rng), p)
            assert not _agree_with_eigen_decompose(_conjugate(p, quadratic, rng), p)
            plain = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            _agree_with_eigen_decompose(plain, p)


def _splits_by_full_power(rows, p):
    """M^p == M with M^p built as p - 1 repeated products, independent of
    both branches of splits_mod_p."""
    power = rows
    for _ in range(p - 1):
        power = residue_product(power, rows, p)
    return power == rows


# the sizes n > 2 tried at each p, all in the row test, and its lane width
# in bytes where it is pinned: n (p - 1)^2 is 240 at GF(5), n = 15 and 256 at
# n = 16, 252 at GF(7), n = 7 and 288 at n = 8, and 174,636 at GF(127),
# n = 11.  The 2 x 2 cases square and multiply at GF(13) and GF(127).
FULL_POWER_SIZES = {2: range(3, 7), 3: range(3, 7), 5: [*range(3, 7), 15, 16],
                    7: range(3, 9), 13: range(3, 7), 127: [11]}
LANE_BYTES = {(5, 15): 1, (5, 16): 2, (7, 7): 1, (7, 8): 2, (13, 6): 2, (127, 11): 4}


def _packed_by_units(row, p):
    """row packed as the sum of entry c times 1 in lane c, with the lane
    width pinned in LANE_BYTES, independent of row_lanes's Struct."""
    return sum(x << 8 * LANE_BYTES[p, len(row)] * c for c, x in enumerate(row))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 127])
def test_splits_mod_p_matches_the_full_power(p):
    rng = random.Random(p)
    if p <= 13:
        cases = [
            [list(entries[:2]), list(entries[2:])]
            for entries in itertools.product(range(p), repeat=4)
            if p <= 5 or rng.random() < 0.1
        ]
    else:  # too many to enumerate
        cases = [[[rng.randrange(p) for _ in range(2)] for _ in range(2)] for _ in range(200)]
    for n in FULL_POWER_SIZES[p]:
        pack, _ = row_lanes(n, p)
        row = [rng.randrange(p) for _ in range(n)]
        if (p, n) in LANE_BYTES:
            assert pack(row) == _packed_by_units(row, p)
        # a dense split block, then a trailing [[t, 1], [0, u]]: u = t + 1
        # splits, u = t is a Jordan block.  The two differ only in their last
        # entry; the row test passes every row above the block and finds the
        # Jordan block in row n - 2, or, transposed, in the last row
        lead = _conjugate(p, _block_diagonal([[[rng.randrange(p)]] for _ in range(n - 2)]), rng)
        t = rng.randrange(p)
        for u, splits in (((t + 1) % p, True), (t, False)):
            m = _block_diagonal([lead, [[t, 1], [0, u]]])
            for rows in (m, [list(col) for col in zip(*m)]):
                assert _splits_by_full_power(rows, p) == splits
                cases.append(rows)
        cases.append(_conjugate(p, m, rng))
        # all entries p - 1: a push of a row fills every lane to n (p - 1)^2,
        # and the matrix splits iff p does not divide n
        full = [[p - 1] * n for _ in range(n)]
        assert _splits_by_full_power(full, p) == (n % p != 0)
        cases.append(full)
        cases.extend([[rng.randrange(p) for _ in range(n)] for _ in range(n)] for _ in range(20))
    verdicts = set()
    for rows in cases:
        verdict = splits_mod_p(rows, p)
        assert verdict == _splits_by_full_power(rows, p), (p, rows)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p, n", sorted(LANE_BYTES))
def test_split_lanes_matches_the_full_power_on_full_blocks(p, n):
    # every lane of a block against its own candidate.  The all-(p - 1)
    # matrix is the last lane of the first block, where a push fills every
    # lane to n (p - 1)^2; in the second, the last two entries of a split
    # matrix ending in [[t, 1], [0, t]] vary, so the lanes with u = t and a
    # nonzero 1 hold a Jordan block.  GF(127) runs the first block only, at
    # 127 lanes, as its full power costs 126 products a lane
    rng = random.Random(p * n)
    t = rng.randrange(p)
    lead = _conjugate(p, _block_diagonal([[[rng.randrange(p)]] for _ in range(n - 2)]), rng)
    blocks = [([[p - 1] * n for _ in range(n)], [(0, 0), (n - 1, 2)])]
    blocks.append((_block_diagonal([lead, [[t, 1], [0, t]]]), [(n - 1, n - 1), (n - 2, n - 1)]))
    verdicts = set()
    for rows, varying in blocks[:1] if p == 127 else blocks:
        varying = varying[: 1 if p == 127 else 2]
        lanes = split_lanes(rows, varying, p)
        for j in range(p ** len(varying)):
            candidate = [row[:] for row in rows]
            for i, (r, c) in enumerate(varying):
                candidate[r][c] = j // p**i % p
            verdict = _splits_by_full_power(candidate, p)
            assert (j in lanes) == verdict, (p, n, j)
            verdicts.add(verdict)
        assert lanes == sorted(lanes)
    assert verdicts == {True, False}


def test_the_row_test_packs_no_lane_wider_than_8_bytes():
    # GF(2^31 - 1) at n = 35,791,395 is within the row test's cost model,
    # but n (p - 1)^2 needs 11 bytes a lane, so it squares and multiplies
    p, n = 2**31 - 1, 35_791_395
    assert p - 1 <= n * (p.bit_length() + p.bit_count() - 2)
    assert 1 << 80 <= n * (p - 1) ** 2 < 1 << 88
    assert row_lanes(n, p) is None


# ---- characteristic polynomial, p-adic roots and the diagonalizability rule ---


def _small_rational(rng):
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 1, 2, 3, 7]))


def _oracle_rows(rng, n, entry):
    """An n x n matrix of entry() draws: dense, or sparse (zero leading
    minors, which the recurrence passes through with no pivot),
    triangular, zero or scalar."""
    kind = rng.choice(["dense", "sparse", "upper", "lower", "zero", "scalar"])
    keep = {
        "dense": lambda i, j: True,
        "sparse": lambda i, j: rng.random() < 0.35,
        "upper": lambda i, j: i <= j,
        "lower": lambda i, j: i >= j,
        "zero": lambda i, j: False,
        "scalar": lambda i, j: i == j,
    }[kind]
    c = entry()
    return [[(c if kind == "scalar" else entry()) if keep(i, j) else 0 for j in range(n)] for i in range(n)]


def _wide_rational(rng):
    """About 20-digit numerators over denominators up to 10^4, or a small one."""
    if rng.random() < 0.5:
        return _small_rational(rng)
    return Fraction(rng.randrange(-(10**20), 10**20), rng.randint(1, 10**4))


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7, 11, 13, 65521])
def test_char_poly_matches_interpolation_oracle(p):
    rng = random.Random(p or 0)
    for _ in range(40):
        n = rng.randint(1, 9)
        if p is None:
            rows = _oracle_rows(rng, n, lambda: _wide_rational(rng))
            got = list(char_poly(qm(rows)).coeffs)
            want = char_poly_by_interpolation(rows)
        else:
            rows = _oracle_rows(rng, n, lambda: rng.randrange(p))
            got = [c.v for c in char_poly(gm(p, rows)).coeffs]
            # det(xI - M) has integer coefficients in the entries, so it
            # commutes with reduction mod p
            want = [int(c) % p for c in char_poly_by_interpolation(rows)]
        assert got == want, (p, rows)


def _mod(x, p):
    return x.numerator * pow(x.denominator, -1, p) % p


def test_dense_wide_q_rejection_is_fast_and_char_poly_reduces_mod_p():
    """A dense 24 x 24 Q matrix with 30-digit entries is rejected within
    a generous 10 s, and its characteristic polynomial, also over a
    denominator d, reduces mod primes not dividing d to that of the
    matrix reduced mod them."""
    rng = random.Random(30)
    m = qm([[rng.randrange(-(10**30), 10**30) for _ in range(24)] for _ in range(24)])
    start = time.perf_counter()
    with pytest.raises(NotDiagonalizableOverField):
        eigen_decompose(m)
    assert time.perf_counter() - start < 10
    d = 2**5 * 3 * 10007
    for q in (m, m.scale(Fraction(1, d))):
        for p in (32749, 65521):
            got = [_mod(c, p) for c in char_poly(q).coeffs]
            want = [c.v for c in char_poly(gm(p, [[_mod(x, p) for x in row] for row in q.rows])).coeffs]
            assert got == want, p


def _poly_product(factors):
    """Coefficient list (lowest degree first) of a product of coefficient lists."""
    out = [Fraction(1)]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def test_rational_roots_match_divisor_oracle():
    # repeated linear factors b x - a, zero roots, irreducible quadratics
    # (x^2 + c, x^2 - k with k not a square, x^2 + x + 1) and non-unit content
    rng = random.Random(5)
    quadratics = [[1, 0, 1], [3, 0, 1], [-2, 0, 1], [-6, 0, 5], [1, 1, 1]]
    for _ in range(150):
        factors = []
        for _ in range(rng.randint(0, 5)):
            lin = [Fraction(-rng.randint(-9, 9)), Fraction(rng.randint(1, 5))]
            factors += [lin] * rng.choice([1, 1, 2, 3])
        factors += [[0, 1]] * rng.choice([0, 0, 1, 2])
        factors += [[Fraction(c) for c in rng.choice(quadratics)] for _ in range(rng.randint(0, 2))]
        factors.append([Fraction(rng.choice([1, -1, 4, 6, -15]), rng.choice([1, 3, 14]))])
        coeffs = _poly_product(factors)
        assert sorted(_rational_roots(Polynomial(QQ, coeffs))) == rational_roots_by_divisors(
            coeffs
        ), factors


def test_rational_roots_of_semiprime_coefficients_need_no_factoring():
    # divisor enumeration factors both coefficients; p-adic lifting does not
    n, m = 2**61 - 1, 2**89 - 1
    poly = Polynomial(QQ, [-n * m, 1])
    assert _rational_roots(poly) == [Fraction(n * m)]
    poly = Polynomial(QQ, _poly_product([[-n, m], [-n, m], [m, n], [2, 0, 1]]))
    assert sorted(_rational_roots(poly)) == [Fraction(-m, n), Fraction(n, m), Fraction(n, m)]


def test_rational_roots_match_divisor_oracle_under_wide_denominators():
    # the root finder clears denominators once and works on primitive int
    # coefficients, so a common factor with 1- to 30-digit numerator and
    # denominator changes nothing it finds; the divisor oracle, which
    # would factor that factor, gets the polynomial without it
    rng = random.Random(30)
    quadratics = [[1, 0, 1], [-2, 0, 1], [1, 1, 1]]
    for _ in range(60):
        factors = []
        for _ in range(rng.randint(1, 5)):
            lin = [Fraction(-rng.randint(-9, 9)), Fraction(rng.randint(1, 7))]
            factors += [lin] * rng.choice([1, 1, 2])
        factors += [[0, 1]] * rng.choice([0, 1])
        factors += [[Fraction(c) for c in rng.choice(quadratics)] for _ in range(rng.randint(0, 1))]
        digits = rng.randint(1, 30)
        num = rng.randint(10 ** (digits - 1), 10**digits) * rng.choice((-1, 1))
        wide = Fraction(num, rng.randint(10 ** (digits - 1), 10**digits))
        coeffs = _poly_product(factors)
        got = _rational_roots(Polynomial(QQ, [wide * c for c in coeffs]))
        assert sorted(got) == rational_roots_by_divisors(coeffs), (factors, wide)


def _brute_residue_roots(ints, p):
    """Every t in [0, p) with its multiplicity: how often x - t divides."""
    roots = []
    for t in range(p):
        f = [c % p for c in ints]
        while len(f) > 1 and sum(c * pow(t, i, p) for i, c in enumerate(f)) % p == 0:
            roots.append(t)
            q = [0] * (len(f) - 1)  # f / (x - t) by synthetic division
            carry = 0
            for k in range(len(f) - 1, 0, -1):
                carry = (f[k] + t * carry) % p
                q[k - 1] = carry
            f = q
    return roots


@pytest.mark.parametrize("p", (2, 3, 7, 101, 65521))
def test_residue_roots_match_a_brute_force_scan(p, monkeypatch):
    # roots at 0 and p - 1, repeated roots, and cofactors without roots;
    # once the roots found use up the degree the scan stops
    rng = random.Random(p)
    for _ in range(40 if p < 1000 else 3):  # the brute scan is slow at 65521
        roots = [rng.choice((0, p - 1, rng.randrange(p))) for _ in range(rng.randint(0, 4))]
        roots += roots[:1] * rng.randint(0, 2)
        poly = Polynomial(GF(p), [rng.randrange(1, p)])
        for r in roots:
            poly = poly * Polynomial.x_minus(GF(p), r)
        if rng.random() < 0.5:
            poly = poly * Polynomial(GF(p), [rng.randrange(p), rng.randrange(p), 1])
        ints = [c.v for c in poly.coeffs]
        assert residue_roots(ints, p) == _brute_residue_roots(ints, p)
    scanned = []  # the residues the scan draws from range(p)

    def scan_range(*args):
        values = range(*args)
        return (scanned.append(t) or t for t in values) if args == (p,) else values

    monkeypatch.setattr(tdpairs.eigen, "range", scan_range, raising=False)
    split = [c.v for c in Polynomial.from_roots(GF(p), [0, 1 % p, 1 % p]).coeffs]
    assert residue_roots(split, p) == sorted([0, 1 % p, 1 % p])
    assert scanned == list(range(min(p, 3)))


def _min_poly_rule(m):
    """What eigen_decompose answered when it decided from the roots of the
    minimal polynomial: the ascending eigenvalues, or the failure message."""
    mp = min_poly(m)
    if m.field == QQ:
        roots = rational_roots_by_divisors(mp.coeffs)
    else:
        p = m.field.p
        roots = [m.field.scalar(x) for x in range(p) if mp(x) == 0]
        # a root of multiplicity >= 2 is also a root of the derivative
        deriv = Polynomial(m.field, [i * c for i, c in enumerate(mp.coeffs)][1:])
        roots += [r for r in roots if deriv(r) == 0]
    if len(set(roots)) != len(roots):
        return "minimal polynomial has a repeated root"
    if len(roots) != mp.degree:
        # each root is simple in the minimal polynomial, so its multiplicity
        # in the characteristic polynomial is dim ker(m - t I)
        n = m.nrows
        nroots = sum(n - _oracle_rank(m.shift(t)) for t in roots)
        return (
            "minimal polynomial has an irreducible factor of degree > 1 "
            f"(found {nroots} of {n} roots of the characteristic polynomial)"
        )
    return tuple(sorted(roots))


def _oracle_rank(m):
    if m.field == QQ:
        return ref_rank_q([list(row) for row in m.rows])
    return int_rref(m.field.p, [[x.v for x in row] for row in m.rows])[1]


def _conjugate_q(block, rng):
    """L U block (L U)^-1 over Q for random unit lower / upper triangular
    integer L, U, so the change of basis is always invertible."""
    n = len(block)
    low = qm([[rng.randint(-2, 2) if j < i else int(i == j) for j in range(n)] for i in range(n)])
    up = qm([[rng.randint(-2, 2) if j > i else int(i == j) for j in range(n)] for i in range(n)])
    c = low @ up
    return c @ qm(block) @ invert(c)


@pytest.mark.parametrize("p", [None, 5, 7, 13])
def test_eigen_decompose_matches_min_poly_rule(p):
    rng = random.Random(p or 1)
    quadratic = [[0, 2], [1, 0]] if p is None else None
    seen = set()
    for _ in range(30):
        n = rng.randint(2, 6)
        diag = [rng.randrange(3) for _ in range(n)]
        if p is not None:
            quadratic = _irreducible_quadratic_companion(p, rng)
        blocks = [
            _block_diagonal([[[t]] for t in diag]),
            _block_diagonal([[[diag[0], 1], [0, diag[0]]]] + [[[t]] for t in diag[2:]]),
            _block_diagonal([quadratic] + [[[t]] for t in diag[2:]]),
            # a Jordan block next to an irreducible quadratic: both messages apply
            _block_diagonal([[[1, 1], [0, 1]], quadratic] + [[[t]] for t in diag[4:]]),
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)],
        ]
        for block in blocks:
            if p is None:
                m = _conjugate_q(block, rng)
            else:
                m = gm(p, _conjugate(p, [[x % p for x in row] for row in block], rng))
            want = _min_poly_rule(m)
            try:
                eig = eigen_decompose(m)
                got = tuple(eig.eigenvalues)
            except NotDiagonalizableOverField as e:
                got = str(e)
            assert got == want, (p, m.rows)
            seen.add(want.split(" (")[0] if isinstance(want, str) else "diagonalizable")
    assert seen == {
        "diagonalizable",
        "minimal polynomial has a repeated root",
        "minimal polynomial has an irreducible factor of degree > 1",
    }


# ---- triangular operators: the spectrum off the diagonal ----------------------


def _dense_eigenspaces(m):
    """eigenspaces by the route for any operator: the roots of the
    characteristic polynomial, then one kernel per root."""
    roots = field_roots(char_poly(m), m.field)
    thetas = tuple(sorted(set(roots)))
    return thetas, tuple(kernel(m.shift(theta)) for theta in thetas), len(roots)


def refuse_in_eigen(monkeypatch, *names):
    """Make each tdpairs.eigen.<name> raise when called."""
    for name in names:

        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(tdpairs.eigen, name, refuse)


def _decomposition_or_error(m):
    try:
        eig = eigen_decompose(m)
    except NotDiagonalizableOverField as e:
        return type(e), str(e)
    return eig.eigenvalues, eig.eigenspaces


TRIANGLES = (
    "upper", "lower", "diagonal", "upper bidiagonal", "lower bidiagonal", "dense upper", "dense lower", "jordan"
)


def _triangular(field, n, kind, rng):
    """A seeded n x n triangular matrix of the given kind whose diagonal
    often repeats an entry; "jordan" chains equal diagonal entries by 1s
    just above the diagonal, so it is not diagonalizable when n > 1."""
    p = getattr(field, "p", None)

    def entry(dense):
        if p:
            return rng.randrange(1 if dense else 0, p)
        return Fraction(rng.choice([1, -1] if dense else [0, 1, -1]) * rng.randint(1, 9), rng.randint(1, 4))

    pool = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(rng.randint(1, n))]
    diag = [rng.choice(pool) if not p else rng.choice(pool).numerator % p for _ in range(n)]
    rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        if kind in ("upper", "dense upper") and j > i or kind in ("lower", "dense lower") and j < i:
            rows[i][j] = entry(kind.startswith("dense"))
        elif kind == "upper bidiagonal" and j == i + 1 or kind == "lower bidiagonal" and j == i - 1:
            rows[i][j] = entry(rng.random() < 0.8)
    if kind == "jordan":
        rows = [[diag[0] if i == j else int(j == i + 1) for j in range(n)] for i in range(n)]
    return Matrix(field, rows)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_triangular_eigenspaces_match_the_characteristic_polynomial_route(field, monkeypatch):
    # a triangular operator's roots are its diagonal and a simple root's
    # eigenline comes by substitution: same eigenvalues, canonical bases,
    # root count and eigen_decompose verdict as the dense route
    rng = random.Random(str(field))
    seen = set()
    for n, kind, _ in itertools.product(range(1, 9), TRIANGLES, range(4)):
        m = _triangular(field, n, kind, rng)
        want = _dense_eigenspaces(m)
        with monkeypatch.context() as patch:
            refuse_in_eigen(patch, "char_poly", "field_roots")
            got = eigenspaces(m)
            decomposed = _decomposition_or_error(m)
        assert got == want, (kind, m.rows)
        with monkeypatch.context() as patch:
            patch.setattr(tdpairs.eigen, "eigenspaces", _dense_eigenspaces)
            assert decomposed == _decomposition_or_error(m), (kind, m.rows)
        seen.add(decomposed[0] if isinstance(decomposed[0], type) else "decomposed")
        seen.update("line" if s.dim == 1 else "space" for s in got[1])
    assert seen == {NotDiagonalizableOverField, "decomposed", "line", "space"}


def test_repeated_or_dense_spectra_keep_the_kernel_and_the_polynomial(monkeypatch):
    # the diagonal answers for the simple roots of a triangular side only:
    # a (1, 3, 3, 1) Kronecker sum repeats A's eigenvalues; the GF(3)
    # search hit 184953 has A = diag(0, 1, 1, 2) and a dense A*, whose
    # spectrum the kernel scan finds as p <= n, with no polynomial; a dense
    # operator over GF(101) at n = 4 (p > n) keeps the polynomial
    calls = {"kernel": 0, "char_poly": 0}
    for name in calls:
        real = getattr(tdpairs.eigen, name)

        def counted(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(tdpairs.eigen, name, counted)
    validate_pair(*kron_sum_fixture(QQ, ((0, 1),) * 3, (1, 2, 3)))
    assert calls["kernel"] > 0 and calls["char_poly"] == 0
    shape = (1, 2, 1)
    positions = tdpairs.search._allowed_positions(shape)
    rows = [[0] * 4 for _ in range(4)]
    for (r, c), v in zip(positions, tdpairs.search._exhaustive_entries(184953, len(positions), 3)):
        rows[r][c] = v
    before = dict(calls)
    validate_pair(tdpairs.search._fixed_a(GF(3), shape), gm(3, rows))
    assert calls["kernel"] > before["kernel"] and calls["char_poly"] == before["char_poly"]
    before = dict(calls)
    eig = eigen_decompose(gm(101, _conjugate(101, _block_diagonal([[[5]], [[7]], [[7]], [[90]]]), random.Random(4))))
    assert eig.dims() == (1, 2, 1)
    assert calls["kernel"] == before["kernel"] + 3 and calls["char_poly"] == before["char_poly"] + 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_kernel_scan_matches_the_polynomial_route(p, monkeypatch):
    # dense operators over GF(p) with p <= n: a split spectrum, a Jordan
    # block and an irreducible quadratic, hidden by a change of basis; the
    # scan gives the same eigenvalues, canonical bases, root count and
    # eigen_decompose verdict or message as the polynomial route, and a
    # split operator is decomposed with no polynomial at all
    rng = random.Random(p)
    seen = set()
    for n, _ in itertools.product(range(p, 9), range(4)):
        diag = [rng.randrange(p) for _ in range(n)]
        blocks = (
            [[[t]] for t in diag],
            [[[diag[0], 1], [0, diag[0]]]] + [[[t]] for t in diag[2:]],
            [_irreducible_quadratic_companion(p, rng)] + [[[t]] for t in diag[2:]],
        )
        for block in blocks:
            m = gm(p, _conjugate(p, _block_diagonal(block), rng))
            want = _dense_eigenspaces(m)
            with monkeypatch.context() as patch:
                if sum(space.dim for space in want[1]) == n:
                    refuse_in_eigen(patch, "char_poly", "field_roots")
                got = eigenspaces(m)
                decomposed = _decomposition_or_error(m)
            assert got == want, (p, m.rows)
            with monkeypatch.context() as patch:
                patch.setattr(tdpairs.eigen, "eigenspaces", _dense_eigenspaces)
                assert decomposed == _decomposition_or_error(m), (p, m.rows)
            seen.add(decomposed[1].split(" (")[0] if decomposed[0] is NotDiagonalizableOverField else "decomposed")
    assert seen == {
        "decomposed",
        "minimal polynomial has a repeated root",
        "minimal polynomial has an irreducible factor of degree > 1",
    }


def unit_line(m, k, lower):
    """A wrong substitution: the line of e_k."""
    return Subspace.span(m.field, m.nrows, [[int(i == k) for i in range(m.nrows)]])


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=str)
def test_eigenvector_check_guards_the_substitution(field, monkeypatch):
    # a split-form A (lower bidiagonal, 1s below the diagonal) has no
    # eigenvector e_0, so a wrong line is caught, not decomposed
    a = Matrix(field, [[2, 0, 0], [1, 5, 0], [0, 1, 3]])
    assert eigen_decompose(a).eigenspaces[0] != unit_line(a, 0, True)
    monkeypatch.setattr(tdpairs.eigen, "_eigenline", unit_line)
    with pytest.raises(InvariantViolation, match="claimed eigenvector is not one"):
        eigen_decompose(a)
