"""Leonard detection, switching elements, affine relations, generation."""

from __future__ import annotations

import random

import pytest

import tdpairs.leonard
from tdpairs import (
    GF,
    QQ,
    AffineRelation,
    DiameterZero,
    DimensionMismatch,
    EigenspaceMismatch,
    ExhaustedRetries,
    FieldMismatch,
    GeneratedPairInvalid,
    HypothesisNotMet,
    InvalidLeonardParameters,
    InvariantViolation,
    LeonardCertificate,
    LeonardParameterSet,
    Matrix,
    NotLeonard,
    NotLeonardError,
    ZeroVarphi,
    affine_relation,
    detect_leonard,
    generate_split_form,
    leonard_basis,
    random_leonard,
    reduce_to_affine,
    switching_from_sequences,
    switching_via_solve,
    validate_pair,
)
from tdpairs.eigen import invert

from oracles import TENSOR_PARAMS, oracle_split_sequences, phi_from_split_form, tensor_fixture


def qm(rows):
    return Matrix(QQ, [[QQ.scalar(x) for x in r] for r in rows])


def gm(p, rows):
    f = GF(p)
    return Matrix(f, [[f.scalar(x) for x in r] for r in rows])


A_D2 = [[0, 0, 0], [1, 1, 0], [0, 1, 2]]
ASTAR_D2 = [[0, 1, 0], [0, 1, 1], [0, 0, 2]]

# hand-computed for the running example: the certificate is
# X = (1/2) I + A^2 with tau coefficients (1/2, 1, 1), and the
# idempotent-sum switching element is S = E_0 + 3 E_1 + 9 E_2 = 2 X
X_D2 = [
    ["1/2", "0", "0"],
    ["1", "3/2", "0"],
    ["1", "3", "9/2"],
]
S_D2 = [[1, 0, 0], [2, 3, 0], [2, 6, 9]]
PARAMS_D2 = ((0, 1, 2), (0, 1, 2), (1, 1), (3, 3))


def d2_pair():
    return validate_pair(qm(A_D2), qm(ASTAR_D2))


def d2_params(field=QQ):
    theta, thetastar, varphi, phi = PARAMS_D2
    return LeonardParameterSet(
        field=field, theta=theta, thetastar=thetastar, varphi=varphi, phi=phi
    )


# ---- detection ----------------------------------------------------------------


def test_detect_certificate_on_running_example():
    pair = d2_pair()
    cert = detect_leonard(pair)
    assert isinstance(cert, LeonardCertificate)
    assert cert.solution_dim == 1
    assert cert.alpha == (QQ.scalar("1/2"), QQ.one, QQ.one)
    assert cert.x == qm(X_D2)
    half = QQ.scalar("1/2")
    assert cert.x == Matrix.identity(QQ, 3).scale(half) + (pair.a @ pair.a)


def test_detect_rejects_fat_shape():
    theta, mu, varphis = TENSOR_PARAMS["Q"]
    pair = validate_pair(*tensor_fixture(QQ, theta, mu, varphis))
    found = detect_leonard(pair)
    assert isinstance(found, NotLeonard)
    assert found.shape == (1, 2, 1)
    assert found.solution_dim == 0


def test_detect_diameter_zero_is_leonard():
    pair = validate_pair(qm([[5]]), qm([[7]]))
    cert = detect_leonard(pair)
    assert isinstance(cert, LeonardCertificate)
    assert cert.alpha == (QQ.one,)


def test_detect_over_prime_field():
    pair = validate_pair(gm(7, A_D2), gm(7, ASTAR_D2))
    cert = detect_leonard(pair)
    f = GF(7)
    # 1/2 = 4 in GF(7)
    assert cert.alpha == (f.scalar(4), f.one, f.one)
    assert cert.solution_dim == 1


# ---- leonard basis ------------------------------------------------------------


def test_leonard_basis_of_running_example_is_standard():
    pair = d2_pair()
    cert = detect_leonard(pair)
    u = pair.vstar(0).basis[0]
    basis = leonard_basis(pair, cert, u)
    assert [tuple(v) for v in basis] == [
        (QQ.one, QQ.zero, QQ.zero),
        (QQ.zero, QQ.one, QQ.zero),
        (QQ.zero, QQ.zero, QQ.one),
    ]


def test_leonard_basis_makes_a_lower_bidiagonal():
    params, pair = random_leonard(GF(13), 4, seed=20)
    cert = detect_leonard(pair)
    basis = leonard_basis(pair, cert, pair.vstar(0).basis[0])
    c = Matrix.from_columns(pair.field, [list(v) for v in basis])
    b = invert(c) @ pair.a @ c
    n = pair.dim
    for i in range(n):
        for j in range(n):
            if i == j:
                assert b[i, j] == pair.theta(i)
            elif i == j + 1:
                assert b[i, j] == pair.field.one
            else:
                assert b[i, j] == pair.field.zero


def test_leonard_basis_hypothesis_checks():
    pair = d2_pair()
    cert = detect_leonard(pair)
    with pytest.raises(HypothesisNotMet):
        leonard_basis(pair, cert, (QQ.zero, QQ.zero, QQ.zero))
    with pytest.raises(HypothesisNotMet):
        leonard_basis(pair, cert, (QQ.zero, QQ.one, QQ.zero))
    fake = LeonardCertificate(
        alpha=cert.alpha, x=Matrix.zeros(QQ, 3, 3), solution_dim=1
    )
    with pytest.raises(HypothesisNotMet):
        leonard_basis(pair, fake, pair.vstar(0).basis[0])


# ---- affine reduction ----------------------------------------------------------


def test_reduce_to_affine_recovers_known_combinations():
    pair = d2_pair()
    eye = Matrix.identity(QQ, 3)
    assert reduce_to_affine(pair, pair.a) == AffineRelation(r=QQ.one, s=QQ.zero)
    assert reduce_to_affine(pair, eye) == AffineRelation(r=QQ.zero, s=QQ.one)
    two, three = QQ.scalar(2), QQ.scalar(3)
    combo = pair.a.scale(two) + eye.scale(three)
    assert reduce_to_affine(pair, combo) == AffineRelation(r=two, s=three)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(101)], ids=["Q", "GF5", "GF101"])
def test_reduce_to_affine_reads_the_tau_expansion_off_one_residual(field):
    # the residual of (X, 0) against the rows (tau_i(A), e_i) is (0, -alpha)
    # for X in the subalgebra, and nonzero in its X part otherwise
    rng = random.Random(getattr(field, "p", 0))
    for d in range(1, 5):
        _, pair = random_leonard(field, d, seed=rng.randrange(1000))
        n = pair.dim
        eye = Matrix.identity(field, n)
        for _ in range(3):
            r = field.scalar(rng.randrange(1, 50))
            s = field.scalar(rng.randrange(-50, 50))
            assert reduce_to_affine(pair, pair.a.scale(r) + eye.scale(s)) == AffineRelation(r=r, s=s)
        dense = Matrix(field, [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        for x in (dense, pair.astar, pair.a + pair.astar):
            with pytest.raises(HypothesisNotMet, match="not in the subalgebra"):
                reduce_to_affine(pair, x)


def test_reduce_to_affine_rejects_higher_degree_and_foreign_x():
    pair = d2_pair()
    with pytest.raises(HypothesisNotMet):
        reduce_to_affine(pair, pair.a @ pair.a)  # containment fails
    with pytest.raises(HypothesisNotMet):
        reduce_to_affine(pair, pair.astar)  # not in the A-subalgebra


def test_reduce_to_affine_input_validation():
    pair = d2_pair()
    d0 = validate_pair(qm([[5]]), qm([[7]]))
    with pytest.raises(DiameterZero):
        reduce_to_affine(d0, qm([[1]]))
    with pytest.raises(DimensionMismatch):
        reduce_to_affine(pair, qm([[1, 0], [0, 1]]))
    with pytest.raises(FieldMismatch):
        reduce_to_affine(pair, gm(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


# ---- affine relations between pairs ---------------------------------------------


def test_affine_relation_identity():
    pair = d2_pair()
    unstarred, starred = affine_relation(pair, pair)
    assert (unstarred.r, unstarred.s) == (QQ.one, QQ.zero)
    assert (starred.rstar, starred.sstar) == (QQ.one, QQ.zero)


def test_affine_relation_recovers_transform():
    pair = d2_pair()
    eye = Matrix.identity(QQ, 3)
    two, three, five, seven = (QQ.scalar(x) for x in (2, 3, 5, 7))
    a2 = pair.a.scale(two) + eye.scale(three)
    astar2 = pair.astar.scale(five) + eye.scale(seven)
    pair2 = validate_pair(a2, astar2)
    unstarred, starred = affine_relation(pair, pair2)
    assert (unstarred.r, unstarred.s) == (two, three)
    assert (starred.rstar, starred.sstar) == (five, seven)


def test_affine_relation_handles_reversed_ordering():
    pair = d2_pair()
    neg = validate_pair(pair.a.scale(QQ.scalar(-1)), pair.astar)
    unstarred, _ = affine_relation(pair, neg)
    assert (unstarred.r, unstarred.s) == (QQ.scalar(-1), QQ.zero)


def test_affine_relation_rejects_different_eigenspaces():
    pair = d2_pair()
    p = qm([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    conj = validate_pair(p @ pair.a @ invert(p), p @ pair.astar @ invert(p))
    with pytest.raises(EigenspaceMismatch) as exc:
        affine_relation(pair, conj)
    assert exc.value.side == "A"
    assert isinstance(exc.value.index, int)


# ---- switching elements ----------------------------------------------------------


def test_switching_from_sequences_matches_frozen_idempotent_sum():
    pair = d2_pair()
    s = switching_from_sequences(d2_params(), pair.eig_a)
    assert s == qm(S_D2)


def test_switching_via_solve_proportional_to_sequence_form():
    pair = d2_pair()
    x = switching_via_solve(pair)
    s = switching_from_sequences(d2_params(), pair.eig_a)
    assert x == s.scale(QQ.scalar("1/2"))
    assert x == qm(X_D2)


def test_switching_ratio_over_prime_field():
    f = GF(7)
    pair = validate_pair(gm(7, A_D2), gm(7, ASTAR_D2))
    x = switching_via_solve(pair)
    s = switching_from_sequences(d2_params(field=f), pair.eig_a)
    assert x == s.scale(f.scalar(4))  # 4 = 1/2 in GF(7)


def test_switching_diameter_one_explicit():
    params = LeonardParameterSet(
        field=QQ, theta=(0, 1), thetastar=(0, 1), varphi=(1,), phi=(2,)
    )
    a, astar = generate_split_form(params)
    assert a == qm([[0, 0], [1, 1]])
    assert astar == qm([[0, 1], [0, 1]])
    pair = validate_pair(a, astar)
    if pair.theta(0) != QQ.zero:
        pair = pair.with_reversed_a()
    if pair.thetastar(0) != QQ.zero:
        pair = pair.with_reversed_astar()
    s = switching_from_sequences(params, pair.eig_a)
    assert s == qm([[1, 0], [1, 2]])
    assert switching_via_solve(pair) == s  # ratio happens to be 1 here


def test_switching_diameter_zero_is_identity():
    params = LeonardParameterSet(
        field=QQ, theta=(5,), thetastar=(7,), varphi=(), phi=()
    )
    pair = validate_pair(qm([[5]]), qm([[7]]))
    s = switching_from_sequences(params, pair.eig_a)
    assert s == Matrix.identity(QQ, 1)


def test_switching_rejects_misaligned_ordering_and_non_leonard():
    pair = d2_pair()
    with pytest.raises(HypothesisNotMet):
        switching_from_sequences(d2_params(), pair.eig_a.reversed())
    theta, mu, varphis = TENSOR_PARAMS["Q"]
    fat = validate_pair(*tensor_fixture(QQ, theta, mu, varphis))
    with pytest.raises(NotLeonardError):
        switching_via_solve(fat)


# ---- parameter validation ----------------------------------------------------------


def test_parameter_set_validation():
    with pytest.raises(InvalidLeonardParameters):
        LeonardParameterSet(field=QQ, theta=(), thetastar=(), varphi=(), phi=())
    with pytest.raises(InvalidLeonardParameters):
        LeonardParameterSet(
            field=QQ, theta=(0, 1, 1), thetastar=(0, 1, 2), varphi=(1, 1), phi=(1, 1)
        )
    with pytest.raises(InvalidLeonardParameters):
        LeonardParameterSet(
            field=QQ, theta=(0, 1, 2), thetastar=(0, 0, 2), varphi=(1, 1), phi=(1, 1)
        )
    with pytest.raises(InvalidLeonardParameters):
        LeonardParameterSet(
            field=QQ, theta=(0, 1, 2), thetastar=(0, 1, 2), varphi=(1,), phi=(1, 1)
        )
    with pytest.raises(ZeroVarphi):
        LeonardParameterSet(
            field=QQ, theta=(0, 1, 2), thetastar=(0, 1, 2), varphi=(1, 0), phi=(1, 1)
        )
    with pytest.raises(InvalidLeonardParameters):
        LeonardParameterSet(
            field=QQ, theta=(0, 1, 2), thetastar=(0, 1, 2), varphi=(1, 1), phi=(0, 1)
        )
    # GF coercion: distinctness is judged after reduction mod p
    with pytest.raises(InvalidLeonardParameters):
        LeonardParameterSet(
            field=GF(3), theta=(0, 1, 3), thetastar=(0, 1, 2), varphi=(1, 1), phi=(1, 1)
        )


def test_generate_split_form_rejects_invalid_output():
    # over GF(3) these parameters produce a reducible configuration
    params = LeonardParameterSet(
        field=GF(3), theta=(0, 1, 2), thetastar=(0, 1, 2), varphi=(1, 1), phi=(1, 1)
    )
    with pytest.raises(GeneratedPairInvalid):
        generate_split_form(params)


# ---- random generation ----------------------------------------------------------


def test_random_leonard_deterministic():
    p1, pair1 = random_leonard(GF(7), 2, seed=1)
    p2, pair2 = random_leonard(GF(7), 2, seed=1)
    assert p1 == p2
    assert pair1.a == pair2.a and pair1.astar == pair2.astar


def test_random_leonard_aligned_and_all_ones():
    for field, d, seed in ((QQ, 3, 11), (GF(13), 5, 3), (GF(5), 2, 9)):
        params, pair = random_leonard(field, d, seed)
        assert pair.diameter == d
        assert pair.shape.is_all_ones()
        assert tuple(pair.eig_a.eigenvalues) == params.theta
        assert tuple(pair.eig_astar.eigenvalues) == params.thetastar


def test_random_leonard_sequences_match_eigenvector_chain_oracle():
    for field, d, seed in ((QQ, 4, 2), (GF(13), 3, 5)):
        params, pair = random_leonard(field, d, seed)
        varphi, phi = oracle_split_sequences(pair)
        assert varphi == params.varphi
        assert phi == params.phi


def test_pa4_phi_matches_the_split_form_on_the_pool_recipe(monkeypatch):
    # every parameter draw of the acceptance pool's recipe, plus GF(2) and
    # GF(3) draws that degenerate: PA4 gives the phi (or the None) that
    # pushing e_0 through the split form gives
    draws = []
    pa4 = tdpairs.leonard._phi_pa4

    def recorded(*args):
        draws.append((args, pa4(*args)))
        return draws[-1][1]

    monkeypatch.setattr(tdpairs.leonard, "_phi_pa4", recorded)
    for i in range(200):
        field = (QQ, GF(5), GF(7), GF(13))[i % 4]
        random_leonard(field, i % 7 % (5 if field == GF(5) else 7), seed=i)
    for seed in range(5):
        random_leonard(GF(3), 2, seed)
        with pytest.raises(ExhaustedRetries, match="^no valid parameter set found after 40 attempts$"):
            random_leonard(GF(2), 1, seed)
    for args, phi in draws:
        assert phi == phi_from_split_form(*args), args
    assert None in [phi for _, phi in draws]
    assert len(draws) > 200


def test_random_leonard_diameter_zero():
    params, pair = random_leonard(QQ, 0, seed=4)
    assert pair.diameter == 0
    assert params.varphi == () and params.phi == ()


def test_each_pair_object_is_detected_once(monkeypatch):
    _, pair = random_leonard(GF(13), 4, seed=3)
    cert = detect_leonard(pair)
    monkeypatch.setattr(tdpairs.leonard, "checked_tau_matrices", None)  # any new detection fails
    assert detect_leonard(pair) is cert
    assert switching_via_solve(pair) is cert.x
    monkeypatch.undo()
    # a reoriented pair is another object with its own certificate
    flipped = pair.with_reversed_a()
    assert detect_leonard(flipped) is not cert
    assert detect_leonard(flipped).alpha != cert.alpha


def test_random_leonard_raises_an_internal_error_instead_of_retrying(monkeypatch):
    # a bug during validation is not a rejected parameter set
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise InvariantViolation("planted bug")

    monkeypatch.setattr(tdpairs.leonard, "validate_pair", broken)
    with pytest.raises(InvariantViolation, match="planted bug"):
        random_leonard(GF(7), 2, seed=1)
    assert len(calls) == 1


def test_random_leonard_impossible_requests():
    with pytest.raises(ExhaustedRetries):
        random_leonard(GF(2), 3, seed=0)
    with pytest.raises(DimensionMismatch):
        random_leonard(QQ, -1, seed=0)
