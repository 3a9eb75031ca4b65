"""Leonard detection, switching elements, affine relations, generation."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import tdpairs.eigen
import tdpairs.leonard
import tdpairs.linalg
import tdpairs.pairs
import tdpairs.split
import tdpairs.subspaces
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
    NotDiagonalizableOverField,
    NotLeonard,
    NotLeonardError,
    ShapeVector,
    Subspace,
    TdpError,
    ZeroVarphi,
    affine_relation,
    complete_report,
    detect_leonard,
    generate_split_form,
    maps_into,
    primitive_idempotents,
    random_leonard,
    reduce_to_affine,
    split_subspaces,
    switching_from_sequences,
    switching_via_solve,
    tau_images,
    validate_pair,
)
from tdpairs.eigen import EigenDecomposition, invert
from tdpairs.linalg import Echelon
from tdpairs.split import SplitDecomposition

from oracles import (
    TENSOR_PARAMS,
    detect_by_membership,
    kron_sum_fixture,
    leonard_parameter_array,
    oracle_split_sequences,
    phi_from_split_form,
    split_form_route_declined,
    tau_images_by_shift,
    tau_matrices_by_product,
    tensor_fixture,
)
from test_eigen import refuse_in


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

ORACLE_FIELDS = (QQ, GF(2), GF(3), GF(101))


def pool_recipe_pairs(field):
    """(params, fresh pair) of the acceptance pool's recipe, random_leonard
    of every diameter the field hosts up to 6 (over GF(2) only 0, as PA4
    gives phi_1 = varphi_1 + 1 = 0 at diameter 1); over Q also the same
    pairs moved affinely to fractional theta and thetastar (varphi and
    phi scale by r rstar, so PA4 still holds)."""
    top = 0 if field == GF(2) else min(6, getattr(field, "p", 7) - 1)
    out = [random_leonard(field, d, seed=31 * d + 5) for d in range(top + 1)]
    if field != QQ:
        return out
    r, s, rstar, sstar = Fraction(1, 3), Fraction(1, 5), Fraction(-1, 2), Fraction(2, 7)
    for params, _ in list(out):
        moved = LeonardParameterSet(
            field=QQ,
            theta=[r * t + s for t in params.theta],
            thetastar=[rstar * t + sstar for t in params.thetastar],
            varphi=[r * rstar * x for x in params.varphi],
            phi=[r * rstar * x for x in params.phi],
        )
        pair = tdpairs.leonard.aligned_to_params(validate_pair(*generate_split_form(moved)), moved)
        out.append((moved, pair))
    return out


def not_leonard_pairs(field):
    """Validated pairs of shapes (1, 2, 1) and (1, 3, 3, 1) where the
    field hosts them (not over GF(2) or GF(3))."""
    if field in (GF(2), GF(3)):
        return []
    return [
        validate_pair(*tensor_fixture(field, (0, 1), (0, 1), (1, 2))),
        validate_pair(*kron_sum_fixture(field, ((0, 1),) * 3, (1, 2, 3))),
    ]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_detection_matches_the_membership_oracle(field):
    # detection runs on int rows; the field-element route of the oracle
    # (images by apply, residuals, X by scale and +) must give the same
    # alpha, X = sum alpha_i tau_i(A) and solution dimension, and no
    # certificate on fat shapes.  Independently of any kernel, the
    # residuals of tau_i(A) V*_0 against V*_d, one long vector per i, have
    # rank d + 1 - solution_dim: 0 solutions on the fat shapes
    pairs = [pair for _, pair in pool_recipe_pairs(field)] + not_leonard_pairs(field)
    outcomes = set()
    for pair in pairs:
        alpha, x, solution_dim = detect_by_membership(pair)
        found = detect_leonard(pair)
        taus, target = tau_matrices_by_product(pair), pair.vstar(pair.diameter)
        residuals = [[e for u in pair.vstar(0).basis for e in target.residual(m.apply(u))] for m in taus]
        assert Subspace.span(field, len(residuals[0]), residuals).dim == len(taus) - solution_dim
        if alpha is None:
            assert isinstance(found, NotLeonard) and found.solution_dim == solution_dim == 0
        else:
            assert (found.alpha, found.x, found.solution_dim) == (alpha, x, solution_dim), pair.shape
        outcomes.add(type(found))
    assert outcomes == ({LeonardCertificate} if field in (GF(2), GF(3)) else {LeonardCertificate, NotLeonard})


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


# ---- the tau-image basis ---------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF(7), GF(13), GF(101)], ids=str)
def test_tau_images_make_a_lower_bidiagonal(field):
    # in the basis tau_0(A)u, ..., tau_d(A)u of a Leonard pair, A is lower
    # bidiagonal with diagonal theta_0..theta_d and unit subdiagonal
    for _, pair in pool_recipe_pairs(field):
        basis = tau_images(pair, pair.vstar(0).basis[0])
        assert len(basis) == pair.dim
        c = Matrix.from_columns(field, [list(v) for v in basis])
        b = invert(c) @ pair.a @ c
        n = pair.dim
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert b[i, j] == pair.theta(i)
                elif i == j + 1:
                    assert b[i, j] == field.one
                else:
                    assert b[i, j] == field.zero


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
    # X = rA + sI acts on each eigenspace of A as one scalar, from which
    # r and s are read; a dense X, A* and A + A* act on none as a scalar
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


def test_reduce_to_affine_rejects_a_root_quotient_that_is_not_exact():
    # A = [[-1, 2], [-1, 2]] has V_0 = span(u), u = (2, 1), and V_1 =
    # span((1, 1)).  X = [[0, 1], [-1, 2]] fixes (1, 1) and maps u to (1, 0),
    # so (R_X u)_0 / u_0 = 1/2 is no integer root: X is a scalar on V_1
    # alone, and reading c_0 = 1/2 would report X = A / 2 + I / 2.
    # X = A / 3 - 2/5 I has the exact roots -6 and -1 over 15
    pair = validate_pair(qm([[-1, 2], [-1, 2]]), qm([[1, 0], [0, -1]]))
    assert [space.echelon.rows for space in pair.eig_a.eigenspaces] == [{0: [2, 1]}, {0: [1, 1]}]
    with pytest.raises(HypothesisNotMet, match="^X is not in the subalgebra generated by A$"):
        reduce_to_affine(pair, qm([[0, 1], [-1, 2]]))
    x = pair.a.scale(Fraction(1, 3)) + Matrix.identity(QQ, 2).scale(Fraction(-2, 5))
    assert x._ints[1] == 15 and reduce_to_affine(pair, x) == AffineRelation(r=Fraction(1, 3), s=Fraction(-2, 5))


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=str)
def test_reduce_to_affine_rejects_a_commuting_x_outside_the_subalgebra(field):
    # on a shape (1, 2, 1) pair, the projection onto one line of the
    # 2-dimensional V_1 along the other eigenvectors commutes with A, but
    # it is not a scalar on V_1, so it is not in the subalgebra
    theta, mu, varphis = TENSOR_PARAMS["Q" if field == QQ else f"gf{field.p}"]
    pair = validate_pair(*tensor_fixture(field, theta, mu, varphis))
    assert pair.eig_a.dims() == (1, 2, 1)
    c = Matrix.from_columns(field, [v for space in pair.eig_a.eigenspaces for v in space.basis])
    for line in (1, 2):  # the coordinates of V_1
        x = c @ Matrix.diagonal(field, [int(k == line) for k in range(4)]) @ invert(c)
        assert x @ pair.a == pair.a @ x
        with pytest.raises(HypothesisNotMet, match="not in the subalgebra"):
            reduce_to_affine(pair, x)


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


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_switching_from_sequences_is_the_idempotent_sum(field):
    # one product C diag(c) C^-1 must equal Terwilliger's closed form
    # sum c_r E_r over the primitive idempotents, term by term
    for params, pair in pool_recipe_pairs(field):
        es, d = primitive_idempotents(pair.eig_a), params.d
        want, c = es[0], field.one
        for r in range(1, d + 1):
            c = c * params.phi[d - r] / params.varphi[r - 1]
            want = want + es[r].scale(c)
        assert switching_from_sequences(params, pair.eig_a) == want, (field, d)


@pytest.mark.parametrize("field", [QQ, GF(101), GF(13)], ids=str)
def test_the_leonard_layer_builds_no_matrix_per_index(field, monkeypatch):
    # the identity report, a fresh detection, the switching element and
    # the tau images run on int rows: no shifted matrix, no image by
    # apply, no scaled sum, no matrix product; the tau images equal the
    # per-index shifted route's.  The pairs are in a split basis in their
    # diagonal orders, so X and S need no eigenbasis change, inverse or
    # dense product, and eq7/eq8 read coordinate blocks with no _lands_in;
    # every shift is by a decomposition's root, with no _shift_ints
    pairs = pool_recipe_pairs(field)
    want = []
    for _, pair in pairs:
        u = pair.vstar(0).basis[0]
        want.append((u, tau_images_by_shift(pair, u)))

    def refuse(*args, **kwargs):
        raise AssertionError("per-index Matrix built")

    for name in ("scale", "__add__", "apply", "shift", "__matmul__"):
        monkeypatch.setattr(Matrix, name, refuse)
    refuse_in(monkeypatch, tdpairs.eigen, "eigencoordinate_change", "invert", "residue_product")
    refuse_in(monkeypatch, tdpairs.split, "_lands_in")
    refuse_in(monkeypatch, Matrix, "_shift_ints")
    for (params, pair), (u, images) in zip(pairs, want):
        assert complete_report(split_subspaces(pair)).all_true()
        assert isinstance(detect_leonard(pair), LeonardCertificate)
        switching_from_sequences(params, pair.eig_a)
        assert tau_images(pair, u) == images


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
    # every parameter set of the acceptance pool's recipe, plus GF(3)
    # draws: phi is the one pushing e_0 through the split form gives.  A
    # draw is skipped exactly when that push breaks down, t + a astar = 0:
    # over GF(2) at d = 1 that is every draw, so generation exhausts its
    # draws and validates none
    for i in range(200):
        field = (QQ, GF(5), GF(7), GF(13))[i % 4]
        params, _ = random_leonard(field, i % 7 % (5 if field == GF(5) else 7), seed=i)
        assert params.phi == phi_from_split_form(field, params.theta, params.thetastar, params.varphi), i
    for seed in range(5):
        params, _ = random_leonard(GF(3), 2, seed)
        assert params.phi == phi_from_split_form(GF(3), params.theta, params.thetastar, params.varphi)
    for p in (2, 3, 5):
        for d, a, astar, t in itertools.product(range(1, p), range(1, p), range(1, p), range(1, p)):
            theta = [GF(p).scalar(a * i) for i in range(d + 1)]
            thetastar = [GF(p).scalar(astar * i + 1) for i in range(d + 1)]
            varphi = [GF(p).scalar(i * (d - i + 1) * t) for i in range(1, d + 1)]
            degenerate = phi_from_split_form(GF(p), theta, thetastar, varphi) is None
            assert degenerate == ((t + a * astar) % p == 0), (p, d, a, astar, t)
    calls = []
    monkeypatch.setattr(tdpairs.leonard, "validate_pair", lambda *args: calls.append(args))
    for seed in range(5):
        with pytest.raises(ExhaustedRetries, match="^no valid parameter set found after 40 attempts$"):
            random_leonard(GF(2), 1, seed)
    assert not calls


def parameter_draws(field, rng):
    """(theta, thetastar, varphi) at every diameter 1..6 the field hosts,
    from four sources: random_leonard's parameters (PA1-PA5 hold); affine
    theta and thetastar with a random varphi (PA5 holds, PA3 mostly
    fails); random distinct theta and thetastar with varphi from PA3 for
    a random phi_1 (PA5 mostly fails from d = 3 on); and all three random.
    Over Q each draw is followed by its image with rational entries,
    theta / k + s, thetastar / m + t and varphi / (k m), an affine change
    that keeps whether PA1-PA5 hold."""
    def distinct(d, affine):
        while True:
            a, b = rng.randrange(1, 50), rng.randrange(-50, 50)
            xs = [field.scalar(a * i + b if affine else rng.randrange(-20, 21)) for i in range(d + 1)]
            if len(set(xs)) == d + 1:
                return xs

    def nonzero():
        while not (x := field.scalar(rng.randrange(-9, 10))):
            pass
        return x

    def draws(d):
        params, _ = random_leonard(field, d, seed=rng.randrange(10**6))
        yield params.theta, params.thetastar, params.varphi
        yield distinct(d, True), distinct(d, True), [nonzero() for _ in range(d)]
        theta, thetastar, phi1 = distinct(d, False), distinct(d, False), nonzero()
        span, partial, varphi = theta[0] - theta[d], field.zero, []
        for i in range(1, d + 1):
            partial += (theta[i - 1] - theta[d - i + 1]) / span
            varphi.append(phi1 * partial + (thetastar[i] - thetastar[0]) * (theta[i - 1] - theta[d]))
        if all(varphi):
            yield theta, thetastar, varphi
        yield distinct(d, False), distinct(d, False), [nonzero() for _ in range(d)]

    for d in range(1, min(6, getattr(field, "p", 7) - 1) + 1):
        for _ in range(8):
            for theta, thetastar, varphi in draws(d):
                yield theta, thetastar, varphi
                if field == QQ:
                    k, m, s, t = (Fraction(nonzero(), rng.randrange(2, 12)) for _ in range(4))
                    yield [x / k + s for x in theta], [x / m + t for x in thetastar], [x / (k * m) for x in varphi]


def _verdict(a, astar):
    """validate_pair's pair, or the type and text of its rejection."""
    try:
        return validate_pair(a, astar)
    except TdpError as e:
        return type(e), str(e)


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7), GF(13), GF(101)], ids=str)
def test_generation_certifies_exactly_the_parameter_arrays(field):
    # validate_pair's split-form route certifies exactly the split forms
    # the PA1-PA5 oracle accepts, each to the pair the general engine
    # returns; generation takes that route, and a split form off it fails
    # with the general engine's text
    rng = random.Random(27 + getattr(field, "p", 0))
    outcomes = set()
    for theta, thetastar, varphi in parameter_draws(field, rng):
        phi = leonard_parameter_array(field, theta, thetastar, varphi)
        a, astar = tdpairs.leonard._split_matrices(field, theta, thetastar, varphi)
        certified = tdpairs.pairs._split_form_pair(a, astar)
        assert (certified is not None) == (phi is not None)
        with split_form_route_declined():
            want = _verdict(a, astar)
        params = LeonardParameterSet(
            field=field, theta=theta, thetastar=thetastar, varphi=varphi, phi=phi or [1] * len(varphi)
        )
        if certified is not None:
            assert certified == want
            assert tdpairs.leonard._split_pair(a, astar) == want
        else:
            assert isinstance(want, tuple)
            with pytest.raises(GeneratedPairInvalid) as raised:
                generate_split_form(params)
            assert str(raised.value) == f"generated split form failed validation: {want[1]}"
        outcomes.add(certified is not None)
    assert outcomes == {True, False}
    ones = (field.one, field.one)
    for theta, thetastar in (((0, 1, 0), (0, 1, 2)), ((0, 1, 2), (0, 2, 2))):  # PA1 fails
        seqs = [tuple(map(field.scalar, s)) for s in (theta, thetastar)]
        assert leonard_parameter_array(field, *seqs, ones) is None
        assert tdpairs.pairs._split_form_pair(*tdpairs.leonard._split_matrices(field, *seqs, ones)) is None


def _ladder_split_forms(field, n):
    """random_leonard's split forms of size n at seeds 0 and 1, and over Q
    the image of each with fractional diagonals and band (theta / k + s,
    thetastar / m + t, varphi / (k m), as parameter_draws makes them), so
    that A's int subdiagonal is d_A > 1."""
    rng = random.Random(n)
    for seed in (0, 1):
        params, pair = random_leonard(field, n - 1, seed=seed)
        yield pair.a, pair.astar
        if field == QQ:
            k, m, s, t = (Fraction(rng.choice([-7, -3, 2, 5]), rng.randrange(2, 12)) for _ in range(4))
            yield tdpairs.leonard._split_matrices(
                field,
                [x / k + s for x in params.theta],
                [x / m + t for x in params.thetastar],
                [x / (k * m) for x in params.varphi],
            )


@pytest.mark.parametrize("n", [2, 4, 7, 13, 17, 24])
@pytest.mark.parametrize("field", [QQ, GF(101), GF(65521)], ids=str)
def test_the_split_form_route_gives_the_engines_pair_on_the_ladder(field, n):
    # the band decompositions of a certified split form are the general
    # engine's: eigenvalues, eigenspaces, orderings and shape
    for a, astar in _ladder_split_forms(field, n):
        certified = tdpairs.pairs._split_form_pair(a, astar)
        with split_form_route_declined():
            want = validate_pair(a, astar)
        assert certified is not None and certified == validate_pair(a, astar) == want
        for side in ("eig_a", "eig_astar"):
            got, engine = getattr(certified, side), getattr(want, side)
            assert got.eigenvalues == engine.eigenvalues and got.eigenspaces == engine.eigenspaces
        assert certified.shape == want.shape == ShapeVector((1,) * n)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_a_certified_split_form_is_decomposed_with_no_elimination(field, monkeypatch):
    # the route reads both eigenbases off the band: no kernel, no Echelon
    # insert, no dense eigenvector check and no general decomposition
    for a, astar in list(_ladder_split_forms(field, 7))[:2]:
        with split_form_route_declined():
            want = validate_pair(a, astar)
        with monkeypatch.context() as patch:
            for module in (tdpairs.eigen, tdpairs.pairs, tdpairs.subspaces, tdpairs.linalg):
                names = ("eigen_decompose", "eigenspaces", "kernel", "shifted_image")
                refuse_in(patch, module, *(name for name in names if hasattr(module, name)))
            refuse_in(patch, Echelon, "insert")
            assert validate_pair(a, astar) == want


def _near_misses(a, astar):
    """Pairs one step off a split form: a non-unit subdiagonal entry, one
    extra entry off either band, Astar lower bidiagonal, and n = 1."""
    n, field = a.nrows, a.field

    def changed(m, i, j, x):
        entries = [list(r) for r in m.rows]
        entries[i][j] = field.scalar(x)
        return Matrix(field, entries)

    yield changed(a, n - 1, n - 2, 2), astar
    yield changed(a, 0, n - 1, 1), astar
    yield a, changed(astar, n - 1, 0, 1)
    yield a, astar.transpose()
    yield Matrix(field, [[a[0, 0]]]), Matrix(field, [[astar[0, 0]]])


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=str)
def test_split_form_route_declines_near_misses(field):
    # one step off a split form the route declines, and validate_pair's
    # verdict is the general engine's, pair or rejection
    rng = random.Random(29 + getattr(field, "p", 0))
    verdicts = set()
    for draw in parameter_draws(field, rng):
        if leonard_parameter_array(field, *draw) is None:
            continue
        for a, astar in _near_misses(*tdpairs.leonard._split_matrices(field, *draw)):
            assert tdpairs.pairs._split_form_pair(a, astar) is None
            got = _verdict(a, astar)
            with split_form_route_declined():
                assert got == _verdict(a, astar)
            verdicts.add(got[0] if isinstance(got, tuple) else "valid")
    assert "valid" in verdicts and len(verdicts) > 2


# ---- detection in a split basis --------------------------------------------------


def _orderings(pair):
    """The pair in each of its four orderings."""
    return pair, pair.with_reversed_a(), pair.with_reversed_astar(), pair.with_reversed_a().with_reversed_astar()


def _in_diagonal_orders(pair):
    """Whether each side's eigenvalues are its diagonal in index order."""
    sides = ((pair.eig_a, pair.a), (pair.eig_astar, pair.astar))
    return all(eig.eigenvalues == tuple(m[i, i] for i in range(pair.dim)) for eig, m in sides)


def _certificates(pair, monkeypatch):
    """(detect_leonard's, the general route's, the membership oracle's)
    (alpha, X, solution_dim), and whether detection ran a shifted_chain."""
    chains = []
    chain = tdpairs.leonard.shifted_chain
    with monkeypatch.context() as patch:
        patch.setattr(tdpairs.leonard, "shifted_chain", lambda *args: chains.append(args) or chain(*args))
        found, chained = detect_leonard(pair), bool(chains)
        patch.setattr(tdpairs.leonard, "_split_diagonal", lambda *args: None)
        general = tdpairs.leonard._detect(pair)
    return [(c.alpha, c.x, c.solution_dim) for c in (found, general)] + [detect_by_membership(pair)], chained


@pytest.mark.parametrize("n", [1, 2, 4, 7, 13, 17, 24])
@pytest.mark.parametrize("field", [QQ, GF(101), GF(65521)], ids=str)
def test_detection_reads_alpha_off_the_split_basis_on_the_ladder(field, n, monkeypatch):
    # a split form in its diagonal orderings is detected with no shifted
    # chain, alpha read off Vstar_d's line and X built from alpha as its
    # first column; in the three other orderings by the general route; in
    # all four alpha and X are the general route's and the membership
    # oracle's
    routes = []
    for a, astar in _ladder_split_forms(field, n):
        for pair in _orderings(validate_pair(a, astar)):
            (found, general, oracle), chained = _certificates(pair, monkeypatch)
            assert found == general == oracle
            assert found[2] == 1 and found[0][-1] == field.one
            routes.append((_in_diagonal_orders(pair), chained))
    if n == 1:  # one eigenvalue: every ordering is the diagonal one, and no chain has a step
        assert set(routes) == {(True, False)}
    else:
        assert len(routes) == 4 * routes.count((True, False)) == 4 / 3 * routes.count((False, True))


def _dense_conjugate(pair, rng):
    """The pair conjugated by a random invertible matrix with entries in [-2, 2]."""
    field, n = pair.field, pair.dim
    while True:
        p = Matrix(field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        try:
            p_inv = invert(p)
        except HypothesisNotMet:
            continue
        return validate_pair(p_inv @ pair.a @ p, p_inv @ pair.astar @ p)


def _near_split_bases(pair, rng):
    """The pair one step off its split basis: A's order reversed, Vstar_0
    not span(e_0) (Astar's order reversed), a dense conjugate, and a
    diagonal conjugate, whose A has a subdiagonal other than 1 while both
    orders are its diagonals' and Vstar_0 = span(e_0)."""
    field, n = pair.field, pair.dim
    e0 = Subspace.span(field, n, [[int(i == 0) for i in range(n)]])
    scale = Matrix.diagonal(field, [2**i for i in range(n)])
    (rescaled,) = (
        q
        for q in _orderings(validate_pair(invert(scale) @ pair.a @ scale, invert(scale) @ pair.astar @ scale))
        if _in_diagonal_orders(q)
    )
    assert rescaled.vstar(0) == e0 and rescaled.a[1, 0] != field.one
    return pair.with_reversed_a(), pair.with_reversed_astar(), _dense_conjugate(pair, rng), rescaled


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=str)
def test_detection_near_a_split_basis_takes_the_general_route(field, monkeypatch):
    # one step off the split basis (_near_split_bases) detection runs the
    # general route and gives its certificate, the oracle's
    rng = random.Random(41)
    for d in (1, 2, 4, 6):
        for seed in (0, 1):
            _, pair = random_leonard(field, d, seed)
            _, chained = _certificates(pair, monkeypatch)
            assert _in_diagonal_orders(pair) and not chained
            for near in _near_split_bases(pair, rng):
                (found, general, oracle), chained = _certificates(near, monkeypatch)
                assert chained and found == general == oracle


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_detection_in_a_split_basis_runs_no_kernel_and_no_chain(field, monkeypatch):
    # the route reads the certificate off Vstar_d's Echelon row and builds X
    # from it as its first column: no kernel, no shifted chain, no
    # eigenbasis change, inverse or dense product, no _shift_ints, and the
    # general route's certificate
    for a, astar in _ladder_split_forms(field, 7):
        (pair,) = (q for q in _orderings(validate_pair(a, astar)) if _in_diagonal_orders(q))
        with monkeypatch.context() as patch:
            patch.setattr(tdpairs.leonard, "_split_diagonal", lambda *args: None)
            general = tdpairs.leonard._detect(pair)
        with monkeypatch.context() as patch:
            refuse_in(patch, tdpairs.leonard, "kernel", "shifted_chain")
            refuse_in(patch, tdpairs.subspaces, "kernel")
            refuse_in(patch, tdpairs.eigen, "eigencoordinate_change", "invert", "residue_product")
            refuse_in(patch, Matrix, "_shift_ints")
            found = detect_leonard(pair)
        assert (found.alpha, found.x, found.solution_dim) == (general.alpha, general.x, general.solution_dim)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=str)
def test_no_eigenvalue_of_a_validated_pair_goes_through_shift_ints(field, monkeypatch):
    # every tau-step, raising or lowering check and eigenvector check shifts
    # by R - r I for an integer root r, so Matrix._shift_ints, kept for
    # scalars from outside a decomposition, runs in no checked decomposition,
    # detection, switching, identity report, tau image, affine reduction or
    # witness construction: on validated pairs in all four orderings and
    # dense conjugates, and on a reducible configuration
    rng, cases = random.Random(61), []
    r, s = field.scalar(2), field.scalar(Fraction(-3, 5) if field == QQ else 3)
    for params, pair in pool_recipe_pairs(field):
        if pair.diameter in (1, 3, 5):
            for q in (*_orderings(pair), _dense_conjugate(pair, rng)):
                d, draw = q.diameter, [field.scalar(rng.randrange(1, 7)) for _ in range(2 * q.diameter)]
                sequences = LeonardParameterSet(field, q.eig_a.eigenvalues, q.eig_astar.eigenvalues, draw[:d], draw[d:])
                x = q.a.scale(r) + Matrix.identity(field, q.dim).scale(s)
                cases.append((q, sequences, q.vstar(0).basis[0], x))
    a, astar = Matrix(field, [[0, 0, 0], [1, 1, 0], [0, 0, 2]]), Matrix(field, [[0, 1, 0], [0, 1, 0], [0, 0, 2]])
    eig_a, eig_astar = (
        eig.reordered(sorted(range(3), key=eig.eigenvalues.__getitem__))
        for eig in map(tdpairs.eigen.eigen_decompose, (a, astar))
    )
    with monkeypatch.context() as patch:
        refuse_in(patch, Matrix, "_shift_ints")
        for pair, sequences, u, x in cases:
            for eig in (pair.eig_a, pair.eig_astar):
                assert EigenDecomposition(eig.operator, eig.eigenvalues, eig.eigenspaces).roots == eig.roots
            assert reduce_to_affine(pair, x) == AffineRelation(r=r, s=s)
            assert isinstance(tdpairs.leonard._detect(pair), LeonardCertificate)
            switching_from_sequences(sequences, pair.eig_a)
            assert complete_report(split_subspaces(pair)).all_true()
            assert len(tau_images(pair, u)) == pair.dim
            with pytest.raises(HypothesisNotMet, match="does not annihilate"):
                tdpairs.pairs.reducibility_witness_from_tau_kernel(pair.eig_a, pair.eig_astar, u, pair.diameter)
        w = tdpairs.pairs.reducibility_witness_from_tau_kernel(eig_a, eig_astar, eig_astar.eigenspaces[0].basis[0], 2)
    assert 0 < w.dim < 3 and maps_into(a, w, w) and maps_into(astar, w, w)
    assert {q.eig_a.eigenvalues == tuple(q.a[i, i] for i in range(q.dim)) for q, _, _, _ in cases} == {True, False}


def _switchings(pair, rng, monkeypatch):
    """(switching_from_sequences', the general route's, the idempotent
    sum's) S for the pair's eigenvalue orders and random nonzero split
    sequences (S = sum c_r E_r needs no parameter array), and whether S was
    built from its first column."""
    field, d = pair.field, pair.diameter
    draw = [field.scalar(rng.randrange(1, min(getattr(field, "p", 50), 50))) for _ in range(2 * d)]
    params = LeonardParameterSet(field, pair.eig_a.eigenvalues, pair.eig_astar.eigenvalues, draw[:d], draw[d:])
    es, c = primitive_idempotents(pair.eig_a), field.one
    want = es[0]
    for r in range(1, d + 1):
        c = c * params.phi[d - r] / params.varphi[r - 1]
        want = want + es[r].scale(c)
    built, band = [], tdpairs.leonard._split_polynomial
    with monkeypatch.context() as patch:
        patch.setattr(tdpairs.leonard, "_split_polynomial", lambda *args: built.append(args) or band(*args))
        s = switching_from_sequences(params, pair.eig_a)
        patch.setattr(tdpairs.leonard, "_split_diagonal", lambda *args: None)
        general = switching_from_sequences(params, pair.eig_a)
    return (s, general, want), bool(built)


def _reports(sd, monkeypatch):
    """(complete_report's, maps_into's on m - theta_i I per index) (eq7,
    eq8) of sd, and whether the report ran _lands_in."""
    pair, zero = sd.pair, Subspace.zero(sd.pair.field, sd.pair.dim)
    targets, landed, lands_in = (zero, *sd.U, zero), [], tdpairs.split._lands_in
    with monkeypatch.context() as patch:
        patch.setattr(tdpairs.split, "_lands_in", lambda *args: landed.append(args) or lands_in(*args))
        report = complete_report(sd)
    want = tuple(
        tuple(maps_into(m.shift(theta), u, t) for u, theta, t in zip(sd.U, eig.eigenvalues, targets[1 + step :]))
        for m, eig, step in ((pair.a, pair.eig_a, 1), (pair.astar, pair.eig_astar, -1))
    )
    return ((report.eq7, report.eq8), want), bool(landed)


@pytest.mark.parametrize("n", [1, 2, 4, 7, 13, 17, 24])
@pytest.mark.parametrize("field", [QQ, GF(101), GF(65521)], ids=str)
def test_switching_and_the_report_read_a_split_basis_on_the_ladder(field, n, monkeypatch):
    # a split form with A in its diagonal order has S built from its first
    # column, with A reversed by the general route, and in all four orders
    # S is the general route's and the idempotent sum; complete_report reads
    # eq7/eq8 off coordinate blocks exactly when every U_i is one, also on
    # corrupted ones (U reversed or rotated), with maps_into's flags
    rng, routes, blocks = random.Random(n), [], []
    for a, astar in _ladder_split_forms(field, n):
        for pair in _orderings(validate_pair(a, astar)):
            (s, general, want), built = _switchings(pair, rng, monkeypatch)
            assert s == general == want
            routes.append((pair.eig_a.eigenvalues == tuple(a[i, i] for i in range(n)), built))
            sd = split_subspaces(pair)
            for spaces in (sd.U, sd.U[::-1], sd.U[1:] + sd.U[:1]):
                (got, flags), landed = _reports(SplitDecomposition(spaces, pair, sd.report), monkeypatch)
                assert got == flags
                blocks.append((_in_diagonal_orders(pair), not landed, all(map(all, flags))))
    if n == 1:
        assert set(routes) == {(True, True)} and set(blocks) == {(True, True, True)}
    else:
        assert len(routes) == 2 * routes.count((True, True)) == 2 * routes.count((False, False))
        assert set(blocks) == {(True, True, True), (True, True, False), (False, False, True), (False, False, False)}


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=str)
def test_switching_near_a_split_basis_takes_the_general_route(field, monkeypatch):
    # A's order reversed, a dense conjugate, and a diagonal conjugate whose
    # subdiagonal is not 1: S by the general route, the idempotent sum;
    # Astar's order reversed keeps A's split basis, and S is built from its
    # first column.  Every report has maps_into's flags; the dense
    # conjugate's, whose U_i are no coordinate blocks, runs _lands_in
    rng = random.Random(43)
    for d in (1, 2, 4, 6):
        for seed in (0, 1):
            _, pair = random_leonard(field, d, seed)
            for k, near in enumerate(_near_split_bases(pair, rng)):
                (s, general, want), built = _switchings(near, rng, monkeypatch)
                assert s == general == want and built == (k == 1)
                (got, flags), landed = _reports(split_subspaces(near), monkeypatch)
                assert got == flags and all(map(all, flags)) and landed == (k != 3)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=str)
def test_a_recurrence_on_the_next_shift_fails_the_closing_step(field, monkeypatch):
    # X and S built with t_{k+1} in place of t_k (t_d kept for the closing
    # step) miss the factor A - theta_0 I, so (R - t_d I) v_d is not 0
    band = tdpairs.leonard._split_polynomial
    for a, astar in _ladder_split_forms(field, 7):
        (pair,) = (q for q in _orderings(validate_pair(a, astar)) if _in_diagonal_orders(q))
        with monkeypatch.context() as patch:
            patch.setattr(tdpairs.leonard, "_split_polynomial", lambda a, t, v, e: band(a, t[1:] + t[-1:], v, e))
            with pytest.raises(InvariantViolation, match="^polynomial in A does not commute with A$"):
                detect_leonard(pair)
            with pytest.raises(InvariantViolation, match="^polynomial in A does not commute with A$"):
                _switchings(pair, random.Random(7), monkeypatch)


def test_pool_recipe_generation_runs_no_general_validation(monkeypatch):
    # the acceptance pool's 200 draws: each is validated once, and every
    # split form of diameter at least 1 is certified by its parameter
    # array, with no block graph, Norton test or ordering search; diameter
    # 0 goes through the general engine
    engine = ("_block_edges", "irreducible", "path_orderings")
    counts = dict.fromkeys(("validate_pair", *engine), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(tdpairs.leonard, "validate_pair", counted("validate_pair", tdpairs.pairs.validate_pair))
    for name in engine:
        monkeypatch.setattr(tdpairs.pairs, name, counted(name, getattr(tdpairs.pairs, name)))
    for i in range(200):
        field = (QQ, GF(5), GF(7), GF(13))[i % 4]
        d = i % 7 % (5 if field == GF(5) else 7)
        before = dict(counts)
        random_leonard(field, d, seed=i)
        assert counts["validate_pair"] == before["validate_pair"] + 1, i
        if d:
            assert all(counts[name] == before[name] for name in engine), i
        else:
            assert all(counts[name] > before[name] for name in engine), i


def test_random_leonard_diameter_zero():
    params, pair = random_leonard(QQ, 0, seed=4)
    assert pair.diameter == 0
    assert params.varphi == () and params.phi == ()


def test_each_pair_object_is_detected_once(monkeypatch):
    _, pair = random_leonard(GF(13), 4, seed=3)
    cert = detect_leonard(pair)
    monkeypatch.setattr(tdpairs.leonard, "_detect", None)  # any new detection fails
    assert detect_leonard(pair) is cert
    assert switching_via_solve(pair) is cert.x
    monkeypatch.undo()
    # a reoriented pair is another object with its own certificate
    flipped = pair.with_reversed_a()
    assert detect_leonard(flipped) is not cert
    assert detect_leonard(flipped).alpha != cert.alpha


def test_random_leonard_raises_an_internal_error_instead_of_retrying(monkeypatch):
    # a bug while certifying a parameter array's split form is not a
    # rejected parameter set: a failure planted on the route, and a wrong
    # eigenline caught by the band check, are reported as the bug they
    # are, never as GeneratedPairInvalid
    params, _ = random_leonard(GF(7), 2, seed=1)
    split_form = tdpairs.leonard._split_matrices(GF(7), params.theta, params.thetastar, params.varphi)
    band_line = tdpairs.eigen._band_line

    def raising(*args):
        raise InvariantViolation("planted bug")

    def next_line(t, band, k, lower, p):  # the eigenline of another eigenvalue
        return band_line(t, band, (k + 1) % len(t), lower, p)

    for module, name, planted, message in (
        (tdpairs.pairs, "_band_decomposition", raising, "planted bug"),
        (tdpairs.eigen, "_band_line", next_line, "claimed eigenvector is not one"),
    ):
        calls = []

        def broken(*args, planted=planted):
            calls.append(args)
            return planted(*args)

        monkeypatch.setattr(module, name, broken)
        with pytest.raises(InvariantViolation, match=message):
            random_leonard(GF(7), 2, seed=1)
        assert len(calls) == 1
        with pytest.raises(InvariantViolation, match=message):
            validate_pair(*split_form)
        assert len(calls) == 2
        monkeypatch.undo()


def test_random_leonard_raises_a_rejected_draw_as_a_bug(monkeypatch):
    # every draw the family keeps satisfies PA1-PA5, so a rejection of its
    # split form is a bug, raised after one validation with no retry
    calls = []

    def rejecting(*args, **kwargs):
        calls.append(args)
        raise NotDiagonalizableOverField("planted rejection")

    monkeypatch.setattr(tdpairs.leonard, "validate_pair", rejecting)
    with pytest.raises(InvariantViolation, match="planted rejection"):
        random_leonard(GF(7), 2, seed=1)
    assert len(calls) == 1


def test_generation_outside_the_parameter_arrays_raises_validation_bugs(monkeypatch):
    # PA4 gives phi = (3, 3), but PA3 asks varphi_2 = 3 + 2 (1 - 2) = 1:
    # the split form goes through the general engine, which rejects it,
    # and a bug there is raised as it is
    params = LeonardParameterSet(
        field=QQ, theta=(0, 1, 2), thetastar=(0, 1, 2), varphi=(1, 2), phi=(3, 3)
    )
    assert leonard_parameter_array(QQ, params.theta, params.thetastar, params.varphi) is None
    split_form = tdpairs.leonard._split_matrices(QQ, params.theta, params.thetastar, params.varphi)
    assert tdpairs.pairs._split_form_pair(*split_form) is None
    with pytest.raises(GeneratedPairInvalid, match="^generated split form failed validation: "):
        generate_split_form(params)
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise InvariantViolation("planted bug")

    monkeypatch.setattr(tdpairs.leonard, "validate_pair", broken)
    with pytest.raises(InvariantViolation, match="planted bug"):
        generate_split_form(params)
    assert len(calls) == 1


def test_random_leonard_impossible_requests():
    with pytest.raises(ExhaustedRetries):
        random_leonard(GF(2), 3, seed=0)
    with pytest.raises(DimensionMismatch):
        random_leonard(QQ, -1, seed=0)
