"""Split decomposition identities, tau matrices, and tau image chains."""

from __future__ import annotations

import pytest

from tdpairs import (
    GF,
    QQ,
    DimensionMismatch,
    FieldMismatch,
    HypothesisNotMet,
    IrreducibilityReport,
    Matrix,
    ShapeVector,
    Subspace,
    TauImageVanished,
    TriDiagonalPair,
    complete_report,
    eigen_decompose,
    reducibility_witness_from_tau_kernel,
    split_subspaces,
    tau_images,
    validate_pair,
)
from tdpairs.split import SplitDecomposition

from oracles import TENSOR_PARAMS, flatten, poly_eval_matrix, poly_product, tau_matrices_by_product, tensor_fixture


def qm(rows):
    return Matrix(QQ, [[QQ.scalar(x) for x in r] for r in rows])


def gm(p, rows):
    f = GF(p)
    return Matrix(f, [[f.scalar(x) for x in r] for r in rows])


A_D2 = [[0, 0, 0], [1, 1, 0], [0, 1, 2]]
ASTAR_D2 = [[0, 1, 0], [0, 1, 1], [0, 0, 2]]


def d2_pair(field_maker=qm):
    return validate_pair(field_maker(A_D2), field_maker(ASTAR_D2))


# ---- identities on genuine pairs --------------------------------------------


def test_split_identities_on_rational_example():
    pair = d2_pair()
    sd = split_subspaces(pair)
    assert sd.report.eq4 is True
    assert sd.report.eq5 == (True, True, True)
    assert sd.report.eq6 == (True, True, True)
    assert sd.dims == tuple(pair.shape) == (1, 1, 1)
    full = complete_report(sd)
    assert full.all_true()
    assert full.eq7 == (True, True, True)
    assert full.eq8 == (True, True, True)
    assert full.eq10 == (True, True, True)


def test_split_identities_over_prime_field():
    pair = validate_pair(gm(7, A_D2), gm(7, ASTAR_D2))
    sd = split_subspaces(pair)
    assert complete_report(sd).all_true()
    assert sd.dims == (1, 1, 1)


def test_split_endpoint_subspaces_match_flags():
    pair = d2_pair()
    sd = split_subspaces(pair)
    # eq5 at 0 and eq6 at d specialize to these equalities
    assert sd.U[0] == pair.vstar(0)
    assert sd.U[2] == pair.v(2)


def test_split_dims_follow_shape_on_fat_pair():
    theta, mu, varphis = TENSOR_PARAMS["Q"]
    a, astar = tensor_fixture(QQ, theta, mu, varphis)
    pair = validate_pair(a, astar)
    assert tuple(pair.shape) == (1, 2, 1)
    sd = split_subspaces(pair)
    assert complete_report(sd).all_true()
    assert sd.dims == (1, 2, 1)


def test_split_diameter_zero():
    pair = validate_pair(qm([[5]]), qm([[7]]))
    sd = split_subspaces(pair)
    assert sd.dims == (1,)
    assert complete_report(sd).all_true()


# ---- a corrupted decomposition is caught per index ---------------------------


def test_corrupted_middle_subspace_fails_pinpointed_flags():
    pair = d2_pair()
    good = split_subspaces(pair)
    e0_line = Subspace.span(QQ, 3, [(QQ.one, QQ.zero, QQ.zero)])
    corrupted = SplitDecomposition(
        U=(good.U[0], e0_line, good.U[2]), pair=pair, report=good.report
    )
    report = complete_report(corrupted)
    assert report.eq7[0] is False  # (A - theta_0) U_0 no longer lands in U_1
    assert report.eq10[1] is False
    assert not report.all_true()


def test_complete_report_checks_each_subspace_at_the_boundary():
    # one bad U_1 is caught before any identity is computed, with the
    # exception types and messages of maps_into's checks
    pair = d2_pair()
    good = split_subspaces(pair)
    f5 = GF(5)
    for bad, exc, message in (
        (Subspace.span(f5, 3, [(f5.one, f5.zero, f5.zero)]), FieldMismatch, f"{QQ!r} vs {f5!r}"),
        (Subspace.span(QQ, 4, [(QQ.one, QQ.zero, QQ.zero, QQ.zero)]), DimensionMismatch, "ambient 3 vs 4"),
    ):
        corrupted = SplitDecomposition(U=(good.U[0], bad, good.U[2]), pair=pair, report=good.report)
        with pytest.raises(exc) as err:
            complete_report(corrupted)
        assert str(err.value) == message


def test_all_true_requires_every_stage():
    pair = d2_pair()
    sd = split_subspaces(pair)
    # raising/lowering and tau flags are not yet computed
    assert not sd.report.all_true()
    assert sd.report.eq7 is None and sd.report.eq8 is None and sd.report.eq10 is None


# ---- tau matrices ------------------------------------------------------------


def test_tau_basis_structure():
    # the oracle's running product is Horner's tau_i(A); the d + 1 of
    # them span the subalgebra generated by A, and tau_images reads
    # tau_i(A) u off one shifted chain
    pair = d2_pair()
    mats = tau_matrices_by_product(pair)
    assert len(mats) == 3
    assert mats[0] == Matrix.identity(QQ, 3)
    thetas = pair.eig_a.eigenvalues
    for i, m in enumerate(mats):
        tau = poly_product(QQ, [[-t, 1] for t in thetas[:i]])
        assert len(tau) - 1 == i
        assert m == poly_eval_matrix(tau, pair.a)
    assert Subspace.span(QQ, 9, [flatten(m) for m in mats]).dim == 3
    for u in pair.vstar(0).basis:
        assert tau_images(pair, u) == tuple(m.apply(u) for m in mats)


# ---- tau image chains --------------------------------------------------------


def test_tau_images_of_running_example_are_standard_basis():
    pair = d2_pair()
    u = pair.vstar(0).basis[0]
    images = tau_images(pair, u)
    expect = [
        (QQ.one, QQ.zero, QQ.zero),
        (QQ.zero, QQ.one, QQ.zero),
        (QQ.zero, QQ.zero, QQ.one),
    ]
    assert [tuple(w) for w in images] == expect


def test_tau_images_live_in_split_subspaces():
    theta, mu, varphis = TENSOR_PARAMS["Q"]
    pair = validate_pair(*tensor_fixture(QQ, theta, mu, varphis))
    sd = split_subspaces(pair)
    images = tau_images(pair, pair.vstar(0).basis[0], sd)
    assert len(images) == pair.diameter + 1
    for i, w in enumerate(images):
        assert sd.U[i].contains(w)


def test_tau_images_hypothesis_checks():
    pair = d2_pair()
    with pytest.raises(HypothesisNotMet):
        tau_images(pair, (QQ.zero, QQ.zero, QQ.zero))
    with pytest.raises(HypothesisNotMet):
        tau_images(pair, (QQ.zero, QQ.one, QQ.zero))  # not in Vstar_0


def test_vanishing_tau_image_feeds_the_witness_construction():
    # a deliberately reducible configuration assembled by hand: the
    # raised chain from Vstar_0 dies at step 2, and the resulting
    # TauImageVanished data yields a machine-checked invariant subspace
    a = qm([[0, 0, 0], [1, 1, 0], [0, 0, 2]])
    astar = qm([[0, 1, 0], [0, 1, 0], [0, 0, 2]])

    def ordered(eig):
        order = sorted(range(len(eig.eigenvalues)), key=lambda i: eig.eigenvalues[i])
        return eig.reordered(tuple(order))

    eig_a = ordered(eigen_decompose(a))
    eig_astar = ordered(eigen_decompose(astar))
    fake = TriDiagonalPair(
        a=a,
        astar=astar,
        eig_a=eig_a,
        eig_astar=eig_astar,
        shape=ShapeVector((1, 1, 1)),
        irreducibility=IrreducibilityReport.irreducible("forced for this test"),
    )
    u = fake.vstar(0).basis[0]
    with pytest.raises(TauImageVanished) as exc:
        tau_images(fake, u)
    assert exc.value.index == 2
    w = reducibility_witness_from_tau_kernel(eig_a, eig_astar, exc.value.u, exc.value.index)
    assert 0 < w.dim < 3
    for b in w.basis:
        assert w.contains(a.apply(b)) and w.contains(astar.apply(b))
