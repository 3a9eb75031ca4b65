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
    random_leonard,
    reducibility_witness_from_tau_kernel,
    split_subspaces,
    tau_images,
    validate_pair,
)
import tdpairs.split
import tdpairs.subspaces
from tdpairs.split import SplitDecomposition, SplitReport

from oracles import (
    TENSOR_PARAMS,
    flatten,
    kron_sum_fixture,
    poly_eval_matrix,
    poly_product,
    split_by_definition,
    tau_matrices_by_product,
    tensor_fixture,
)


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


def test_all_true_is_false_on_any_false_flag():
    ok = dict(eq4=True, eq5=(True,), eq6=(True,), eq7=(True,), eq8=(True,), eq10=(True,))
    assert SplitReport(**ok).all_true()
    for name in ok:
        assert not SplitReport(**{**ok, name: False if name == "eq4" else (False,)}).all_true()


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
    images = tau_images(pair, pair.vstar(0).basis[0])
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


# ---- the coordinate-flag path against the definition ---------------------------


SPLIT_FIELDS = (QQ, GF(5), GF(7), GF(13), GF(101))


def _counting_sums_and_meets(monkeypatch):
    """Count subspace_sum and subspace_intersect calls, wherever looked up."""
    calls = [0]
    for name in ("subspace_sum", "subspace_intersect"):
        original = getattr(tdpairs.subspaces, name)

        def counted(*args, _original=original):
            calls[0] += 1
            return _original(*args)

        monkeypatch.setattr(tdpairs.subspaces, name, counted)
        monkeypatch.setattr(tdpairs.split, name, counted)
    return calls


def _assert_split_is_the_definition(pair):
    sd = split_subspaces(pair)
    us, eq4, eq5, eq6 = split_by_definition(pair)
    assert sd.U == us
    assert (sd.report.eq4, sd.report.eq5, sd.report.eq6) == (eq4, eq5, eq6)
    return sd


def _diagonal_orders(pair):
    """The pair with each side's eigenvalues in the order of its diagonal."""
    if pair.theta(0) != pair.a.rows[0][0]:
        pair = pair.with_reversed_a()
    if pair.thetastar(0) != pair.astar.rows[0][0]:
        pair = pair.with_reversed_astar()
    return pair


def _by_popcount(m, k):
    """m in the basis of a k-fold Kronecker sum sorted by the number of
    raised factors, so that equal diagonal entries are adjacent."""
    order = sorted(range(2**k), key=int.bit_count)
    return Matrix(m.field, [[m.rows[i][j] for j in order] for i in order])


@pytest.mark.parametrize("field", SPLIT_FIELDS, ids=str)
def test_split_subspaces_equal_the_definition_on_split_forms_in_all_four_orders(field):
    for d in range(min(6, getattr(field, "p", 7) - 1) + 1):
        for seed in range(5):
            pair = random_leonard(field, d, seed)[1]
            for variant in (pair, pair.with_reversed_a(), pair.with_reversed_astar()):
                _assert_split_is_the_definition(variant)
            sd = _assert_split_is_the_definition(pair.with_reversed_a().with_reversed_astar())
            assert sd.report.eq4 is True and sd.dims == (1,) * (d + 1)


@pytest.mark.parametrize(
    "field, thetas, varphis, rho",
    [
        (QQ, (TENSOR_PARAMS["Q"][0], TENSOR_PARAMS["Q"][1]), TENSOR_PARAMS["Q"][2], (1, 2, 1)),
        (GF(7), TENSOR_PARAMS["gf7"][:2], TENSOR_PARAMS["gf7"][2], (1, 2, 1)),
        (QQ, ((0, 1),) * 3, (1, 2, 3), (1, 3, 3, 1)),
        (GF(101), ((0, 1), (2, 3), (5, 6)), (1, 2, 3), (1, 3, 3, 1)),
    ],
    ids=["Q-121", "gf7-121", "Q-1331", "gf101-1331"],
)
def test_wide_coordinate_blocks_equal_the_definition(field, thetas, varphis, rho, monkeypatch):
    a, astar = (_by_popcount(m, len(thetas)) for m in kron_sum_fixture(field, thetas, varphis))
    pair = _diagonal_orders(validate_pair(a, astar))
    calls = _counting_sums_and_meets(monkeypatch)
    sd = _assert_split_is_the_definition(pair)
    assert calls[0] == 0  # read off the coordinate flags
    assert sd.dims == rho and sd.report.eq4 is True
    ends = [sum(rho[: i + 1]) for i in range(len(rho))]
    assert sd.U == tuple(Subspace.block(field, pair.dim, lo, hi) for lo, hi in zip([0, *ends], ends))
    assert complete_report(sd).all_true()


def test_a_pair_whose_dimension_vectors_differ_takes_the_definition(monkeypatch):
    # both flags are coordinate flags, but the dimension vectors are (1, 2)
    # and (2, 1): the blocks do not tile.  With A's (2, 1) every row also
    # lies where A's dimensions would put it, so only the dimension check
    # keeps the blocks [0, 2), [2, 3) from being reported
    one_two, two_one = qm([[0, 0, 0], [0, 1, 0], [0, 0, 1]]), qm([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    calls = _counting_sums_and_meets(monkeypatch)
    for a, astar, want in (
        (one_two, two_one, ((0, 2), (1, 3))),
        (two_one, one_two, ((0, 1), (2, 3))),
    ):
        fake = TriDiagonalPair(
            a=a,
            astar=astar,
            eig_a=eigen_decompose(a),
            eig_astar=eigen_decompose(astar),
            shape=ShapeVector((1, 1)),  # a placeholder: split_subspaces reads the decompositions
            irreducibility=IrreducibilityReport.irreducible("forced for this test"),
        )
        before = calls[0]
        sd = _assert_split_is_the_definition(fake)
        assert calls[0] > before
        assert sd.U == tuple(Subspace.block(QQ, 3, lo, hi) for lo, hi in want)
        assert sd.report.eq4 is False


@pytest.mark.parametrize("field", (QQ, GF(7), GF(101)), ids=str)
def test_split_forms_need_no_sum_or_intersection_unless_an_order_is_reversed(field, monkeypatch):
    pairs = [random_leonard(field, d, 40 + d)[1] for d in range(1, 7)]
    calls = _counting_sums_and_meets(monkeypatch)
    for pair in pairs:
        for variant, reversed_side in (
            (pair, False),
            (pair.with_reversed_a(), True),
            (pair.with_reversed_astar(), True),
        ):
            before = calls[0]
            split_subspaces(variant)
            assert (calls[0] > before) == reversed_side


def test_subspace_block_is_the_span_of_its_unit_vectors():
    for field in (QQ, GF(5)):
        for lo, hi in ((0, 0), (0, 4), (1, 3), (3, 4)):
            units = [[int(i == j) for j in range(4)] for i in range(lo, hi)]
            assert Subspace.block(field, 4, lo, hi) == Subspace.span(field, 4, units)
        assert Subspace.block(field, 4, 0, 4) == Subspace.full(field, 4)


def test_tau_images_take_only_the_pair_and_the_vector():
    pair = random_leonard(QQ, 3, 1)[1]
    other = random_leonard(QQ, 2, 2)[1]
    with pytest.raises(TypeError):
        tau_images(pair, pair.vstar(0).basis[0], split_subspaces(other))
