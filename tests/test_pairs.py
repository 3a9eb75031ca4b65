"""Pair validation: shape, orderings, irreducibility, witnesses."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from tdpairs import (
    GF,
    QQ,
    DiameterMismatch,
    DimensionMismatch,
    FieldMismatch,
    HypothesisNotMet,
    InconclusiveIrreducibility,
    InvariantViolation,
    Matrix,
    NoTridiagonalOrdering,
    NotDiagonalizableOverField,
    NotIrreducible,
    ParseError,
    ShapeVector,
    eigen_decompose,
    irreducible,
    random_leonard,
    reducibility_witness_from_tau_kernel,
    shape,
    support_path_orderings,
    validate_pair,
)
import tdpairs.eigen
import tdpairs.pairs
import tdpairs.search
from tdpairs.eigen import eigencoordinate_change, eigenspaces, invert
from tdpairs.subspaces import Subspace, kernel
from tdpairs.pairs import path_orderings

from oracles import (
    TENSOR_PARAMS,
    block_edges_per_vector,
    brute_common_invariant,
    brute_common_invariant_dim3,
    char_poly_by_interpolation,
    closure_algebra,
    kron_sum_fixture,
    matrix_to_int_rows,
    multiplicity_free_pair,
    rational_roots_by_divisors,
    reversed_pair,
    scalar_restriction_fixture,
    spin_reducible,
    subspace_vector_set,
    tensor_fixture,
)
from test_linalg import _vals, _wide


def qm(rows):
    return Matrix(QQ, [[QQ.scalar(x) for x in r] for r in rows])


def gm(p, rows):
    f = GF(p)
    return Matrix(f, [[f.scalar(x) for x in r] for r in rows])


# the running diameter-2 example: split form with theta = thetastar = (0,1,2)
A_D2 = [[0, 0, 0], [1, 1, 0], [0, 1, 2]]
ASTAR_D2 = [[0, 1, 0], [0, 1, 1], [0, 0, 2]]


# ---- ShapeVector ------------------------------------------------------------


def test_shape_vector_accepts_symmetric_unimodal():
    for rho in ((1,), (1, 1), (1, 2, 1), (1, 2, 2, 1), (1, 3, 5, 3, 1)):
        sv = ShapeVector(rho)
        assert tuple(sv) == rho
        assert sv.diameter == len(rho) - 1
    assert ShapeVector((1, 1, 1)).is_all_ones()
    assert not ShapeVector((1, 2, 1)).is_all_ones()


def test_shape_vector_rejects_bad_vectors():
    # entries that are not ints, a bool included, are rejected, not
    # converted or truncated
    for rho in ((), (0,), (-1,), (1, 2), (2, 1, 2), (1, 3, 2, 3, 1), ("a",), (None,), (1, 2.7, 1), (True,)):
        with pytest.raises(ParseError):
            ShapeVector(rho)


def test_shape_vector_rejects_nonunimodal_symmetric():
    # symmetric but dips in the middle
    with pytest.raises(ParseError):
        ShapeVector((2, 1, 2))


def test_bad_shape_of_a_certified_pair_is_a_bug():
    # a shape is user input to ShapeVector, but a certified pair whose
    # eigenspace dimensions fail the check is an internal error
    pair = validate_pair(qm(A_D2), qm(ASTAR_D2))
    eig = eigen_decompose(qm([[1, 0, 0], [0, 2, 0], [0, 0, 2]]))
    assert eig.dims() == (1, 2)
    with pytest.raises(InvariantViolation, match="bad shape"):
        shape(dataclasses.replace(pair, eig_a=eig, eig_astar=eig))
    with pytest.raises(InvariantViolation, match="differ"):
        shape(dataclasses.replace(pair, eig_a=eig))


# ---- support graph ----------------------------------------------------------


def test_support_orderings_of_valid_pair_are_walk_and_reverse():
    a, astar = qm(A_D2), qm(ASTAR_D2)
    eig = eigen_decompose(a)
    orderings = support_path_orderings(eig, astar)
    assert len(orderings) == 2
    assert orderings[0] == tuple(reversed(orderings[1]))


def _check_block_edges(eig, b):
    p = getattr(eig.field, "p", None)
    spaces = [[_vals(v) for v in space.basis] for space in eig.eigenspaces]
    b_rows = [_vals(row) for row in b.rows]
    edges = tdpairs.pairs._block_edges(eig, b)
    assert edges == block_edges_per_vector(p, spaces, b_rows)
    return edges


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101), GF(65521)], ids=str)
def test_block_edges_match_the_per_vector_definition(field):
    # A = P D P^-1 with repeated eigenvalues in D and B random, so that
    # blocks of every size are zero or not; the product C^-1 B C must give
    # the edges that one C^-1 B v per eigenvector gives
    rng = random.Random(7 if field == QQ else field.p)
    draw = (lambda: _wide(rng)) if field == QQ else (lambda: rng.randrange(field.p))
    found = set()
    for _ in range(25):
        n = rng.randint(1, 6)
        lower = Matrix(field, [[draw() if j < i else int(i == j) for j in range(n)] for i in range(n)])
        p_mat = lower @ lower.transpose()
        values = [rng.randrange(min(3, getattr(field, "p", 3))) for _ in range(n)]
        a = p_mat @ Matrix.diagonal(field, values) @ invert(p_mat)
        b = Matrix(field, [[draw() if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)])
        if rng.random() < 0.3:  # B with A's eigenspaces: no edges
            b = p_mat @ Matrix.diagonal(field, [draw() for _ in range(n)]) @ invert(p_mat)
        found.add(len(_check_block_edges(eigen_decompose(a), b)))
    if getattr(field, "p", 101) > 3:  # pairs of shape (1, 1, 1) and (1, 3, 3, 1)
        fixtures = [(Matrix(field, A_D2), Matrix(field, ASTAR_D2))]
        fixtures.append(kron_sum_fixture(field, ((0, 1),) * 3, (1, 1, 1)))
        for a, astar in fixtures:
            found.add(len(_check_block_edges(eigen_decompose(a), astar)))
            found.add(len(_check_block_edges(eigen_decompose(astar), a)))
    assert 0 in found and len(found) > 2


def test_support_orderings_diameter_zero():
    eig = eigen_decompose(qm([[4]]))
    assert support_path_orderings(eig, qm([[9]])) == [(0,)]


def test_triangle_support_graph_has_no_ordering():
    # Astar = P diag(0,1,2) P^{-1} with Vandermonde P: every pairwise
    # block is nonzero, so the support graph is a triangle, not a path.
    a = qm([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    p = qm([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    astar = p @ a @ invert(p)
    eig = eigen_decompose(a)
    assert support_path_orderings(eig, astar) == []
    with pytest.raises(NoTridiagonalOrdering) as exc:
        validate_pair(a, astar)
    assert exc.value.side == "A"


def test_disconnected_support_graph_has_no_ordering():
    # diag/diag: no edges at all, d = 1 needs one
    eig = eigen_decompose(qm([[0, 0], [0, 1]]))
    assert support_path_orderings(eig, qm([[2, 0], [0, 3]])) == []


def test_path_orderings_match_brute_force_on_every_small_graph():
    for count in range(1, 6):
        pairs = list(itertools.combinations(range(count), 2))
        for mask in range(2 ** len(pairs)):
            edges = {e for i, e in enumerate(pairs) if mask >> i & 1}
            want = {
                order
                for order in itertools.permutations(range(count))
                if edges == {tuple(sorted(order[i : i + 2])) for i in range(count - 1)}
            }
            # direction and loops do not matter
            given = {(j, i) for i, j in edges} | {(0, 0)}
            got = path_orderings(count, given)
            assert set(got) == want and len(got) == len(want), (count, edges)
            assert not got or got[-1] == got[0][::-1]


# ---- closure algebra --------------------------------------------------------


def test_closure_algebra_full_for_valid_pair():
    a, astar = qm(A_D2), qm(ASTAR_D2)
    basis, dim = closure_algebra(a, astar)
    assert dim == 9


def test_closure_algebra_small_for_commuting_diagonals():
    basis, dim = closure_algebra(qm([[0, 0], [0, 1]]), qm([[2, 0], [0, 3]]))
    assert dim == 2  # the diagonal algebra


def test_condensed_algebra_of_the_whole_space_is_the_closure_algebra():
    # K = V, E = I: the condensed algebra is the algebra itself
    rng = random.Random(3)
    pairs = [(qm(A_D2), qm(ASTAR_D2)), (qm([[0, 0], [0, 1]]), qm([[2, 0], [0, 3]]))]
    for p in (2, 3):
        for n in (2, 3, 4):
            pairs.append(
                tuple(
                    gm(p, [[rng.randrange(p) * rng.randrange(2) for _ in range(n)] for _ in range(n)])
                    for _ in range(2)
                )
            )
    for a, astar in pairs:
        basis, dim = tdpairs.pairs.closure_algebra(a, astar)
        assert dim == len(basis) == closure_algebra(a, astar)[1]


# ---- irreducibility: GF engine against brute force --------------------------


def test_gf_reducible_diag_diag_with_verified_witness():
    a, astar = gm(3, [[0, 0], [0, 1]]), gm(3, [[2, 0], [0, 1]])
    rep = irreducible(a, astar)
    assert rep.is_reducible()
    w = rep.witness
    assert 0 < w.dim < 2
    for b in w.basis:
        assert w.contains(a.apply(b)) and w.contains(astar.apply(b))


def test_gf_irreducible_valid_pair():
    a, astar = gm(7, A_D2), gm(7, ASTAR_D2)
    rep = irreducible(a, astar)
    assert rep.is_irreducible()
    assert (
        brute_common_invariant_dim3(7, matrix_to_int_rows(a), matrix_to_int_rows(astar))
        is None
    )


def test_gf_pair_without_eigenvalues_decided_by_line_spin_up():
    # A and Astar generate a copy of GF(9) inside End(GF(3)^2): no
    # eigenvalue in GF(3), so Norton's test runs with K = V and t = 0, and
    # the algebra has no common eigenline, so V is simple
    a, astar = gm(3, [[0, 2], [1, 0]]), gm(3, [[1, 2], [1, 1]])
    assert closure_algebra(a, astar)[1] == 2
    rep = irreducible(a, astar)
    assert rep.is_irreducible()
    assert brute_common_invariant(3, matrix_to_int_rows(a), matrix_to_int_rows(astar)) is None


def test_gf_hidden_invariant_line_found():
    # span{e0 + e1} is invariant under both
    f = GF(5)
    a = gm(5, [[1, 2, 0], [2, 1, 0], [2, 3, 4]])  # a(e0+e1) = 3(e0+e1)
    astar = gm(5, [[2, 4, 1], [4, 2, 2], [0, 0, 3]])  # astar(e0+e1) = (e0+e1)
    rep = irreducible(a, astar)
    assert rep.is_reducible()
    assert rep.witness.contains((f.one, f.one, f.zero))


# ---- irreducibility: Q engine ----------------------------------------------


def test_q_reducible_diag_diag():
    rep = irreducible(qm([[0, 0], [0, 1]]), qm([[2, 0], [0, 3]]))
    assert rep.is_reducible()


def test_q_structured_search_finds_pure_eigenspace_witness():
    # W = V_0 (both coordinates of the first eigenspace) is invariant
    a = qm([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    astar = qm([[1, 0, 5], [0, 2, 7], [0, 0, 3]])
    rep = irreducible(a, astar)
    assert rep.is_reducible()
    # Norton on the line V_1 = span{e2}: it spins to V, and the dual
    # spin-up of e2 stays proper, so its annihilator V_0 is the witness
    assert rep.diagnostic == "annihilator of a proper dual spin-up"


def test_q_structured_search_finds_line_slice_witness_rank2_coupling():
    # A = diag(0,0,1,1); W = span{e0, e2} slices both eigenspaces in a
    # line, and the coupling blocks of Astar have full rank.
    a = qm([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    astar = qm([[1, 1, 2, 1], [0, 3, 0, 2], [1, 4, 5, 1], [0, 1, 0, 6]])
    rep = irreducible(a, astar)
    assert rep.is_reducible()
    assert rep.diagnostic == "spin-up of a kernel vector of a singular algebra element"
    w = rep.witness
    for b in w.basis:
        assert w.contains(a.apply(b)) and w.contains(astar.apply(b))


def test_q_structured_search_finds_line_slice_witness_rank1_coupling():
    # Astar maps e0 to e0 + e2 but e2 only to itself: rank-1 coupling
    a = qm([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    astar = qm([[1, 1, 0, 1], [0, 3, 0, 2], [1, 4, 2, 1], [0, 1, 0, 6]])
    rep = irreducible(a, astar)
    assert rep.is_reducible()
    w = rep.witness
    for b in w.basis:
        assert w.contains(a.apply(b)) and w.contains(astar.apply(b))


def test_q_reducible_found_after_conjugation_defeats_spins():
    rng = random.Random(5)
    a = qm([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    astar = qm([[1, 1, 2, 1], [0, 3, 0, 2], [1, 4, 5, 1], [0, 1, 0, 6]])
    while True:
        p = qm([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        try:
            pi = invert(p)
            break
        except Exception:
            continue
    rep = irreducible(p @ a @ pi, p @ astar @ pi)
    assert rep.is_reducible()
    w = rep.witness
    ac, sc = p @ a @ pi, p @ astar @ pi
    for b in w.basis:
        assert w.contains(ac.apply(b)) and w.contains(sc.apply(b))


# frozen 6-dimensional candidate: both operators are diagonalizable with
# eigenspace dimensions (3, 3) and share exactly one eigenvector, hidden
# by a change of basis.  The line witness sits inside a 3-dimensional
# eigenspace; the condensed algebra of that eigenspace has it as a
# common eigenline.
A_INCONCLUSIVE = [
    ["7/6", "-2/3", "1/3", "1/2", "1/3", "1/2"],
    ["-35/9", "29/9", "-13/9", "-7/3", "-28/9", "-2"],
    ["-25/9", "22/9", "-8/9", "-5/3", "-20/9", "-1"],
    ["-109/18", "44/9", "-25/9", "-23/6", "-49/9", "-9/2"],
    ["1/6", "-2/3", "1/3", "1/2", "4/3", "1/2"],
    ["20/9", "-14/9", "10/9", "4/3", "16/9", "2"],
]
ASTAR_INCONCLUSIVE = [
    ["38/45", "4/45", "-8/45", "-1/3", "16/45", "-3/5"],
    ["19/45", "2/45", "-4/45", "1/3", "8/45", "1/5"],
    ["947/810", "-367/405", "194/405", "35/54", "422/405", "7/10"],
    ["19/18", "1/9", "-2/9", "11/6", "4/9", "3/2"],
    ["23/405", "-206/405", "142/405", "11/27", "121/405", "3/5"],
    ["-19/18", "-1/9", "2/9", "-5/6", "-4/9", "-1/2"],
]


def test_q_hidden_deep_slice_is_reducible():
    a, astar = qm(A_INCONCLUSIVE), qm(ASTAR_INCONCLUSIVE)
    rep = irreducible(a, astar)
    assert rep.is_reducible()
    with pytest.raises(NotIrreducible) as exc:
        validate_pair(a, astar)
    assert exc.value.witness == rep.witness


# A_INCONCLUSIVE / ASTAR_INCONCLUSIVE in a basis whose first vector is
# their shared eigenvector: eigenspace dimensions (3, 3) on both sides,
# and the spin-up of e0 is the witness.
A_SHARED_E0 = [
    ["0", "-35/9", "-13/9", "-7/3", "-28/9", "-2"],
    ["0", "7/6", "1/3", "1/2", "1/3", "1/2"],
    ["0", "5", "2", "3", "4", "3"],
    ["0", "-13/6", "-4/3", "-3/2", "-7/3", "-5/2"],
    ["0", "1/6", "1/3", "1/2", "4/3", "1/2"],
    ["0", "-5/3", "-1/3", "-1", "-4/3", "0"],
]
ASTAR_SHARED_E0 = [
    ["0", "19/45", "-4/45", "1/3", "8/45", "1/5"],
    ["0", "38/45", "-8/45", "-1/3", "16/45", "-3/5"],
    ["0", "263/810", "266/405", "-1/54", "278/405", "3/10"],
    ["0", "19/30", "-2/15", "3/2", "4/15", "13/10"],
    ["0", "23/405", "142/405", "11/27", "121/405", "3/5"],
    ["0", "-19/30", "2/15", "-1/2", "-4/15", "-3/10"],
]


def test_q_shared_standard_eigenvector_found_by_standard_basis_spin():
    a, astar = qm(A_SHARED_E0), qm(ASTAR_SHARED_E0)
    for m in (a, astar):
        assert eigen_decompose(m).dims() == (3, 3)
    with pytest.raises(NotIrreducible) as exc:
        validate_pair(a, astar)
    w = exc.value.witness
    assert w.dim == 1 and w.contains((QQ.one,) + (QQ.zero,) * 5)


# ---- Norton's test on a 2-dimensional eigenspace ----------------------------


def _invertible(field, n, rng, keep=0):
    """A random invertible matrix and its inverse; with keep = w, block
    upper triangular, so it maps span{e_0..e_{w-1}} into itself."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for r in range(keep, n):
            rows[r][:keep] = [0] * keep
        m = Matrix(field, rows)
        try:
            m_inv = invert(m)
        except HypothesisNotMet:
            continue
        if m @ m_inv == Matrix.identity(field, n):
            return m, m_inv


def _hidden_pair(field, rng, thetas, thetastars, w=0):
    """P diag(thetas) P^-1 and P Q diag(thetastars) Q^-1 P^-1 for random
    invertible P and Q.  With w > 0, Q keeps span{e_0..e_{w-1}}, so both
    operators keep W = P span{e_0..e_{w-1}}; W then meets each
    eigenspace of A in as many dimensions as its eigenvalue has among
    thetas[:w]."""
    n = len(thetas)
    q, q_inv = _invertible(field, n, rng, keep=w)
    p, p_inv = _invertible(field, n, rng)
    a = p @ Matrix.diagonal(field, thetas) @ p_inv
    astar = p @ q @ Matrix.diagonal(field, thetastars) @ q_inv @ p_inv
    return a, astar


def _condensed_norton(a, astar, eig, i):
    """Norton's test on eigenspace i of A, decided by its condensed
    algebra, as the engine runs it; returns the report and the algebra."""
    field = a.field
    krows = Matrix(field, eig.eigenspaces[i].basis)._ints[0]  # over one denominator
    _, c_inv, ranges = eigencoordinate_change(eig)
    coords = Matrix(field, c_inv.rows[slice(*ranges[i])])
    b = tdpairs.pairs._condensed(a, astar, krows, coords)
    theta = eig.eigenvalues[i]
    rep = tdpairs.pairs._norton(a, astar, a, theta, krows, lambda: tdpairs.pairs._submodule(field, b))
    return rep, b


def _every_line_verdict(a, astar, eig, i):
    """Norton's test on eigenspace i of A that spins every line of it in
    V: the complete reference for small fields."""
    field, n = a.field, a.nrows
    spin = tdpairs.pairs._spin
    lines = tdpairs.pairs._gf_lines(field, eig.eigenspaces[i].basis)
    if any(spin(field, n, [v], (a, astar)).dim < n for v in lines):
        return "reducible"
    t = a - Matrix.identity(field, n).scale(eig.eigenvalues[i])
    w = Matrix(field, kernel(t.transpose()).basis[:1])._ints[0]
    dual = spin(field, n, w, (a.transpose(), astar.transpose()))
    return "irreducible" if dual.dim == n else "reducible"


def _has_submodule(field, b):
    """Whether some line of K spins to a proper subspace of K under the
    condensed algebra b, by spinning every line."""
    k = b[0].nrows
    lines = tdpairs.pairs._gf_lines(field, Matrix.identity(field, k).rows)
    return any(tdpairs.pairs._spin(field, k, [v], b).dim < k for v in lines)


@pytest.mark.parametrize("field", (GF(3), QQ), ids=("GF3", "Q"))
def test_spin_is_the_canonical_span_of_every_image(field):
    # the spin hands its echelon over as the subspace's basis; equality
    # with the canonical span of every image of the seeds under words of
    # length <= n checks both the space and that the basis is canonical
    rng = random.Random(41)

    def entry():
        return rng.randint(-1, 1) if rng.random() < 0.4 else 0

    for _ in range(30):
        n = rng.randint(1, 5)
        ops = [Matrix(field, [[entry() for _ in range(n)] for _ in range(n)]) for _ in range(2)]
        seeds = [tuple(field.scalar(entry()) for _ in range(n)) for _ in range(rng.randint(1, 2))]
        spun = tdpairs.pairs._spin(field, n, Matrix(field, seeds)._ints[0], ops)
        images, frontier = list(seeds), list(seeds)
        for _ in range(n):
            frontier = [g.apply(v) for v in frontier for g in ops]
            images += frontier
        assert spun == Subspace.span(field, n, images)


def test_plane_lines_match_brute_force_over_gf2():
    # A of shape (2, 2) on GF(2)^4 and a random Astar: Norton's test on
    # either eigenspace of A, decided by its condensed algebra, must agree
    # with the enumeration of every subspace, and the algebra's verdict
    # on the plane with the spins of its lines
    rng = random.Random(29)
    f = GF(2)
    seen = set()
    for _ in range(60):
        p, p_inv = _invertible(f, 4, rng)
        a = p @ Matrix.diagonal(f, (0, 0, 1, 1)) @ p_inv
        astar = gm(2, [[rng.randrange(2) for _ in range(4)] for _ in range(4)])
        brute = brute_common_invariant(2, matrix_to_int_rows(a), matrix_to_int_rows(astar))
        eig = eigen_decompose(a)
        assert eig.dims() == (2, 2)
        for i in (0, 1):
            rep, b = _condensed_norton(a, astar, eig, i)
            assert rep.is_reducible() == (brute is not None)
            assert rep.is_reducible() or rep.is_irreducible()
            seen.add(rep.diagnostic)
            found = tdpairs.pairs._submodule(f, b)
            assert found != "unknown"
            assert (found != "simple") == _has_submodule(f, b)
        assert irreducible(a, astar).is_reducible() == (brute is not None)
    assert len(seen) == 3  # every Norton outcome occurs


def test_plane_lines_agree_with_every_line_over_gf():
    rng = random.Random(31)
    for p in (5, 7, 13):
        field = GF(p)
        verdicts = set()
        for trial in range(24):
            thetas = (0, 0, 1, 2, 1)[: 3 + trial % 3]
            w = rng.choice((0, 1, 2))
            order = (0, 2, 1, 3, 4)[: len(thetas)]  # W slices V_0 in a line
            a, astar = _hidden_pair(
                field,
                rng,
                [thetas[j] for j in order],
                [rng.randrange(p) for _ in thetas],
                w=w,
            )
            eig = eigen_decompose(a)
            plane, _ = _condensed_norton(a, astar, eig, 0)
            assert plane.verdict == _every_line_verdict(a, astar, eig, 0)
            verdicts.add(plane.verdict)
        assert verdicts == {"reducible", "irreducible"}


def test_submodules_without_a_common_eigenline_are_found():
    # A of shape (3, 3) or (4, 4), Astar a random matrix with no
    # eigenline that keeps W = P span{e_0..e_{w-1}}, which meets A's first
    # eigenspace K in a plane.  Over Q the condensed algebra has no common
    # eigenline on K, and the annihilator of its transposes' common
    # eigenline is the plane; over GF(2) and GF(3) neither exists on
    # K = GF(p)^4 and a line of the plane is found by spinning the lines
    # of K.  The seeds are chosen so that each case takes its branch.
    for field, thetas, w, seed, dual_line in (
        (QQ, (0, 0, 1, 0, 1, 1), 3, 3, True),
        (GF(3), (0, 0, 1, 1, 0, 0, 1, 1), 4, 44, False),
        (GF(2), (0, 0, 1, 1, 0, 0, 1, 1), 4, 53, False),
    ):
        rng = random.Random(seed)
        n = len(thetas)
        p, p_inv = _invertible(field, n, rng)
        r = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        for i in range(w, n):
            r[i][:w] = [0] * w
        a = p @ Matrix.diagonal(field, thetas) @ p_inv
        astar = p @ Matrix(field, r) @ p_inv
        spaces, _ = tdpairs.pairs._eigenspaces(astar)
        assert all(space.dim != 1 for _, space in spaces)
        rep, b = _condensed_norton(a, astar, eigen_decompose(a), 0)
        transposes = [m.transpose() for m in b]
        assert tdpairs.pairs._common_eigenline(field, b) is None
        assert (tdpairs.pairs._common_eigenline(field, transposes) is not None) == dual_line
        assert rep.diagnostic == "spin-up of a kernel vector of a singular algebra element"
        assert irreducible(a, astar).witness == rep.witness
        if field == GF(2):
            assert spin_reducible(2, matrix_to_int_rows(a), matrix_to_int_rows(astar))


def test_witness_of_a_plane_is_the_first_invariant_line_of_the_condensed_algebra():
    # V = W1 + W2 with A = diag(0, 1) on W1 and diag(0, 0, 1) on W2, and
    # Astar without a rational eigenvalue on either; K = V_1 of A is a
    # plane meeting each W in a line, so the condensed algebra has two
    # invariant lines.  The witness is the spin of the first one in the
    # ascending eigenvalue order of the algebra's first non-scalar
    # element, as it was before eigenspaces of dimension 3 and more were
    # condensed too; which W that is depends on the change of basis.
    a = Matrix.diagonal(QQ, (0, 1, 0, 0, 1))
    astar = qm(
        [
            [1, 2, 0, 0, 0],
            [3, 5, 0, 0, 0],
            [0, 0, 1, 1, 1],
            [0, 0, 1, 2, 1],
            [0, 0, 2, 1, 3],
        ]
    )
    found = []
    for seed in range(6):
        rng = random.Random(seed)
        while True:
            p = qm([[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)])
            try:
                p_inv = invert(p)
                break
            except HypothesisNotMet:
                continue
        rep = irreducible(p @ a @ p_inv, p @ astar @ p_inv)
        cols = [p.column(j) for j in range(5)]
        w1 = Subspace.span(QQ, 5, cols[:2])
        found.append(1 if rep.witness == w1 else 2 if rep.witness == Subspace.span(QQ, 5, cols[2:]) else 0)
    assert found == [2, 1, 1, 1, 2, 2]


def test_q_eigenspace_of_dimension_4_with_the_full_condensed_algebra_is_simple():
    # A of shape (4, 4) and a random Astar with no rational eigenvalue:
    # K = V_0 has no eigenline for the condensed algebra, which is all of
    # End(K), so K is simple and Norton's spins decide
    rng = random.Random(53)
    for _ in range(2):
        p, p_inv = _invertible(QQ, 8, rng)
        a = p @ Matrix.diagonal(QQ, (0, 1) * 4) @ p_inv
        entries = [[rng.randint(-2, 2) for _ in range(8)] for _ in range(8)]
        astar = qm(entries)
        assert not rational_roots_by_divisors(char_poly_by_interpolation(entries))
        assert irreducible(a, astar).is_irreducible()


def test_q_invariant_slicing_a_plane_in_a_line_is_found():
    # no eigenline on either side, so Norton runs on a plane of A; W
    # meets it in a line, which only the condensed algebra's eigenlines
    # find when k1 lies outside W
    rng = random.Random(37)
    outside = 0
    for thetas, w in (((0, 1, 0, 1), 2), ((0, 1, 2, 0, 1, 2), 3), ((0, 1, 0, 1, 1), 2)):
        for _ in range(4):
            a, astar = _hidden_pair(QQ, rng, thetas, thetas, w=w)
            eig = eigen_decompose(a)
            assert min(eig.dims()) == 2 and min(eigen_decompose(astar).dims()) == 2
            rep = irreducible(a, astar)
            assert rep.is_reducible()
            assert tdpairs.pairs._witness_ok(a, astar, rep.witness)
            k1 = eig.eigenspaces[0].basis[0]
            outside += not rep.witness.contains(k1)
    assert outside > 0


def test_q_pairs_with_eigenspaces_of_dimensions_2_and_3_are_conclusive():
    # eigenspace dimensions (2, 2, 3) for A and (3, 2, 2) for Astar; a
    # hidden W that meets a 3-dimensional eigenspace of A in a line was
    # "inconclusive" for the search that Norton's test on a plane replaces
    rng = random.Random(41)
    thetas = (0, 2, 0, 1, 1, 2, 2)  # W = span{e0, e1} meets V_0 and V_2 in lines
    thetastars = (0, 0, 0, 1, 1, 2, 2)
    verdicts = set()
    for w in (0, 2, 0, 2):
        a, astar = _hidden_pair(QQ, rng, thetas, thetastars, w=w)
        assert eigen_decompose(a).dims() == (2, 2, 3)
        assert eigen_decompose(astar).dims() == (3, 2, 2)
        rep = irreducible(a, astar)
        verdicts.add(rep.verdict)
        if rep.is_irreducible():
            assert closure_algebra(a, astar)[1] == 49
        else:
            assert rep.is_reducible() and tdpairs.pairs._witness_ok(a, astar, rep.witness)
    assert verdicts == {"reducible", "irreducible"}

def _oracle_pair(p, rng, dims_a, dims_astar, w):
    """A diagonalizable pair over GF(p) with eigenspace dimensions dims_a
    and dims_astar (in shuffled order), hidden by a change of basis;
    with w > 0 both keep a w-dimensional subspace."""
    thetas = [i for i, k in enumerate(dims_a) for _ in range(k)]
    thetastars = [i for i, k in enumerate(dims_astar) for _ in range(k)]
    rng.shuffle(thetas)
    rng.shuffle(thetastars)
    return _hidden_pair(GF(p), rng, thetas, thetastars, w=w)


def test_irreducible_matches_spin_oracle_with_eigenspaces_of_dimension_3_and_4():
    # diagonalizable pairs over GF(2) and GF(3), n <= 6, whose smallest
    # eigenspace without an eigenline has dimension 3 or 4, so the
    # condensed algebra decides it; the pairs with an eigenline keep a
    # 3- or 4-dimensional eigenspace (over GF(2) they are all reducible:
    # an eigenspace of dimension at least n - 1 meets the other side's)
    rng = random.Random(43)
    shapes = {
        2: [((3, 3), (3, 3)), ((4, 2), (3, 3)), ((3, 3), (2, 4)), ((3, 2), (4, 1)), ((4, 1), (2, 3))],
        3: [
            ((3, 3), (2, 2, 2)),
            ((4, 2), (3, 3)),
            ((3, 3), (3, 3)),
            ((3, 2, 1), (2, 2, 2)),
            ((3, 2, 1), (1, 2, 3)),
            ((4, 1, 1), (2, 2, 2)),
        ],
    }
    verdicts = set()
    for p, cases in shapes.items():
        for dims_a, dims_astar in cases:
            n = sum(dims_a)
            for w in (0, 0, 0, 1, 2, n // 2) * 2:
                a, astar = _oracle_pair(p, rng, dims_a, dims_astar, w)
                rep = irreducible(a, astar)
                reducible = spin_reducible(p, matrix_to_int_rows(a), matrix_to_int_rows(astar))
                assert rep.verdict == ("reducible" if reducible else "irreducible"), (p, dims_a)
                verdicts.add((p, min(dims_a + dims_astar) == 1, rep.verdict))
    assert len(verdicts) == 7  # both verdicts with and without an eigenline, but GF(2)'s


def test_scalar_restriction_fixtures_pin_their_verdicts():
    # tridiagonal pairs of shape (k, ..., k) with no eigenline
    for field, f, d in ((QQ, (-2, 0, 0, 1), 2), (GF(7), (-2, 0, 0, 1), 3), (GF(13), (-2, 0, 0, 0, 1), 2)):
        k = len(f) - 1
        pair = validate_pair(*scalar_restriction_fixture(field, f, d))
        assert tuple(pair.shape) == (k,) * (d + 1)
        assert pair.irreducibility.is_irreducible()
    # the pinned limitation (it may only be tightened): over Q a
    # 4-dimensional eigenspace whose condensed algebra is the field
    # Q[x]/(x^4 - 2) has no common eigenline and is not End(K)
    a, astar = scalar_restriction_fixture(QQ, (-2, 0, 0, 0, 1), 1)
    assert a.nrows == 8
    with pytest.raises(InconclusiveIrreducibility):
        validate_pair(a, astar)


def test_scalar_restriction_fixtures_agree_with_the_spin_oracle():
    # x^2 + 1 is irreducible over GF(3) and splits over GF(5); x^3 + x + 1
    # is irreducible over GF(2); a direct sum of two copies is reducible
    def direct_sum(m):
        n = m.nrows
        zero = [0] * n
        return Matrix(m.field, [list(r) + zero for r in m.rows] + [zero + list(r) for r in m.rows])

    for p, f, d, valid in ((3, (1, 0, 1), 2, True), (2, (1, 1, 0, 1), 1, True), (5, (1, 0, 1), 1, False)):
        a, astar = scalar_restriction_fixture(GF(p), f, d)
        rows = (matrix_to_int_rows(a), matrix_to_int_rows(astar))
        assert spin_reducible(p, *rows) is not valid
        assert irreducible(a, astar).is_irreducible() is valid
        if a.nrows <= 3:
            twin = direct_sum(a), direct_sum(astar)
            assert spin_reducible(p, *map(matrix_to_int_rows, twin))
            with pytest.raises(NotIrreducible):
                validate_pair(*twin)


# ---- validate_pair ----------------------------------------------------------


def test_validate_d0():
    pair = validate_pair(qm([[5]]), qm([[7]]))
    assert pair.diameter == 0
    assert tuple(pair.shape) == (1,)
    assert shape(pair) == pair.shape


def test_validate_running_example_canonical_order():
    pair = validate_pair(qm(A_D2), qm(ASTAR_D2))
    assert tuple(pair.shape) == (1, 1, 1)
    assert [pair.theta(i) for i in range(3)] == [QQ.scalar(i) for i in range(3)]
    assert [pair.thetastar(i) for i in range(3)] == [QQ.scalar(i) for i in range(3)]


def test_validate_picks_lex_least_of_the_two_walks():
    # reversing the construction order must not change the canonical order
    a, astar = qm(A_D2), qm(ASTAR_D2)
    pair = validate_pair(a, astar)
    thetas = [pair.theta(i) for i in range(3)]
    assert thetas == sorted(thetas) or thetas == sorted(thetas, reverse=True)
    assert thetas[0] < thetas[-1]  # lex-least starts at the smaller endpoint


def test_reversal_involutions():
    pair = validate_pair(qm(A_D2), qm(ASTAR_D2))
    rev = pair.with_reversed_a()
    assert [rev.theta(i) for i in range(3)] == [pair.theta(2 - i) for i in range(3)]
    assert rev.with_reversed_a().eig_a.eigenvalues == pair.eig_a.eigenvalues
    revstar = pair.with_reversed_astar()
    assert [revstar.thetastar(i) for i in range(3)] == [
        pair.thetastar(2 - i) for i in range(3)
    ]


def test_validate_rejects_nondiagonalizable_sides():
    jordan = qm([[5, 1], [0, 5]])
    diag = qm([[0, 0], [0, 1]])
    with pytest.raises(NotDiagonalizableOverField) as exc:
        validate_pair(jordan, diag)
    assert exc.value.side == "A"
    with pytest.raises(NotDiagonalizableOverField) as exc:
        validate_pair(diag, jordan)
    assert exc.value.side == "Astar"


def test_a_side_that_is_not_diagonalizable_has_its_eigenspaces_computed_once(monkeypatch):
    # eigen_decompose's rejection carries the eigenspaces it found, and
    # irreducible reads them off it rather than computing them again
    a = qm([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    with pytest.raises(NotDiagonalizableOverField) as exc:
        eigen_decompose(a)
    assert str(exc.value) == "minimal polynomial has a repeated root"
    assert exc.value.spaces == tuple(zip(*eigenspaces(a)[:2]))
    calls = []
    original = tdpairs.eigen.eigenspaces

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(tdpairs.eigen, "eigenspaces", counted)
    monkeypatch.setattr(tdpairs.pairs, "eigenspaces", counted)
    for astar in (qm([[0, 1, 0], [0, 1, 1], [0, 0, 2]]), qm([[1, 0, 0], [0, 2, 0], [0, 0, 3]])):
        calls.clear()
        report = irreducible(a, astar)
        assert sum(m is a for m in calls) == 1
        assert (report.verdict, report.diagnostic) == (
            "reducible",
            "spin-up of a kernel vector of a singular algebra element",
        )
        assert report.witness == Subspace.span(QQ, 3, [(QQ.one, QQ.zero, QQ.zero)])


def test_validate_rejects_diameter_mismatch():
    a = qm([[0, 0], [0, 1]])
    scalar = qm([[5, 0], [0, 5]])
    with pytest.raises(DiameterMismatch):
        validate_pair(a, scalar)


def test_validate_rejects_reducible_with_witness():
    with pytest.raises(NotIrreducible) as exc:
        validate_pair(qm([[0, 0], [0, 1]]), qm([[2, 0], [0, 3]]))
    w = exc.value.witness
    assert w is not None and 0 < w.dim < 2


def test_validate_rejects_size_and_field_mismatches():
    with pytest.raises(DimensionMismatch):
        validate_pair(qm([[1, 2]]), qm([[1, 2]]))
    with pytest.raises(DimensionMismatch):
        validate_pair(qm([[1]]), qm([[1, 0], [0, 2]]))
    with pytest.raises(FieldMismatch):
        validate_pair(qm([[1]]), gm(5, [[1]]))


def test_validate_over_gf():
    pair = validate_pair(gm(7, A_D2), gm(7, ASTAR_D2))
    assert tuple(pair.shape) == (1, 1, 1)
    assert pair.field == GF(7)


def test_validate_never_needs_the_closure_algebra_with_an_eigenline(monkeypatch):
    # every pair below has a 1-dimensional eigenspace, so Norton's test
    # decides it on that line and no algebra is condensed
    def refuse(*args, **kwargs):
        raise AssertionError("_condensed called")

    monkeypatch.setattr(tdpairs.pairs, "_condensed", refuse)
    norton = "kernel spin-ups and the dual spin-up all fill the space"
    pairs = [validate_pair(qm(A_D2), qm(ASTAR_D2)), validate_pair(gm(7, A_D2), gm(7, ASTAR_D2))]
    for field in (QQ, GF(5), GF(13)):
        top = 6 if field == QQ else min(6, field.p - 1)
        for d in range(1, top + 1):
            pairs.append(random_leonard(field, d, 100 + d)[1])
    for key, (theta, mu, varphis) in TENSOR_PARAMS.items():
        field = QQ if key == "Q" else GF(int(key[2:]))
        pair = validate_pair(*tensor_fixture(field, theta, mu, varphis))
        assert tuple(pair.shape) == (1, 2, 1)
        pairs.append(pair)
    for field in (QQ, GF(7)):
        pair = validate_pair(*kron_sum_fixture(field, ((0, 1),) * 3, (1, 2, 3)))
        assert tuple(pair.shape) == (1, 3, 3, 1)
        pairs.append(pair)
    for pair in pairs:
        assert pair.irreducibility.diagnostic == norton


# ---- Norton's test read off the block graph of n distinct eigenvalues --------

GRAPH_FIELDS = (QQ, GF(5), GF(7))


def multiplicity_free_samples(field, count=350):
    """The seeded draws of the block-graph oracle: pairs with n = 2..5
    over field, one in four with its n distinct eigenvalues on the second
    operator and no eigenline on the first."""
    rng = random.Random(2 if field == QQ else field.p)
    for draw in range(count):
        n = rng.randint(2, min(5, getattr(field, "p", 5)))
        yield multiplicity_free_pair(field, n, rng, second=draw % 4 == 3)


def _first_eigenline(a, astar):
    """(M, theta, K) for the eigenline Norton's test runs on: A's first,
    in eigenvalue order, else Astar's."""
    for m in (a, astar):
        thetas, spaces, _ = eigenspaces(m)
        for theta, k in zip(thetas, spaces):
            if k.dim == 1:
                return m, theta, k


def _counting(monkeypatch, name):
    """Replace tdpairs.pairs.<name> by a wrapper that counts its calls."""
    calls = [0]
    original = getattr(tdpairs.pairs, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(tdpairs.pairs, name, counted)
    return calls


@pytest.mark.parametrize("field", GRAPH_FIELDS, ids=str)
def test_block_graph_reading_equals_nortons_spins(field, monkeypatch):
    # irreducible() reads the test off the block graph; _norton spins the
    # same eigenline, and both must give the same verdict, diagnostic and
    # canonical witness
    spins = _counting(monkeypatch, "_spin")
    outcomes = set()
    for a, b in multiplicity_free_samples(field):
        m, theta, k = _first_eigenline(a, b)
        want = tdpairs.pairs._norton(a, b, m, theta, Matrix(field, k.basis)._ints[0], lambda: "simple")
        before = spins[0]
        got = irreducible(a, b)
        assert spins[0] == before  # decided without a spin
        assert (got.verdict, got.diagnostic, got.witness) == (want.verdict, want.diagnostic, want.witness)
        outcomes.add(got.diagnostic)
    assert outcomes == {
        "kernel spin-ups and the dual spin-up all fill the space",
        "spin-up of a kernel vector of a singular algebra element",
        "annihilator of a proper dual spin-up",
    }


@pytest.mark.parametrize("p", (2, 3))
def test_block_graph_verdicts_match_brute_force_over_tiny_fields(p):
    rng = random.Random(11 * p)
    verdicts = set()
    for draw in range(150):
        n = rng.randint(2, min(3, p))
        a, b = multiplicity_free_pair(GF(p), n, rng, second=draw % 4 == 3)
        rep = irreducible(a, b)
        brute = brute_common_invariant(p, matrix_to_int_rows(a), matrix_to_int_rows(b))
        assert rep.verdict == ("irreducible" if brute is None else "reducible")
        verdicts.add(rep.verdict)
    assert verdicts == {"irreducible", "reducible"}


def test_validate_reads_leonard_pairs_off_one_block_graph_per_side(monkeypatch):
    # with n distinct eigenvalues on both sides, validate_pair spins
    # nothing and computes each side's block graph once; the pairs are read
    # in the reversed basis, so no split-form route certifies them
    pairs = []
    for field in (QQ, GF(5), GF(13)):
        for d in range(0, min(6, getattr(field, "p", 7) - 1) + 1):
            pairs.append(random_leonard(field, d, 300 + d)[1])

    def refuse(*args, **kwargs):
        raise AssertionError("_spin called")

    monkeypatch.setattr(tdpairs.pairs, "_spin", refuse)
    edges = _counting(monkeypatch, "_block_graph")
    for pair in pairs:
        before = edges[0]
        again = validate_pair(*reversed_pair(pair))
        assert edges[0] - before == 2
        assert again.shape.is_all_ones() and again.diameter == pair.diameter


def test_validation_reads_each_side_off_the_matrix_it_is_given():
    # a live decomposition of A is reused for A alone: A + 5I, validated
    # while A's is held, has its own eigenvalues, in the reversed basis
    # (general engine) and in split form (Terwilliger's route)
    for members in (reversed_pair, lambda pair: (pair.a, pair.astar)):
        a, astar = members(random_leonard(QQ, 2, 1)[1])
        eig = eigen_decompose(a)
        assert sorted(eig.eigenvalues) == [1, 5, 9]
        shifted = validate_pair(a + Matrix.identity(QQ, 3).scale(QQ.scalar(5)), astar)
        assert sorted(shifted.eig_a.eigenvalues) == [6, 10, 14]
        assert eigen_decompose(a) is eig


def test_validate_and_irreducible_take_only_the_two_matrices():
    a, astar = reversed_pair(random_leonard(QQ, 2, 1)[1])
    eig = eigen_decompose(a)
    for call in (
        lambda: validate_pair(a, astar, eig_a=eig),
        lambda: validate_pair(a, astar, eig, None),
        lambda: irreducible(a, astar, eig_a=eig),
        lambda: irreducible(a, astar, edges_a=set()),
    ):
        with pytest.raises(TypeError):
            call()


def test_validate_still_spins_when_a_side_repeats_an_eigenvalue(monkeypatch):
    # a GF(3) shape-(1, 2, 1) search hit and a (1, 3, 3, 1) Kronecker sum:
    # no side has n distinct eigenvalues, so Norton's test spins
    shape = (1, 2, 1)
    positions = tdpairs.search._allowed_positions(shape)
    rows = [[0] * 4 for _ in range(4)]
    for (r, c), v in zip(positions, tdpairs.search._exhaustive_entries(184953, len(positions), 3)):
        rows[r][c] = v
    fixtures = [(tdpairs.search._fixed_a(GF(3), shape), gm(3, rows))]
    fixtures.append(kron_sum_fixture(QQ, ((0, 1),) * 3, (1, 2, 3)))
    spins = _counting(monkeypatch, "_spin")
    for a, astar in fixtures:
        before = spins[0]
        pair = validate_pair(a, astar)
        assert pair.shape.rho in ((1, 2, 1), (1, 3, 3, 1))
        assert spins[0] > before


# ---- reducibility witness from a vanishing tau image ------------------------


def test_tau_kernel_yields_machine_checked_witness():
    # A has eigenvalues 0,1,2; Astar has eigenvalues 0,1,2 with
    # Vstar_0 = span{e0}; tau_2(A) = A(A - I) kills e0.
    a = qm([[0, 0, 0], [1, 1, 0], [0, 0, 2]])
    astar = qm([[0, 1, 0], [0, 1, 0], [0, 0, 2]])
    eig_a = eigen_decompose(a)
    eig_astar = eigen_decompose(astar)
    # order both by eigenvalue 0,1,2
    def ordered(eig):
        order = sorted(range(len(eig.eigenvalues)), key=lambda i: eig.eigenvalues[i])
        return eig.reordered(tuple(order))

    eig_a, eig_astar = ordered(eig_a), ordered(eig_astar)
    u = eig_astar.eigenspaces[0].basis[0]
    w = reducibility_witness_from_tau_kernel(eig_a, eig_astar, u, 2)
    assert 0 < w.dim < 3
    for b in w.basis:
        assert w.contains(a.apply(b)) and w.contains(astar.apply(b))


def test_tau_kernel_rejects_bad_hypotheses():
    a = qm([[0, 0, 0], [1, 1, 0], [0, 0, 2]])
    astar = qm([[0, 1, 0], [0, 1, 0], [0, 0, 2]])
    eig_a = eigen_decompose(a)
    eig_astar = eigen_decompose(astar)
    zero = (QQ.zero, QQ.zero, QQ.zero)
    with pytest.raises(HypothesisNotMet):
        reducibility_witness_from_tau_kernel(eig_a, eig_astar, zero, 1)
    # u outside Vstar_0
    with pytest.raises(HypothesisNotMet):
        reducibility_witness_from_tau_kernel(
            eig_a, eig_astar, (QQ.one, QQ.one, QQ.one), 1
        )
    # index out of range
    u = eig_astar.eigenspaces[0].basis[0]
    with pytest.raises(HypothesisNotMet):
        reducibility_witness_from_tau_kernel(eig_a, eig_astar, u, 0)


# ---- random cross-check of the two engines against brute force --------------


def test_irreducible_matches_brute_force_on_random_small_gf_pairs():
    rng = random.Random(47)
    for _ in range(150):
        p = rng.choice((2, 3))
        n = rng.randint(1, 3)
        f = GF(p)
        a = gm(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        astar = gm(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        rep = irreducible(a, astar)
        brute = brute_common_invariant(p, matrix_to_int_rows(a), matrix_to_int_rows(astar))
        if n == 3:
            # the projective line/plane oracle must agree with the
            # span-enumeration oracle on existence
            dim3 = brute_common_invariant_dim3(
                p, matrix_to_int_rows(a), matrix_to_int_rows(astar)
            )
            assert (dim3 is None) == (brute is None)
        if rep.is_reducible():
            assert brute is not None
            w = subspace_vector_set(rep.witness)
            # witness must itself be invariant; brute force confirms one exists
            assert len(w) < p**n and len(w) > 1
        elif rep.is_irreducible():
            assert brute is None
        else:
            pytest.fail("small GF cases must always be conclusive")
