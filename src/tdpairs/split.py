"""Split decomposition and the polynomial subalgebra basis.

For a validated pair with orderings fixed, the subspaces

    U_i = (Vstar_0 + ... + Vstar_i)  meet  (V_i + ... + V_d)

decompose V directly, refine both flag filtrations, and are raised by
A - theta_i I and lowered by Astar - thetastar_i I.  The polynomials
tau_i(x) = (x - theta_0)...(x - theta_{i-1}) evaluate on A to a basis of
the subalgebra they generate, and tau_i(A) maps U_0 into U_i.  Every one
of those statements is checked here, per index, and reported as flags so
a failing candidate pinpoints which identity broke.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, chain

from .errors import InvariantViolation, TauImageVanished
from .linalg import Echelon, shifted_products, vec_is_zero
from .pairs import TriDiagonalPair, vstar0_vector
from .polynomials import Polynomial
from .subspaces import Subspace, maps_into, subspace_intersect, subspace_sum


@dataclass(frozen=True)
class SplitReport:
    """Per-identity verification flags.

    eq4: the U_i sum directly to V.
    eq5[i]: U_0+...+U_i equals Vstar_0+...+Vstar_i.
    eq6[i]: U_i+...+U_d equals V_i+...+V_d.
    eq7[i]: (A - theta_i I) U_i lies in U_{i+1} (zero at i = d).
    eq8[i]: (Astar - thetastar_i I) U_i lies in U_{i-1} (zero at i = 0).
    eq10[i]: tau_i(A) U_0 lies in U_i.

    Fields not yet computed are None.
    """

    eq4: bool
    eq5: tuple
    eq6: tuple
    eq7: tuple | None = None
    eq8: tuple | None = None
    eq10: tuple | None = None

    def all_true(self) -> bool:
        for value in (self.eq4, self.eq5, self.eq6, self.eq7, self.eq8, self.eq10):
            if value is None:
                return False
            if value is not True and not all(value):
                return False
        return True


@dataclass(frozen=True)
class SplitDecomposition:
    """The subspaces U_0..U_d of a pair, with verification flags.

    Constructed by split_subspaces; direct construction is possible for
    negative controls and performs no checking.
    """

    U: tuple
    pair: TriDiagonalPair
    report: SplitReport

    @property
    def dims(self) -> tuple:
        return tuple(u.dim for u in self.U)


@dataclass(frozen=True)
class TauBasis:
    """The polynomials tau_0..tau_d and their evaluations at A; the
    matrices form a basis of the subalgebra generated by A."""

    taus: tuple
    tau_matrices: tuple


def split_subspaces(pair: TriDiagonalPair) -> SplitDecomposition:
    """Compute U_i from the defining intersection and record the
    direct-sum and filtration identities.

    The subspaces come straight from the definition, not from the
    raising maps, so the raising/lowering checks stay independent.
    """
    n = pair.dim
    prefix_star = list(accumulate(pair.eig_astar.eigenspaces, subspace_sum))
    suffix = list(accumulate(reversed(pair.eig_a.eigenspaces), subspace_sum))[::-1]
    u_spaces = tuple(map(subspace_intersect, prefix_star, suffix))
    u_prefix = list(accumulate(u_spaces, subspace_sum))
    u_suffix = list(accumulate(reversed(u_spaces), subspace_sum))[::-1]
    # direct sum: the summands' dimensions add up to the dimension of V
    eq4 = u_prefix[-1].dim == n == sum(u.dim for u in u_spaces)
    report = SplitReport(
        eq4=eq4,
        eq5=tuple(map(Subspace.__eq__, u_prefix, prefix_star)),
        eq6=tuple(map(Subspace.__eq__, u_suffix, suffix)),
    )
    return SplitDecomposition(U=u_spaces, pair=pair, report=report)


def verify_raising_lowering(sd: SplitDecomposition) -> SplitReport:
    """Check that A - theta_i I raises U_i into U_{i+1} and
    Astar - thetastar_i I lowers U_i into U_{i-1}, with zero subspaces
    past both ends; returns the report with per-index flags filled in."""
    pair = sd.pair
    zero_space = Subspace.zero(pair.field, pair.dim)
    padded = (zero_space, *sd.U, zero_space)

    def moved(m, theta, step):  # (m - theta_i I) U_i <= U_{i+step}, 0 past the ends
        return tuple(maps_into(m.shift(theta(i)), u, padded[i + 1 + step]) for i, u in enumerate(sd.U))

    eq7, eq8 = moved(pair.a, pair.theta, 1), moved(pair.astar, pair.thetastar, -1)
    return replace(sd.report, eq7=eq7, eq8=eq8)


def _tau_matrices(pair: TriDiagonalPair) -> tuple:
    """The matrices tau_i(A), i = 0..d, as one running product, built
    once per (immutable) pair and kept on it."""
    if "_tau_matrices" not in pair.__dict__:
        thetas = pair.eig_a.eigenvalues[: pair.diameter]
        object.__setattr__(pair, "_tau_matrices", tuple(shifted_products(pair.a, thetas)))
    return pair.__dict__["_tau_matrices"]


def checked_tau_matrices(pair: TriDiagonalPair) -> tuple:
    """The pair's tau_i(A), i = 0..d, asserted linearly independent, their
    int rows fed to one Echelon: they span the subalgebra generated by A,
    which has dimension d+1 because the minimal polynomial of a
    diagonalizable A has degree d+1."""
    mats = _tau_matrices(pair)
    eng = Echelon(pair.field)
    if sum(eng.insert([*chain.from_iterable(m._ints[0])]) for m in mats) < len(mats):
        raise InvariantViolation("tau matrices are linearly dependent")
    return mats


def tau_basis(pair: TriDiagonalPair) -> TauBasis:
    """tau_i = (x - theta_0)...(x - theta_{i-1}) and the checked matrices
    tau_i(A) of checked_tau_matrices."""
    field = pair.field
    mats = checked_tau_matrices(pair)
    taus = [Polynomial.one(field)]
    for t in pair.eig_a.eigenvalues[: pair.diameter]:
        taus.append(taus[-1] * Polynomial.x_minus(field, t))
    return TauBasis(taus=tuple(taus), tau_matrices=mats)


def verify_tau_images(sd: SplitDecomposition) -> SplitReport:
    """Check tau_i(A) U_0 lies in U_i for every i and fill the eq10 flags.

    Reads the pair's tau_i(A) without checked_tau_matrices's independence
    assertion, so the check stays meaningful on corrupted decompositions
    where that assertion might not hold.
    """
    flags = [maps_into(m, sd.U[0], sd.U[i]) for i, m in enumerate(_tau_matrices(sd.pair))]
    return replace(sd.report, eq10=tuple(flags))


def complete_report(sd: SplitDecomposition) -> SplitReport:
    """All identity flags in one report."""
    return replace(verify_raising_lowering(sd), eq10=verify_tau_images(sd).eq10)


def tau_images(pair: TriDiagonalPair, u, sd: SplitDecomposition | None = None) -> tuple:
    """The vectors tau_i(A)u for a nonzero u in Vstar_0.

    Each image is asserted to lie in U_i and the full sequence to be
    linearly independent; on a genuine pair both hold for every valid u.
    A vanishing image raises TauImageVanished with the failing index,
    which feeds the reducibility-witness construction.
    """
    field = pair.field
    d = pair.diameter
    u = vstar0_vector(pair.vstar(0), u)
    if sd is None:
        sd = split_subspaces(pair)
    images = [u]
    for i in range(1, d + 1):
        nxt = pair.a.shift(pair.theta(i - 1)).apply(images[-1])
        if vec_is_zero(nxt):
            raise TauImageVanished(f"tau_{i}(A)u = 0 for a nonzero u in Vstar_0", u=u, index=i)
        images.append(nxt)
    for i, w in enumerate(images):
        if not sd.U[i].contains(w):
            raise InvariantViolation(f"tau_{i}(A)u escapes U_{i}")
    if Subspace.span(field, pair.dim, images).dim < len(images):
        raise InvariantViolation("tau images of u are linearly dependent")
    return tuple(images)
