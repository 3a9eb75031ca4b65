"""Split decomposition, tau matrices and tau images.

For a validated pair with orderings fixed, the subspaces

    U_i = (Vstar_0 + ... + Vstar_i)  meet  (V_i + ... + V_d)

decompose V directly, refine both flag filtrations, and are raised by
A - theta_i I and lowered by Astar - thetastar_i I.  The polynomials
tau_i(x) = (x - theta_0)...(x - theta_{i-1}) evaluate on A to a basis of
the subalgebra they generate (checked_tau_matrices), and tau_i(A) maps
U_0 into U_i; on a Leonard pair tau_0(A)u, ..., tau_d(A)u is a basis of
V for any nonzero u in Vstar_0 (tau_images).  complete_report checks
every one of those statements per index, on int rows, and reports them
as flags so a failing candidate pinpoints which identity broke.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, chain, repeat
from operator import mul

from .errors import InvariantViolation, TauImageVanished
from .linalg import Echelon, Matrix, modulus, row_elements, shifted_chain, shifted_products
from .pairs import TriDiagonalPair, vstar0_vector
from .subspaces import Subspace, _check_space, _lands_in, subspace_intersect, subspace_sum


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


def complete_report(sd: SplitDecomposition) -> SplitReport:
    """All identity flags in one report.  Each U_i is checked once against
    the pair's field and dimension and each theta_i, thetastar_i shift is
    read once; then, on int rows with no shifted matrix, (A - theta_i I) U_i
    against U_{i+1} (eq7), (Astar - thetastar_i I) U_i against U_{i-1}
    (eq8), zero past both ends, and tau_i(A) U_0 as a shifted_chain
    against U_i (eq10), which needs no tau_i(A) and so stays meaningful on
    a corrupted decomposition."""
    pair, d = sd.pair, sd.pair.diameter
    for u in sd.U:
        _check_space(pair.field, pair.dim, u)
    zero = Subspace.zero(pair.field, pair.dim)
    targets, p = (zero, *sd.U, zero), zero.echelon.p
    shifts = [pair.a._shift_ints(t) for t in pair.eig_a.eigenvalues]

    def moved(m, by, step):  # (m - theta_i I) U_i <= U_{i+step}
        return tuple(_lands_in(m._ints[0], *by[i], u, targets[i + 1 + step]) for i, u in enumerate(sd.U))

    eq8 = moved(pair.astar, [pair.astar._shift_ints(t) for t in pair.eig_astar.eigenvalues], -1)
    chains = [shifted_chain(pair.a._ints[0], shifts[:d], w, p) for w in sd.U[0].echelon.rows.values()]
    eq10 = tuple(not any(any(targets[i + 1].echelon.reduce(c[i])) for c in chains) for i in range(d + 1))
    return replace(sd.report, eq7=moved(pair.a, shifts, 1), eq8=eq8, eq10=eq10)


def tau_images(pair: TriDiagonalPair, u, sd: SplitDecomposition | None = None) -> tuple:
    """The vectors tau_i(A)u for a nonzero u in Vstar_0, from one
    shifted_chain on the int rows.

    Each image is asserted to lie in U_i and the full sequence to be
    linearly independent; on a genuine pair both hold for every valid u.
    A vanishing image raises TauImageVanished with the failing index,
    which feeds the reducibility-witness construction.
    """
    field, d, p = pair.field, pair.diameter, modulus(pair.field)
    u = vstar0_vector(pair.vstar(0), u)
    if sd is None:
        sd = split_subspaces(pair)
    (w,), scale = Matrix(field, [u])._ints
    shifts = [pair.a._shift_ints(t) for t in pair.eig_a.eigenvalues[:d]]
    ws = shifted_chain(pair.a._ints[0], shifts, w, p)
    vanished = next((i for i, x in enumerate(ws) if not any(x)), None)
    if vanished is not None:
        raise TauImageVanished(f"tau_{vanished}(A)u = 0 for a nonzero u in Vstar_0", u=u, index=vanished)
    for i, x in enumerate(ws):
        if any(sd.U[i].echelon.reduce(x)):
            raise InvariantViolation(f"tau_{i}(A)u escapes U_{i}")
    eng = Echelon(field)
    if sum(map(eng.insert, ws)) < len(ws):
        raise InvariantViolation("tau images of u are linearly dependent")
    # tau_i(A) u = w_i / (scale prod_{h < i} b_h d) for A = R / d
    scales = accumulate((b * pair.a._ints[1] for _, b in shifts), mul, initial=scale)
    return tuple(map(row_elements, repeat(field), ws, scales))
