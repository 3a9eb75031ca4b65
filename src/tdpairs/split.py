"""Split decomposition and tau images.

For a validated pair with orderings fixed, the subspaces

    U_i = (Vstar_0 + ... + Vstar_i)  meet  (V_i + ... + V_d)

decompose V directly, refine both flag filtrations, and are raised by
A - theta_i I and lowered by Astar - thetastar_i I.  They are read off
as blocks of unit vectors when both flags are coordinate flags (a split
basis), else computed from the definition.  The polynomials
tau_i(x) = (x - theta_0)...(x - theta_{i-1}) give tau_i(A), which maps
U_0 into U_i; on a Leonard pair tau_0(A)u, ..., tau_d(A)u is a basis of
V for any nonzero u in Vstar_0 (tau_images), read off one shifted_chain
by A's integer roots, no tau_i(A) built.  complete_report checks each of
those statements per index on int rows shifted by the roots (on coordinate
blocks the raising and lowering checks read columns of A and Astar), and
reports them as flags so a failing candidate pinpoints which identity broke.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, repeat

from .errors import DimensionMismatch, InvariantViolation, TauImageVanished
from .linalg import Echelon, Matrix, modulus, row_elements, shifted_chain
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
        flags = (self.eq5, self.eq6, self.eq7, self.eq8, self.eq10)
        return self.eq4 is True and all(f is not None and all(f) for f in flags)


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
    """The U_i, with the direct-sum and filtration identities recorded.

    Let s_k = dim V_0 + ... + dim V_{k-1}.  When dim Vstar_k = dim V_k, each
    row of V_k is 0 before s_k and each row of Vstar_k is 0 from s_{k+1} on,
    both flags are coordinate flags (a checked decomposition's eigenspaces
    are independent, so each flag space fills the coordinate span holding
    it): U_i = span(e_{s_i}..e_{s_{i+1}-1}), and eq4-eq6 hold.  Any other
    pair has its U_i straight from the definition.  Neither way uses the
    raising maps, so the raising/lowering checks stay independent.
    """
    n, eig_a, eig_astar = pair.dim, pair.eig_a, pair.eig_astar
    cuts = [0, *accumulate(eig_a.dims())]  # s_0, ..., s_d, n
    outside = [u[:lo] for v, lo in zip(eig_a.eigenspaces, cuts) for u in v.echelon.rows.values()]
    outside += [u[hi:] for v, hi in zip(eig_astar.eigenspaces, cuts[1:]) for u in v.echelon.rows.values()]
    if eig_a.dims() == eig_astar.dims() and not any(map(any, outside)):
        u_spaces = tuple(map(Subspace.block, repeat(pair.field), repeat(n), cuts, cuts[1:]))
        return SplitDecomposition(u_spaces, pair, SplitReport(True, (True,) * len(u_spaces), (True,) * len(u_spaces)))
    prefix_star = list(accumulate(eig_astar.eigenspaces, subspace_sum))
    suffix = list(accumulate(reversed(eig_a.eigenspaces), subspace_sum))[::-1]
    u_spaces = tuple(map(subspace_intersect, prefix_star, suffix))
    u_prefix = list(accumulate(u_spaces, subspace_sum))
    u_suffix = list(accumulate(reversed(u_spaces), subspace_sum))[::-1]
    # direct sum: the summands' dimensions add up to the dimension of V
    eq4 = u_prefix[-1].dim == n == sum(u.dim for u in u_spaces)
    eq5, eq6 = (tuple(map(Subspace.__eq__, *sums)) for sums in ((u_prefix, prefix_star), (u_suffix, suffix)))
    return SplitDecomposition(U=u_spaces, pair=pair, report=SplitReport(eq4, eq5, eq6))


def complete_report(sd: SplitDecomposition) -> SplitReport:
    """All identity flags in one report.  sd must hold d + 1 subspaces
    (DimensionMismatch), each checked against the pair's field and dimension.
    On int rows R - r_i I, r_i the roots: eq7 checks (A - theta_i I) U_i against
    U_{i+1} and eq8 (Astar - thetastar_i I) U_i against U_{i-1}, zero past both
    ends, reading column c of R - r_i I for each unit vector e_c of U_i when every
    U_i is spanned by them (as split_subspaces' blocks are), else Echelon images;
    eq10 checks tau_i(A) U_0 by one shifted_chain against U_i, meaningful on a
    corrupted one too."""
    pair, d, n = sd.pair, sd.pair.diameter, sd.pair.dim
    if len(sd.U) != d + 1:
        raise DimensionMismatch(f"{len(sd.U)} subspaces for diameter {d}")
    for u in sd.U:
        _check_space(pair.field, n, u)
    zero = Subspace.zero(pair.field, n)
    targets, p, roots = (zero, *sd.U, zero), zero.echelon.p, pair.eig_a.roots
    blocks = all(row.count(0) == n - 1 for u in sd.U for row in u.echelon.rows.values())

    def moved(m, by, step):  # (m - theta_i I) U_i <= U_{i+step}, on the int rows R - r_i I
        if not blocks:
            return tuple(_lands_in(m._ints[0], r, u, t) for r, u, t in zip(by, sd.U, targets[1 + step :]))
        cols = list(zip(*m._ints[0]))  # on blocks U_i is spanned by e_c for its pivots c
        return tuple(
            all(x == r * (k == c) for c in u.echelon.rows for k, x in enumerate(cols[c]) if k not in t.echelon.rows)
            for r, u, t in zip(by, sd.U, targets[1 + step :])
        )

    chains = [shifted_chain(pair.a._ints[0], roots[:d], w, p) for w in sd.U[0].echelon.rows.values()]
    eq10 = tuple(not any(any(targets[i + 1].echelon.reduce(c[i])) for c in chains) for i in range(d + 1))
    return replace(sd.report, eq7=moved(pair.a, roots, 1), eq8=moved(pair.astar, pair.eig_astar.roots, -1), eq10=eq10)


def tau_images(pair: TriDiagonalPair, u) -> tuple:
    """The vectors tau_i(A)u for a nonzero u in Vstar_0, from one
    shifted_chain by A's roots on the int rows, w_i over d_A^i.

    Each image is asserted to lie in U_i of split_subspaces(pair) and the
    full sequence to be linearly independent; on a genuine pair both hold
    for every valid u.  A vanishing image raises TauImageVanished with the
    failing index, which feeds the reducibility-witness construction.
    """
    field, d, p = pair.field, pair.diameter, modulus(pair.field)
    u = vstar0_vector(pair.vstar(0), u)
    (w,), scale = Matrix(field, [u])._ints
    ws = shifted_chain(pair.a._ints[0], pair.eig_a.roots[:d], w, p)
    vanished = next((i for i, x in enumerate(ws) if not any(x)), None)
    if vanished is not None:
        raise TauImageVanished(f"tau_{vanished}(A)u = 0 for a nonzero u in Vstar_0", u=u, index=vanished)
    u_spaces = split_subspaces(pair).U
    for i, x in enumerate(ws):
        if any(u_spaces[i].echelon.reduce(x)):
            raise InvariantViolation(f"tau_{i}(A)u escapes U_{i}")
    eng = Echelon(field)
    if sum(map(eng.insert, ws)) < len(ws):
        raise InvariantViolation("tau images of u are linearly dependent")
    # tau_i(A) u = w_i / (scale d^i) for A = R / d
    return tuple(row_elements(field, x, scale * pair.a._ints[1] ** i) for i, x in enumerate(ws))
