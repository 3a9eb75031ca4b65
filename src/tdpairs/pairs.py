"""Tridiagonal-pair certification.

A candidate (A, Astar) is accepted when four axioms hold exactly:

  (i)   both operators are diagonalizable over the ground field;
  (ii)  some ordering of A's eigenspaces makes Astar act block-tridiagonally;
  (iii) the same with the roles swapped;
  (iv)  no common invariant subspace other than 0 and V.

Orderings are discovered through the support graph on eigenspace
indices.  Irreducibility is decided by one engine for Q and GF(p):
Norton's test on one eigenspace K, an eigenline when either side has
one (for every Leonard pair read off that support graph), else the
smallest eigenspace of a diagonalizable side, decided as a module for
the condensed algebra E <A, Astar> E on K (see irreducible).
The accepted pair carries its canonically ordered eigen data and shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, chain, product
from operator import mul

from .errors import (
    DiameterMismatch,
    DimensionMismatch,
    FieldMismatch,
    HypothesisNotMet,
    InconclusiveIrreducibility,
    InvariantViolation,
    NoTridiagonalOrdering,
    NotDiagonalizableOverField,
    NotIrreducible,
    ParseError,
)
from .eigen import EigenDecomposition, _band_decomposition, eigen_decompose, eigencoordinate_change, eigenspaces
from .linalg import Echelon, Matrix, modulus, residue_product, shifted_chain, vec_is_zero
from .subspaces import (
    Subspace,
    annihilator,
    kernel,
    maps_into,
    subspace_intersect,
    subspace_sum,
    sum_of,
)

# ---- shape ---------------------------------------------------------------


@dataclass(frozen=True)
class ShapeVector:
    """Eigenspace dimensions (rho_0, ..., rho_d); positive, symmetric,
    and unimodal, which every accepted pair satisfies.  Any other vector
    is rejected input (ParseError)."""

    rho: tuple

    def __post_init__(self):
        rho = tuple(self.rho)
        if any(type(x) is not int for x in rho):  # bools and floats too
            raise ParseError(f"shape entries must be integers, got {rho}")
        object.__setattr__(self, "rho", rho)
        if not rho:
            raise ParseError("empty shape")
        if any(x < 1 for x in rho):
            raise ParseError(f"non-positive shape entry in {rho}")
        d = len(rho) - 1
        for i in range(d + 1):
            if rho[i] != rho[d - i]:
                raise ParseError(f"shape {rho} is not symmetric")
        for i in range(1, (d + 1) // 2 + (d + 1) % 2):
            if rho[i - 1] > rho[i]:
                raise ParseError(f"shape {rho} is not unimodal")

    @property
    def diameter(self) -> int:
        return len(self.rho) - 1

    def is_all_ones(self) -> bool:
        return all(x == 1 for x in self.rho)

    def __iter__(self):
        return iter(self.rho)

    def __len__(self):
        return len(self.rho)

    def __getitem__(self, i):
        return self.rho[i]


# ---- irreducibility report ------------------------------------------------


@dataclass(frozen=True)
class IrreducibilityReport:
    """Outcome of the common-invariant-subspace test.

    verdict is "irreducible", "reducible", or "inconclusive"; a
    reducible verdict always carries a machine-checked witness.
    """

    verdict: str
    witness: Subspace | None = None
    diagnostic: str = ""

    @classmethod
    def irreducible(cls, diagnostic: str) -> "IrreducibilityReport":
        return cls("irreducible", None, diagnostic)

    @classmethod
    def reducible(cls, witness: Subspace, diagnostic: str) -> "IrreducibilityReport":
        return cls("reducible", witness, diagnostic)

    @classmethod
    def inconclusive(cls, diagnostic: str) -> "IrreducibilityReport":
        return cls("inconclusive", None, diagnostic)

    def is_irreducible(self) -> bool:
        return self.verdict == "irreducible"

    def is_reducible(self) -> bool:
        return self.verdict == "reducible"


def _witness_ok(a: Matrix, astar: Matrix, w: Subspace) -> bool:
    """The three properties every reducibility witness must satisfy."""
    if w.is_zero() or w.is_full():
        return False
    return maps_into(a, w, w) and maps_into(astar, w, w)


def _checked_reducible(a: Matrix, astar: Matrix, w: Subspace, how: str) -> IrreducibilityReport:
    if not _witness_ok(a, astar, w):
        raise InvariantViolation(f"claimed reducibility witness fails its checks ({how})")
    return IrreducibilityReport.reducible(w, how)


# ---- spin-up ----------------------------------------------------------------


def _spin(field, n: int, seeds, operators) -> Subspace:
    """Smallest subspace containing the seeds, int rows as an Echelon
    takes them, and invariant under the operators, grown by a worklist of
    int rows; each image is taken on the operators' int rows."""
    acc = Echelon(field)
    queue = [u for u in seeds if acc.insert(u)]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for g in operators:
            w = acc.image(g, v)
            if acc.insert(w):
                queue.append(w)
        if acc.dim == n:
            break
    return Subspace(acc, n)


# ---- support-graph orderings ----------------------------------------------


def _block_edges(eig: EigenDecomposition, b: Matrix) -> frozenset:
    """The pairs (j, i), j != i, for which b maps some vector of
    eigenspace j to a vector with a nonzero eigenspace-i component: the
    nonzero off-diagonal blocks of C^-1 b C, C the eigenbasis change,
    read off the nonzero entries of one int product through the block
    of each coordinate.  The last b's edges are kept on (immutable) eig,
    so irreducible and the ordering search share one block graph."""
    kept = eig.__dict__.get("_edges")
    if kept is None or kept[0] is not b:
        kept = (b, _block_graph(eig, b))
        object.__setattr__(eig, "_edges", kept)
    return kept[1]


def _block_graph(eig: EigenDecomposition, b: Matrix) -> frozenset:
    c, c_inv, ranges = eigencoordinate_change(eig)
    p = modulus(eig.field)
    prod = residue_product(residue_product(c_inv._ints[0], b._ints[0], p), c._ints[0], p)
    block = [i for i, (lo, hi) in enumerate(ranges) for _ in range(lo, hi)]  # of each coordinate
    return frozenset({(block[k], i) for i, row in zip(block, prod) for k, x in enumerate(row) if x and block[k] != i})


def support_path_orderings(eig: EigenDecomposition, b: Matrix) -> list[tuple[int, ...]]:
    """Orderings of eig's eigenspaces under which b acts block-tridiagonally
    and links each eigenspace to the next: the path_orderings of the edges
    _block_edges(eig, b)."""
    return path_orderings(eig.diameter + 1, _block_edges(eig, b))


def path_orderings(count: int, edges) -> list[tuple[int, ...]]:
    """Orderings of the vertices 0..count-1 whose consecutive pairs are
    exactly the edges: the two traversals of a simple path through every
    vertex (one for a single vertex), or an empty list.  Edges are pairs
    (j, i), read without direction; loops are ignored.
    """
    adjacency = {i: set() for i in range(count)}
    for j, i in edges:
        if i != j:
            adjacency[i].add(j)
            adjacency[j].add(i)
    # a path starts at its first endpoint and never branches; a walk that
    # never branches and visits every vertex has used every edge
    walk = [min(adjacency, key=lambda i: len(adjacency[i]))]
    while len(adjacency[walk[-1]].difference(walk)) == 1:
        walk.extend(adjacency[walk[-1]].difference(walk))
    if len(walk) < count:
        return []
    return sorted({tuple(walk), tuple(reversed(walk))})


# ---- Norton's test on a condensed eigenspace ----------------------------------

_LINE_ENUM_CAP = 200_000


def _gf_lines(field, basis):
    """One representative per 1-dimensional subspace of the span of the
    given independent vectors (first nonzero coefficient normalized), as
    an int row of residues."""
    rows, p, k = Matrix.from_columns(field, basis)._ints[0], field.p, len(basis)
    # coefficients (0, ..., 0, 1, c_1, c_2, ...), c_1 running fastest
    for lead in range(k):
        for tail in product(range(p), repeat=k - lead - 1):
            c = (0,) * lead + (1,) + tail[::-1]
            yield [sum(map(mul, row, c)) % p for row in rows]


def _blocks(m: Matrix, k: int) -> Matrix:
    """diag(m, ..., m) with k blocks, acting on V^k."""
    (rows, d), n = m._ints, m.ncols
    return Matrix._of_ints(
        m.field, [(0,) * (n * j) + row + (0,) * (n * (k - j - 1)) for j in range(k) for row in rows], d
    )


def _condensed(a: Matrix, astar: Matrix, krows, coords: Matrix) -> list[Matrix]:
    """A basis of the condensed algebra B = E <A, Astar> E acting on K.

    krows are the int rows of a basis (k_1, ..., k_k) of K = E V over one
    denominator, and coords reads the K-coordinates of E v for a vector
    v.  Spinning (k_1, ..., k_k) in V^k under diag(A, ..., A) and
    diag(Astar, ..., Astar) gives the tuples (x k_1, ..., x k_k) for x in
    the algebra; their K-coordinates are the columns of E x on K, so they
    span B.  The basis is the independent ones among them, in the spin's
    order, so it has at most k^2 elements.
    """
    field = a.field
    n, k = a.nrows, len(krows)
    seed = [*chain.from_iterable(krows)]
    spun = _spin(field, n * k, [seed], (_blocks(a, k), _blocks(astar, k)))
    acc = Echelon(field)
    basis = []
    for y in spun.basis:
        b = Matrix.from_columns(field, [coords.apply(y[j : j + n]) for j in range(0, n * k, n)])
        if acc.insert([*chain.from_iterable(b._ints[0])]):
            basis.append(b)
    return basis


def closure_algebra(a: Matrix, astar: Matrix) -> tuple[list[Matrix], int]:
    """Basis of the unital algebra generated by {A, Astar} inside End(V),
    as a list of matrices, plus its dimension: the condensed algebra of
    K = V, with E = I.  The engine does not call it; perfbench/tracer.py
    wraps this name, so it stays until the benchmark drops it."""
    eye = Matrix.identity(a.field, a.nrows)
    basis = _condensed(a, astar, eye._ints[0], eye)
    return basis, len(basis)


def _common_eigenline(field, mats: list[Matrix]):
    """A vector whose line every matrix maps into itself, or None.  The
    eigenspaces of the first matrix, in ascending eigenvalue order, are
    cut by those of each next one; the first nonzero cut is the line."""
    cuts = [Subspace.full(field, mats[0].nrows)]
    for b in mats:
        spaces = eigenspaces(b)[1]
        cuts = [subspace_intersect(c, s) for c in cuts for s in spaces]
        cuts = [c for c in cuts if not c.is_zero()]
        if not cuts:
            return None
    return cuts[0].basis[0]


def _submodule(field, b_basis: list[Matrix]):
    """Decide K as a module for the algebra B spanned by b_basis (k x k
    matrices, k >= 2): the K-coordinates of a vector of a proper nonzero
    submodule, "simple", or "unknown".

    A common eigenline of b_basis is a submodule.  A common eigenline of
    the transposes is a vector y with y . B x = 0 whenever y . x = 0, so
    its annihilator is a submodule of codimension 1.  Every proper
    submodule of a space of dimension at most 3 is a line or has
    codimension 1, and B = End(K) has none.  Over GF(p), while K has at
    most _LINE_ENUM_CAP lines, the first line that spins to a proper
    subspace of K under B is the answer, and none means simple.
    """
    k = b_basis[0].nrows
    line = _common_eigenline(field, b_basis)
    if line is not None:
        return line
    line = _common_eigenline(field, [b.transpose() for b in b_basis])
    if line is not None:
        return annihilator(field, k, [line]).basis[0]
    if k <= 3 or len(b_basis) == k * k:
        return "simple"
    if field.kind != "GFp" or (field.p**k - 1) // (field.p - 1) > _LINE_ENUM_CAP:
        return "unknown"
    for v in _gf_lines(field, Matrix.identity(field, k).rows):
        if _spin(field, k, [v], b_basis).dim < k:
            return v
    return "simple"


_KERNEL_SPIN = "spin-up of a kernel vector of a singular algebra element"
_DUAL_SPIN = "annihilator of a proper dual spin-up"
_SPINS_FILL = "kernel spin-ups and the dual spin-up all fill the space"
_DIM_ONE = "no proper nonzero subspaces in dimension 1"


def _norton(a: Matrix, astar: Matrix, m: Matrix, theta, krows, submodule) -> IrreducibilityReport:
    """Norton's irreducibility test on K = ker t, for a singular element
    t = m - theta I of the algebra generated by {A, Astar}, with the
    kernel basis k_1, ..., k_k given as int rows over one denominator.

    A common invariant W either contains K, and then the spin-up of k_1
    is proper; or meets K in a proper submodule of the condensed algebra
    (see _submodule); or misses K, and then t maps W onto itself, so
    every w in ker t^T annihilates W and the spin-up of any one such w
    under the transposes is proper.  The spin-up of a vector of a proper
    submodule U of K is proper too: it meets K in B U = U.  So the spin
    of k_1, the spin of a submodule vector and the dual spin of one w
    decide irreducibility whenever submodule() decides K.  submodule()
    runs only when k_1 spins to V, and gives K-coordinates, "simple" or
    "unknown".  Every spin is seeded with int rows, and w is the first
    canonical row of ker t^T = ker(m^T - theta I), so t is never built.
    """
    field = a.field
    n = a.nrows
    spun = _spin(field, n, krows[:1], (a, astar))
    if spun.dim < n:
        return _checked_reducible(a, astar, spun, _KERNEL_SPIN)
    found = submodule()
    if found not in ("simple", "unknown"):
        v = (Matrix(field, [found]) @ Matrix._of_ints(field, krows))._ints[0]
        return _checked_reducible(a, astar, _spin(field, n, v, (a, astar)), _KERNEL_SPIN)
    dual = kernel(m.transpose(), theta).echelon.rows
    spun = _spin(field, n, [dual[min(dual)]], (a.transpose(), astar.transpose()))
    if spun.dim < n:
        return _checked_reducible(a, astar, annihilator(field, n, spun.basis), _DUAL_SPIN)
    if found == "unknown":
        return IrreducibilityReport.inconclusive(
            "no eigenline, and the condensed algebra of the eigenspace is "
            "too large to decide its submodules"
        )
    return IrreducibilityReport.irreducible(_SPINS_FILL)


def _graph_norton(a: Matrix, astar: Matrix, eig, edges, i0: int) -> IrreducibilityReport:
    """_norton on the eigenline i0 of a side with n distinct eigenvalues,
    read off its block graph (edge (j, i) read as j -> i).  Each subspace
    that side keeps is a sum of its eigenlines: the spin of u_i0 sums those
    i0 reaches, and the dual spin of w_i0 annihilates those not reaching i0."""
    n, lines = a.nrows, eig.eigenspaces
    for arrows, how in ((edges, _KERNEL_SPIN), ({(i, j) for j, i in edges}, _DUAL_SPIN)):
        seen = {i0}
        while more := {i for j, i in arrows if j in seen} - seen:
            seen |= more
        if len(seen) < n:
            keep = seen if arrows is edges else set(range(n)) - seen
            return _checked_reducible(a, astar, sum_of([lines[j] for j in sorted(keep)]), how)
    return IrreducibilityReport.irreducible(_SPINS_FILL)


# ---- the engine ---------------------------------------------------------------


def _eigenspaces(m: Matrix) -> tuple[list, EigenDecomposition | None]:
    """(theta, eigenspace) for every eigenvalue of m in its field, and
    m's decomposition (eigen_decompose) or None when m is not
    diagonalizable, its eigenspaces then carried by the rejection."""
    try:
        eig = eigen_decompose(m)
    except NotDiagonalizableOverField as e:
        return list(e.spaces), None
    return list(zip(eig.eigenvalues, eig.eigenspaces)), eig


def irreducible(a: Matrix, astar: Matrix) -> IrreducibilityReport:
    """Decide whether {A, Astar} admits a common invariant subspace
    other than 0 and V, by Norton's test on one eigenspace K = ker t,
    t = M - theta I (see _norton).

    K is the first eigenline of A or Astar (A's first, in eigenvalue
    order); a line is a simple module, and on a side with n distinct
    eigenvalues the test is read off the block graph (_graph_norton;
    _block_edges keeps it on that side's decomposition).  With no
    eigenline, K is the smallest eigenspace of a diagonalizable side
    (A's first on a tie), decided as a module for the condensed algebra
    B = E <A, Astar> E, E the projection onto K along the other
    eigenspaces (A. J. E. Ryba, J. Symbolic Comput. 9, 1990; D. F. Holt
    and S. Rees, "Testing modules for irreducibility", 1994): see
    _condensed and _submodule.  With neither side diagonalizable, K = V,
    t = 0 and B is the whole algebra.  The witness is the spin-up of k_1
    or of a submodule vector, or the annihilator of the proper dual
    spin-up.  The answer is "inconclusive" only when K has dimension at
    least 4, has no submodule that a common eigenline shows, B is not
    End(K), and K is over Q or has more than _LINE_ENUM_CAP lines.  Each
    side's eigen data comes from _eigenspaces: its decomposition, given back
    by eigen_decompose when the caller holds one, else its eigenspaces.
    """
    if not a.is_square() or not astar.is_square():
        raise DimensionMismatch("irreducibility needs square matrices")
    if a.nrows != astar.nrows:
        raise DimensionMismatch("operator sizes differ")
    if a.field != astar.field:
        raise FieldMismatch(f"{a.field!r} vs {astar.field!r}")
    if a.nrows == 0:
        raise DimensionMismatch("empty matrices")
    if a.nrows == 1:
        return IrreducibilityReport.irreducible(_DIM_ONE)
    field = a.field
    n = a.nrows
    shifts = []
    for m in (a, astar):  # Astar's eigenspaces only when A has no eigenline
        spaces, eig = _eigenspaces(m)
        for i, (theta, k) in enumerate(spaces):
            if k.dim == 1 and eig is not None and eig.diameter == n - 1:
                return _graph_norton(a, astar, eig, _block_edges(eig, astar if m is a else a), i)
            if k.dim == 1:
                return _norton(a, astar, m, theta, [*k.echelon.rows.values()], lambda: "simple")
            shifts.append((m, eig, i, theta, k))
    diagonal = [s for s in shifts if s[1] is not None]
    if diagonal:
        m, eig, i, theta, k = min(diagonal, key=lambda s: s[4].dim)
        c, c_inv, ranges = eigencoordinate_change(eig)
        krows = [*zip(*c._ints[0])][slice(*ranges[i])]  # C's columns, over C's denominator
        rows, d = c_inv._ints
        coords = Matrix._of_ints(field, rows[slice(*ranges[i])], d)
    else:
        eye = Matrix.identity(field, n)
        m, theta, krows, coords = Matrix.zeros(field, n, n), field.zero, eye._ints[0], eye
    return _norton(
        a, astar, m, theta, krows, lambda: _submodule(field, _condensed(a, astar, krows, coords))
    )


# ---- the validated pair ------------------------------------------------------


@dataclass(frozen=True)
class TriDiagonalPair:
    """A certified pair: both eigen-decompositions carry the chosen
    tridiagonal orderings, and shape/irreducibility evidence rides along."""

    a: Matrix
    astar: Matrix
    eig_a: EigenDecomposition
    eig_astar: EigenDecomposition
    shape: ShapeVector
    irreducibility: IrreducibilityReport

    @property
    def field(self):
        return self.a.field

    @property
    def dim(self) -> int:
        return self.a.nrows

    @property
    def diameter(self) -> int:
        return self.eig_a.diameter

    def theta(self, i: int):
        return self.eig_a.eigenvalues[i]

    def thetastar(self, i: int):
        return self.eig_astar.eigenvalues[i]

    def v(self, i: int) -> Subspace:
        return self.eig_a.eigenspaces[i]

    def vstar(self, i: int) -> Subspace:
        return self.eig_astar.eigenspaces[i]

    def with_reversed_a(self) -> "TriDiagonalPair":
        """The same pair under the alternative (reversed) A-ordering."""
        return replace(self, eig_a=self.eig_a.reversed())

    def with_reversed_astar(self) -> "TriDiagonalPair":
        return replace(self, eig_astar=self.eig_astar.reversed())


def validate_pair(a: Matrix, astar: Matrix) -> TriDiagonalPair:
    """Certify the four axioms and assemble the ordered pair data.

    Right after the size and field checks, a split form whose sequences form
    a parameter array (every 1x1 pair) is certified by Terwilliger's
    classification (_split_form_pair); any other input goes through the
    general engine, so every rejection is the engine's.  There the irreducibility check runs
    before the ordering search so that a definitive witness is reported even
    when orderings also fail (a disconnected support graph always implies
    reducibility).  Each side is decomposed once: irreducible gets the
    decompositions made here back from eigen_decompose, and a block graph
    it reads off one is kept there for the ordering search.  An inconclusive
    irreducibility verdict is deferred: if an ordering failure can reject
    the candidate definitively, it does.
    """
    if not a.is_square() or not astar.is_square() or a.nrows != astar.nrows:
        raise DimensionMismatch("pair members must be square and of equal size")
    if a.field != astar.field:
        raise FieldMismatch(f"{a.field!r} vs {astar.field!r}")
    if a.nrows == 0:
        raise DimensionMismatch("dimension must be positive")
    if (pair := _split_form_pair(a, astar)) is not None:
        return pair
    eigs = []
    for m, side in ((a, "A"), (astar, "Astar")):
        try:
            eigs.append(eigen_decompose(m))
        except NotDiagonalizableOverField as e:
            raise NotDiagonalizableOverField(str(e), side=side) from None
    if eigs[0].diameter != eigs[1].diameter:
        raise DiameterMismatch(f"{eigs[0].diameter + 1} eigenvalues for A vs {eigs[1].diameter + 1} for Astar")
    report = irreducible(a, astar)
    if report.is_reducible():
        raise NotIrreducible(f"common invariant subspace of dimension {report.witness.dim}", witness=report.witness)
    for i, (b, side, other) in enumerate(((astar, "A", "Astar"), (a, "Astar", "A"))):
        if not (orderings := support_path_orderings(eigs[i], b)):
            how = f"no ordering of {side}'s eigenspaces makes {other} block-tridiagonal"
            raise NoTridiagonalOrdering(how, side=side)
        eigs[i] = _lex_least(eigs[i], orderings)
    if not report.is_irreducible():
        raise InconclusiveIrreducibility(report.diagnostic, diagnostic=report.diagnostic)
    return TriDiagonalPair(a, astar, *eigs, _shape_of(*eigs), report)


def _split_phi(a: Matrix, astar: Matrix) -> tuple[list, int] | None:
    """(phi, e) when A = R / d_A is lower bidiagonal with unit subdiagonal,
    Astar = S / d_S is upper bidiagonal, and theta_i = R_ii / d_A,
    thetastar_i = S_ii / d_S and varphi_i = S_{i-1,i} / d_S satisfy PA1-PA5
    of Terwilliger's classification (LAA 330, 2001, Thm 1.9, any field),
    else None; phi_i = phi[i - 1] / e is then PA4's phi_i.  With vartheta_i
    the sum over h < i of (theta_h - theta_{d-h}) / (theta_0 - theta_d):
      PA1  theta and thetastar each hold distinct scalars;
      PA2  every varphi_i and phi_i is nonzero;
      PA3  varphi_i = phi_1 vartheta_i + (thetastar_i - thetastar_0)(theta_{i-1} - theta_d);
      PA4  phi_i = varphi_1 vartheta_i + (thetastar_i - thetastar_0)(theta_{d-i+1} - theta_0);
      PA5  (theta_{i-2} - theta_{i+1}) / (theta_{i-1} - theta_i), 2 <= i <= d - 1,
           is one scalar for theta and thetastar.
    Read on the int rows, mod p over GF(p): phi_i times e = d_A d_S (R_00 - R_dd),
    PA3 times d_A d_S (R_00 - R_dd)^2, PA5 cross-multiplied; every entry off the bands
    is 0.  A 1x1 pair holds PA1-PA5 vacuously: phi is empty, and e = 0 goes unread."""
    (r, da), (s, ds), p = a._ints, astar._ints, modulus(a.field)
    n, d = len(r), len(r) - 1
    if not _unit_lower_bidiagonal(r, da) or any(any(s[i][:i] + s[i][i + 2 :]) for i in range(n)):
        return None
    t, u, f = [r[i][i] for i in range(n)], [s[i][i] for i in range(n)], [s[i - 1][i] for i in range(1, n)]
    if len(set(t)) < n or len(set(u)) < n or not all(f):  # PA1, PA2 on varphi
        return None
    residue = (lambda x: x % p) if p else (lambda x: x)
    span, partial, phis = t[0] - t[d], 0, []
    for i in range(1, n):
        partial += t[i - 1] - t[d - i + 1]
        phis.append(da * f[0] * partial + (u[i] - u[0]) * (t[d - i + 1] - t[0]) * span)
        pa3 = phis[0] * partial + (u[i] - u[0]) * (t[i - 1] - t[d]) * span**2
        if not residue(phis[-1]) or residue(da * f[i - 1] * span**2 - pa3):  # PA2 on phi, PA3
            return None
    ratios = [(x[i - 2] - x[i + 1], x[i - 1] - x[i]) for x in (t, u) for i in range(2, d)]
    if any(residue(x * ratios[0][1] - ratios[0][0] * y) for x, y in ratios):  # PA5
        return None
    return phis, da * ds * span


def _unit_lower_bidiagonal(rows: list, d: int) -> bool:
    """Whether the square int rows R are lower bidiagonal with R_{i,i-1} = d."""
    return not any(any(row[i + 1 :]) or i and (row[i - 1] != d or any(row[: i - 1])) for i, row in enumerate(rows))


def _split_form_pair(a: Matrix, astar: Matrix) -> TriDiagonalPair | None:
    """The pair as validate_pair returns it when _split_phi finds a
    parameter array, else None: the _split_basis_pair, each side in the
    lex-least of its diagonal order and the reverse, compared on the
    diagonal ints."""
    if _split_phi(a, astar) is None:
        return None
    pair = _split_basis_pair(a, astar)
    t, u = ([row[i] for i, row in enumerate(m._ints[0])] for m in (a, astar))
    pair = pair.with_reversed_a() if t[::-1] < t else pair
    return pair.with_reversed_astar() if u[::-1] < u else pair


def _split_basis_pair(a: Matrix, astar: Matrix) -> TriDiagonalPair:
    """The Leonard pair of a split form whose sequences form a parameter
    array (_split_phi), with orderings theta and thetastar in diagonal
    order: each side decomposed on its band, n lines a side, so its shape
    is (1, ..., 1), and Norton's test fills both spins; at n = 1 no proper
    subspace exists, the _DIM_ONE report irreducible gives."""
    eigs = (_band_decomposition(a, True), _band_decomposition(astar, False))
    report = IrreducibilityReport.irreducible(_SPINS_FILL if a.nrows > 1 else _DIM_ONE)
    return TriDiagonalPair(a, astar, *eigs, ShapeVector((1,) * a.nrows), report)


def _lex_least(eig: EigenDecomposition, orderings) -> EigenDecomposition:
    """eig reordered by the ordering whose eigenvalue sequence is least:
    the one validate_pair keeps of a side's tridiagonal orderings."""
    best = min(orderings, key=lambda o: tuple(eig.eigenvalues[i] for i in o))
    return eig.reordered(best)


def shape(pair: TriDiagonalPair) -> ShapeVector:
    """The eigenspace-dimension vector, re-verified against both sides."""
    return _shape_of(pair.eig_a, pair.eig_astar)


def _shape_of(eig_a: EigenDecomposition, eig_astar: EigenDecomposition) -> ShapeVector:
    """The shape of a certified pair; a failed check here is a bug."""
    dims_a, dims_astar = eig_a.dims(), eig_astar.dims()
    if dims_a != dims_astar:
        raise InvariantViolation(f"eigenspace dimensions differ: {dims_a} vs {dims_astar}")
    try:
        return ShapeVector(dims_a)
    except ParseError as e:
        raise InvariantViolation(f"certified pair has a bad shape: {e}") from None


# ---- the contradiction witness --------------------------------------------


def vstar0_vector(vstar0: Subspace, u) -> tuple:
    """u over vstar0's field, checked to be a nonzero vector of vstar0,
    the first Astar-eigenspace."""
    u = tuple(vstar0.field.scalar(x) for x in u)
    if vec_is_zero(u):
        raise HypothesisNotMet("u must be nonzero")
    if not vstar0.contains(u):
        raise HypothesisNotMet("u must lie in the first Astar-eigenspace")
    return u


def reducibility_witness_from_tau_kernel(
    eig_a: EigenDecomposition,
    eig_astar: EigenDecomposition,
    u,
    i: int,
) -> Subspace:
    """Build the invariant subspace exhibited when some tau-image of a
    nonzero vector of the first Astar-eigenspace vanishes.

    W = W_0 + ... + W_{i-1} with
    W_r = (Vstar_0+...+Vstar_r) meet (V_0+...+V_{i-r-1});
    applies only when u is nonzero, lies in Vstar_0, and the degree-i
    product of shifted operators annihilates it.
    """
    field = eig_a.field
    n = eig_a.ambient_dim
    if not (1 <= i <= eig_a.diameter):
        raise HypothesisNotMet(f"index {i} outside 1..{eig_a.diameter}")
    u = vstar0_vector(eig_astar.eigenspaces[0], u)
    m = eig_a.operator
    if any(shifted_chain(m._ints[0], eig_a.roots[:i], Matrix(field, [u])._ints[0][0], modulus(field))[-1]):
        raise HypothesisNotMet(
            "the degree-i product does not annihilate u; construction does not apply"
        )
    prefix_star = list(accumulate(eig_astar.eigenspaces, subspace_sum))
    prefix = list(accumulate(eig_a.eigenspaces, subspace_sum))
    parts = [subspace_intersect(prefix_star[r], prefix[i - r - 1]) for r in range(i)]
    w = sum_of(parts, field=field, ambient_dim=n)
    if not _witness_ok(m, eig_astar.operator, w):
        raise InvariantViolation("contradiction witness is degenerate or not invariant")
    return w
