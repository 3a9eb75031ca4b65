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
from .eigen import EigenDecomposition, eigen_decompose, eigencoordinate_change, eigenspaces
from .linalg import Echelon, Matrix, modulus, residue_product, shifted_products, vec_is_zero
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
        rho = tuple(int(x) for x in self.rho)
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


def _block_edges(eig: EigenDecomposition, b: Matrix) -> set:
    """The pairs (j, i), j != i, for which b maps some vector of
    eigenspace j to a vector with a nonzero eigenspace-i component: the
    nonzero off-diagonal blocks of C^-1 b C, C the eigenbasis change,
    read off the zero pattern of one int product."""
    c, c_inv, ranges = eigencoordinate_change(eig)
    p = modulus(eig.field)
    prod = residue_product(residue_product(c_inv._ints[0], b._ints[0], p), c._ints[0], p)
    return {
        (j, i)
        for i, (lo, hi) in enumerate(ranges)
        for j, (left, right) in enumerate(ranges)
        if i != j and any(any(row[left:right]) for row in prod[lo:hi])
    }


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


def _condensed(a: Matrix, astar: Matrix, kbasis, coords: Matrix) -> list[Matrix]:
    """A basis of the condensed algebra B = E <A, Astar> E acting on K.

    kbasis is a basis (k_1, ..., k_k) of K = E V, and coords reads the
    K-coordinates of E v for a vector v.  Spinning (k_1, ..., k_k) in V^k
    under diag(A, ..., A) and diag(Astar, ..., Astar) gives the tuples
    (x k_1, ..., x k_k) for x in the algebra; their K-coordinates are the
    columns of E x on K, so they span B.  The basis is the independent
    ones among them, in the spin's order, so it has at most k^2 elements.
    """
    field = a.field
    n, k = a.nrows, len(kbasis)
    seed = [*chain.from_iterable(Matrix(field, kbasis)._ints[0])]
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
    basis = _condensed(a, astar, eye.rows, eye)
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


def _norton(a: Matrix, astar: Matrix, m: Matrix, theta, kbasis, submodule) -> IrreducibilityReport:
    """Norton's irreducibility test on K = ker t, for a singular element
    t = m - theta I of the algebra generated by {A, Astar} with kernel
    basis kbasis.

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
    spun = _spin(field, n, Matrix(field, kbasis[:1])._ints[0], (a, astar))
    if spun.dim < n:
        return _checked_reducible(a, astar, spun, _KERNEL_SPIN)
    found = submodule()
    if found not in ("simple", "unknown"):
        v = (Matrix(field, [found]) @ Matrix(field, kbasis))._ints[0]
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
    n, lines = a.nrows, [space.basis[0] for space in eig.eigenspaces]
    for arrows, how in ((edges, _KERNEL_SPIN), ({(i, j) for j, i in edges}, _DUAL_SPIN)):
        seen = {i0}
        while more := {i for j, i in arrows if j in seen} - seen:
            seen |= more
        if len(seen) < n:
            keep = seen if arrows is edges else set(range(n)) - seen
            witness = Subspace.span(a.field, n, [lines[j] for j in keep])
            return _checked_reducible(a, astar, witness, how)
    return IrreducibilityReport.irreducible(_SPINS_FILL)


# ---- the engine ---------------------------------------------------------------


def _eigenspaces(m: Matrix, eig: EigenDecomposition | None) -> tuple[list, EigenDecomposition | None]:
    """(theta, eigenspace) for every eigenvalue of m in its field, and
    m's decomposition when m is diagonalizable.  Taken from eig when the
    caller has it, else from eigen.eigenspaces."""
    if eig is not None:
        return list(zip(eig.eigenvalues, eig.eigenspaces)), eig
    thetas, spaces, _ = eigenspaces(m)
    if sum(space.dim for space in spaces) == m.nrows:
        eig = EigenDecomposition(m, thetas, spaces)
    return list(zip(thetas, spaces)), eig


def irreducible(
    a: Matrix,
    astar: Matrix,
    eig_a: EigenDecomposition | None = None,
    eig_astar: EigenDecomposition | None = None,
    edges_a: set | None = None,
) -> IrreducibilityReport:
    """Decide whether {A, Astar} admits a common invariant subspace
    other than 0 and V, by Norton's test on one eigenspace K = ker t,
    t = M - theta I (see _norton).

    K is the first eigenline of A or Astar (A's first, in eigenvalue
    order); a line is a simple module, and on a side with n distinct
    eigenvalues the test is read off the block graph (_graph_norton;
    edges_a is _block_edges(eig_a, astar) when known).  With no
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
    End(K), and K is over Q or has more than _LINE_ENUM_CAP lines.  The
    eigen data comes from eig_a / eig_astar when given, else from
    eigen.eigenspaces (the diagonal of a triangular side).
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
        return IrreducibilityReport.irreducible("no proper nonzero subspaces in dimension 1")
    field = a.field
    n = a.nrows
    spaces_a, eig_a = _eigenspaces(a, eig_a)
    spaces_astar, eig_astar = _eigenspaces(astar, eig_astar)
    shifts = [(a, eig_a, i, theta, k) for i, (theta, k) in enumerate(spaces_a)]
    shifts += [(astar, eig_astar, i, theta, k) for i, (theta, k) in enumerate(spaces_astar)]
    for m, eig, i, theta, k in shifts:
        if k.dim == 1 and eig is not None and eig.diameter == n - 1:
            other = astar if m is a else a
            edges = edges_a if m is a and edges_a is not None else _block_edges(eig, other)
            return _graph_norton(a, astar, eig, edges, i)
        if k.dim == 1:
            return _norton(a, astar, m, theta, k.basis, lambda: "simple")
    diagonal = [s for s in shifts if s[1] is not None]
    if diagonal:
        m, eig, i, theta, k = min(diagonal, key=lambda s: s[4].dim)
        kbasis = k.basis
        _, c_inv, ranges = eigencoordinate_change(eig)
        rows, d = c_inv._ints
        coords = Matrix._of_ints(field, rows[slice(*ranges[i])], d)
    else:
        eye = Matrix.identity(field, n)
        m, theta, kbasis, coords = Matrix.zeros(field, n, n), field.zero, eye.rows, eye
    return _norton(
        a, astar, m, theta, kbasis, lambda: _submodule(field, _condensed(a, astar, kbasis, coords))
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


def validate_pair(
    a: Matrix,
    astar: Matrix,
    eig_a: EigenDecomposition | None = None,
    eig_astar: EigenDecomposition | None = None,
) -> TriDiagonalPair:
    """Certify the four axioms and assemble the ordered pair data.

    eig_a / eig_astar, if given, are reused as the decompositions of a / astar.
    The irreducibility check runs before the ordering search so that a
    definitive witness is reported even when orderings also fail (a
    disconnected support graph always implies reducibility); when A has
    n distinct eigenvalues, A's block graph is computed once and serves
    both.  An inconclusive irreducibility verdict is deferred: if an ordering
    failure can reject the candidate definitively, it does.
    """
    if not a.is_square() or not astar.is_square() or a.nrows != astar.nrows:
        raise DimensionMismatch("pair members must be square and of equal size")
    if a.field != astar.field:
        raise FieldMismatch(f"{a.field!r} vs {astar.field!r}")
    if a.nrows == 0:
        raise DimensionMismatch("dimension must be positive")
    try:
        eig_a = eig_a or eigen_decompose(a)
    except NotDiagonalizableOverField as e:
        raise NotDiagonalizableOverField(str(e), side="A") from None
    try:
        eig_astar = eig_astar or eigen_decompose(astar)
    except NotDiagonalizableOverField as e:
        raise NotDiagonalizableOverField(str(e), side="Astar") from None
    if eig_a.diameter != eig_astar.diameter:
        raise DiameterMismatch(
            f"{eig_a.diameter + 1} eigenvalues for A vs "
            f"{eig_astar.diameter + 1} for Astar"
        )
    edges_a = _block_edges(eig_a, astar) if 0 < eig_a.diameter == a.nrows - 1 else None
    report = irreducible(a, astar, eig_a=eig_a, eig_astar=eig_astar, edges_a=edges_a)
    if report.is_reducible():
        raise NotIrreducible(
            f"common invariant subspace of dimension {report.witness.dim}",
            witness=report.witness,
        )
    orderings_a = path_orderings(eig_a.diameter + 1, edges_a or _block_edges(eig_a, astar))
    if not orderings_a:
        raise NoTridiagonalOrdering(
            "no ordering of A's eigenspaces makes Astar block-tridiagonal",
            side="A",
        )
    orderings_astar = support_path_orderings(eig_astar, a)
    if not orderings_astar:
        raise NoTridiagonalOrdering(
            "no ordering of Astar's eigenspaces makes A block-tridiagonal",
            side="Astar",
        )
    if not report.is_irreducible():
        raise InconclusiveIrreducibility(report.diagnostic, diagnostic=report.diagnostic)

    def lex_least(eig, orderings):
        best = min(orderings, key=lambda o: tuple(eig.eigenvalues[i] for i in o))
        return eig.reordered(best)

    eig_a = lex_least(eig_a, orderings_a)
    eig_astar = lex_least(eig_astar, orderings_astar)
    return TriDiagonalPair(a, astar, eig_a, eig_astar, _shape_of(eig_a, eig_astar), report)


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
    tau_i = shifted_products(eig_a.operator, eig_a.eigenvalues[:i])[-1]
    if not vec_is_zero(tau_i.apply(u)):
        raise HypothesisNotMet(
            "the degree-i product does not annihilate u; construction does not apply"
        )
    prefix_star = list(accumulate(eig_astar.eigenspaces, subspace_sum))
    prefix = list(accumulate(eig_a.eigenspaces, subspace_sum))
    parts = [subspace_intersect(prefix_star[r], prefix[i - r - 1]) for r in range(i)]
    w = sum_of(parts, field=field, ambient_dim=n)
    if not _witness_ok(eig_a.operator, eig_astar.operator, w):
        raise InvariantViolation("contradiction witness is degenerate or not invariant")
    return w
