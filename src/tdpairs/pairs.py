"""Tridiagonal-pair certification.

A candidate (A, Astar) is accepted when four axioms hold exactly:

  (i)   both operators are diagonalizable over the ground field;
  (ii)  some ordering of A's eigenspaces makes Astar act block-tridiagonally;
  (iii) the same with the roles swapped;
  (iv)  no common invariant subspace other than 0 and V.

Orderings are discovered through the support graph on eigenspace
indices.  Irreducibility is decided by one engine for Q and GF(p):
Norton's test on one eigenspace K, an eigenline when either side has
one (every Leonard pair), else the smallest eigenspace of a
diagonalizable side, decided as a module for the condensed algebra
E <A, Astar> E on K (see irreducible).
The accepted pair carries its canonically ordered eigen data and shape.
"""

from __future__ import annotations

from dataclasses import dataclass

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
)
from .fields import PrimeField
from .eigen import EigenDecomposition, eigen_decompose, eigencoordinate_change, field_roots
from .linalg import Matrix, char_poly, shifted_products, vec_is_zero
from .subspaces import (
    Subspace,
    annihilator,
    image_of,
    kernel,
    subspace_intersect,
    subspace_leq,
    subspace_sum,
    sum_of,
)

# ---- shape ---------------------------------------------------------------


@dataclass(frozen=True)
class ShapeVector:
    """Eigenspace dimensions (rho_0, ..., rho_d); positive, symmetric,
    and unimodal, which every accepted pair satisfies."""

    rho: tuple

    def __post_init__(self):
        rho = tuple(int(x) for x in self.rho)
        object.__setattr__(self, "rho", rho)
        if not rho:
            raise InvariantViolation("empty shape")
        if any(x < 1 for x in rho):
            raise InvariantViolation(f"non-positive shape entry in {rho}")
        d = len(rho) - 1
        for i in range(d + 1):
            if rho[i] != rho[d - i]:
                raise InvariantViolation(f"shape {rho} is not symmetric")
        for i in range(1, (d + 1) // 2 + (d + 1) % 2):
            if rho[i - 1] > rho[i]:
                raise InvariantViolation(f"shape {rho} is not unimodal")

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
    return subspace_leq(image_of(a, w), w) and subspace_leq(image_of(astar, w), w)


def _checked_reducible(a: Matrix, astar: Matrix, w: Subspace, how: str) -> IrreducibilityReport:
    if not _witness_ok(a, astar, w):
        raise InvariantViolation(f"claimed reducibility witness fails its checks ({how})")
    return IrreducibilityReport.reducible(w, how)


# ---- span accumulation and spin-up ----------------------------------------


class _SpanAccumulator:
    """Incremental echelon basis of a growing set of vectors."""

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot index -> normalized row (list)

    def add(self, vec) -> bool:
        """Reduce vec against the basis; insert the residual if nonzero.
        Returns True when the vector enlarged the span."""
        v = list(vec)
        while True:
            pivot = next((i for i, x in enumerate(v) if x), None)
            if pivot is None:
                return False
            row = self.rows.get(pivot)
            if row is None:
                inv = self.field.one / v[pivot]
                self.rows[pivot] = [inv * x for x in v]
                return True
            c = v[pivot]
            v = [x - c * y if y else x for x, y in zip(v, row)]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vectors(self) -> list:
        return [tuple(r) for r in self.rows.values()]


def _spin(field, n: int, seeds, operators) -> Subspace:
    """Smallest subspace containing the seeds and invariant under the
    operators, grown by a worklist of images."""
    acc = _SpanAccumulator(field)
    queue = []
    for s in seeds:
        if acc.add(s):
            queue.append(tuple(s))
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for g in operators:
            w = g.apply(v)
            if acc.add(w):
                queue.append(w)
        if acc.dim == n:
            break
    return Subspace.span(field, n, acc.vectors())


# ---- support-graph orderings ----------------------------------------------


def _block_edges(eig: EigenDecomposition, b: Matrix) -> set:
    """The pairs (j, i), j != i, for which b maps some vector of
    eigenspace j to a vector with a nonzero eigenspace-i component."""
    _, c_inv, ranges = eigencoordinate_change(eig)
    edges = set()
    for j, space in enumerate(eig.eigenspaces):
        for v in space.basis:
            coords = c_inv.apply(b.apply(v))
            for i, (lo, hi) in enumerate(ranges):
                if i != j and any(coords[lo:hi]):
                    edges.add((j, i))
    return edges


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


def _gf_lines(field: PrimeField, basis):
    """One representative per 1-dimensional subspace of the span of the
    given independent vectors (first nonzero coefficient normalized)."""
    p = field.p
    k = len(basis)
    # coefficient tuples with first nonzero entry equal to 1
    for lead in range(k):
        tail = k - lead - 1
        for idx in range(p**tail):
            coeffs = [field.zero] * lead + [field.one]
            rest = idx
            for _ in range(tail):
                coeffs.append(field.scalar(rest % p))
                rest //= p
            v = [field.zero] * len(basis[0])
            for c, bvec in zip(coeffs, basis):
                if c:
                    v = [x + c * y for x, y in zip(v, bvec)]
            yield tuple(v)


def _blocks(m: Matrix, k: int) -> Matrix:
    """diag(m, ..., m) with k blocks, acting on V^k."""
    n = m.ncols
    zero = (m.field.zero,)
    return Matrix(
        m.field,
        [zero * (n * j) + row + zero * (n * (k - j - 1)) for j in range(k) for row in m.rows],
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
    seed = tuple(x for v in kbasis for x in v)
    spun = _spin(field, n * k, [seed], (_blocks(a, k), _blocks(astar, k)))
    acc = _SpanAccumulator(field)
    basis = []
    for y in spun.basis:
        b = Matrix.from_columns(field, [coords.apply(y[j : j + n]) for j in range(0, n * k, n)])
        if acc.add(b.flatten()):
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
    k = mats[0].nrows
    eye = Matrix.identity(field, k)
    cuts = [Subspace.full(field, k)]
    for b in mats:
        spaces = [
            kernel(b - eye.scale(theta))
            for theta in sorted(set(field_roots(char_poly(b), field)))
        ]
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
    if not isinstance(field, PrimeField) or (field.p**k - 1) // (field.p - 1) > _LINE_ENUM_CAP:
        return "unknown"
    for v in _gf_lines(field, Matrix.identity(field, k).rows):
        if _spin(field, k, [v], b_basis).dim < k:
            return v
    return "simple"


_KERNEL_SPIN = "spin-up of a kernel vector of a singular algebra element"


def _norton(a: Matrix, astar: Matrix, t: Matrix, kbasis, submodule) -> IrreducibilityReport:
    """Norton's irreducibility test on K = ker t, for a singular element t
    of the algebra generated by {A, Astar} with kernel basis kbasis.

    A common invariant W either contains K, and then the spin-up of k_1
    is proper; or meets K in a proper submodule of the condensed algebra
    (see _submodule); or misses K, and then t maps W onto itself, so
    every w in ker t^T annihilates W and the spin-up of any one such w
    under the transposes is proper.  The spin-up of a vector of a proper
    submodule U of K is proper too: it meets K in B U = U.  So the spin
    of k_1, the spin of a submodule vector and the dual spin of one w
    decide irreducibility whenever submodule() decides K.  submodule()
    runs only when k_1 spins to V, and gives K-coordinates, "simple" or
    "unknown".
    """
    field = a.field
    n = a.nrows
    spun = _spin(field, n, [kbasis[0]], (a, astar))
    if spun.dim < n:
        return _checked_reducible(a, astar, spun, _KERNEL_SPIN)
    found = submodule()
    if found not in ("simple", "unknown"):
        v = Matrix.from_columns(field, kbasis).apply(found)
        return _checked_reducible(a, astar, _spin(field, n, [v], (a, astar)), _KERNEL_SPIN)
    w = kernel(t.transpose()).basis[0]
    spun = _spin(field, n, [w], (a.transpose(), astar.transpose()))
    if spun.dim < n:
        witness = annihilator(field, n, spun.basis)
        return _checked_reducible(a, astar, witness, "annihilator of a proper dual spin-up")
    if found == "unknown":
        return IrreducibilityReport.inconclusive(
            "no eigenline, and the condensed algebra of the eigenspace is "
            "too large to decide its submodules"
        )
    return IrreducibilityReport.irreducible(
        "kernel spin-ups and the dual spin-up all fill the space"
    )


# ---- the engine ---------------------------------------------------------------


def _eigenspaces(m: Matrix, eig: EigenDecomposition | None) -> tuple[list, EigenDecomposition | None]:
    """(theta, eigenspace) for every eigenvalue of m in its field, and
    m's decomposition when m is diagonalizable.  Taken from eig when the
    caller has it, else from the roots of char_poly."""
    if eig is not None:
        return list(zip(eig.eigenvalues, eig.eigenspaces)), eig
    eye = Matrix.identity(m.field, m.nrows)
    thetas = sorted(set(field_roots(char_poly(m), m.field)))
    spaces = [kernel(m - eye.scale(theta)) for theta in thetas]
    if sum(space.dim for space in spaces) == m.nrows:
        eig = EigenDecomposition(m, tuple(thetas), tuple(spaces))
    return list(zip(thetas, spaces)), eig


def irreducible(
    a: Matrix,
    astar: Matrix,
    eig_a: EigenDecomposition | None = None,
    eig_astar: EigenDecomposition | None = None,
) -> IrreducibilityReport:
    """Decide whether {A, Astar} admits a common invariant subspace
    other than 0 and V, by Norton's test on one eigenspace K = ker t,
    t = M - theta I (see _norton).

    K is the first eigenline of A or Astar (A's first, in eigenvalue
    order), on any side; a line is a simple module.  With no eigenline,
    K is the smallest eigenspace of a diagonalizable side (A's first on
    a tie), and K is decided as a module for the condensed algebra
    B = E <A, Astar> E, E the projection onto K along the other
    eigenspaces (A. J. E. Ryba, J. Symbolic Comput. 9, 1990; D. F. Holt
    and S. Rees, "Testing modules for irreducibility", 1994): see
    _condensed and _submodule.  With neither side diagonalizable, K = V,
    t = 0 and B is the whole algebra.  The witness is the spin-up of k_1
    or of a submodule vector, or the annihilator of the proper dual
    spin-up.  The answer is "inconclusive" only when K has dimension at
    least 4, has no submodule that a common eigenline shows, B is not
    End(K), and K is over Q or has more than _LINE_ENUM_CAP lines.  The
    eigen data comes from eig_a / eig_astar when given, else from the
    roots of each characteristic polynomial.
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
    eye = Matrix.identity(field, n)
    spaces_a, eig_a = _eigenspaces(a, eig_a)
    spaces_astar, eig_astar = _eigenspaces(astar, eig_astar)
    shifts = [(a, eig_a, i, theta, k) for i, (theta, k) in enumerate(spaces_a)]
    shifts += [(astar, eig_astar, i, theta, k) for i, (theta, k) in enumerate(spaces_astar)]
    for m, _, _, theta, k in shifts:
        if k.dim == 1:
            return _norton(a, astar, m - eye.scale(theta), k.basis, lambda: "simple")
    diagonal = [s for s in shifts if s[1] is not None]
    if diagonal:
        m, eig, i, theta, k = min(diagonal, key=lambda s: s[4].dim)
        t, kbasis = m - eye.scale(theta), k.basis
        _, c_inv, ranges = eigencoordinate_change(eig)
        coords = Matrix(field, c_inv.rows[slice(*ranges[i])])
    else:
        t, kbasis, coords = Matrix.zeros(field, n, n), eye.rows, eye
    return _norton(
        a, astar, t, kbasis, lambda: _submodule(field, _condensed(a, astar, kbasis, coords))
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
        return TriDiagonalPair(
            self.a,
            self.astar,
            self.eig_a.reversed(),
            self.eig_astar,
            self.shape,
            self.irreducibility,
        )

    def with_reversed_astar(self) -> "TriDiagonalPair":
        return TriDiagonalPair(
            self.a,
            self.astar,
            self.eig_a,
            self.eig_astar.reversed(),
            self.shape,
            self.irreducibility,
        )


def validate_pair(
    a: Matrix,
    astar: Matrix,
    eig_a: EigenDecomposition | None = None,
    eig_astar: EigenDecomposition | None = None,
) -> TriDiagonalPair:
    """Certify the four axioms and assemble the ordered pair data.

    eig_a / eig_astar, if given, are reused as the decompositions of a / astar.
    The irreducibility check runs before the ordering search so that a
    definitive witness is reported even when orderings also fail
    (a disconnected support graph always implies reducibility).  An
    inconclusive irreducibility verdict is deferred: if an ordering
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
    report = irreducible(a, astar, eig_a=eig_a, eig_astar=eig_astar)
    if report.is_reducible():
        raise NotIrreducible(
            f"common invariant subspace of dimension {report.witness.dim}",
            witness=report.witness,
        )
    orderings_a = support_path_orderings(eig_a, astar)
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
    dims_a = eig_a.dims()
    dims_astar = eig_astar.dims()
    if dims_a != dims_astar:
        raise InvariantViolation(
            f"eigenspace dimension sequences differ: {dims_a} vs {dims_astar}"
        )
    shape_vec = ShapeVector(dims_a)
    return TriDiagonalPair(a, astar, eig_a, eig_astar, shape_vec, report)


def shape(pair: TriDiagonalPair) -> ShapeVector:
    """The eigenspace-dimension vector, re-verified against both sides."""
    dims_a = pair.eig_a.dims()
    dims_astar = pair.eig_astar.dims()
    if dims_a != dims_astar:
        raise InvariantViolation("stored orderings disagree on dimensions")
    return ShapeVector(dims_a)


# ---- the contradiction witness --------------------------------------------


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
    u = tuple(field.scalar(x) for x in u)
    if vec_is_zero(u):
        raise HypothesisNotMet("u must be nonzero")
    if not eig_astar.eigenspaces[0].contains(u):
        raise HypothesisNotMet("u must lie in the first Astar-eigenspace")
    tau_i = shifted_products(eig_a.operator, eig_a.eigenvalues[:i])[-1]
    if not vec_is_zero(tau_i.apply(u)):
        raise HypothesisNotMet(
            "the degree-i product does not annihilate u; construction does not apply"
        )
    prefix_star = []
    acc = Subspace.zero(field, n)
    for space in eig_astar.eigenspaces:
        acc = subspace_sum(acc, space)
        prefix_star.append(acc)
    prefix = []
    acc = Subspace.zero(field, n)
    for space in eig_a.eigenspaces:
        acc = subspace_sum(acc, space)
        prefix.append(acc)
    parts = []
    for r in range(i):
        parts.append(subspace_intersect(prefix_star[r], prefix[i - r - 1]))
    w = sum_of(parts, field=field, ambient_dim=n)
    a = eig_a.operator
    astar = eig_astar.operator
    if w.is_zero() or w.is_full():
        raise InvariantViolation("contradiction witness degenerate")
    if not subspace_leq(image_of(a, w), w) or not subspace_leq(image_of(astar, w), w):
        raise InvariantViolation("contradiction witness is not invariant")
    return w
