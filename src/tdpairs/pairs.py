"""Tridiagonal-pair certification.

A candidate (A, Astar) is accepted when four axioms hold exactly:

  (i)   both operators are diagonalizable over the ground field;
  (ii)  some ordering of A's eigenspaces makes Astar act block-tridiagonally;
  (iii) the same with the roles swapped;
  (iv)  no common invariant subspace other than 0 and V.

Orderings are discovered through the support graph on eigenspace
indices.  Irreducibility is decided by one engine for Q and GF(p):
Norton's test runs first, on the smallest eigenspace of A or Astar whose
candidate lines it can list, and is conclusive whenever a diagonalizable
side has an eigenspace of dimension at most 2 (over GF(p) also on any
eigenspace with at most _LINE_ENUM_CAP lines), which covers every
Leonard pair.  Other inputs fall back to an invariant sum of eigenspaces
over Q, the closure algebra, spin-ups of the standard basis and, over
GF(p), Norton's test on a singular closure-algebra element and
exhaustive line spin-up (see irreducible).
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
            v = [x - c * y for x, y in zip(v, row)]

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


def closure_algebra(a: Matrix, astar: Matrix) -> tuple[list[Matrix], int]:
    """Basis of the unital algebra generated by {A, Astar} inside
    End(V), as a list of matrices, plus its dimension.

    Words in the generators are accumulated from the identity by a
    worklist of left multiplications; their span is the algebra.
    """
    field = a.field
    n = a.nrows
    full = n * n
    acc = _SpanAccumulator(field)
    eye = Matrix.identity(field, n)
    acc.add(eye.flatten())
    basis = [eye]
    queue = [eye]
    qi = 0
    while qi < len(queue):
        m = queue[qi]
        qi += 1
        for g in (a, astar):
            prod = g @ m
            if acc.add(prod.flatten()):
                basis.append(prod)
                queue.append(prod)
                if acc.dim == full:
                    return basis, acc.dim
    return basis, acc.dim


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


# ---- Norton's test -----------------------------------------------------------

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


def _gf_line_count(p: int, k: int) -> int:
    return (p**k - 1) // (p - 1)


def _every_line(field, basis):
    """Every line of the span of the given independent vectors, when
    they can be listed: the span is a line, or, over GF(p), has at most
    _LINE_ENUM_CAP lines.  None otherwise."""
    if len(basis) == 1:
        return basis
    if isinstance(field, PrimeField) and _gf_line_count(field.p, len(basis)) <= _LINE_ENUM_CAP:
        return _gf_lines(field, basis)
    return None


def _doubled(m: Matrix) -> Matrix:
    """diag(m, m), acting on V + V."""
    zero = [m.field.zero] * m.ncols
    return Matrix(m.field, [list(r) + zero for r in m.rows] + [zero + list(r) for r in m.rows])


def _plane_lines(a: Matrix, astar: Matrix, eig: EigenDecomposition, i: int):
    """The lines of a 2-dimensional eigenspace K = V_i of a diagonalizable
    side that Norton's test must spin, over any field.

    Let E_i be the projection onto K along the other eigenspaces.  It is
    a polynomial in that side, so it lies in the algebra generated by
    {A, Astar}.  A common invariant W that meets K in a line L satisfies
    E_i x L in E_i W in W meet K = L for every x of the algebra, so L is
    invariant under the condensed algebra B = E_i <A, Astar> E_i acting
    on K (D. F. Holt and S. Rees, "Testing modules for irreducibility",
    1994).

    The first line is k1, the first basis vector of K.  It covers every
    W that contains K, and it covers a scalar B: the spin-up S of k1 then
    meets K in E_i S = B k1 = span{k1}, so S is proper.  B is computed
    only when the caller asks for more lines, so it is not scalar.
    Spinning (k1, k2) in V + V under diag(A, A) and diag(Astar, Astar)
    gives the pairs (x k1, x k2) for x in the algebra; their K
    coordinates are the columns of E_i x on K, so they span B.  The
    lines invariant under B are the eigenlines of any one non-scalar
    element, yielded next in ascending eigenvalue order.
    """
    field = a.field
    n = a.nrows
    k1, k2 = eig.eigenspaces[i].basis
    yield k1
    _, c_inv, ranges = eigencoordinate_change(eig)
    lo, hi = ranges[i]
    coords = Matrix(field, c_inv.rows[lo:hi])
    spun = _spin(field, 2 * n, [k1 + k2], (_doubled(a), _doubled(astar)))
    for y in spun.basis:
        b = Matrix.from_columns(field, [coords.apply(y[:n]), coords.apply(y[n:])])
        if b[0, 1] or b[1, 0] or b[0, 0] != b[1, 1]:
            break
    else:
        raise InvariantViolation("condensed algebra is scalar but k1 spins up to V")
    eye = Matrix.identity(field, 2)
    for lam in sorted(set(field_roots(char_poly(b), field))):
        c1, c2 = kernel(b - eye.scale(lam)).basis[0]
        yield tuple(c1 * x + c2 * y for x, y in zip(k1, k2))


def _norton(a: Matrix, astar: Matrix, t: Matrix, lines) -> IrreducibilityReport:
    """Norton's irreducibility test on a singular element t of the
    algebra generated by {A, Astar}.

    A common invariant W either meets ker t, and then the spin-up of a
    line of ker t inside W is proper, or t maps W onto itself, and then
    every w in ker t^T annihilates W, so the spin-up of any one such w
    under the transposes is proper.  The given lines of ker t are such
    that every W meeting ker t contains one of them: all lines of ker t,
    or fewer (see _plane_lines).  Spinning them and one vector of ker t^T
    therefore decides irreducibility.
    """
    field = a.field
    n = a.nrows
    for v in lines:
        spun = _spin(field, n, [v], (a, astar))
        if spun.dim < n:
            return _checked_reducible(
                a, astar, spun, "spin-up of a kernel vector of a singular algebra element"
            )
    w = kernel(t.transpose()).basis[0]
    spun = _spin(field, n, [w], (a.transpose(), astar.transpose()))
    if spun.dim == n:
        return IrreducibilityReport.irreducible(
            "kernel spin-ups and the dual spin-up all fill the space"
        )
    witness = annihilator(field, n, spun.basis)
    return _checked_reducible(a, astar, witness, "annihilator of a proper dual spin-up")


def _singular_candidates(field, algebra_basis: list[Matrix]):
    """Elements of the closure algebra likely to be singular, cheapest
    first: the algebra basis elements, then a scan of pencil
    combinations."""
    for b in algebra_basis:
        yield b
    limit = min(len(algebra_basis), 6)
    for i in range(limit):
        for j in range(i + 1, limit):
            for c in field.elements():
                yield algebra_basis[i] + algebra_basis[j].scale(c)


# ---- sums of eigenspaces ------------------------------------------------------


def _proper_closed_set(count: int, edges: set) -> list | None:
    """A nonempty proper vertex set with no outgoing edges, if one
    exists.  Every forward-reachable set is closed, and every closed set
    contains the reachable set of each of its vertices, so the smallest
    reachable set (a sink component) answers the question."""
    adjacency = {i: [] for i in range(count)}
    for i, j in edges:
        adjacency[i].append(j)
    smallest = None
    for start in range(count):
        reach = {start}
        stack = [start]
        while stack:
            for j in adjacency[stack.pop()]:
                if j not in reach:
                    reach.add(j)
                    stack.append(j)
        if smallest is None or len(reach) < len(smallest):
            smallest = reach
    return sorted(smallest) if len(smallest) < count else None


def _closed_eigenspace_sum(eig: EigenDecomposition, partner: Matrix) -> list | None:
    """Basis of a sum of eigenspaces of eig, other than 0 and V, that
    partner maps into itself, or None when there is none.  Partner's
    block digraph has an edge i -> j when it maps V_i into a vector with
    a V_j component; such a sum is a closed vertex set."""
    closed = _proper_closed_set(eig.diameter + 1, _block_edges(eig, partner))
    if closed is None:
        return None
    return [v for i in closed for v in eig.eigenspaces[i].basis]


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
    other than 0 and V.

    Norton's test runs first.  It walks the eigenspaces K = ker(M -
    theta I) of A and Astar by dimension (A's first, in eigenvalue
    order, then Astar's, on a tie) and runs on the first K whose
    candidate lines it can list: K itself when K is a line, over any
    field; the line k1 and the invariant lines of the condensed algebra
    when K has dimension 2 and M is diagonalizable, over any field (see
    _plane_lines); every line of K over GF(p) when K has at most
    _LINE_ENUM_CAP lines.  So it decides every pair with an eigenspace
    of dimension at most 2 on a diagonalizable side, including every
    Leonard pair.  Its witness is the spin-up of the first candidate line
    that spins to a proper subspace, or else the annihilator of the
    proper dual spin-up.  The eigen data comes from eig_a / eig_astar
    when given, else from the roots of each characteristic polynomial.

    Inputs Norton cannot decide go through these fallbacks, each once:
    over Q, a sum of eigenspaces of A and then of Astar that the other
    operator maps into itself (the witness); the check that the closure
    algebra is all of End(V); the spin-ups of the standard basis vectors
    (the first proper one is the witness); over GF(p), Norton's test on
    the kernel of a singular closure-algebra element, or on t = 0 when
    none is found, which spins every line of V.  What is left is
    "inconclusive": over Q a pair with no eigenline and no 2-dimensional
    eigenspace of a diagonalizable side, over GF(p) a pair whose kernels
    are too large to enumerate.
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
    for m, eig, i, theta, k in sorted(shifts, key=lambda s: s[4].dim):
        if k.dim == 2 and eig is not None:
            lines = _plane_lines(a, astar, eig, i)
        else:
            lines = _every_line(field, k.basis)
        if lines is not None:
            return _norton(a, astar, m - eye.scale(theta), lines)
    gf = isinstance(field, PrimeField)
    sides = [] if gf else [(eig_a, astar), (eig_astar, a)]
    searches = [(eig, partner) for eig, partner in sides if eig is not None]
    for eig, partner in searches:
        vecs = _closed_eigenspace_sum(eig, partner)
        if vecs is not None:
            witness = Subspace.span(field, n, vecs)
            return _checked_reducible(a, astar, witness, "structured eigenspace-block search")
    basis, dim = closure_algebra(a, astar)
    if dim == n * n:
        return IrreducibilityReport.irreducible("closure algebra is all of End(V)")
    for e in eye.rows:
        spun = _spin(field, n, [e], (a, astar))
        if spun.dim < n:
            return _checked_reducible(a, astar, spun, "spin-up of a standard basis vector")
    if not gf:
        if not searches:
            return IrreducibilityReport.inconclusive(
                "closure algebra is a proper subalgebra and neither operator "
                "is diagonalizable over Q"
            )
        return IrreducibilityReport.inconclusive(
            "structured search could not cover all dimension vectors "
            "(some eigenspace of dimension >= 3)"
        )
    # kernel seeds from a singular algebra element with smallest nullity
    best = None
    for tried, t in enumerate(_singular_candidates(field, basis), 1):
        ker = kernel(t)
        if 0 < ker.dim < n and (best is None or ker.dim < best[1].dim):
            best = (t, ker)
            if ker.dim == 1:
                break
        if tried >= 4000 and best is not None:
            break
    if best is None:
        # no singular element found: t = 0 spins every line of V
        best = (Matrix.zeros(field, n, n), Subspace.full(field, n))
    t, ker = best
    lines = _every_line(field, ker.basis)
    if lines is not None:
        return _norton(a, astar, t, lines)
    return IrreducibilityReport.inconclusive(
        "no singular element located in the closure algebra and the space "
        "is too large for exhaustive line enumeration"
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
