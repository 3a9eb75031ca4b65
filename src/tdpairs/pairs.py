"""Tridiagonal-pair certification.

A candidate (A, Astar) is accepted when four axioms hold exactly:

  (i)   both operators are diagonalizable over the ground field;
  (ii)  some ordering of A's eigenspaces makes Astar act block-tridiagonally;
  (iii) the same with the roles swapped;
  (iv)  no common invariant subspace other than 0 and V.

Orderings are discovered through the support graph on eigenspace
indices.  Irreducibility is decided by one engine for Q and GF(p):
Norton's test on the smallest eigenspace of A or Astar runs first and is
complete when that eigenspace is a line (any field) or, over GF(p), has
at most _LINE_ENUM_CAP lines, which covers every Leonard pair and every
pair with a 1-dimensional eigenspace.  Other inputs fall back to the
structured eigenspace-block search over Q, the closure algebra, spin-ups
of the standard basis and, over GF(p), Norton's test on a singular
closure-algebra element and exhaustive line spin-up (see irreducible).
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
from .linalg import Matrix, min_poly, vec_is_zero
from .polynomials import Polynomial
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


def support_path_orderings(eig: EigenDecomposition, b: Matrix) -> list[tuple[int, ...]]:
    """Orderings of eig's eigenspaces under which b acts block-tridiagonally.

    The support graph has an edge {i, j} when the block of b between
    eigenspaces i and j is nonzero in either direction.  An ordering
    works iff consecutive positions cover every edge, which forces the
    graph to be a simple path; the two traversals are returned (one for
    a single eigenspace), or an empty list when no ordering exists.
    """
    d = eig.diameter
    if d == 0:
        return [(0,)]
    _, c_inv, ranges = eigencoordinate_change(eig)
    edges = set()
    for j, space in enumerate(eig.eigenspaces):
        for v in space.basis:
            coords = c_inv.apply(b.apply(v))
            for i, (lo, hi) in enumerate(ranges):
                if i != j and any(coords[lo:hi]):
                    edges.add(frozenset((i, j)))
    if len(edges) != d:
        return []
    degree = {i: 0 for i in range(d + 1)}
    adjacency = {i: [] for i in range(d + 1)}
    for e in edges:
        i, j = tuple(e)
        degree[i] += 1
        degree[j] += 1
        adjacency[i].append(j)
        adjacency[j].append(i)
    endpoints = [i for i, deg in degree.items() if deg == 1]
    if len(endpoints) != 2 or any(deg > 2 for deg in degree.values()):
        return []
    walk = [min(endpoints)]
    prev = None
    while len(walk) < d + 1:
        nxt = [x for x in adjacency[walk[-1]] if x != prev]
        if len(nxt) != 1:
            return []
        prev = walk[-1]
        walk.append(nxt[0])
    if set(walk) != set(range(d + 1)):
        return []  # covered a cycle component, not a path
    return [tuple(walk), tuple(reversed(walk))]


# ---- Norton's test -----------------------------------------------------------

_LINE_ENUM_CAP = 200_000


def _gf_lines(field: PrimeField, basis: list) -> list:
    """One representative per 1-dimensional subspace of the span of the
    given independent vectors (first nonzero coefficient normalized)."""
    p = field.p
    k = len(basis)
    out = []
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
            out.append(tuple(v))
    return out


def _gf_line_count(p: int, k: int) -> int:
    return (p**k - 1) // (p - 1)


def _norton_decides(field, k: int) -> bool:
    """Whether Norton's test on a k-dimensional kernel is complete: it
    must spin every line of the kernel, so the kernel is a line or, over
    GF(p), has at most _LINE_ENUM_CAP lines."""
    return k == 1 or (
        isinstance(field, PrimeField) and _gf_line_count(field.p, k) <= _LINE_ENUM_CAP
    )


def _norton(a: Matrix, astar: Matrix, t: Matrix, ker: Subspace) -> IrreducibilityReport:
    """Norton's irreducibility test on a singular element t of the
    algebra generated by {A, Astar}, with ker = ker t.

    A common invariant W either meets ker t, and then the spin-up of a
    line of ker t inside W is proper, or t maps W onto itself, and then
    every w in ker t^T annihilates W, so the spin-up of any one such w
    under the transposes is proper.  Spinning every line of ker t and one
    vector of ker t^T therefore decides irreducibility.
    """
    field = a.field
    n = a.nrows
    lines = ker.basis if ker.dim == 1 else _gf_lines(field, list(ker.basis))
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


# ---- irreducibility over Q --------------------------------------------------

_MIXED_ENUM_CAP = 100_000


def _quadratic_roots_q(a, b, c) -> list:
    """Rational roots of a*t^2 + b*t + c (not all coefficients zero)."""
    from fractions import Fraction
    import math

    if not a:
        if not b:
            return []
        return [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    num, den = disc.numerator, disc.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return []
    root = Fraction(rn, rd)
    if not root:
        return [-b / (2 * a)]
    return [(-b + root) / (2 * a), (-b - root) / (2 * a)]


def _block_matrix(full: Matrix, rows_range, cols_range) -> Matrix:
    lo_r, hi_r = rows_range
    lo_c, hi_c = cols_range
    return Matrix(full.field, [row[lo_c:hi_c] for row in full.rows[lo_r:hi_r]])


def _line_of(field, v):
    """Normalize a nonzero vector to leading coefficient 1."""
    lead = next(x for x in v if x)
    inv = field.one / lead
    return tuple(inv * x for x in v)


class _CspFail(Exception):
    pass


class _LineCsp:
    """Find lines L_i in selected 2-dimensional blocks such that every
    block map sends the chosen pieces into each other; used to decide
    mixed dimension vectors in the structured invariant-subspace search."""

    def __init__(self, field, blocks, variables, fixed_full, fixed_zero, rho):
        self.field = field
        self.blocks = blocks
        self.variables = variables
        self.fixed_full = fixed_full
        self.fixed_zero = fixed_zero
        self.rho = rho

    def solve(self):
        try:
            domains = self._initial_domains()
        except _CspFail:
            return None
        return self._search(domains)

    # domain values: ("free",), ("lines", tuple-of-lines), ("line", line)

    def _initial_domains(self):
        field = self.field
        domains = {}
        for i in self.variables:
            dom = ("free",)
            for j in self.fixed_zero:
                blk = self.blocks[j][i]
                if blk.is_zero():
                    continue
                ker = kernel(blk)
                if ker.dim == 0:
                    raise _CspFail
                if ker.dim == 1:
                    dom = self._meet(dom, ("line", _line_of(field, ker.basis[0])))
            domains[i] = dom
        for j in self.variables:
            for i in self.fixed_full:
                blk = self.blocks[j][i]
                img = Subspace.span(field, 2, [blk.column(k) for k in range(blk.ncols)])
                if img.dim >= 2:
                    raise _CspFail
                if img.dim == 1:
                    domains[j] = self._meet(domains[j], ("line", _line_of(field, img.basis[0])))
        for i in self.variables:
            domains[i] = self._apply_self(i, domains[i])
        return domains

    def _apply_self(self, i, dom):
        m = self.blocks[i][i]
        if dom[0] == "line":
            if not self._stable(m, dom[1]):
                raise _CspFail
            return dom
        if dom[0] == "lines":
            kept = tuple(v for v in dom[1] if self._stable(m, v))
            if not kept:
                raise _CspFail
            return ("lines", kept)
        # free: restrict to eigenlines unless the block is scalar
        if self._is_scalar(m):
            return dom
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        lines = []
        for lam in set(_quadratic_roots_q(self.field.one, -tr, det)):
            eye = Matrix.identity(self.field, 2)
            ker = kernel(m - eye.scale(lam))
            for v in ker.basis:
                lines.append(_line_of(self.field, v))
        lines = tuple(dict.fromkeys(lines))
        if not lines:
            raise _CspFail
        return ("lines", lines)

    @staticmethod
    def _is_scalar(m) -> bool:
        return m[0, 1] == m.field.zero and m[1, 0] == m.field.zero and m[0, 0] == m[1, 1]

    @staticmethod
    def _stable(m, v) -> bool:
        w = m.apply(v)
        return not (w[0] * v[1] - w[1] * v[0])

    def _meet(self, dom, forced):
        v = forced[1]
        if dom[0] == "free":
            return forced
        if dom[0] == "line":
            if dom[1] == v:
                return dom
            raise _CspFail
        kept = tuple(x for x in dom[1] if x == v)
        if not kept:
            raise _CspFail
        return ("line", v)

    def _assign(self, domains, i, line):
        """Set variable i to a line and propagate consequences."""
        domains = dict(domains)
        pending = [(i, ("line", line))]
        while pending:
            i, forced = pending.pop()
            old = domains[i]
            new = self._meet(old, forced)
            if new == old and old[0] == "line":
                continue
            new = self._apply_self(i, new)
            domains[i] = new
            if new[0] != "line":
                continue
            v = new[1]
            for j in self.variables:
                if j == i:
                    continue
                out_blk = self.blocks[j][i]
                if not out_blk.is_zero():
                    u = out_blk.apply(v)
                    if not vec_is_zero(u):
                        pending.append((j, ("line", _line_of(self.field, u))))
                in_blk = self.blocks[i][j]
                if not in_blk.is_zero():
                    # need in_blk L_j parallel to v: one linear condition on L_j
                    c0 = in_blk.column(0)
                    c1 = in_blk.column(1)
                    row = (
                        c0[0] * v[1] - c0[1] * v[0],
                        c1[0] * v[1] - c1[1] * v[0],
                    )
                    if any(row):
                        ker = kernel(Matrix(self.field, [row]))
                        pending.append((j, ("line", _line_of(self.field, ker.basis[0]))))
        return domains

    def _search(self, domains):
        try:
            # settle forced lines once (assignments propagate in _assign)
            for i in self.variables:
                if domains[i][0] == "line":
                    domains = self._assign(domains, i, domains[i][1])
        except _CspFail:
            return None
        finite = [i for i in self.variables if domains[i][0] == "lines"]
        if finite:
            i = min(finite, key=lambda j: len(domains[j][1]))
            for v in domains[i][1]:
                try:
                    narrowed = self._assign(domains, i, v)
                except _CspFail:
                    continue
                found = self._search(narrowed)
                if found is not None:
                    return found
            return None
        free = [i for i in self.variables if domains[i][0] == "free"]
        if not free:
            return {i: domains[i][1] for i in self.variables}
        return self._solve_free(domains, free)

    def _solve_free(self, domains, free):
        """All remaining variables range over every line of their block;
        couplings are rank-1 (split into two forced cases) or rank-2
        (functional), leaving at most a quadratic condition on one
        projective parameter per connected component."""
        field = self.field
        for i in free:
            for j in free:
                if i == j:
                    continue
                blk = self.blocks[j][i]
                if blk.is_zero():
                    continue
                det = blk[0, 0] * blk[1, 1] - blk[0, 1] * blk[1, 0]
                if not det:
                    # rank one: either L_i is the kernel line or L_j the image line
                    ker = kernel(blk)
                    img = next(
                        blk.column(k) for k in range(2) if any(blk.column(k))
                    )
                    for var, line in (
                        (i, _line_of(field, ker.basis[0])),
                        (j, _line_of(field, img)),
                    ):
                        try:
                            narrowed = self._assign(domains, var, line)
                        except _CspFail:
                            continue
                        found = self._search(narrowed)
                        if found is not None:
                            return found
                    return None
        # only invertible couplings remain among the free variables
        comp_assign = {}
        seen = set()
        for root in free:
            if root in seen:
                continue
            component = self._component(root, free)
            seen.update(component)
            transported = self._transport(root, component)
            solution = self._parameter_solve(root, component, transported)
            if solution is None:
                return None
            comp_assign.update(solution)
        try:
            result = dict(domains)
            for i, line in comp_assign.items():
                result = self._assign(result, i, line)
        except _CspFail:
            return None
        return self._search(result)

    def _component(self, root, free):
        out = [root]
        idx = 0
        while idx < len(out):
            cur = out[idx]
            idx += 1
            for j in free:
                if j in out:
                    continue
                if not self.blocks[j][cur].is_zero() or not self.blocks[cur][j].is_zero():
                    out.append(j)
        return out

    def _transport(self, root, component):
        """Invertible 2x2 maps Phi_i with L_i = Phi_i L_root along a
        spanning tree of rank-2 couplings."""
        from .eigen import invert

        field = self.field
        phi = {root: Matrix.identity(field, 2)}
        queue = [root]
        while queue:
            cur = queue.pop()
            for j in component:
                if j in phi:
                    continue
                fwd = self.blocks[j][cur]
                bwd = self.blocks[cur][j]
                if not fwd.is_zero():
                    phi[j] = fwd @ phi[cur]
                    queue.append(j)
                elif not bwd.is_zero():
                    phi[j] = invert(bwd) @ phi[cur]
                    queue.append(j)
        return phi

    def _parameter_solve(self, root, component, phi):
        """Choose the root line x so that every coupling inside the
        component holds; x ranges over (1, t) and (0, 1)."""
        field = self.field
        one, zero = field.one, field.zero

        def line_at(i, x):
            return phi[i].apply(x)

        constraints = []
        for i in component:
            for j in component:
                if i == j:
                    continue
                blk = self.blocks[j][i]
                if blk.is_zero():
                    continue
                constraints.append((i, j, blk))

        def violated(x):
            for i, j, blk in constraints:
                u = blk.apply(line_at(i, x))
                w = line_at(j, x)
                if u[0] * w[1] - u[1] * w[0]:
                    return True
            return False

        # each constraint is det(blk Phi_i x, Phi_j x) = 0, quadratic in t
        candidates = []
        poly_found = False
        for i, j, blk in constraints:
            m1 = blk @ phi[i]
            m2 = phi[j]
            # x = (1, t): columns give linear vector functions of t
            a0, a1 = m1.column(0), m1.column(1)
            b0, b1 = m2.column(0), m2.column(1)
            c2 = a1[0] * b1[1] - a1[1] * b1[0]
            c1 = a0[0] * b1[1] - a0[1] * b1[0] + a1[0] * b0[1] - a1[1] * b0[0]
            c0 = a0[0] * b0[1] - a0[1] * b0[0]
            if not (c0 or c1 or c2):
                continue
            poly_found = True
            candidates.extend(_quadratic_roots_q(c2, c1, c0))
            break
        if not poly_found:
            x = (one, zero)
            if violated(x):
                x = (zero, one)
                if violated(x):
                    return None
            return {i: _line_of(field, line_at(i, x)) for i in component}
        options = [(one, field.scalar(t)) for t in candidates] + [(zero, one)]
        for x in options:
            if not violated(x):
                return {i: _line_of(field, line_at(i, x)) for i in component}
        return None


def _structured_search_q(eig: EigenDecomposition, partner: Matrix):
    """Look for a common invariant subspace using the block structure of
    the partner operator over the eigenspaces of a diagonalizable one.

    Returns (witness-vectors-or-None, complete-flag).  Complete means
    the absence of a witness proves irreducibility.
    """
    field = eig.field
    n = eig.ambient_dim
    c, c_inv, ranges = eigencoordinate_change(eig)
    coords_partner = c_inv @ partner @ c
    count = len(ranges)
    rho = [hi - lo for lo, hi in ranges]
    blocks = [
        [_block_matrix(coords_partner, ranges[j], ranges[i]) for i in range(count)]
        for j in range(count)
    ]

    def ambient(i, coords2):
        lo, hi = ranges[i]
        basis = eig.eigenspaces[i].basis
        v = [field.zero] * n
        for cval, bvec in zip(coords2, basis):
            if cval:
                v = [x + cval * y for x, y in zip(v, bvec)]
        return tuple(v)

    # pure dimension vectors: closed vertex sets of the block digraph
    edges = {
        (i, j)
        for i in range(count)
        for j in range(count)
        if i != j and not blocks[j][i].is_zero()
    }
    closed = _proper_closed_set(count, edges)
    if closed is not None:
        vecs = []
        for i in closed:
            vecs.extend(eig.eigenspaces[i].basis)
        return vecs, True

    # mixed dimension vectors
    sizes = []
    for r in rho:
        sizes.append(2 if r == 1 else (3 if r == 2 else 3))
    total = 1
    for s in sizes:
        total *= s
    complete = True
    if total > _MIXED_ENUM_CAP:
        return None, False
    for code in range(total):
        w = []
        rest = code
        for i in range(count):
            w.append(rest % sizes[i])
            rest //= sizes[i]
        # decode: 0 -> zero, last -> full, middle -> strict
        kinds = []
        for i, wi in enumerate(w):
            if wi == 0:
                kinds.append("zero")
            elif wi == sizes[i] - 1:
                kinds.append("full")
            else:
                kinds.append("mid")
        if "mid" not in kinds:
            continue  # pure cases already decided
        if any(kinds[i] == "mid" and rho[i] != 2 for i in range(count)):
            complete = False  # middle dimensions in blocks of size >= 3
            continue
        variables = [i for i in range(count) if kinds[i] == "mid"]
        fixed_full = [i for i in range(count) if kinds[i] == "full"]
        fixed_zero = [i for i in range(count) if kinds[i] == "zero"]
        ok = True
        for i in fixed_full:
            for j in fixed_zero:
                if not blocks[j][i].is_zero():
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        csp = _LineCsp(field, blocks, variables, fixed_full, fixed_zero, rho)
        solution = csp.solve()
        if solution is not None:
            vecs = []
            for i in fixed_full:
                vecs.extend(eig.eigenspaces[i].basis)
            for i in variables:
                vecs.append(ambient(i, solution[i]))
            return vecs, True
    return None, complete


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


# ---- the engine ---------------------------------------------------------------


def _eigenspaces(m: Matrix, eig: EigenDecomposition | None) -> tuple[list, EigenDecomposition | None]:
    """(theta, eigenspace) for every eigenvalue of m in its field, and
    m's decomposition when m is diagonalizable.  Taken from eig when the
    caller has it, else computed from the roots of min_poly."""
    if eig is not None:
        return list(zip(eig.eigenvalues, eig.eigenspaces)), eig
    eye = Matrix.identity(m.field, m.nrows)
    thetas = sorted(set(field_roots(min_poly(m), m.field)))
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

    Norton's test runs first, on the smallest eigenspace K = ker(M -
    theta I) of A or Astar (the first of A's, in eigenvalue order, then
    of Astar's, on a tie).  It is complete when K is a line, over any
    field, and over GF(p) when K has at most _LINE_ENUM_CAP lines; that
    covers every Leonard pair and every pair with an eigenspace of
    dimension 1.  Its witness is the spin-up of the first line of K that
    spins to a proper subspace, or else the annihilator of the proper
    dual spin-up.  The eigen data comes from eig_a / eig_astar when
    given, else from the roots of each minimal polynomial.

    Inputs Norton cannot decide go through these fallbacks, each once:
    over Q, the structured eigenspace-block search on A's and then on
    Astar's eigenspaces (complete when a side has every eigenspace of
    dimension at most 2; its witness is a sum of eigenspaces or of lines
    in them); the check that the closure algebra is all of End(V); the
    spin-ups of the standard basis vectors (the first proper one is the
    witness); over GF(p), Norton's test on the kernel of a singular
    closure-algebra element, or on t = 0 when none is found, which spins
    every line of V.  What is left is "inconclusive": over Q a pair with
    no eigenspace of dimension 1 and eigenspaces of dimension >= 3 on
    both sides, over GF(p) a pair whose kernels are too large to
    enumerate.
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
    shifts = [(a, theta, k) for theta, k in spaces_a]
    shifts += [(astar, theta, k) for theta, k in spaces_astar]
    if shifts:
        m, theta, k = min(shifts, key=lambda s: s[2].dim)
        if _norton_decides(field, k.dim):
            return _norton(a, astar, m - eye.scale(theta), k)
    gf = isinstance(field, PrimeField)
    sides = [] if gf else [(eig_a, astar), (eig_astar, a)]
    searches = [(eig, partner) for eig, partner in sides if eig is not None]
    for eig, partner in searches:
        vecs, complete = _structured_search_q(eig, partner)
        if vecs is not None:
            witness = Subspace.span(field, n, vecs)
            return _checked_reducible(a, astar, witness, "structured eigenspace-block search")
        if complete:
            return IrreducibilityReport.irreducible(
                "structured eigenspace-block search is exhaustive for this shape"
            )
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
    if _norton_decides(field, best[1].dim):
        return _norton(a, astar, *best)
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


def validate_pair(a: Matrix, astar: Matrix) -> TriDiagonalPair:
    """Certify the four axioms and assemble the ordered pair data.

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
        eig_a = eigen_decompose(a)
    except NotDiagonalizableOverField as e:
        raise NotDiagonalizableOverField(str(e), side="A") from None
    try:
        eig_astar = eigen_decompose(astar)
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
    from .linalg import poly_eval_matrix

    tau_i = Polynomial.from_roots(field, eig_a.eigenvalues[:i])
    if not vec_is_zero(poly_eval_matrix(tau_i, eig_a.operator).apply(u)):
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
