"""Subspaces of K^n, each held as a linalg.Echelon.

Echelon rows are canonical int rows (over GF(p) residues with pivot 1,
over Q primitive with a positive pivot), so equal subspaces hold equal
rows.  Every operation runs on them: a span, image or sum feeds int rows
to an Echelon (a sum to a copy of the first summand's); membership,
coordinates and invariance (maps_into, no Echelon of the image) are
residuals; a kernel, or an eigenspace ker(m - theta I), is one
elimination of the reversed columns, an intersection one Zassenhaus
elimination.  Field elements cross only in the public methods span,
basis, residual, contains and coordinates, in through Matrix and out
through linalg.row_elements; the basis is a read-only cache.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .fields import Field
from .linalg import Echelon, Matrix, Vector, _primitive, row_elements, shifted_rows


def _canonical(field: Field, rows: dict) -> Echelon:
    """The Echelon whose rows (pivot column -> row) are already canonical."""
    eng = Echelon(field)
    eng.rows = rows
    return eng


def _check_space(field: Field, ambient_dim: int, other) -> None:
    """Raise unless other is a Subspace of field^ambient_dim."""
    if not isinstance(other, Subspace):
        raise TypeError("expected a Subspace")
    if field != other.field:
        raise FieldMismatch(f"{field!r} vs {other.field!r}")
    if ambient_dim != other.ambient_dim:
        raise DimensionMismatch(f"ambient {ambient_dim} vs {other.ambient_dim}")


class Subspace:
    __slots__ = ("field", "ambient_dim", "echelon", "_basis")

    def __init__(self, echelon: Echelon, ambient_dim: int):
        """The span of an Echelon's rows in K^ambient_dim; add nothing to
        the Echelon afterwards.  Use span to build from raw vectors."""
        self.field = echelon.field
        self.ambient_dim = ambient_dim
        self.echelon = echelon
        self._basis = None

    @classmethod
    def span(cls, field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        m = Matrix(field, vectors)
        if m.nrows and m.ncols != ambient_dim:
            raise DimensionMismatch(f"vector of length {m.ncols} in ambient dimension {ambient_dim}")
        return cls(Echelon.of_rows(m), ambient_dim)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(Echelon(field), ambient_dim)

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        n = ambient_dim
        return cls(_canonical(field, {i: [int(i == j) for j in range(n)] for i in range(n)}), n)

    @property
    def basis(self) -> tuple:
        """The canonical RREF basis as field elements, in pivot order."""
        if self._basis is None:
            rows = self.echelon.rows
            self._basis = tuple(row_elements(self.field, rows[c], rows[c][c]) for c in self.echelon.pivots)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.echelon.rows)

    def is_zero(self) -> bool:
        return not self.echelon.rows

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _check(self, other: "Subspace"):
        _check_space(self.field, self.ambient_dim, other)

    def _ints(self, v: Sequence) -> tuple:
        """(u, d) with v = u / d for an int row u, every entry coerced and
        checked as by Matrix."""
        (u,), d = Matrix(self.field, [v])._ints
        if len(u) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        return u, d

    def residual(self, v: Sequence) -> Vector:
        """v minus its part on the basis, as field elements; zero exactly
        when v lies in the subspace."""
        u, d = self._ints(v)
        w, s = self.echelon._residual(u)
        return row_elements(self.field, w, d * s)

    def contains(self, v: Sequence) -> bool:
        return not any(self.echelon.reduce(self._ints(v)[0]))

    def coordinates(self, v: Sequence) -> Vector | None:
        """Coefficients of v in the basis, or None if v lies outside:
        with an RREF basis, v's entries at the pivot columns."""
        u, d = self._ints(v)
        if any(self.echelon.reduce(u)):
            return None
        return row_elements(self.field, [u[c] for c in self.echelon.pivots], d)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.echelon.rows == other.echelon.rows
        )

    def __hash__(self):
        eng = self.echelon
        return hash((self.field, self.ambient_dim, tuple(tuple(eng.rows[c]) for c in eng.pivots)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim} over {self.field!r})"


def subspace_sum(x: Subspace, y: Subspace) -> Subspace:
    return sum_of((x, y))


def subspace_leq(x: Subspace, y: Subspace) -> bool:
    """True iff every int row of x's Echelon lies in y."""
    x._check(y)
    return not any(any(y.echelon.reduce(u)) for u in x.echelon.rows.values())


def subspace_intersect(x: Subspace, y: Subspace) -> Subspace:
    """Intersection by Zassenhaus's algorithm: one Echelon of the rows
    (u, u) for u in the larger space's Echelon, already canonical, and
    (w, 0) for w in the other's.  Its rows with a pivot in the right half
    are (0, u), and those u are the canonical rows of the intersection.
    """
    x._check(y)
    if x.dim < y.dim:
        x, y = y, x
    n = x.ambient_dim
    eng = _canonical(x.field, {c: [*u, *u] for c, u in x.echelon.rows.items()})
    zero = [0] * n
    for w in y.echelon.rows.values():
        eng.insert([*w, *zero])
    return Subspace(_canonical(x.field, {c - n: row[n:] for c, row in eng.rows.items() if c >= n}), n)


def kernel(m: Matrix, theta=None) -> Subspace:
    """Right kernel of a matrix as a Subspace, or with theta the
    eigenspace ker(m - theta I) of a square m, in one elimination of m's
    int rows R = d m with their columns reversed, fed in as b R - a I for
    theta = a / (b d) (Matrix._shift_ints), so no shifted Matrix is built.
    Read back in the original order, each back-substitution vector starts
    at its free column (1 over GF(p), positive over Q) and is 0 at every
    other free column: the kernel's canonical rows, over Q once made
    primitive."""
    n, eng = m.ncols, Echelon(m.field)
    a, b = (0, 1) if theta is None else m._shift_ints(theta)
    for u in shifted_rows(m._ints[0], a, b, eng.p):
        u.reverse()
        eng.insert(u)
    rows = {n - 1 - free: u[::-1] if eng.p else _primitive(u[::-1]) for free, u in eng.nullspace(n)}
    return Subspace(_canonical(m.field, rows), n)


def _check_operator(m: Matrix, s: Subspace):
    if m.field != s.field:
        raise FieldMismatch(f"{m.field!r} vs {s.field!r}")
    if m.ncols != s.ambient_dim:
        raise DimensionMismatch("operator domain does not match ambient space")


def image_of(m: Matrix, s: Subspace) -> Subspace:
    """The image m(s) as a subspace of the codomain: the span of m's int
    rows applied to the rows of s's Echelon."""
    _check_operator(m, s)
    eng = Echelon(m.field)
    for u in s.echelon.rows.values():
        eng.insert(eng.image(m, u))
    return Subspace(eng, m.nrows)


def maps_into(m: Matrix, s: Subspace, t: Subspace) -> bool:
    """Whether m(s) lies in t: m u reduces to 0 against t's Echelon for
    every row u of s's, with image_of's and subspace_leq's checks."""
    _check_operator(m, s)
    _check_space(m.field, m.nrows, t)  # where the image would lie
    eng = t.echelon
    return not any(any(eng.reduce(eng.image(m, u))) for u in s.echelon.rows.values())


def annihilator(field: Field, ambient_dim: int, vectors: Sequence[Sequence]) -> Subspace:
    """{v : w . v = 0 for all given w}, the joint kernel of the row
    functionals."""
    if not vectors:
        return Subspace.full(field, ambient_dim)
    return kernel(Matrix(field, vectors))


def sum_of(spaces: Sequence[Subspace], field: Field | None = None, ambient_dim: int | None = None) -> Subspace:
    """Sum of several subspaces, grown from a copy of the first one's
    Echelon; pass field/ambient for the empty case."""
    if not spaces:
        if field is None or ambient_dim is None:
            raise ValueError("empty sum needs an explicit field and ambient dimension")
        return Subspace.zero(field, ambient_dim)
    eng = _canonical(spaces[0].field, dict(spaces[0].echelon.rows))
    for s in spaces[1:]:
        spaces[0]._check(s)
        for u in s.echelon.rows.values():
            eng.insert(u)
    return Subspace(eng, spaces[0].ambient_dim)
