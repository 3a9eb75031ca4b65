"""Subspaces of K^n with a canonical RREF basis.

Equal subspaces compare equal because the reduced row echelon basis is
unique.  Every operation runs on linalg.Echelon: a span, image or sum
feeds its vectors to one; membership and coordinates are one residual
against the subspace's own Echelon; an intersection is one Zassenhaus
elimination and a kernel one elimination of the back-substitution basis.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .fields import Field
from .linalg import Echelon, Matrix, Vector, rref_rows


class Subspace:
    __slots__ = ("field", "ambient_dim", "basis", "_echelon")

    def __init__(self, field: Field, ambient_dim: int, basis: tuple):
        """Internal constructor; `basis` must already be canonical RREF
        rows with no zero rows.  Use `span` to build from raw vectors."""
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._echelon = None

    @classmethod
    def of_echelon(cls, eng: Echelon, ambient_dim: int) -> "Subspace":
        """The span of an Echelon that its owner no longer changes."""
        s = cls(eng.field, ambient_dim, eng.basis())
        s._echelon = eng
        return s

    @classmethod
    def span(cls, field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        eng = Echelon(field)
        for v in vectors:
            u = eng.scalars(v)
            if len(u) != ambient_dim:
                raise DimensionMismatch(
                    f"vector of length {len(u)} in ambient dimension {ambient_dim}"
                )
            eng.insert(u)
        return cls.of_echelon(eng, ambient_dim)

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        eye = Matrix.identity(field, ambient_dim)
        return cls(field, ambient_dim, eye.rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _check(self, other: "Subspace"):
        if not isinstance(other, Subspace):
            raise TypeError("expected a Subspace")
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient {self.ambient_dim} vs {other.ambient_dim}"
            )

    @property
    def echelon(self) -> Echelon:
        """The Echelon of the basis, built once and shared: add nothing
        to it."""
        if self._echelon is None:
            self._echelon = Echelon(self.field, self.basis)
        return self._echelon

    def _vector(self, v: Sequence) -> list:
        u = self.echelon.scalars(v)
        if len(u) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        return u

    def residual(self, v: Sequence) -> list:
        """v minus its part on the basis, in the Echelon's form (int
        residues over GF(p)); zero exactly when v lies in the subspace."""
        return self.echelon.reduce(self._vector(v))

    def contains(self, v: Sequence) -> bool:
        return not any(self.residual(v))

    def coordinates(self, v: Sequence) -> Vector | None:
        """Coefficients of v in the basis, or None if v lies outside:
        with an RREF basis, v's entries at the pivot columns."""
        u = self._vector(v)
        if any(self.echelon.reduce(u)):
            return None
        return self.echelon.elements([u[c] for c in self.echelon.pivots])

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim} over {self.field!r})"


def subspace_sum(x: Subspace, y: Subspace) -> Subspace:
    x._check(y)
    return Subspace.span(x.field, x.ambient_dim, x.basis + y.basis)


def subspace_leq(x: Subspace, y: Subspace) -> bool:
    """True iff every row of x's Echelon, in the engine's form, lies in y."""
    x._check(y)
    return not any(any(y.echelon.reduce(u)) for u in x.echelon.rows.values())


def subspace_intersect(x: Subspace, y: Subspace) -> Subspace:
    """Intersection by Zassenhaus's algorithm: one RREF of the rows
    (v, v) for v in x's basis and (w, 0) for w in y's.  Its rows with a
    pivot in the right half are (0, u), and those u are the canonical
    RREF basis of the intersection.
    """
    x._check(y)
    n = x.ambient_dim
    zero = (x.field.zero,) * n
    rows, _, pivots = rref_rows(x.field, [v + v for v in x.basis] + [w + zero for w in y.basis])
    return Subspace(x.field, n, tuple(tuple(row[n:]) for row, c in zip(rows, pivots) if c >= n))


def kernel(m: Matrix) -> Subspace:
    """Right kernel of a matrix as a Subspace: the canonical RREF of the
    back-substitution basis, both eliminations on m's int rows."""
    eng = Echelon(m.field)
    for _, u in Echelon.of_rows(m).nullspace(m.ncols):
        eng.insert(u)
    return Subspace.of_echelon(eng, m.ncols)


def image_of(m: Matrix, s: Subspace) -> Subspace:
    """The image m(s) as a subspace of the codomain: the span of m's int
    rows applied to the rows of s's Echelon."""
    if m.field != s.field:
        raise FieldMismatch(f"{m.field!r} vs {s.field!r}")
    if m.ncols != s.ambient_dim:
        raise DimensionMismatch("operator domain does not match ambient space")
    eng = Echelon(m.field)
    for u in s.echelon.rows.values():
        eng.insert(eng.image(m, u))
    return Subspace.of_echelon(eng, m.nrows)


def annihilator(field: Field, ambient_dim: int, vectors: Sequence[Sequence]) -> Subspace:
    """{v : w . v = 0 for all given w}, the joint kernel of the row
    functionals."""
    if not vectors:
        return Subspace.full(field, ambient_dim)
    return kernel(Matrix(field, vectors))


def sum_of(spaces: Sequence[Subspace], field: Field | None = None, ambient_dim: int | None = None) -> Subspace:
    """Sum of several subspaces; pass field/ambient for the empty case."""
    if not spaces:
        if field is None or ambient_dim is None:
            raise ValueError("empty sum needs an explicit field and ambient dimension")
        return Subspace.zero(field, ambient_dim)
    rows = []
    for s in spaces:
        spaces[0]._check(s)
        rows.extend(s.basis)
    return Subspace.span(spaces[0].field, spaces[0].ambient_dim, rows)
