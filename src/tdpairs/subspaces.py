"""Subspaces of K^n with a canonical RREF basis.

Equal subspaces compare equal because the reduced row echelon basis is
unique.  Sums, intersections, containment, images, and preimages all
reduce to eliminations at desk scale.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .fields import Field, PrimeField
from .linalg import Matrix, Vector, kernel_vectors, rref_rows, vec_is_zero


class Subspace:
    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: Field, ambient_dim: int, basis: tuple):
        """Internal constructor; `basis` must already be canonical RREF
        rows with no zero rows.  Use `span` to build from raw vectors."""
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def span(cls, field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = []
        for v in vectors:  # rref_rows coerces GF(p) entries itself
            v = list(v) if isinstance(field, PrimeField) else [field.scalar(x) for x in v]
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
            rows.append(v)
        if not rows:
            return cls(field, ambient_dim, ())
        reduced, rank, _ = rref_rows(field, rows)
        return cls(field, ambient_dim, tuple(tuple(r) for r in reduced[:rank]))

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

    def contains(self, v: Sequence) -> bool:
        """Membership test by reduction against the RREF basis."""
        v = [self.field.scalar(x) for x in v]
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        for row in self.basis:
            pivot = next(i for i, x in enumerate(row) if x)
            c = v[pivot]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return vec_is_zero(v)

    def coordinates(self, v: Sequence) -> Vector | None:
        """Coefficients of v in the basis, or None if v lies outside."""
        v = [self.field.scalar(x) for x in v]
        coords = []
        for row in self.basis:
            pivot = next(i for i, x in enumerate(row) if x)
            c = v[pivot]
            coords.append(c)
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        if not vec_is_zero(v):
            return None
        return tuple(coords)

    def to_matrix(self) -> Matrix:
        return Matrix(self.field, self.basis or [[]] * 0)

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
    """True iff every basis vector of x lies in y (rank is preserved when
    stacking x's basis onto y's)."""
    x._check(y)
    return all(y.contains(v) for v in x.basis)


def subspace_intersect(x: Subspace, y: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked coefficient system.

    Writing a common element as a combination of x's basis and of y's
    basis gives a homogeneous system; its kernel's x-parts span the
    intersection.
    """
    x._check(y)
    if x.is_zero() or y.is_zero():
        return Subspace.zero(x.field, x.ambient_dim)
    # columns: coefficients on x's basis, then on y's basis
    cols = [list(v) for v in x.basis] + [[-c for c in v] for v in y.basis]
    stacked = Matrix(x.field, cols).transpose()
    combine = Matrix.from_columns(x.field, x.basis)
    vectors = [combine.apply(k[: x.dim]) for k in kernel_vectors(stacked)]
    return Subspace.span(x.field, x.ambient_dim, vectors)


def kernel(m: Matrix) -> Subspace:
    """Right kernel of a matrix as a Subspace."""
    return Subspace.span(m.field, m.ncols, kernel_vectors(m))


def image_of(m: Matrix, s: Subspace) -> Subspace:
    """The image m(s) as a subspace of the codomain."""
    if m.field != s.field:
        raise FieldMismatch(f"{m.field!r} vs {s.field!r}")
    if m.ncols != s.ambient_dim:
        raise DimensionMismatch("operator domain does not match ambient space")
    return Subspace.span(m.field, m.nrows, [m.apply(v) for v in s.basis])


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
