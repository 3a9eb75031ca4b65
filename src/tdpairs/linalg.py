"""Exact dense matrices and Gaussian elimination.

A Matrix is immutable and holds one form, int rows over a denominator
d: residues and d = 1 over GF(p), numerators over the least common
denominator in lowest terms over Q, so equal matrices hold equal forms.
That form is set once, by Matrix(field, rows), which coerces and
field-checks every entry, or by Matrix._of_ints, and the arithmetic
(+, -, scale, @, shift, transpose, ==, hash) runs on it; rows, the
entries as field elements, is a read-only cache built on first read.
apply maps back once per output entry (Dumas, Giorgi and Pernet, ACM
TOMS 35(3), 2008), and char_poly runs on the int rows over both fields,
by one division-free loop (Berkowitz 1984).  Every reduction to row
echelon form runs in one engine, Echelon, an incremental canonical RREF,
fraction-free over Q, which takes and gives int rows only; min_poly,
rref_rows and the subspaces module are built on it, feeding it a
Matrix's int rows and reading its rows back through
row_elements, the one map from an int row over d to field elements.
Linear systems are solved as spans: a kernel is subspaces.kernel, and
x = sum c_i m_i is read off the residual of (x, 0) against the rows
(m_i, e_i) of independent m_i, which is (0, -c) exactly when x lies in
their span.  Ambient
sizes are desk scale (dimension a few dozen), so clarity wins over
asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .fields import QQ, Field, PrimeField, Scalar
from .polynomials import Polynomial

Vector = tuple


def modulus(field: Field) -> int | None:
    """What the int kernels reduce by: p over GF(p), None over Q."""
    return field.p if isinstance(field, PrimeField) else None


class Matrix:
    # _ints: (int rows, d) with self = rows / d, as _keep sets it; _rows: the rows cache
    __slots__ = ("field", "nrows", "ncols", "_ints", "_rows")

    def __init__(self, field: Field, rows: Iterable[Iterable]):
        """The matrix of rows, every entry coerced and checked as by the
        field's scalar()."""
        if modulus(field):
            elements, ints, d = None, [field._residues(row) for row in rows], 1
        else:
            elements = tuple(tuple(field.scalar(e) for e in row) for row in rows)
            d = lcm(*{e.denominator for row in elements for e in row})
            ints = [_common(row, d)[0] for row in elements]
        if any(len(row) != len(ints[0]) for row in ints):
            raise DimensionMismatch("ragged rows")
        self._keep(field, ints, d)
        self._rows = elements

    @classmethod
    def _of_ints(cls, field: Field, rows: Sequence, d: int = 1) -> "Matrix":
        """The matrix rows / d for int rows (residues over GF(p)); its
        entries become field elements only when rows is read."""
        m = cls.__new__(cls)
        m._keep(field, rows, d)
        return m

    def _keep(self, field: Field, rows: Sequence, d: int):
        """Set the int form rows / d, over Q in lowest terms, so that
        equal matrices hold equal forms."""
        g = 1 if modulus(field) else gcd(d, *chain.from_iterable(rows))
        if g > 1:
            rows, d = [[a // g for a in row] for row in rows], d // g
        self.field, self._ints, self._rows = field, (tuple(map(tuple, rows)), d), None
        self.nrows, self.ncols = len(rows), len(rows[0]) if rows else 0

    @property
    def rows(self) -> tuple:
        """The entries as field elements, a tuple of row tuples, built
        from the int form on first read."""
        if self._rows is None:
            ints, d = self._ints
            self._rows = tuple(row_elements(self.field, row, d) for row in ints)
        return self._rows

    # ---- constructors -------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._of_ints(field, [[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls._of_ints(field, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, field: Field, diag: Sequence) -> "Matrix":
        (ints,), d = cls(field, [diag])._ints  # coerced and checked as one row
        n = len(ints)
        return cls._of_ints(field, [[ints[i] if i == j else 0 for j in range(n)] for i in range(n)], d)

    @classmethod
    def from_columns(cls, field: Field, cols: Sequence[Sequence]) -> "Matrix":
        return cls(field, cols).transpose()

    # ---- shape and access ---------------------------------------------

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return not any(map(any, self._ints[0]))

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def flatten(self) -> Vector:
        return tuple(e for row in self.rows for e in row)

    # ---- arithmetic ----------------------------------------------------

    def _check(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other on the int rows, over Q over the lcm of
        the two denominators."""
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix sum shape mismatch")
        (x, dx), (y, dy), p = self._ints, other._ints, modulus(self.field)
        if p:
            rows = [[(a + sign * b) % p for a, b in zip(r, s)] for r, s in zip(x, y)]
            return Matrix._of_ints(self.field, rows)
        d = lcm(dx, dy)
        sx, sy = d // dx, sign * (d // dy)
        return Matrix._of_ints(self.field, [[a * sx + b * sy for a, b in zip(r, s)] for r, s in zip(x, y)], d)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        (x, dx), (y, dy) = self._ints, other._ints
        return Matrix._of_ints(self.field, residue_product(x, y, modulus(self.field)), dx * dy)

    def shift(self, theta) -> "Matrix":
        """self - theta I for a square matrix, on its int rows: only the
        diagonal changes."""
        a, b = self._shift_ints(theta)
        rows, d = self._ints
        return Matrix._of_ints(self.field, list(shifted_rows(rows, a, b, modulus(self.field))), b * d)

    def _shift_ints(self, theta) -> tuple[int, int]:
        """(a, b) with self - theta I = (b R - a I) / (b d) for a square
        self = R / d: theta = a / (b d), with b = 1 and a the residue over
        GF(p)."""
        if not self.is_square():
            raise DimensionMismatch("shift of a non-square matrix")
        theta = self.field.scalar(theta)
        return (theta.v, 1) if modulus(self.field) else (theta.numerator * self._ints[1], theta.denominator)

    def scale(self, c) -> "Matrix":
        c, p = self.field.scalar(c), modulus(self.field)
        rows, d = self._ints
        if p:
            return Matrix._of_ints(self.field, [[c.v * a % p for a in row] for row in rows])
        return Matrix._of_ints(self.field, [[c.numerator * a for a in row] for row in rows], d * c.denominator)

    def __rmul__(self, c) -> "Matrix":
        return self.scale(c)

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.ncols:
            raise DimensionMismatch("matrix-vector length mismatch")
        field, p = self.field, modulus(self.field)
        rows, d = self._ints
        if p:
            v = field._residues(v)
            return row_elements(field, [sum(map(mul, row, v)) % p for row in rows])
        v, dv = _common([field.scalar(x) for x in v])
        return row_elements(field, [sum(map(mul, row, v)) for row in rows], d * dv)

    def transpose(self) -> "Matrix":
        rows, d = self._ints
        return Matrix._of_ints(self.field, list(zip(*rows)), d)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.field == other.field and self._ints == other._ints

    def __hash__(self):
        return hash((self.field, self._ints))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def _common(xs: Sequence, d: int = 0) -> tuple[list, int]:
    """(ints, d) with xs = ints / d for ints and Fractions xs; d defaults
    to their least common denominator."""
    d = d or lcm(*{x.denominator for x in xs})
    if d == 1:
        return [x.numerator for x in xs], 1
    return [x.numerator * (d // x.denominator) for x in xs], d


def row_elements(field: Field, ints: Sequence, d: int = 1) -> tuple:
    """The field elements of the int row ints / d: residues over GF(p),
    where d is 1, and Fractions over Q."""
    if modulus(field):
        return tuple(map(field._element, ints))
    return tuple(Fraction(x, d) if x else QQ.zero for x in ints)


def shifted_rows(rows: Sequence, a: int, b: int, p: int | None) -> Iterator[list]:
    """The int rows b R - a I of square int rows R (a = 0: of any R), one
    new list at a time, the diagonal reduced mod p unless p is None."""
    for i, row in enumerate(rows):
        u = [b * x for x in row] if b > 1 else list(row)
        if a:
            u[i] = (u[i] - a) % p if p else u[i] - a
        yield u


def residue_product(x: Sequence, y: Sequence, p: int | None) -> list:
    """x @ y for int matrices (sequences of rows), entries reduced mod p
    unless p is None."""
    cols = tuple(zip(*y))
    if p is None:
        return [[sum(map(mul, row, col)) for col in cols] for row in x]
    return [[sum(map(mul, row, col)) % p for col in cols] for row in x]


# ---- elimination -------------------------------------------------------


class Echelon:
    """The canonical RREF of a growing span, on int rows.  Over GF(p) a
    row holds residues and has a 1 at its pivot; over Q it is a primitive
    int vector with a positive pivot entry, and row / row[pivot] is the
    canonical row (fraction-free elimination: E. H. Bareiss, Math. Comp.
    22, 1968).  Every row is 0 at every other pivot, so a vector v
    reduces in one pass to v - sum_c v[c] row_c / row_c[c], and its
    coordinates in the basis are its entries at the pivots.  insert,
    reduce, image and nullspace take and give int rows: residues mod p,
    and over Q int vectors up to a positive scale, which is all a span
    needs; _residual gives the exact scale.  Field elements never enter:
    callers convert in through Matrix and out through row_elements.
    """

    __slots__ = ("field", "p", "rows")

    def __init__(self, field: Field):
        self.field = field
        self.p = modulus(field)
        self.rows = {}  # pivot column -> reduced row

    def image(self, m: Matrix, u: Sequence) -> list:
        """m u on m's int rows, for an int row u."""
        p = self.p
        if p:
            return [sum(map(mul, row, u)) % p for row in m._ints[0]]
        return _primitive([sum(map(mul, row, u)) for row in m._ints[0]])

    def _residual(self, u: Sequence) -> tuple:
        """(w, s): w / s is the int row u minus its part on the basis; s
        is 1 over GF(p), and over Q the lcm of the pivot entries u meets,
        so every row is subtracted an int number of times."""
        p = self.p
        if p:
            for c, row in self.rows.items():
                f = u[c]
                if f:
                    u = [(a - f * b) % p if b else a for a, b in zip(u, row)]
            return u, 1
        hits = [(c, row) for c, row in self.rows.items() if u[c]]
        s = lcm(*[row[c] for c, row in hits])
        w = [s * a for a in u] if s > 1 else u
        for c, row in hits:  # subtracting other rows leaves column c alone
            f = u[c] * (s // row[c])
            w = [a - f * b if b else a for a, b in zip(w, row)]
        return w, s

    def reduce(self, u: Sequence) -> Sequence:
        """The int row u minus its part on the basis, over Q up to the
        positive scale _residual gives; it is zero at every pivot, and
        zero exactly when u is in the span."""
        return self._residual(u)[0]

    def insert(self, u: Sequence) -> bool:
        """Add the int row u (over GF(p) residues in [0, p)) to the span;
        True when it grew.  It keeps a new list, and over GF(p) reduces
        u in one pass here and scales it only when its pivot is not 1."""
        p, given = self.p, u
        if p:
            for c, row in self.rows.items():
                f = u[c]
                if f:
                    u = [(a - f * b) % p if b else a for a, b in zip(u, row)]
        else:
            u = self._residual(u)[0]
        c = next((i for i, x in enumerate(u) if x), None)
        if c is None:
            return False
        if not p:
            u = _primitive(u, u[c] < 0)
        elif u[c] != 1:
            inv = pow(u[c], -1, p)
            u = [inv * e % p for e in u]
        elif u is given:
            u = list(u)
        e = u[c]
        for pivot, row in self.rows.items():
            f = row[c]
            if f and p:
                self.rows[pivot] = [(a - f * b) % p if b else a for a, b in zip(row, u)]
            elif f:  # e row - f u: 0 at c, and row[pivot] stays positive
                row = [e * a - f * b if b else e * a for a, b in zip(row, u)]
                self.rows[pivot] = _primitive(row)
        self.rows[c] = u
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple:
        return tuple(sorted(self.rows))

    @classmethod
    def of_rows(cls, m: Matrix) -> "Echelon":
        """The Echelon of m's row space, fed m's int rows."""
        eng = cls(m.field)
        for row in m._ints[0]:
            eng.insert(row)
        return eng

    def nullspace(self, ncols: int) -> list:
        """The standard back-substitution basis of {x : row . x = 0 for
        every row}, as (free column, vector) pairs: a 1 at the free column
        and minus the canonical row's entry at each pivot, as residues
        over GF(p); over Q times the lcm s of the pivot entries it uses,
        an int vector with s at the free column."""
        p, rows = self.p, self.rows
        out = []
        for free in range(ncols):
            if free not in rows:
                hits = [(c, row) for c, row in rows.items() if row[free]]
                s = 1 if p else lcm(*[row[c] for c, row in hits])
                u = [0] * ncols
                u[free] = s
                for c, row in hits:
                    u[c] = p - row[free] if p else -row[free] * (s // row[c])
                out.append((free, u))
        return out


def _primitive(u: Sequence, negate: bool = False) -> list:
    """The int vector u over the gcd of its entries, negated if asked, as
    a new list."""
    g = -gcd(*u) if negate else gcd(*u)
    return list(u) if g in (0, 1) else [a // g for a in u]


def rref_rows(field: Field, rows: list) -> tuple[list, int, tuple]:
    """Reduced row echelon form of mutable row lists, in place.

    Returns (rows, rank, pivot-columns).  The first `rank` rows carry the
    pivots; the rest are zero.  The result is the unique RREF, so equal
    row spaces give equal outputs.  The entries may be anything the
    field's scalar() takes.  No engine code calls it; perfbench/tracer.py
    wraps this name, so it stays until the benchmark drops it.
    """
    m = Matrix(field, rows)
    eng = Echelon.of_rows(m)
    basis = [list(row_elements(field, eng.rows[c], eng.rows[c][c])) for c in eng.pivots]
    rows[:] = basis + [[field.zero] * m.ncols for _ in range(m.nrows - eng.dim)]
    return rows, eng.dim, eng.pivots


# ---- vector helpers -----------------------------------------------------


def vec_is_zero(v: Sequence) -> bool:
    return all(not x for x in v)


# ---- polynomials of matrices --------------------------------------------


def shifted_products(m: Matrix, roots: Sequence) -> list[Matrix]:
    """The matrices prod_{h < i} (m - roots[h] I) for i = 0..len(roots),
    as one running product: each one is (m - roots[i-1] I) times the
    one before."""
    out = [Matrix.identity(m.field, m.nrows)]
    for r in roots:
        out.append(m.shift(r) @ out[-1])
    return out


def min_poly(m: Matrix) -> Polynomial:
    """Monic minimal polynomial, found as the first linear dependency
    among the flattened powers I, m, m^2, ...

    Each power P_k = rows / d is reduced as the int row d (P_k, e_k);
    when the P-part of the residual vanishes, its e-part holds the
    coefficients of sum_i c_i m^i = 0 up to a scale, c_k at index k.
    """
    if not m.is_square():
        raise DimensionMismatch("minimal polynomial of a non-square matrix")
    field = m.field
    n = m.nrows
    eng = Echelon(field)
    power = Matrix.identity(field, n)
    for k in range(n + 1):
        rows, d = power._ints  # P_k = rows / d, so the row is d (P_k, e_k)
        u = eng.reduce([*chain.from_iterable(rows), *(0,) * k, d, *(0,) * (n - k)])
        if not any(u[: n * n]):
            return Polynomial(field, row_elements(field, u[n * n : n * n + k + 1], u[n * n + k]))
        eng.insert(u)
        power = power @ m
    raise AssertionError("minimal polynomial exceeded ambient dimension")


def char_poly(m: Matrix) -> Polynomial:
    """det(xI - m) by char_poly_coeffs on m's int rows R = d m, over Q as
    well as GF(p): coefficient k is c_k / d^(n-k) for det(xI - R) = sum
    c_k x^k."""
    if not m.is_square():
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    rows, d = m._ints
    cs = char_poly_coeffs(rows, modulus(m.field))
    return Polynomial(m.field, row_elements(m.field, [c * d**k for k, c in enumerate(cs)], d ** m.nrows))


def char_poly_coeffs(rows: Sequence, p: int | None = None) -> list:
    """det(xI - M) for int rows M, lowest degree first, reduced mod p
    when p is given, by Berkowitz's division-free recurrence (S. J.
    Berkowitz, Inf. Process. Lett. 18(3), 1984): for the leading r x r
    block M_r, the row R = M[r][:r], the column C = M[:r][r] and a =
    M[r][r], the coefficients of det(xI - M_{r+1}), highest degree first,
    are the lower triangular Toeplitz matrix with first column (1, -a,
    -R C, -R M_r C, ..., -R M_r^(r-1) C) times those of det(xI - M_r).
    O(n^4) ring operations and no division, so a zero leading minor needs
    no pivot and the coefficients over Z stay integers.
    """
    poly = [1]  # det(xI - M_r), highest degree first
    for r, row in enumerate(rows):
        col, v = [1, -row[r]], [m[r] for m in rows[:r]]  # v = M_r^j C
        for j in range(r):
            if j:
                v = [sum(map(mul, m, v)) for m in rows[:r]]  # map stops at r
                if p:
                    v = [x % p for x in v]
            col.append(-sum(map(mul, row, v)))
        poly = [sum(map(mul, col[i::-1], poly)) for i in range(r + 2)]
        if p:
            poly = [c % p for c in poly]
    return poly[::-1]
