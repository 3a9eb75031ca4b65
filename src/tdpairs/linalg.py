"""Exact dense matrices and Gaussian elimination.

Matrices are immutable tuples of row tuples over a single field.
Matrix(field, rows) coerces and field-checks every entry; same-field
arithmetic builds its results with Matrix._trusted, which does not.
Over GF(p), rref_rows, @, apply and char_poly run on int residues and
map back to elements once per output entry (Dumas, Giorgi and Pernet,
ACM TOMS 35(3), 2008); over Q, on Fractions.  Ambient sizes are desk
scale (dimension a few dozen), so clarity wins over asymptotics.
"""

from __future__ import annotations

from operator import mul, truediv
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, FieldMismatch
from .fields import Field, PrimeField, Scalar, same_field
from .polynomials import Polynomial

Vector = tuple


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "rows", "_res")

    def __init__(self, field: Field, rows: Iterable[Iterable]):
        rs = tuple(tuple(field.scalar(e) for e in row) for row in rows)
        ncols = len(rs[0]) if rs else 0
        for row in rs:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
        self.field = field
        self.nrows = len(rs)
        self.ncols = ncols
        self.rows = rs
        self._res = None

    @classmethod
    def _trusted(cls, field: Field, rows, res=None) -> "Matrix":
        """A matrix of same-field arithmetic results: unlike Matrix(field,
        rows), no entry is coerced or checked again.  res: residue rows."""
        m = cls.__new__(cls)
        m.field, m.rows, m._res = field, tuple(map(tuple, rows)), res
        m.nrows, m.ncols = len(m.rows), len(m.rows[0]) if m.rows else 0
        return m

    def _residues(self) -> tuple:
        """The int residue rows over GF(p), read off once per matrix."""
        if self._res is None:
            self._res = tuple(tuple(e.v for e in row) for row in self.rows)
        return self._res

    # ---- constructors -------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls._trusted(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls._trusted(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, field: Field, diag: Sequence) -> "Matrix":
        z = field.zero
        d = [field.scalar(x) for x in diag]
        n = len(d)
        return cls._trusted(field, [[d[i] if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, field: Field, cols: Sequence[Sequence]) -> "Matrix":
        return cls(field, cols).transpose()

    # ---- shape and access ---------------------------------------------

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(not e for row in self.rows for e in row)

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

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix._trusted(
            self.field,
            [
                [a + b if b else a for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return Matrix._trusted(
            self.field,
            [
                [a - b if b else a for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(self.field, [[-e for e in row] for row in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        field = self.field
        if isinstance(field, PrimeField):
            res = residue_product(self._residues(), other._residues(), field.p)
            return Matrix._trusted(field, [map(field._element, row) for row in res], res)
        bcols = [other.column(j) for j in range(other.ncols)]
        return Matrix._trusted(field, [[_dot(field, row, col) for col in bcols] for row in self.rows])

    def scale(self, c) -> "Matrix":
        c = self.field.scalar(c)
        return Matrix._trusted(self.field, [[c * e if e else e for e in row] for row in self.rows])

    def __rmul__(self, c) -> "Matrix":
        return self.scale(c)

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.ncols:
            raise DimensionMismatch("matrix-vector length mismatch")
        field = self.field
        if isinstance(field, PrimeField):
            v, p = field._residues(v), field.p
            return tuple(map(field._element, [sum(map(mul, row, v)) % p for row in self._residues()]))
        v = tuple(field.scalar(x) for x in v)
        return tuple(_dot(field, row, v) for row in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix._trusted(self.field, [self.column(j) for j in range(self.ncols)])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.ncols == other.ncols
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def _dot(field: Field, u: Sequence, v: Sequence):
    """The dot product of two vectors of scalars, skipping zero terms."""
    return sum((a * b for a, b in zip(u, v) if a and b), field.zero)


def residue_product(x: Sequence, y: Sequence, p: int) -> list:
    """x @ y for int matrices (sequences of rows), entries reduced mod p."""
    cols = tuple(zip(*y))
    return [[sum(map(mul, row, col)) % p for col in cols] for row in x]


# ---- elimination -------------------------------------------------------


class RrefResult(NamedTuple):
    matrix: "Matrix"
    rank: int
    pivots: tuple


def rref_rows(field: Field, rows: list) -> tuple[list, int, tuple]:
    """Reduced row echelon form of mutable row lists, in place.

    Returns (rows, rank, pivot-columns).  The first `rank` rows carry the
    pivots; the rest are zero.  The result is the unique RREF, so equal
    row spaces give equal outputs.  Over GF(p) the entries may be
    anything scalar() takes; elimination runs on their residues.
    """
    gf = isinstance(field, PrimeField)
    if gf:
        rows[:] = map(field._residues, rows)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        if rows[r][c] != 1:
            rows[r] = _normalized(field, rows[r], c)
        for i in range(nrows):
            if i != r and rows[i][c]:
                rows[i] = _row_minus(field, rows[i], rows[i][c], rows[r])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if gf:
        rows[:] = [list(map(field._element, row)) for row in rows]
    return rows, r, tuple(pivots)


def _normalized(field: Field, row: Sequence, c: int) -> list:
    """row / row[c], for Fractions or for int residues mod p."""
    if isinstance(field, PrimeField):
        inv, p = pow(row[c], -1, field.p), field.p
        return [inv * e % p for e in row]
    inv = field.one / row[c]
    return [inv * e if e else e for e in row]


def _row_minus(field: Field, row: Sequence, f, pivot_row: Sequence) -> list:
    """row - f * pivot_row, for Fractions or for int residues mod p."""
    if isinstance(field, PrimeField):
        p = field.p
        return [(a - f * b) % p if b else a for a, b in zip(row, pivot_row)]
    return [a - f * b if b else a for a, b in zip(row, pivot_row)]


def rref(m: Matrix) -> RrefResult:
    rows, rank, pivots = rref_rows(m.field, [list(r) for r in m.rows])
    return RrefResult(Matrix(m.field, rows), rank, pivots)


def rank(m: Matrix) -> int:
    return rref(m).rank


def kernel_vectors(m: Matrix) -> tuple:
    """Basis of the right kernel {x : m @ x = 0} as a tuple of vectors.

    One basis vector per free column, with a 1 in that coordinate; this
    is the standard RREF back-substitution basis (not itself reduced).
    """
    field = m.field
    rows, r, pivots = rref_rows(field, [list(row) for row in m.rows])
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    z, o = field.zero, field.one
    basis = []
    for fcol in free:
        v = [z] * m.ncols
        v[fcol] = o
        for i, pcol in enumerate(pivots):
            v[pcol] = -rows[i][fcol]
        basis.append(tuple(v))
    return tuple(basis)


def solve(m: Matrix, b: Sequence) -> Vector | None:
    """One solution of m @ x = b, or None if the system is inconsistent."""
    field = m.field
    if len(b) != m.nrows:
        raise DimensionMismatch("right-hand side length mismatch")
    b = [field.scalar(x) for x in b]
    aug = [list(row) + [b[i]] for i, row in enumerate(m.rows)]
    rows, r, pivots = rref_rows(field, aug)
    if m.ncols in pivots:
        return None
    z = field.zero
    x = [z] * m.ncols
    for i, pcol in enumerate(pivots):
        x[pcol] = rows[i][m.ncols]
    return tuple(x)


# ---- vector helpers -----------------------------------------------------


def vec_add(u: Sequence, v: Sequence) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Sequence, v: Sequence) -> Vector:
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(c, v: Sequence) -> Vector:
    return tuple(c * x for x in v)

def vec_is_zero(v: Sequence) -> bool:
    return all(not x for x in v)


# ---- polynomials of matrices --------------------------------------------


def poly_eval_matrix(p: Polynomial, m: Matrix) -> Matrix:
    """Evaluate a polynomial at a square matrix by Horner's rule."""
    if not m.is_square():
        raise DimensionMismatch("polynomial of a non-square matrix")
    if p.field != m.field:
        raise FieldMismatch(f"{p.field!r} vs {m.field!r}")
    n = m.nrows
    if p.is_zero():
        return Matrix.zeros(m.field, n, n)
    eye = Matrix.identity(m.field, n)
    acc = eye.scale(p.coeffs[-1])
    for c in reversed(p.coeffs[:-1]):
        acc = acc @ m
        if c:
            acc = acc + eye.scale(c)
    return acc


def shifted_products(m: Matrix, roots: Sequence) -> list[Matrix]:
    """The matrices prod_{h < i} (m - roots[h] I) for i = 0..len(roots),
    as one running product: each one is (m - roots[i-1] I) times the
    one before."""
    eye = Matrix.identity(m.field, m.nrows)
    out = [eye]
    for r in roots:
        out.append((m - eye.scale(r)) @ out[-1])
    return out


def min_poly(m: Matrix) -> Polynomial:
    """Monic minimal polynomial, found as the first linear dependency
    among the flattened powers I, m, m^2, ...

    Maintains an echelon basis of the flattened powers together with the
    combination that produced each basis row, so the dependency
    coefficients fall out of the final reduction.
    """
    if not m.is_square():
        raise DimensionMismatch("minimal polynomial of a non-square matrix")
    field = m.field
    n = m.nrows
    if n == 0:
        return Polynomial.one(field)
    echelon: list[tuple[int, list, list]] = []  # (pivot index, row, combo)
    power = Matrix.identity(field, n)
    k = 0
    while True:
        vec = list(power.flatten())
        combo = [field.zero] * (k + 1)
        combo[k] = field.one
        for pivot, row, rcombo in echelon:
            c = vec[pivot]
            if c:
                vec = [a - c * b for a, b in zip(vec, row)]
                combo = [
                    a - c * (rcombo[i] if i < len(rcombo) else field.zero)
                    for i, a in enumerate(combo)
                ]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            # zero residual means sum_i combo_i M^i = 0 with combo_k = 1
            return Polynomial(field, combo[:k] + [field.one])
        inv = field.one / vec[pivot]
        vec = [inv * x for x in vec]
        combo = [inv * x for x in combo]
        echelon.append((pivot, vec, combo))
        echelon.sort(key=lambda t: t[0])
        power = power @ m
        k += 1
        if k > n:
            raise AssertionError("minimal polynomial exceeded ambient dimension")


def char_poly(m: Matrix) -> Polynomial:
    """det(xI - m), by char_poly_coeffs (on int residues over GF(p))."""
    if not m.is_square():
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    if isinstance(m.field, PrimeField):
        return Polynomial(m.field, char_poly_coeffs(m._residues(), m.field.p))
    return Polynomial(m.field, char_poly_coeffs(m.rows))


def char_poly_coeffs(rows: Sequence, p: int | None = None) -> list:
    """det(xI - M), lowest degree first, in O(n^3) operations on the
    entries in their own field, or on ints mod p when p is given (H.
    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9):
    M is brought to upper Hessenberg form H by similarities (r_i -= u r_k,
    c_k += u c_i), then p_0 = 1, p_k = (x - h_kk) p_{k-1} - sum_{i<k} h_ik
    h_{i+1,i} ... h_{k,k-1} p_{i-1}, and p_n is the answer.
    """
    h = [list(row) for row in rows]
    red = (lambda x: x) if p is None else (lambda x: x % p)
    div = truediv if p is None else (lambda a, b: a * pow(b, -1, p) % p)
    n = len(h)
    for k in range(1, n - 1):
        piv = next((i for i in range(k, n) if h[i][k - 1]), None)
        if piv is None:
            continue
        if piv != k:
            h[piv], h[k] = h[k], h[piv]
            for row in h:
                row[piv], row[k] = row[k], row[piv]
        for i in range(k + 1, n):
            u = div(h[i][k - 1], h[k][k - 1])
            if u:
                h[i] = [red(a - u * b) if b else a for a, b in zip(h[i], h[k])]
                for row in h:
                    if row[i]:
                        row[k] = red(row[k] + u * row[i])
    polys = [[1]]
    for k in range(n):
        poly = [0] + polys[-1]
        for j, c in enumerate(polys[-1]):
            poly[j] -= h[k][k] * c
        t = 1
        for i in range(k, 0, -1):
            t = red(t * h[i][i - 1])
            if not t:
                break
            for j, c in enumerate(polys[i - 1]):
                poly[j] -= t * h[i - 1][k] * c
        polys.append([red(c) for c in poly])
    return polys[-1]
