"""Exact eigen-decomposition of diagonalizable operators.

Diagonalizability over the ground field is decided from the minimal
polynomial: the operator splits iff the minimal polynomial is a product
of distinct linear factors.  Roots are found exactly: by scanning the
field for GF(p), and by the rational-root bound on the integer-cleared
polynomial over Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NotDiagonalizableOverField,
)
from .fields import PrimeField, Rationals, Scalar
from .linalg import Matrix, min_poly, vec_is_zero
from .polynomials import Polynomial
from .subspaces import Subspace, kernel

# ---- integer factoring (for rational root candidates) -------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime_int(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise InvariantViolation(f"failed to factor {n}")


def _factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime_int(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def _divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1."""
    divs = [1]
    for p, e in _factor(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# ---- root extraction -----------------------------------------------------


def _rational_roots(poly: Polynomial) -> list[Fraction]:
    """All rational roots of a nonzero polynomial over Q, with
    multiplicity (each root repeated as often as it divides)."""
    roots: list[Fraction] = []
    work = poly
    # strip zero roots first so the constant term is nonzero
    while not work.is_zero() and work.degree >= 1 and not work.coeffs[0]:
        q, rem = work.deflate(Fraction(0))
        if rem:
            raise InvariantViolation("deflation by a known root left a remainder")
        roots.append(Fraction(0))
        work = q
    if work.degree < 1:
        return roots
    denom_lcm = 1
    for c in work.coeffs:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in work.coeffs]
    lead = abs(ints[-1])
    const = abs(ints[0])
    candidates = set()
    for p in _divisors(const):
        for q in _divisors(lead):
            if math.gcd(p, q) == 1:
                candidates.add(Fraction(p, q))
                candidates.add(Fraction(-p, q))
    for cand in sorted(candidates):
        while True:
            quotient, rem = work.deflate(cand)
            if rem:
                break
            roots.append(cand)
            work = quotient
            if work.degree < 1:
                return roots
    return roots


def _gf_roots(poly: Polynomial, field: PrimeField) -> list:
    """All roots of a nonzero polynomial over GF(p), with multiplicity,
    found by scanning the field with integer Horner evaluation."""
    ints = [c.v for c in poly.coeffs]
    p = field.p
    roots = []
    for v in range(p):
        acc = 0
        for c in reversed(ints):
            acc = (acc * v + c) % p
        if acc == 0:
            roots.append(field.scalar(v))
    # multiplicities by deflation
    out = []
    work = poly
    for r in roots:
        while True:
            quotient, rem = work.deflate(r)
            if rem:
                break
            out.append(r)
            work = quotient
    return out


def field_roots(poly: Polynomial, field) -> list:
    """All roots of a nonzero polynomial in its own field, with multiplicity."""
    if isinstance(field, Rationals):
        return _rational_roots(poly)
    return _gf_roots(poly, field)


# ---- decomposition --------------------------------------------------------


@dataclass(frozen=True)
class EigenDecomposition:
    """A diagonalizable operator together with its distinct eigenvalues
    and eigenspaces, in a fixed order.

    The order of `eigenvalues` is meaningful: reordering produces a new
    decomposition of the same operator.
    """

    operator: Matrix
    eigenvalues: tuple
    eigenspaces: tuple

    def __post_init__(self):
        n = self.operator.nrows
        if len(self.eigenvalues) != len(self.eigenspaces):
            raise InvariantViolation("eigenvalue/eigenspace count mismatch")
        if len(set(self.eigenvalues)) != len(self.eigenvalues):
            raise InvariantViolation("repeated eigenvalue")
        total = 0
        for theta, space in zip(self.eigenvalues, self.eigenspaces):
            if space.is_zero():
                raise InvariantViolation("zero eigenspace")
            total += space.dim
            for v in space.basis:
                image = self.operator.apply(v)
                expected = tuple(theta * x for x in v)
                if image != expected:
                    raise InvariantViolation("claimed eigenvector is not one")
        if total != n:
            raise InvariantViolation("eigenspace dimensions do not fill the space")

    @property
    def field(self):
        return self.operator.field

    @property
    def ambient_dim(self) -> int:
        return self.operator.nrows

    @property
    def diameter(self) -> int:
        return len(self.eigenvalues) - 1

    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.eigenspaces)

    def reordered(self, order) -> "EigenDecomposition":
        order = tuple(order)
        if sorted(order) != list(range(len(self.eigenvalues))):
            raise DimensionMismatch("reordering must be a permutation")
        return EigenDecomposition(
            self.operator,
            tuple(self.eigenvalues[i] for i in order),
            tuple(self.eigenspaces[i] for i in order),
        )

    def reversed(self) -> "EigenDecomposition":
        return self.reordered(range(self.diameter, -1, -1))


def eigen_decompose(m: Matrix) -> EigenDecomposition:
    """Decompose a square matrix into eigenspaces over its own field.

    Raises NotDiagonalizableOverField when the minimal polynomial has a
    repeated root or an irreducible nonlinear factor.  Eigenvalues are
    returned in ascending order (canonical before any pair-specific
    reordering).
    """
    if not m.is_square():
        raise DimensionMismatch("eigen-decomposition of a non-square matrix")
    if m.nrows == 0:
        raise DimensionMismatch("eigen-decomposition of an empty matrix")
    poly = min_poly(m)
    roots = field_roots(poly, m.field)
    if len(set(roots)) != len(roots):
        raise NotDiagonalizableOverField(
            "minimal polynomial has a repeated root"
        )
    if len(roots) != poly.degree:
        raise NotDiagonalizableOverField(
            "minimal polynomial has an irreducible factor of degree > 1 "
            f"(found {len(roots)} roots for degree {poly.degree})"
        )
    eye = Matrix.identity(m.field, m.nrows)
    eigenvalues = tuple(sorted(roots))
    spaces = tuple(kernel(m - eye.scale(theta)) for theta in eigenvalues)
    return EigenDecomposition(m, eigenvalues, spaces)


def _residue_product(x: list, y: list, p: int) -> list:
    """x @ y for square int matrices (lists of rows), entries reduced mod p."""
    cols = tuple(zip(*y))
    return [[sum(map(mul, row, col)) % p for col in cols] for row in x]


def splits_mod_p(rows: list, p: int) -> bool:
    """Whether the square int matrix `rows` (entries in [0, p)) is
    diagonalizable over GF(p) with all its eigenvalues in GF(p).

    That holds exactly when M^p == M: x^p - x is the product of (x - a)
    over every a in GF(p), so the minimal polynomial divides it iff it is
    a product of distinct linear factors.  M^p is computed by
    square-and-multiply on plain ints, about 2 log2(p) products, so a
    caller can reject most matrices before building a Matrix.
    """
    power = rows
    for bit in bin(p)[3:]:
        power = _residue_product(power, power, p)
        if bit == "1":
            power = _residue_product(power, rows, p)
    return power == rows


def primitive_idempotents(eig: EigenDecomposition) -> tuple[Matrix, ...]:
    """The projections onto each eigenspace along the others:
    E_i = C[:, block i] C^{-1}[block i, :] for the eigenbasis change C."""
    c, c_inv, ranges = eigencoordinate_change(eig)
    field = eig.field
    return tuple(
        Matrix(field, [row[lo:hi] for row in c.rows]) @ Matrix(field, c_inv.rows[lo:hi])
        for lo, hi in ranges
    )


def eigencoordinate_change(eig: EigenDecomposition) -> tuple[Matrix, Matrix, tuple]:
    """(C, C_inv, block_ranges) where C's columns are the concatenated
    eigenbasis vectors and block_ranges[i] is the (start, stop) slice of
    coordinates belonging to eigenspace i."""
    field = eig.field
    cols = []
    ranges = []
    start = 0
    for space in eig.eigenspaces:
        cols.extend(space.basis)
        ranges.append((start, start + space.dim))
        start += space.dim
    c = Matrix.from_columns(field, cols)
    c_inv = invert(c)
    return c, c_inv, tuple(ranges)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square invertible matrix by augmented elimination."""
    from .linalg import rref_rows

    if not m.is_square():
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.nrows
    eye = Matrix.identity(m.field, n)
    aug = [list(row) + list(eye.rows[i]) for i, row in enumerate(m.rows)]
    rows, _, pivots = rref_rows(m.field, aug)
    # [M | I] always has rank n; M is invertible iff no pivot leaves M
    if pivots != tuple(range(n)):
        raise InvariantViolation("matrix is singular")
    return Matrix(m.field, [row[n:] for row in rows])
