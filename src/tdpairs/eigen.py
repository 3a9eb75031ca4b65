"""Exact eigen-decomposition of diagonalizable operators.

An operator is diagonalizable iff the field roots of its characteristic
polynomial carry its whole degree and every eigenspace is as large as
its root's multiplicity.  A triangular operator (A and A* in a split
basis) has its diagonal for roots and a simple root's eigenline by
substitution.  Over GF(p) with p <= n they are the t with ker(m - tI)
nonzero, scanned until the kernels fill the space.  Otherwise the roots
of linalg.char_poly are found exactly without factoring integers: by
scanning GF(p), over Q p-adically.  The rest runs on int rows: each
eigenspace is subspaces.kernel(m, theta), one elimination of m's rows
with theta subtracted as they are fed in, with no shifted matrix; the
eigenvector check reads m's rows and theta once per eigenspace; the
basis inverse is computed once per decomposition and carried by its
reorderings.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from math import gcd, lcm
from operator import mul
from struct import Struct

from .errors import (
    DimensionMismatch,
    HypothesisNotMet,
    InvariantViolation,
    NotDiagonalizableOverField,
)
from .fields import Rationals, _is_prime
from .linalg import Echelon, Matrix, _common, _primitive, char_poly, modulus, residue_product
from .polynomials import Polynomial
from .subspaces import Subspace, kernel

# ---- root extraction -----------------------------------------------------


def _int_divmod(f: list, g: list) -> tuple[list, list] | None:
    """Quotient and remainder of int coefficient lists (lowest degree
    first) by long division, or None when a quotient coefficient is not
    an int; a primitive g divides f iff the remainder is 0 (Gauss)."""
    r, q = list(f), []
    for k in reversed(range(len(f) - len(g) + 1)):
        c, rem = divmod(r[k + len(g) - 1], g[-1])
        if rem:
            return None
        q.append(c)
        for j, b in enumerate(g):
            r[k + j] -= c * b
    return q[::-1], r[: len(g) - 1]


def _squarefree_ints(f: list) -> list[int]:
    """f / gcd(f, f') for an int coefficient list, primitive: the gcd by
    a primitive pseudo-remainder sequence (Knuth, TAOCP 2, 4.6.1)."""
    a, b = f, _primitive([i * c for i, c in enumerate(f)][1:])
    while b:
        r = _int_divmod([b[-1] ** (len(a) - len(b) + 1) * c for c in a], b)[1]
        while r and not r[-1]:
            r.pop()
        a, b = b, _primitive(r)
    return _primitive(_int_divmod(f, a)[0])


def _eval_mod(ints: list, x: int, q: int) -> int:
    acc = 0
    for c in reversed(ints):
        acc = (acc * x + c) % q
    return acc


def _rational_roots(poly: Polynomial) -> list[Fraction]:
    """All rational roots of a nonzero polynomial over Q, with
    multiplicity, by p-adic lifting (R. Loos, SIAM J. Comput. 1983).

    g is the integer squarefree part without zero roots, p the first odd
    prime that keeps g's degree and every root of g mod p simple.  Each
    root mod p is Hensel-lifted past 2 |g(0)| |lead g|, which bounds
    every root a/b (a | g(0), b | lead g), and rebuilt by rational
    reconstruction; a candidate counts only if it divides exactly.
    """
    zeros = next(i for i, c in enumerate(poly.coeffs) if c)
    f = _primitive(_common(poly.coeffs[zeros:])[0])
    g = _squarefree_ints(f)
    dg = [i * c for i, c in enumerate(g)][1:]
    const, bound = abs(g[0]), 2 * abs(g[0] * g[-1])
    p = 2
    while True:
        p += 1
        if not _is_prime(p) or not g[-1] % p:
            continue
        residues = [r for r in range(p) if not _eval_mod(g, r, p)]
        if all(_eval_mod(dg, r, p) for r in residues):
            break
    roots, candidates = [Fraction(0)] * zeros, []
    for r in residues:
        q = p
        while q <= bound:
            q *= q
            r = (r - _eval_mod(g, r, q) * pow(_eval_mod(dg, r, q), -1, q)) % q
        # rational reconstruction: the first remainder <= |g(0)|
        r0, r1, s0, s1 = q, r, 0, 1
        while r1 > const:
            k = r0 // r1
            r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
        candidates.append(Fraction(r1, s1))
    for cand in candidates:  # a / b as often as b x - a divides f
        line = [-cand.numerator, cand.denominator]
        qr = _int_divmod(f, line)
        while qr and not any(qr[1]):
            roots.append(cand)
            f, qr = qr[0], _int_divmod(qr[0], line)
    return roots


def field_roots(poly: Polynomial, field) -> list:
    """All roots of a nonzero polynomial in its own field, with
    multiplicity; over GF(p) found by scanning the field."""
    if isinstance(field, Rationals):
        return _rational_roots(poly)
    return [field.scalar(v) for v in residue_roots([c.v for c in poly.coeffs], field.p)]


def residue_roots(ints: list, p: int) -> list[int]:
    """The roots in [0, p) of a polynomial mod p (int coefficients, lowest
    degree first, leading one nonzero mod p), ascending, with multiplicity."""
    roots, ints = [], list(ints)
    for t in range(p):
        if len(ints) == 1:  # every root found
            break
        while len(ints) > 1 and not _eval_mod(ints, t, p):
            roots.append(t)
            for j in range(len(ints) - 2, 0, -1):  # deflate by x - t in place
                ints[j] = (ints[j] + t * ints[j + 1]) % p
            ints = ints[1:]
    return roots


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
    check_vectors: InitVar[bool] = True  # False only for reordered copies

    def __post_init__(self, check_vectors):
        m = self.operator
        n, (rows, _), p = m.nrows, m._ints, modulus(m.field)
        if len(self.eigenvalues) != len(self.eigenspaces):
            raise InvariantViolation("eigenvalue/eigenspace count mismatch")
        if len(set(self.eigenvalues)) != len(self.eigenvalues):
            raise InvariantViolation("repeated eigenvalue")
        total = 0
        for theta, space in zip(self.eigenvalues, self.eigenspaces):
            if (space.field, space.ambient_dim) != (self.field, n):
                raise InvariantViolation("eigenspace outside the operator's space")
            if space.is_zero():
                raise InvariantViolation("zero eigenspace")
            total += space.dim
            vectors = space.echelon.rows.values()
            if check_vectors and not _are_eigenvectors(rows, p, *m._shift_ints(theta), vectors):
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
        """The decomposition with its eigenspaces in the given order; it
        carries this one's eigenbasis change, if computed, with C's column
        blocks and C^-1's row blocks permuted alike, which is what
        eigencoordinate_change would compute for it afresh.  The identity
        order gives back this decomposition itself, as it is immutable."""
        order = tuple(order)
        if order == tuple(range(len(self.eigenvalues))):
            return self
        if sorted(order) != list(range(len(self.eigenvalues))):
            raise DimensionMismatch("reordering must be a permutation")
        copy = EigenDecomposition(
            self.operator,
            tuple(self.eigenvalues[i] for i in order),
            tuple(self.eigenspaces[i] for i in order),
            check_vectors=False,
        )
        if "_change" in self.__dict__:
            c, c_inv, ranges = self.__dict__["_change"]
            (x, dx), (y, dy) = c._ints, c_inv._ints
            perm = [j for i in order for j in range(*ranges[i])]  # old coordinates, new order
            ends = list(accumulate(copy.dims()))
            change = (
                Matrix._of_ints(self.field, [[row[j] for j in perm] for row in x], dx),
                Matrix._of_ints(self.field, [y[j] for j in perm], dy),
                tuple(zip([0, *ends], ends)),
            )
            object.__setattr__(copy, "_change", change)
        return copy

    def reversed(self) -> "EigenDecomposition":
        return self.reordered(range(self.diameter, -1, -1))


def _are_eigenvectors(rows, p, a: int, b: int, vectors) -> bool:
    """Whether m u = theta u for every Echelon row u in vectors, on the
    int rows R = d m of m: whether b R u = a u, for theta = a / (b d) as
    Matrix._shift_ints gives it, mod p unless p is None."""
    for u in vectors:
        w = [b * sum(map(mul, row, u)) - a * x for row, x in zip(rows, u)]
        if any(x % p for x in w) if p else any(w):
            return False
    return True


def eigenspaces(m: Matrix) -> tuple[tuple, tuple, int]:
    """(thetas, spaces, nroots): the distinct eigenvalues of a square m
    in its field, ascending, the eigenspace ker(m - theta I) of each, and
    the number of roots of char_poly(m) in the field with multiplicity,
    read off the diagonal of a triangular m (see _eigenline).  m is
    diagonalizable exactly when the spaces' dimensions sum to its size;
    each is at most its root's multiplicity.  Over GF(p) with p <= n the
    eigenvalues of a non-triangular m are found by scanning t in GF(p) for
    ker(m - tI) != 0 until the kernels fill the space, at most p kernels
    and no polynomial; only if they never fill is char_poly counted.
    Every kernel is kernel(m, theta), so no m - theta I is built."""
    rows, d = m._ints
    lower = any(any(row[:i]) for i, row in enumerate(rows))
    if lower and any(any(row[i + 1 :]) for i, row in enumerate(rows)):
        n, p = m.nrows, modulus(m.field)
        scan = p and p <= n  # every t in GF(p), and no polynomial unless rejected
        roots = () if scan else field_roots(char_poly(m), m.field)
        found, dim = {}, 0
        for theta in map(m.field.scalar, range(p)) if scan else sorted(set(roots)):
            if dim < n and (space := kernel(m, theta)).dim:
                found[theta], dim = space, dim + space.dim
        if scan and dim < n:  # not diagonalizable: count the roots for the message
            roots = field_roots(char_poly(m), m.field)
        return tuple(found), tuple(found.values()), len(roots) if dim < n else n
    diag = [row[i] for i, row in enumerate(rows)]
    ints = sorted(set(diag))  # d > 0, so in the order of the eigenvalues
    thetas = Matrix._of_ints(m.field, [ints], d).rows[0]
    spaces = tuple(
        _eigenline(m, diag.index(t), lower) if diag.count(t) == 1 else kernel(m, theta)
        for t, theta in zip(ints, thetas)
    )
    return thetas, spaces, m.nrows


def _eigenline(m: Matrix, k: int, lower: bool) -> Subspace:
    """ker(m - theta I), m triangular with theta only at k on its diagonal:
    the line of u with u_k = 1, u_j = 0 for j < k if m is lower (j > k if
    upper), and the rest solved row by row, over Q fraction-free up to scale."""
    eng, rows = Echelon(m.field), m._ints[0]
    p, u = eng.p, [int(i == k) for i in range(m.nrows)]
    for i in range(k + 1, m.nrows) if lower else range(k - 1, -1, -1):
        s, c = sum(map(mul, rows[i], u)), rows[i][i] - rows[k][k]
        if p:
            u[i] = -s * pow(c, -1, p) % p
        elif s:  # scale u by c / g, then c u_i + s = 0
            g = gcd(c, s)
            u = [x * (c // g) for x in u]
            u[i] = -s // g
    eng.insert(u)
    return Subspace(eng, m.nrows)


def eigen_decompose(m: Matrix) -> EigenDecomposition:
    """Decompose a square matrix into eigenspaces over its own field.

    Raises NotDiagonalizableOverField when the minimal polynomial has a
    repeated root (an eigenspace is smaller than its root's multiplicity
    in the characteristic polynomial) or an irreducible factor of degree
    > 1 (the characteristic polynomial does not split).  Eigenvalues are
    ascending (canonical before any pair-specific reordering); those of a
    triangular m are its diagonal entries, with no polynomial computed.
    """
    if not m.is_square():
        raise DimensionMismatch("eigen-decomposition of a non-square matrix")
    if m.nrows == 0:
        raise DimensionMismatch("eigen-decomposition of an empty matrix")
    eigenvalues, spaces, nroots = eigenspaces(m)
    if sum(sp.dim for sp in spaces) < nroots:
        raise NotDiagonalizableOverField("minimal polynomial has a repeated root")
    if nroots != m.nrows:
        raise NotDiagonalizableOverField(
            "minimal polynomial has an irreducible factor of degree > 1 "
            f"(found {nroots} of {m.nrows} roots of the characteristic polynomial)"
        )
    return EigenDecomposition(m, eigenvalues, spaces)


@lru_cache(maxsize=64)
def row_lanes(n: int, p: int, count: int = 0) -> tuple | None:
    """(pack, read) for the M^p == M tests on n x n matrices mod p, or
    None when they square and multiply instead.  pack(values) is one int,
    values[i] in lane i; read(x) is x's first count lanes (n if count is
    0) mod p.  A lane is the smallest of 1, 2, 4 or 8 bytes that holds
    n (p - 1)^2, so no lane of a sum of n products of residues carries
    (delayed reduction: Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008)."""
    bound = n * (p - 1) ** 2
    if p - 1 > n * (p.bit_length() + p.bit_count() - 2) or bound >= 1 << 64:
        return None
    count = count or n
    if bound < 1 << 8:  # reduced as bytes, in one translate
        residues = bytes(i % p for i in range(256))
        read = lambda x: x.to_bytes(count, "little").translate(residues)  # noqa: E731
        return lambda values: int.from_bytes(bytes(values), "little"), read
    code = next(c for c, w in (("H", 16), ("I", 32), ("Q", 64)) if bound < 1 << w)
    lanes = Struct(f"<{count}{code}")
    read = lambda x: [y % p for y in lanes.unpack(x.to_bytes(lanes.size, "little"))]  # noqa: E731
    return lambda values: int.from_bytes(lanes.pack(*values), "little"), read


def splits_mod_p(rows: list, p: int) -> bool:
    """Whether the square int matrix `rows` (a list of lists, entries in
    [0, p)) is diagonalizable over GF(p) with all its eigenvalues in GF(p).

    That holds exactly when M^p == M: x^p - x is the product of (x - a)
    over every a in GF(p), so the minimal polynomial divides it iff it is
    a product of distinct linear factors.  Row i of M^p is row i pushed
    through M p - 1 times; while that costs at most what square-and-multiply
    costs for all of M^p (k = bit_length(p) + popcount(p) - 2 products), the
    rows are checked one at a time, as most matrices fail on row 0.  A push
    is one sum over the rows packed by row_lanes, read back lane by lane
    mod p, and the row after p - 1 pushes is compared with the row whole.
    """
    packing = row_lanes(len(rows), p)
    if packing:
        pack, read = packing
        packed = [pack(row) for row in rows]
        for target in packed:
            start = v = read(target)
            for _ in range(p - 1):
                v = read(sum(map(mul, v, packed)))
            if v != start:
                return False
        return True
    power = rows
    for bit in bin(p)[3:]:
        power = residue_product(power, power, p)
        if bit == "1":
            power = residue_product(power, rows, p)
    return power == rows


@lru_cache(maxsize=16)
def _digit_lanes(n: int, p: int, m: int) -> tuple:
    """split_lanes's pack, read and ones (1 in every one of p^m lanes), and per
    digit of the lane index its lanes and bit planes (t, mask of bit t)."""
    pack, read = row_lanes(n, p, p**m)
    full, planes = (1 << p.bit_length()) - 1, range((p - 1).bit_length())
    digits = [[j // p**i % p for j in range(p**m)] for i in range(m)]
    return pack, read, pack([1] * p**m), [
        (pack(d), [(t, pack([full * (x >> t & 1) for x in d])) for t in planes]) for d in digits
    ]


def split_lanes(rows: list, varying: list, p: int) -> list:
    """The j in [0, p^m), ascending, for which splits_mod_p holds on the
    int matrix `rows` with its entry at varying[i] (m positions (r, c)) set
    to the i-th base-p digit of j, kept in lane j of row_lanes(n, p, p^m)
    (the SWAR idea of Lamport, CACM 18(8), 1975).  Each row goes through M
    p - 1 times in all lanes at once: a fixed entry scales a lane vector, a
    varying one multiplies lane by lane as the sum over its digit's bit
    planes t of (x & mask_t) << t, and the lanes are reduced mod p."""
    pack, read, ones, digits = _digit_lanes(len(rows), p, len(varying))
    start = [[x * ones for x in row] for row in rows]
    cols = [list(col) for col in zip(*rows)]
    for (r, c), (lanes, _) in zip(varying, digits):
        start[r][c], cols[c][r] = lanes, 0
    bad, b = 0, p.bit_length()
    for row in start:
        x = row
        for _ in range(p - 1):
            y = [sum(map(mul, x, col)) for col in cols]
            for (r, c), (_, planes) in zip(varying, digits):
                for t, mask in planes:
                    y[c] += (x[r] & mask) << t
            x = [pack(read(s)) for s in y]
        for u, v in zip(x, row):
            bad |= u ^ v
        dead = (bad + ones * ((1 << b) - 1)) >> b & ones  # bit b of a lane is set iff it is not 0
        if dead == ones:
            return []
    return list(compress(range(p ** len(varying)), read(ones ^ dead)))


def primitive_idempotents(eig: EigenDecomposition) -> tuple[Matrix, ...]:
    """The projections onto each eigenspace along the others:
    E_i = C[:, block i] C^{-1}[block i, :] for the eigenbasis change C."""
    c, c_inv, ranges = eigencoordinate_change(eig)
    (x, dx), (y, dy), field = c._ints, c_inv._ints, eig.field
    return tuple(
        Matrix._of_ints(field, [row[lo:hi] for row in x], dx) @ Matrix._of_ints(field, y[lo:hi], dy)
        for lo, hi in ranges
    )


def eigencoordinate_change(eig: EigenDecomposition) -> tuple[Matrix, Matrix, tuple]:
    """(C, C_inv, block_ranges) where C's columns are the concatenated
    canonical eigenspace bases, each Echelon row over its pivot entry,
    and block_ranges[i] is the (start, stop) slice of coordinates
    belonging to eigenspace i.  Computed once per (immutable)
    decomposition and kept on it; a singular C is a bug."""
    if "_change" not in eig.__dict__:
        object.__setattr__(eig, "_change", _eigencoordinate_change(eig))
    return eig.__dict__["_change"]


def _eigencoordinate_change(eig: EigenDecomposition) -> tuple[Matrix, Matrix, tuple]:
    vectors, ranges = [], []  # (Echelon row, its pivot entry)
    for space in eig.eigenspaces:
        eng = space.echelon
        ranges.append((len(vectors), len(vectors) + space.dim))
        vectors.extend((eng.rows[c], eng.rows[c][c]) for c in eng.pivots)
    s = lcm(*[e for _, e in vectors])
    cols = [[x * (s // e) for x in row] for row, e in vectors]
    c = Matrix._of_ints(eig.field, list(zip(*cols)), s)
    try:
        return c, invert(c), tuple(ranges)
    except HypothesisNotMet as e:
        raise InvariantViolation(f"eigenbasis: {e}") from None


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix, on its int rows: with m = R / d, the
    canonical RREF of [R | d I] is [I | m^-1]; a singular m is rejected."""
    if not m.is_square():
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.nrows
    rows, d = m._ints
    eng = Echelon(m.field)
    for i, row in enumerate(rows):
        eng.insert(list(row) + [d if j == i else 0 for j in range(n)])
    # [R | dI] always has rank n; m is invertible iff no pivot leaves R
    if eng.pivots != tuple(range(n)):
        raise HypothesisNotMet("matrix is singular")
    pivoted = [eng.rows[c] for c in range(n)]  # canonical row c: row / row[c]
    s = lcm(*[row[c] for c, row in enumerate(pivoted)])
    ints = [[x * (s // row[c]) for x in row[n:]] for c, row in enumerate(pivoted)]
    return Matrix._of_ints(m.field, ints, s)
