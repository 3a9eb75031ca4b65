"""Exact eigen-decomposition of diagonalizable operators.

An operator is diagonalizable iff the field roots of its characteristic
polynomial carry its whole degree and every eigenspace is as large as
its root's multiplicity.  A triangular operator has its diagonal for
roots and a simple root's eigenline by substitution, with no elimination;
a certified split form's two bidiagonal sides are decomposed on their
band alone (_band_decomposition).  Otherwise, over GF(p) with p <= n,
the roots are the t with ker(m - tI) nonzero, scanned until the kernels
fill the space, else r / d for the roots r of det(xI - R), R = d m the
int rows, a monic polynomial in Z[x] (polynomials._char_roots).  Each
such eigenspace is subspaces.kernel(m, theta), one elimination of m's
int rows with theta subtracted as they are fed in.  A decomposition keeps
its integer roots and its basis inverse, computed once and carried by its
reorderings, which EigenDecomposition._unchecked builds with no check.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from itertools import accumulate, compress
from math import gcd, lcm
from operator import mul
from struct import Struct
from weakref import ref

from .errors import (
    DimensionMismatch,
    HypothesisNotMet,
    InvariantViolation,
    NotDiagonalizableOverField,
)
from .linalg import Echelon, Matrix, _primitive, modulus, residue_product, row_elements, shifted_image
from .polynomials import _char_roots
from .subspaces import Subspace, _canonical, kernel

# ---- decomposition --------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EigenDecomposition:
    """A diagonalizable operator together with its distinct eigenvalues
    and eigenspaces, in a fixed order.

    The order of `eigenvalues` is meaningful: reordering produces a new
    decomposition of the same operator.  The eigenvalues are coerced once,
    by field.scalar, before any check.  `roots` holds the ints r_i with
    theta_i = r_i / d on the int rows R = d m, each u in V_i checked as
    (R - r_i I) u = 0; over Q no theta_i d off Z is a root of det(xI - R)."""

    operator: Matrix
    eigenvalues: tuple
    eigenspaces: tuple
    roots: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, field = self.operator, self.operator.field
        n, (rows, d), p = m.nrows, m._ints, modulus(field)
        if not m.is_square():
            raise DimensionMismatch("eigen-decomposition of a non-square matrix")
        thetas = tuple(map(field.scalar, self.eigenvalues))
        object.__setattr__(self, "eigenvalues", thetas)
        if len(thetas) != len(self.eigenspaces):
            raise InvariantViolation("eigenvalue/eigenspace count mismatch")
        if len(set(thetas)) != len(thetas):
            raise InvariantViolation("repeated eigenvalue")
        total, roots = 0, []
        for theta, space in zip(thetas, self.eigenspaces):
            if (space.field, space.ambient_dim) != (field, n):
                raise InvariantViolation("eigenspace outside the operator's space")
            vectors = space.echelon.rows.values()
            if not vectors:
                raise InvariantViolation("zero eigenspace")
            total += len(vectors)
            r, rest = (theta.v, 0) if p else divmod(theta.numerator * d, theta.denominator)
            if rest or not _are_eigenvectors(rows, p, r, vectors):
                raise InvariantViolation("claimed eigenvector is not one")
            roots.append(r)
        if total != n:
            raise InvariantViolation("eigenspace dimensions do not fill the space")
        object.__setattr__(self, "roots", tuple(roots))

    @classmethod
    def _unchecked(cls, operator: Matrix, eigenvalues: tuple, eigenspaces: tuple, roots: tuple) -> "EigenDecomposition":
        """The decomposition with these fields (theta_i = r_i / d), built with no check."""
        eig = object.__new__(cls)
        vars(eig).update(operator=operator, eigenvalues=eigenvalues, eigenspaces=eigenspaces, roots=roots)
        return eig

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
        """The decomposition with its eigenspaces in the given order, built
        with no check, as a permutation of a checked decomposition is one;
        it carries this one's eigenbasis change, if computed, with C's
        column blocks and C^-1's row blocks permuted alike, which is what
        eigencoordinate_change would compute for it afresh.  The identity
        order gives back this decomposition itself, as it is immutable."""
        order = tuple(order)
        if order == tuple(range(len(self.eigenvalues))):
            return self
        if sorted(order) != list(range(len(self.eigenvalues))):
            raise DimensionMismatch("reordering must be a permutation")
        fields = (self.eigenvalues, self.eigenspaces, self.roots)
        copy = self._unchecked(self.operator, *(tuple(x[i] for i in order) for x in fields))
        if "_change" in self.__dict__:
            c, c_inv, ranges = self.__dict__["_change"]
            (x, dx), (y, dy) = c._ints, c_inv._ints
            perm = [j for i in order for j in range(*ranges[i])]  # old coordinates, new order
            ends = list(accumulate(copy.dims()))
            vars(copy)["_change"] = (
                Matrix._of_ints(self.field, [[row[j] for j in perm] for row in x], dx),
                Matrix._of_ints(self.field, [y[j] for j in perm], dy),
                tuple(zip([0, *ends], ends)),
            )
        return copy

    def reversed(self) -> "EigenDecomposition":
        return self.reordered(range(self.diameter, -1, -1))


def _are_eigenvectors(rows, p, r: int, vectors) -> bool:
    """Whether m u = theta u for every Echelon row u in vectors, on the
    int rows R = d m of m: whether (R - r I) u = 0 for the root r of
    theta = r / d, mod p unless p is None."""
    return not any(any(shifted_image(rows, r, u, p)) for u in vectors)


def eigenspaces(m: Matrix) -> tuple[tuple, tuple, int]:
    """(thetas, spaces, nroots): the distinct eigenvalues of a square m
    in its field, ascending, the eigenspace ker(m - theta I) of each, and
    the number of roots of det(xI - m) in the field with multiplicity
    (_char_roots), read off the diagonal of a triangular m: one pass finds
    the simple entries for _eigenline, a repeated one has kernel(m, theta).
    m is diagonalizable exactly when the spaces' dimensions sum to its size;
    each is at most its root's multiplicity.  Over GF(p) with p <= n the
    eigenvalues of a non-triangular m are found by scanning t in GF(p) for
    ker(m - tI) != 0 until the kernels fill the space, at most p kernels
    and no polynomial; only if they never fill are the roots counted.
    Every kernel is kernel(m, theta), so no m - theta I is built."""
    rows, d = m._ints
    lower = any(any(row[:i]) for i, row in enumerate(rows))
    if lower and any(any(row[i + 1 :]) for i, row in enumerate(rows)):
        n, p = m.nrows, modulus(m.field)
        scan = p and p <= n  # every t in GF(p), and no polynomial unless rejected
        roots = () if scan else _char_roots(rows, p)
        found, dim = {}, 0
        for theta in map(m.field.scalar, range(p)) if scan else row_elements(m.field, sorted(set(roots)), d):
            if dim < n and (space := kernel(m, theta)).dim:
                found[theta], dim = space, dim + space.dim
        if scan and dim < n:  # not diagonalizable: count the roots for the message
            roots = _char_roots(rows, p)
        return tuple(found), tuple(found.values()), len(roots) if dim < n else n
    at = {}  # diagonal entry -> its index, None if repeated
    for i, row in enumerate(rows):
        at[row[i]] = None if row[i] in at else i
    ints = sorted(at)  # d > 0, so in the order of the eigenvalues
    thetas = row_elements(m.field, ints, d)
    spaces = tuple(
        kernel(m, theta) if at[t] is None else _eigenline(m, at[t], lower) for t, theta in zip(ints, thetas)
    )
    return thetas, spaces, m.nrows


def _eigenline(m: Matrix, k: int, lower: bool) -> Subspace:
    """ker(m - theta I), m triangular with theta only at k on its diagonal:
    the line of u with u_k = 1, u_j = 0 for j < k if m is lower (j > k if
    upper), and the rest solved row by row, over Q fraction-free up to scale,
    then kept as the canonical Echelon row of its pivot (k if m is lower)."""
    (rows, d), p, n = m._ints, modulus(m.field), m.nrows
    u, theta = [0] * n, rows[k][k]
    u[k] = 1
    for i in range(k + 1, n) if lower else range(k - 1, -1, -1):
        s, c = sum(map(mul, rows[i], u)), rows[i][i] - theta
        if p:
            if s % p:  # else u_i = 0, with no inverse
                u[i] = -s * pow(c, -1, p) % p
        elif s:  # scale u by c / g, then c u_i + s = 0
            g = gcd(c, s)
            u = [x * (c // g) for x in u]
            u[i] = -s // g
    pivot = k if lower else next(i for i, x in enumerate(u) if x)
    if not p:
        u = _primitive(u, u[pivot] < 0)
    elif u[pivot] != 1:
        inv = pow(u[pivot], -1, p)
        u = [inv * x % p for x in u]
    return Subspace(_canonical(m.field, {pivot: u}), n)


def _band_decomposition(m: Matrix, lower: bool) -> EigenDecomposition:
    """A split form's side m = R / d, R lower (if lower) or upper
    bidiagonal as pairs._split_phi has read it, decomposed in diagonal
    order as R_kk / d for k = 0 .. n-1 with _band_line's u, checked nonzero
    at its pivot and on every row of (R - R_kk I) u = 0 from R_ii and its one
    band entry (every other entry is 0).  Its roots are the diagonal ints,
    distinct by construction (PA1), and the n nonzero lines fill K^n."""
    (rows, d), p, n = m._ints, modulus(m.field), m.nrows
    t = [row[i] for i, row in enumerate(rows)]
    band = [rows[j][j - 1] if lower else rows[j - 1][j] for j in range(1, n)]
    by_row = [0, *band] if lower else [*band, 0]  # each row's band entry
    residue = (lambda x: x % p) if p else (lambda x: x)
    spaces = []
    for k in range(n):
        u, pivot = _band_line(t, band, k, lower, p), k if lower else 0
        near = [0, *u[:-1]] if lower else [*u[1:], 0]  # the entry of u each row's band entry meets
        if not u[pivot] or any(residue((x - t[k]) * y + b * z) for x, y, b, z in zip(t, u, by_row, near)):
            raise InvariantViolation("claimed eigenvector is not one")
        spaces.append(Subspace(_canonical(m.field, {pivot: u}), n))
    return EigenDecomposition._unchecked(m, row_elements(m.field, t, d), (*spaces,), (*t,))


def _band_line(t: list, band: list, k: int, lower: bool, p: int | None) -> list:
    """The canonical Echelon row of the eigenline for t[k] of the int
    matrix with diagonal t and band[j - 1] at (j, j - 1) if lower, else at
    (j - 1, j): u_k = 1 and u_j = -band u_{j-/+1} / (t_j - t_k) away from k,
    fraction-free the signed product of the band from k to j times the
    differences past j, scaled to pivot 1 over GF(p) and primitive over Q."""
    walk = range(k + 1, len(t)) if lower else range(k - 1, -1, -1)
    suffix = list(accumulate((t[j] - t[k] for j in reversed(walk)), mul, initial=1))  # past each j, last j first
    u, prefix = [0] * len(t), 1
    u[k] = suffix.pop()
    for j in walk:
        prefix *= -band[j - 1 if lower else j]
        u[j] = prefix * suffix.pop()
    c = u[k if lower else 0]  # the pivot entry
    inv = p and pow(c, -1, p)
    return [x * inv % p for x in u] if p else _primitive(u, c < 0)


_live = {}  # id(m) -> a weak reference to the decomposition eigen_decompose made for m


def eigen_decompose(m: Matrix) -> EigenDecomposition:
    """Decompose a square matrix into eigenspaces over its own field.

    Raises NotDiagonalizableOverField, carrying the eigenspaces found, when
    the minimal polynomial has a repeated root (an eigenspace is smaller
    than its root's multiplicity in the characteristic polynomial) or an
    irreducible factor of degree > 1 (the characteristic polynomial does
    not split).  Eigenvalues are ascending (canonical before any
    pair-specific reordering); those of a triangular m are its diagonal
    entries, with no polynomial computed.
    While a decomposition this made for m is alive, it is returned again:
    it holds m, so no other matrix has m's id, and m holds nothing back,
    so dropping the decomposition frees it and its entry at once.
    """
    if (kept := _live.get(id(m))) is not None and (eig := kept()) is not None and eig.operator is m:
        return eig
    if not m.is_square():
        raise DimensionMismatch("eigen-decomposition of a non-square matrix")
    if m.nrows == 0:
        raise DimensionMismatch("eigen-decomposition of an empty matrix")
    eigenvalues, spaces, nroots = eigenspaces(m)
    if (repeated := sum(sp.dim for sp in spaces) < nroots) or nroots != m.nrows:
        raise NotDiagonalizableOverField(
            "minimal polynomial has a repeated root"
            if repeated
            else "minimal polynomial has an irreducible factor of degree > 1 "
            f"(found {nroots} of {m.nrows} roots of the characteristic polynomial)",
            spaces=(*zip(eigenvalues, spaces),),
        )
    eig = EigenDecomposition(m, eigenvalues, spaces)
    _live[id(m)] = ref(eig, lambda dead, key=id(m), live=_live: live.get(key) is dead and live.pop(key))
    return eig


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


def _idempotent_sum(eig: EigenDecomposition, cs: list, e: int) -> Matrix:
    """sum_r (cs[r] / e) E_r for ints cs, in eig's order (e = 1 over
    GF(p)): one product C diag(c) C^-1 of the kept eigenbasis change, C's
    column block r scaled by cs[r], on the int rows."""
    c, c_inv, ranges = eigencoordinate_change(eig)
    (x, dx), (y, dy) = c._ints, c_inv._ints
    scale = [cs[r] for r, (lo, hi) in enumerate(ranges) for _ in range(lo, hi)]
    scaled = [list(map(mul, row, scale)) for row in x]
    return Matrix._of_ints(eig.field, residue_product(scaled, y, modulus(eig.field)), dx * dy * e)


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
