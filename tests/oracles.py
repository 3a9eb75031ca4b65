"""Independent reference implementations used to cross-check the library.

Everything in this module is computed from the raw definitions with a
different algorithm than the package uses: exhaustive set enumeration
instead of echelon forms, brute force over all subspaces instead of
structured searches, and explicit eigenvector chains instead of solver
output.  Agreement between the two is then meaningful evidence, not a
tautology.  Finite-field vectors travel as tuples of plain Python ints
modulo p so no package arithmetic is involved on the oracle side.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from tdpairs import DimensionMismatch, FieldMismatch, Matrix, Subspace
from tdpairs.eigen import invert
from tdpairs.linalg import Echelon


# ---- the library's retired routes, kept as oracles ---------------------------


def poly_eval_matrix(p, m):
    """Evaluate a polynomial at a square matrix by Horner's rule."""
    if not m.is_square():
        raise DimensionMismatch("polynomial of a non-square matrix")
    if p.field != m.field:
        raise FieldMismatch(f"{p.field!r} vs {m.field!r}")
    n = m.nrows
    if p.is_zero():
        return Matrix.zeros(m.field, n, n)
    acc = Matrix.identity(m.field, n).scale(p.coeffs[-1])
    for c in reversed(p.coeffs[:-1]):
        acc = (acc @ m).shift(-c)
    return acc


def kernel_by_two_eliminations(m):
    """Right kernel of m as a Subspace in two eliminations: the
    back-substitution basis of the RREF of m's int rows, re-inserted into
    a fresh Echelon to make it canonical."""
    eng = Echelon(m.field)
    for _, u in Echelon.of_rows(m).nullspace(m.ncols):
        eng.insert(u)
    return Subspace(eng, m.ncols)


# ---- linear algebra on ints mod p (p None: on Fractions over Q) -------------


def _red(p, x):
    """x mod p, or x itself when p is None (over Q, on Fractions)."""
    return x if p is None else x % p


def int_mat_apply(p, rows, v):
    """rows @ v mod p (p None: over Q)."""
    n = len(rows)
    return tuple(_red(p, sum(rows[i][j] * v[j] for j in range(len(v)))) for i in range(n))


def int_matmul(p, x, y):
    """x @ y for int matrices (lists of rows) mod p (p None: over Q), by
    the triple loop."""
    cols = len(y[0]) if y else 0
    return [
        [_red(p, sum(x[i][k] * y[k][j] for k in range(len(y)))) for j in range(cols)]
        for i in range(len(x))
    ]


def int_rref(p, rows):
    """Reduced row echelon form of int rows mod p by plain Gauss-Jordan
    elimination, one column at a time, inverses by Fermat; p None: of
    rational rows over Q.  Returns (rows, rank, pivot columns)."""
    rows = [[_red(p, x) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = [i for i in range(r, len(rows)) if rows[i][c]]
        if not found:
            continue
        rows[r], rows[found[0]] = rows[found[0]], rows[r]
        inv = Fraction(1) / rows[r][c] if p is None else pow(rows[r][c], p - 2, p)
        rows[r] = [_red(p, x * inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [_red(p, a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, len(pivots), tuple(pivots)


def block_edges_per_vector(p, spaces, b_rows):
    """The pairs (j, i), j != i, for which b maps a basis vector of
    eigenspace j to a vector with a nonzero component in eigenspace i,
    one vector at a time: the coordinates of b v in the concatenated
    bases are the last column of the RREF of [C | b v], C the basis
    vectors as columns.  spaces: one list of basis vectors per
    eigenspace, as ints mod p (p None: Fractions over Q)."""
    basis = [v for space in spaces for v in space]
    owner = [j for j, space in enumerate(spaces) for _ in space]
    n = len(basis)
    edges = set()
    for j, space in enumerate(spaces):
        for v in space:
            w = int_mat_apply(p, b_rows, v)
            rows = int_rref(p, [[basis[k][r] for k in range(n)] + [w[r]] for r in range(n)])[0]
            edges |= {(j, owner[k]) for k, row in enumerate(rows) if row[n] and owner[k] != j}
    return edges


def int_span(p, vectors, n):
    """The set of all GF(p)-linear combinations, as int tuples."""
    span = {(0,) * n}
    for v in vectors:
        grown = set(span)
        for c in range(p):
            shift = tuple((c * x) % p for x in v)
            for w in span:
                grown.add(tuple((a + b) % p for a, b in zip(w, shift)))
        span = grown
    return span


def brute_intersection(p, xs, ys, n):
    """X meet Y for the spans of two lists of int tuples in GF(p)^n, as
    the set of vectors both spans contain."""
    return int_span(p, xs, n) & int_span(p, ys, n)


@functools.lru_cache(maxsize=None)
def all_subspaces(p, n):
    """Every subspace of GF(p)^n, each as a frozenset of int tuples.

    Brute force: spans of all subsets of up to n nonzero vectors.  Only
    meant for tiny spaces (p <= 3, n <= 3).  Cached: the answer depends
    only on (p, n)."""
    nonzero = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    out = {frozenset({(0,) * n})}
    for k in range(1, n + 1):
        for combo in itertools.combinations(nonzero, k):
            out.add(frozenset(int_span(p, combo, n)))
    return frozenset(out)


def brute_common_invariant(p, a_rows, astar_rows):
    """A proper nonzero subspace invariant under both int matrices, or
    None, found by checking every subspace of the space."""
    n = len(a_rows)
    full = p**n
    for s in sorted(all_subspaces(p, n), key=len):
        if len(s) == 1 or len(s) == full:
            continue
        if all(
            int_mat_apply(p, a_rows, v) in s and int_mat_apply(p, astar_rows, v) in s
            for v in s
        ):
            return s
    return None


def _int_parallel(p, x, y):
    """Whether int tuples x, y are GF(p)-proportional with y nonzero."""
    lead = next(i for i, yi in enumerate(y) if yi % p)
    c = (x[lead] * pow(y[lead], p - 2, p)) % p
    return all((xi - c * yi) % p == 0 for xi, yi in zip(x, y))


def brute_common_invariant_dim3(p, a_rows, astar_rows):
    """Like brute_common_invariant but specialised to 3-dimensional
    spaces over any small prime: every proper nonzero subspace is a line
    or a plane, so enumerate those projectively (O(p^2) cases) instead
    of spanning vector subsets.  A line span{v} is invariant iff both
    images of v are parallel to v; a plane ker(w) is invariant under M
    iff the row vector w.M is parallel to w."""
    lines = [
        (0,) * lead + (1,) + tail
        for lead in range(3)
        for tail in itertools.product(range(p), repeat=2 - lead)
    ]
    for v in lines:
        av = int_mat_apply(p, a_rows, v)
        sv = int_mat_apply(p, astar_rows, v)
        if (not any(av) or _int_parallel(p, av, v)) and (
            not any(sv) or _int_parallel(p, sv, v)
        ):
            return ("line", v)
    for w in lines:
        wa = tuple(sum(w[i] * a_rows[i][j] for i in range(3)) % p for j in range(3))
        ws = tuple(sum(w[i] * astar_rows[i][j] for i in range(3)) % p for j in range(3))
        if (not any(wa) or _int_parallel(p, wa, w)) and (
            not any(ws) or _int_parallel(p, ws, w)
        ):
            return ("plane", w)
    return None


def _int_spin_dim(p, gens, v):
    """Dimension of the smallest subspace that contains the int tuple v
    and is invariant under the int matrices gens, by a breadth-first
    closure of images with an echelon form kept as {pivot: row}."""
    rows = {}

    def enlarge(w):
        w = list(w)
        for i in range(len(w)):
            if w[i] and i in rows:
                c = w[i]
                w = [(x - c * y) % p for x, y in zip(w, rows[i])]
            elif w[i]:
                inv = pow(w[i], p - 2, p)
                rows[i] = [(inv * x) % p for x in w]
                return True
        return False

    queue = [v] if enlarge(v) else []
    for u in queue:
        queue.extend(w for w in (int_mat_apply(p, g, u) for g in gens) if enlarge(w))
    return len(rows)


def spin_reducible(p, a_rows, astar_rows):
    """Whether two int matrices mod p have a common invariant subspace
    other than 0 and V: exactly when some nonzero vector spins up to a
    proper subspace, as every such subspace contains the spin of each of
    its vectors.  Checks one vector per line of GF(p)^n."""
    n = len(a_rows)
    lines = (
        (0,) * lead + (1,) + tail
        for lead in range(n)
        for tail in itertools.product(range(p), repeat=n - lead - 1)
    )
    return any(_int_spin_dim(p, (a_rows, astar_rows), v) < n for v in lines)


def closure_algebra(a, astar):
    """Basis of the unital algebra generated by {A, Astar} inside End(V),
    as library matrices, plus its dimension: the words in A and Astar,
    grown from the identity by left multiplication while they enlarge
    the span (checked by rank over the flattened words)."""
    field, n = a.field, a.nrows
    basis = [Matrix.identity(field, n)]
    echelon = {}  # pivot -> flattened row, normalized at its pivot

    def enlarge(m):
        w = list(m.flatten())
        for i in range(len(w)):
            if w[i] and i in echelon:
                c = w[i]
                w = [x - c * y for x, y in zip(w, echelon[i])]
            elif w[i]:
                echelon[i] = [x / w[i] for x in w]
                return True
        return False

    enlarge(basis[0])
    for m in basis:  # grows while it is walked
        for g in (a, astar):
            word = g @ m
            if enlarge(word):
                basis.append(word)
    return basis, len(basis)


def matrix_to_int_rows(m):
    return [[x.v for x in row] for row in m.rows]


def subspace_vector_set(s):
    """All vectors of a library Subspace over GF(p), as int tuples."""
    p = s.field.p
    return frozenset(
        int_span(p, [tuple(x.v for x in b) for b in s.basis], s.ambient_dim)
    )


# ---- rank over Q by naive elimination (different pivoting style) -----------


def ref_rank_q(rows):
    """Rank of a rational matrix by last-to-first column elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in reversed(range(ncols)):
        pivot_row = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                c = m[r][col] / m[rank][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


# ---- characteristic polynomial and rational roots ---------------------------


def ref_det_q(rows):
    """Determinant of a rational matrix by Fraction elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot_row = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def char_poly_by_interpolation(rows):
    """Coefficients (lowest degree first) of det(xI - M) for a rational
    matrix: the determinant at x = 0..n, then Lagrange interpolation."""
    n = len(rows)
    xs = range(n + 1)
    coeffs = [Fraction(0)] * (n + 1)
    for xk in xs:
        yk = ref_det_q(
            [[(xk if i == j else 0) - Fraction(rows[i][j]) for j in range(n)] for i in range(n)]
        )
        basis, denom = [Fraction(1)], Fraction(1)
        for xj in xs:
            if xj != xk:
                # basis *= (x - xj)
                basis = [Fraction(0)] + basis
                for t in range(len(basis) - 1):
                    basis[t] -= xj * basis[t + 1]
                denom *= xk - xj
        for t in range(n + 1):
            coeffs[t] += yk * basis[t] / denom
    return coeffs


def _positive_divisors(n):
    """All positive divisors of n >= 1 by trial division."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _int_value_times_q_deg(ints, a, q):
    """q^deg f(a/q) for integer coefficients f (lowest degree first)."""
    deg = len(ints) - 1
    return sum(c * a**i * q ** (deg - i) for i, c in enumerate(ints))


def _int_deflate(ints, a, q):
    """f / (q x - a) for an integer f with f(a/q) = 0, gcd(a, q) = 1
    (integral by Gauss's lemma)."""
    out = [0] * (len(ints) - 1)
    carry = 0
    for k in range(len(ints) - 1, 0, -1):
        out[k - 1] = (ints[k] + carry) // q
        carry = a * out[k - 1]
    return out


def rational_roots_by_divisors(coeffs):
    """All rational roots, with multiplicity and in ascending order, of a
    nonzero polynomial over Q given by coefficients (lowest degree
    first): every candidate a/q with a | constant and q | leading
    coefficient of the integer-cleared polynomial, divided out while it
    is a root."""
    work = [Fraction(c) for c in coeffs]
    while not work[-1]:
        work.pop()
    zeros = next(i for i, c in enumerate(work) if c)
    roots = [Fraction(0)] * zeros
    scale = math.lcm(*(c.denominator for c in work))
    ints = [int(c * scale) for c in work[zeros:]]
    for p in _positive_divisors(abs(ints[0])):
        for q in _positive_divisors(abs(ints[-1])):
            if math.gcd(p, q) != 1:
                continue
            for a in (p, -p):
                while len(ints) > 1 and not _int_value_times_q_deg(ints, a, q):
                    ints = _int_deflate(ints, a, q)
                    roots.append(Fraction(a, q))
    return sorted(roots)


# ---- split-sequence oracle --------------------------------------------------


def _chain_coefficient(field, x, y):
    """The scalar c with x = c*y for vectors with y != 0; asserts exactness."""
    c = None
    for xi, yi in zip(x, y):
        if yi != field.zero:
            c = xi / yi
            break
    assert c is not None, "reference vector is zero"
    assert all(xi == c * yi for xi, yi in zip(x, y)), "vectors are not proportional"
    return c


def oracle_split_sequences(pair):
    """First and second split sequences of a Leonard pair, read directly
    off eigenvector chains.

    Starting from a basis vector u0 of the one-dimensional eigenspace of
    Astar for thetastar_0:

      u_i = (A - theta_{i-1} I) u_{i-1}   satisfies
      (Astar - thetastar_i I) u_i = varphi_i * u_{i-1},

    and with the A-eigenvalue order reversed,

      w_i = (A - theta_{d-i+1} I) w_{i-1}  satisfies
      (Astar - thetastar_i I) w_i = phi_i * w_{i-1}.

    Both proportionality constants are extracted and verified exactly.
    """
    field = pair.field
    d = pair.diameter
    n = pair.dim
    eye = Matrix.identity(field, n)
    u0 = pair.vstar(0).basis[0]

    varphi = []
    u_prev = u0
    for i in range(1, d + 1):
        u_i = (pair.a - eye.scale(pair.theta(i - 1))).apply(u_prev)
        lowered = (pair.astar - eye.scale(pair.thetastar(i))).apply(u_i)
        varphi.append(_chain_coefficient(field, lowered, u_prev))
        u_prev = u_i

    phi = []
    w_prev = u0
    for i in range(1, d + 1):
        w_i = (pair.a - eye.scale(pair.theta(d - i + 1))).apply(w_prev)
        lowered = (pair.astar - eye.scale(pair.thetastar(i))).apply(w_i)
        phi.append(_chain_coefficient(field, lowered, w_prev))
        w_prev = w_i

    return tuple(varphi), tuple(phi)


def phi_from_split_form(field, theta, thetastar, varphi):
    """Second split sequence of the split form of (theta, thetastar,
    varphi), from the reversed eigenvalue ordering: with u'_i the image of
    e_0 under the product of (A - theta_{d-h} I) for h < i, the scalar
    phi_i satisfies (Astar - thetastar_i I) u'_i = phi_i u'_{i-1}.

    Returns None when the structure breaks (degenerate parameters)."""
    d = len(theta) - 1
    eye = Matrix.identity(field, d + 1)
    a_rows = [[field.zero] * (d + 1) for _ in range(d + 1)]
    astar_rows = [[field.zero] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        a_rows[i][i], astar_rows[i][i] = theta[i], thetastar[i]
        if i:
            a_rows[i][i - 1], astar_rows[i - 1][i] = field.one, varphi[i - 1]
    a, astar = Matrix(field, a_rows), Matrix(field, astar_rows)
    images = [tuple([field.one] + [field.zero] * d)]
    for i in range(1, d + 1):
        nxt = (a - eye.scale(theta[d - i + 1])).apply(images[-1])
        if not any(nxt):
            return None
        images.append(nxt)
    phi = []
    for i in range(1, d + 1):
        w = (astar - eye.scale(thetastar[i])).apply(images[i])
        prev = images[i - 1]
        k = next(j for j, x in enumerate(prev) if x)
        scale = w[k] / prev[k]
        if not scale or any(x - scale * y for x, y in zip(w, prev)):
            return None
        phi.append(scale)
    return tuple(phi)


# ---- shape-(1,2,1) fixtures from products of diameter-1 pairs ---------------


def _kron(field, x, y):
    """Kronecker product of two library matrices over the same field."""
    rows = []
    for xr in x.rows:
        for yr in y.rows:
            rows.append([a * b for a in xr for b in yr])
    return Matrix(field, rows)


def _split_d1(field, t0, t1, ts0, ts1, varphi1):
    a = Matrix(field, [[t0, 0], [1, t1]])
    astar = Matrix(field, [[ts0, varphi1], [0, ts1]])
    return a, astar


def kron_sum_fixture(field, thetas, varphis):
    """The Kronecker sum A_1 (x) I (x) ... (x) I + ... + I (x) ... (x) A_k
    (and the same for Astar) of diameter-1 split-form pairs, factor i
    with A-eigenvalues thetas[i], dual eigenvalues (0, 1) and split
    entry varphis[i].

    With k factors sharing one eigenvalue gap the sums take k + 1 values
    with binomial multiplicities, so a valid result has shape
    (1, 2, 1) for k = 2 and (1, 3, 3, 1) for k = 3.
    """
    zero, one = field.zero, field.one
    eye = Matrix.identity(field, 2)
    a = astar = None
    for theta, varphi in zip(thetas, varphis):
        t0, t1 = (field.scalar(x) for x in theta)
        fa, fastar = _split_d1(field, t0, t1, zero, one, field.scalar(varphi))
        if a is None:
            a, astar = fa, fastar
            continue
        big = Matrix.identity(field, a.nrows)
        a = _kron(field, a, eye) + _kron(field, big, fa)
        astar = _kron(field, astar, eye) + _kron(field, big, fastar)
    return a, astar


def tensor_fixture(field, theta, mu, varphis):
    """A 4-dimensional candidate built as A1 (x) I + I (x) A2 from two
    diameter-1 split-form pairs with A-eigenvalues theta and mu and
    dual eigenvalues (0, 1) on both factors.

    When theta_0 - theta_1 = mu_0 - mu_1 the sums theta_i + mu_j take
    exactly three values with multiplicities (1, 2, 1), so a valid
    result is a tridiagonal pair of that shape (and never Leonard).
    """
    return kron_sum_fixture(field, (theta, mu), varphis)


# canonical parameter choices known to produce valid shape-(1,2,1) pairs
TENSOR_PARAMS = {
    "Q": ((0, 1), (1, 2), (1, 2)),
    "gf5": ((0, 1), (0, 1), (1, 2)),
    "gf7": ((0, 1), (0, 1), (1, 2)),
}


# ---- restriction of scalars: tridiagonal pairs of shape (k, ..., k) ---------


def scalar_restriction_fixture(field, f, d):
    """A split-form Leonard pair over L = F[x]/(f), restricted to F.

    f is a monic polynomial of degree k (int coefficients, lowest degree
    first).  Over L the pair has theta_i = thetastar_i = i and
    varphi_i = i(d - i + 1) x; each L-entry becomes its k x k matrix of
    multiplication on the basis 1, x, ..., x^(k-1), and x acts by the
    companion matrix C_f.  So A = lower-bidiagonal(theta, 1) (x) I_k and
    Astar = diag(thetastar) (x) I_k plus the superdiagonal blocks
    varphi_i(C_f).  When f is irreducible over F the result is an
    irreducible tridiagonal pair of shape (k, ..., k) and n = k(d + 1):
    over a splitting field it is a sum of Galois-conjugate Leonard pairs
    with pairwise different varphi_1, which the Galois group permutes
    transitively.
    """
    k = len(f) - 1
    n = k * (d + 1)
    companion = [[0] * k for _ in range(k)]
    for r in range(k):
        if r:
            companion[r][r - 1] = 1
        companion[r][k - 1] = -f[r]
    a = [[0] * n for _ in range(n)]
    astar = [[0] * n for _ in range(n)]
    for i in range(d + 1):
        for r in range(k):
            a[i * k + r][i * k + r] = i
            astar[i * k + r][i * k + r] = i
            if i < d:
                a[(i + 1) * k + r][i * k + r] = 1
            if i:
                for c in range(k):
                    astar[(i - 1) * k + r][i * k + c] = i * (d - i + 1) * companion[r][c]
    return Matrix(field, a), Matrix(field, astar)


# ---- pairs with one side of n distinct eigenvalues --------------------------


def _unitriangular(field, n, draw, lower):
    """A unit lower (or upper) triangular matrix with entries from draw()."""
    below = (lambda i, j: j < i) if lower else (lambda i, j: j > i)
    return Matrix(field, [[draw() if below(i, j) else int(i == j) for j in range(n)] for i in range(n)])


def multiplicity_free_pair(field, n, rng, second=False):
    """A pair (A, B) over field (Q or GF(p), n >= 2) with one side of n
    distinct eigenvalues, built in that side's eigenbasis and moved by
    P = L U for random unit lower and upper triangular L and U.

    By default A = P D P^-1 with D the n distinct eigenvalues and
    B = P S P^-1, where each off-diagonal entry of S is nonzero with one
    probability drawn per pair: A's block graph is the off-diagonal
    support of S, so the draws are irreducible, reducible with a forward
    witness and reducible with a dual witness at comparable rates.  With
    second, the pair is (P R E R^-1 P^-1, P D P^-1) for E diagonal with
    no eigenvalue of multiplicity 1 and R = L' U' as sparse as S: its
    first operator has no eigenline."""
    p = getattr(field, "p", None)
    values = list(range(p) if p else range(-9, 10))
    nonzero = [x for x in values if x]
    dense = rng.random()

    def entry():
        return rng.choice(values)

    def sparse():
        return rng.choice(nonzero) if rng.random() < dense else 0

    def moved(m, lower, upper):
        change = lower @ upper
        return change @ m @ invert(change)

    lower, upper = (_unitriangular(field, n, entry, side) for side in (True, False))
    a = moved(Matrix.diagonal(field, rng.sample(values, n)), lower, upper)
    if not second:
        s = Matrix(field, [[entry() if i == j else sparse() for j in range(n)] for i in range(n)])
        return a, moved(s, lower, upper)
    x, y = rng.sample(values, 2)
    e = Matrix.diagonal(field, [x] * n if n < 4 else [x, x] + [y] * (n - 2))
    mixed = moved(e, *(_unitriangular(field, n, sparse, side) for side in (True, False)))
    return moved(mixed, lower, upper), a
