"""Int-coefficient polynomials, the package's one polynomial form.

A polynomial is a list of int coefficients, lowest degree first;
reduced mod p, it is one over GF(p).  char_poly_coeffs gives det(xI - R)
for int rows R, which is monic in Z[x], and _char_roots its roots:
residues over GF(p) by scanning GF(p) (residue_roots), integers over Q
by p-adic lifting (_integer_roots), with no factoring and no rational
reconstruction.  Both root finders divide out a root r by one synthetic
division by x - r (_deflate).  eigen reads a matrix's eigenvalues off
these roots.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .fields import _is_prime
from .linalg import _primitive


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


def _char_roots(rows: list, p: int | None) -> list[int]:
    """The roots r of det(xI - R) for a square m's int rows R = d m, with
    multiplicity: residues over GF(p) (d = 1), integers over Q, as that
    polynomial is monic in Z[x].  m's eigenvalues are the r / d."""
    chi = char_poly_coeffs(rows, p)
    return residue_roots(chi, p) if p else _integer_roots(chi)


def _int_divmod(f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of int coefficient lists by long division,
    where g's leading coefficient divides every leading term met: g
    monic, a pseudo-division, or a primitive g that divides f over Q
    (Gauss)."""
    r, q = list(f), []
    for k in reversed(range(len(f) - len(g) + 1)):
        c = r[k + len(g) - 1] // g[-1]
        q.append(c)
        for j, b in enumerate(g):
            r[k + j] -= c * b
    return q[::-1], r[: len(g) - 1]


def _deflate(f: list, r: int, p: int | None = None) -> tuple[list, int]:
    """(q, f(r)) with f = (x - r) q + f(r), by synthetic division, reduced
    mod p unless p is None."""
    acc, q = 0, []
    for c in reversed(f):
        acc = (acc * r + c) % p if p else acc * r + c
        q.append(acc)
    rem = q.pop()
    return q[::-1], rem


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


def _integer_roots(f: list) -> list[int]:
    """All integer roots of a monic int polynomial, with multiplicity, by
    p-adic lifting (R. Loos, SIAM J. Comput. 1983); a monic polynomial
    over Z has no other rational roots.

    g is the squarefree part without zero roots and p the first odd prime
    that keeps every root of g mod p simple (residue_roots on g mod p).
    Each root mod p is Hensel-lifted to a modulus q > 2 |g(0)|, which
    bounds every root (a divisor of g(0)), and read as a symmetric
    residue; it counts as often as x - r divides f exactly.
    """
    zeros = next(i for i, c in enumerate(f) if c)
    f = f[zeros:]
    g = _squarefree_ints(f)
    dg = [i * c for i, c in enumerate(g)][1:]
    p = 2
    while True:
        p += 1
        if _is_prime(p):
            residues = residue_roots([c % p for c in g], p)
            if len(set(residues)) == len(residues):
                break
    roots = [0] * zeros
    for r in residues:
        q = p
        while q <= 2 * abs(g[0]):
            q *= q
            r = (r - _eval_mod(g, r, q) * pow(_eval_mod(dg, r, q), -1, q)) % q
        r -= q if 2 * r > q else 0
        quotient, rem = _deflate(f, r)
        while not rem:
            roots.append(r)
            f = quotient
            quotient, rem = _deflate(f, r)
    return roots


def residue_roots(ints: list, p: int) -> list[int]:
    """The roots in [0, p) of a polynomial mod p (int coefficients, leading
    one nonzero mod p), ascending, with multiplicity."""
    roots = []
    for t in range(p):
        if len(ints) == 1:  # every root found
            break
        while len(ints) > 1 and not _eval_mod(ints, t, p):
            roots.append(t)
            ints = _deflate(ints, t, p)[0]
    return roots
