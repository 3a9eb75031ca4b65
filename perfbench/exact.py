"""Exact arithmetic on plain Python numbers, independent of tdpairs.

The benchmark builds its hand-made inputs and checks the library's
witnesses with these helpers, so no check trusts the code it measures.
A field is `None` for Q (entries are Fractions) or a prime p (entries
are ints in [0, p)).
"""

from __future__ import annotations

from fractions import Fraction


def scalar(field, x):
    return Fraction(x) if field is None else int(x) % field


def parse(field, text: str):
    """A matrix or vector entry as the CLI writes it."""
    return Fraction(text) if field is None else int(text) % field


def to_str(field, x) -> str:
    return str(Fraction(x)) if field is None else str(int(x) % field)


def inverse(field, x):
    return 1 / Fraction(x) if field is None else pow(x, -1, field)


def reduce(field, x):
    return x if field is None else x % field


def matmul(field, a, b):
    return [
        [reduce(field, sum(x * y for x, y in zip(row, col))) for col in zip(*b)]
        for row in a
    ]


def apply(field, m, v):
    """m v for a column vector v."""
    return [reduce(field, sum(x * y for x, y in zip(row, v))) for row in m]


def identity(field, n):
    return [[scalar(field, int(i == j)) for j in range(n)] for i in range(n)]


def kron(field, a, b):
    return [
        [reduce(field, x * y) for x in ra for y in rb] for ra in a for rb in b
    ]


def kron_sum(field, factors):
    """sum_i I (x) ... (x) F_i (x) ... (x) I over the list of square factors."""
    total = None
    for i, f in enumerate(factors):
        term = [[scalar(field, 1)]]
        for j, g in enumerate(factors):
            term = kron(field, term, f if i == j else identity(field, len(g)))
        total = term if total is None else [
            [reduce(field, x + y) for x, y in zip(r, s)] for r, s in zip(total, term)
        ]
    return total


def block_diag(field, a, b):
    n, m = len(a), len(b)
    zero = scalar(field, 0)
    return [list(r) + [zero] * m for r in a] + [[zero] * n + list(r) for r in b]


def invert(field, m):
    """Inverse by Gauss-Jordan elimination, or None when m is singular."""
    n = len(m)
    work = [list(r) + identity(field, n)[i] for i, r in enumerate(m)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if work[r][c]), None)
        if pivot is None:
            return None
        work[c], work[pivot] = work[pivot], work[c]
        inv = inverse(field, work[c][c])
        work[c] = [reduce(field, x * inv) for x in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                k = work[r][c]
                work[r] = [reduce(field, x - k * y) for x, y in zip(work[r], work[c])]
    return [r[n:] for r in work]


def rank(field, rows) -> int:
    work = [list(r) for r in rows]
    rk = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((r for r in range(rk, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        inv = inverse(field, work[rk][c])
        for r in range(rk + 1, len(work)):
            if work[r][c]:
                k = work[r][c] * inv
                work[r] = [reduce(field, x - k * y) for x, y in zip(work[r], work[rk])]
        rk += 1
    return rk


def is_proper_common_invariant(field, a, astar, basis) -> bool:
    """True when span(basis) is neither 0 nor the whole space and both
    operators map it into itself."""
    n = len(a)
    dim = rank(field, basis) if basis else 0
    if not 0 < dim < n:
        return False
    for m in (a, astar):
        for v in basis:
            if rank(field, list(basis) + [apply(field, m, v)]) != dim:
                return False
    return True


def proportional(x_rows, y_rows) -> bool:
    """x == c y for some nonzero scalar c; entries are library scalars,
    compared by cross-multiplication so no division is needed."""
    pivot = next(
        ((i, j) for i, r in enumerate(y_rows) for j, v in enumerate(r) if v), None
    )
    if pivot is None:
        return False
    pi, pj = pivot
    xp, yp = x_rows[pi][pj], y_rows[pi][pj]
    if not xp:
        return False
    return all(
        x * yp == y * xp
        for rx, ry in zip(x_rows, y_rows)
        for x, y in zip(rx, ry)
    )
