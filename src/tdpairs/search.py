"""Bounded search for tridiagonal pairs of prescribed shape over GF(p).

A is pinned to the block-diagonal form diag(0 I_{rho_0}, ..., d I_{rho_d});
conjugation freedom makes that lossless for existence questions.  Astar
ranges over the block-tridiagonal pattern that condition (ii) forces,
either exhaustively (candidate index = base-p digits of the entries) or
pseudo-randomly (counter-based keyed hash, so any shard of the stream is
reproducible on any machine).  A candidate Astar stays plain int rows
mod p through a residue screen of necessary checks (_residue_screen):
M^p == M row by row, exact because x^p - x is the product of (x - a)
over all a in GF(p), so it holds iff Astar is diagonalizable over GF(p);
the diameter and the shape multiset, from the roots of the characteristic
polynomial mod p; an ordering of A's eigenspaces; an ordering of Astar's.
Only a candidate that passes them becomes a Matrix, and validate_pair
certifies it; only fully validated pairs of the requested shape are
returned.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from functools import reduce
from itertools import permutations

from .errors import (
    BudgetZero,
    DimensionMismatch,
    FieldTooSmall,
    InvariantViolation,
    ParseError,
    TdpError,
)
from .eigen import eigen_decompose, residue_roots, splits_mod_p
from .fields import PrimeField
from .linalg import Matrix, char_poly_coeffs, residue_product
from .pairs import ShapeVector, path_orderings, validate_pair

_MODES = ("exhaustive", "randomized")


@dataclass(frozen=True)
class SearchSpec:
    """What to search for and how hard to try.

    budget counts candidates tried, not hits.  start offsets the
    candidate counter so shards of one search are themselves specs.
    """

    field: PrimeField
    dim: int
    shape: ShapeVector
    budget: int
    seed: int = 0
    mode: str = "exhaustive"
    start: int = 0

    def __post_init__(self):
        if not isinstance(self.field, PrimeField):
            raise ParseError("search runs over prime fields only")
        if not isinstance(self.shape, ShapeVector):
            object.__setattr__(self, "shape", ShapeVector(tuple(self.shape)))
        if self.mode not in _MODES:
            raise ParseError(f"mode must be one of {_MODES}")
        if sum(self.shape) != self.dim:
            raise DimensionMismatch(
                f"shape entries sum to {sum(self.shape)}, dim is {self.dim}"
            )
        d = self.shape.diameter
        if self.field.p <= d:
            raise FieldTooSmall(
                f"GF({self.field.p}) cannot host {d + 1} distinct eigenvalues"
            )
        if self.budget < 1:
            raise BudgetZero("budget must be at least 1")
        if self.start < 0:
            raise ParseError("start must be nonnegative")


@dataclass(frozen=True)
class SearchResult:
    """Validated hits plus bookkeeping.

    candidate_indices[i] is the counter value that produced
    instances[i]; elapsed is wall-clock seconds spent in this call.
    """

    instances: tuple
    candidates_tried: int
    elapsed: float
    candidate_indices: tuple = ()


def _block_of(shape) -> list:
    """Map each ambient row index to its eigenvalue-block index."""
    out = []
    for i, rho in enumerate(shape):
        out.extend([i] * rho)
    return out


def _allowed_positions(shape) -> list:
    """Row-major (r, c) positions inside the block-tridiagonal pattern."""
    blocks = _block_of(shape)
    n = len(blocks)
    return [
        (r, c)
        for r in range(n)
        for c in range(n)
        if abs(blocks[r] - blocks[c]) <= 1
    ]


def _fixed_a(field, shape) -> Matrix:
    return Matrix.diagonal(field, _block_of(shape))


def _exhaustive_entries(k: int, count: int, p: int) -> list:
    digits = []
    for _ in range(count):
        digits.append(k % p)
        k //= p
    return digits


def _randomized_entries(seed: int, k: int, count: int, p: int) -> list:
    """count values in [0, p) from a counter-based keyed hash; the same
    (seed, k) yields the same entries on every platform."""
    key = seed.to_bytes(8, "little", signed=True)
    out = []
    chunk = 0
    while len(out) < count:
        h = hashlib.blake2b(key=key, digest_size=64)
        h.update(k.to_bytes(8, "little") + chunk.to_bytes(4, "little"))
        digest = h.digest()
        for off in range(0, len(digest) - 3, 4):
            if len(out) >= count:
                break
            out.append(int.from_bytes(digest[off : off + 4], "little") % p)
        chunk += 1
    return out


def _residue_screen(rows: list, p: int, blocks: list, dims: list) -> str | None:
    """The first check of the search funnel that the int rows of a
    candidate Astar fail against A = diag(blocks), or None; dims is the
    sorted shape.  Astar's edge (j, i) exists iff E_i A E_j != 0, and the
    projection E_i is a nonzero multiple of the product of the (Astar -
    theta_k I), k != i.
    """
    if not splits_mod_p(rows, p):
        return "not_diagonalizable"
    roots = residue_roots(char_poly_coeffs(rows, p), p)
    thetas = sorted(set(roots))
    if len(thetas) != len(dims):
        return "wrong_diameter"
    # Astar is diagonalizable, so each multiplicity is an eigenspace dimension
    if sorted(map(roots.count, thetas)) != dims:
        return "wrong_multiset"
    n = len(rows)
    a_edges = {(blocks[c], blocks[r]) for r in range(n) for c in range(n) if rows[r][c]}
    if not path_orderings(len(dims), a_edges):
        return "no_ordering_a"
    eye = [[int(r == c) for c in range(n)] for r in range(n)]
    shifted = [[[(x - t * u) % p for x, u in zip(*pair)] for pair in zip(rows, eye)] for t in thetas]
    proj = [
        reduce(lambda x, y: residue_product(x, y, p), shifted[:i] + shifted[i + 1 :], eye)
        for i in range(len(thetas))
    ]
    a_proj = [[[b * x for x in row] for b, row in zip(blocks, e)] for e in proj]
    edges = {
        (j, i)
        for i, j in permutations(range(len(thetas)), 2)
        if any(map(any, residue_product(proj[i], a_proj[j], p)))
    }
    if not path_orderings(len(dims), edges):
        return "no_ordering_astar"
    return None


def search_shape(spec: SearchSpec) -> SearchResult:
    """Try up to spec.budget candidates from spec.start onward and
    return every validated pair with the requested shape.

    Deterministic for a fixed spec; a shard (same seed, shifted start)
    contributes exactly the candidates its counter range covers.  A
    rejected candidate is skipped; an InvariantViolation is a bug and
    propagates.
    """
    t0 = time.monotonic()
    field = spec.field
    p = field.p
    shape_t = tuple(spec.shape)
    n = spec.dim
    blocks = _block_of(shape_t)
    a = _fixed_a(field, shape_t)
    eig_a = eigen_decompose(a)
    positions = _allowed_positions(spec.shape)
    m = len(positions)
    if spec.mode == "exhaustive":
        total = p**m
        count = max(0, min(total - spec.start, spec.budget))
    else:
        count = spec.budget
    dims = sorted(shape_t)
    hits = []
    indices = []
    seen = set()
    tried = 0
    for step in range(count):
        k = spec.start + step
        if spec.mode == "exhaustive":
            values = _exhaustive_entries(k, m, p)
        else:
            values = _randomized_entries(spec.seed, k, m, p)
        tried += 1
        rows = [[0] * n for _ in range(n)]
        for (r, c), v in zip(positions, values):
            rows[r][c] = v
        if _residue_screen(rows, p, blocks, dims) is not None:
            continue
        astar = Matrix(field, rows)
        try:
            pair = validate_pair(a, astar, eig_a)
        except InvariantViolation:
            raise
        except TdpError:
            continue
        if tuple(pair.shape) != shape_t:
            continue
        key = pair.astar.flatten()
        if key in seen:
            continue
        seen.add(key)
        hits.append(pair)
        indices.append(k)
    return SearchResult(
        instances=tuple(hits),
        candidates_tried=tried,
        elapsed=time.monotonic() - t0,
        candidate_indices=tuple(indices),
    )


def partition_seeds(spec: SearchSpec, workers: int) -> list:
    """Split spec into per-worker shards covering the same candidate
    counters: contiguous ranges of sizes as equal as possible, larger
    shards first.  Workers share the seed; disjoint counter ranges keep
    the streams disjoint while the union replays the original search
    exactly."""
    if workers < 1:
        raise ParseError("workers must be at least 1")
    if workers == 1:
        return [spec]
    if spec.mode == "exhaustive":
        total_space = spec.field.p ** len(_allowed_positions(spec.shape))
        n = max(0, min(total_space - spec.start, spec.budget))
    else:
        n = spec.budget
    if n <= 0:
        return [spec]
    base, extra = divmod(n, workers)
    shards = []
    offset = spec.start
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        if size == 0:
            continue
        shards.append(replace(spec, budget=size, start=offset))
        offset += size
    return shards


def aggregate_results(results) -> SearchResult:
    """Deterministic merge of shard results in the given order,
    deduplicated by the canonical encoding of the found operator."""
    instances = []
    indices = []
    seen = set()
    tried = 0
    elapsed = 0.0
    for res in results:
        tried += res.candidates_tried
        elapsed += res.elapsed
        for pair, k in zip(res.instances, res.candidate_indices):
            key = pair.astar.flatten()
            if key in seen:
                continue
            seen.add(key)
            instances.append(pair)
            indices.append(k)
    return SearchResult(
        instances=tuple(instances),
        candidates_tried=tried,
        elapsed=elapsed,
        candidate_indices=tuple(indices),
    )
