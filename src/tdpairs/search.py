"""Bounded search for tridiagonal pairs of prescribed shape over GF(p).

A is pinned to the block-diagonal form diag(0 I_{rho_0}, ..., d I_{rho_d});
conjugation freedom makes that lossless for existence questions.  Astar
ranges over the block-tridiagonal pattern that condition (ii) forces,
either exhaustively (candidate index = base-p digits of the entries,
stepped by an odometer) or pseudo-randomly (counter-based keyed hash, so
any shard of the stream is reproducible on any machine).  A candidate
stays in one reused buffer of int rows mod p through the two checks that
exist because A is fixed: M^p == M row by row (splits_mod_p), which
holds iff Astar is diagonalizable over GF(p), as x^p - x is the product
of (x - a) over all a in GF(p); and an ordering of A's eigenspaces, read
off Astar's nonzero blocks, exact because A = diag(blocks).  A survivor
is copied into a Matrix and goes to the certifier's own stages:
eigen_decompose, a check of its eigenspace dimensions against the shape,
and validate_pair, which reuses both decompositions; only fully
validated pairs of the requested shape are returned.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field as _field, replace

from .errors import (
    BudgetZero,
    DimensionMismatch,
    FieldTooSmall,
    InvariantViolation,
    NotDiagonalizableOverField,
    ParseError,
    TdpError,
)
from .eigen import eigen_decompose, splits_mod_p
from .fields import PrimeField
from .linalg import Matrix
from .pairs import ShapeVector, path_orderings, validate_pair

_MODES = ("exhaustive", "randomized")
# The stages of search_shape's funnel, in the order it applies them.
FUNNEL = ("not_split", "a_pattern", "wrong_dims", "invalid", "duplicate", "hit")


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
        if self.mode == "randomized":  # seed and counter are hashed as 8 bytes each
            if not -(2**63) <= self.seed < 2**63:
                raise ParseError("seed must lie in [-2^63, 2^63) in randomized mode")
            if self.start + self.budget > 2**64:
                raise ParseError("start + budget must be at most 2^64 in randomized mode")


@dataclass(frozen=True)
class SearchResult:
    """Validated hits plus bookkeeping.

    candidate_indices[i] is the counter value that produced
    instances[i]; elapsed is wall-clock seconds spent in this call.
    funnel counts the candidates that stopped at each FUNNEL stage,
    so its counts sum to candidates_tried.
    """

    instances: tuple
    candidates_tried: int
    elapsed: float
    candidate_indices: tuple = ()
    funnel: dict = _field(default_factory=dict)


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


def _candidates(spec: SearchSpec, positions: list, count: int):
    """Yield (k, rows) for the count candidates from spec.start on, on one
    rows buffer that each step overwrites: a caller that keeps a candidate
    copies it.  The rows hold k's base-p digits in exhaustive mode, so
    spec.start is decoded once and each next k adds 1 at position 0 and
    carries (an odometer)."""
    p, m, randomized = spec.field.p, len(positions), spec.mode == "randomized"
    rows = [[0] * spec.dim for _ in range(spec.dim)]
    for k in range(spec.start, spec.start + count):
        if randomized or k == spec.start:
            entries = (
                _randomized_entries(spec.seed, k, m, p) if randomized else _exhaustive_entries(k, m, p)
            )
            for (r, c), v in zip(positions, entries):
                rows[r][c] = v
        else:
            for r, c in positions:
                if rows[r][c] < p - 1:
                    rows[r][c] += 1
                    break
                rows[r][c] = 0
        yield k, rows


def _candidate_count(spec: SearchSpec) -> int:
    """How many candidates spec tries: its budget, cut in exhaustive mode
    at the end of the p^m candidate space."""
    if spec.mode == "exhaustive":
        total = spec.field.p ** len(_allowed_positions(spec.shape))
        return max(0, min(total - spec.start, spec.budget))
    return spec.budget


def search_shape(spec: SearchSpec) -> SearchResult:
    """Try up to spec.budget candidates from spec.start onward and
    return every validated pair with the requested shape.

    Deterministic for a fixed spec; a shard (same seed, shifted start)
    contributes exactly the candidates its counter range covers.  The
    candidates come from _candidates, in exhaustive mode an odometer, on
    one reused rows buffer that no reference outlives a step:
    Matrix._of_ints copies the rows into tuples.  A rejected candidate is
    counted at its funnel stage and skipped; an InvariantViolation is a
    bug and propagates, and so is a candidate that passes M^p == M but
    does not decompose.
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
    count = _candidate_count(spec)
    dims = sorted(shape_t)
    hits = []
    indices = []
    seen = set()
    funnel = dict.fromkeys(FUNNEL, 0)
    for k, rows in _candidates(spec, positions, count):
        if not splits_mod_p(rows, p):
            continue
        # A = diag(blocks), so Astar's (i, j) block is nonzero iff edge (j, i)
        a_edges = {(blocks[c], blocks[r]) for r in range(n) for c in range(n) if rows[r][c]}
        if not path_orderings(len(dims), a_edges):
            funnel["a_pattern"] += 1
            continue
        astar = Matrix._of_ints(field, rows)
        try:
            eig_s = eigen_decompose(astar)
        except NotDiagonalizableOverField as e:
            raise InvariantViolation(f"Astar passed M^p == M but does not split: {e}") from None
        if sorted(eig_s.dims()) != dims:
            funnel["wrong_dims"] += 1
            continue
        try:
            pair = validate_pair(a, astar, eig_a, eig_s)
        except TdpError:
            pair = None
        if pair is None or tuple(pair.shape) != shape_t:
            funnel["invalid"] += 1
            continue
        key = pair.astar
        if key in seen:
            funnel["duplicate"] += 1
            continue
        seen.add(key)
        hits.append(pair)
        indices.append(k)
    funnel["hit"] = len(hits)
    funnel["not_split"] = count - sum(funnel.values())
    return SearchResult(
        instances=tuple(hits),
        candidates_tried=count,
        elapsed=time.monotonic() - t0,
        candidate_indices=tuple(indices),
        funnel=funnel,
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
    n = _candidate_count(spec)
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
    deduplicated by the canonical encoding of the found operator.  The
    funnel counts are summed, and a hit that an earlier shard already
    found moves from "hit" to "duplicate", as in an unsharded run."""
    instances = []
    indices = []
    seen = set()
    tried = 0
    elapsed = 0.0
    funnel = dict.fromkeys(FUNNEL, 0)
    for res in results:
        tried += res.candidates_tried
        elapsed += res.elapsed
        for stage, c in res.funnel.items():
            funnel[stage] += c
        for pair, k in zip(res.instances, res.candidate_indices):
            key = pair.astar
            if key in seen:
                funnel["hit"] -= 1
                funnel["duplicate"] += 1
                continue
            seen.add(key)
            instances.append(pair)
            indices.append(k)
    return SearchResult(
        instances=tuple(instances),
        candidates_tried=tried,
        elapsed=elapsed,
        candidate_indices=tuple(indices),
        funnel=funnel,
    )
