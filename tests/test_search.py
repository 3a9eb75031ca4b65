"""Prescribed-shape search: enumeration, sharding, determinism."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

from tdpairs import (
    GF,
    QQ,
    BudgetZero,
    DimensionMismatch,
    FieldTooSmall,
    InvariantViolation,
    Matrix,
    NotDiagonalizableOverField,
    ParseError,
    SearchSpec,
    TdpError,
    aggregate_results,
    eigen_decompose,
    partition_seeds,
    search_shape,
    support_path_orderings,
    validate_pair,
)
import tdpairs.search
from tdpairs.cli import cmd_search
from tdpairs.eigen import invert, splits_mod_p
from tdpairs.search import (
    _allowed_positions,
    _block_of,
    _exhaustive_entries,
    _fixed_a,
    _randomized_entries,
    _residue_screen,
)


def gf3_spec(**overrides):
    base = dict(field=GF(3), dim=2, shape=(1, 1), budget=81)
    base.update(overrides)
    return SearchSpec(**base)


def int_entries(m):
    return tuple(tuple(x.v for x in row) for row in m.rows)


# every shape-(1, 1) pair over GF(3) with A = diag(0, 1), derived by
# hand: the off-diagonal entries must be nonzero and equal as a product
# condition forces b*c = 1 and equal diagonal entries
EXPECTED_GF3_HITS = frozenset(
    ((a, b), (b, a)) for a in range(3) for b in (1, 2)
)
# their exhaustive counter values: k = a + 3b + 9c + 27d row-major
EXPECTED_GF3_INDICES = (12, 24, 40, 52, 68, 80)


# ---- exhaustive enumeration ---------------------------------------------------


def test_exhaustive_gf3_finds_exactly_the_frozen_hit_set():
    res = search_shape(gf3_spec())
    assert res.candidates_tried == 81
    assert len(res.instances) == 6
    assert {int_entries(pair.astar) for pair in res.instances} == EXPECTED_GF3_HITS
    assert res.candidate_indices == EXPECTED_GF3_INDICES
    for pair in res.instances:
        assert tuple(pair.shape) == (1, 1)
        assert int_entries(pair.a) == ((0, 0), (0, 1))
    assert res.elapsed >= 0.0


def test_exhaustive_budget_boundary_around_first_hit():
    before = search_shape(gf3_spec(budget=12))
    assert before.candidates_tried == 12
    assert before.instances == ()
    at = search_shape(gf3_spec(budget=13))
    assert at.candidates_tried == 13
    assert len(at.instances) == 1
    assert int_entries(at.instances[0].astar) == ((0, 1), (1, 0))
    assert at.candidate_indices == (12,)


def test_exhaustive_search_matches_validating_every_candidate():
    # GF(3), shape (1, 1, 1): A = diag(0, 1, 2) and Astar ranges over the
    # 7 tridiagonal positions, 3^7 candidates.  Every candidate goes to
    # validate_pair with no cheap check in front, so a search prefilter
    # that drops a real hit fails here.
    f = GF(3)
    a = Matrix(f, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    positions = [(r, c) for r in range(3) for c in range(3) if abs(r - c) <= 1]
    expected = []
    for k in range(3 ** len(positions)):
        rows = [[0] * 3 for _ in range(3)]
        rest = k
        for r, c in positions:
            rest, rows[r][c] = divmod(rest, 3)
        try:
            pair = validate_pair(a, Matrix(f, rows))
        except InvariantViolation:
            raise
        except TdpError:
            continue
        if tuple(pair.shape) == (1, 1, 1):
            expected.append(k)
    res = search_shape(SearchSpec(field=f, dim=3, shape=(1, 1, 1), budget=3**7))
    assert res.candidates_tried == 3**7
    assert expected
    assert res.candidate_indices == tuple(expected)


def test_search_propagates_internal_bugs(monkeypatch):
    # a rejected candidate is skipped, but a failed internal check is a
    # bug and must not be silently dropped with the rejections
    def broken(a, astar, *eigs):
        raise InvariantViolation("planted")

    monkeypatch.setattr(tdpairs.search, "validate_pair", broken)
    with pytest.raises(InvariantViolation, match="planted"):
        search_shape(gf3_spec(budget=13))


# ---- the residue screen against the Matrix checks --------------------------


def _matrix_funnel(a, eig_a, astar, dims):
    """The first search check that astar fails, decided on Matrix objects by
    eigen_decompose and both support_path_orderings, or None."""
    try:
        eig_s = eigen_decompose(astar)
    except NotDiagonalizableOverField:
        return "not_diagonalizable"
    if len(eig_s.dims()) != len(dims):
        return "wrong_diameter"
    if sorted(eig_s.dims()) != dims:
        return "wrong_multiset"
    if not support_path_orderings(eig_a, astar):
        return "no_ordering_a"
    if not support_path_orderings(eig_s, a):
        return "no_ordering_astar"
    return None


def _screen_stages(field, shape, candidates):
    """_residue_screen's verdict on each int candidate, checked against
    _matrix_funnel; returns how many candidates stopped at each stage."""
    a = _fixed_a(field, shape)
    eig_a = eigen_decompose(a)
    blocks, dims = _block_of(shape), sorted(shape)
    stages = Counter()
    for rows in candidates:
        verdict = _residue_screen(rows, field.p, blocks, dims)
        assert verdict == _matrix_funnel(a, eig_a, Matrix(field, rows), dims), rows
        stages[verdict] += 1
    return stages


def _pattern_candidates(p, shape, keys, entries):
    positions = _allowed_positions(shape)
    n = sum(shape)
    for k in keys:
        rows = [[0] * n for _ in range(n)]
        for (r, c), v in zip(positions, entries(k, len(positions), p)):
            rows[r][c] = v
        yield rows


def _conjugated_diagonals(p, n, count, rng):
    """P D P^-1 for random invertible P and diagonal D with eigenvalues from
    a random small subset, as int rows: diagonalizable, mostly outside the
    block-tridiagonal pattern, any eigenvalue multiset."""
    f = GF(p)
    out = []
    while len(out) < count:
        c = Matrix(f, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        try:
            c_inv = invert(c)
        except InvariantViolation:
            continue
        thetas = rng.sample(range(p), rng.randint(1, n))
        d = Matrix.diagonal(f, [rng.choice(thetas) for _ in range(n)])
        out.append([[x.v for x in row] for row in (c @ d @ c_inv).rows])
    return out


def test_residue_screen_matches_matrix_checks_on_every_gf3_111_candidate():
    shape = (1, 1, 1)
    stages = _screen_stages(GF(3), shape, _pattern_candidates(3, shape, range(3**7), _exhaustive_entries))
    assert sum(stages.values()) == 3**7
    # three eigenvalues in dimension 3 leave no wrong multiset
    assert set(stages) == {
        "not_diagonalizable",
        "wrong_diameter",
        "no_ordering_a",
        "no_ordering_astar",
        None,
    }


@pytest.mark.parametrize("p, shape", [(5, (1, 2, 1)), (7, (1, 2, 1)), (5, (2, 2)), (7, (2, 2))])
def test_residue_screen_matches_matrix_checks_on_random_candidates(p, shape):
    # random pattern candidates (mostly not diagonalizable), the
    # diagonalizable ones among more of them (so the later stages are
    # reached), and conjugated diagonal matrices outside the pattern
    rng = random.Random(p * 10 + len(shape))
    stream = lambda seed: lambda k, m, q: _randomized_entries(seed, k, m, q)
    plain = _pattern_candidates(p, shape, range(600), stream(1))
    split = (
        rows
        for rows in _pattern_candidates(p, shape, range(12000), stream(2))
        if splits_mod_p(rows, p)
    )
    conjugated = _conjugated_diagonals(p, sum(shape), 60, rng)
    stages = _screen_stages(GF(p), shape, itertools.chain(plain, split, conjugated))
    assert {"not_diagonalizable", "wrong_diameter"} <= set(stages)
    if shape == (1, 2, 1):
        assert {"no_ordering_a", "no_ordering_astar", None} <= set(stages)
    else:
        assert "wrong_multiset" in stages  # dimensions (1, 3)


def test_randomized_gf101_search_equals_validating_every_candidate():
    # GF(101) shape-(1,2,1) hits are rare enough that this stretch of the
    # stream has none: the search must not invent one, for any workers,
    # and the screen must stop every candidate where the Matrix checks do
    f = GF(101)
    shape = (1, 2, 1)
    spec = SearchSpec(field=f, dim=4, shape=shape, budget=1000, mode="randomized", seed=3)
    a = _fixed_a(f, shape)
    candidates = list(
        _pattern_candidates(101, shape, range(spec.budget), lambda k, m, q: _randomized_entries(3, k, m, q))
    )
    expected = []
    for k, rows in enumerate(candidates):
        try:
            pair = validate_pair(a, Matrix(f, rows))
        except InvariantViolation:
            raise
        except TdpError:
            continue
        if tuple(pair.shape) == shape:
            expected.append(k)
    assert search_shape(spec).candidate_indices == tuple(expected)
    for workers in (1, 2):
        reports, summary = cmd_search(spec, workers=workers)
        assert summary["candidatesTried"] == spec.budget
        assert [r["payload"]["candidateIndex"] for r in reports] == expected
    stages = _screen_stages(f, shape, candidates)
    assert {"not_diagonalizable", "wrong_diameter"} <= set(stages)


def test_exhaustive_budget_clamped_to_total_space():
    res = search_shape(gf3_spec(budget=10**6))
    assert res.candidates_tried == 81
    assert len(res.instances) == 6


def test_exhaustive_start_offset_scans_a_suffix():
    res = search_shape(gf3_spec(start=40, budget=41))
    assert res.candidates_tried == 41
    assert res.candidate_indices == (40, 52, 68, 80)


def test_exhaustive_shards_union_to_the_full_scan():
    full = search_shape(gf3_spec())
    lo = search_shape(gf3_spec(budget=40))
    hi = search_shape(gf3_spec(start=40, budget=41))
    merged = aggregate_results([lo, hi])
    assert merged.candidates_tried == 81
    assert merged.candidate_indices == full.candidate_indices
    assert [int_entries(p.astar) for p in merged.instances] == [
        int_entries(p.astar) for p in full.instances
    ]


def test_exhaustive_gf2_has_no_hits():
    # characteristic-2 degeneracy: no 2x2 instance exists at all
    res = search_shape(SearchSpec(field=GF(2), dim=2, shape=(1, 1), budget=16))
    assert res.candidates_tried == 16
    assert res.instances == ()


# ---- randomized mode -----------------------------------------------------------


def test_randomized_stream_is_deterministic():
    spec = gf3_spec(mode="randomized", budget=300, seed=0)
    r1 = search_shape(spec)
    r2 = search_shape(spec)
    assert r1.candidate_indices == r2.candidate_indices
    assert [int_entries(p.astar) for p in r1.instances] == [
        int_entries(p.astar) for p in r2.instances
    ]
    assert r1.candidates_tried == 300


def test_randomized_hits_lie_in_the_frozen_set_and_dedup():
    res = search_shape(gf3_spec(mode="randomized", budget=1200, seed=0))
    found = [int_entries(p.astar) for p in res.instances]
    assert len(found) == len(set(found))  # duplicates dropped
    assert set(found) <= EXPECTED_GF3_HITS
    # 1200 draws over an 81-point space with 6 targets: all of them show up
    assert set(found) == EXPECTED_GF3_HITS


def test_randomized_seeds_decouple_the_streams():
    k = 5
    assert _randomized_entries(0, k, 4, 3) != _randomized_entries(1, k, 4, 3)
    assert _randomized_entries(7, k, 4, 3) == _randomized_entries(7, k, 4, 3)


def test_randomized_shards_union_to_the_unsharded_run():
    spec = gf3_spec(mode="randomized", budget=300, seed=3)
    full = search_shape(spec)
    shards = partition_seeds(spec, 4)
    merged = aggregate_results([search_shape(s) for s in shards])
    assert merged.candidates_tried == full.candidates_tried
    assert merged.candidate_indices == full.candidate_indices
    assert [int_entries(p.astar) for p in merged.instances] == [
        int_entries(p.astar) for p in full.instances
    ]


# ---- sharding ---------------------------------------------------------------


def test_partition_counts_and_ranges():
    spec = gf3_spec()
    shards = partition_seeds(spec, 2)
    assert [(s.start, s.budget) for s in shards] == [(0, 41), (41, 40)]
    assert partition_seeds(spec, 1) == [spec]
    tiny = gf3_spec(budget=3)
    many = partition_seeds(tiny, 8)
    assert [(s.start, s.budget) for s in many] == [(0, 1), (1, 1), (2, 1)]


def test_partition_respects_exhaustive_space_end():
    spec = gf3_spec(start=80, budget=100)  # only one candidate remains
    shards = partition_seeds(spec, 2)
    assert [(s.start, s.budget) for s in shards] == [(80, 1)]


def test_partition_rejects_zero_workers():
    with pytest.raises(ParseError):
        partition_seeds(gf3_spec(), 0)


def test_aggregate_deduplicates_overlapping_shards():
    full = search_shape(gf3_spec())
    merged = aggregate_results([full, full])
    assert merged.candidates_tried == 162
    assert len(merged.instances) == 6
    assert merged.candidate_indices == full.candidate_indices


# ---- spec validation ----------------------------------------------------------


def test_spec_validation_errors():
    with pytest.raises(ParseError):
        SearchSpec(field=QQ, dim=2, shape=(1, 1), budget=5)
    with pytest.raises(DimensionMismatch):
        SearchSpec(field=GF(3), dim=3, shape=(1, 1), budget=5)
    with pytest.raises(FieldTooSmall):
        SearchSpec(field=GF(2), dim=3, shape=(1, 1, 1), budget=5)
    with pytest.raises(BudgetZero):
        SearchSpec(field=GF(3), dim=2, shape=(1, 1), budget=0)
    with pytest.raises(ParseError):
        SearchSpec(field=GF(3), dim=2, shape=(1, 1), budget=5, mode="magic")
    with pytest.raises(ParseError):
        SearchSpec(field=GF(3), dim=2, shape=(1, 1), budget=5, start=-1)
    with pytest.raises(ParseError):
        SearchSpec(field=GF(5), dim=3, shape=(1, 2), budget=5)  # asymmetric
