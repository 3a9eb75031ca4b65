"""Prescribed-shape search: enumeration, sharding, determinism."""

from __future__ import annotations

import pytest

from tdpairs import (
    GF,
    QQ,
    BudgetZero,
    DimensionMismatch,
    FieldTooSmall,
    InvariantViolation,
    Matrix,
    ParseError,
    SearchSpec,
    TdpError,
    aggregate_results,
    partition_seeds,
    search_shape,
    validate_pair,
)
import tdpairs.search
from tdpairs.search import _randomized_entries


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
    with pytest.raises(InvariantViolation):
        SearchSpec(field=GF(5), dim=3, shape=(1, 2), budget=5)  # asymmetric
