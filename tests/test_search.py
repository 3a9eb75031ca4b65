"""Prescribed-shape search: enumeration, sharding, determinism."""

from __future__ import annotations

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
import tdpairs.eigen
import tdpairs.pairs
import tdpairs.search
from tdpairs.cli import cmd_search
from tdpairs.search import (
    FUNNEL,
    _allowed_positions,
    _candidates,
    _exhaustive_entries,
    _fixed_a,
    _randomized_entries,
)
from tdpairs.eigen import row_lanes, splits_mod_p
from tdpairs.serio import matrix_to_json


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


def test_a_split_candidate_that_does_not_decompose_is_a_bug(monkeypatch):
    # M^p == M holds exactly when Astar is diagonalizable over GF(p), so a
    # candidate that passes it and then fails eigen_decompose is a
    # contradiction.  Exhaustive mode tests a block of candidates at once:
    # every lane passes, and candidate 3 is [[0, 1], [0, 0]], linked but
    # nilpotent
    monkeypatch.setattr(tdpairs.search, "split_lanes", lambda rows, varying, p: range(p ** len(varying)))
    with pytest.raises(InvariantViolation, match="does not split"):
        search_shape(gf3_spec(budget=4))
    # randomized mode tests each candidate: candidate 0 of seed 0 is
    # [[2, 1], [2, 2]], whose characteristic polynomial has no root mod 3
    monkeypatch.setattr(tdpairs.search, "splits_mod_p", lambda rows, p: True)
    assert _randomized_entries(0, 0, 4, 3) == [2, 1, 2, 2]
    with pytest.raises(InvariantViolation, match="does not split"):
        search_shape(gf3_spec(budget=1, mode="randomized"))


# ---- the candidate blocks against decoding each index ------------------------


def _decoded(p, shape, k, entries=_exhaustive_entries):
    return next(_pattern_candidates(p, shape, [k], entries))


# p = 2 hosts only diameter-1 shapes; GF(7) at n = 8 packs 2-byte lanes,
# GF(127) at n = 11 4-byte lanes, and GF(31) at n = 3 squares and
# multiplies, one candidate at a time
ODOMETER_CASES = (
    [(2, (2, 2))]
    + [(p, shape) for p in (3, 5) for shape in ((1, 1, 1), (1, 2, 1), (2, 2))]
    + [(7, (2, 2, 2, 2)), (127, (3, 5, 3)), (31, (1, 1, 1))]
)


def _windows(p, m, lanes):
    """(start, budget) windows over a space of p^m candidates: from 0 to mid
    block; mid block to mid block across the block boundaries at p^j;
    across several full blocks of _MAX_LANES (or p) lanes, if candidates
    share lanes; and one that ends exactly at p^m, the end of the space."""
    many = min(max(tdpairs.search._MAX_LANES, p) * 2 + 3, p**m // 2) if lanes else 3 * p
    return (
        [(0, p + 2)]
        + [(p**j - p // 2 - 1, p + 2) for j in (1, 2, 3, m - 1)]
        + [(p**3 + 5, many), (p**m - 2 * p, 2 * p), (p**m - many, many)]
    )


@pytest.mark.parametrize(
    "p, shape", ODOMETER_CASES, ids=[f"gf{p}-{''.join(map(str, s))}" for p, s in ODOMETER_CASES]
)
def test_odometer_rows_equal_decoding_each_index(p, shape):
    # the candidate generator (named here for the odometer that once stepped
    # it) yields exactly the k of its window whose decoded rows pass
    # splits_mod_p, each with the decoded rows, whether it tests blocks of
    # candidates in lanes or one candidate at a time
    positions = _allowed_positions(shape)
    m = len(positions)
    windows = _windows(p, m, row_lanes(sum(shape), p))
    if p == 127:  # fewer, shorter windows: near 0, where most rows come back, a block takes 0.1 s
        windows = [(0, 5), (p**40 - 3, 6), (p**40 + 120, p + 20), (p**m - 9, 9)]
    passed = failed = 0
    for start, budget in windows:
        spec = SearchSpec(field=GF(p), dim=sum(shape), shape=shape, budget=budget, start=start)
        expected = [k for k in range(start, start + budget) if splits_mod_p(_decoded(p, shape, k), p)]
        seen = []
        for k, rows in _candidates(spec, positions, budget):
            assert rows == _decoded(p, shape, k), (start, k)
            seen.append(k)
        assert seen == expected, (start, budget)
        passed, failed = passed + len(expected), failed + budget - len(expected)
    assert passed and failed
    spec = SearchSpec(
        field=GF(p), dim=sum(shape), shape=shape, budget=40, start=7, mode="randomized", seed=5
    )
    entries = lambda k, count, q: _randomized_entries(5, k, count, q)  # noqa: E731
    decoded = {k: _decoded(p, shape, k, entries) for k in range(7, 47)}
    seen = []
    for k, rows in _candidates(spec, positions, spec.budget):
        assert rows == decoded[k], k
        seen.append(k)
    assert seen == [k for k, rows in decoded.items() if splits_mod_p(rows, p)]


def test_search_decomposes_the_fixed_a_once_and_each_survivor_once(monkeypatch):
    # search throughput rests on this: validate_pair gets both sides'
    # decompositions back from eigen_decompose while search_shape holds
    # them, each block graph is computed once, and the fixed A's
    # decomposition keeps one block graph however many candidates it meets
    decomposed, graphs = [], []
    spaces, graph = tdpairs.eigen.eigenspaces, tdpairs.pairs._block_graph
    counted = lambda m: decomposed.append(m) or spaces(m)  # noqa: E731
    for module in (tdpairs.eigen, tdpairs.pairs):
        monkeypatch.setattr(module, "eigenspaces", counted)
    monkeypatch.setattr(tdpairs.pairs, "_block_graph", lambda eig, b: graphs.append((eig, b)) or graph(eig, b))
    result = search_shape(SearchSpec(GF(3), 4, (1, 2, 1), budget=8000, start=184000))
    survivors = sum(result.funnel[stage] for stage in ("wrong_dims", "invalid", "duplicate", "hit"))
    assert result.candidate_indices == (184953, 184983, 191271, 191301) and survivors > 100
    a = decomposed[0]
    assert len(decomposed) == 1 + survivors
    assert len({id(m) for m in decomposed}) == len(decomposed)  # each held, so ids are distinct
    assert len({(id(eig), id(b)) for eig, b in graphs}) == len(graphs)
    (eig_a,) = {id(eig): eig for eig, _ in graphs if eig.operator is a}.values()  # one decomposition of A
    assert set(vars(eig_a)) == {"operator", "eigenvalues", "eigenspaces", "roots", "_change", "_edges"}


def test_hits_do_not_alias_the_reused_candidate_buffer():
    # the window runs 16 candidates past its last hit, so a hit that kept a
    # reference to the candidate buffer would hold a later candidate
    shape = (1, 2, 1)
    spec = SearchSpec(field=GF(3), dim=4, shape=shape, budget=200, start=184900)
    res = search_shape(spec)
    assert res.candidate_indices == (184953, 184983)
    for k, pair in zip(res.candidate_indices, res.instances):
        # both the int form (==) and the field elements (.rows) of the hit
        assert pair.astar == Matrix(GF(3), _decoded(3, shape, k))
        assert [list(row) for row in int_entries(pair.astar)] == _decoded(3, shape, k)
    reports = cmd_search(spec, workers=1)[0]
    assert reports == cmd_search(spec, workers=3)[0]
    for rep in reports:
        k = rep["payload"]["candidateIndex"]
        assert rep["payload"]["Astar"] == matrix_to_json(Matrix(GF(3), _decoded(3, shape, k)))


# ---- the search funnel against validating every candidate ---------------------


def _matrix_funnel(a, eig_a, astar, shape):
    """The search stage at which astar stops, decided on Matrix objects by
    eigen_decompose, support_path_orderings and validate_pair: "not_split",
    "a_pattern" (no ordering of A's eigenspaces), "wrong_dims <dims>",
    "invalid" (validate_pair rejects it, or finds another shape) or "hit"."""
    try:
        eig_s = eigen_decompose(astar)
    except NotDiagonalizableOverField:
        return "not_split"
    if not support_path_orderings(eig_a, astar):
        return "a_pattern"
    if sorted(eig_s.dims()) != sorted(shape):
        return f"wrong_dims {tuple(sorted(eig_s.dims()))}"
    try:
        pair = validate_pair(a, astar)
    except TdpError:
        return "invalid"
    return "hit" if tuple(pair.shape) == shape else "invalid"


def _pattern_candidates(p, shape, keys, entries):
    positions = _allowed_positions(shape)
    n = sum(shape)
    for k in keys:
        rows = [[0] * n for _ in range(n)]
        for (r, c), v in zip(positions, entries(k, len(positions), p)):
            rows[r][c] = v
        yield rows


def _row0_window(p, shape, rows):
    """(start, budget) of the exhaustive counters that run the first three
    entries of row 0 over GF(p) below the rest of rows: the candidate index
    holds row 0 in its lowest base-p digits."""
    k = sum(rows[r][c] * p**i for i, (r, c) in enumerate(_allowed_positions(shape)))
    return k - k % p**3, p**3


# (p, shape, windows, whether a window holds a hit).  Windows run row 0
# below a rest of the matrix that reaches every rejection stage (Astar
# block-triangular, so reducible whenever it passes the eigen checks), and
# below the rest of a hit that a randomized search found.
_TRIANGULAR_121 = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 3, 0]]
FUNNEL_CASES = [
    (3, (1, 1, 1), [(0, 3**7)], True),
    (
        5,
        (1, 2, 1),
        [
            _row0_window(5, (1, 2, 1), _TRIANGULAR_121),
            _row0_window(5, (1, 2, 1), [[0] * 4, [1, 2, 4, 0], [0, 4, 3, 3], [0, 1, 0, 0]]),
        ],
        True,
    ),
    (
        7,
        (1, 2, 1),
        [
            _row0_window(7, (1, 2, 1), _TRIANGULAR_121),
            _row0_window(7, (1, 2, 1), [[0] * 4, [6, 5, 3, 1], [4, 4, 3, 3], [0, 3, 3, 3]]),
        ],
        True,
    ),
    # diag(*, b, c, c) below row 0: b = c gives dimensions (1, 3), b != c
    # a block-triangular Astar of dimensions (2, 2)
    (
        5,
        (2, 2),
        [
            _row0_window(5, (2, 2), [[0] * 4, [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            _row0_window(5, (2, 2), [[0] * 4, [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            _row0_window(5, (2, 2), [[0] * 4, [3, 0, 4, 4], [4, 4, 4, 2], [0, 2, 1, 1]]),
        ],
        True,
    ),
    (
        7,
        (2, 2),
        [
            _row0_window(7, (2, 2), [[0] * 4, [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            _row0_window(7, (2, 2), [[0] * 4, [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        ],
        False,
    ),
]


@pytest.mark.parametrize(
    "p, shape, windows, has_hit",
    FUNNEL_CASES,
    ids=[f"gf{p}-{''.join(map(str, shape))}" for p, shape, _, _ in FUNNEL_CASES],
)
def test_search_equals_validating_every_candidate(p, shape, windows, has_hit):
    # every candidate of each window goes to validate_pair with no cheap
    # check in front, so a search stage that drops a real hit fails here;
    # the Matrix funnel shows that each stage of the search rejects some,
    # and the search's own funnel counts the same stages
    f = GF(p)
    a = _fixed_a(f, shape)
    eig_a = eigen_decompose(a)
    stages = Counter()
    hits = 0
    for start, budget in windows:
        keys = range(start, start + budget)
        expected = []
        window = Counter()
        for k, rows in zip(keys, _pattern_candidates(p, shape, keys, _exhaustive_entries)):
            astar = Matrix(f, rows)
            stage = _matrix_funnel(a, eig_a, astar, shape)
            stages[stage] += 1
            window[stage.split()[0]] += 1
            try:
                pair = validate_pair(a, astar)
            except TdpError:
                continue
            if tuple(pair.shape) == shape:
                expected.append(k)
        res = search_shape(SearchSpec(field=f, dim=sum(shape), shape=shape, budget=budget, start=start))
        assert res.candidates_tried == budget
        assert res.candidate_indices == tuple(expected)
        assert res.funnel == {stage: window[stage] for stage in FUNNEL}
        assert sum(res.funnel.values()) == budget
        hits += len(expected)
    assert stages["hit"] == hits
    assert {"not_split", "a_pattern", "invalid"} <= set(stages)
    assert any(stage.startswith("wrong_dims") for stage in stages)
    if shape == (2, 2):
        assert "wrong_dims (1, 3)" in stages
    assert bool(hits) == has_hit


def test_randomized_gf101_search_equals_validating_every_candidate():
    # GF(101) shape-(1,2,1) hits are rare enough that this stretch of the
    # stream has none: the search must not invent one, for any workers,
    # although candidates get past both int checks
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
        except TdpError:
            continue
        if tuple(pair.shape) == shape:
            expected.append(k)
    assert search_shape(spec).candidate_indices == tuple(expected)
    eig_a = eigen_decompose(a)
    stages = Counter(_matrix_funnel(a, eig_a, Matrix(f, rows), shape) for rows in candidates)
    assert set(stages) == {"not_split", "wrong_dims (1, 1, 1, 1)"}
    funnel = {stage: stages[stage] for stage in FUNNEL}
    funnel["wrong_dims"] = stages["wrong_dims (1, 1, 1, 1)"]
    for workers in (1, 2):
        reports, summary = cmd_search(spec, workers=workers)
        assert summary["candidatesTried"] == spec.budget
        assert summary["funnel"] == funnel
        assert [r["payload"]["candidateIndex"] for r in reports] == expected


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
    # a hit found again in a later shard counts as a duplicate, as unsharded
    assert full.funnel["duplicate"] > 0
    assert merged.funnel == full.funnel
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
    assert merged.funnel["hit"] == merged.funnel["duplicate"] == 6
    assert sum(merged.funnel.values()) == 162
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
