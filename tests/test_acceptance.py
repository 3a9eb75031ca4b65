"""Acceptance gate: one test per gate criterion.

Every check is exact (rational or prime-field arithmetic), so all
equality assertions carry zero tolerance. The only pinned budgets are
wall-clock limits stated in the individual tests.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from tdpairs import (
    GF,
    QQ,
    HypothesisNotMet,
    LeonardCertificate,
    LeonardParameterSet,
    Matrix,
    NotLeonard,
    Subspace,
    affine_relation,
    complete_report,
    detect_leonard,
    image_of,
    irreducible,
    random_leonard,
    reduce_to_affine,
    split_subspaces,
    subspace_intersect,
    subspace_leq,
    switching_from_sequences,
    switching_via_solve,
    tau_basis,
    tau_images,
    validate_pair,
)
from tdpairs.cli import main
from tdpairs.linalg import Echelon, vec_is_zero
from tdpairs.serio import matrix_from_json

from oracles import (
    TENSOR_PARAMS,
    brute_common_invariant,
    matrix_to_int_rows,
    oracle_split_sequences,
    subspace_vector_set,
    tensor_fixture,
)
from test_cli import d2_candidate, d2_params, run, write_params

FIELDS = (QQ, GF(5), GF(7), GF(13))
POOL_SIZE = 200

_POOL = None
_POOL_SECONDS = None


def instance_pool():
    """200 validated random Leonard pairs over Q, GF(5), GF(7), GF(13)
    with diameters cycling 0..6 (0..4 over GF(5), which cannot hold more
    than five distinct eigenvalues). Generation and validation are timed
    together; the wall-clock budget is asserted by the axiom-suite test.
    """
    global _POOL, _POOL_SECONDS
    if _POOL is None:
        start = time.perf_counter()
        built = []
        for i in range(POOL_SIZE):
            field = FIELDS[i % 4]
            d = i % 7
            if getattr(field, "p", 0) == 5:
                d %= 5
            _, generated = random_leonard(field, d, seed=i)
            pair = validate_pair(generated.a, generated.astar)
            assert pair.shape.is_all_ones()
            assert pair.diameter == d
            built.append(pair)
        _POOL_SECONDS = time.perf_counter() - start
        _POOL = tuple(built)
    return _POOL


def rand_scalar(rng, field, nonzero=False):
    p = getattr(field, "p", None)
    lo, hi = (0, p - 1) if p is not None else (-9, 9)
    while True:
        x = rng.randint(lo, hi)
        if not nonzero or x != 0:
            return field.scalar(x)


def rand_nonzero_vector(rng, field, length):
    v = [rand_scalar(rng, field) for _ in range(length)]
    if all(x == field.zero for x in v):
        v[rng.randrange(length)] = field.one
    return tuple(v)


def eigenspace_sets(pair):
    d = pair.diameter
    return (
        frozenset(pair.v(i) for i in range(d + 1)),
        frozenset(pair.vstar(i) for i in range(d + 1)),
    )


def test_axiom_suite_200_random_leonard_pairs_validate_under_60s():
    pool = instance_pool()
    assert len(pool) == POOL_SIZE
    assert {getattr(p.field, "p", 0) for p in pool} == {0, 5, 7, 13}
    assert {p.diameter for p in pool} == set(range(7))
    assert _POOL_SECONDS < 60.0, f"pool took {_POOL_SECONDS:.1f}s"


def test_split_decomposition_identities_hold_exactly_on_every_instance():
    for pair in instance_pool():
        sd = split_subspaces(pair)
        report = complete_report(sd)
        assert report.eq4 is True
        for flags in (report.eq5, report.eq6, report.eq7, report.eq8, report.eq10):
            assert flags is not None
            assert all(flags)
        assert report.all_true()
        assert sd.dims == tuple([1] * (pair.diameter + 1))
        assert sd.U[0] == pair.vstar(0)
        assert sd.U[pair.diameter] == pair.v(pair.diameter)


def test_tau_image_combinations_never_vanish_and_images_are_independent():
    rng = random.Random(31)
    for pair in instance_pool():
        field = pair.field
        d = pair.diameter
        sd = split_subspaces(pair)
        base = pair.vstar(0).basis[0]
        images = None
        for _ in range(20):
            c = rand_scalar(rng, field, nonzero=True)
            u = tuple(x * c for x in base)
            images = tau_images(pair, u, sd)
            alpha = rand_nonzero_vector(rng, field, d + 1)
            total = tuple(field.zero for _ in range(pair.dim))
            for a_i, w in zip(alpha, images):
                total = tuple(t + a_i * x for t, x in zip(total, w))
            assert not vec_is_zero(total)
        assert Echelon.of_rows(Matrix(field, [list(w) for w in images])).dim == d + 1


def test_leonard_detection_yields_unique_certificate_mapping_vstar0_into_vstard():
    for pair in instance_pool():
        cert = detect_leonard(pair)
        assert isinstance(cert, LeonardCertificate)
        assert cert.solution_dim == 1
        moved = image_of(cert.x, pair.vstar(0))
        assert subspace_leq(moved, pair.vstar(pair.diameter))
        assert moved.dim == 1  # the containment is not vacuous


def test_searched_gf3_shape_1_2_1_instances_are_all_non_leonard():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "tdpairs.cli",
            "search",
            "--field",
            "gf3",
            "--dim",
            "4",
            "--shape",
            "1,2,1",
            "--budget",
            "250000",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    found = []
    for line in proc.stdout.splitlines():
        report = json.loads(line)
        a = matrix_from_json(report["payload"]["A"])
        astar = matrix_from_json(report["payload"]["Astar"])
        pair = validate_pair(a, astar)
        assert tuple(pair.shape) == (1, 2, 1)
        verdict = detect_leonard(pair)
        assert isinstance(verdict, NotLeonard)
        assert verdict.solution_dim == 0
        found.append(report["payload"]["candidateIndex"])
    # a separate full enumeration of this space puts the first instance
    # at candidate 184953 and fourteen of them below 250000
    assert found == sorted(found)
    assert len(found) == 14
    assert found[0] == 184953
    # hand-built wide fixtures keep the negative direction covered even
    # for runs of this command with budgets that find nothing
    for key, field in (("Q", QQ), ("gf5", GF(5)), ("gf7", GF(7))):
        theta, mu, varphis = TENSOR_PARAMS[key]
        a, astar = tensor_fixture(field, theta, mu, varphis)
        pair = validate_pair(a, astar)
        assert tuple(pair.shape) == (1, 2, 1)
        assert isinstance(detect_leonard(pair), NotLeonard)


def test_affine_transforms_validate_share_eigenspaces_and_recover_scalars():
    rng = random.Random(62)
    usable = [p for p in instance_pool() if p.diameter >= 1]
    for k in range(100):
        pair = usable[k % len(usable)]
        field = pair.field
        eye = Matrix.identity(field, pair.dim)
        r = rand_scalar(rng, field, nonzero=True)
        s = rand_scalar(rng, field)
        rstar = rand_scalar(rng, field, nonzero=True)
        sstar = rand_scalar(rng, field)
        moved = validate_pair(
            pair.a.scale(r) + eye.scale(s),
            pair.astar.scale(rstar) + eye.scale(sstar),
        )
        assert moved.shape.rho == pair.shape.rho
        assert eigenspace_sets(moved) == eigenspace_sets(pair)
        half, star_half = affine_relation(pair, moved)
        assert (half.r, half.s) == (r, s)
        assert (star_half.rstar, star_half.sstar) == (rstar, sstar)


def test_affine_reduction_round_trips_and_rejects_higher_tau_degrees():
    rng = random.Random(73)
    usable = [p for p in instance_pool() if p.diameter >= 1]
    for k in range(100):
        pair = usable[k % len(usable)]
        field = pair.field
        r = rand_scalar(rng, field)  # r = 0 stays within degree <= 1
        s = rand_scalar(rng, field)
        x = pair.a.scale(r) + Matrix.identity(field, pair.dim).scale(s)
        recovered = reduce_to_affine(pair, x)
        assert (recovered.r, recovered.s) == (r, s)
    rejected = 0
    for pair in instance_pool():
        if pair.diameter < 2:
            continue
        taus = tau_basis(pair).tau_matrices
        for i in range(2, pair.diameter + 1):
            with pytest.raises(HypothesisNotMet):
                reduce_to_affine(pair, taus[i])
            rejected += 1
    assert rejected > 0


def test_switching_element_from_sequences_matches_solve_up_to_scalar():
    chosen = instance_pool()[:20]
    assert len(chosen) == 20
    for pair in chosen:
        d = pair.diameter
        varphi, phi = oracle_split_sequences(pair)
        params = LeonardParameterSet(
            field=pair.field,
            theta=tuple(pair.theta(i) for i in range(d + 1)),
            thetastar=tuple(pair.thetastar(i) for i in range(d + 1)),
            varphi=varphi,
            phi=phi,
        )
        from_seq = switching_from_sequences(params, pair.eig_a)
        from_solve = switching_via_solve(pair)
        ratio = next(
            from_seq[i, j] / from_solve[i, j]
            for i in range(pair.dim)
            for j in range(pair.dim)
            if from_solve[i, j] != pair.field.zero
        )
        assert ratio != pair.field.zero
        assert from_seq == from_solve.scale(ratio)


def _random_gf_matrix(rng, field, n):
    p = field.p
    return Matrix(
        field, [[field.scalar(rng.randrange(p)) for _ in range(n)] for _ in range(n)]
    )


def _random_gf_subspace(rng, field, n):
    count = rng.randint(0, 2)
    vectors = [
        tuple(field.scalar(rng.randrange(field.p)) for _ in range(n))
        for _ in range(count)
    ]
    return Subspace.span(field, n, vectors)


def test_engine_matches_enumeration_oracles_on_1000_pairs_each():
    rng = random.Random(91)
    for _ in range(1000):
        p = rng.choice((2, 3))
        n = rng.randint(1, 3)
        field = GF(p)
        a = _random_gf_matrix(rng, field, n)
        astar = _random_gf_matrix(rng, field, n)
        report = irreducible(a, astar)
        brute = brute_common_invariant(
            p, matrix_to_int_rows(a), matrix_to_int_rows(astar)
        )
        if report.is_irreducible():
            assert brute is None
        elif report.is_reducible():
            assert brute is not None
        else:
            pytest.fail(f"no verdict at enumerable size n={n} p={p}")
    for _ in range(1000):
        p = rng.choice((2, 3))
        n = rng.randint(1, 3)
        field = GF(p)
        x = _random_gf_subspace(rng, field, n)
        y = _random_gf_subspace(rng, field, n)
        meet = subspace_intersect(x, y)
        assert subspace_vector_set(meet) == (
            subspace_vector_set(x) & subspace_vector_set(y)
        )


def _instance_multiset(out):
    pairs = []
    for line in out.splitlines():
        payload = json.loads(line)["payload"]
        pairs.append(
            (
                tuple(map(tuple, payload["A"]["entries"])),
                tuple(map(tuple, payload["Astar"]["entries"])),
            )
        )
    return Counter(pairs)


def test_parallel_search_and_repeated_cli_runs_are_deterministic(tmp_path, capsys):
    argv = ["search", "--field", "gf3", "--dim", "2", "--shape", "1,1", "--budget", "81"]
    rc1, out1, _ = run(capsys, argv + ["--workers", "1"])
    rc8, out8, _ = run(capsys, argv + ["--workers", "8"])
    assert rc1 == rc8 == 0
    assert _instance_multiset(out1) == _instance_multiset(out8)
    assert len(_instance_multiset(out1)) == 6
    assert out1 == out8

    cand = d2_candidate(tmp_path)
    pfile = write_params(tmp_path, "params.json", d2_params())
    commands = (
        ["verify", cand],
        ["decompose", cand],
        ["detect", cand],
        ["switch", cand, "--sequences", pfile],
        ["generate", "--random", "gf7", "2", "3"],
        argv,
    )
    for cmd in commands:
        rc_a, out_a, _ = run(capsys, cmd)
        rc_b, out_b, _ = run(capsys, cmd)
        assert rc_a == rc_b == 0
        assert out_a == out_b
