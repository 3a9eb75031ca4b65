"""Command-line front end.

Every command writes machine-readable JSON to stdout.  A single report
document looks like

    {"command": ..., "inputDigest": ..., "payload": ..., "exitCode": ...}

where inputDigest is the sha256 of the raw input bytes (or of the
canonical request encoding for commands that take no file).  `search`
streams one report per validated instance, one JSON document per line,
and prints a human summary to stderr.

Exit codes: 0 success, 1 invalid instance or failed hypothesis,
2 inconclusive irreducibility verdict, 3 usage or parse error.

Reports are canonical JSON (sorted keys, no whitespace), so identical
inputs produce byte-identical output.  The environment variable
TDP_MAX_DIM (default 24) caps the ambient dimension of all inputs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .eigen import eigen_decompose
from .errors import (
    HypothesisNotMet,
    InconclusiveIrreducibility,
    InvariantViolation,
    ParseError,
    TdpError,
)
from .fields import field_from_spec, field_to_spec
from .leonard import (
    LeonardCertificate,
    affine_relation,
    detect_leonard,
    generate_split_form,
    random_leonard,
    switching_from_sequences,
    switching_via_solve,
)
from .pairs import ShapeVector, validate_pair
from .search import (
    SearchResult,
    SearchSpec,
    _fixed_a,
    aggregate_results,
    partition_seeds,
    search_shape,
)
from .serio import (
    candidate_from_json,
    candidate_to_json,
    canonical_dumps,
    input_digest,
    loads_strict,
    matrix_from_json,
    matrix_to_json,
    params_from_json,
    params_to_json,
    scalar_to_str,
    subspace_to_json,
    vector_to_json,
)
from .split import complete_report, split_subspaces

DEFAULT_MAX_DIM = 24


def _max_dim() -> int:
    raw = os.environ.get("TDP_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"TDP_MAX_DIM must be an integer, got {raw!r}") from None
    if value < 1:
        raise ParseError("TDP_MAX_DIM must be positive")
    return value


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path!r}: {e}") from None


def _exit_code(e: TdpError) -> int:
    if isinstance(e, ParseError):
        return 3
    if isinstance(e, InconclusiveIrreducibility):
        return 2
    return 1


def _failure_json(e: TdpError) -> dict:
    out = {"kind": type(e).__name__, "message": str(e)}
    witness = getattr(e, "witness", None)
    if witness is not None:
        out["witness"] = subspace_to_json(witness)
    u = getattr(e, "u", None)
    if u is not None:
        out["u"] = vector_to_json(u)
    for attr in ("side", "index", "diagnostic"):
        value = getattr(e, attr, None)
        if value is not None:
            out[attr] = value
    cause = getattr(e, "cause", None)
    if isinstance(cause, TdpError):
        out["cause"] = _failure_json(cause)
    return out


def _report(command: str, digest: str, payload, exit_code: int) -> dict:
    return {
        "command": command,
        "inputDigest": digest,
        "payload": payload,
        "exitCode": exit_code,
    }


def _load_pair(data: bytes):
    a, astar = candidate_from_json(loads_strict(data), _max_dim())
    return validate_pair(a, astar)


def cmd_verify(path: str) -> dict:
    digest = ""
    try:
        data = _read_bytes(path)
        digest = input_digest(data)
        pair = _load_pair(data)
    except TdpError as e:
        payload = {
            "valid": False,
            "diameter": None,
            "shape": None,
            "orderingA": None,
            "orderingAstar": None,
            "failure": _failure_json(e),
        }
        return _report("verify", digest, payload, _exit_code(e))
    payload = {
        "valid": True,
        "diameter": pair.diameter,
        "shape": list(pair.shape),
        "orderingA": [scalar_to_str(pair.theta(i)) for i in range(pair.diameter + 1)],
        "orderingAstar": [
            scalar_to_str(pair.thetastar(i)) for i in range(pair.diameter + 1)
        ],
        "failure": None,
    }
    return _report("verify", digest, payload, 0)


def cmd_decompose(path: str) -> dict:
    digest = ""
    try:
        data = _read_bytes(path)
        digest = input_digest(data)
        pair = _load_pair(data)
        sd = split_subspaces(pair)
        report = complete_report(sd)
    except TdpError as e:
        return _report("decompose", digest, {"failure": _failure_json(e)}, _exit_code(e))
    payload = {
        "dims": list(sd.dims),
        "U": [subspace_to_json(u) for u in sd.U],
        "eq4": report.eq4,
        "eq5": list(report.eq5),
        "eq6": list(report.eq6),
        "eq7": list(report.eq7),
        "eq8": list(report.eq8),
        "eq10": list(report.eq10),
    }
    return _report("decompose", digest, payload, 0 if report.all_true() else 1)


def cmd_detect(path: str) -> dict:
    digest = ""
    try:
        data = _read_bytes(path)
        digest = input_digest(data)
        pair = _load_pair(data)
        outcome = detect_leonard(pair)
    except TdpError as e:
        return _report("detect", digest, {"failure": _failure_json(e)}, _exit_code(e))
    if isinstance(outcome, LeonardCertificate):
        payload = {
            "leonard": True,
            "alpha": [scalar_to_str(x) for x in outcome.alpha],
            "solutionDim": outcome.solution_dim,
            "shape": list(pair.shape),
        }
    else:
        payload = {
            "leonard": False,
            "alpha": None,
            "solutionDim": outcome.solution_dim,
            "shape": list(pair.shape),
        }
    return _report("detect", digest, payload, 0)


def _align_pair_to_params(pair, params):
    """Reorient the pair's stored eigenvalue orderings to match a
    user-supplied parameter set, or reject the parameters."""
    aligned = pair
    if aligned.diameter != params.d:
        raise HypothesisNotMet(
            f"parameter set has diameter {params.d}, pair has {aligned.diameter}"
        )
    if aligned.theta(0) != params.theta[0]:
        aligned = aligned.with_reversed_a()
    if aligned.thetastar(0) != params.thetastar[0]:
        aligned = aligned.with_reversed_astar()
    d = aligned.diameter
    theta = tuple(aligned.theta(i) for i in range(d + 1))
    thetastar = tuple(aligned.thetastar(i) for i in range(d + 1))
    if theta != tuple(params.theta) or thetastar != tuple(params.thetastar):
        raise HypothesisNotMet(
            "parameter eigenvalue sequences do not match the candidate, "
            "in either orientation"
        )
    return aligned


def _proportionality_ratio(m_left, m_right):
    """The scalar c with m_left == c * m_right, or None."""
    ratio = None
    for row_l, row_r in zip(m_left.rows, m_right.rows):
        for x, y in zip(row_l, row_r):
            if y != m_right.field.zero:
                ratio = x / y
                break
        if ratio is not None:
            break
    if ratio is None:
        return None
    if m_left == m_right.scale(ratio):
        return ratio
    return None


def cmd_switch(path: str, sequences_path: str | None = None) -> dict:
    digest = ""
    try:
        data = _read_bytes(path)
        raw = data
        seq_params = None
        if sequences_path is not None:
            seq_data = _read_bytes(sequences_path)
            raw = data + seq_data
            seq_params = params_from_json(loads_strict(seq_data))
        digest = input_digest(raw)
        pair = _load_pair(data)
        if seq_params is not None:
            pair = _align_pair_to_params(pair, seq_params)
        s_solve = switching_via_solve(pair)
        payload = {"S": matrix_to_json(s_solve), "normalization": "alpha_d=1"}
        code = 0
        if seq_params is not None:
            s_seq = switching_from_sequences(seq_params, pair.eig_a)
            ratio = _proportionality_ratio(s_seq, s_solve)
            if ratio is None:
                payload["crossCheck"] = {
                    "proportional": False,
                    "ratio": None,
                    "fromSequences": matrix_to_json(s_seq),
                }
                code = 1
            else:
                payload["crossCheck"] = {
                    "proportional": True,
                    "ratio": scalar_to_str(ratio),
                }
    except TdpError as e:
        return _report("switch", digest, {"failure": _failure_json(e)}, _exit_code(e))
    return _report("switch", digest, payload, code)


def cmd_affine(path_p: str, path_q: str) -> dict:
    digest = ""
    try:
        data_p = _read_bytes(path_p)
        data_q = _read_bytes(path_q)
        digest = input_digest(data_p + data_q)
        pair_p = _load_pair(data_p)
        pair_q = _load_pair(data_q)
        rel, rel_star = affine_relation(pair_p, pair_q)
    except TdpError as e:
        return _report("affine", digest, {"failure": _failure_json(e)}, _exit_code(e))
    payload = {
        "r": scalar_to_str(rel.r),
        "s": scalar_to_str(rel.s),
        "rstar": scalar_to_str(rel_star.rstar),
        "sstar": scalar_to_str(rel_star.sstar),
    }
    return _report("affine", digest, payload, 0)


def cmd_generate(params_path: str | None, random_args: list | None) -> dict:
    digest = ""
    try:
        if params_path is not None:
            data = _read_bytes(params_path)
            digest = input_digest(data)
            params = params_from_json(loads_strict(data))
            if params.d + 1 > _max_dim():
                raise ParseError(
                    f"diameter {params.d} implies dimension {params.d + 1}, "
                    f"above the cap of {_max_dim()}"
                )
            a, astar = generate_split_form(params)
        else:
            field_name, d_str, seed_str = random_args
            field = field_from_spec(field_name)
            try:
                d = int(d_str)
                seed = int(seed_str)
            except ValueError:
                raise ParseError(
                    "--random needs an integer diameter and seed"
                ) from None
            if d < 0:
                raise ParseError("--random diameter must be nonnegative")
            if d + 1 > _max_dim():
                raise ParseError(
                    f"diameter {d} implies dimension {d + 1}, "
                    f"above the cap of {_max_dim()}"
                )
            request = canonical_dumps(
                {"random": {"field": field_to_spec(field), "d": d, "seed": seed}}
            )
            digest = input_digest(request.encode("utf-8"))
            params, pair = random_leonard(field, d, seed)
            a, astar = pair.a, pair.astar
        payload = {
            "candidate": candidate_to_json(a, astar),
            "params": params_to_json(params),
        }
    except TdpError as e:
        return _report("generate", digest, {"failure": _failure_json(e)}, _exit_code(e))
    return _report("generate", digest, payload, 0)


# ---- search: the CLI owns the worker pool ----------------------------------


def _shard_payload(spec: SearchSpec) -> dict:
    return {
        "field": field_to_spec(spec.field),
        "dim": spec.dim,
        "shape": list(spec.shape),
        "budget": spec.budget,
        "seed": spec.seed,
        "mode": spec.mode,
        "start": spec.start,
    }


def _run_shard(payload: dict) -> dict:
    """Top-level so process pools can pickle it.  Hits travel back as
    serialized matrices and are re-validated by the parent, so every
    reported instance has survived a decode in a fresh process."""
    spec = SearchSpec(
        field=field_from_spec(payload["field"]),
        dim=payload["dim"],
        shape=ShapeVector(tuple(payload["shape"])),
        budget=payload["budget"],
        seed=payload["seed"],
        mode=payload["mode"],
        start=payload["start"],
    )
    res = search_shape(spec)
    return {
        "tried": res.candidates_tried,
        "elapsed": res.elapsed,
        "hits": [
            {"index": k, "astar": matrix_to_json(pair.astar)}
            for k, pair in zip(res.candidate_indices, res.instances)
        ],
    }


def _search_digest(spec: SearchSpec) -> str:
    return input_digest(canonical_dumps(_shard_payload(spec)).encode("utf-8"))


def cmd_search(spec: SearchSpec, workers: int = 1) -> tuple[list[dict], dict]:
    """Run a (possibly sharded) search.  Returns one report per instance
    plus a summary dict; the report stream is independent of workers.
    The summary's elapsed is this call's wall time and cpuSum the sum of
    the shards' own times."""
    t0 = time.monotonic()
    digest = _search_digest(spec)
    shards = partition_seeds(spec, workers)
    if len(shards) == 1:
        shard_data = [_run_shard(_shard_payload(shards[0]))]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(shards))) as pool:
            shard_data = list(pool.map(_run_shard, [_shard_payload(s) for s in shards]))
    a_fixed = _fixed_a(spec.field, spec.shape)
    eig_fixed = eigen_decompose(a_fixed) if any(data["hits"] for data in shard_data) else None
    results = []
    for data in shard_data:
        instances = []
        indices = []
        for hit in data["hits"]:
            astar = matrix_from_json(hit["astar"])
            instances.append(validate_pair(a_fixed, astar, eig_fixed))
            indices.append(hit["index"])
        results.append(
            SearchResult(
                instances=tuple(instances),
                candidates_tried=data["tried"],
                elapsed=data["elapsed"],
                candidate_indices=tuple(indices),
            )
        )
    total = aggregate_results(results)
    reports = []
    for k, pair in zip(total.candidate_indices, total.instances):
        payload = {
            "A": matrix_to_json(pair.a),
            "Astar": matrix_to_json(pair.astar),
            "shape": list(pair.shape),
            "diameter": pair.diameter,
            "candidateIndex": k,
        }
        reports.append(_report("search", digest, payload, 0))
    summary = {
        "candidatesTried": total.candidates_tried,
        "instances": len(total.instances),
        "elapsed": time.monotonic() - t0,
        "cpuSum": total.elapsed,
    }
    return reports, summary


def _parse_shape(text: str) -> ShapeVector:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"bad shape {text!r}; expected comma-separated integers") from None
    try:
        return ShapeVector(parts)
    except InvariantViolation as e:
        raise ParseError(f"bad shape {text!r}: {e}") from None


def _spec_from_args(args) -> SearchSpec:
    if args.dim > _max_dim():
        raise ParseError(
            f"--dim {args.dim} exceeds the cap of {_max_dim()} "
            "(set TDP_MAX_DIM to raise it)"
        )
    return SearchSpec(
        field=field_from_spec(args.field),
        dim=args.dim,
        shape=_parse_shape(args.shape),
        budget=args.budget,
        seed=args.seed,
        mode=args.mode,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdpair",
        description=(
            "Exact certification of tridiagonal pairs: validation, split "
            "decomposition, Leonard-pair detection, switching elements, "
            "generation, and shape search over prime fields."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="validate a candidate pair (JSON file or '-')")
    p.add_argument("path")

    p = sub.add_parser("decompose", help="split decomposition with identity report")
    p.add_argument("path")

    p = sub.add_parser("detect", help="Leonard-pair detection with certificate")
    p.add_argument("path")

    p = sub.add_parser("switch", help="switching element from the feasibility solve")
    p.add_argument("path")
    p.add_argument(
        "--sequences",
        help="parameter-set JSON; cross-checks the closed-form switching element",
    )

    p = sub.add_parser("affine", help="affine change-of-variable linking two pairs")
    p.add_argument("pathP")
    p.add_argument("pathQ")

    p = sub.add_parser("generate", help="build a candidate in split form")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--params", help="parameter-set JSON file")
    group.add_argument(
        "--random",
        nargs=3,
        metavar=("FIELD", "D", "SEED"),
        help="sample a valid parameter set, e.g. --random gf7 2 1",
    )

    p = sub.add_parser("search", help="search for pairs of a prescribed shape")
    p.add_argument("--field", required=True, help="prime field, e.g. gf3")
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--shape", required=True, help="comma-separated, e.g. 1,2,1")
    p.add_argument("--budget", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("exhaustive", "randomized"), default="exhaustive")
    p.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 3

    if args.command == "verify":
        report = cmd_verify(args.path)
    elif args.command == "decompose":
        report = cmd_decompose(args.path)
    elif args.command == "detect":
        report = cmd_detect(args.path)
    elif args.command == "switch":
        report = cmd_switch(args.path, args.sequences)
    elif args.command == "affine":
        report = cmd_affine(args.pathP, args.pathQ)
    elif args.command == "generate":
        report = cmd_generate(args.params, args.random)
    else:
        try:
            if args.workers < 1:
                raise ParseError("--workers must be at least 1")
            spec = _spec_from_args(args)
        except TdpError as e:
            report = _report("search", "", {"failure": _failure_json(e)}, 3)
            sys.stdout.write(canonical_dumps(report))
            return 3
        try:
            reports, summary = cmd_search(spec, workers=args.workers)
        except TdpError as e:
            report = _report(
                "search", _search_digest(spec), {"failure": _failure_json(e)}, _exit_code(e)
            )
            sys.stdout.write(canonical_dumps(report))
            return report["exitCode"]
        for rep in reports:
            sys.stdout.write(canonical_dumps(rep))
        sys.stderr.write(
            f"candidatesTried={summary['candidatesTried']} "
            f"instances={summary['instances']} "
            f"elapsed={summary['elapsed']:.3f}s "
            f"cpuSum={summary['cpuSum']:.3f}s\n"
        )
        return 0

    sys.stdout.write(canonical_dumps(report))
    return report["exitCode"]


if __name__ == "__main__":
    sys.exit(main())
