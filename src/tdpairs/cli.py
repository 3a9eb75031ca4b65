"""Command-line front end.

Every command writes machine-readable JSON to stdout.  A single report
document looks like

    {"command": ..., "inputDigest": ..., "payload": ..., "exitCode": ...}

Every subcommand runs through one runner, _request: read() returns the
input byte strings, inputDigest is the sha256 of their concatenation
(the raw files, or the canonical request encoding for commands that take
no file), and compute(*inputs) returns the payload and exit code.  The
digest is set whenever every input was read; a request whose inputs
cannot all be read is a usage error with an empty digest.  `search`
streams one report per instance its shards validated, one JSON document
per line, and prints a human summary to stderr.

Exit codes: 0 success, 1 invalid instance or failed hypothesis,
2 inconclusive irreducibility verdict, 3 usage or parse error,
4 internal error (an InvariantViolation: a bug, not a verdict).

Reports are canonical JSON (sorted keys, no whitespace), so identical
inputs produce byte-identical output.  The environment variable
TDP_MAX_DIM (default 24) caps the ambient dimension of all inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import chain

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
    aligned_to_params,
    detect_leonard,
    generate_split_form,
    random_leonard,
    switching_from_sequences,
    switching_via_solve,
)
from .pairs import ShapeVector, validate_pair
from .search import SearchSpec, aggregate_results, partition_seeds, search_shape
from .serio import (
    candidate_from_json,
    candidate_to_json,
    canonical_dumps,
    input_digest,
    loads_strict,
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
        raise ParseError(f"cannot read {path!r}: {type(e).__name__}") from None


def _exit_code(e: TdpError | InvariantViolation) -> int:
    if isinstance(e, InvariantViolation):
        return 4
    if isinstance(e, ParseError):
        return 3
    if isinstance(e, InconclusiveIrreducibility):
        return 2
    return 1


def _failure_json(e: TdpError | InvariantViolation) -> dict:
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


def _request(command: str, read, compute, failed=lambda failure: {"failure": failure}) -> dict:
    """The one report of a request.  read() returns the input byte
    strings, and compute(*inputs) the payload and exit code.  A rejection
    or an internal error becomes failed(failure) with its exit code; one
    raised before every input was read leaves the digest empty and is a
    usage error."""
    digest = ""
    try:
        inputs = read()
        digest = input_digest(b"".join(inputs))
        payload, code = compute(*inputs)
    except (TdpError, InvariantViolation) as e:
        return _report(command, digest, failed(_failure_json(e)), _exit_code(e) if digest else 3)
    return _report(command, digest, payload, code)


def _files(*paths):
    return lambda: tuple(_read_bytes(path) for path in paths)


def _load_pair(data: bytes):
    a, astar = candidate_from_json(loads_strict(data), _max_dim())
    return validate_pair(a, astar)


def _verified(data: bytes):
    pair = _load_pair(data)
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
    return payload, 0


def _not_verified(failure: dict) -> dict:
    return {
        "valid": False,
        "diameter": None,
        "shape": None,
        "orderingA": None,
        "orderingAstar": None,
        "failure": failure,
    }


def cmd_verify(path: str) -> dict:
    return _request("verify", _files(path), _verified, _not_verified)


def _decomposed(data: bytes):
    sd = split_subspaces(_load_pair(data))
    report = complete_report(sd)
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
    return payload, 0 if report.all_true() else 1


def cmd_decompose(path: str) -> dict:
    return _request("decompose", _files(path), _decomposed)


def _detected(data: bytes):
    pair = _load_pair(data)
    outcome = detect_leonard(pair)
    leonard = isinstance(outcome, LeonardCertificate)
    payload = {
        "leonard": leonard,
        "alpha": [scalar_to_str(x) for x in outcome.alpha] if leonard else None,
        "solutionDim": outcome.solution_dim,
        "shape": list(pair.shape),
    }
    return payload, 0


def cmd_detect(path: str) -> dict:
    return _request("detect", _files(path), _detected)


def _proportionality_ratio(m_left, m_right):
    """The scalar c with m_left == c * m_right, or None: c is read off
    the first nonzero entry of m_right."""
    pairs = zip(chain.from_iterable(m_left.rows), chain.from_iterable(m_right.rows))
    ratio = next((x / y for x, y in pairs if y), None)
    return ratio if ratio is not None and m_left == m_right.scale(ratio) else None


def _switched(data: bytes, seq_data: bytes | None = None):
    seq_params = None if seq_data is None else params_from_json(loads_strict(seq_data))
    pair = _load_pair(data)
    if seq_params is not None:  # orient the pair to the parameters, or reject them
        if pair.diameter != seq_params.d:
            raise HypothesisNotMet(
                f"parameter set has diameter {seq_params.d}, pair has {pair.diameter}"
            )
        pair = aligned_to_params(pair, seq_params)
        if pair is None:
            raise HypothesisNotMet(
                "parameter eigenvalue sequences do not match the candidate, "
                "in either orientation"
            )
    s_solve = switching_via_solve(pair)
    payload = {"S": matrix_to_json(s_solve), "normalization": "alpha_d=1"}
    if seq_params is None:
        return payload, 0
    s_seq = switching_from_sequences(seq_params, pair.eig_a)
    ratio = _proportionality_ratio(s_seq, s_solve)
    if ratio is None:
        payload["crossCheck"] = {"proportional": False, "ratio": None, "fromSequences": matrix_to_json(s_seq)}
        return payload, 1
    payload["crossCheck"] = {"proportional": True, "ratio": scalar_to_str(ratio)}
    return payload, 0


def cmd_switch(path: str, sequences_path: str | None = None) -> dict:
    paths = (path,) if sequences_path is None else (path, sequences_path)
    return _request("switch", _files(*paths), _switched)


def _related(data_p: bytes, data_q: bytes):
    rel, rel_star = affine_relation(_load_pair(data_p), _load_pair(data_q))
    payload = {
        "r": scalar_to_str(rel.r),
        "s": scalar_to_str(rel.s),
        "rstar": scalar_to_str(rel_star.rstar),
        "sstar": scalar_to_str(rel_star.sstar),
    }
    return payload, 0


def cmd_affine(path_p: str, path_q: str) -> dict:
    return _request("affine", _files(path_p, path_q), _related)


def _generated(params, a, astar):
    return {"candidate": candidate_to_json(a, astar), "params": params_to_json(params)}, 0


def _generated_from_params(data: bytes):
    params = params_from_json(loads_strict(data))
    if params.d + 1 > _max_dim():
        raise ParseError(
            f"diameter {params.d} implies dimension {params.d + 1}, "
            f"above the cap of {_max_dim()}"
        )
    return _generated(params, *generate_split_form(params))


def _random_request(field_name: str, d_str: str, seed_str: str) -> bytes:
    """The canonical encoding of a valid --random request: what its
    digest covers and what the generation reads back."""
    field = field_from_spec(field_name)
    try:
        d = int(d_str)
        seed = int(seed_str)
    except ValueError:
        raise ParseError("--random needs an integer diameter and seed") from None
    if d < 0:
        raise ParseError("--random diameter must be nonnegative")
    if d + 1 > _max_dim():
        raise ParseError(
            f"diameter {d} implies dimension {d + 1}, above the cap of {_max_dim()}"
        )
    request = {"random": {"field": field_to_spec(field), "d": d, "seed": seed}}
    return canonical_dumps(request).encode("utf-8")


def _generated_at_random(request: bytes):
    spec = json.loads(request)["random"]
    params, pair = random_leonard(field_from_spec(spec["field"]), spec["d"], spec["seed"])
    return _generated(params, pair.a, pair.astar)


def cmd_generate(params_path: str | None, random_args: list | None) -> dict:
    if params_path is not None:
        return _request("generate", _files(params_path), _generated_from_params)
    return _request("generate", lambda: (_random_request(*random_args),), _generated_at_random)


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


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures' pool, imported on the first search with more
    than one worker instead of at every command's start-up."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def _search_request(spec: SearchSpec) -> bytes:
    return canonical_dumps(_shard_payload(spec)).encode("utf-8")


def cmd_search(spec: SearchSpec, workers: int = 1) -> tuple[list[dict], dict]:
    """Run a (possibly sharded) search.  Returns one report per instance
    plus a summary dict; the report stream is independent of workers.
    The shards run in a pool of at most os.cpu_count() processes.
    Each report is built from the pair its shard validated.  The
    summary's elapsed is this call's wall time, cpuSum the sum of the
    shards' own times and funnel the candidates that stopped at each
    search stage (SearchResult.funnel)."""
    t0 = time.monotonic()
    shards = partition_seeds(spec, workers)
    if len(shards) == 1:
        results = [search_shape(shards[0])]
    else:
        with ProcessPoolExecutor(max_workers=min(len(shards), os.cpu_count() or 1)) as pool:
            results = list(pool.map(search_shape, shards))
    total = aggregate_results(results)
    digest = input_digest(_search_request(spec))
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
        "funnel": total.funnel,
    }
    return reports, summary


def _parse_shape(text: str) -> ShapeVector:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"bad shape {text!r}; expected comma-separated integers") from None
    return ShapeVector(parts)


def _spec_from_args(args) -> SearchSpec:
    if args.workers < 1:
        raise ParseError("--workers must be at least 1")
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


def _search(args) -> list[dict]:
    """The reports of one search request, one per instance, with the
    summary on stderr; or its one failure report."""

    def compute(request: bytes):
        spec = json.loads(request)
        spec["field"] = field_from_spec(spec["field"])
        reports, summary = cmd_search(SearchSpec(**spec), workers=args.workers)
        sys.stderr.write(
            f"candidatesTried={summary['candidatesTried']} "
            f"instances={summary['instances']} "
            f"elapsed={summary['elapsed']:.3f}s "
            f"cpuSum={summary['cpuSum']:.3f}s "
            + " ".join(f"{stage}={c}" for stage, c in summary["funnel"].items())
            + "\n"
        )
        return reports, 0

    outcome = _request("search", lambda: (_search_request(_spec_from_args(args)),), compute)
    # a search that ran carries its reports as the request's payload
    return [outcome] if outcome["exitCode"] else outcome["payload"]


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built on first use; parsing leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 3
    # each entry looks its cmd_* up when it runs, so a rebound one is seen
    requests = {
        "verify": lambda: [cmd_verify(args.path)],
        "decompose": lambda: [cmd_decompose(args.path)],
        "detect": lambda: [cmd_detect(args.path)],
        "switch": lambda: [cmd_switch(args.path, args.sequences)],
        "affine": lambda: [cmd_affine(args.pathP, args.pathQ)],
        "generate": lambda: [cmd_generate(args.params, args.random)],
        "search": lambda: _search(args),
    }
    reports = requests[args.command]()
    for report in reports:
        sys.stdout.write(canonical_dumps(report))
    return reports[-1]["exitCode"] if reports else 0


if __name__ == "__main__":
    sys.exit(main())
