"""Command-line interface: report envelopes, exit codes, byte stability."""

from __future__ import annotations

import builtins
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import tdpairs.cli
import tdpairs.eigen
import tdpairs.pairs
import tdpairs.search
from tdpairs import GF, QQ, InvariantViolation, LeonardParameterSet, Matrix, SearchSpec, TdpError
from tdpairs.cli import cmd_search, main
from tdpairs.eigen import invert
from tdpairs.serio import candidate_to_json, canonical_dumps, params_to_json

from oracles import TENSOR_PARAMS, kron_sum_fixture, scalar_restriction_fixture, tensor_fixture
from test_eigen import refuse_in_eigen, unit_line
from test_pairs import A_D2, ASTAR_D2


def qm(rows):
    return Matrix(QQ, [[QQ.scalar(x) for x in r] for r in rows])


def write_candidate(tmp_path, name, a, astar):
    path = tmp_path / name
    path.write_text(canonical_dumps(candidate_to_json(a, astar)))
    return str(path)


def write_params(tmp_path, name, params):
    path = tmp_path / name
    path.write_text(canonical_dumps(params_to_json(params)))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def reports_of(out):
    return [json.loads(line) for line in out.splitlines()]


def d2_candidate(tmp_path, name="pair.json"):
    return write_candidate(tmp_path, name, qm(A_D2), qm(ASTAR_D2))


def record_calls(monkeypatch, module, name, calls):
    """Rebind module.name to a wrapper that appends "module.name" to calls."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(f"{module.__name__}.{name}")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


# ---- verify -------------------------------------------------------------------


def test_verify_valid_pair(tmp_path, capsys):
    path = d2_candidate(tmp_path)
    rc, out, _ = run(capsys, ["verify", path])
    assert rc == 0
    (rep,) = reports_of(out)
    assert rep["command"] == "verify"
    assert rep["exitCode"] == 0
    assert rep["inputDigest"] == hashlib.sha256(
        open(path, "rb").read()
    ).hexdigest()
    payload = rep["payload"]
    assert payload["valid"] is True
    assert payload["diameter"] == 2
    assert payload["shape"] == [1, 1, 1]
    assert payload["orderingA"] == ["0", "1", "2"]
    assert payload["orderingAstar"] == ["0", "1", "2"]
    assert payload["failure"] is None


def test_verify_diameter_zero(tmp_path, capsys):
    path = write_candidate(tmp_path, "d0.json", qm([[5]]), qm([[7]]))
    rc, out, _ = run(capsys, ["verify", path])
    assert rc == 0
    (rep,) = reports_of(out)
    assert rep["payload"]["shape"] == [1]
    assert rep["payload"]["diameter"] == 0


def test_verify_reducible_reports_witness(tmp_path, capsys):
    path = write_candidate(
        tmp_path, "red.json", qm([[0, 0], [0, 1]]), qm([[2, 0], [0, 3]])
    )
    rc, out, _ = run(capsys, ["verify", path])
    assert rc == 1
    (rep,) = reports_of(out)
    assert rep["exitCode"] == 1
    failure = rep["payload"]["failure"]
    assert failure["kind"] == "NotIrreducible"
    assert failure["witness"] == [["1", "0"]]
    assert rep["payload"]["valid"] is False


def test_verify_inconclusive_exit_2(tmp_path, capsys):
    # the pinned limitation: Q[x]/(x^4 - 2) restricted to Q, shape (4, 4)
    path = write_candidate(
        tmp_path, "inc.json", *scalar_restriction_fixture(QQ, (-2, 0, 0, 0, 1), 1)
    )
    rc, out, _ = run(capsys, ["verify", path])
    assert rc == 2
    (rep,) = reports_of(out)
    assert rep["payload"]["failure"]["kind"] == "InconclusiveIrreducibility"
    assert rep["payload"]["failure"]["diagnostic"]


def test_verify_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    # a bug inside the engine is reported as one, never as an invalid pair
    def broken(*args, **kwargs):
        raise InvariantViolation("planted bug")

    monkeypatch.setattr(tdpairs.pairs, "irreducible", broken)
    rc, out, _ = run(capsys, ["verify", d2_candidate(tmp_path)])
    assert rc == 4
    (rep,) = reports_of(out)
    assert rep["exitCode"] == 4
    assert rep["payload"]["valid"] is False
    assert rep["payload"]["failure"]["kind"] == "InvariantViolation"


def test_an_internal_error_is_not_a_rejection():
    # `except TdpError` is for rejected input; a failed internal check
    # must get past it
    assert not issubclass(InvariantViolation, TdpError)


def test_search_internal_error_exits_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolation("planted bug")

    monkeypatch.setattr(tdpairs.search, "validate_pair", broken)
    argv = ["search", "--field", "gf3", "--dim", "2", "--shape", "1,1", "--budget", "81"]
    rc, out, _ = run(capsys, argv)
    assert rc == 4
    (rep,) = reports_of(out)
    assert rep["exitCode"] == 4 and rep["inputDigest"]
    assert rep["payload"]["failure"]["kind"] == "InvariantViolation"


def test_a_wrong_eigenline_exits_4(tmp_path, capsys, monkeypatch):
    # the eigenvector check catches a broken substitution on a split form:
    # a bug in the engine, never a rejected pair
    pair, _ = _generated(tmp_path, capsys, "gf101", 3)
    monkeypatch.setattr(tdpairs.eigen, "_eigenline", unit_line)
    rc, out, _ = run(capsys, ["verify", pair])
    assert rc == 4
    (rep,) = reports_of(out)
    assert rep["payload"]["valid"] is False
    assert rep["payload"]["failure"] == {"kind": "InvariantViolation", "message": "claimed eigenvector is not one"}


def test_verify_reads_stdin(tmp_path, capsys, monkeypatch):
    data = canonical_dumps(candidate_to_json(qm(A_D2), qm(ASTAR_D2))).encode()
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(data)))
    rc, out, _ = run(capsys, ["verify", "-"])
    assert rc == 0
    (rep,) = reports_of(out)
    assert rep["payload"]["valid"] is True


def test_verify_parse_failures_exit_3(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{this is not json")
    rc, out, _ = run(capsys, ["verify", str(broken)])
    assert rc == 3
    (rep,) = reports_of(out)
    assert rep["payload"]["failure"]["kind"] == "ParseError"
    rc, out, _ = run(capsys, ["verify", str(tmp_path / "missing.json")])
    assert rc == 3


def test_unreadable_inputs_report_the_path_and_the_exception_class(tmp_path, capsys, monkeypatch):
    # the message carries no C-library error text, so it is the same bytes
    # on every platform whose open() raises the same exception class
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    messages = []
    for path in ("missing.json", "folder"):
        rc, out, _ = run(capsys, ["verify", path])
        (rep,) = reports_of(out)
        assert rc == 3 and rep["payload"]["failure"]["kind"] == "ParseError"
        messages.append(rep["payload"]["failure"]["message"])
    assert messages[0] == "cannot read 'missing.json': FileNotFoundError"
    head, _, cls = messages[1].partition(": ")
    assert head == "cannot read 'folder'"
    assert issubclass(getattr(builtins, cls), OSError) and "Errno" not in messages[1]


def test_verify_nondiagonalizable_side_reported(tmp_path, capsys):
    path = write_candidate(
        tmp_path, "jordan.json", qm([[5, 1], [0, 5]]), qm([[0, 0], [0, 1]])
    )
    rc, out, _ = run(capsys, ["verify", path])
    assert rc == 1
    (rep,) = reports_of(out)
    failure = rep["payload"]["failure"]
    assert failure["kind"] == "NotDiagonalizableOverField"
    assert failure["side"] == "A"


def test_verify_output_is_byte_stable(tmp_path, capsys):
    path = d2_candidate(tmp_path)
    _, out1, _ = run(capsys, ["verify", path])
    _, out2, _ = run(capsys, ["verify", path])
    assert out1 == out2
    assert out1.endswith("\n")
    line = out1.splitlines()[0]
    assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line


def _timed_cli(argv, timeout):
    """Run the CLI in a fresh interpreter: (exit code, stdout, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tdpairs.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def _one_by_one_candidate(tmp_path, entry):
    def matrix(x):
        return {"cols": 1, "entries": [[x]], "field": {"kind": "Q"}, "rows": 1}

    path = tmp_path / "one.json"
    path.write_text(canonical_dumps({"A": matrix(entry), "Astar": matrix("1")}))
    return str(path)


def test_verify_semiprime_entry_finishes_within_a_second(tmp_path):
    # the root of x - (2^61-1)(2^89-1) was found by factoring the constant
    path = _one_by_one_candidate(tmp_path, str((2**61 - 1) * (2**89 - 1)))
    rc, out, elapsed = _timed_cli(["verify", path], timeout=10)
    assert rc == 0, out
    assert elapsed < 1.0


def test_verify_gf103_pair_of_shape_3_times_8_at_the_dimension_cap(tmp_path):
    # GF(103)[x]/(x^3 - 2) restricted to GF(103): n = 24 and no eigenline
    a, astar = scalar_restriction_fixture(GF(103), (-2, 0, 0, 1), 7)
    path = write_candidate(tmp_path, "gf103.json", a, astar)
    rc, out, _ = _timed_cli(["verify", path], timeout=30)
    assert rc == 0, out
    (rep,) = reports_of(out)
    assert rep["payload"]["valid"] is True
    assert rep["payload"]["shape"] == [3] * 8


def test_verify_exponent_notation_exits_3_within_a_second(tmp_path):
    # Fraction("1e3000000") builds a 3,000,001-digit integer
    rc, out, elapsed = _timed_cli(["verify", _one_by_one_candidate(tmp_path, "1e3000000")], 10)
    assert rc == 3
    (rep,) = reports_of(out)
    assert rep["payload"]["failure"]["kind"] == "ParseError"
    assert elapsed < 1.0


@pytest.mark.parametrize("d", [16, 23])
def test_generated_q_leonard_pair_verifies_within_the_timeout(tmp_path, d):
    # dimensions 17 and 24 (the TDP_MAX_DIM default) of the ladder
    rc, out, _ = _timed_cli(["generate", "--random", "Q", str(d), "1"], timeout=30)
    assert rc == 0
    path = tmp_path / "generated.json"
    path.write_text(canonical_dumps(json.loads(out)["payload"]["candidate"]))
    rc, out, _ = _timed_cli(["verify", str(path)], timeout=30)
    assert rc == 0
    assert json.loads(out)["payload"]["diameter"] == d


def test_dimension_cap_from_environment(tmp_path, capsys, monkeypatch):
    path = d2_candidate(tmp_path)
    monkeypatch.setenv("TDP_MAX_DIM", "2")
    rc, out, _ = run(capsys, ["verify", path])
    assert rc == 3
    (rep,) = reports_of(out)
    assert "TDP_MAX_DIM" in rep["payload"]["failure"]["message"]
    monkeypatch.setenv("TDP_MAX_DIM", "3")
    rc, _, _ = run(capsys, ["verify", path])
    assert rc == 0
    monkeypatch.setenv("TDP_MAX_DIM", "abc")
    rc, out, _ = run(capsys, ["verify", path])
    assert rc == 3


# ---- decompose -----------------------------------------------------------------


def test_decompose_flags_and_dims(tmp_path, capsys):
    path = d2_candidate(tmp_path)
    rc, out, _ = run(capsys, ["decompose", path])
    assert rc == 0
    (rep,) = reports_of(out)
    payload = rep["payload"]
    assert payload["dims"] == [1, 1, 1]
    assert payload["eq4"] is True
    for key in ("eq5", "eq6", "eq7", "eq8", "eq10"):
        assert payload[key] == [True, True, True]
    assert len(payload["U"]) == 3
    assert payload["U"][0] == [["1", "0", "0"]]


def test_decompose_invalid_candidate_exit_1(tmp_path, capsys):
    path = write_candidate(
        tmp_path, "red.json", qm([[0, 0], [0, 1]]), qm([[2, 0], [0, 3]])
    )
    rc, out, _ = run(capsys, ["decompose", path])
    assert rc == 1
    (rep,) = reports_of(out)
    assert rep["payload"]["failure"]["kind"] == "NotIrreducible"


# ---- detect --------------------------------------------------------------------


def test_detect_leonard_certificate(tmp_path, capsys):
    path = d2_candidate(tmp_path)
    rc, out, _ = run(capsys, ["detect", path])
    assert rc == 0
    (rep,) = reports_of(out)
    payload = rep["payload"]
    assert payload["leonard"] is True
    assert payload["alpha"] == ["1/2", "1", "1"]
    assert payload["solutionDim"] == 1
    assert payload["shape"] == [1, 1, 1]


def test_detect_not_leonard_still_exit_0(tmp_path, capsys):
    theta, mu, varphis = TENSOR_PARAMS["Q"]
    a, astar = tensor_fixture(QQ, theta, mu, varphis)
    path = write_candidate(tmp_path, "fat.json", a, astar)
    rc, out, _ = run(capsys, ["detect", path])
    assert rc == 0
    (rep,) = reports_of(out)
    payload = rep["payload"]
    assert payload["leonard"] is False
    assert payload["alpha"] is None
    assert payload["solutionDim"] == 0
    assert payload["shape"] == [1, 2, 1]


# ---- switch --------------------------------------------------------------------


def d2_params(field=QQ):
    return LeonardParameterSet(
        field=field, theta=(0, 1, 2), thetastar=(0, 1, 2), varphi=(1, 1), phi=(3, 3)
    )


def test_switch_with_cross_check(tmp_path, capsys):
    cand = d2_candidate(tmp_path)
    pfile = write_params(tmp_path, "params.json", d2_params())
    rc, out, _ = run(capsys, ["switch", cand, "--sequences", pfile])
    assert rc == 0
    (rep,) = reports_of(out)
    payload = rep["payload"]
    assert payload["normalization"] == "alpha_d=1"
    assert payload["S"]["entries"] == [
        ["1/2", "0", "0"],
        ["1", "3/2", "0"],
        ["1", "3", "9/2"],
    ]
    assert payload["crossCheck"] == {"proportional": True, "ratio": "2"}
    # digest covers both input files
    cand_bytes = open(cand, "rb").read()
    par_bytes = open(pfile, "rb").read()
    assert rep["inputDigest"] == hashlib.sha256(cand_bytes + par_bytes).hexdigest()


def test_switch_digest_covers_a_malformed_sequences_file(tmp_path, capsys):
    # both files were read, so the digest is set, as for verify and affine
    cand = d2_candidate(tmp_path)
    pfile = tmp_path / "params.json"
    pfile.write_bytes(b"{not json")
    rc, out, _ = run(capsys, ["switch", cand, "--sequences", str(pfile)])
    assert rc == 3
    (rep,) = reports_of(out)
    assert rep["payload"]["failure"]["kind"] == "ParseError"
    joined = open(cand, "rb").read() + pfile.read_bytes()
    assert rep["inputDigest"] == hashlib.sha256(joined).hexdigest()


def test_switch_without_sequences(tmp_path, capsys):
    cand = d2_candidate(tmp_path)
    rc, out, _ = run(capsys, ["switch", cand])
    assert rc == 0
    (rep,) = reports_of(out)
    assert "crossCheck" not in rep["payload"]
    assert rep["payload"]["S"]["entries"][0] == ["1/2", "0", "0"]


def test_switch_cross_check_mismatch_exit_1(tmp_path, capsys):
    cand = d2_candidate(tmp_path)
    wrong = LeonardParameterSet(
        field=QQ, theta=(0, 1, 2), thetastar=(0, 1, 2), varphi=(1, 1), phi=(3, 6)
    )
    pfile = write_params(tmp_path, "wrong.json", wrong)
    rc, out, _ = run(capsys, ["switch", cand, "--sequences", pfile])
    assert rc == 1
    (rep,) = reports_of(out)
    cc = rep["payload"]["crossCheck"]
    assert cc["proportional"] is False
    assert cc["ratio"] is None
    assert "fromSequences" in cc


def test_switch_misaligned_eigenvalues_exit_1(tmp_path, capsys):
    cand = d2_candidate(tmp_path)
    other = LeonardParameterSet(
        field=QQ, theta=(0, 2, 4), thetastar=(0, 1, 2), varphi=(1, 1), phi=(3, 3)
    )
    pfile = write_params(tmp_path, "other.json", other)
    rc, out, _ = run(capsys, ["switch", cand, "--sequences", pfile])
    assert rc == 1
    (rep,) = reports_of(out)
    assert rep["payload"]["failure"]["kind"] == "HypothesisNotMet"


def test_switch_non_leonard_exit_1(tmp_path, capsys):
    theta, mu, varphis = TENSOR_PARAMS["Q"]
    a, astar = tensor_fixture(QQ, theta, mu, varphis)
    path = write_candidate(tmp_path, "fat.json", a, astar)
    rc, out, _ = run(capsys, ["switch", path])
    assert rc == 1
    (rep,) = reports_of(out)
    assert rep["payload"]["failure"]["kind"] == "NotLeonardError"


# ---- affine --------------------------------------------------------------------


def test_affine_recovers_transformation(tmp_path, capsys):
    eye = Matrix.identity(QQ, 3)
    a = qm(A_D2)
    astar = qm(ASTAR_D2)
    p1 = write_candidate(tmp_path, "p.json", a, astar)
    a2 = a.scale(QQ.scalar(2)) + eye.scale(QQ.scalar(3))
    astar2 = astar.scale(QQ.scalar(4)) + eye.scale(QQ.scalar(5))
    p2 = write_candidate(tmp_path, "q.json", a2, astar2)
    rc, out, _ = run(capsys, ["affine", p1, p2])
    assert rc == 0
    (rep,) = reports_of(out)
    assert rep["payload"] == {"r": "2", "s": "3", "rstar": "4", "sstar": "5"}
    joined = open(p1, "rb").read() + open(p2, "rb").read()
    assert rep["inputDigest"] == hashlib.sha256(joined).hexdigest()


def test_affine_unrelated_pairs_exit_1(tmp_path, capsys):
    p1 = d2_candidate(tmp_path)
    # conjugation moves the eigenspaces, so no affine relation exists
    c = qm([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    c_inv = qm([[1, -1, 0], [0, 1, 0], [0, 0, 1]])
    a2 = c @ qm(A_D2) @ c_inv
    astar2 = c @ qm(ASTAR_D2) @ c_inv
    p2 = write_candidate(tmp_path, "conj.json", a2, astar2)
    rc, out, _ = run(capsys, ["affine", p1, p2])
    assert rc == 1
    (rep,) = reports_of(out)
    failure = rep["payload"]["failure"]
    assert failure["kind"] == "EigenspaceMismatch"
    assert failure["side"] == "A"


# ---- generate ------------------------------------------------------------------


def test_generate_from_params_then_verify(tmp_path, capsys):
    params = LeonardParameterSet(
        field=QQ, theta=(0, 1), thetastar=(0, 1), varphi=(1,), phi=(2,)
    )
    pfile = write_params(tmp_path, "gen.json", params)
    rc, out, _ = run(capsys, ["generate", "--params", pfile])
    assert rc == 0
    (rep,) = reports_of(out)
    candidate = rep["payload"]["candidate"]
    assert candidate["A"]["entries"] == [["0", "0"], ["1", "1"]]
    assert candidate["Astar"]["entries"] == [["0", "1"], ["0", "1"]]
    assert rep["payload"]["params"]["varphi"] == ["1"]
    # the emitted report feeds straight back into verify
    gen_out = tmp_path / "generated.json"
    gen_out.write_text(out)
    rc, out2, _ = run(capsys, ["verify", str(gen_out)])
    assert rc == 0
    assert reports_of(out2)[0]["payload"]["valid"] is True


def test_generate_random_deterministic(tmp_path, capsys):
    rc1, out1, _ = run(capsys, ["generate", "--random", "gf7", "2", "1"])
    rc2, out2, _ = run(capsys, ["generate", "--random", "gf7", "2", "1"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    (rep,) = reports_of(out1)
    request = json.dumps(
        {"random": {"field": {"kind": "GFp", "p": 7}, "d": 2, "seed": 1}},
        sort_keys=True,
        separators=(",", ":"),
    ) + "\n"
    assert rep["inputDigest"] == hashlib.sha256(request.encode()).hexdigest()
    assert rep["payload"]["candidate"]["A"]["rows"] == 3


def test_generate_argument_errors(tmp_path, capsys):
    rc, out, _ = run(capsys, ["generate", "--random", "gf7", "x", "1"])
    assert rc == 3
    rc, out, _ = run(capsys, ["generate", "--random", "gf7", "-1", "1"])
    assert rc == 3
    rc, out, _ = run(capsys, ["generate", "--random", "gf4", "2", "1"])
    assert rc == 3
    rc, out, _ = run(capsys, ["generate", "--random", "gf2", "3", "1"])
    assert rc == 1  # parses fine; the field is just too small to host it
    (rep,) = reports_of(out)
    assert rep["payload"]["failure"]["kind"] == "ExhaustedRetries"


def test_generate_respects_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TDP_MAX_DIM", "2")
    rc, out, _ = run(capsys, ["generate", "--random", "gf7", "2", "1"])
    assert rc == 3


def _generated(tmp_path, capsys, field, d):
    """generate --random FIELD d 1 as the README round trip keeps it: the
    pair file and the parameters for switch --sequences."""
    rc, out, _ = run(capsys, ["generate", "--random", field, str(d), "1"])
    assert rc == 0
    pair, params = tmp_path / f"{field}-{d}.json", tmp_path / f"{field}-{d}.params.json"
    pair.write_text(out)
    params.write_text(canonical_dumps(reports_of(out)[0]["payload"]["params"]))
    return str(pair), str(params)


@pytest.mark.parametrize("field", ["Q", "gf7", "gf101"])
def test_round_trip_of_split_forms_reads_every_spectrum_off_the_diagonal(tmp_path, capsys, monkeypatch, field):
    # generate --random writes A lower and A* upper bidiagonal with n
    # distinct eigenvalues each, so no request needs a characteristic
    # polynomial, a root scan or a kernel per eigenvalue
    pairs = [_generated(tmp_path, capsys, field, d) for d in range(7)]
    refuse_in_eigen(monkeypatch, "char_poly", "field_roots", "kernel")
    for pair, params in pairs:
        for argv in (["verify", pair], ["detect", pair], ["decompose", pair], ["switch", pair, "--sequences", params]):
            rc, out, _ = run(capsys, argv)
            assert rc == 0, (argv, out)


# ---- search --------------------------------------------------------------------


def test_search_stream_and_summary(tmp_path, capsys):
    rc, out, err = run(
        capsys,
        ["search", "--field", "gf3", "--dim", "2", "--shape", "1,1", "--budget", "81"],
    )
    assert rc == 0
    reports = reports_of(out)
    assert len(reports) == 6
    indices = [r["payload"]["candidateIndex"] for r in reports]
    assert indices == [12, 24, 40, 52, 68, 80]
    for rep in reports:
        assert rep["command"] == "search"
        assert rep["payload"]["shape"] == [1, 1]
        assert rep["payload"]["diameter"] == 1
        assert rep["payload"]["A"]["entries"] == [["0", "0"], ["0", "1"]]
    assert "candidatesTried=81" in err
    assert "instances=6" in err
    assert "elapsed=" in err  # timing goes to stderr, never stdout
    # the funnel follows cpuSum: 42 of the 81 matrices do not split, 9 of
    # the 39 that do are diagonal, so A's eigenspaces have no ordering
    funnel = err.split("cpuSum=")[1].split()[1:]
    assert funnel == ["not_split=42", "a_pattern=9", "wrong_dims=0", "invalid=24", "duplicate=0", "hit=6"]
    assert "not_split" not in out


def test_search_summary_reports_wall_time_and_shard_time_sum(capsys):
    spec = SearchSpec(field=GF(3), dim=2, shape=(1, 1), budget=81)
    reports, summary = cmd_search(spec)
    assert len(reports) == 6 and summary["instances"] == 6
    # one shard: the wall time covers the shard and the re-validation
    assert summary["elapsed"] >= summary["cpuSum"] > 0.0
    rc, out, err = run(
        capsys, ["search", "--field", "gf3", "--dim", "2", "--shape", "1,1", "--budget", "81"]
    )
    assert rc == 0 and "cpuSum=" in err and "cpuSum" not in out


def test_search_reports_the_pairs_its_shards_validated(monkeypatch):
    # every hit is validated once, inside search_shape; the cli builds its
    # reports from those pairs and never validates again
    calls = []
    record_calls(monkeypatch, tdpairs.cli, "validate_pair", calls)
    record_calls(monkeypatch, tdpairs.search, "validate_pair", calls)
    reports, summary = cmd_search(SearchSpec(field=GF(3), dim=3, shape=(1, 1, 1), budget=3**7))
    assert summary["instances"] == len(reports) == 12
    assert "tdpairs.cli.validate_pair" not in calls
    assert calls.count("tdpairs.search.validate_pair") >= len(reports)


def test_search_workers_do_not_change_stdout(tmp_path, capsys):
    argv = ["search", "--field", "gf3", "--dim", "2", "--shape", "1,1", "--budget", "81"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv + ["--workers", "4"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_search_randomized_deterministic(tmp_path, capsys):
    argv = [
        "search",
        "--field",
        "gf3",
        "--dim",
        "2",
        "--shape",
        "1,1",
        "--budget",
        "120",
        "--mode",
        "randomized",
        "--seed",
        "5",
    ]
    rc1, out1, err1 = run(capsys, argv)
    rc2, out2, err2 = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "candidatesTried=120" in err1


def test_search_spec_errors_exit_3(tmp_path, capsys):
    cases = [
        ["search", "--field", "gf3", "--dim", "3", "--shape", "1,2", "--budget", "5"],
        ["search", "--field", "gf3", "--dim", "2", "--shape", "1,1", "--budget", "0"],
        ["search", "--field", "Q", "--dim", "2", "--shape", "1,1", "--budget", "5"],
        ["search", "--field", "gf2", "--dim", "3", "--shape", "1,1,1", "--budget", "5"],
        ["search", "--field", "gf3", "--dim", "2", "--shape", "x", "--budget", "5"],
        ["search", "--field", "gf3", "--dim", "25", "--shape", "1,1", "--budget", "5"],
        [
            "search",
            "--field",
            "gf3",
            "--dim",
            "2",
            "--shape",
            "1,1",
            "--budget",
            "5",
            "--workers",
            "0",
        ],
    ]
    for argv in cases:
        rc, out, _ = run(capsys, argv)
        assert rc == 3, argv
        (rep,) = reports_of(out)
        assert rep["exitCode"] == 3
        assert "failure" in rep["payload"]


def test_search_randomized_seed_and_counter_fit_eight_bytes(capsys):
    # the seed and the candidate counter are hashed as 8 bytes each; a
    # value that does not fit is a usage error, not a traceback
    argv = ["search", "--field", "gf3", "--dim", "4", "--shape", "1,2,1", "--mode", "randomized"]
    for extra in (
        ["--budget", "5", "--seed", str(2**63)],
        ["--budget", "5", "--seed", str(-(2**63) - 1)],
        ["--budget", str(2**64 + 1), "--seed", "0"],
    ):
        rc, out, _ = run(capsys, argv + extra)
        assert rc == 3, extra
        (rep,) = reports_of(out)
        assert rep["exitCode"] == 3 and rep["payload"]["failure"]["kind"] == "ParseError"
    for seed in (2**63 - 1, -(2**63)):
        rc, out, err = run(capsys, argv + ["--budget", "5", "--seed", str(seed)])
        assert rc == 0 and "candidatesTried=5" in err


def test_search_pool_is_capped_at_the_cpu_count(monkeypatch):
    # partition_seeds makes one shard per worker, so the shards and stdout
    # do not change, but the pool never asks for more processes than CPUs;
    # the stand-in pool maps the shards in this process
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(tdpairs.cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(tdpairs.cli.os, "cpu_count", lambda: 2)
    spec = SearchSpec(field=GF(3), dim=2, shape=(1, 1), budget=81)
    reports, summary = cmd_search(spec, workers=5000)
    assert sizes == [2]
    assert reports == cmd_search(spec)[0]
    assert summary["candidatesTried"] == 81
    monkeypatch.setattr(tdpairs.cli.os, "cpu_count", lambda: None)
    cmd_search(spec, workers=3)
    assert sizes == [2, 1]


def test_search_bad_shape_is_a_parse_error(capsys):
    for shape in ("1,2", "0,3"):
        argv = ["search", "--field", "gf3", "--dim", "3", "--shape", shape, "--budget", "5"]
        rc, out, _ = run(capsys, argv)
        assert rc == 3
        (rep,) = reports_of(out)
        assert rep["payload"]["failure"]["kind"] == "ParseError", shape


# ---- usage ---------------------------------------------------------------------


def test_usage_errors_and_help(capsys):
    assert main([]) == 3
    capsys.readouterr()
    assert main(["no-such-command"]) == 3
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_reused_parser_answers_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; no call may leave state in it
    cand = d2_candidate(tmp_path)
    pfile = write_params(tmp_path, "params.json", d2_params())
    calls = [
        ["switch", cand, "--sequences", pfile],
        ["switch", cand],
        ["verify", cand],
        ["search", "--field", "gf3", "--dim", "3", "--shape", "1,2", "--budget", "5"],
        ["generate", "--random", "gf7", "2", "1"],
        ["--help"],
        ["verify", cand],
        ["generate", "--random", "gf7", "2"],
        ["switch", cand],
    ]

    def outcomes():
        return [run(capsys, argv)[:2] for argv in calls]

    reused = outcomes()
    assert tdpairs.cli._parser() is tdpairs.cli._parser()
    monkeypatch.setattr(tdpairs.cli, "_parser", tdpairs.cli.build_parser)
    fresh = outcomes()
    assert reused == fresh
    assert [rc for rc, _ in reused] == [0, 0, 0, 3, 0, 0, 0, 3, 0]
    assert "crossCheck" in reports_of(reused[0][1])[0]["payload"]
    assert "crossCheck" not in reports_of(reused[1][1])[0]["payload"]


def test_dispatch_runs_a_rebound_command_every_time(tmp_path, capsys, monkeypatch):
    # the benchmark tracer rebinds cmd_* in tdpairs.cli; main must call
    # the rebound function on every request, also with its cached parser
    calls = []
    record_calls(monkeypatch, tdpairs.cli, "cmd_verify", calls)
    record_calls(monkeypatch, tdpairs.cli, "cmd_search", calls)
    cand = d2_candidate(tmp_path)
    search = ["search", "--field", "gf3", "--dim", "2", "--shape", "1,1", "--budget", "81"]
    for _ in range(2):
        assert run(capsys, ["verify", cand])[0] == 0
        assert run(capsys, search)[0] == 0
    assert calls == ["tdpairs.cli.cmd_verify", "tdpairs.cli.cmd_search"] * 2


# ---- golden stdout ---------------------------------------------------------------

# sha256 of the stdout of _golden_requests, pinned so that a change to the
# arithmetic kernels cannot change a single byte of any report.  Re-pinned
# when the NotDiagonalizableOverField message came to count the roots of
# the characteristic polynomial instead of naming the minimal polynomial's
# degree; the rejected pair's message is the only line that moved
GOLDEN_STDOUT_SHA256 = "adc7dfc9842710636300bc86a871a79d051d5cfca6f3423e36a623933886b4db"


def _golden_requests(tmp_path, capsys):
    """Every stdout byte of a fixed list of requests: generate --random,
    then verify, detect, decompose and switch --sequences on the result,
    over Q and GF(101) at d = 0..6, plus a rejected Q pair and a Kronecker
    sum."""
    out = []

    def call(argv):
        main(argv)
        out.append(capsys.readouterr().out)
        return out[-1]

    for field in ("Q", "gf101"):
        for d in range(7):
            (rep,) = reports_of(call(["generate", "--random", field, str(d), str(d + 1)]))
            stem = tmp_path / f"{field}-{d}"
            cand = stem.with_suffix(".pair.json")
            cand.write_text(canonical_dumps(rep["payload"]["candidate"]))
            params = stem.with_suffix(".params.json")
            params.write_text(canonical_dumps(rep["payload"]["params"]))
            for command in ("verify", "detect", "decompose"):
                call([command, str(cand)])
            call(["switch", str(cand), "--sequences", str(params)])
    rejected = write_candidate(
        tmp_path,
        "rejected.json",
        qm([[1, "1/2", 0], [0, 2, 0], [0, 0, 3]]),
        qm([["1/3", 1, 0], [2, "5/7", 0], [0, 0, 1]]),
    )
    call(["verify", rejected])
    theta, mu, varphis = TENSOR_PARAMS["Q"]
    kron = write_candidate(tmp_path, "kron.json", *tensor_fixture(QQ, theta, mu, varphis))
    call(["verify", kron])
    return "".join(out)


def test_golden_stdout_is_byte_identical(tmp_path, capsys):
    stdout = _golden_requests(tmp_path, capsys)
    assert len(stdout.splitlines()) == 72
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == GOLDEN_STDOUT_SHA256


# sha256 of the stdout of _nonsharp_requests, generated before the eigen
# pipeline moved to int rows: it pins kernels and support edges on
# eigenspaces of dimension 2 and 3, which the Leonard-heavy digest above
# barely reaches
NONSHARP_STDOUT_SHA256 = "1424b2dc20073f23e3729b919bdd2153a9350efd28ffbb8cb1fc5b5165979322"


def _nonsharp_requests(tmp_path, capsys):
    """Every stdout byte of verify, decompose and detect on non-sharp
    pairs: Kronecker sums of three diameter-1 pairs (n = 8, shape
    (1, 3, 3, 1)) over Q, conjugated over Q, and over GF(101), and the
    restriction-of-scalars pairs of shape (2, 2, 2, 2) over Q and
    (3, 3, 3, 3) over GF(7), also conjugated."""
    def conjugated(field, pair):
        # by L L^T for a unit lower triangular L: dense eigenvectors
        n = pair[0].nrows
        entry = (lambda i, j: Fraction(i + 1, j + 2)) if field == QQ else (lambda i, j: i + 2 * j + 1)
        lower = Matrix(field, [[entry(i, j) if j < i else int(i == j) for j in range(n)] for i in range(n)])
        change = lower @ lower.transpose()
        return tuple(change @ m @ invert(change) for m in pair)

    kron_q = kron_sum_fixture(QQ, ((0, 1),) * 3, (1, 2, 3))
    restricted_gf7 = scalar_restriction_fixture(GF(7), (-2, 0, 0, 1), 3)
    inputs = {
        "kron-q": kron_q,
        "kron-q-conjugated": conjugated(QQ, kron_q),
        "kron-gf101": kron_sum_fixture(GF(101), ((0, 1), (2, 3), (5, 6)), (1, 2, 3)),
        "restricted-q": scalar_restriction_fixture(QQ, (1, 0, 1), 3),
        "restricted-gf7": restricted_gf7,
        "restricted-gf7-conjugated": conjugated(GF(7), restricted_gf7),
    }
    out = []
    for name, (a, astar) in inputs.items():
        path = write_candidate(tmp_path, f"{name}.json", a, astar)
        for command in ("verify", "decompose", "detect"):
            main([command, path])
            out.append(capsys.readouterr().out)
    return "".join(out)


def test_golden_stdout_of_non_sharp_pairs_is_byte_identical(tmp_path, capsys):
    stdout = _nonsharp_requests(tmp_path, capsys)
    reports = reports_of(stdout)
    assert len(reports) == 18
    assert [r["exitCode"] for r in reports] == [0] * 18
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == NONSHARP_STDOUT_SHA256


# sha256 of the stdout of _surface_requests, generated before the commands
# shared one request runner: it pins what the two digests above leave out,
# affine, generate --params, switch without --sequences, search reports,
# and one failure report per command.  Re-pinned when a read failure came
# to name the exception class instead of the C library's error text; the
# two "cannot read 'missing.json'" messages are the only lines that moved
SURFACE_STDOUT_SHA256 = "b52d6ef429fa75d3f78f48ae68abc968b13905076e406300c6acb17bfbde1fca"


def _surface_requests(tmp_path, capsys, monkeypatch):
    """Every stdout byte of one call of each command path outside the
    Leonard round trip, run from tmp_path so that the paths a failure
    names are relative."""
    monkeypatch.chdir(tmp_path)
    eye = Matrix.identity(QQ, 3)
    a, astar = qm(A_D2), qm(ASTAR_D2)
    write_candidate(tmp_path, "p.json", a, astar)
    write_candidate(
        tmp_path,
        "q.json",
        a.scale(QQ.scalar(-3)) + eye.scale(QQ.scalar("1/2")),
        astar.scale(QQ.scalar("2/5")) + eye.scale(QQ.scalar(7)),
    )
    d1 = LeonardParameterSet(field=GF(101), theta=(3, 9), thetastar=(0, 5), varphi=(7,), phi=(11,))
    write_params(tmp_path, "d1.json", d1)
    write_candidate(tmp_path, "reducible.json", qm([[0, 0], [0, 1]]), qm([[2, 0], [0, 3]]))
    (tmp_path / "junk.json").write_bytes(b"\x00{not json")
    out = []
    for argv in (
        ["affine", "p.json", "q.json"],
        ["generate", "--params", "d1.json"],
        ["switch", "p.json"],
        ["search", "--field", "gf3", "--dim", "3", "--shape", "1,1,1", "--budget", "2187"],
        ["search", "--field", "gf5", "--dim", "2", "--shape", "1,1", "--budget", "200",
         "--mode", "randomized", "--seed", "9", "--workers", "2"],
        ["verify", "missing.json"],
        ["decompose", "junk.json"],
        ["detect", "reducible.json"],
        ["switch", "p.json", "--sequences", "missing.json"],
        ["affine", "p.json", "junk.json"],
        ["generate", "--random", "gf4", "2", "1"],
        ["search", "--field", "gf3", "--dim", "3", "--shape", "1,1", "--budget", "5"],
    ):
        main(argv)
        out.append(capsys.readouterr().out)
    return "".join(out)


def test_golden_stdout_of_the_rest_of_the_cli_is_byte_identical(tmp_path, capsys, monkeypatch):
    stdout = _surface_requests(tmp_path, capsys, monkeypatch)
    reports = reports_of(stdout)
    searched = [r for r in reports if r["command"] == "search" and r["exitCode"] == 0]
    assert len({r["inputDigest"] for r in searched}) == 2  # both searches find hits
    assert [r["exitCode"] for r in reports if r["command"] != "search"] == [0, 0, 0, 3, 3, 1, 3, 3, 3]
    assert reports[-1]["exitCode"] == 3
    failures = [r["payload"]["failure"] for r in reports if r["exitCode"]]
    assert "witness" in failures[2]
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == SURFACE_STDOUT_SHA256
