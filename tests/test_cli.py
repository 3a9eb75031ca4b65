"""Command-line interface: report envelopes, exit codes, byte stability."""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from tdpairs import GF, QQ, LeonardParameterSet, Matrix, SearchSpec
from tdpairs.cli import cmd_search, main
from tdpairs.serio import candidate_to_json, canonical_dumps, params_to_json

from oracles import TENSOR_PARAMS, scalar_restriction_fixture, tensor_fixture
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
