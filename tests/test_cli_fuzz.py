"""Fuzzing the request commands: any input file gives a report and an exit
code from 0 to 3, never a traceback or an internal error (exit code 4)."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from tdpairs.cli import main

COMMANDS = ("verify", "decompose", "detect", "switch")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

fields = st.sampled_from(["Q", "gf3", "gf7", {"kind": "GFp", "p": 101}])
bad_fields = st.one_of(
    st.sampled_from(["gf4", "gf1", "gf", "gf(x)", "Z", "", {"kind": "GFp"}, {"kind": "R"}]),
    st.integers(-3, 2**17).map(lambda p: {"kind": "GFp", "p": p}),
    st.sampled_from([2**61 - 1, 2**89 - 1, 2**61 + 1, "7", 7.0]).map(lambda p: {"kind": "GFp", "p": p}),
    json_values,
)
scalars = st.integers(-3, 3).map(str)
rational_scalars = scalars | st.sampled_from(["1/2", "-2/3"])
bad_scalars = st.one_of(
    st.sampled_from(["1e3", "2/0", "0/0", "", " 1", "x", "1.5", "9" * 4001]),
    st.integers(-9, 9),
    st.floats(),
    st.none(),
    st.lists(scalars, max_size=2),
)
FAULTS = (None, None, None, "field", "mismatch", "size", "ragged", "scalar", "key", "wrapped")


@st.composite
def candidates(draw):
    """A candidate of dimension 1 to 4, A diagonal and Astar tridiagonal
    (often a valid pair) or both dense, with at most one fault: a bad or
    mismatched field, a wrong declared size, a ragged row, a bad scalar,
    a missing key, or the candidate wrapped in a report payload."""
    n = draw(st.integers(1, 4))
    field = draw(fields)
    band = draw(st.booleans())
    entry = rational_scalars if field == "Q" else scalars

    def matrix(diagonal):
        entries = [
            [
                draw(entry) if not band or abs(r - c) <= (0 if diagonal else 1) else "0"
                for c in range(n)
            ]
            for r in range(n)
        ]
        return {"field": field, "rows": n, "cols": n, "entries": entries}

    cand = {"A": matrix(True), "Astar": matrix(False)}
    m = cand[draw(st.sampled_from(["A", "Astar"]))]
    fault = draw(st.sampled_from(FAULTS))
    if fault == "field":
        m["field"] = draw(bad_fields)
    elif fault == "mismatch":
        m["field"] = draw(fields)
    elif fault == "size":
        m[draw(st.sampled_from(["rows", "cols"]))] = draw(st.sampled_from([n + 1, n - 1, -1, 30, "2", 2.0, None]))
    elif fault == "ragged":
        row = m["entries"][draw(st.integers(0, n - 1))]
        row[:] = row[: n - 1] if draw(st.booleans()) else row + ["0"]
    elif fault == "scalar":
        m["entries"][draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(bad_scalars)
    elif fault == "key":
        del m[draw(st.sampled_from(sorted(m)))]
    elif fault == "wrapped":
        cand = {"payload": {"candidate": cand}}
    return cand


def _run(command, data: bytes):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main([command, path])
    finally:
        os.unlink(path)
    assert rc in (0, 1, 2, 3), out.getvalue()
    assert json.loads(out.getvalue())["exitCode"] == rc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(COMMANDS), json_values)
def test_arbitrary_json_is_a_verdict_or_a_parse_error(command, value):
    _run(command, json.dumps(value).encode())


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(COMMANDS), candidates())
def test_malformed_candidates_are_verdicts_or_parse_errors(command, cand):
    _run(command, json.dumps(cand).encode())
