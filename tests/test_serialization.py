"""JSON round-trips, canonical encoding, and input validation."""

from __future__ import annotations

import json
import random

import pytest

from tdpairs import (
    GF,
    QQ,
    FieldMismatch,
    LeonardParameterSet,
    Matrix,
    ParseError,
    Subspace,
    field_to_spec,
)
from tdpairs.serio import (
    candidate_from_json,
    candidate_to_json,
    canonical_dumps,
    input_digest,
    loads_strict,
    matrix_from_json,
    matrix_to_json,
    params_from_json,
    params_to_json,
    scalar_from_str,
    scalar_to_str,
    subspace_to_json,
    vector_from_json,
    vector_to_json,
)

from oracles import matrix_by_field_parse


def qm(rows):
    return Matrix(QQ, [[QQ.scalar(x) for x in r] for r in rows])


def gm(p, rows):
    f = GF(p)
    return Matrix(f, [[f.scalar(x) for x in r] for r in rows])


# ---- scalars and vectors -------------------------------------------------------


def test_scalar_round_trips():
    for s in ("0", "7", "-3", "22/7", "-1/2"):
        x = QQ.parse(s)
        assert scalar_from_str(QQ, scalar_to_str(x)) == x
    f = GF(11)
    for v in range(11):
        x = f.scalar(v)
        assert scalar_from_str(f, scalar_to_str(x)) == x
    # GF input reduces mod p on the way in
    assert scalar_from_str(f, "13") == f.scalar(2)
    assert scalar_from_str(f, "-1") == f.scalar(10)


def test_scalar_rejects_non_strings_and_garbage():
    with pytest.raises(ParseError):
        scalar_from_str(QQ, 7)
    with pytest.raises(ParseError):
        scalar_from_str(QQ, "seven")
    with pytest.raises(ParseError):
        scalar_from_str(GF(5), "1/2")  # no fraction syntax over GF(p)


def test_vector_round_trip_and_validation():
    v = (QQ.scalar("1/3"), QQ.scalar(-2), QQ.zero)
    assert vector_from_json(QQ, vector_to_json(v)) == v
    with pytest.raises(ParseError):
        vector_from_json(QQ, {"not": "a list"})


def test_subspace_to_json_lists_echelon_basis():
    s = Subspace.span(QQ, 3, [(QQ.one, QQ.one, QQ.zero), (QQ.zero, QQ.one, QQ.one)])
    out = subspace_to_json(s)
    assert len(out) == 2
    assert all(isinstance(row, list) and len(row) == 3 for row in out)
    assert all(isinstance(x, str) for row in out for x in row)


# ---- matrices -------------------------------------------------------------------


def test_matrix_round_trip_both_fields():
    m = qm([[0, "1/2"], [-3, "7/5"]])
    assert matrix_from_json(matrix_to_json(m)) == m
    g = gm(13, [[1, 2, 0], [0, 5, 6], [0, 0, 12]])
    assert matrix_from_json(matrix_to_json(g)) == g


def test_matrix_json_shape_is_stable():
    obj = matrix_to_json(gm(5, [[1, 2], [3, 4]]))
    assert obj == {
        "field": {"kind": "GFp", "p": 5},
        "rows": 2,
        "cols": 2,
        "entries": [["1", "2"], ["3", "4"]],
    }
    q = matrix_to_json(qm([["1/2"]]))
    assert q["field"] == {"kind": "Q"}
    assert q["entries"] == [["1/2"]]


def test_matrix_from_json_accepts_short_field_names():
    obj = matrix_to_json(gm(5, [[1, 2], [3, 4]]))
    short = dict(obj, field="gf5")
    assert matrix_from_json(short) == matrix_from_json(obj)
    qobj = dict(matrix_to_json(qm([[1]])), field="Q")
    assert matrix_from_json(qobj).field == QQ


def test_matrix_from_json_validation():
    good = matrix_to_json(qm([[1, 2], [3, 4]]))
    for key in ("field", "rows", "cols", "entries"):
        bad = dict(good)
        del bad[key]
        with pytest.raises(ParseError):
            matrix_from_json(bad)
    with pytest.raises(ParseError):
        matrix_from_json("not an object")
    with pytest.raises(ParseError):
        matrix_from_json(dict(good, rows=0))
    with pytest.raises(ParseError):
        matrix_from_json(dict(good, rows="2"))
    with pytest.raises(ParseError):
        matrix_from_json(dict(good, entries=[["1", "2"]]))  # row count off
    with pytest.raises(ParseError):
        matrix_from_json(dict(good, entries=[["1"], ["3", "4"]]))  # ragged
    with pytest.raises(ParseError):
        matrix_from_json(dict(good, field="gf4"))  # not prime


def test_matrix_dimension_cap():
    obj = matrix_to_json(qm([[1, 2], [3, 4]]))
    assert matrix_from_json(obj, max_dim=2).nrows == 2
    with pytest.raises(ParseError) as exc:
        matrix_from_json(obj, max_dim=1)
    assert "TDP_MAX_DIM" in str(exc.value)


def _entry_strings(field, rng):
    """Seeded entry strings: signs, padding, residues >= p and negative
    ones over GF(p); fractions and decimals over Q; and 4,000-digit
    entries, the most Rationals.parse allows."""
    p = getattr(field, "p", None)
    digits = lambda k: str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(k - 1))  # noqa: E731
    pad = lambda x: rng.choice(["", " ", "\t", "\n "]) + x + rng.choice(["", " ", " \n"])  # noqa: E731
    sign = lambda: rng.choice(["", "", "-", "+"])  # noqa: E731
    kind = rng.randrange(6)
    if kind == 0:
        return pad(digits(4000) if p else sign() + digits(2000) + "/" + digits(2000))
    if p:
        return pad(sign() + str(rng.choice([rng.randrange(p), rng.randrange(p, 10 * p), rng.randrange(10**30)])))
    if kind == 1:
        return pad(sign() + str(rng.randrange(10**6)) + "." + str(rng.randrange(10**4)))
    if kind == 2:
        return pad(sign() + str(rng.randrange(10**9)) + "/" + str(rng.randint(1, 10**6)))
    return pad(sign() + str(rng.randrange(10**12)))


def _outcome(read, obj):
    try:
        m = read(obj)
    except ParseError as e:
        return str(e)
    return m._ints, m.rows


@pytest.mark.parametrize("field", [QQ, GF(2), GF(101), GF(65521)], ids=str)
def test_matrix_from_json_reads_the_int_rows_field_parse_gives(field):
    # entry strings go straight to residues over GF(p) and to Fractions
    # over one lcm over Q: the same int rows, entries and ParseError texts
    # as parsing every entry to an element and coercing it again
    # (GF(65521) has no element cache)
    rng = random.Random(str(field))
    spec = field_to_spec(field)
    for n in (1, 2, 3, 5):
        for _ in range(6):
            entries = [[_entry_strings(field, rng) for _ in range(n)] for _ in range(n)]
            obj = {"field": spec, "rows": n, "cols": n, "entries": entries}
            got = _outcome(matrix_from_json, obj)
            assert not isinstance(got, str) and got == _outcome(matrix_by_field_parse, obj)
    bad = [
        [["1", "x"], ["1"]],  # a bad scalar in row 0 wins over the short row 1
        [["1"], ["x", "2"]],  # a short row 0 wins over the bad scalar in row 1
        [["x", 2], ["1", "2"]],
        [["1", 2], ["x", "2"]],  # a non-string scalar, before row 1
        [["1", None], ["1", "2"]],
        [["1.5", 1.5], ["1", "2"]],
        [["1", ["1"]], ["1", "2"]],
        [["1e3", "2"], ["1", "2"]],  # exponent notation
        [["1", "2"], ["3", "1" * 4001]],  # 4,001 digits: the rational cap
        [["1", "2"], ["3", "-" + "7" * 4400]],  # over Python's int string limit
        [["1/0", "2"], ["3", "4"]],
        ["12", ["3", "4"]],
    ]
    for entries in bad:
        obj = {"field": spec, "rows": 2, "cols": 2, "entries": entries}
        want = _outcome(matrix_by_field_parse, obj)
        assert _outcome(matrix_from_json, obj) == want
        if entries[1][-1] != "1" * 4001 or field == QQ:
            assert isinstance(want, str), entries


# ---- candidates -----------------------------------------------------------------


def test_candidate_round_trip_and_envelope_unwrapping():
    a = qm([[0, 0], [1, 1]])
    astar = qm([[0, 1], [0, 1]])
    bare = candidate_to_json(a, astar)
    assert candidate_from_json(bare) == (a, astar)
    # a generate-style report pipes straight back in
    wrapped = {"command": "generate", "payload": {"candidate": bare}, "exitCode": 0}
    assert candidate_from_json(wrapped) == (a, astar)
    payload_only = {"candidate": bare}
    assert candidate_from_json(payload_only) == (a, astar)


def test_candidate_rejects_field_mix_and_missing_keys():
    a = qm([[1]])
    g = gm(5, [[1]])
    with pytest.raises(FieldMismatch):
        candidate_from_json({"A": matrix_to_json(a), "Astar": matrix_to_json(g)})
    with pytest.raises(ParseError):
        candidate_from_json({"A": matrix_to_json(a)})
    with pytest.raises(ParseError):
        candidate_from_json([1, 2, 3])


# ---- parameter sets --------------------------------------------------------------


def test_params_round_trip():
    params = LeonardParameterSet(
        field=QQ, theta=(0, 1, 2), thetastar=(0, 1, 2), varphi=(1, 1), phi=(3, 3)
    )
    again = params_from_json(params_to_json(params))
    assert again == params
    g = LeonardParameterSet(
        field=GF(7), theta=(0, 1, 2), thetastar=(0, 2, 4), varphi=(2, 3), phi=(1, 5)
    )
    assert params_from_json(params_to_json(g)) == g


def test_params_validation_passes_through():
    obj = params_to_json(
        LeonardParameterSet(
            field=QQ, theta=(0, 1), thetastar=(0, 1), varphi=(1,), phi=(2,)
        )
    )
    del obj["phi"]
    with pytest.raises(ParseError):
        params_from_json(obj)
    with pytest.raises(ParseError):
        params_from_json("nope")


# ---- canonical encoding ----------------------------------------------------------


def test_canonical_dumps_is_key_order_independent():
    one = canonical_dumps({"b": 1, "a": [2, 3]})
    two = canonical_dumps({"a": [2, 3], "b": 1})
    assert one == two
    assert one == '{"a":[2,3],"b":1}\n'
    assert one.endswith("\n") and " " not in one


def test_canonical_dumps_round_trips_through_json():
    payload = {"alpha": ["1/2", "1"], "leonard": True, "solutionDim": 1}
    assert json.loads(canonical_dumps(payload)) == payload


def test_input_digest_is_stable_and_sensitive():
    d1 = input_digest(b'{"x":1}')
    assert d1 == input_digest(b'{"x":1}')
    assert d1 != input_digest(b'{"x":2}')
    assert len(d1) == 64 and all(c in "0123456789abcdef" for c in d1)


def test_loads_strict_errors():
    assert loads_strict(b'{"a": 1}') == {"a": 1}
    assert loads_strict('[1, 2]') == [1, 2]
    with pytest.raises(ParseError):
        loads_strict(b"{broken")
    with pytest.raises(ParseError):
        loads_strict(b"\xff\xfe")
