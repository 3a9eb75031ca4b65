"""JSON encoding and decoding for matrices, candidates, parameter sets,
and CLI reports.

Scalars travel as strings ("3", "-7/2", and for GF(p) any integer
string, reduced mod p on the way in) so exactness survives the trip.
Canonical dumps sort keys and strip whitespace, making byte-identical
output a property of the data alone.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import lcm

from .errors import FieldMismatch, ParseError
from .fields import Field, GFElement, field_from_spec, field_to_spec
from .linalg import Matrix, _common, modulus
from .subspaces import Subspace


def scalar_to_str(x) -> str:
    if isinstance(x, GFElement):
        return str(x.v)
    if isinstance(x, Fraction):
        return str(x)
    raise ParseError(f"cannot encode scalar of type {type(x).__name__}")


def scalar_from_str(field: Field, s) -> object:
    return field.parse(_string(s))


def _string(s) -> str:
    if not isinstance(s, str):
        raise ParseError(f"scalar must be a string, got {type(s).__name__}")
    return s


def vector_to_json(v) -> list:
    return [scalar_to_str(x) for x in v]


def vector_from_json(field: Field, obj) -> tuple:
    if not isinstance(obj, list):
        raise ParseError("vector must be a JSON array")
    return tuple(scalar_from_str(field, s) for s in obj)


def subspace_to_json(s: Subspace) -> list:
    return [vector_to_json(v) for v in s.basis]


def matrix_to_json(m: Matrix) -> dict:
    return {
        "field": field_to_spec(m.field),
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [[scalar_to_str(x) for x in row] for row in m.rows],
    }


def matrix_from_json(obj, max_dim: int | None = None) -> Matrix:
    """The matrix of a JSON object, its entry strings read straight to int
    rows with parse's checks and texts: residues, or over Q over one lcm.
    Row by row, a row's shape is checked before its entries."""
    if not isinstance(obj, dict):
        raise ParseError("matrix must be a JSON object")
    for key in ("field", "rows", "cols", "entries"):
        if key not in obj:
            raise ParseError(f"matrix object missing key {key!r}")
    field = field_from_spec(obj["field"])
    nrows, ncols = obj["rows"], obj["cols"]
    if any(type(k) is not int or k < 1 for k in (nrows, ncols)):  # JSON true is a bool
        raise ParseError("rows and cols must be positive integers")
    if max_dim is not None and (nrows > max_dim or ncols > max_dim):
        raise ParseError(
            f"matrix size {nrows}x{ncols} exceeds the cap of {max_dim} "
            "(set TDP_MAX_DIM to raise it)"
        )
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != nrows:
        raise ParseError("entries must be a list with one row per matrix row")
    p, rows = modulus(field), []
    read = field._parse_residue if p else field._parse_number
    for row in entries:
        if not isinstance(row, list) or len(row) != ncols:
            raise ParseError("every entry row must list exactly cols scalars")
        rows.append([read(_string(s)) for s in row])
    if p:
        return Matrix._of_ints(field, rows)
    d = lcm(*{x.denominator for row in rows for x in row})
    return Matrix._of_ints(field, [_common(row, d)[0] for row in rows], d)


def candidate_to_json(a: Matrix, astar: Matrix) -> dict:
    return {"A": matrix_to_json(a), "Astar": matrix_to_json(astar)}


def candidate_from_json(obj, max_dim: int | None = None) -> tuple[Matrix, Matrix]:
    """Accepts a bare candidate {"A":..., "Astar":...}, a report payload
    holding one under "candidate", or a full report with such a payload,
    so generated output pipes straight back in."""
    if not isinstance(obj, dict):
        raise ParseError("candidate must be a JSON object")
    if "payload" in obj and isinstance(obj["payload"], dict):
        obj = obj["payload"]
    if "candidate" in obj and isinstance(obj["candidate"], dict):
        obj = obj["candidate"]
    if "A" not in obj or "Astar" not in obj:
        raise ParseError('candidate needs keys "A" and "Astar"')
    a = matrix_from_json(obj["A"], max_dim)
    astar = matrix_from_json(obj["Astar"], max_dim)
    if a.field != astar.field:
        raise FieldMismatch("A and Astar declare different fields")
    return a, astar


def params_to_json(params) -> dict:
    return {
        "field": field_to_spec(params.field),
        "theta": [scalar_to_str(x) for x in params.theta],
        "thetastar": [scalar_to_str(x) for x in params.thetastar],
        "varphi": [scalar_to_str(x) for x in params.varphi],
        "phi": [scalar_to_str(x) for x in params.phi],
    }


def params_from_json(obj):
    from .leonard import LeonardParameterSet

    if not isinstance(obj, dict):
        raise ParseError("parameter set must be a JSON object")
    for key in ("field", "theta", "thetastar", "varphi", "phi"):
        if key not in obj:
            raise ParseError(f"parameter set missing key {key!r}")
    field = field_from_spec(obj["field"])
    return LeonardParameterSet(
        field=field,
        theta=vector_from_json(field, obj["theta"]),
        thetastar=vector_from_json(field, obj["thetastar"]),
        varphi=vector_from_json(field, obj["varphi"]),
        phi=vector_from_json(field, obj["phi"]),
    )


def canonical_dumps(obj) -> str:
    """Stable key order, no whitespace, one trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def input_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def loads_strict(data) -> object:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"input is not UTF-8: {e}") from None
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as e:  # bad JSON, a number past int's digit limit, deep nesting
        raise ParseError(f"input is not valid JSON: {e}") from None
