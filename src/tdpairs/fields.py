"""Ground fields for exact linear algebra: Q and GF(p).

A field object is a small factory that builds and parses scalars
(serio.scalar_to_str writes them).  Rational scalars are
`fractions.Fraction`; prime-field scalars are `GFElement` instances that
overload arithmetic.  The bulk kernels of `linalg` work on ints
instead: over Q on numerators over a common denominator, over GF(p) on
residues, which `PrimeField._residues` reads off with scalar()'s
coercion and field check, and `_element` maps a residue back to its
element (from the field's table when p <= 1024).

Fields compare by value, so two `PrimeField(7)` instances are
interchangeable; `field_from_spec` hands out one shared instance per p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Iterator, Union

from .errors import FieldMismatch, ParseError

MAX_PRIME = 2**16
# under Python's 4300-digit int/str limit, so any parsed rational prints back
MAX_SCALAR_DIGITS = 4000

Scalar = Union[Fraction, "GFElement"]


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 prime bases up to 41: exact below 3.3 * 10**24
    (Sorenson and Webster, 2015), a strong probable-prime test above, and
    polynomial in the digits, so a huge field order costs no trial division."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GFElement:
    """A residue modulo a prime, tied to its field.

    Arithmetic accepts another element of the same field or a plain int.
    Division by zero raises ZeroDivisionError like the built-in types.
    """

    __slots__ = ("field", "v")

    def __init__(self, field: "PrimeField", v: int):
        self.field = field
        self.v = v % field.p

    def _lift(self, other) -> "GFElement | None":
        if isinstance(other, GFElement):
            if other.field.p != self.field.p:
                raise FieldMismatch(
                    f"GF({self.field.p}) vs GF({other.field.p})"
                )
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.field.scalar(self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.field.scalar(self.v - o.v)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.field.scalar(o.v - self.v)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.field.scalar(self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.field.p})")
        return self.field.scalar(self.v * pow(o.v, -1, self.field.p))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.field.p})")
        return self.field.scalar(o.v * pow(self.v, -1, self.field.p))

    def __neg__(self):
        return self.field.scalar(-self.v)

    def __pow__(self, n: int):
        return self.field.scalar(pow(self.v, n, self.field.p))

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.field.p == other.field.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __lt__(self, other):
        # canonical residue order; used only to pick deterministic orderings
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.v < o.v

    def __repr__(self):
        return f"{self.v}(mod {self.field.p})"


class Rationals:
    """The field of rational numbers.  Scalars are Fraction values."""

    kind = "Q"
    # Fraction is immutable, so every caller may share these
    zero = Fraction(0)
    one = Fraction(1)

    def scalar(self, x) -> Fraction:
        """Coerce an int, Fraction, or string (by parse) to a Fraction."""
        if isinstance(x, Fraction):
            return x
        if isinstance(x, float):
            raise TypeError("floats are not exact; pass int, Fraction, or str")
        if isinstance(x, str):
            return self.parse(x)
        return Fraction(x)

    def parse(self, s: str) -> Fraction:
        """An integer, fraction "a/b" or decimal of at most
        MAX_SCALAR_DIGITS digits, not in exponent notation."""
        x = self._parse_number(s)
        return x if type(x) is Fraction else Fraction(x)

    def _parse_number(self, s: str) -> int | Fraction:
        """parse's value, an int for an integer string: int() reads just
        the integers of Fraction's grammar, at a third of the cost."""
        text = s.strip()
        if "e" in text.lower():
            raise ParseError(f"bad rational scalar {s!r}: exponent notation")
        if sum(ch.isdigit() for ch in text) > MAX_SCALAR_DIGITS:
            raise ParseError(f"rational scalar has more than {MAX_SCALAR_DIGITS} digits")
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad rational scalar {s!r}: {e}") from None

    def elements(self) -> Iterator[Fraction]:
        raise TypeError("Q is infinite; cannot enumerate its elements")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """GF(p) for a prime p <= 2**16.

    Elements are cached per field instance, so arithmetic mostly shuffles
    references instead of allocating.
    """

    kind = "GFp"

    def __init__(self, p: int):
        if isinstance(p, int) and p > MAX_PRIME:  # before Miller-Rabin, which costs a huge order seconds
            raise ParseError(f"field order {p} exceeds the cap {MAX_PRIME}")
        if not isinstance(p, int) or not _is_prime(p):
            raise ParseError(f"field order {p!r} is not prime")
        self.p = p
        if p <= 1024:
            self._cache = tuple(GFElement(self, v) for v in range(p))
            self._element = self._cache.__getitem__
        else:
            self._cache = None
            self._element = partial(GFElement, self)

    @property
    def zero(self) -> GFElement:
        return self.scalar(0)

    @property
    def one(self) -> GFElement:
        return self.scalar(1)

    def scalar(self, x) -> GFElement:
        """Coerce an int, same-field element, or string (by parse)."""
        if isinstance(x, GFElement):
            if x.field.p != self.p:
                raise FieldMismatch(f"GF({x.field.p}) element given to GF({self.p})")
            return x
        if isinstance(x, str):
            return self.parse(x)
        if not isinstance(x, int):
            raise TypeError(f"cannot coerce {type(x).__name__} into GF({self.p})")
        if self._cache is not None:
            return self._cache[x % self.p]
        return GFElement(self, x)

    def _residues(self, xs) -> list[int]:
        """The residues of xs, each coerced and checked as by scalar()."""
        p = self.p
        return [x.v if type(x) is GFElement and x.field.p == p else self.scalar(x).v for x in xs]

    def parse(self, s: str) -> GFElement:
        return self._element(self._parse_residue(s))

    def _parse_residue(self, s: str) -> int:
        """The residue in [0, p) of an integer string, as parse reads it."""
        try:
            return int(s.strip()) % self.p
        except ValueError:
            raise ParseError(f"bad GF({self.p}) scalar {s!r}") from None

    def elements(self) -> Iterator[GFElement]:
        for v in range(self.p):
            yield self.scalar(v)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GFp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


Field = Union[Rationals, PrimeField]

QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


_PRIME_FIELDS: dict = {}


def _prime_field(p) -> PrimeField:
    """The one PrimeField per p that field_from_spec hands out.  A miss
    builds PrimeField(p), which checks p, so the cache holds at most one
    field per prime up to MAX_PRIME."""
    field = _PRIME_FIELDS.get(p) if type(p) is int else None
    if field is None:
        field = _PRIME_FIELDS[p] = PrimeField(p)
    return field


def field_from_spec(spec) -> Field:
    """Build a field from its JSON form {"kind": "Q"} / {"kind": "GFp", "p": n},
    or from a short name like "Q" / "gf7"."""
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name in ("q", "qq", "rational", "rationals"):
            return QQ
        if name.startswith("gf"):
            body = name[2:].lstrip("(").rstrip(")")
            try:
                return _prime_field(int(body))
            except ValueError:
                raise ParseError(f"bad field name {spec!r}") from None
        raise ParseError(f"bad field name {spec!r}")
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "Q":
            return QQ
        if kind == "GFp":
            if "p" not in spec:
                raise ParseError('field {"kind": "GFp"} needs "p"')
            return _prime_field(spec["p"])
        raise ParseError(f"unknown field kind {kind!r}")
    raise ParseError(f"bad field spec {spec!r}")


def field_to_spec(field: Field) -> dict:
    if isinstance(field, Rationals):
        return {"kind": "Q"}
    return {"kind": "GFp", "p": field.p}
