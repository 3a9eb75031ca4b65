"""Dense univariate polynomials over a ground field.

Coefficients are stored lowest-degree first with trailing zeros trimmed,
so the zero polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import FieldMismatch
from .fields import Field, Scalar


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable):
        cs = [field.scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls(field, (field.one,))

    @classmethod
    def x_minus(cls, field: Field, a) -> "Polynomial":
        return cls(field, (-field.scalar(a), field.one))

    @classmethod
    def from_roots(cls, field: Field, roots: Sequence) -> "Polynomial":
        """Monic product of (x - r) over the given roots; empty -> 1."""
        p = cls.one(field)
        for r in roots:
            p = p * cls.x_minus(field, r)
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x) -> Scalar:
        x = self.field.scalar(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _check(self, other: "Polynomial"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] = merged[i] + c
        return Polynomial(self.field, merged)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = self.field.scalar(other)
            return Polynomial(self.field, tuple(c * a for a in self.coeffs))
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, out)

    def __rmul__(self, other) -> "Polynomial":
        return self * other

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"
