"""Field arithmetic against plain-integer oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import tdpairs.fields
from tdpairs import (
    GF,
    QQ,
    FieldMismatch,
    GFElement,
    Matrix,
    ParseError,
    field_from_spec,
    field_to_spec,
)
from tdpairs.fields import MAX_PRIME, MAX_SCALAR_DIGITS, _is_prime
from tdpairs.serio import scalar_to_str

from oracles import scalar_by_field_parse


def test_gf_arithmetic_matches_int_mod_p():
    rng = random.Random(101)
    for p in (2, 3, 5, 7, 13, 101):
        f = GF(p)
        for _ in range(200):
            x, y = rng.randrange(p), rng.randrange(p)
            a, b = f.scalar(x), f.scalar(y)
            assert (a + b).v == (x + y) % p
            assert (a - b).v == (x - y) % p
            assert (a * b).v == (x * y) % p
            assert (-a).v == (-x) % p
            if y != 0:
                assert (a / b).v == (x * pow(y, -1, p)) % p
        assert f.zero.v == 0 and f.one.v == 1


def test_gf_division_by_zero_raises():
    f = GF(7)
    with pytest.raises(ZeroDivisionError):
        f.one / f.zero


def test_gf_mixed_int_operands():
    f = GF(11)
    a = f.scalar(4)
    assert a + 9 == f.scalar(2)
    assert 9 + a == f.scalar(2)
    assert 2 - a == f.scalar(9)
    assert a * 3 == f.scalar(1)
    assert 1 / a == f.scalar(3)


def test_cross_field_arithmetic_rejected():
    with pytest.raises(FieldMismatch):
        GF(5).one + GF(7).one


def test_fields_compare_by_value():
    assert GF(7) == GF(7)
    assert GF(7) != GF(11)
    assert QQ == QQ
    assert hash(GF(7)) == hash(GF(7))


def test_rational_scalars_are_exact_fractions():
    assert QQ.scalar("3/7") == Fraction(3, 7)
    assert QQ.scalar(Fraction(1, 3)) * 3 == 1
    with pytest.raises(TypeError):
        QQ.scalar(0.5)


def test_rational_scalar_strings_meet_the_parse_bounds():
    # the library API takes strings through parse, like the CLI
    with pytest.raises(ParseError):
        Matrix(QQ, [["1e5000"]])
    with pytest.raises(ParseError):
        QQ.scalar("9" * (MAX_SCALAR_DIGITS + 1))
    with pytest.raises(ParseError):
        QQ.scalar("1/0")
    third = Fraction(1, 3)
    assert QQ.scalar(third) is third
    assert QQ.scalar(-7) == Fraction(-7) and type(QQ.scalar(-7)) is Fraction
    assert QQ.scalar("-22/7") == Fraction(-22, 7)
    assert QQ.scalar(" 0.25 ") == Fraction(1, 4)
    assert Matrix(QQ, [["1/2", 3], [third, "4"]]).rows == (
        (Fraction(1, 2), Fraction(3)),
        (third, Fraction(4)),
    )


@pytest.mark.parametrize("field", [QQ, GF(7), GF(65521)], ids=str)
def test_parse_matches_the_fraction_and_int_readings(field):
    # Rationals.parse reads an integer string by int() and anything else by
    # Fraction(): the same value, type and ParseError text as reading every
    # string by Fraction(), over PEP 515 underscores, signs, Unicode
    # digits and spaces, and digit-like characters neither accepts; GF(p)
    # reads int() mod p, as before
    rng = random.Random(str(field))
    alphabet = [*"0123456789" * 3, *"__+-/. \t", "\u0663", "\uff11", "\u00b2", "\u2160", "\xa0", "\x1c", "x", "e"]
    kinds = set()
    for _ in range(20000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
        try:
            got = field.parse(s)
        except ParseError as e:
            got = str(e)
        try:
            want = scalar_by_field_parse(field, s)
        except ParseError as e:
            want = str(e)
        assert got == want and type(got) is type(want), s
        kinds.add(type(got))
    assert kinds == {str, type(field.one)}


def test_parse_and_format_round_trip():
    assert QQ.parse("-22/7") == Fraction(-22, 7)
    assert scalar_to_str(Fraction(-22, 7)) == "-22/7"
    f = GF(13)
    assert f.parse("-1") == f.scalar(12)
    assert scalar_to_str(f.scalar(12)) == "12"
    with pytest.raises(ParseError):
        QQ.parse("abc")
    with pytest.raises(ParseError):
        f.parse("x")


def test_prime_field_scalar_strings_go_through_parse():
    # a string entry is parsed as the CLI parses it, over GF(p) as over Q:
    # a bad one is a ParseError, never a bare ValueError
    f = GF(7)
    for bad in ("x", "1/2", "", "9" * 5000):
        with pytest.raises(ParseError, match="bad GF"):
            Matrix(f, [[bad]])
        with pytest.raises(ParseError, match="bad GF"):
            f.scalar(bad)
    with pytest.raises(ParseError):
        Matrix(QQ, [["x"]])
    assert f.scalar(" -1 ") == f.parse("-1") == f.scalar(6)
    assert Matrix(f, [["3", 10]]).rows == ((f.scalar(3), f.scalar(3)),)


@pytest.mark.parametrize("text", ["1e3000000", "2E5", "1.5e3", " -4e-2 "])
def test_rational_parse_rejects_exponent_notation(text):
    with pytest.raises(ParseError, match="exponent"):
        QQ.parse(text)


def test_rational_parse_caps_digits_so_values_print_back():
    widest = "9" * MAX_SCALAR_DIGITS
    for text in (widest, "1/" + widest[1:], "0." + "0" * (MAX_SCALAR_DIGITS - 2) + "1"):
        assert QQ.parse(text) == Fraction(text)
        assert scalar_to_str(QQ.parse(text))
    for text in (widest + "9", "1/" + widest, "1." + widest):
        with pytest.raises(ParseError, match="digits"):
            QQ.parse(text)
    assert QQ.parse(" 1.25 ") == Fraction(5, 4)


def test_nonprime_and_oversized_orders_rejected():
    for bad in (0, 1, 4, 9, 15, 2**16 + 1):
        with pytest.raises(ParseError):
            GF(bad)


def test_primality_matches_a_sieve_and_decides_huge_orders_at_once():
    limit = MAX_PRIME + 1000
    sieve = [False, False] + [True] * (limit - 2)
    for q in range(2, limit):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(range(q * q, limit, q))
    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for composite in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(composite)
    # a 19-digit order was trial division up to its square root
    with pytest.raises(ParseError, match="exceeds the cap"):
        field_from_spec({"kind": "GFp", "p": 2**61 - 1})
    with pytest.raises(ParseError, match="exceeds the cap"):
        field_from_spec({"kind": "GFp", "p": 2**61 + 1})


def test_an_order_above_the_cap_is_refused_before_any_primality_test(monkeypatch):
    # a 4,200-digit order cost seconds of Miller-Rabin before the cap refused it
    def refuse(n):
        raise AssertionError("_is_prime called")

    monkeypatch.setattr(tdpairs.fields, "_is_prime", refuse)
    for order in (MAX_PRIME + 1, 2**61 - 1, 10**4199 + 7):
        with pytest.raises(ParseError, match="exceeds the cap"):
            GF(order)
        with pytest.raises(ParseError, match="exceeds the cap"):
            field_from_spec({"kind": "GFp", "p": order})


def test_field_spec_round_trip():
    for f in (QQ, GF(2), GF(7), GF(65521)):
        assert field_from_spec(field_to_spec(f)) == f
    assert field_from_spec("q") == QQ
    assert field_from_spec("gf7") == GF(7)
    assert field_from_spec("GF(13)") == GF(13)
    for bad in ("gf6", "reals", {"kind": "XYZ"}, {"kind": "GFp"}, 17):
        with pytest.raises(ParseError):
            field_from_spec(bad)


def test_field_specs_for_one_prime_share_one_field():
    f = field_from_spec({"kind": "GFp", "p": 101})
    assert field_from_spec("gf101") is f
    assert field_from_spec("GF(101)") is f
    assert field_from_spec({"kind": "GFp", "p": 101}) is f
    assert field_from_spec("gf103") is not f
    # the cache keys on int orders only: 101.0 is still refused
    with pytest.raises(ParseError):
        field_from_spec({"kind": "GFp", "p": 101.0})
    # GF() itself builds a fresh instance
    assert GF(101) is not f and GF(101) == f


def test_gf_elements_enumeration_and_hash():
    f = GF(5)
    elems = list(f.elements())
    assert [e.v for e in elems] == [0, 1, 2, 3, 4]
    assert len({e for e in elems}) == 5
    assert isinstance(elems[0], GFElement)
    with pytest.raises(TypeError):
        list(QQ.elements())
