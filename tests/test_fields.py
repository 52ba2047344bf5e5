"""Scalar layer: exact arithmetic, parsing, canonical formatting."""
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rbraid import GF, QQ
from rbraid.errors import DescriptorMismatch, DivisionByZero, ParseError
from rbraid.fields import _is_prime

PRIMES = [2, 3, 5, 7, 11, 97]


def test_rational_examples():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.sub(QQ.one, Fraction(1, 4)) == Fraction(3, 4)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 2)) == 1
    assert QQ.div(Fraction(1), Fraction(4)) == Fraction(1, 4)
    assert QQ.neg(Fraction(5)) == -5


def test_prime_field_examples():
    F7 = GF(7)
    assert F7.mul(3, 5) == 1
    assert F7.add(6, 6) == 5
    assert F7.inv(2) == 4
    assert F7.div(1, 2) == 4


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        QQ.inv(QQ.zero)
    with pytest.raises(DivisionByZero):
        GF(7).inv(0)
    with pytest.raises(DivisionByZero):
        QQ.div(QQ.one, QQ.zero)


def test_is_invertible():
    assert QQ.is_invertible(Fraction(2))
    assert not QQ.is_invertible(QQ.zero)
    assert not GF(2).is_invertible(GF(2).from_int(2))
    assert not GF(7).is_invertible(0)
    assert GF(7).is_invertible(3)


def test_parse_examples():
    assert QQ.parse("-4/6") == Fraction(-2, 3)
    assert QQ.parse("+3") == 3
    assert GF(7).parse("1/2") == 4
    assert GF(7).parse("-4/6") == (-4 * pow(6, -1, 7)) % 7
    with pytest.raises(ParseError):
        QQ.parse("abc")
    with pytest.raises(ParseError):
        QQ.parse("1/2/3")
    with pytest.raises(ParseError):
        QQ.parse("1.5")
    with pytest.raises(DivisionByZero):
        QQ.parse("1/0")
    with pytest.raises(DivisionByZero):
        GF(5).parse("3/10")


def test_format_parse_round_trip():
    for text in ["0", "7", "-3", "2/3", "-22/7"]:
        assert QQ.format(QQ.parse(text)) == text
    # canonicalization collapses non-reduced input
    assert QQ.format(QQ.parse("04/6")) == "2/3"
    F5 = GF(5)
    for r in range(5):
        assert F5.parse(F5.format(r)) == r


def test_field_identity_and_mismatch():
    assert QQ == QQ
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)
    with pytest.raises(DescriptorMismatch):
        QQ.check_same(GF(5))


def test_field_json_round_trip():
    from rbraid import field_from_json

    assert field_from_json(QQ.to_json()) == QQ
    assert field_from_json(GF(13).to_json()) == GF(13)
    with pytest.raises(ParseError):
        field_from_json({"kind": "GF", "p": 6})
    with pytest.raises(ParseError):
        field_from_json({"kind": "R"})


def test_coerce():
    assert QQ.coerce(3) == 3
    assert QQ.coerce("1/2") == Fraction(1, 2)
    assert GF(7).coerce(Fraction(1, 2)) == 4
    assert GF(7).coerce(-1) == 6


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    F = QQ
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero
    if a != 0:
        assert F.mul(a, F.inv(a)) == F.one


@given(st.sampled_from(PRIMES), st.integers(0, 10**6), st.integers(0, 10**6),
       st.integers(0, 10**6))
def test_prime_field_axioms(p, a, b, c):
    F = GF(p)
    a, b, c = F.from_int(a), F.from_int(b), F.from_int(c)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0
    if a:
        assert F.mul(a, F.inv(a)) == F.one


@pytest.mark.parametrize("p", PRIMES)
def test_fermat_little(p):
    F = GF(p)
    for x in range(p):
        acc = F.one
        for _ in range(p):
            acc = F.mul(acc, x)
        assert acc == x


def test_non_prime_modulus_rejected():
    with pytest.raises(ParseError):
        GF(8)
    with pytest.raises(ParseError):
        GF(1)


def test_large_prime_moduli_accepted_quickly():
    # trial division would need about 10^9 steps for each of these
    started = time.perf_counter()
    for p in (10**18 + 3, 10**18 + 9):
        assert GF(p).p == p
    assert time.perf_counter() - started < 1.0


def test_pseudoprimes_rejected():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7
    for n in (561, 3215031751, 10**18 + 1):
        with pytest.raises(ParseError):
            GF(n)


def test_is_prime_matches_sieve():
    limit = 20000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [n for n in range(limit) if _is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_modulus_above_primality_bound_rejected():
    with pytest.raises(ParseError, match="bound"):
        GF(3317044064679887385961981 + 2)
