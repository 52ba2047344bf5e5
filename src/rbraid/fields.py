"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Scalars are plain Python values: `fractions.Fraction` over the rationals
(always reduced, positive denominator) and canonical residues in
``range(p)`` over GF(p).  A `Field` object supplies the operations, which
keeps the inner loops of exact linear algebra free of per-element wrapper
objects.  Everything is immutable and pure; no floating point is used
anywhere.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import DescriptorMismatch, DivisionByZero, ParseError

_SCALAR_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson & Webster 2015, psi_13 = 3317044064679887385961981).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality test for 0 <= p < _MR_BOUND."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the supported exact fields.

    `zero` and `one` are the canonical constants; `add`/`sub`/`mul`/`neg`/
    `div`/`inv` operate on raw scalar values and always return canonical
    forms.  Subclasses must define `kind`, `characteristic` and the string
    grammar hooks `parse`/`format`.
    """

    kind: str
    characteristic: int

    def is_invertible(self, x) -> bool:
        return x != self.zero

    def check_same(self, other: "Field") -> None:
        if self != other:
            raise DescriptorMismatch(f"{self!r} vs {other!r}")

    def coerce(self, x):
        """Accept an int, Fraction or scalar string and canonicalize it."""
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, Fraction):
            return self.div(self.from_int(x.numerator), self.from_int(x.denominator))
        raise ParseError(f"cannot coerce {x!r} into {self!r}")

    def parse(self, text: str):
        """Parse 'n' or 'n/d' (optional leading sign) into a canonical value."""
        m = _SCALAR_RE.match(text.strip())
        if not m:
            raise ParseError(f"bad scalar literal {text!r}")
        try:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError as exc:  # int() refuses literals of over 4300 digits
            raise ParseError(f"bad scalar literal: {exc}") from exc
        return self.div(self.from_int(num), self.from_int(den))


class RationalField(Field):
    """The rational numbers with arbitrary-precision Fraction values."""

    kind = "Q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero in Q")
        return a / b

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero in Q")
        return 1 / a

    @staticmethod
    def from_int(n: int) -> Fraction:
        return Fraction(n)

    @staticmethod
    def format(x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"

    def to_json(self):
        return {"kind": "Q"}


class PrimeField(Field):
    """GF(p) with residues stored as ints in range(p)."""

    kind = "GF"

    def __init__(self, p: int):
        if p >= _MR_BOUND:
            raise ParseError(f"modulus {p} is above the supported bound {_MR_BOUND}")
        if not _is_prime(p):
            raise ParseError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise DivisionByZero(f"inverse of zero in GF({self.p})")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n: int) -> int:
        return n % self.p

    @staticmethod
    def format(x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def to_json(self):
        return {"kind": "GF", "p": self.p}


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_json(obj) -> Field:
    """Inverse of Field.to_json, used by the CLI input format."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"bad field descriptor {obj!r}")
    if obj["kind"] == "Q":
        return QQ
    if obj["kind"] == "GF":
        p = obj.get("p")
        if type(p) is not int:  # not bool, not float
            raise ParseError(f"bad GF modulus {p!r}")
        return GF(p)
    raise ParseError(f"unknown field kind {obj['kind']!r}")
