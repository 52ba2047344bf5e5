"""Calculus of elements of n-fold tensor powers of an algebra.

A TensorElement of arity m over an algebra of dimension n is a sparse map
from basis monomials to integer coefficients over one positive common
denominator: the key (i1, .., im) stands for e_{i1} (x) ... (x) e_{im},
its coefficient being the stored integer divided by the denominator, and
only nonzero integers are stored.  The gcd of all entries and the
denominator is 1 (over GF(p) the entries are residues over 1), so two
elements are equal exactly when their denominators and maps are.  Every
operation runs on the integers and the integer structure constants of
the algebra, reducing each output once; field values appear only where
an element is built from them or read back through `coeffs`,
`coefficient`, `iter_nonzero` and `to_json`.  Serialization and failure
witnesses walk the monomials in sorted digit order (leg 1 most
significant).  `tensor_mul` is one kernel for every arity: each
monomial of the left factor walks a trie of the right factor depth
first, and a branch whose product vanishes on some leg is never
expanded.  The right factor is split into one trie per block signature
(`Algebra._blocks`), so a monomial walks only the monomials that can
survive every leg; an algebra of one block keeps a single trie.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .algebra import Algebra, AlgebraElement
from .errors import (
    ArityMismatch,
    BadPermutation,
    BadSlots,
    DivisionByZero,
    LegOutOfRange,
    ParseError,
    ShapeMismatch,
)
from .linalg import _reduced, _to_ints


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_digits(n: int, arity: int, digits: tuple) -> None:
    if len(digits) != arity:
        raise ShapeMismatch(f"{len(digits)} digits for arity {arity}")
    for d in digits:
        if not 0 <= d < n:
            raise ShapeMismatch(f"basis index {d} out of range")


def _int_vector(coords) -> tuple[dict, int]:
    """({index: integer}, denominator) of a coordinate list, zeros dropped."""
    (ints,), den = _to_ints(({i: c for i, c in enumerate(coords) if c},))
    return ints, den


def _unit_power(algebra: Algebra, count: int) -> tuple[dict, int]:
    """1 (x) ... (x) 1 with `count` legs as unreduced integers over their
    denominator; distinct index tuples, so nothing accumulates."""
    unit, uden = _int_vector(algebra.unit)
    fills = {(): 1}
    for _ in range(count):
        fills = {combo + (i,): c * u for combo, c in fills.items() for i, u in unit.items()}
    return fills, uden ** count


class TensorElement:
    """Element of the m-fold tensor power of a fixed algebra, stored in
    the canonical form of the module docstring: `ints` over `den`.

    The constructor takes a map of field values and converts it once, as
    it is; `from_terms` and `from_json` check the digits.
    """

    __slots__ = ("algebra", "arity", "ints", "den")

    def __init__(self, algebra: Algebra, arity: int, coeffs: dict):
        if arity < 1:
            raise ShapeMismatch("arity must be >= 1")
        self.algebra = algebra
        self.arity = arity
        (self.ints,), self.den = _to_ints((coeffs,))

    @classmethod
    def _of(cls, algebra: Algebra, arity: int, ints: dict, den: int = 1) -> "TensorElement":
        """Element of the zero-free integer map `ints` over the positive
        `den` (residues over 1 in GF(p)), taking ownership of `ints`
        without checking its digits; the common factor of the entries
        and `den` is divided out."""
        if den != 1:
            g = gcd(den, *ints.values())
            if g != 1:
                den //= g
                ints = {k: v // g for k, v in ints.items()}
        t = object.__new__(cls)
        t.algebra, t.arity, t.ints, t.den = algebra, arity, ints, den
        return t

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_terms(cls, algebra: Algebra, arity: int, terms) -> "TensorElement":
        """Build from an iterable of (digits, coefficient) pairs."""
        add = algebra.field.add
        out = {}
        for digits, c in terms:
            digits = tuple(digits)
            _check_digits(algebra.dim, arity, digits)
            prev = out.get(digits)
            out[digits] = c if prev is None else add(prev, c)
        return cls(algebra, arity, out)

    # -- access -------------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """The coefficients in field values, digits -> nonzero value (read
        only; over GF(p) this is the stored map)."""
        if self.algebra.field.characteristic:
            return self.ints
        d = self.den
        return {k: Fraction(v, d) for k, v in self.ints.items()}

    def iter_nonzero(self):
        """(digits, coefficient) pairs in sorted digit order."""
        return iter(sorted(self.coeffs.items()))

    def nnz(self) -> int:
        return len(self.ints)

    def coefficient(self, digits):
        digits = tuple(digits)
        _check_digits(self.algebra.dim, self.arity, digits)
        return self.coeffs.get(digits, self.algebra.field.zero)

    def is_zero(self) -> bool:
        return not self.ints

    # -- linear structure -------------------------------------------------------

    def _check_compatible(self, other: "TensorElement") -> None:
        self.algebra.check_same(other.algebra)
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other):
        self._check_compatible(other)
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        out = {k: ka * v for k, v in self.ints.items()}
        get = out.get
        for k, v in other.ints.items():
            out[k] = get(k, 0) + kb * v
        mod = self.algebra.field.characteristic
        return TensorElement._of(self.algebra, self.arity, _reduced(out, mod), den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-self.algebra.field.one)

    def scale(self, c):
        """c times the element, for a field value (or int) c."""
        k = c.numerator
        out = _reduced({key: k * v for key, v in self.ints.items()},
                       self.algebra.field.characteristic)
        return TensorElement._of(self.algebra, self.arity, out, self.den * c.denominator)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.algebra.same_as(other.algebra)
            and self.arity == other.arity
            and self.den == other.den
            and self.ints == other.ints
        )

    def __repr__(self):
        return f"TensorElement(arity={self.arity}, nnz={self.nnz()}, {self.algebra.label!r})"

    # -- multiplicative structure ------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return tensor_mul(self, other)

    def contract_legs(self, leg: int) -> "TensorElement":
        """Replace legs `leg`, `leg`+1 (1-based) by their algebra product."""
        if not 1 <= leg < self.arity:
            raise LegOutOfRange(f"leg {leg} for arity {self.arity}")
        A = self.algebra
        prods, mod, scale = A._int_products()
        out = {}
        get = out.get
        pos = leg - 1
        for digits, c in self.ints.items():
            head = digits[:pos]
            tail = digits[pos + 2:]
            for k, ck in prods[digits[pos]][digits[pos + 1]]:
                key = head + (k,) + tail
                out[key] = get(key, 0) + c * ck
        return TensorElement._of(A, self.arity - 1, _reduced(out, mod), self.den * scale)

    def permute_legs(self, perm) -> "TensorElement":
        """Send leg p to position perm[p-1]; `perm` is 1-based."""
        perm = tuple(perm)
        if sorted(perm) != list(range(1, self.arity + 1)):
            raise BadPermutation(f"{perm} is not a permutation of 1..{self.arity}")
        # position q of the result holds old leg source[q]
        source = [0] * self.arity
        for p, q in enumerate(perm):
            source[q - 1] = p
        out = {
            tuple(digits[p] for p in source): c for digits, c in self.ints.items()
        }
        return TensorElement._of(self.algebra, self.arity, out, self.den)

    def embed_legs(self, target_arity: int, slots) -> "TensorElement":
        """Place the legs at the listed slots, the unit everywhere else."""
        slots = tuple(slots)
        if len(slots) != self.arity:
            raise BadSlots(f"{len(slots)} slots for arity {self.arity}")
        if any(not 1 <= s <= target_arity for s in slots):
            raise BadSlots(f"slots {slots} outside 1..{target_arity}")
        if any(a >= b for a, b in zip(slots, slots[1:])):
            raise BadSlots(f"slots {slots} must be strictly increasing")
        A = self.algebra
        unit_slots = [s for s in range(1, target_arity + 1) if s not in slots]
        # all ways to fill the unit slots with basis indices of the unit
        fills, fden = _unit_power(A, len(unit_slots))
        # distinct (digits, fill) pairs give distinct monomials, so nothing
        # accumulates
        out = {}
        new = [0] * target_arity
        for digits, c in self.ints.items():
            for d, s in zip(digits, slots):
                new[s - 1] = d
            for combo, cu in fills.items():
                for d, s in zip(combo, unit_slots):
                    new[s - 1] = d
                out[tuple(new)] = c * cu
        mod = A.field.characteristic
        return TensorElement._of(A, target_arity, _reduced(out, mod), self.den * fden)

    def act_leg(self, leg: int, a: AlgebraElement, side: str) -> "TensorElement":
        """Multiply one leg by an algebra element on the chosen side."""
        if not 1 <= leg <= self.arity:
            raise LegOutOfRange(f"leg {leg} for arity {self.arity}")
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        A = self.algebra
        A.check_same(a.algebra)
        prods, mod, scale = A._int_products()
        coords, aden = _int_vector(a.coords)
        # column d of the action: a * e_d (left) or e_d * a (right)
        if aden == 1 and list(coords.values()) == [1]:
            # a basis element e_i: the columns are reduced rows of the table
            (i,) = coords
            action = prods[i] if side == "left" else [row[i] for row in prods]
        else:
            action = []
            for d in range(A.dim):
                col = {}
                for i, ai in coords.items():
                    for k, ck in (prods[i][d] if side == "left" else prods[d][i]):
                        col[k] = col.get(k, 0) + ai * ck
                action.append(tuple(_reduced(col, mod).items()))
        pos = leg - 1
        out = {}
        get = out.get
        for digits, c in self.ints.items():
            head = digits[:pos]
            tail = digits[pos + 1:]
            for k, v in action[digits[pos]]:
                key = head + (k,) + tail
                out[key] = get(key, 0) + c * v
        return TensorElement._of(A, self.arity, _reduced(out, mod), self.den * aden * scale)

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        fmt = self.algebra.field.format
        entries = [
            {"monomial": list(digits), "value": fmt(c)}
            for digits, c in self.iter_nonzero()
        ]
        return {"arity": self.arity, "coeffs": entries}

    @classmethod
    def from_json(cls, algebra: Algebra, obj) -> "TensorElement":
        """Inverse of `to_json`; malformed input raises ParseError."""
        if not isinstance(obj, dict):
            raise ParseError(f"tensor: expected an object, got {type(obj).__name__}")
        try:
            arity = obj["arity"]
            entries = obj["coeffs"]
            if not _is_int(arity) or arity < 1:
                raise ParseError(f"tensor: bad arity {arity!r}")
            if not isinstance(entries, list):
                raise ParseError(f"tensor: coeffs must be a list, got {type(entries).__name__}")
            F = algebra.field
            terms = []
            for entry in entries:
                if not isinstance(entry, dict):
                    raise ParseError(f"tensor: bad entry {entry!r}")
                monomial = entry["monomial"]
                value = entry["value"]
                if not isinstance(monomial, list) or not all(map(_is_int, monomial)):
                    raise ParseError(f"tensor: bad monomial {monomial!r}")
                if not isinstance(value, str):
                    raise ParseError(f"tensor: value {value!r} is not a scalar string")
                try:
                    terms.append((monomial, F.parse(value)))
                except (ParseError, DivisionByZero) as exc:
                    raise ParseError(f"tensor: value: {exc}") from exc
            return cls.from_terms(algebra, arity, terms)
        except KeyError as exc:
            raise ParseError(f"tensor: missing key {exc.args[0]!r}") from exc
        except ShapeMismatch as exc:
            raise ParseError(f"tensor: {exc}") from exc


def unit_tensor(algebra: Algebra, arity: int) -> TensorElement:
    """The multiplicative identity 1 (x) ... (x) 1 of the arity-fold power."""
    if arity < 1:
        raise ShapeMismatch("arity must be >= 1")
    ints, den = _unit_power(algebra, arity)
    return TensorElement._of(algebra, arity, _reduced(ints, algebra.field.characteristic), den)


def tensor_mul(s: TensorElement, t: TensorElement) -> TensorElement:
    """Legwise product in the tensor-power algebra.

    The monomials of `t` are indexed in a trie with one level per leg.
    Each monomial of `s` walks it depth first with its rows of the
    product table, one row per leg, and follows only the digits b with
    e_a * e_b nonzero, where a is its own digit on that leg, so
    coefficients are multiplied only along branches that survive every
    leg.  The output digits go into one list, which becomes a key only
    at a leaf; the innermost call takes the last two legs together.

    Since e_a * e_b != 0 only when a's left block equals b's right block
    (`Algebra._blocks`), `t` is split into one trie per signature, the
    right blocks of a monomial's digits, and a monomial of `s` walks only
    the trie whose signature is its own digits' left blocks: every pair
    skipped this way vanishes on some leg, so the sum is the same.
    """
    s._check_compatible(t)
    A = s.algebra
    # products[a][b]: the integer terms of e_a * e_b, empty where it vanishes
    products, mod, scale = A._int_products()
    m = s.arity
    last = m - 1
    out = {}
    get = out.get
    if m == 1:
        for (a,), cs in s.ints.items():
            row = products[a]
            for (b,), ct in t.ints.items():
                for k, ck in row[b]:
                    digits = (k,)
                    out[digits] = get(digits, 0) + cs * ct * ck
    else:
        left, right = A._blocks()
        split = any(right)  # more than one block; with one, no signature is built
        tries: dict = {}
        for digits, c in t.ints.items():
            node = tries.setdefault(tuple(map(right.__getitem__, digits)) if split else (), {})
            for d in digits[:last]:
                child = node.get(d)
                if child is None:
                    child = node[d] = {}
                node = child
            node[digits[last]] = c
        key = [0] * m

        def walk(node, rows, pos, c):
            row = rows[pos]
            if pos < last - 1:
                for b, child in node.items():
                    for k, ck in row[b]:
                        key[pos] = k
                        walk(child, rows, pos + 1, c * ck)
                return
            # the last two legs; the leaves are the coefficients of `t`
            row2 = rows[last]
            for b, leaves in node.items():
                terms = row[b]
                if not terms:
                    continue
                for b2, ct in leaves.items():
                    terms2 = row2[b2]
                    if not terms2:
                        continue
                    ct *= c
                    for k, ck in terms:
                        key[pos] = k
                        ck *= ct
                        for k2, ck2 in terms2:
                            key[last] = k2
                            digits = tuple(key)
                            out[digits] = get(digits, 0) + ck * ck2

        for ds, cs in s.ints.items():
            trie = tries.get(tuple(map(left.__getitem__, ds)) if split else ())
            if trie is not None:
                walk(trie, [products[a] for a in ds], 0, cs)
    den = s.den * t.den * scale ** m
    return TensorElement._of(A, m, _reduced(out, mod), den)
