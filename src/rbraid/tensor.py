"""Calculus of elements of n-fold tensor powers of an algebra.

A TensorElement of arity m over an algebra of dimension n is a sparse map
from basis monomials to coefficients: the key (i1, .., im) stands for
e_{i1} (x) ... (x) e_{im} and only nonzero coefficients are stored, so
two elements are equal exactly when their maps are.  Serialization and
failure witnesses walk the monomials in sorted digit order (leg 1 most
significant).  `tensor_mul` joins the two factors leg by leg and never
expands a pair of monomials whose product vanishes on some leg.
"""
from __future__ import annotations

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


def _accumulate(out: dict, key, c, add) -> None:
    prev = out.get(key)
    out[key] = c if prev is None else add(prev, c)


def _pruned(out: dict) -> dict:
    return {key: c for key, c in out.items() if c}


def _marked(terms, one) -> tuple:
    """(k, c) terms with a coefficient equal to one replaced by None, so
    that hot loops skip the multiplication by it."""
    return tuple((k, None if c == one else c) for k, c in terms)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_digits(n: int, arity: int, digits: tuple) -> None:
    if len(digits) != arity:
        raise ShapeMismatch(f"{len(digits)} digits for arity {arity}")
    for d in digits:
        if not 0 <= d < n:
            raise ShapeMismatch(f"basis index {d} out of range")


class TensorElement:
    """Element of the m-fold tensor power of a fixed algebra.

    `coeffs` maps digit tuples of length `arity` to nonzero canonical
    scalars.  The constructor takes the map over as it is; `from_terms`
    and `from_json` check the digits.
    """

    __slots__ = ("algebra", "arity", "coeffs")

    def __init__(self, algebra: Algebra, arity: int, coeffs: dict):
        if arity < 1:
            raise ShapeMismatch("arity must be >= 1")
        self.algebra = algebra
        self.arity = arity
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_terms(cls, algebra: Algebra, arity: int, terms) -> "TensorElement":
        """Build from an iterable of (digits, coefficient) pairs."""
        add = algebra.field.add
        out = {}
        for digits, c in terms:
            digits = tuple(digits)
            _check_digits(algebra.dim, arity, digits)
            _accumulate(out, digits, c, add)
        return cls(algebra, arity, _pruned(out))

    # -- access -------------------------------------------------------------

    def iter_nonzero(self):
        """(digits, coefficient) pairs in sorted digit order."""
        return iter(sorted(self.coeffs.items()))

    def nnz(self) -> int:
        return len(self.coeffs)

    def coefficient(self, digits):
        digits = tuple(digits)
        _check_digits(self.algebra.dim, self.arity, digits)
        return self.coeffs.get(digits, self.algebra.field.zero)

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- linear structure -------------------------------------------------------

    def _check_compatible(self, other: "TensorElement") -> None:
        self.algebra.check_same(other.algebra)
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other):
        self._check_compatible(other)
        add = self.algebra.field.add
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            _accumulate(out, key, c, add)
        return TensorElement(self.algebra, self.arity, _pruned(out))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.algebra.field.neg
        return TensorElement(
            self.algebra, self.arity, {key: neg(c) for key, c in self.coeffs.items()}
        )

    def scale(self, c):
        mul = self.algebra.field.mul
        return TensorElement(
            self.algebra, self.arity,
            _pruned({key: mul(c, v) for key, v in self.coeffs.items()}),
        )

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.algebra.same_as(other.algebra)
            and self.arity == other.arity
            and self.coeffs == other.coeffs
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
        F = A.field
        out = {}
        pos = leg - 1
        for digits, c in self.coeffs.items():
            head = digits[:pos]
            tail = digits[pos + 2:]
            for k, ck in A.basis_products[digits[pos]][digits[pos + 1]]:
                _accumulate(out, head + (k,) + tail, F.mul(c, ck), F.add)
        return TensorElement(A, self.arity - 1, _pruned(out))

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
            tuple(digits[p] for p in source): c for digits, c in self.coeffs.items()
        }
        return TensorElement(self.algebra, self.arity, out)

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
        F = A.field
        unit_slots = [s for s in range(1, target_arity + 1) if s not in slots]
        unit_nz = [(i, u) for i, u in enumerate(A.unit) if u]
        # all ways to fill the unit slots with basis indices of the unit
        fills = [((), F.one)]
        for _ in unit_slots:
            fills = [(combo + (i,), F.mul(c, u)) for combo, c in fills for i, u in unit_nz]
        fills = _marked(fills, F.one)
        # distinct (digits, fill) pairs give distinct monomials and a
        # product of nonzero scalars is nonzero, so nothing accumulates
        out = {}
        new = [0] * target_arity
        for digits, c in self.coeffs.items():
            for d, s in zip(digits, slots):
                new[s - 1] = d
            for combo, cu in fills:
                for d, s in zip(combo, unit_slots):
                    new[s - 1] = d
                out[tuple(new)] = c if cu is None else F.mul(c, cu)
        return TensorElement(A, target_arity, out)

    def act_leg(self, leg: int, a: AlgebraElement, side: str) -> "TensorElement":
        """Multiply one leg by an algebra element on the chosen side."""
        if not 1 <= leg <= self.arity:
            raise LegOutOfRange(f"leg {leg} for arity {self.arity}")
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        A = self.algebra
        A.check_same(a.algebra)
        F = A.field
        table = A.basis_products
        nz = [(i, ai) for i, ai in enumerate(a.coords) if ai]
        # column d of the action: a * e_d (left) or e_d * a (right)
        action = []
        for d in range(A.dim):
            col = {}
            for i, ai in nz:
                for k, ck in (table[i][d] if side == "left" else table[d][i]):
                    _accumulate(col, k, F.mul(ai, ck), F.add)
            action.append(_marked(_pruned(col).items(), F.one))
        pos = leg - 1
        out = {}
        for digits, c in self.coeffs.items():
            head = digits[:pos]
            tail = digits[pos + 1:]
            for k, v in action[digits[pos]]:
                _accumulate(out, head + (k,) + tail, c if v is None else F.mul(c, v), F.add)
        return TensorElement(A, self.arity, _pruned(out))

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
    F = algebra.field
    unit_nz = [(i, u) for i, u in enumerate(algebra.unit) if u]
    terms = [((), F.one)]
    for _ in range(arity):
        terms = [(combo + (i,), F.mul(c, u)) for combo, c in terms for i, u in unit_nz]
    return TensorElement.from_terms(algebra, arity, terms)


def tensor_mul(s: TensorElement, t: TensorElement) -> TensorElement:
    """Legwise product in the tensor-power algebra.

    The monomials of `t` are indexed in a trie with one level per leg.
    Each monomial of `s` walks it leg by leg and follows only the digits
    b with e_a * e_b nonzero, where a is its own digit on that leg, so
    coefficients are multiplied only along branches that survive every
    leg.
    """
    s._check_compatible(t)
    A = s.algebra
    F = A.field
    mul, add = F.mul, F.add
    # products[a][b]: the terms of e_a * e_b, or None where it vanishes
    products = [
        [_marked(terms, F.one) if terms else None for terms in row]
        for row in A.basis_products
    ]
    last = s.arity - 1
    trie: dict = {}
    for digits, c in t.coeffs.items():
        node = trie
        for d in digits[:last]:
            child = node.get(d)
            if child is None:
                child = node[d] = {}
            node = child
        node[digits[last]] = c
    out = {}
    for ds, cs in s.coeffs.items():
        # (trie node, output digits so far, coefficient so far)
        level = [(trie, (), cs)]
        for a in ds:
            row = products[a]
            nxt = []
            for node, combo, c in level:
                for b, child in node.items():
                    terms = row[b]
                    if terms is not None:
                        for k, ck in terms:
                            nxt.append((child, combo + (k,), c if ck is None else mul(c, ck)))
            level = nxt
            if not level:
                break
        for ct, combo, c in level:
            v = mul(c, ct)
            prev = out.get(combo)
            out[combo] = v if prev is None else add(prev, v)
    return TensorElement(A, s.arity, _pruned(out))
