"""Finite-dimensional associative unital algebras given by structure constants.

An algebra of dimension n over an exact field stores its structure
constants once, as one sparse integer table: the nonzero terms (k, c) of
each product e_i * e_j = sum_k (c / scale) e_k, over one least common
denominator `scale` (residues over 1 in GF(p)), together with the
coordinates of the unit.  Builders cover matrix algebras, generalized
quaternion algebras, polynomial quotients, tensor products, opposites and
direct sums; `validate_algebra` machine-checks associativity and the unit
laws, which every other module assumes.  One generating set per algebra
(`Algebra.generators`) serves twice: associativity is checked on the
triples whose first entry is a generator (Light's test), and every
fixed-point space (center, invariants, the W-space, the balancing
relations) is cut out by the generators' actions alone.  The zero
pattern of the table splits the basis into blocks (`Algebra._blocks`),
which `tensor.tensor_mul` uses to pair only monomials whose products can
survive.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .checks import CheckReport, CheckResult
from .errors import (
    AlgebraMismatch,
    CharacteristicTwo,
    FieldMismatch,
    NonInvertibleParameter,
    NonMonicModulus,
    ShapeMismatch,
)
from .fields import Field
from .linalg import (Echelon, Matrix, _difference_echelon, _reduced, _to_ints,
                     nullspace_from_echelon)


class Algebra:
    """Structure-constant algebra over an exact field, from the dense table
    table[i][j][k], the coefficient of e_k in e_i * e_j.

    Instances are immutable after construction; validation state and the
    left/right multiplication operators are cached lazily.
    """

    def __init__(self, field: Field, table, unit, label: str = "custom"):
        dim = len(table)
        if dim < 1:
            raise ShapeMismatch("algebra dimension must be >= 1")
        for i, plane in enumerate(table):
            if len(plane) != dim:
                raise ShapeMismatch(f"table[{i}] has {len(plane)} rows, expected {dim}")
            for j, row in enumerate(plane):
                if len(row) != dim:
                    raise ShapeMismatch(f"table[{i}][{j}] has length {len(row)}")
        if len(unit) != dim:
            raise ShapeMismatch(f"unit has length {len(unit)}, expected {dim}")
        mod = field.characteristic
        # canonical values, as the table below: residues mod p, Fractions over Q
        unit = [c % mod for c in unit] if mod else [Fraction(c) for c in unit]
        rows = [{k: c for k, c in enumerate(r) if c} for p in table for r in p]
        flat, scale = ([_reduced(r, mod) for r in rows], 1) if mod else _to_ints(rows)
        products = [[tuple(flat[i * dim + j].items()) for j in range(dim)] for i in range(dim)]
        self._setup(field, products, scale, unit, label)

    @classmethod
    def _of(cls, field: Field, products, scale: int, unit, label: str) -> "Algebra":
        """The algebra of the structure constants `products` over `scale`, in
        the form of `_int_products`, taking ownership of `products`; the
        common factor of the constants and `scale` is divided out."""
        g = 1 if scale == 1 else gcd(scale, *(c for p in products for t in p for _, c in t))
        if g != 1:
            scale //= g
            products = [[tuple((k, c // g) for k, c in t) for t in p] for p in products]
        A = object.__new__(cls)
        A._setup(field, products, scale, unit, label)
        return A

    def _setup(self, field: Field, products, scale: int, unit, label: str) -> None:
        self.field = field
        self.dim = len(products)
        self.unit = list(unit)
        self.label = label
        self._int_prods = products, field.characteristic, scale
        self._generators: tuple[int, ...] | None = None
        self._left_mats: list[Matrix] | None = None
        self._right_mats: list[Matrix] | None = None
        self._validation: CheckReport | None = None
        self._block_labels: tuple[list[int], list[int]] | None = None
        self._bimodules: dict = {}  # label -> Bimodule, filled by `bimodules`

    def _int_products(self):
        """(products, characteristic, scale): products[i][j] holds the (k, c)
        pairs of e_i * e_j in ascending k, each constant times `scale` (the
        least common denominator) with zeros dropped; residues over 1 in GF(p)."""
        return self._int_prods

    def _blocks(self) -> tuple[list[int], list[int]]:
        """(left, right): the block of each basis index as a left and as a
        right factor, numbered 0, 1, .. in order of first appearance, so
        that e_a * e_b != 0 implies left[a] == right[b] (cached).

        The blocks are the connected components of the bipartite graph
        with an edge from a on the left to b on the right wherever e_a * e_b
        is nonzero: the matrix units e_ij, e_kl of M_n meet only when j = k,
        so M_n has n blocks, while a table with no zero product has one.
        """
        if self._block_labels is None:
            n = self.dim
            parent = list(range(2 * n))  # a on the left is a, b on the right n + b

            def root(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, row in enumerate(self._int_prods[0]):
                for b, terms in enumerate(row):
                    if terms:
                        parent[root(a)] = root(n + b)
            number: dict[int, int] = {}
            labels = [number.setdefault(root(x), len(number)) for x in range(2 * n)]
            self._block_labels = labels[:n], labels[n:]
        return self._block_labels

    def generators(self) -> tuple[int, ...]:
        """Basis indices G, picked greedily in basis order, whose right-nested
        products g_1(g_2(..(g_k 1))) span A (cached).

        The span is the least subspace that holds the unit and is closed
        under left multiplication by each generator; building it assumes
        no associativity.  An index joins G when its basis element is not
        yet in the span, so with the unit laws the span ends up full; if
        it does not (the unit laws fail), G is every index.
        """
        if self._generators is None:
            n = self.dim
            prods, mod, _ = self._int_products()
            ech = Echelon(self.field, n)
            (unit,), _ = _to_ints((dict(enumerate(self.unit)),))
            spanning = [unit] if unit and ech.insert(unit) else []
            gens: list[int] = []
            for i in range(n):
                if ech.rank == n:
                    break
                if not ech.reduce({i: 1}):
                    continue
                gens.append(i)
                queue = [_expand(v.items(), prods[i], mod) for v in spanning]
                while queue:
                    v = queue.pop()
                    if v and ech.insert(v):
                        spanning.append(v)
                        queue.extend(_expand(v.items(), prods[g], mod) for g in gens)
            self._generators = tuple(gens) if ech.rank == n else tuple(range(n))
        return self._generators

    def fixed_point_indices(self, lawful: bool = True):
        """Basis indices whose actions cut out every fixed-point space: the
        generators when the algebra passes validation and the actions obey
        the bimodule laws (`lawful`), else every index.

        With those laws the elements a whose actions fix a vector (a.m =
        m.a) or balance a relation ((m.a) (x) n = m (x) (a.n) modulo the
        generators' relations) form a subspace that holds 1 and is closed
        under products, so it holds all of A.
        """
        if lawful and validate_algebra(self).passed:
            return self.generators()
        return range(self.dim)

    # -- identity ---------------------------------------------------------

    def same_as(self, other: "Algebra") -> bool:
        """Structural equality (label ignored), with a fast identity path."""
        if self is other:
            return True
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and self.unit == other.unit
            and self._int_prods == other._int_prods
        )

    def check_same(self, other: "Algebra") -> None:
        if not self.same_as(other):
            raise AlgebraMismatch(f"{self.label!r} vs {other.label!r}")

    def __repr__(self):
        return f"Algebra({self.label!r}, dim={self.dim}, field={self.field!r})"

    # -- elements ----------------------------------------------------------

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, coords)

    def basis_element(self, i: int) -> "AlgebraElement":
        coords = [self.field.zero] * self.dim
        coords[i] = self.field.one
        return AlgebraElement(self, coords)

    def mul_coords(self, x, y):
        F = self.field
        prods, _, scale = self._int_prods
        out = [F.zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = F.mul(xi, yj)
                for k, ck in prods[i][j]:
                    out[k] = F.add(out[k], F.mul(c, ck))
        if scale != 1:
            out = [F.div(v, F.from_int(scale)) for v in out]
        return out

    # -- cached operators ----------------------------------------------------

    def left_mult_matrices(self) -> list[Matrix]:
        """L_i with L_i x = e_i * x in coordinates."""
        if self._left_mats is None:
            self._left_mats = self._mult_matrices(left=True)
        return self._left_mats

    def right_mult_matrices(self) -> list[Matrix]:
        """R_i with R_i x = x * e_i in coordinates."""
        if self._right_mats is None:
            self._right_mats = self._mult_matrices(left=False)
        return self._right_mats

    def _mult_matrices(self, left: bool) -> list[Matrix]:
        """Multiplication by each basis element e_i, on the left or the
        right, built from the integer structure constants."""
        prods, _, scale = self._int_products()
        n = self.dim
        mats = []
        for i in range(n):
            rows = [{} for _ in range(n)]
            for x in range(n):
                for k, c in (prods[i][x] if left else prods[x][i]):
                    rows[k][x] = c
            mats.append(Matrix._of(self.field, n, n, rows, scale))
        return mats

    def is_commutative(self) -> bool:
        prods = self._int_prods[0]
        return prods == [list(column) for column in zip(*prods)]


class AlgebraElement:
    """Coordinate vector in a fixed algebra."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords):
        if len(coords) != algebra.dim:
            raise ShapeMismatch(f"{len(coords)} coords for dim {algebra.dim}")
        self.algebra = algebra
        self.coords = list(coords)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self.algebra.check_same(other.algebra)
        return AlgebraElement(self.algebra, self.algebra.mul_coords(self.coords, other.coords))

    def __add__(self, other):
        self.algebra.check_same(other.algebra)
        F = self.algebra.field
        return AlgebraElement(
            self.algebra, [F.add(a, b) for a, b in zip(self.coords, other.coords)]
        )

    def __sub__(self, other):
        self.algebra.check_same(other.algebra)
        F = self.algebra.field
        return AlgebraElement(
            self.algebra, [F.sub(a, b) for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self):
        F = self.algebra.field
        return AlgebraElement(self.algebra, [F.neg(a) for a in self.coords])

    def scale(self, c):
        F = self.algebra.field
        return AlgebraElement(self.algebra, [F.mul(c, a) for a in self.coords])

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra.same_as(other.algebra) and self.coords == other.coords

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self):
        fmt = self.algebra.field.format
        return "AlgebraElement([" + ", ".join(fmt(c) for c in self.coords) + "])"


def validate_algebra(algebra: Algebra) -> CheckReport:
    """Check the unit laws and associativity, both on the integer table.

    The unit laws are checked as 1 e_i = e_i, then e_i 1 = e_i, for each i
    in turn; the first failing side, in field values, is the witness.
    Once the unit laws pass, only the triples (g, e_j, e_k) with g among
    the generators are checked (Light's test): the left nucleus {x :
    (xy)z = x(yz) for all y, z} is a subspace that holds 1 and is closed
    under products, so it is all of A when it holds the generators.  When
    the unit laws fail, every basis triple is checked.  Either way a triple
    where e_i e_j and e_j e_k both vanish is skipped, since both of its
    sides are 0.  The report carries the first failing triple (i, j, k)
    with both sides as the witness, the same triple either way: the
    generators are picked in basis order, so a basis element that is no
    generator lies in the span of products of smaller generators, and the
    smallest failing index is a generator.  Results are cached on the
    algebra.
    """
    if algebra._validation is not None:
        return algebra._validation
    F = algebra.field
    fmt = F.format
    results = []

    n = algebra.dim
    prods, mod, scale = algebra._int_products()
    by_right = [[prods[m][k] for m in range(n)] for k in range(n)]  # e_m * e_k by k, m

    # 1 e_i and e_i 1 on the table's integers: both sides carry the scale
    # of the unit times the table's scale, and e_i is that scale at i
    (unit,), uscale = _to_ints((dict(enumerate(algebra.unit)),))
    unit_terms = list(unit.items())
    one = uscale * scale  # 1 over GF(p), where both scales are 1

    def values(side):
        return [fmt(F.div(F.from_int(side.get(t, 0)), F.from_int(one))) for t in range(n)]

    witness = None
    for i in range(n):
        e = {i: one}
        lhs = _expand(unit_terms, by_right[i], mod)  # 1 e_i
        if lhs != e:
            witness = f"1*e_{i} = {values(lhs)}"
            break
        rhs = _expand(unit_terms, prods[i], mod)     # e_i 1
        if rhs != e:
            witness = f"e_{i}*1 = {values(rhs)}"
            break
    unit_ok = witness is None
    results.append(CheckResult("unit", unit_ok, witness))

    # for a zero e_i e_j only the k with e_j e_k nonzero, in ascending order
    survivors = [[k for k in range(n) if row[k]] for row in prods]

    def first_failure(firsts):
        """Witness of the first failing triple (i, j, k) with i in `firsts`."""
        every = range(n)
        for i, j, k in ((i, j, k) for i in firsts for j in every
                        for k in (every if prods[i][j] else survivors[j])):
            # over Q both sides carry scale**2
            lhs = _expand(prods[i][j], by_right[k], mod)  # (e_i e_j) e_k
            rhs = _expand(prods[j][k], prods[i], mod)     # e_i (e_j e_k)
            if lhs != rhs:
                square = F.from_int(scale * scale)
                dense = [[fmt(F.div(F.from_int(side.get(t, 0)), square)) for t in range(n)]
                         for side in (lhs, rhs)]
                return (f"(e_{i}e_{j})e_{k} = {dense[0]} != "
                        f"e_{i}(e_{j}e_{k}) = {dense[1]}")
        return None

    witness = first_failure(algebra.generators() if unit_ok else range(n))
    results.append(CheckResult("associativity", witness is None, witness))

    report = CheckReport(results)
    algebra._validation = report
    return report


def _expand(terms, products, mod: int) -> dict:
    """sum_m c_m products[m] over the (m, c_m) pairs of `terms`, products[m]
    being the integer structure constants (k, c) of one product: a sparse
    {k: integer} map with zeros dropped, reduced with a modulus (nonzero
    `mod`).  With products[m] = e_g e_m this is e_g times the vector."""
    out = {}
    get = out.get
    for m, c in terms:
        for k, ck in products[m]:
            out[k] = get(k, 0) + c * ck
    if mod:
        return {k: w for k, v in out.items() if (w := v % mod)}
    return {k: v for k, v in out.items() if v}


def center(algebra: Algebra):
    """Canonical basis of {z : z e_i = e_i z for all i} (list of vectors)."""
    L, R = algebra.left_mult_matrices(), algebra.right_mult_matrices()
    pairs = ((L[i], R[i]) for i in algebra.fixed_point_indices())
    return nullspace_from_echelon(_difference_echelon(algebra.field, algebra.dim, pairs))


# -- builders -----------------------------------------------------------------


def build_matrix_algebra(n: int, field: Field) -> Algebra:
    """M_n over `field`; basis is the matrix units in row-major order, with
    e_ij * e_kl = delta_jk e_il."""
    if n < 1:
        raise ShapeMismatch("matrix size must be >= 1")
    products = [[((i * n + l, 1),) if j == k else () for k in range(n) for l in range(n)]
                for i in range(n) for j in range(n)]
    unit = [field.one if a % (n + 1) == 0 else field.zero for a in range(n * n)]  # the e_ii
    return Algebra._of(field, products, 1, unit, label=f"matrix({n})/{field!r}")


def _quat_word(index: int) -> str:
    return ("", "i", "j", "ij")[index]


def _quat_reduce(word: str, a, b, field: Field):
    """Normal form of a word in the letters i, j.

    Rewrites with ji -> -ij, ii -> a, jj -> b until the word is one of
    '', 'i', 'j', 'ij'; returns (basis index, scalar).  This derives the
    full multiplication table from the defining relations alone.
    """
    F = field
    coeff = F.one
    letters = list(word)
    changed = True
    while changed:
        changed = False
        for t in range(len(letters) - 1):
            if letters[t] == "j" and letters[t + 1] == "i":
                letters[t], letters[t + 1] = "i", "j"
                coeff = F.neg(coeff)
                changed = True
                break
            if letters[t] == letters[t + 1]:
                coeff = F.mul(coeff, a if letters[t] == "i" else b)
                del letters[t : t + 2]
                changed = True
                break
    tail = "".join(letters)
    return {"": 0, "i": 1, "j": 2, "ij": 3}[tail], coeff


def build_quaternion(a, b, field: Field) -> Algebra:
    """Generalized quaternion algebra with i*i = a, j*j = b, ij = -ji = k.

    Basis order is (1, i, j, k); every product is derived from the three
    relations by word rewriting, nothing else is assumed.
    """
    F = field
    a = F.coerce(a)
    b = F.coerce(b)
    if F.characteristic == 2:
        raise CharacteristicTwo("quaternion algebras need 2 invertible")
    if not F.is_invertible(a) or not F.is_invertible(b):
        raise NonInvertibleParameter(f"a={F.format(a)}, b={F.format(b)}")
    table = [[[F.zero] * 4 for _ in range(4)] for _ in range(4)]
    for x in range(4):
        for y in range(4):
            k, c = _quat_reduce(_quat_word(x) + _quat_word(y), a, b, F)
            table[x][y][k] = c
    unit = [F.one, F.zero, F.zero, F.zero]
    return Algebra(
        F, table, unit, label=f"quaternion({F.format(a)},{F.format(b)})/{field!r}"
    )


def build_poly_quotient(modulus, field: Field) -> Algebra:
    """k[x]/(m(x)) for a monic modulus given by ascending coefficients.

    `modulus` lists c_0 .. c_d with c_d = 1, so [0, 0, 1] is x^2 and
    [-1, 0, 1] is x^2 - 1.  Basis is 1, x, .., x^(d-1).
    """
    F = field
    coeffs = [F.coerce(c) for c in modulus]
    if len(coeffs) < 2 or coeffs[-1] != F.one:
        raise NonMonicModulus(f"need a monic modulus of degree >= 1, got {modulus!r}")
    d = len(coeffs) - 1
    reducer = [F.neg(c) for c in coeffs[:-1]]  # x^d = reducer in the basis
    powers = []
    for t in range(d):
        vec = [F.zero] * d
        vec[t] = F.one
        powers.append(vec)
    for t in range(d, 2 * d - 1):
        prev = powers[t - 1]
        shifted = [F.zero] + prev[:-1]
        overflow = prev[-1]
        powers.append([F.add(shifted[s], F.mul(overflow, reducer[s])) for s in range(d)])
    table = [[list(powers[i + j]) for j in range(d)] for i in range(d)]
    unit = [F.zero] * d
    unit[0] = F.one
    mod_str = ",".join(F.format(c) for c in coeffs)
    return Algebra(F, table, unit, label=f"poly_quotient([{mod_str}])/{field!r}")


def build_tensor_product(A: Algebra, B: Algebra) -> Algebra:
    """A (x) B with lexicographic basis e_i (x) f_j, A-index major."""
    if A.field != B.field:
        raise FieldMismatch(f"{A.field!r} vs {B.field!r}")
    F = A.field
    pa, mod, sa = A._int_products()
    pb, _, sb = B._int_products()
    nA, nB = A.dim, B.dim

    def leg(ta, tb):
        return tuple((k * nB + l, v * w % mod if mod else v * w)
                     for k, v in ta for l, w in tb)

    products = [[leg(pa[i][k], pb[j][l]) for k in range(nA) for l in range(nB)]
                for i in range(nA) for j in range(nB)]
    unit = [F.mul(x, y) for x in A.unit for y in B.unit]
    return Algebra._of(F, products, sa * sb, unit, label=f"tensor({A.label},{B.label})")


def opposite(A: Algebra) -> Algebra:
    """Same space, reversed multiplication: e_i *_op e_j = e_j e_i."""
    prods, _, scale = A._int_products()
    products = [[prods[j][i] for j in range(A.dim)] for i in range(A.dim)]
    return Algebra._of(A.field, products, scale, A.unit, label=f"op({A.label})")


def build_direct_sum(A: Algebra, B: Algebra) -> Algebra:
    """Block-diagonal product algebra A (+) B with unit (1_A, 1_B)."""
    if A.field != B.field:
        raise FieldMismatch(f"{A.field!r} vs {B.field!r}")
    pa, _, sa = A._int_products()
    pb, _, sb = B._int_products()
    nA, nB = A.dim, B.dim
    scale = lcm(sa, sb)
    ua, ub = scale // sa, scale // sb
    products = ([[tuple((k, c * ua) for k, c in t) for t in p] + [()] * nB for p in pa]
                + [[()] * nA + [tuple((nA + k, c * ub) for k, c in t) for t in p] for p in pb])
    unit = list(A.unit) + list(B.unit)
    return Algebra._of(A.field, products, scale, unit,
                       label=f"direct_sum({A.label},{B.label})")
