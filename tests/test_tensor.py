"""Tensor-power calculus: products, leg actions, permutations, embeddings."""
import random
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rbraid import (
    GF,
    QQ,
    TensorElement,
    build_direct_sum,
    build_matrix_algebra,
    build_poly_quotient,
    build_quaternion,
    build_tensor_product,
    matrix_closed_form,
    opposite,
    tensor_mul,
    unit_tensor,
)
from rbraid.errors import (
    ArityMismatch,
    BadPermutation,
    BadSlots,
    LegOutOfRange,
)
from rbraid.rmatrix import _literal_pair_product
from conftest import dense_table, nonzero_terms, unitriangular_basis


@cache
def basis_products(A):
    """Field-valued (k, c) nonzeros of each basis product e_a * e_b of A."""
    return nonzero_terms(dense_table(A))


@pytest.fixture(scope="module")
def m2():
    return build_matrix_algebra(2, QQ)


@pytest.fixture(scope="module")
def r_m2(m2):
    return matrix_closed_form(2, QQ)


def random_tensor(A, arity, rng):
    terms = [
        (digits, A.field.from_int(rng.randrange(-3, 4)))
        for digits in product(range(A.dim), repeat=arity)
    ]
    return TensorElement.from_terms(A, arity, terms)


def test_unit_tensor_is_identity(m2):
    rng = random.Random(7)
    unit = unit_tensor(m2, 3)
    for _ in range(5):
        t = random_tensor(m2, 3, rng)
        assert tensor_mul(unit, t) == t
        assert tensor_mul(t, unit) == t


def test_unit_tensor_contracts_to_unit(m2):
    assert unit_tensor(m2, 3).contract_legs(1) == unit_tensor(m2, 2)


def test_unit_tensor_scalar_algebra():
    k = build_matrix_algebra(1, QQ)
    u = unit_tensor(k, 3)
    assert u.coeffs == {(0, 0, 0): Fraction(1)}


def test_tensor_mul_associative_spot(m2):
    rng = random.Random(11)
    for A in (m2, build_quaternion(-1, -1, QQ)):
        for arity in (1, 2, 3):
            x = random_tensor(A, arity, rng)
            y = random_tensor(A, arity, rng)
            z = random_tensor(A, arity, rng)
            assert tensor_mul(tensor_mul(x, y), z) == tensor_mul(x, tensor_mul(y, z))


def test_simple_leg_product(m2):
    # (a (x) 1 (x) 1) * (1 (x) b (x) 1) = a (x) b (x) 1
    F = QQ
    a = m2.basis_element(1)
    b = m2.basis_element(2)
    ta = unit_tensor(m2, 3).act_leg(1, a, "left")
    tb = unit_tensor(m2, 3).act_leg(2, b, "left")
    expected = unit_tensor(m2, 3).act_leg(1, a, "left").act_leg(2, b, "left")
    assert tensor_mul(ta, tb) == expected


def test_closed_form_times_swapped_is_unit(m2, r_m2):
    # the leg-swapped tensor is a two-sided inverse of the matrix R
    s = r_m2.permute_legs((2, 1, 3))
    assert tensor_mul(r_m2, s) == unit_tensor(m2, 3)
    assert tensor_mul(s, r_m2) == unit_tensor(m2, 3)


def test_contract_legs_examples(m2, r_m2):
    unit2 = unit_tensor(m2, 2)
    assert r_m2.contract_legs(1) == unit2  # legs 1*2 (x) 3
    assert r_m2.contract_legs(2) == unit2  # leg 1 (x) 2*3
    # generic: contract (a (x) b (x) c) at leg 1 gives ab (x) c
    a, b, c = m2.basis_element(1), m2.basis_element(2), m2.basis_element(3)
    t = (
        unit_tensor(m2, 3)
        .act_leg(1, a, "left")
        .act_leg(2, b, "left")
        .act_leg(3, c, "left")
    )
    ab = a * b
    expected = unit_tensor(m2, 2).act_leg(1, ab, "left").act_leg(2, c, "left")
    assert t.contract_legs(1) == expected


def test_contract_leg_out_of_range(m2, r_m2):
    with pytest.raises(LegOutOfRange):
        r_m2.contract_legs(3)
    with pytest.raises(LegOutOfRange):
        r_m2.contract_legs(0)


def test_permute_identity_and_involution(m2, r_m2):
    assert r_m2.permute_legs((1, 2, 3)) == r_m2
    swapped = r_m2.permute_legs((2, 1, 3))
    assert swapped.permute_legs((2, 1, 3)) == r_m2


def test_permute_cyclic_invariance(m2, r_m2):
    # both cyclic rotations fix the matrix-algebra tensor
    assert r_m2.permute_legs((3, 1, 2)) == r_m2
    assert r_m2.permute_legs((2, 3, 1)) == r_m2


def test_permute_is_an_action(m2):
    rng = random.Random(3)
    t = random_tensor(m2, 3, rng)
    perms = [(2, 1, 3), (3, 1, 2), (1, 3, 2), (2, 3, 1)]
    for sigma in perms:
        for tau in perms:
            composed = tuple(tau[sigma[p] - 1] for p in range(3))
            assert t.permute_legs(sigma).permute_legs(tau) == t.permute_legs(composed)


def test_permute_rejects_non_permutation(m2, r_m2):
    with pytest.raises(BadPermutation):
        r_m2.permute_legs((1, 1, 3))


def test_embed_identity_slots(m2, r_m2):
    assert r_m2.embed_legs(3, (1, 2, 3)) == r_m2


def test_embed_unit(m2):
    u2 = unit_tensor(m2, 2)
    assert u2.embed_legs(3, (1, 3)) == unit_tensor(m2, 3)


def test_embed_product_identity(m2, r_m2):
    # R(124) = R(123) R(134) for the solved matrix tensor
    lhs = r_m2.embed_legs(4, (1, 2, 4))
    rhs = tensor_mul(r_m2.embed_legs(4, (1, 2, 3)), r_m2.embed_legs(4, (1, 3, 4)))
    assert lhs == rhs


def test_embed_bad_slots(m2, r_m2):
    with pytest.raises(BadSlots):
        r_m2.embed_legs(4, (1, 2))
    with pytest.raises(BadSlots):
        r_m2.embed_legs(4, (2, 1, 3))
    with pytest.raises(BadSlots):
        r_m2.embed_legs(4, (1, 2, 5))


def test_act_leg_centralizing_example(m2, r_m2):
    # left action on leg 2 equals right action on leg 3 for the solved
    # tensor, here probed with the matrix unit e_12 (basis index 1)
    a = m2.basis_element(1)
    assert r_m2.act_leg(2, a, "left") == r_m2.act_leg(3, a, "right")


def test_act_leg_unit_and_simple(m2):
    rng = random.Random(5)
    t = random_tensor(m2, 3, rng)
    assert t.act_leg(1, m2.element(m2.unit), "left") == t
    a = m2.basis_element(2)
    u2 = unit_tensor(m2, 2)
    acted = u2.act_leg(1, a, "left")
    expected = TensorElement.from_terms(
        m2, 2, [((2, 0), QQ.one), ((2, 3), QQ.one)]
    )  # e_21 (x) (e_11 + e_22)
    assert acted == expected


def test_act_leg_out_of_range(m2, r_m2):
    with pytest.raises(LegOutOfRange):
        r_m2.act_leg(4, m2.basis_element(0), "left")


def test_contract_commutes_with_distant_act(m2):
    rng = random.Random(13)
    t = random_tensor(m2, 3, rng)
    a = m2.basis_element(1)
    # acting on leg 3 commutes with contracting legs 1,2
    lhs = t.act_leg(3, a, "right").contract_legs(1)
    rhs = t.contract_legs(1).act_leg(2, a, "right")
    assert lhs == rhs


def test_arity_mismatch(m2, r_m2):
    with pytest.raises(ArityMismatch):
        tensor_mul(r_m2, unit_tensor(m2, 2))


def test_serialization_round_trip(m2, r_m2):
    obj = r_m2.to_json()
    assert obj["arity"] == 3
    assert len(obj["coeffs"]) == r_m2.nnz() == 8
    back = TensorElement.from_json(m2, obj)
    assert back == r_m2
    # entries are sorted by monomial, leg 1 most significant
    monomials = [tuple(e["monomial"]) for e in obj["coeffs"]]
    assert monomials == sorted(monomials)


def test_serialization_gf(m2):
    F = GF(5)
    A5 = build_matrix_algebra(2, F)
    r5 = matrix_closed_form(2, F)
    back = TensorElement.from_json(A5, r5.to_json())
    assert back == r5


# -- the product kernel against the all-pairs product ------------------------

# Matrix algebras and direct sums have many vanishing basis products; the
# quaternion and polynomial products never vanish and the quotient's
# products have several terms, as have those of M2 in a unitriangular basis
# (dense products and a multi-term unit).
JOIN_ALGEBRAS = [
    algebra
    for F in (QQ, GF(5))
    for algebra in (
        build_matrix_algebra(2, F),
        build_matrix_algebra(3, F),
        build_quaternion(-1, 3, F),
        build_poly_quotient([1, 2, 0, 1], F),
        build_direct_sum(build_matrix_algebra(2, F), build_poly_quotient([0, 0, 1], F)),
        unitriangular_basis(build_matrix_algebra(2, F), 2),
        # two blocks; a transposed block pattern; and three blocks, one of
        # them (k[x]/(x^2), where x * x = 0) with a zero product inside
        build_tensor_product(build_matrix_algebra(2, F), build_quaternion(-1, 3, F)),
        opposite(build_matrix_algebra(3, F)),
        build_direct_sum(build_direct_sum(build_matrix_algebra(2, F), build_quaternion(-1, 3, F)),
                         build_poly_quotient([0, 0, 1], F)),
    )
]


def all_pairs_product(s, t):
    """Reference product: every pair of monomials, expanded leg by leg."""
    A = s.algebra
    F = A.field
    terms = []
    for ds, cs in s.coeffs.items():
        for dt, ct in t.coeffs.items():
            partial = [((), F.mul(cs, ct))]
            for a, b in zip(ds, dt):
                partial = [
                    (combo + (k,), F.mul(c, ck))
                    for combo, c in partial
                    for k, ck in basis_products(A)[a][b]
                ]
            terms.extend(partial)
    return TensorElement.from_terms(A, s.arity, terms)


@st.composite
def factor_pairs(draw):
    A = draw(st.sampled_from(JOIN_ALGEBRAS))
    arity = draw(st.integers(1, 4))
    monomials = st.tuples(*[st.integers(0, A.dim - 1)] * arity)
    values = st.fractions(-3, 3, max_denominator=4) if A.field == QQ else st.integers(0, 4)

    def element():
        terms = draw(st.lists(st.tuples(monomials, values), max_size=12))
        t = TensorElement.from_terms(A, arity, [(d, A.field.coerce(v)) for d, v in terms])
        # a unit part brings in the multi-term unit legs of embedded factors
        return t + unit_tensor(A, arity) if draw(st.booleans()) else t

    return element(), element()


@settings(max_examples=200)
@given(factor_pairs())
def test_tensor_mul_matches_all_pairs_reference(pair):
    s, t = pair
    product = tensor_mul(s, t)
    assert product == all_pairs_product(s, t)
    assert all(product.coeffs.values())  # no stored zeros


ANNIHILATING = [
    (A, pairs) for A in JOIN_ALGEBRAS
    if (pairs := [(a, b) for a in range(A.dim) for b in range(A.dim)
                  if not basis_products(A)[a][b]])
]


@settings(max_examples=100)
@given(st.data())
def test_tensor_mul_of_operands_with_no_surviving_pair(data):
    # every monomial of s has the digit a on one leg and every monomial of
    # t the digit b there, with e_a * e_b = 0; the other legs are free
    A, zero_pairs = data.draw(st.sampled_from(ANNIHILATING))
    a, b = data.draw(st.sampled_from(zero_pairs))
    arity = data.draw(st.integers(1, 4))
    leg = data.draw(st.integers(0, arity - 1))

    def pinned(digit):
        free = elements(data.draw, A, arity, max_size=12)
        return TensorElement.from_terms(A, arity, [(d[:leg] + (digit,) + d[leg + 1:], c)
                                                   for d, c in free.coeffs.items()])

    s, t = pinned(a), pinned(b)
    zero = TensorElement.from_terms(A, arity, [])
    for x, y in ((s, t), (zero, t), (s, zero), (zero, zero)):
        product = tensor_mul(x, y)
        assert product == all_pairs_product(x, y) == zero
        assert product.den == 1


def test_tensor_mul_of_operands_whose_block_signatures_never_meet(m2):
    # in M2 the matrix units e_00, e_01, e_10, e_11 are 0, 1, 2, 3; every
    # pair of monomials below survives on one leg and vanishes on the other
    left, right = m2._blocks()
    one = QQ.one
    s = TensorElement.from_terms(m2, 2, [((0, 0), one), ((1, 1), one)])
    t = TensorElement.from_terms(m2, 2, [((0, 2), one), ((2, 0), one), ((1, 3), one)])
    s_signatures = {tuple(left[a] for a in ds) for ds in s.ints}
    t_signatures = {tuple(right[b] for b in dt) for dt in t.ints}
    assert s_signatures and t_signatures and not s_signatures & t_signatures
    assert all(any(basis_products(m2)[a][b] for a, b in zip(ds, dt))
               for ds in s.ints for dt in t.ints)
    zero = TensorElement.from_terms(m2, 2, [])
    assert tensor_mul(s, t) == all_pairs_product(s, t) == zero


# -- the stored form: integers over one denominator --------------------------

P61 = 2**61 - 1

# Over GF(2) quaternions do not exist; over Q one algebra has structure
# constants with denominators, so the integer constants carry a scale.
STORAGE_ALGEBRAS = [
    build_quaternion("1/2", "-2/3", QQ),
    build_poly_quotient([1, 2, 0, 1], QQ),
    build_direct_sum(build_matrix_algebra(2, QQ), build_poly_quotient([0, 0, 1], QQ)),
    build_matrix_algebra(2, GF(2)),
    build_poly_quotient([1, 1, 0, 1], GF(2)),
    build_quaternion(3, 5, GF(7)),
    build_matrix_algebra(2, GF(7)),
    build_quaternion(-1, 3, GF(P61)),
    build_poly_quotient([2, 0, 1], GF(P61)),
]


def scalars(F):
    if F.characteristic:
        return st.integers(0, F.characteristic - 1)
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def elements(draw, A, arity, max_size=8):
    monomials = st.tuples(*[st.integers(0, A.dim - 1)] * arity)
    terms = draw(st.lists(st.tuples(monomials, scalars(A.field)), max_size=max_size))
    return TensorElement.from_terms(A, arity, terms)


def assert_canonical(t):
    p = t.algebra.field.characteristic
    assert t.den > 0
    assert all(t.ints.values())  # no stored zeros
    if p:
        assert t.den == 1
        assert all(0 < v < p for v in t.ints.values())
    else:
        assert gcd(t.den, *t.ints.values()) == 1


def reference(F, terms) -> dict:
    """Field-value map of (digits, value) terms, summed with F.add."""
    out = {}
    for digits, c in terms:
        out[digits] = F.add(out.get(digits, F.zero), c)
    return {k: c for k, c in out.items() if c != F.zero}


def expand(F, base, legs):
    """(digits, value) terms of base times the product of the legs, each
    leg a (position, [(index, value)]) pair filled into a copy of base."""
    digits, c = base
    partial = [(list(digits), c)]
    for pos, terms in legs:
        partial = [(d[:pos] + [k] + d[pos + 1:], F.mul(v, ck))
                   for d, v in partial for k, ck in terms]
    return [(tuple(d), v) for d, v in partial]


def checked(t, expected):
    assert_canonical(t)
    assert t.coeffs == expected
    return t


@st.composite
def storage_cases(draw):
    A = draw(st.sampled_from(STORAGE_ALGEBRAS))
    arity = draw(st.integers(1, 3))
    return A, arity, elements(draw, A, arity), elements(draw, A, arity), draw(scalars(A.field))


@settings(max_examples=150, deadline=None)
@given(storage_cases())
def test_stored_form_linear_operations(case):
    A, arity, s, t, c = case
    F = A.field
    sv, tv = s.coeffs, t.coeffs
    checked(s, s.coeffs)
    checked(TensorElement(A, arity, dict(sv)), sv)
    checked(s + t, reference(F, list(sv.items()) + list(tv.items())))
    checked(s - t, reference(F, list(sv.items()) + [(k, F.neg(v)) for k, v in tv.items()]))
    checked(-s, reference(F, [(k, F.neg(v)) for k, v in sv.items()]))
    checked(s.scale(c), reference(F, [(k, F.mul(c, v)) for k, v in sv.items()]))
    assert (s - s).is_zero() and (s - s).den == 1
    assert s + t == t + s


@settings(max_examples=150, deadline=None)
@given(storage_cases(), st.data())
def test_stored_form_leg_operations(case, data):
    A, arity, s, t, c = case
    F = A.field
    prods = basis_products(A)
    sv = s.coeffs
    coords = data.draw(st.lists(scalars(F), min_size=A.dim, max_size=A.dim))
    a = A.element(coords)
    leg = data.draw(st.integers(1, arity))
    side = data.draw(st.sampled_from(["left", "right"]))
    terms = []
    for digits, v in sv.items():
        x = digits[leg - 1]
        for i, ai in enumerate(coords):
            if ai != F.zero:
                leg_terms = prods[i][x] if side == "left" else prods[x][i]
                terms += expand(F, (digits, F.mul(v, ai)), [(leg - 1, leg_terms)])
    checked(s.act_leg(leg, a, side), reference(F, terms))

    if arity > 1:
        pos = data.draw(st.integers(1, arity - 1)) - 1
        terms = [((d[:pos] + (k,) + d[pos + 2:]), F.mul(v, ck))
                 for d, v in sv.items() for k, ck in prods[d[pos]][d[pos + 1]]]
        checked(s.contract_legs(pos + 1), reference(F, terms))

    perm = tuple(data.draw(st.permutations(range(1, arity + 1))))
    moved = {}
    for digits, v in sv.items():
        new = [0] * arity
        for p, q in enumerate(perm):
            new[q - 1] = digits[p]
        moved[tuple(new)] = v
    checked(s.permute_legs(perm), moved)

    target = data.draw(st.integers(arity, 4))
    slots = tuple(sorted(data.draw(st.permutations(range(1, target + 1)))[:arity]))
    unit_terms = [(i, u) for i, u in enumerate(A.unit) if u != F.zero]
    terms = []
    for digits, v in sv.items():
        base = [0] * target
        for d, slot in zip(digits, slots):
            base[slot - 1] = d
        free = [(slot - 1, unit_terms) for slot in range(1, target + 1) if slot not in slots]
        terms += expand(F, (base, v), free)
    checked(s.embed_legs(target, slots), reference(F, terms))
    checked(unit_tensor(A, arity), reference(F, expand(F, ([0] * arity, F.one),
                                                        [(p, unit_terms) for p in range(arity)])))


@settings(max_examples=150, deadline=None)
@given(storage_cases())
def test_stored_form_tensor_mul(case):
    A, arity, s, t, c = case
    F = A.field
    terms = []
    for ds, cs in s.coeffs.items():
        for dt, ct in t.coeffs.items():
            legs = [(p, basis_products(A)[a][b]) for p, (a, b) in enumerate(zip(ds, dt))]
            terms += expand(F, ([0] * arity, F.mul(cs, ct)), legs)
    checked(tensor_mul(s, t), reference(F, terms))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_literal_pair_product_matches_embedded_product(data):
    # on arbitrary arity-3 elements, not only on R-matrices
    A = data.draw(st.sampled_from(STORAGE_ALGEBRAS))
    R = elements(data.draw, A, 3, max_size=10)
    F = A.field
    for slots_a, slots_b in (((1, 2, 3), (1, 3, 4)), ((1, 2, 4), (2, 3, 4))):
        terms = []
        for da, ca in R.coeffs.items():
            for db, cb in R.coeffs.items():
                base = [0] * 4
                legs = []
                for s in range(1, 5):
                    if s in slots_a and s in slots_b:
                        legs.append((s - 1, basis_products(A)[da[slots_a.index(s)]][
                            db[slots_b.index(s)]]))
                    elif s in slots_a:
                        base[s - 1] = da[slots_a.index(s)]
                    else:
                        base[s - 1] = db[slots_b.index(s)]
                terms += expand(F, (base, F.mul(ca, cb)), legs)
        literal = checked(_literal_pair_product(R, slots_a, slots_b), reference(F, terms))
        assert literal == tensor_mul(R.embed_legs(4, slots_a), R.embed_legs(4, slots_b))
