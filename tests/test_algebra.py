"""Algebra builders, validation, multiplication and centers."""
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from rbraid import (
    GF,
    QQ,
    Algebra,
    build_direct_sum,
    build_matrix_algebra,
    build_poly_quotient,
    build_quaternion,
    build_tensor_product,
    center,
    opposite,
    validate_algebra,
)
from rbraid.errors import (
    AlgebraMismatch,
    CharacteristicTwo,
    FieldMismatch,
    NonInvertibleParameter,
    NonMonicModulus,
    ShapeMismatch,
)
from conftest import (
    dense_table,
    reference_direct_sum,
    reference_matrix_algebra,
    reference_opposite,
    reference_poly_quotient,
    reference_quaternion,
    reference_tensor_product,
    unitriangular_basis,
    upper_triangular_2x2,
)
from test_generators import builder_algebras, change_basis


def brute_force_center_dim(A):
    """Enumerate every element of a small GF(p) algebra and count the
    commuting ones; the span of a linear subspace over GF(p) with p^d
    elements has dimension d."""
    p = A.field.characteristic
    assert 0 < p and p ** A.dim <= 3**6, "oracle only for tiny algebras"
    basis = [A.basis_element(i) for i in range(A.dim)]
    count = 0
    for coords in product(range(p), repeat=A.dim):
        z = A.element([A.field.from_int(c) for c in coords])
        if all((z * e) == (e * z) for e in basis):
            count += 1
    dim = 0
    while p ** dim < count:
        dim += 1
    assert p ** dim == count, "center is not a subspace?!"
    return dim


# -- validation ------------------------------------------------------------


def test_matrix_algebra_validates():
    for n in (1, 2, 3):
        assert validate_algebra(build_matrix_algebra(n, QQ)).passed
    assert validate_algebra(build_matrix_algebra(3, GF(5))).passed


def test_corrupted_table_fails_with_witness():
    A = build_matrix_algebra(2, QQ)
    table = dense_table(A)
    table[0][1][2] = QQ.one  # inject a wrong product into e_00 * e_01
    bad = Algebra(QQ, table, A.unit, label="corrupted")
    report = validate_algebra(bad)
    assert not report.passed
    failing = report.failures[0]
    assert failing.witness is not None


@pytest.mark.parametrize("field, table, witness", [
    (QQ,
     [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
      [["0", "1", "0"], ["1/2", "0", "-3"], ["0", "2", "1"]],
      [["0", "0", "1"], ["0", "-1", "1"], ["2", "0", "0"]]],
     "(e_1e_1)e_1 = ['0', '7/2', '-3'] != e_1(e_1e_1) = ['0', '-11/2', '-3']"),
    (GF(5),
     [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
      [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
      [["0", "0", "1"], ["0", "1", "0"], ["0", "3", "4"]]],
     "(e_2e_2)e_1 = ['0', '4', '0'] != e_2(e_2e_1) = ['0', '1', '0']"),
    (QQ,
     [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
      [["0", "1", "0"], ["1/3", "-2/5", "0"], ["5/6", "0", "-1/2"]],
      [["0", "0", "1"], ["0", "3/4", "1"], ["-7/3", "0", "2/9"]]],
     "(e_1e_1)e_2 = ['-1/3', '0', '8/15'] != e_1(e_1e_2) = ['-5/12', '5/6', '1/4']"),
    (GF(7),
     [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
      [["0", "1", "0"], ["3", "5", "0"], ["0", "6", "2"]],
      [["0", "0", "1"], ["4", "0", "1"], ["0", "2", "5"]]],
     "(e_1e_1)e_2 = ['0', '2', '6'] != e_1(e_1e_2) = ['4', '0', '4']"),
])
def test_non_associative_custom_witness(field, table, witness):
    # the witness is the first failing triple in (i, j, k) order, with
    # both sides as full coordinate lists
    parsed = [[[field.parse(c) for c in row] for row in plane] for plane in table]
    unit = [field.one, field.zero, field.zero]
    report = validate_algebra(Algebra(field, parsed, unit))
    assert report["unit"].passed
    assert report["associativity"].witness == witness


def test_quaternion_validates():
    assert validate_algebra(build_quaternion(-1, -1, QQ)).passed
    assert validate_algebra(build_quaternion(2, 3, QQ)).passed
    assert validate_algebra(build_quaternion(1, 1, GF(7))).passed


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        Algebra(QQ, [[[QQ.one]]], [QQ.one, QQ.one])


# -- multiplication ----------------------------------------------------------


def test_matrix_unit_products():
    A = build_matrix_algebra(2, QQ)
    e11, e12, e21, e22 = (A.basis_element(i) for i in range(4))
    assert e11 * e12 == e12
    assert e12 * e21 == e11
    assert e12 * e12 == A.element([QQ.zero] * 4)
    assert (e11 + e22) * e12 == e12
    x = A.element([Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
    one = A.element(A.unit)
    assert x * one == x
    assert one * x == x


def test_quaternion_products_derived_from_relations():
    A = build_quaternion(2, 3, QQ)
    one, i, j, k = (A.basis_element(t) for t in range(4))
    a, b = Fraction(2), Fraction(3)
    assert i * i == one.scale(a)
    assert j * j == one.scale(b)
    assert i * j == k
    assert j * i == -k
    # derived identities, never assumed by the builder
    assert i * k == j.scale(a)
    assert k * i == -(j.scale(a))
    assert j * k == -(i.scale(b))
    assert k * j == i.scale(b)
    assert k * k == one.scale(QQ.neg(QQ.mul(a, b)))


def test_hamilton_quaternions():
    A = build_quaternion(-1, -1, QQ)
    one, i, j, k = (A.basis_element(t) for t in range(4))
    assert i * j == k and j * i == -k
    assert j * k == i and k * j == -i
    assert k * i == j and i * k == -j
    assert k * k == -one


def test_quaternion_parameter_errors():
    with pytest.raises(CharacteristicTwo):
        build_quaternion(1, 1, GF(2))
    with pytest.raises(NonInvertibleParameter):
        build_quaternion(0, 1, QQ)


def test_algebra_mismatch():
    A = build_matrix_algebra(2, QQ)
    B = build_quaternion(-1, -1, QQ)
    with pytest.raises(AlgebraMismatch):
        A.basis_element(0) * B.basis_element(0)


def test_structurally_equal_algebras_interoperate():
    A = build_matrix_algebra(2, QQ)
    B = build_matrix_algebra(2, QQ)
    assert A.same_as(B)
    assert A.basis_element(0) * B.basis_element(1) == A.basis_element(1)


def test_unit_is_stored_canonically():
    # the table is stored reduced, so the unit must be too: 8 is 1 in GF(7)
    assert Algebra(GF(7), [[[1]]], [8]).same_as(Algebra(GF(7), [[[1]]], [1]))
    assert Algebra(GF(7), [[[1]]], [8]).unit == [1]
    assert Algebra(QQ, [[[1]]], [1]).unit == [Fraction(1)]
    assert Algebra(QQ, [[[1]]], [1]).same_as(build_matrix_algebra(1, QQ))


# -- polynomial quotients --------------------------------------------------


def test_poly_quotient_x_squared():
    A = build_poly_quotient([0, 0, 1], QQ)
    assert A.dim == 2
    x = A.basis_element(1)
    assert x * x == A.element([QQ.zero, QQ.zero])
    assert validate_algebra(A).passed


def test_poly_quotient_split():
    A = build_poly_quotient([-1, 0, 1], QQ)  # x^2 - 1
    x = A.basis_element(1)
    assert x * x == A.element(A.unit)
    assert A.is_commutative()


def test_poly_quotient_degree_one():
    A = build_poly_quotient([-1, 1], QQ)  # x - 1
    assert A.dim == 1
    assert validate_algebra(A).passed


def test_poly_quotient_rejects_non_monic():
    with pytest.raises(NonMonicModulus):
        build_poly_quotient([1, 2], QQ)
    with pytest.raises(NonMonicModulus):
        build_poly_quotient([1], QQ)


# -- tensor, opposite, direct sum ------------------------------------------


def test_tensor_product_dims_and_validation():
    M2 = build_matrix_algebra(2, QQ)
    T = build_tensor_product(M2, M2)
    assert T.dim == 16
    assert validate_algebra(T).passed
    k = build_matrix_algebra(1, QQ)
    kA = build_tensor_product(k, M2)
    assert kA.dim == M2.dim
    assert kA.same_as(M2) and kA.unit == M2.unit


def test_enveloping_tensor():
    M2 = build_matrix_algebra(2, QQ)
    env = build_tensor_product(M2, opposite(M2))
    assert env.dim == 16
    assert validate_algebra(env).passed


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        build_tensor_product(build_matrix_algebra(2, QQ), build_matrix_algebra(2, GF(5)))
    with pytest.raises(FieldMismatch):
        build_direct_sum(build_matrix_algebra(1, QQ), build_matrix_algebra(1, GF(5)))


def test_opposite_involution():
    A = build_quaternion(2, 3, QQ)
    assert dense_table(opposite(opposite(A))) == dense_table(A)
    C = build_poly_quotient([-1, 0, 1], QQ)
    assert dense_table(opposite(C)) == dense_table(C)  # commutative fixed point
    op = opposite(build_matrix_algebra(2, QQ))
    # e11 * e12 in the opposite equals e12 e11 = 0 in the original
    assert (op.basis_element(0) * op.basis_element(1)).is_zero()
    assert validate_algebra(op).passed


def test_direct_sum():
    k = build_matrix_algebra(1, QQ)
    M2 = build_matrix_algebra(2, QQ)
    S = build_direct_sum(M2, k)
    assert S.dim == 5
    assert validate_algebra(S).passed
    assert validate_algebra(build_direct_sum(k, k)).passed


def test_upper_triangular_preset():
    A = upper_triangular_2x2(QQ)
    assert validate_algebra(A).passed
    e11, e12, e22 = (A.basis_element(i) for i in range(3))
    assert e11 * e12 == e12
    assert e12 * e22 == e12
    assert (e12 * e12).is_zero()
    assert (e22 * e11).is_zero()


# -- builders against dense references ----------------------------------------

REFERENCE_FIELDS = [QQ, GF(2), GF(3), GF(7)]


def scalars(F):
    if F.characteristic:
        return st.integers(0, F.characteristic - 1)
    return st.fractions(-3, 3, max_denominator=4)


def _leaf(draw, F, max_dim):
    kinds = ["matrix", "poly"]
    if max_dim >= 4 and F.characteristic != 2:
        kinds.append("quaternion")
    kind = draw(st.sampled_from(kinds))
    if kind == "matrix":
        n = draw(st.integers(1, 3 if max_dim >= 9 else 2 if max_dim >= 4 else 1))
        return build_matrix_algebra(n, F), reference_matrix_algebra(n, F)
    if kind == "quaternion":
        units = scalars(F).map(F.coerce).filter(F.is_invertible)
        a, b = draw(units), draw(units)
        return build_quaternion(a, b, F), reference_quaternion(a, b, F)
    degree = draw(st.integers(1, min(max_dim, 4)))
    coeffs = [F.coerce(draw(scalars(F))) for _ in range(degree)] + [F.one]
    return build_poly_quotient(coeffs, F), reference_poly_quotient(coeffs, F)


@st.composite
def built_and_dense(draw, F, depth, max_dim, changed=True):
    """(the algebra of a random spec of dimension at most `max_dim`, built
    by the builders; its (table, unit) from the dense references).  Specs
    nest tensor products, direct sums and opposites `depth` deep; leaves
    are matrix, quaternion and polynomial algebras and, from dimension 9
    and where `changed` allows, builder algebras in a changed basis (their
    reference is their own table, so they only serve as operands)."""
    kinds = ["leaf"] + (["changed"] if changed and max_dim >= 9 else [])
    if depth and max_dim >= 2:
        kinds += ["tensor", "direct_sum", "opposite"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        return _leaf(draw, F, max_dim)
    if kind == "changed":
        A = change_basis(draw, draw(builder_algebras(fields=[F])))
        return A, (dense_table(A), A.unit)
    if kind == "opposite":
        A, a = draw(built_and_dense(F, depth - 1, max_dim))
        return opposite(A), reference_opposite(a)
    if kind == "tensor":
        A, a = draw(built_and_dense(F, depth - 1, max_dim // 2))
        B, b = draw(built_and_dense(F, depth - 1, max_dim // A.dim))
        return build_tensor_product(A, B), reference_tensor_product(F, a, b)
    A, a = draw(built_and_dense(F, depth - 1, max_dim - 1))
    B, b = draw(built_and_dense(F, depth - 1, max_dim - A.dim))
    return build_direct_sum(A, B), reference_direct_sum(F, a, b)


def assert_matches_dense(A, dense, vectors):
    """A against the algebra of its dense reference: the same integer
    table, equal both ways, the same commutativity, and products of the
    (x, y) pairs of `vectors` summed over the dense table."""
    F, (table, unit) = A.field, dense
    R = Algebra(F, table, unit)
    assert A._int_products() == R._int_products()
    assert A.same_as(R) and R.same_as(A)
    n = A.dim
    assert A.is_commutative() == all(table[i][j] == table[j][i]
                                     for i in range(n) for j in range(n))
    for x, y in vectors:
        expected = [F.zero] * n
        for i, j, k in product(range(n), repeat=3):
            expected[k] = F.add(expected[k], F.mul(F.mul(x[i], y[j]), table[i][j][k]))
        assert A.mul_coords(x, y) == expected


@given(st.data())
def test_builders_match_dense_references(data):
    F = data.draw(st.sampled_from(REFERENCE_FIELDS))
    A, dense = data.draw(built_and_dense(F, 3, 18, changed=False))
    vector = st.lists(scalars(F).map(F.coerce), min_size=A.dim, max_size=A.dim)
    vectors = data.draw(st.lists(st.tuples(vector, vector), min_size=1, max_size=3))
    assert_matches_dense(A, dense, vectors)


# e*e = 2e with unit e/2: a copy of Q whose constant is no unit of Z, so a
# tensor product with it has constants with a common factor to divide out
DOUBLED = Algebra(QQ, [[[QQ.from_int(2)]]], [Fraction(1, 2)], label="doubled")
H = build_quaternion("1/2", "1/3", QQ), reference_quaternion(Fraction(1, 2), Fraction(1, 3), QQ)
M2 = build_matrix_algebra(2, QQ), reference_matrix_algebra(2, QQ)
K2 = DOUBLED, ([[[QQ.from_int(2)]]], [Fraction(1, 2)])
# x^2 = 1 + x: a two-term product, so a tensor square has four-term ones
P = (build_poly_quotient([-1, -1, 1], QQ),
     reference_poly_quotient([QQ.from_int(c) for c in (-1, -1, 1)], QQ))


@pytest.mark.parametrize("build, reference", [
    pytest.param(lambda: build_tensor_product(H[0], K2[0]),
                 lambda: reference_tensor_product(QQ, H[1], K2[1]), id="H(x)doubled"),
    pytest.param(lambda: build_tensor_product(H[0], H[0]),
                 lambda: reference_tensor_product(QQ, H[1], H[1]), id="H(x)H"),
    pytest.param(lambda: build_tensor_product(P[0], P[0]),
                 lambda: reference_tensor_product(QQ, P[1], P[1]), id="P(x)P"),
    pytest.param(lambda: build_direct_sum(H[0], M2[0]),
                 lambda: reference_direct_sum(QQ, H[1], M2[1]), id="H(+)M2"),
    pytest.param(lambda: build_direct_sum(opposite(build_tensor_product(M2[0], H[0])), K2[0]),
                 lambda: reference_direct_sum(QQ, reference_opposite(
                     reference_tensor_product(QQ, M2[1], H[1])), K2[1]),
                 id="op(M2(x)H)(+)doubled"),
])
def test_builder_cases_match_dense_references(build, reference):
    A, dense = build(), reference()
    e = [A.basis_element(i).coords for i in range(A.dim)]
    assert_matches_dense(A, dense, [(e[0], e[-1]), (A.unit, [Fraction(1, 3)] * A.dim)])


# -- centers -----------------------------------------------------------------


def test_center_dims_over_q():
    assert len(center(build_matrix_algebra(2, QQ))) == 1
    assert len(center(build_matrix_algebra(3, QQ))) == 1
    assert len(center(build_matrix_algebra(4, QQ))) == 1
    k = build_matrix_algebra(1, QQ)
    assert len(center(build_direct_sum(k, k))) == 2
    assert len(center(upper_triangular_2x2(QQ))) == 1
    assert len(center(build_quaternion(-1, -1, QQ))) == 1


@pytest.mark.parametrize(
    "make,expected",
    [
        (lambda F: build_direct_sum(build_matrix_algebra(1, F), build_matrix_algebra(1, F)), 2),
        (upper_triangular_2x2, 1),
        (lambda F: build_poly_quotient([0, 0, 1], F), 2),
    ],
)
def test_center_against_enumeration_oracle(make, expected):
    # exhaustive enumeration over GF(3) is an implementation-independent
    # oracle for the nullspace computation
    A = make(GF(3))
    assert brute_force_center_dim(A) == expected
    assert len(center(A)) == expected
    # the rational computation must agree
    assert len(center(make(QQ))) == expected


def test_center_elements_commute():
    A = upper_triangular_2x2(QQ)
    for z in center(A):
        zel = A.element(z)
        for i in range(A.dim):
            e = A.basis_element(i)
            assert zel * e == e * zel


# -- the block partition of the product table ---------------------------------


def block_count(A):
    left, right = A._blocks()
    return len(set(left) | set(right))


@given(st.data())
def test_nonzero_products_stay_within_one_block(data):
    A = data.draw(builder_algebras())
    if data.draw(st.booleans()):
        A = change_basis(data.draw, A)
    left, right = A._blocks()
    table = dense_table(A)
    n = A.dim
    assert all(left[a] == right[b] for a in range(n) for b in range(n) if any(table[a][b]))
    assert set(left) | set(right) == set(range(block_count(A)))


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_block_counts(field):
    M2, H = build_matrix_algebra(2, field), build_quaternion(-1, 3, field)
    for n in range(1, 5):
        assert block_count(build_matrix_algebra(n, field)) == n
    assert block_count(H) == 1
    assert block_count(build_tensor_product(M2, H)) == 2
    assert block_count(opposite(build_matrix_algebra(3, field))) == 3
    assert block_count(unitriangular_basis(M2, 2)) == 1  # dense M2


@given(st.data())
def test_block_counts_add_over_direct_sums(data):
    A, B = data.draw(builder_algebras(fields=[QQ])), data.draw(builder_algebras(fields=[QQ]))
    assert block_count(build_direct_sum(A, B)) == block_count(A) + block_count(B)
