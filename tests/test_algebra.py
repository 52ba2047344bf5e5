"""Algebra builders, validation, multiplication and centers."""
from fractions import Fraction
from itertools import product

import pytest

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
from conftest import upper_triangular_2x2


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
    table = [[list(row) for row in plane] for plane in A.table]
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
    assert kA.table == M2.table and kA.unit == M2.unit


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
    assert opposite(opposite(A)).table == A.table
    C = build_poly_quotient([-1, 0, 1], QQ)
    assert opposite(C).table == C.table  # commutative fixed point
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
