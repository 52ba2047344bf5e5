"""Classification oracles and their agreement with the solver."""
from rbraid import (
    GF,
    QQ,
    build_direct_sum,
    build_matrix_algebra,
    build_poly_quotient,
    build_quaternion,
    classify,
    f_map,
    is_epi_from_base,
    opposite,
)
from rbraid.linalg import Matrix
from conftest import upper_triangular_2x2


def test_f_map_scalar_algebra():
    m = f_map(build_matrix_algebra(1, QQ))
    assert m.nrows == m.ncols == 1
    assert m.rows == [{0: QQ.one}]


def dense_f_map(A):
    """Reference: column (i, j) is the flattened dense matrix L_i R_j."""
    n = A.dim
    left = A.left_mult_matrices()
    right = A.right_mult_matrices()
    cols = []
    for i in range(n):
        for j in range(n):
            rows = (left[i] @ right[j]).rows
            flat = []
            for row in rows:
                flat.extend(row.get(c, A.field.zero) for c in range(n))
            cols.append(flat)
    return Matrix.from_columns(A.field, n * n, cols)


def test_f_map_matches_dense_reference():
    for F in (QQ, GF(5)):
        for A in (
            build_matrix_algebra(2, F),
            build_matrix_algebra(3, F),
            build_quaternion(-1, 3, F),
            build_poly_quotient([1, 2, 0, 1], F),
            build_direct_sum(build_matrix_algebra(2, F), build_poly_quotient([0, 0, 1], F)),
        ):
            assert f_map(A) == dense_f_map(A), A.label
    # structure constants with denominators
    A = build_quaternion("1/2", "-2/3", QQ)
    assert f_map(A) == dense_f_map(A)


def test_f_map_m2_bijective():
    assert f_map(build_matrix_algebra(2, QQ)).is_bijective()


def test_f_map_m2_kernel_trivial_by_enumeration():
    # over GF(2) the kernel can be checked exhaustively: only the zero
    # element of the 16-dimensional enveloping algebra maps to zero
    F = GF(2)
    m = f_map(build_matrix_algebra(2, F))
    nullity = len(m.nullspace())
    assert nullity == 0
    # enumeration over a subspace scan is equivalent; spot check a few
    # nonzero vectors explicitly
    for probe in range(1, 16):
        vec = [F.from_int((probe >> t) & 1) for t in range(16)]
        assert any(x != F.zero for x in m.matvec(vec))


def test_f_map_dual_numbers_not_bijective():
    A = build_poly_quotient([0, 0, 1], QQ)
    m = f_map(A)
    assert not m.is_bijective()
    # explicit kernel witness: x (x) 1 - 1 (x) x annihilates everything
    # because the algebra is commutative
    vec = [QQ.zero] * 4
    vec[2] = QQ.one    # x (x) 1
    vec[1] = QQ.neg(QQ.one)  # -(1 (x) x)
    assert all(c == QQ.zero for c in m.matvec(vec))


def test_epi_examples():
    assert is_epi_from_base(build_matrix_algebra(1, QQ))
    assert is_epi_from_base(build_poly_quotient([-1, 1], QQ))
    assert not is_epi_from_base(build_poly_quotient([0, 0, 1], QQ))
    k = build_matrix_algebra(1, QQ)
    assert not is_epi_from_base(build_direct_sum(k, k))
    assert not is_epi_from_base(build_matrix_algebra(2, QQ))


def test_classify_m3():
    rep = classify(build_matrix_algebra(3, QQ))
    assert rep.center_dim == 1
    assert rep.f_map_bijective
    assert rep.rmatrix_exists
    assert not rep.commutative
    assert rep.consistent


def test_classify_upper_triangular():
    rep = classify(upper_triangular_2x2(QQ))
    assert rep.center_dim == 1
    assert not rep.f_map_bijective
    assert not rep.rmatrix_exists
    assert rep.consistent


def test_classify_quaternion_gf7():
    rep = classify(build_quaternion(1, 1, GF(7)))
    assert rep.rmatrix_exists
    assert rep.center_dim == 1
    assert rep.f_map_bijective
    assert rep.consistent


def test_classify_commutative_positive():
    rep = classify(build_poly_quotient([-1, 1], QQ))  # the base field
    assert rep.commutative and rep.epi and rep.rmatrix_exists
    assert rep.r_is_unit
    assert rep.consistent


def test_classify_commutative_negative():
    rep = classify(build_poly_quotient([-1, 0, 1], QQ))  # k x k
    assert rep.commutative and not rep.epi and not rep.rmatrix_exists
    assert rep.center_dim == 2
    assert rep.consistent


def test_classify_opposite():
    rep = classify(opposite(build_quaternion(2, 3, QQ)))
    assert rep.rmatrix_exists and rep.consistent


def test_report_json():
    rep = classify(build_matrix_algebra(2, QQ))
    obj = rep.to_json()
    assert obj["consistent"] is True
    assert obj["center_dim"] == 1
    assert obj["r_is_unit"] is False
    assert set(obj) == {
        "algebra", "center_dim", "f_map_bijective", "epi",
        "rmatrix_exists", "commutative", "r_is_unit", "consistent",
    }
