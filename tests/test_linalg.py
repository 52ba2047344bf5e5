"""Exact linear algebra: echelon forms, nullspaces, affine solves."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from rbraid import GF, QQ, Matrix, build_matrix_algebra, center
from rbraid.errors import NotSquare, ShapeMismatch
from rbraid.linalg import coordinates_in_span


def mat(entries, field=QQ):
    return Matrix.from_dense(field, [[field.coerce(v) for v in row] for row in entries])


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    r, rank, pivots = m.rref()
    assert r == m and rank == 3 and pivots == (0, 1, 2)


def test_rref_zero():
    m = Matrix.zeros(QQ, 2, 3)
    r, rank, pivots = m.rref()
    assert r.is_zero() and rank == 0 and pivots == ()


def test_rref_rank_one():
    m = mat([[1, 2], [2, 4]])
    r, rank, pivots = m.rref()
    assert rank == 1 and pivots == (0,)
    assert r.to_dense() == [[1, 2], [0, 0]]


def test_rref_idempotent():
    m = mat([[2, 4, 1], [1, 2, 3], [0, 1, 1]])
    r1, rank1, piv1 = m.rref()
    r2, rank2, piv2 = r1.rref()
    assert r1 == r2 and rank1 == rank2 and piv1 == piv2


def test_nullspace_invertible_empty():
    assert mat([[1, 1], [0, 1]]).nullspace() == []


def test_nullspace_satisfies_system():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    basis = m.nullspace()
    assert len(basis) + m.rank() == m.ncols
    for v in basis:
        assert all(x == 0 for x in m.matvec(v))


def test_nullspace_center_of_m2():
    # the commutator system of the 2x2 matrix algebra has the scalars as
    # its only solutions
    A = build_matrix_algebra(2, QQ)
    basis = center(A)
    assert len(basis) == 1
    assert basis[0] == A.unit


def test_solve_affine_homogeneous():
    m = mat([[1, 2], [2, 4]])
    sol = m.solve_affine([QQ.zero, QQ.zero])
    assert not sol.is_empty
    assert sol.particular == [QQ.zero, QQ.zero]
    assert sol.dimension == 1


def test_solve_affine_inconsistent():
    m = Matrix.zeros(QQ, 1, 1)
    sol = m.solve_affine([QQ.one])
    assert sol.is_empty and sol.dimension == -1


def test_solve_affine_exactness():
    m = mat([[1, 2, 0], [0, 1, 1]])
    b = [Fraction(5), Fraction(3)]
    sol = m.solve_affine(b)
    assert not sol.is_empty
    assert m.matvec(sol.particular) == b
    for v in sol.basis:
        assert all(x == 0 for x in m.matvec(v))


def test_solve_affine_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mat([[1, 2]]).solve_affine([QQ.one, QQ.one])


def test_is_bijective():
    assert Matrix.identity(QQ, 4).is_bijective()
    assert not mat([[1, 2], [2, 4]]).is_bijective()
    with pytest.raises(NotSquare):
        Matrix.zeros(QQ, 2, 3).is_bijective()


def test_matmul_and_kron():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert (a @ b).to_dense() == [[2, 1], [4, 3]]
    k = a.kron(Matrix.identity(QQ, 2))
    assert k.nrows == 4 and k.entry(0, 0) == 1 and k.entry(1, 1) == 1
    assert k.entry(0, 2) == 2 and k.entry(3, 3) == 4


def test_transpose_and_column():
    a = mat([[1, 2, 3], [4, 5, 6]])
    assert a.transpose().to_dense() == [[1, 4], [2, 5], [3, 6]]
    assert a.column(1) == [2, 5]


def test_mixed_field_operands_rejected():
    from rbraid.errors import DescriptorMismatch

    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(GF(5), 2)
    with pytest.raises(DescriptorMismatch):
        a @ b
    with pytest.raises(DescriptorMismatch):
        a + b


def test_gf_elimination():
    F = GF(5)
    m = mat([[2, 1], [1, 1]], field=F)
    assert m.is_bijective()
    sol = m.solve_affine([F.one, F.zero])
    assert not sol.is_empty
    assert m.matvec(sol.particular) == [F.one, F.zero]


def test_coordinates_in_span():
    basis = [[QQ.one, QQ.zero, QQ.one], [QQ.zero, QQ.one, QQ.one]]
    inside = [Fraction(2), Fraction(3), Fraction(5)]
    outside = [Fraction(1), Fraction(0), Fraction(0)]
    coords = coordinates_in_span(QQ, basis, [inside, outside])
    assert coords[0] == [Fraction(2), Fraction(3)]
    assert coords[1] is None


small_entries = st.integers(-4, 4)


@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_rref_idempotent_random(nrows, ncols, data):
    rows = data.draw(
        st.lists(st.lists(small_entries, min_size=ncols, max_size=ncols),
                 min_size=nrows, max_size=nrows)
    )
    m = mat(rows)
    r1, rank, piv = m.rref()
    r2, rank2, piv2 = r1.rref()
    assert (r1, rank, piv) == (r2, rank2, piv2)
    assert len(m.nullspace()) == ncols - rank


@given(st.integers(2, 4), st.data())
def test_affine_solution_verifies_random(n, data):
    rows = data.draw(
        st.lists(st.lists(small_entries, min_size=n, max_size=n),
                 min_size=n, max_size=n)
    )
    b = data.draw(st.lists(small_entries, min_size=n, max_size=n))
    m = mat(rows)
    b = [Fraction(x) for x in b]
    sol = m.solve_affine(b)
    if not sol.is_empty:
        assert m.matvec(sol.particular) == b
        for v in sol.basis:
            assert all(x == 0 for x in m.matvec(v))


# -- the integer product kernel against an all-pairs reference ----------------

KERNEL_FIELDS = [QQ, GF(2), GF(7), GF(2**61 - 1)]


@st.composite
def sparse_matrices(draw, field, nrows, ncols):
    """Random sparse matrix: about half the entries zero; over Q negative
    values over several denominators, over GF(p) any residue."""
    if field is QQ:
        nonzero = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
    else:
        nonzero = st.integers(0, field.p - 1)
    entry = st.one_of(st.just(0), nonzero)
    rows = []
    for _ in range(nrows):
        values = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rows.append({j: field.coerce(v) for j, v in enumerate(values) if v})
    return Matrix(field, nrows, ncols, rows)


def reference_matmul(a, b):
    F = a.field
    rows = []
    for i in range(a.nrows):
        row = {}
        for j in range(b.ncols):
            acc = F.zero
            for k in range(a.ncols):
                acc = F.add(acc, F.mul(a.entry(i, k), b.entry(k, j)))
            if acc != F.zero:
                row[j] = acc
        rows.append(row)
    return Matrix(F, a.nrows, b.ncols, rows)


def reference_kron(a, b):
    F = a.field
    rows = []
    for i in range(a.nrows):
        for k in range(b.nrows):
            row = {}
            for j in range(a.ncols):
                for l in range(b.ncols):
                    v = F.mul(a.entry(i, j), b.entry(k, l))
                    if v != F.zero:
                        row[j * b.ncols + l] = v
            rows.append(row)
    return Matrix(F, a.nrows * b.nrows, a.ncols * b.ncols, rows)


def assert_canonical(m):
    for row in m.rows:
        for v in row.values():
            if m.field is QQ:
                assert type(v) is Fraction and v != 0
                assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1
            else:
                assert type(v) is int and 0 < v < m.field.p


@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_matmul_matches_reference(field, n, m, k, data):
    a = data.draw(sparse_matrices(field, n, m))
    b = data.draw(sparse_matrices(field, m, k))
    product = a @ b
    assert product == reference_matmul(a, b)
    assert_canonical(product)
    # [a | a] @ [b ; -b] cancels to zero entry by entry
    doubled = Matrix(field, n, 2 * m, [{**r, **{m + j: v for j, v in r.items()}}
                                       for r in a.rows])
    stacked = Matrix(field, 2 * m, k, b.rows + (-b).rows)
    cancelled = doubled @ stacked
    assert cancelled.rows == [{} for _ in range(n)]


@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3), st.data())
def test_kron_matches_reference(field, n1, m1, n2, m2, data):
    a = data.draw(sparse_matrices(field, n1, m1))
    b = data.draw(sparse_matrices(field, n2, m2))
    for x, y in ((a, b), (a, Matrix.identity(field, n2)), (Matrix.identity(field, n1), b)):
        product = x.kron(y)
        assert product == reference_kron(x, y)
        assert_canonical(product)
