"""Yang-Baxter operators: construction, both equations, the cube law, and
the transfer that decides both equations on the regular bimodule."""
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from rbraid import (
    GF,
    QQ,
    Algebra,
    Bimodule,
    Matrix,
    TensorElement,
    build_direct_sum,
    build_matrix_algebra,
    build_omega,
    build_quaternion,
    certify,
    check_braid,
    check_omega_cubed,
    check_qybe,
    free_bimodule,
    omega_rank_profile,
    regular_bimodule,
    solve_rmatrix,
    square_bimodule,
    unit_tensor,
    validate_algebra,
)
from rbraid import yangbaxter
from rbraid.bimodules import _r_operator
from rbraid.checks import CheckReport, CheckResult
from rbraid.errors import UnsupportedSize, UnverifiedCertificate
from rbraid.rmatrix import RMatrixCertificate
from rbraid.yangbaxter import YBOperator
from conftest import dense_table, swap_matrix, unitriangular_basis
from test_bimodules import with_coefficient
from test_generators import builder_algebras, change_basis


@pytest.fixture(scope="module")
def m2_cert():
    return solve_rmatrix(build_matrix_algebra(2, QQ))


def test_omega_on_scalars_is_switch():
    k = build_matrix_algebra(1, QQ)
    cert = solve_rmatrix(k)
    for d in (2, 3):
        op = build_omega(cert, free_bimodule(k, d))
        assert op.omega == swap_matrix(QQ, d, d)
        assert check_qybe(op).passed and check_braid(op).passed
        assert omega_rank_profile(op) == (d * d, d * d)


def test_omega_regular_m2(m2_cert):
    op = build_omega(m2_cert, regular_bimodule(m2_cert.algebra))
    assert check_qybe(op).passed
    assert check_braid(op).passed
    assert check_omega_cubed(op).passed
    rank, rank_sq = omega_rank_profile(op)
    assert rank == rank_sq


def test_omega_square_quaternion():
    cert = solve_rmatrix(build_quaternion(-1, -1, QQ))
    op = build_omega(cert, square_bimodule(cert.algebra))
    assert op.omega.nrows == 256
    assert check_omega_cubed(op).passed
    assert check_qybe(op).passed
    assert check_braid(op).passed
    rank, rank_sq = omega_rank_profile(op)
    assert rank == rank_sq


def test_omega_over_prime_field():
    cert = solve_rmatrix(build_matrix_algebra(2, GF(5)))
    op = build_omega(cert, regular_bimodule(cert.algebra))
    assert check_qybe(op).passed and check_braid(op).passed
    assert check_omega_cubed(op).passed


def test_identity_satisfies_braid():
    op = YBOperator(free_bimodule(build_matrix_algebra(1, QQ), 2),
                    Matrix.identity(QQ, 4))
    assert check_braid(op).passed
    assert check_qybe(op).passed


def perturbed(omega, seed=41):
    """`omega` with one entry, picked by `seed`, set to 3/7."""
    rng = random.Random(seed)
    rows = [dict(r) for r in omega.rows]
    rows[rng.randrange(omega.nrows)][rng.randrange(omega.ncols)] = Fraction(3, 7)
    return Matrix(omega.field, omega.nrows, omega.ncols, rows)


def test_random_perturbation_fails_with_witness(m2_cert):
    op = build_omega(m2_cert, regular_bimodule(m2_cert.algebra))
    bad = YBOperator(op.bimodule, perturbed(op.omega))
    assert check_qybe(bad).witness == "entry (12,34) differs (scaled values 147 != 0)"
    assert check_braid(bad).witness == "entry (12,10) differs (scaled values 147 != 0)"
    # the true certificate on a perturbed operator: the operator fails
    # the guard that rebuilds it, and the products on V decide
    for V, qybe, braid in [
        (op.bimodule, "entry (12,34) differs (scaled values 147 != 0)",
         "entry (12,10) differs (scaled values 147 != 0)"),
        (free_bimodule(m2_cert.algebra, 2), "entry (48,42) differs (scaled values 147 != 0)",
         "entry (48,98) differs (scaled values 147 != 0)"),
    ]:
        bad = YBOperator(V, perturbed(build_omega(m2_cert, V).omega), m2_cert)
        assert bad._regular_rows is None
        assert check_qybe(bad) == CheckResult("qybe", False, qybe)
        assert check_braid(bad) == CheckResult("braid", False, braid)


def test_zero_operator_profile():
    V = free_bimodule(build_matrix_algebra(1, QQ), 2)
    op = YBOperator(V, Matrix.zeros(QQ, 4, 4))
    assert omega_rank_profile(op) == (0, 0)
    assert check_omega_cubed(op).passed


def test_unverified_certificate_rejected(m2_cert):
    A = m2_cert.algebra
    bad = certify(A, unit_tensor(A, 3))
    assert not bad.valid
    with pytest.raises(UnverifiedCertificate):
        build_omega(bad, regular_bimodule(A))


def test_size_cap(m2_cert):
    A = m2_cert.algebra
    big = free_bimodule(A, 5)  # dim 20 > 16
    with pytest.raises(UnsupportedSize):
        build_omega(m2_cert, big)
    op = build_omega(m2_cert, big, size_cap=None)
    assert op.dim == 20


def test_embedding_consistency(m2_cert):
    # each embedding against its Kronecker reference: Omega (x) I,
    # I (x) Omega and (I (x) s)(Omega (x) I)(I (x) s), s the flip
    from rbraid.yangbaxter import _int_embed12, _int_embed13, _int_embed23

    op = build_omega(m2_cert, free_bimodule(m2_cert.algebra, 2))
    rows, den, m = op.omega.ints, op.omega.den, op.dim
    eye = Matrix.identity(QQ, m)
    flip23 = eye.kron(swap_matrix(QQ, m, m))
    for embed, reference in [
        (_int_embed12, op.omega.kron(eye)),
        (_int_embed23, eye.kron(op.omega)),
        (_int_embed13, flip23 @ op.omega.kron(eye) @ flip23),
    ]:
        assert Matrix._of(QQ, m ** 3, m ** 3, embed(rows, m), den) == reference


def test_serialization(m2_cert):
    op = build_omega(m2_cert, regular_bimodule(m2_cert.algebra))
    obj = op.to_json()
    assert obj["dim"] == 16
    assert len(obj["entries"]) == op.omega.nnz()
    first = obj["entries"][0]
    assert set(first) == {"row", "col", "value"}


# -- the transfer to the regular bimodule --------------------------------


def unverified(A):
    """A's solved R in a certificate whose verifier run is skipped (it is
    tested on its own, and on a changed basis over Q it takes seconds),
    or None when A has no braiding."""
    with mock.patch("rbraid.rmatrix.verify_rmatrix", lambda A, r: CheckReport([])):
        return solve_rmatrix(A)


def matrix_path(op):
    """Both verdicts decided by the products on V itself."""
    bare = YBOperator(op.bimodule, op.omega)
    return check_qybe(bare), check_braid(bare)


@pytest.fixture
def embedded_rows(monkeypatch):
    """The row counts of every triple-power operand the checks build."""
    seen = []
    for name in ("_int_embed12", "_int_embed13", "_int_embed23"):
        def spy(rows, m, embed=getattr(yangbaxter, name)):
            out = embed(rows, m)
            seen.append(len(out))
            return out
        monkeypatch.setattr(yangbaxter, name, spy)
    return seen


DENSE_M2 = unitriangular_basis(build_matrix_algebra(2, QQ), 3)


@settings(max_examples=25, deadline=None)
@given(A=builder_algebras(fields=[QQ, GF(3), GF(7)]).filter(lambda A: A.dim <= 4),
       changed=st.booleans(), digits=st.tuples(*[st.integers(0, 3)] * 3), data=st.data())
@example(A=DENSE_M2, changed=False, digits=(3, 0, 3), data=None)
def test_transfer_matches_matrix_path(A, changed, digits, data):
    # bimodules of dimension at most 8: beyond that, on a quaternion or a
    # changed basis, the products on V take seconds; the square bimodule
    # of M2 is compared below, where its products are sparse
    if changed:
        A = change_basis(data.draw, A)
    cert = unverified(A)
    if cert is None:
        return
    F = A.field
    digits = tuple(d % A.dim for d in digits)
    bad = RMatrixCertificate(
        A, with_coefficient(cert.r, digits, F.add(cert.r.coefficient(digits), F.one)),
        CheckReport([]))
    for V in (regular_bimodule(A), square_bimodule(A), free_bimodule(A, 2)):
        if V.dim > 8:
            continue
        op = build_omega(cert, V)
        assert (op._regular_rows is not None) == (V.dim > A.dim)
        assert (check_qybe(op), check_braid(op)) == matrix_path(op)
        assert all(matrix_path(op))
        op = YBOperator(V, _r_operator(bad, V, V.left), bad)
        assert (check_qybe(op), check_braid(op)) == matrix_path(op)


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=repr)
def test_transfer_matches_matrix_path_on_square(F):
    # in the matrix-unit basis the products on the square bimodule are sparse
    cert = solve_rmatrix(build_matrix_algebra(2, F))
    A, V = cert.algebra, square_bimodule(cert.algebra)
    op = build_omega(cert, V)
    assert op._regular_rows is not None
    assert (check_qybe(op), check_braid(op)) == matrix_path(op)
    for digits in [(0, 0, 0), (1, 2, 3), (3, 3, 0)]:
        bad = RMatrixCertificate(
            A, with_coefficient(cert.r, digits, F.add(cert.r.coefficient(digits), F.one)),
            CheckReport([]))
        op = YBOperator(V, _r_operator(bad, V, V.left), bad)
        assert (check_qybe(op), check_braid(op)) == matrix_path(op)


@pytest.mark.parametrize("A", [
    build_matrix_algebra(2, QQ), build_quaternion(-1, -1, QQ),
    build_quaternion(2, 3, GF(7)), DENSE_M2,
], ids=lambda A: A.label)
def test_transfer_is_taken(A, embedded_rows):
    cert = solve_rmatrix(A)
    for V in (square_bimodule(A), free_bimodule(A, 2), free_bimodule(A, 4)):
        op = build_omega(cert, V)
        assert check_qybe(op).passed and check_braid(op).passed
        assert max(embedded_rows) <= A.dim ** 3 < V.dim ** 3
        embedded_rows.clear()


def test_guards_keep_the_matrix_path(m2_cert, embedded_rows):
    A = m2_cert.algebra
    V = free_bimodule(A, 2)
    op = build_omega(m2_cert, V)
    # an operator without its certificate, and one on a bimodule not
    # known to obey the bimodule laws
    unlawful = Bimodule(A, V.left, V.right, "unlawful")
    for other in (YBOperator(V, op.omega), YBOperator(unlawful, op.omega, m2_cert)):
        assert (check_qybe(other), check_braid(other)) == matrix_path(op)
        assert min(embedded_rows) == V.dim ** 3
        embedded_rows.clear()
    # R over a copy of M2 with one structure constant moved: the algebra
    # fails validation, so its builder bimodules need not be lawful
    table = dense_table(A)
    table[0][0][1] = QQ.one
    broken = Algebra(QQ, table, A.unit, label="broken")
    assert not validate_algebra(broken).passed
    cert = RMatrixCertificate(broken, TensorElement._of(broken, 3, dict(m2_cert.r.ints),
                                                        m2_cert.r.den), CheckReport([]))
    W = free_bimodule(broken, 2)
    op = YBOperator(W, _r_operator(cert, W, W.left), cert)
    assert op._regular_rows is None
    assert (check_qybe(op), check_braid(op)) == matrix_path(op)
    assert min(embedded_rows) == W.dim ** 3


def test_unfaithful_algebra_keeps_the_matrix_path():
    # on Q x Q the products L_a R_b span only the diagonal, and this R
    # passes the quantum Yang-Baxter equation on the regular bimodule but
    # not on the square one
    k = build_matrix_algebra(1, QQ)
    A = build_direct_sum(k, k)
    r = TensorElement(A, 3, {(0, 1, 1): QQ.from_int(2), (1, 0, 0): QQ.from_int(2),
                             (1, 0, 1): QQ.from_int(-1)})
    cert = RMatrixCertificate(A, r, CheckReport([]))
    reg = regular_bimodule(A)
    assert check_qybe(YBOperator(reg, _r_operator(cert, reg, reg.left), cert)).passed
    V = square_bimodule(A)
    op = YBOperator(V, _r_operator(cert, V, V.left), cert)
    assert op._regular_rows is None
    assert check_qybe(op) == matrix_path(op)[0]
    assert not check_qybe(op).passed
