"""Yang-Baxter operators: construction, both equations, the cube law."""
import random
from fractions import Fraction

import pytest

from rbraid import (
    GF,
    QQ,
    Matrix,
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
)
from rbraid.errors import UnsupportedSize, UnverifiedCertificate
from rbraid.yangbaxter import YBOperator
from conftest import swap_matrix


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


def test_random_perturbation_fails_with_witness(m2_cert):
    op = build_omega(m2_cert, regular_bimodule(m2_cert.algebra))
    rng = random.Random(41)
    rows = [dict(r) for r in op.omega.rows]
    i = rng.randrange(16)
    rows[i][rng.randrange(16)] = Fraction(3, 7)
    bad = YBOperator(op.bimodule, Matrix(QQ, 16, 16, rows))
    q = check_qybe(bad)
    b = check_braid(bad)
    assert not (q.passed and b.passed)
    failing = q if not q.passed else b
    assert "entry" in failing.witness


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
    # the leg-1,2 embedding is the Kronecker product with the identity
    from rbraid.yangbaxter import _int_embed12, _int_embed13, _int_embed23

    op = build_omega(m2_cert, regular_bimodule(m2_cert.algebra))
    rows, scale = op.omega.ints, op.omega.den
    m = op.dim
    kron = op.omega.kron(Matrix.identity(QQ, m))
    e12 = _int_embed12(rows, m)
    for i, r in enumerate(kron.rows):
        assert {j: int(v * scale) for j, v in r.items()} == e12[i]
    # the other embeddings replicate every entry once per bystander leg
    e13 = _int_embed13(rows, m)
    e23 = _int_embed23(rows, m)
    assert sum(len(r) for r in e13) == sum(len(r) for r in rows) * m
    assert sum(len(r) for r in e23) == sum(len(r) for r in rows) * m


def test_serialization(m2_cert):
    op = build_omega(m2_cert, regular_bimodule(m2_cert.algebra))
    obj = op.to_json()
    assert obj["dim"] == 16
    assert len(obj["entries"]) == op.omega.nnz()
    first = obj["entries"][0]
    assert set(first) == {"row", "col", "value"}
