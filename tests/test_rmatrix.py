"""Solver, independent verifier and closed forms."""
import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from rbraid import (
    GF,
    QQ,
    Matrix,
    TensorElement,
    build_matrix_algebra,
    build_poly_quotient,
    build_quaternion,
    build_tensor_product,
    certify,
    matrix_closed_form,
    quaternion_closed_form,
    solve_rmatrix,
    tensor_rmatrix,
    unit_tensor,
    verify_rmatrix,
)
from rbraid import rmatrix
from rbraid.errors import (
    ArityMismatch,
    NonUniqueSolution,
    UnsupportedSize,
    UnvalidatedAlgebra,
)
from rbraid.linalg import _reduced
from rbraid.rmatrix import _centralizing_check, _scan_indices, pair_invariant_basis
from rbraid import Algebra, validate_algebra
from conftest import dense_table, negative_corpus, unitriangular_basis

CHECK_NAMES = [
    "c1", "c2", "c3", "h1", "h2", "inv1", "inv2",
    "n1", "n2", "n3", "cyc1", "cyc2", "q1", "q2",
]


def brute_force_rmatrix_count(A) -> int:
    """Independent oracle: enumerate every element of the third tensor
    power over a small prime field and test the reduced conditions
    (centralizing on legs 2/3 plus the two normalizations) directly with
    tensor operations."""
    F = A.field
    p = F.characteristic
    size = A.dim ** 3
    assert 0 < p and p ** size <= 3**8, "oracle only for tiny instances"
    unit2 = unit_tensor(A, 2)
    basis = [A.basis_element(b) for b in range(A.dim)]
    count = 0
    for coeffs in product(range(p), repeat=size):
        R = TensorElement.from_terms(
            A, 3, zip(product(range(A.dim), repeat=3), map(F.from_int, coeffs))
        )
        if any(
            R.act_leg(2, e, "left") != R.act_leg(3, e, "right") for e in basis
        ):
            continue
        if R.contract_legs(1) != unit2:
            continue
        if R.permute_legs((3, 1, 2)).contract_legs(2) != unit2:
            continue
        count += 1
    return count


# -- solver ------------------------------------------------------------


def test_solve_matrix_2_closed_form():
    cert = solve_rmatrix(build_matrix_algebra(2, QQ))
    assert cert is not None and cert.valid
    assert cert.r.nnz() == 8
    assert all(c == QQ.one for c in cert.r.coeffs.values())
    assert cert.r == matrix_closed_form(2, QQ)
    assert cert.solver.solution_dim == 0
    assert cert.solver.w_dim == 4


def test_solve_scalar_algebra_is_unit():
    A = build_matrix_algebra(1, QQ)
    cert = solve_rmatrix(A)
    assert cert.r == unit_tensor(A, 3)
    assert cert.r.nnz() == 1


def test_solve_infeasible_against_enumeration_oracle():
    # the solver and the exhaustive oracle must agree on both tiny fields
    for p in (2, 3):
        A = build_poly_quotient([0, 0, 1], GF(p))
        assert brute_force_rmatrix_count(A) == 0
        assert solve_rmatrix(A) is None
    assert solve_rmatrix(build_poly_quotient([0, 0, 1], QQ)) is None


def test_oracle_positive_control():
    A = build_matrix_algebra(1, GF(2))
    assert brute_force_rmatrix_count(A) == 1
    assert solve_rmatrix(A) is not None


def test_solve_quaternion_closed_forms():
    for a, b in [(-1, -1), (2, 3), (-1, 5)]:
        cert = solve_rmatrix(build_quaternion(a, b, QQ))
        assert cert is not None and cert.valid
        assert cert.r == quaternion_closed_form(a, b, QQ)


def test_quaternion_printed_coefficients():
    r = quaternion_closed_form(-1, -1, QQ)
    assert r.coefficient((0, 0, 0)) == Fraction(1, 4)
    assert r.coefficient((0, 1, 1)) == Fraction(-1, 4)   # 1/(4a) at a=-1
    assert r.coefficient((0, 2, 2)) == Fraction(-1, 4)   # 1/(4b)
    assert r.coefficient((0, 3, 3)) == Fraction(-1, 4)   # -1/(4ab)
    assert r.coefficient((1, 2, 3)) == Fraction(1, 4)    # +1/(4ab)
    assert r.coefficient((2, 1, 3)) == Fraction(-1, 4)   # -1/(4ab)
    assert r.nnz() == 16
    r23 = quaternion_closed_form(2, 3, QQ)
    assert r23.coefficient((0, 0, 0)) == Fraction(1, 4)
    assert r23.coefficient((0, 1, 1)) == Fraction(1, 8)
    assert r23.coefficient((0, 2, 2)) == Fraction(1, 12)
    assert r23.coefficient((0, 3, 3)) == Fraction(-1, 24)


def test_solve_negative_corpus():
    for A in negative_corpus(QQ):
        assert solve_rmatrix(A) is None, A.label
    for A in negative_corpus(GF(5)):
        assert solve_rmatrix(A) is None, A.label


def test_unsupported_size():
    A = build_matrix_algebra(5, QQ)  # dim 25 > default cap
    with pytest.raises(UnsupportedSize):
        solve_rmatrix(A)
    cert = solve_rmatrix(A, size_cap=None)
    assert cert is not None and cert.valid


def test_unvalidated_algebra_rejected():
    A = build_matrix_algebra(2, QQ)
    table = dense_table(A)
    table[0][0][3] = QQ.one
    bad = Algebra(QQ, table, A.unit, label="broken")
    assert not validate_algebra(bad).passed
    with pytest.raises(UnvalidatedAlgebra):
        solve_rmatrix(bad)


def test_field_change_stability():
    # the matrix-algebra solution has the same 0/1 coordinates over the
    # rationals and over small prime fields
    for p in (5, 7):
        cert = solve_rmatrix(build_matrix_algebra(2, GF(p)))
        assert cert.r == matrix_closed_form(2, GF(p))
    cert3 = solve_rmatrix(build_matrix_algebra(3, GF(7)))
    assert cert3.r == matrix_closed_form(3, GF(7))


def test_quaternion_over_prime_field():
    cert = solve_rmatrix(build_quaternion(1, 1, GF(7)))
    assert cert is not None and cert.valid
    assert cert.r == quaternion_closed_form(1, 1, GF(7))


def test_w_space_dimension_m2():
    # the centralizer pair space of the 2x2 matrix algebra is spanned by
    # the four elements sum_k e_ki (x) e_jk
    A = build_matrix_algebra(2, QQ)
    basis = [[w.coefficient(divmod(xy, 4)) for xy in range(16)]
             for w in pair_invariant_basis(A)]
    assert len(basis) == 4
    n = 2
    for i in range(n):
        for j in range(n):
            vec = [QQ.zero] * 16
            for k in range(n):
                vec[(k * n + i) * 4 + (j * n + k)] = QQ.one
            # membership: the claimed invariant is a combination of the
            # computed basis
            assert not Matrix.from_columns(QQ, 16, basis).solve_affine(vec).is_empty


# -- the streamed normalization system ----------------------------------


def record_pulled_rows(monkeypatch, drain=False):
    """Wrap the solver that `solve_rmatrix` calls so that the returned list
    collects every (row, rhs) pair it pulls from the system's generator;
    with `drain` the whole system is pulled first."""
    pulled = []
    solve = rmatrix.solve_affine_rows

    def recording(field, ncols, rows):
        def counted():
            for pair in rows:
                pulled.append(pair)
                yield pair
        return solve(field, ncols, list(counted()) if drain else counted())

    monkeypatch.setattr(rmatrix, "solve_affine_rows", recording)
    return pulled


def eager_normalization_system(A):
    """Reference: the 2n^2 rows of the normalization system assembled in one
    pass over (j, t) and the W terms, row k*n + y of block 1 and row
    n*n + x*n + d of block 2, with 1 (x) 1 on the rows' scale as rhs."""
    n, F = A.dim, A.field
    prods, mod, pscale = A._int_products()
    w_basis = pair_invariant_basis(A)
    wdim = len(w_basis)
    wscale = lcm(1, *(w.den for w in w_basis))
    acc = [{} for _ in range(2 * n * n)]
    for j in range(n):
        for t, w in enumerate(w_basis):
            col = j * wdim + t
            for (x, y), v in w.ints.items():
                v *= wscale // w.den
                for k, ck in prods[j][x]:
                    acc[k * n + y][col] = acc[k * n + y].get(col, 0) + ck * v
                for d, cd in prods[y][j]:
                    i = n * n + x * n + d
                    acc[i][col] = acc[i].get(col, 0) + cd * v
    rhs = [F.mul(A.unit[i // n], A.unit[i % n]) * pscale * wscale for i in range(n * n)]
    return [(_reduced(row, mod), rhs[i % (n * n)]) for i, row in enumerate(acc)]


@pytest.mark.parametrize("A", [
    build_matrix_algebra(2, QQ),
    build_quaternion(2, 3, QQ),
    build_quaternion(1, 1, GF(7)),
    build_poly_quotient([-2, 0, 1], QQ),
    unitriangular_basis(build_matrix_algebra(2, QQ), 3),
], ids=lambda A: A.label)
def test_streamed_system_matches_eager_assembly(monkeypatch, A):
    pulled = record_pulled_rows(monkeypatch, drain=True)
    solve_rmatrix(A)
    n = A.dim
    # block 1 comes grouped by the right leg y, block 2 by the left leg x
    order = [k * n + y for y in range(n) for k in range(n)]
    order += [n * n + i for i in range(n * n)]
    reference = eager_normalization_system(A)
    assert len(pulled) == len(reference) == 2 * n * n
    for (row, b), i in zip(pulled, order):
        assert row == reference[i][0] and b == reference[i][1]
        assert type(b) is int or b.denominator != 1  # integral rhs stay ints


def test_infeasible_solve_stops_at_a_certificate(monkeypatch):
    # Q[x]/(x^2 - 2) is commutative and Q -> A is no epimorphism: an early
    # row reduces to 0 = c != 0 and the rest of the system is never built
    pulled = record_pulled_rows(monkeypatch)
    assert solve_rmatrix(build_poly_quotient([-2, 0, 1], QQ)) is None
    assert 0 < len(pulled) < 2 * 2 * 2


def test_unique_solve_substitutes_every_later_row(monkeypatch):
    # block 2 of M3/Q is read and checked by substitution, never skipped
    pulled = record_pulled_rows(monkeypatch)
    cert = solve_rmatrix(build_matrix_algebra(3, QQ))
    assert cert.r == matrix_closed_form(3, QQ)
    assert len(pulled) == 2 * 9 * 9


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_positive_dimensional_solution_set_raises(monkeypatch, field):
    # W-coordinates duplicated on purpose: the 32 unknowns of M2 keep rank
    # 16, so the solution set has dimension 16 and every row is reduced
    basis = rmatrix.pair_invariant_basis
    monkeypatch.setattr(rmatrix, "pair_invariant_basis", lambda A: basis(A) * 2)
    pulled = record_pulled_rows(monkeypatch)
    with pytest.raises(NonUniqueSolution, match="affine solution set has dimension 16"):
        solve_rmatrix(build_matrix_algebra(2, field))
    assert len(pulled) == 2 * 4 * 4


# -- verifier ----------------------------------------------------------


def test_verifier_all_checks_pass_closed_forms():
    A = build_matrix_algebra(2, QQ)
    report = verify_rmatrix(A, matrix_closed_form(2, QQ))
    assert [r.name for r in report] == CHECK_NAMES
    assert report.passed
    B = build_quaternion(2, 3, QQ)
    assert verify_rmatrix(B, quaternion_closed_form(2, 3, QQ)).passed


def test_verifier_closed_form_gf():
    A = build_matrix_algebra(3, GF(7))
    assert verify_rmatrix(A, matrix_closed_form(3, GF(7))).passed
    B = build_quaternion(1, 1, GF(7))
    assert verify_rmatrix(B, quaternion_closed_form(1, 1, GF(7))).passed


def test_verifier_rejects_unit_tensor_on_m2():
    A = build_matrix_algebra(2, QQ)
    unit3 = unit_tensor(A, 3)
    report = verify_rmatrix(A, unit3)
    assert not report.passed
    # the centralizing checks fail and carry a basis witness
    assert not report["c1"].passed
    assert "a=e_" in report["c1"].witness
    # e_12 (basis index 1) is itself a witness: e_12 (x) 1 (x) 1 differs
    # from 1 (x) 1 (x) e_12 in coordinates
    e12 = A.basis_element(1)
    assert unit3.act_leg(3, e12, "left") != unit3.act_leg(1, e12, "right")
    # while normalizations hold trivially for the unit
    assert report["n1"].passed


def test_verifier_accepts_unit_on_scalars():
    k = build_matrix_algebra(1, QQ)
    assert verify_rmatrix(k, unit_tensor(k, 3)).passed


def test_verifier_arity_check():
    A = build_matrix_algebra(2, QQ)
    with pytest.raises(ArityMismatch):
        verify_rmatrix(A, unit_tensor(A, 2))


def test_verifier_witnesses_name_first_differing_monomial():
    # every check of a perturbed matrix tensor fails; each witness names
    # the first differing monomial in sorted digit order
    A = build_matrix_algebra(2, QQ)
    r = matrix_closed_form(2, QQ)
    bad = TensorElement.from_terms(
        A, 3, list(r.iter_nonzero()) + [((0, 1, 2), Fraction(5)), ((0, 0, 1), Fraction(-2, 3))]
    )
    witnesses = {res.name: res.witness for res in verify_rmatrix(A, bad)}
    assert witnesses == {
        "c1": "a=e_0, monomial (0, 1, 2): 0 != 5",
        "c2": "a=e_0, monomial (0, 1, 2): 5 != 0",
        "c3": "a=e_0, monomial (0, 0, 1): -2/3 != 0",
        "h1": "monomial (0, 0, 0, 1): -2/3 != -4/3",
        "h2": "monomial (0, 0, 1, 0): 0 != -10/3",
        "inv1": "monomial (0, 0, 1): -2/3 != 0",
        "inv2": "monomial (0, 0, 1): -2/3 != 0",
        "n1": "monomial (0, 1): -2/3 != 0",
        "n2": "monomial (1, 2): 5 != 0",
        "n3": "monomial (0, 0): 6 != 1",
        "cyc1": "monomial (0, 0, 1): 0 != -2/3",
        "cyc2": "monomial (0, 0, 1): 0 != -2/3",
        "q1": "monomial (0, 0, 0, 1): -4/3 != -2/3",
        "q2": "monomial (0, 0, 1, 0): -10/3 != 0",
    }


def test_verifier_witnesses_over_gf():
    H = build_quaternion(3, 5, GF(7))
    r = quaternion_closed_form(3, 5, GF(7))
    bad = TensorElement.from_terms(
        H, 3, list(r.iter_nonzero()) + [((2, 1, 3), 1), ((3, 3, 3), 4)]
    )
    report = verify_rmatrix(H, bad)
    assert report["h1"].witness == "monomial (0, 0, 0, 3): 0 != 6"
    assert report["h2"].witness == "monomial (0, 0, 1, 1): 3 != 0"
    assert report["q1"].witness == "monomial (0, 0, 0, 3): 6 != 0"
    assert report["q2"].witness == "monomial (0, 0, 1, 1): 0 != 3"
    assert report["c1"].witness == "a=e_1, monomial (2, 1, 2): 4 != 1"


def test_verifier_catches_scaled_tensor():
    A = build_matrix_algebra(2, QQ)
    scaled = matrix_closed_form(2, QQ).scale(Fraction(2))
    report = verify_rmatrix(A, scaled)
    assert not report.passed
    assert not report["n1"].passed  # normalization breaks under scaling
    assert report["c3"].passed      # centralizing survives scaling


# -- the centralizing checks on a generating set ------------------------------

CENTRALIZING = (("c1", 3, 1), ("c2", 1, 2), ("c3", 2, 3))


def scan(A, R, indices):
    return [_centralizing_check(name, A, R, left, right, indices)
            for name, left, right in CENTRALIZING]


def verifier_scan(A, R):
    return [res for res in verify_rmatrix(A, R) if res.name in ("c1", "c2", "c3")]


def perturbed(A, R, rng):
    terms = [(tuple(rng.randrange(A.dim) for _ in range(3)), A.field.from_int(rng.randrange(1, 5)))
             for _ in range(rng.randint(1, 2))]
    return R + TensorElement.from_terms(A, 3, terms)


def test_generator_scan_matches_full_basis_scan():
    mh = build_tensor_product(build_matrix_algebra(2, GF(7)), build_quaternion(2, 3, GF(7)))
    cases = [
        (build_matrix_algebra(2, QQ), matrix_closed_form(2, QQ)),
        (build_quaternion(2, 3, QQ), quaternion_closed_form(2, 3, QQ)),
        (mh, solve_rmatrix(mh).r),
    ]
    rng = random.Random(5)
    for A, R in cases:
        indices = _scan_indices(A)
        assert len(indices) < A.dim  # the scan skips part of the basis
        assert verifier_scan(A, R) == scan(A, R, range(A.dim))
        bad = perturbed(A, R, rng)
        assert verifier_scan(A, bad) == scan(A, bad, range(A.dim))
        for _ in range(15):
            bad = perturbed(A, R, rng)
            results = scan(A, bad, indices)
            assert results == scan(A, bad, range(A.dim))
            assert not all(results)


def test_generator_scan_on_a_dense_basis():
    # M2 in a unitriangular basis: a four-term unit and products of up to
    # four terms
    A = unitriangular_basis(build_matrix_algebra(2, QQ), 3)
    R = solve_rmatrix(A).r
    indices = _scan_indices(A)
    assert len(indices) < A.dim
    rng = random.Random(11)
    for _ in range(15):
        bad = perturbed(A, R, rng)
        assert scan(A, bad, indices) == scan(A, bad, range(A.dim))


def test_generator_scan_reaches_later_generators():
    # x = 2(i11 + 1i1 + 11i) + iii in H(2,3)^(x3), i = e_1 and i^2 = 2, is
    # killed by i acting on any leg minus i acting on any other, so R + x
    # passes for 1 and i and first fails at the generator j = e_2
    H = build_quaternion(2, 3, QQ)
    x = TensorElement.from_terms(H, 3, [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2),
                                        ((1, 1, 1), 1)])
    bad = quaternion_closed_form(2, 3, QQ) + x
    results = verifier_scan(H, bad)
    assert results == scan(H, bad, range(H.dim))
    assert all(res.witness.startswith("a=e_2,") for res in results)


def test_generator_scan_falls_back_when_the_indices_do_not_generate(monkeypatch):
    # e11 alone does not generate M2; x = e11 (x) e11 (x) e11 commutes with
    # e11 in all three pairings, so only e12 and e21 expose R + x
    monkeypatch.setattr(Algebra, "generators", lambda self: (0,))
    A = build_matrix_algebra(2, QQ)
    assert A.fixed_point_indices() == (0,)
    assert _scan_indices(A) == range(A.dim)
    bad = matrix_closed_form(2, QQ) + TensorElement.from_terms(A, 3, [((0, 0, 0), 1)])
    assert all(scan(A, bad, (0,)))
    results = verifier_scan(A, bad)
    assert results == scan(A, bad, range(A.dim))
    assert not any(results)


def test_certificate_serialization():
    cert = solve_rmatrix(build_matrix_algebra(2, QQ))
    obj = cert.to_json()
    assert obj["algebra"] == "matrix(2)/QQ"
    assert set(obj["checks"]) == set(CHECK_NAMES)
    assert obj["solver"] == {"w_dim": 4, "unknowns": 16, "solution_dim": 0}
    assert all(v is True for v in obj["checks"].values())


# -- composed certificates ------------------------------------------------


def test_tensor_rmatrix_m2_m2():
    c2 = solve_rmatrix(build_matrix_algebra(2, QQ))
    T = tensor_rmatrix(c2, c2)
    assert T.algebra.dim == 16
    assert T.valid
    assert T.r.nnz() == 64


def test_tensor_rmatrix_with_scalars_is_identity():
    k = build_matrix_algebra(1, QQ)
    ck = solve_rmatrix(k)
    cq = solve_rmatrix(build_quaternion(-1, -1, QQ))
    T = tensor_rmatrix(ck, cq)
    # under k (x) A ~ A the interleaved tensor has the same coordinates
    assert T.r.coeffs == cq.r.coeffs
    assert T.valid


def test_tensor_rmatrix_mixed():
    c2 = solve_rmatrix(build_matrix_algebra(2, QQ))
    cq = solve_rmatrix(build_quaternion(-1, -1, QQ))
    T = tensor_rmatrix(c2, cq)
    assert T.valid


def test_solved_tensor_product_algebra_matches_composed():
    # solving the product algebra directly must give the same tensor as
    # composing the factors (uniqueness)
    c2 = solve_rmatrix(build_matrix_algebra(2, QQ))
    T = tensor_rmatrix(c2, c2)
    direct = solve_rmatrix(build_tensor_product(
        build_matrix_algebra(2, QQ), build_matrix_algebra(2, QQ)))
    assert direct is not None
    assert direct.r == T.r


# -- structural invariants --------------------------------------------------


def test_cyclic_invariance_of_solved_tensors():
    for cert in (
        solve_rmatrix(build_matrix_algebra(3, QQ)),
        solve_rmatrix(build_quaternion(2, 3, QQ)),
    ):
        assert cert.r.permute_legs((3, 1, 2)) == cert.r
        assert cert.r.permute_legs((2, 3, 1)) == cert.r


def test_monomial_degeneracy():
    # any solved tensor with a single monomial must be the unit tensor
    for A in (
        build_matrix_algebra(1, QQ),
        build_poly_quotient([-1, 1], QQ),
        build_matrix_algebra(2, QQ),
        build_quaternion(-1, -1, QQ),
    ):
        cert = solve_rmatrix(A)
        if cert is not None and cert.r.nnz() == 1:
            assert cert.r == unit_tensor(A, 3)


def test_certify_external_tensor():
    A = build_matrix_algebra(2, QQ)
    cert = certify(A, matrix_closed_form(2, QQ))
    assert cert.valid and cert.solver is None
    bad = certify(A, unit_tensor(A, 3))
    assert not bad.valid
