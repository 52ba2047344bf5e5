"""One generating set per algebra: Light's associativity test and the
fixed-point eliminations over generators, each against the all-basis
computation it replaces."""
import json
from fractions import Fraction
from pathlib import Path

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
    build_poly_quotient,
    build_quaternion,
    build_tensor_product,
    center,
    check_bimodule,
    free_bimodule,
    invariants,
    opposite,
    regular_bimodule,
    square_bimodule,
    tensor_over_A,
    validate_algebra,
)
from rbraid import bimodules
from rbraid.bimodules import _kernel_basis, extended_invariants
from rbraid.cli import build_algebra_from_spec
from rbraid.linalg import _difference_echelon, _nullspace_ints, nullspace_from_echelon
from rbraid.rmatrix import pair_invariant_basis
from conftest import dense_table

FIELDS = [QQ, GF(2), GF(3), GF(7)]
small_ints = st.integers(-2, 2)


def full_scan_witness(A: Algebra):
    """Reference associativity check on every basis triple, in field
    values: the witness of the first failing (i, j, k), or None."""
    F, n, mul = A.field, A.dim, A.mul_coords
    e = [A.basis_element(i).coords for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = mul(mul(e[i], e[j]), e[k])
                rhs = mul(e[i], mul(e[j], e[k]))
                if lhs != rhs:
                    return (f"(e_{i}e_{j})e_{k} = {[F.format(c) for c in lhs]} != "
                            f"e_{i}(e_{j}e_{k}) = {[F.format(c) for c in rhs]}")
    return None


@st.composite
def random_tables(draw):
    """Random structure constants, mostly with some e_u as a two-sided
    unit (so the unit laws pass and associativity decides), else with a
    random unit vector."""
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    table = [[[F.coerce(draw(small_ints)) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    if draw(st.integers(0, 3)):
        u = draw(st.integers(0, n - 1))
        unit = [F.one if k == u else F.zero for k in range(n)]
        for j in range(n):
            basis = [F.one if k == j else F.zero for k in range(n)]
            table[u][j] = list(basis)
            table[j][u] = list(basis)
    else:
        unit = [F.coerce(draw(small_ints)) for _ in range(n)]
    return Algebra(F, table, unit, label="random")


def _base(draw, F, max_dim):
    kinds = ["matrix", "poly"] + (["quaternion"] if F.characteristic != 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "matrix":
        largest = 3 if max_dim >= 9 else 2 if max_dim >= 4 else 1
        return build_matrix_algebra(draw(st.integers(1, largest)), F)
    if kind == "quaternion" and max_dim >= 4:
        units = st.sampled_from([1, -1, 2, 3]).filter(lambda a: F.is_invertible(F.coerce(a)))
        return build_quaternion(draw(units), draw(units), F)
    degree = draw(st.integers(1, min(max_dim, 4)))
    return build_poly_quotient([draw(small_ints) for _ in range(degree)] + [1], F)


@st.composite
def builder_algebras(draw, fields=FIELDS):
    """Matrix, quaternion, polynomial, tensor, direct-sum and opposite
    algebras of dimension at most 9, over one of `fields`."""
    F = draw(st.sampled_from(fields))
    kind = draw(st.sampled_from(["base", "tensor", "direct_sum", "opposite"]))
    if kind == "tensor":
        return build_tensor_product(_base(draw, F, 4), _base(draw, F, 2))
    if kind == "direct_sum":
        return build_direct_sum(_base(draw, F, 4), _base(draw, F, 4))
    A = _base(draw, F, 9)
    return opposite(A) if kind == "opposite" else A


def change_basis(draw, A: Algebra) -> Algebra:
    """A on the basis of the columns of P = L U, with L unit lower and U
    upper triangular with diagonal entries +-1 (so P is invertible)."""
    F, n = A.field, A.dim
    lower = [{j: F.one if i == j else F.coerce(draw(small_ints)) for j in range(i + 1)}
             for i in range(n)]
    upper = [{j: F.coerce(draw(st.sampled_from([1, -1]) if i == j else small_ints))
              for j in range(i, n)} for i in range(n)]
    P = Matrix(F, n, n, lower) @ Matrix(F, n, n, upper)
    cols = [[P.rows[i].get(a, F.zero) for i in range(n)] for a in range(n)]
    targets = [A.mul_coords(x, y) for x in cols for y in cols] + [A.unit]
    coords = [P.solve_affine(t).particular for t in targets]
    table = [[coords[a * n + b] for b in range(n)] for a in range(n)]
    return Algebra(F, table, coords[-1], label=f"changed({A.label})")


@st.composite
def changed_builders(draw):
    return change_basis(draw, draw(builder_algebras()))


def corrupt(A: Algebra, i: int, j: int, k: int, step: int = 1) -> Algebra:
    """A with `step` added to the coefficient of e_k in e_i * e_j."""
    F = A.field
    table = dense_table(A)
    table[i][j][k] = F.add(table[i][j][k], F.from_int(step))
    return Algebra(F, table, A.unit, label="perturbed")


@st.composite
def perturbed_builders(draw):
    """A builder algebra with one structure constant moved, in its own
    basis, where most products of matrix units vanish, or a changed one."""
    A = draw(builder_algebras())
    if draw(st.booleans()):
        A = change_basis(draw, A)
    i, j, k = (draw(st.integers(0, A.dim - 1)) for _ in range(3))
    return corrupt(A, i, j, k, draw(st.sampled_from([1, -1])))


M2 = build_matrix_algebra(2, QQ)


# the unit laws fail and the generator (1,) passes every triple, yet
# (e_0 e_0) e_0 != e_0 (e_0 e_0): Light's test needs the unit laws
UNITLESS = Algebra(GF(2), [[[0, 1], [1, 0]], [[0, 1], [0, 1]]], [1, 0], label="unitless")


@given(A=st.one_of(random_tables(), changed_builders(), perturbed_builders()))
@example(A=UNITLESS)
# in M2, e_01 e_01 = e_00 keeps the unit laws, so the generators are
# scanned, and fails first at a triple where only e_i e_j vanishes;
# e_00 e_00 = e_00 + e_11 breaks 1 * e_00, so every index is scanned, and
# fails first at a triple where only e_j e_k vanishes
@example(A=corrupt(M2, 1, 1, 0))
@example(A=corrupt(M2, 0, 0, 3))
def test_light_test_matches_full_scan(A):
    gens = A.generators()
    assert list(gens) == sorted(set(gens))
    witness = full_scan_witness(A)
    report = validate_algebra(A)
    assert report["associativity"].passed == (witness is None)
    assert report["associativity"].witness == witness
    if not report.passed:
        # no elimination trusts the generators of an unvalidated algebra
        assert A.fixed_point_indices() == range(A.dim)
        L, R = A.left_mult_matrices(), A.right_mult_matrices()
        assert center(A) == nullspace_from_echelon(_difference_echelon(A.field, A.dim, zip(L, R)))


def unit_witness(A: Algebra):
    """Reference unit-law check in field values: the witness of the first
    failing side, 1 e_i before e_i 1 for each i in turn, or None."""
    F, mul = A.field, A.mul_coords
    for i in range(A.dim):
        e = A.basis_element(i).coords
        for text, side in ((f"1*e_{i}", mul(A.unit, e)), (f"e_{i}*1", mul(e, A.unit))):
            if side != e:
                return f"{text} = {[F.format(c) for c in side]}"
    return None


@st.composite
def unit_perturbed_builders(draw):
    """A builder algebra, in its own basis or a changed one, with its unit
    moved by +-1 or a small multiple at one or two coordinates."""
    A = draw(builder_algebras())
    if draw(st.booleans()):
        A = change_basis(draw, A)
    F = A.field
    steps = [1] if F.characteristic == 2 else [1, -1, 2, Fraction(1, 2)]
    unit = list(A.unit)
    for _ in range(draw(st.integers(1, 2))):
        k = draw(st.integers(0, A.dim - 1))
        unit[k] = F.add(unit[k], F.coerce(draw(st.sampled_from(steps))))
    return Algebra(F, dense_table(A), unit, label="unit moved")


@given(A=st.one_of(unit_perturbed_builders(), builder_algebras(), random_tables()))
@example(A=UNITLESS)
# M2 with 1 = e_00 + e_11 moved by e_01, by e_10 and by both: e_0 = e_00
# fails on the right only, on the left only, and on both sides
@example(A=Algebra(QQ, dense_table(M2), [1, 1, 0, 1], label="e_01 added"))
@example(A=Algebra(QQ, dense_table(M2), [1, 0, 1, 1], label="e_10 added"))
@example(A=Algebra(QQ, dense_table(M2), [1, 1, 1, 1], label="both added"))
@example(A=Algebra(QQ, dense_table(M2), [1, Fraction(1, 2), 0, 1], label="e_01/2 added"))
# i^2 = 1/2 puts the table over the scale 2
@example(A=Algebra(QQ, dense_table(build_quaternion(Fraction(1, 2), 3, QQ)), [1, 0, 1, 0],
                   label="j added"))
def test_unit_laws_match_field_value_reference(A):
    witness = unit_witness(A)
    report = validate_algebra(A)
    assert report["unit"].passed == (witness is None)
    assert report["unit"].witness == witness


def state(ech):
    """An eliminator's state: {pivot column: stored row}."""
    return {p: ech.int_rows[r] for p, r in ech.pivots.items()}


def all_basis_invariants(M):
    return nullspace_from_echelon(_difference_echelon(M.algebra.field, M.dim,
                                                      zip(M.left, M.right)))


def all_basis_echelon(M, N):
    """The relation echelon of M (x)_A N, eliminated over every basis
    element of A."""
    pairs = [(M.right[i].transpose(), N.left[i].transpose()) for i in range(M.algebra.dim)]
    return _difference_echelon(M.algebra.field, M.dim * N.dim, pairs, q=N.dim)


def all_basis_tensor(M, N):
    return state(all_basis_echelon(M, N))


def all_basis_extended(M):
    A = M.algebra
    eye = Matrix.identity(A.field, A.dim)
    pairs = [(eye.kron(l), eye.kron(r)) for l, r in zip(M.left, M.right)]
    return nullspace_from_echelon(_difference_echelon(A.field, A.dim * M.dim, pairs))


@given(A=changed_builders())
def test_generator_eliminations_match_all_basis(A):
    F, n = A.field, A.dim
    assert validate_algebra(A).passed
    assert A.fixed_point_indices() == A.generators()
    L, R = A.left_mult_matrices(), A.right_mult_matrices()
    assert center(A) == nullspace_from_echelon(_difference_echelon(F, n, zip(L, R)))

    ech = _difference_echelon(F, n * n, zip(L, R), q=n)
    expected = [TensorElement._of(A, 2, {divmod(j, n): v for j, v in ints.items()}, den)
                for ints, den in _nullspace_ints(ech)]
    assert [(w.ints, w.den) for w in pair_invariant_basis(A)] == [
        (w.ints, w.den) for w in expected]

    bimodules = [regular_bimodule(A), free_bimodule(A, 2)]
    if n <= 4:
        bimodules.append(square_bimodule(A))
    for M in bimodules:
        assert invariants(M) == all_basis_invariants(M)
    assert extended_invariants(bimodules[0]) == all_basis_extended(bimodules[0])
    for M in bimodules:
        for N in bimodules[:2]:
            assert state(tensor_over_A(M, N)._ech) == all_basis_tensor(M, N)
    # a quotient bimodule of lawful factors is lawful and eliminates alike
    inner = tensor_over_A(bimodules[0], bimodules[1]).bimodule
    assert inner.lawful
    assert invariants(inner) == all_basis_invariants(inner)


def test_unlawful_bimodule_keeps_all_basis_rows():
    # M2 is generated by e11, e12, e21: e22 (index 3) is no generator, and
    # this module lets only e22 act, so the generators alone see no law
    A = build_matrix_algebra(2, QQ)
    assert validate_algebra(A).passed and 3 not in A.generators()
    zero = Matrix.zeros(QQ, 2, 2)
    left = [zero, zero, zero, Matrix(QQ, 2, 2, [{0: QQ.one}, {}])]
    bad = Bimodule(A, left, [zero] * 4, "bad")
    assert not check_bimodule(bad).passed
    assert not bad.lawful and A.fixed_point_indices(bad.lawful) == range(4)
    assert invariants(bad) == all_basis_invariants(bad) == [[QQ.zero, QQ.one]]
    assert extended_invariants(bad) == all_basis_extended(bad)
    reg = regular_bimodule(A)
    assert state(tensor_over_A(bad, reg)._ech) == all_basis_tensor(bad, reg)
    assert state(tensor_over_A(reg, bad)._ech) == all_basis_tensor(reg, bad)
    assert not tensor_over_A(reg, bad).bimodule.lawful


DENSE_M2 = build_algebra_from_spec(json.loads(
    (Path(__file__).parent / "data" / "m2_unitriangular.json").read_text()))


@settings(max_examples=25)
@given(A=changed_builders())
@example(A=DENSE_M2)
def test_quotient_partner_eliminations_match_all_basis(A):
    # a builder factor reads the relation echelon off its free basis,
    # whatever lawful partner it meets: here a quotient bimodule, on
    # either side, whose actions are dense in its own coordinates
    reg, free2 = regular_bimodule(A), free_bimodule(A, 2)
    builders = [reg, square_bimodule(A), free2] if A.dim <= 4 else [reg, free2]
    quotient = tensor_over_A(free2, reg).bimodule
    assert quotient.lawful and quotient.free is None
    for M, N in [(B, quotient) for B in builders] + [(quotient, B) for B in builders]:
        q, expected = tensor_over_A(M, N), all_basis_echelon(M, N)
        assert state(q._ech) == state(expected)
        assert q.projection == _kernel_basis(expected)


def test_free_echelon_needs_every_guard(monkeypatch):
    # a hand-built copy of a builder (its label is no layout), an operand
    # that breaks the laws and an algebra that fails validation each
    # eliminate, and still give the all-basis echelon; builders over a
    # validated algebra do not eliminate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _difference_echelon(*args, **kwargs)

    monkeypatch.setattr(bimodules, "_difference_echelon", counted)
    A = build_matrix_algebra(2, QQ)
    S, reg = square_bimodule(A), regular_bimodule(A)
    copy = Bimodule(A, list(S.left), list(S.right), "square", lawful=True)
    # the operand of `test_unlawful_bimodule_keeps_all_basis_rows`
    zero = Matrix.zeros(QQ, 2, 2)
    bad = Bimodule(A, [zero, zero, zero, Matrix(QQ, 2, 2, [{0: QQ.one}, {}])], [zero] * 4, "bad")
    # M2's table with the unit e_00 alone, which is no two-sided unit
    ununital = Algebra(QQ, dense_table(A), [QQ.one, QQ.zero, QQ.zero, QQ.zero], label="ununital")
    assert not validate_algebra(ununital)["unit"].passed
    ureg = regular_bimodule(ununital)
    assert ureg.lawful and ureg.free is not None
    for M, N in [(copy, copy), (copy, tensor_over_A(reg, reg).bimodule), (bad, reg),
                 (reg, bad), (ureg, ureg), (ureg, square_bimodule(ununital))]:
        before = len(calls)
        assert state(tensor_over_A(M, N)._ech) == all_basis_tensor(M, N)
        assert len(calls) == before + 1
    before = len(calls)
    tensor_over_A(S, reg)
    tensor_over_A(reg, copy)
    assert len(calls) == before


def test_passing_check_bimodule_marks_lawful():
    A = build_quaternion(-1, -1, GF(7))
    reg = regular_bimodule(A)
    copy = Bimodule(A, list(reg.left), list(reg.right), "copy")
    assert reg.lawful and not copy.lawful
    assert check_bimodule(copy).passed and copy.lawful
    assert invariants(copy) == invariants(reg)


def test_generator_counts():
    assert build_matrix_algebra(3, QQ).generators() == (0, 1, 2, 3, 6)
    assert len(build_matrix_algebra(6, QQ).generators()) == 11
    H = build_tensor_product(build_matrix_algebra(2, GF(7)), build_quaternion(-1, -1, GF(7)))
    assert len(H.generators()) == 5
    assert build_poly_quotient([1, 0, 0, 0, 1], QQ).generators() == (1,)
    # without the unit laws the span of the generators' products can stop
    # short of A, and every index is taken
    F = QQ
    broken = Algebra(F, [[[F.zero] * 2] * 2] * 2, [F.one, F.zero])
    assert broken.generators() == (0, 1)
