"""Bimodules, quotients, the braiding and the adjunction maps."""
import json
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rbraid import (
    GF,
    QQ,
    Algebra,
    Bimodule,
    Matrix,
    TensorElement,
    adjunction_unit,
    alpha_map,
    audit_braiding,
    braiding_map,
    build_direct_sum,
    build_matrix_algebra,
    build_poly_quotient,
    build_quaternion,
    build_tensor_product,
    canonical_morphism,
    certify,
    check_bimodule,
    epsilon_map,
    free_bimodule,
    invariants,
    matrix_closed_form,
    monoidal_F_audit,
    quaternion_closed_form,
    regular_bimodule,
    solve_rmatrix,
    square_bimodule,
    tensor_over_A,
    unit_tensor,
    validate_algebra,
    verify_rmatrix,
    zeta_map,
)
from rbraid import bimodules
from rbraid.algebra import _expand
from rbraid.bimodules import (
    QuotientMap,
    QuotientSpace,
    _KronChain,
    _closed_naturality,
    _hstack,
    _r_operator,
    associator,
    extended_invariants,
    induced_map,
    is_bimodule_map,
)
from rbraid.checks import CheckReport
from rbraid.linalg import _reduced
from rbraid.rmatrix import RMatrixCertificate
from rbraid.cli import build_algebra_from_spec
from rbraid.errors import NotWellDefined, RBraidError, ShapeMismatch
from conftest import swap_matrix, unitriangular_basis, upper_triangular_2x2


def with_coefficient(r, digits, value):
    """A copy of `r` whose coefficient at `digits` is set to `value`."""
    coeffs = dict(r.coeffs)
    coeffs[digits] = value
    return TensorElement.from_terms(r.algebra, r.arity, coeffs.items())


@pytest.fixture(scope="module")
def m2():
    return build_matrix_algebra(2, QQ)


@pytest.fixture(scope="module")
def cert(m2):
    return solve_rmatrix(m2)


def test_constructors_and_laws(m2):
    reg = regular_bimodule(m2)
    sq = square_bimodule(m2)
    fr = free_bimodule(m2, 3)
    assert (reg.dim, sq.dim, fr.dim) == (4, 16, 12)
    for M in (reg, sq, fr):
        assert check_bimodule(M).passed
    # constants over a common denominator (6 here) enter the
    # (anti-)representation laws divided by it
    H = build_quaternion("1/2", "1/3", QQ)
    for M in (regular_bimodule(H), square_bimodule(H), free_bimodule(H, 2)):
        assert check_bimodule(M).passed


def test_check_bimodule_witnesses(m2):
    # e_0..e_3 = E11, E12, E21, E22.  The right action a -> L_{a^T} is an
    # anti-representation that does not commute with the left action;
    # doubling L_{E22} and the right action of E11 then breaks both
    # (anti-)representation laws, each at its own first pair in row-major
    # order, and the unit law on both sides
    L = m2.left_mult_matrices()
    left = [L[0], L[1], L[2], L[3] + L[3]]
    right = [L[0] + L[0], L[2], L[1], L[3]]
    M = Bimodule(m2, left, right, "broken")
    assert entries(check_bimodule(M)) == [
        ("unital", False, "left and right actions of 1 are not the identity"),
        ("representation", False, "left action fails on (e_1, e_3)"),
        ("anti_representation", False, "right action fails on (e_0, e_0)"),
        ("actions_commute", False, "actions do not commute on (e_0, e_1)"),
    ]
    assert not M.lawful
    transposed = Bimodule(m2, L, [L[0], L[2], L[1], L[3]], "transposed")
    assert entries(check_bimodule(transposed)) == [
        ("unital", True, None),
        ("representation", True, None),
        ("anti_representation", True, None),
        ("actions_commute", False, "actions do not commute on (e_0, e_1)"),
    ]
    # the unit law names the one side that fails
    transposed_right = [L[0], L[2], L[1], L[3]]
    for lefts, rights, witness in [
        (left, transposed_right, "left action of 1 is not the identity"),
        (L, [L[0], L[2], L[1], L[3] + L[3]], "right action of 1 is not the identity"),
    ]:
        report = check_bimodule(Bimodule(m2, lefts, rights, "one side"))
        assert entries(report)[0] == ("unital", False, witness)


def test_constructors_cached(m2):
    assert regular_bimodule(m2) is regular_bimodule(m2)
    assert square_bimodule(m2) is square_bimodule(m2)
    assert free_bimodule(m2, 2) is free_bimodule(m2, 2)


def test_invariant_dimensions(m2):
    assert len(invariants(regular_bimodule(m2))) == 1  # the center
    assert len(invariants(square_bimodule(m2))) == 4
    assert len(invariants(free_bimodule(m2, 3))) == 3


def test_square_invariants_match_known_span(m2):
    # sum_k e_ki (x) e_jk is invariant for each (i, j); these four span
    # the computed space
    inv = invariants(square_bimodule(m2))
    n = 2
    claimed = []
    for i in range(n):
        for j in range(n):
            vec = [QQ.zero] * 16
            for k in range(n):
                vec[(k * n + i) * 4 + (j * n + k)] = QQ.one
            claimed.append(vec)
    solutions = [Matrix.from_columns(QQ, 16, inv).solve_affine(vec) for vec in claimed]
    assert not any(sol.is_empty for sol in solutions)
    assert Matrix.from_columns(QQ, 4, [sol.particular for sol in solutions]).is_bijective()


def test_tensor_over_A_dims(m2):
    reg = regular_bimodule(m2)
    sq = square_bimodule(m2)
    assert tensor_over_A(reg, reg).dim == 4       # A (x)_A A ~ A
    assert tensor_over_A(sq, sq).dim == 64        # A2 (x)_A A2 ~ A3
    assert tensor_over_A(reg, free_bimodule(m2, 3)).dim == 12
    assert tensor_over_A(sq, free_bimodule(m2, 2)).dim == 32


def test_tensor_over_A_cached(m2):
    reg = regular_bimodule(m2)
    assert tensor_over_A(reg, reg) is tensor_over_A(reg, reg)


def test_tensor_associativity_dims(m2):
    reg = regular_bimodule(m2)
    sq = square_bimodule(m2)
    fr = free_bimodule(m2, 2)
    for M, N, P in [(reg, sq, fr), (sq, sq, sq), (fr, reg, sq)]:
        left = tensor_over_A(tensor_over_A(M, N).bimodule, P).dim
        right = tensor_over_A(M, tensor_over_A(N, P).bimodule).dim
        assert left == right


def test_projection_section_identity(m2):
    sq = square_bimodule(m2)
    q = tensor_over_A(sq, sq)
    assert q.projection @ q.section == Matrix.identity(QQ, q.dim)
    # relations lie in the kernel of the projection
    for rel in q.relation_rows():
        vec = [QQ.zero] * q.ambient_dim
        for j, v in rel.items():
            vec[j] = v
        assert all(x == QQ.zero for x in q.projection.matvec(vec))


def test_quotient_bimodule_structure(m2):
    q = tensor_over_A(regular_bimodule(m2), square_bimodule(m2))
    assert check_bimodule(q.bimodule).passed


def test_braiding_squares_to_identity(m2, cert):
    reg = regular_bimodule(m2)
    sq = square_bimodule(m2)
    for M, N in [(reg, reg), (reg, sq), (sq, sq), (free_bimodule(m2, 2), sq)]:
        c = braiding_map(cert, M, N)
        c_back = braiding_map(cert, N, M)
        assert (c_back @ c).is_identity()
        assert c.is_bijective()
        assert is_bimodule_map(
            tensor_over_A(M, N).bimodule, tensor_over_A(N, M).bimodule, c.matrix
        )


def test_braiding_of_unit_class_is_r(m2, cert):
    # the braiding on the square bimodule sends the class of 1 (x) 1 (x)_A
    # 1 (x) 1 to the class of the solved tensor under the identification
    # (a (x) b) (x)_A (c (x) d) -> a (x) bc (x) d
    sq = square_bimodule(m2)
    q = tensor_over_A(sq, sq)
    c = braiding_map(cert, sq, sq)
    unit2 = unit_tensor(m2, 2)
    amb = [QQ.zero] * 256
    for (x, y), u in unit2.coeffs.items():
        for (z, w), v in unit2.coeffs.items():
            amb[(x * 4 + y) * 16 + z * 4 + w] = QQ.mul(u, v)
    image = c.matrix.matvec(q.projection.matvec(amb))
    # lift the solved tensor through the section (i,j,k) -> (i(x)j)(x)(1(x)k)
    lift = [QQ.zero] * 256
    for (i, j, k), v in cert.r.iter_nonzero():
        for s, u in enumerate(m2.unit):
            if u != QQ.zero:
                idx = (i * 4 + j) * 16 + (s * 4 + k)
                lift[idx] = QQ.add(lift[idx], QQ.mul(v, u))
    assert image == q.projection.matvec(lift)


def test_switch_braiding_on_scalars():
    k = build_matrix_algebra(1, QQ)
    ck = solve_rmatrix(k)
    # over the base field every bimodule is a plain vector space and the
    # braiding with the unit tensor is the switch map
    V = free_bimodule(k, 2)
    W = free_bimodule(k, 3)
    c = braiding_map(ck, V, W)
    assert c.matrix == swap_matrix(QQ, 2, 3)


def test_braiding_not_well_defined_for_corrupted_tensor(m2):
    # perturb one coefficient
    r = with_coefficient(matrix_closed_form(2, QQ), (0, 0, 1), Fraction(1))
    bad_cert = certify(m2, r)
    assert not bad_cert.valid
    reg = regular_bimodule(m2)
    with pytest.raises(NotWellDefined):
        braiding_map(bad_cert, reg, reg)


def test_epsilon_zeta_round_trip(m2, cert):
    for M in (regular_bimodule(m2), square_bimodule(m2), free_bimodule(m2, 2)):
        eps = epsilon_map(M)
        zeta = zeta_map(cert, M)
        assert eps @ zeta == Matrix.identity(QQ, M.dim)
        assert zeta @ eps == Matrix.identity(QQ, eps.ncols)


def test_epsilon_zeta_quaternion():
    cert = solve_rmatrix(build_quaternion(-1, -1, QQ))
    A = cert.algebra
    M = square_bimodule(A)
    eps = epsilon_map(M)
    zeta = zeta_map(cert, M)
    assert eps @ zeta == Matrix.identity(QQ, M.dim)
    assert zeta @ eps == Matrix.identity(QQ, eps.ncols)


def test_alpha_bijective_everywhere():
    # the comparison map is bijective over a field even when no R exists
    algebras = [
        build_matrix_algebra(2, QQ),
        build_quaternion(-1, -1, QQ),
        build_poly_quotient([0, 0, 1], QQ),
        upper_triangular_2x2(QQ),
        build_matrix_algebra(2, GF(5)),
    ]
    for A in algebras:
        for M in (regular_bimodule(A), square_bimodule(A), free_bimodule(A, 2)):
            al = alpha_map(M)
            assert al.nrows == al.ncols, A.label
            assert al.is_bijective(), A.label


def test_adjunction_unit(m2):
    eta = adjunction_unit(m2, 3)
    # for a central simple algebra the invariants of the free bimodule
    # are spanned by 1 (x) n, so the unit map is bijective
    assert eta.nrows == eta.ncols == 3
    assert eta.is_bijective()


def test_canonical_morphism_properties(m2):
    reg = regular_bimodule(m2)
    sq = square_bimodule(m2)
    # f_1 on the regular bimodule is the multiplication map a (x) b -> ab
    f1 = canonical_morphism(reg, m2.unit)
    for i in range(4):
        for j in range(4):
            prod = m2.basis_element(i) * m2.basis_element(j)
            assert [r.get(i * 4 + j, QQ.zero) for r in f1.rows] == prod.coords
    # f_m(1 (x) 1) = m
    rng = random.Random(23)
    for M in (reg, sq):
        m = [Fraction(rng.randrange(-3, 4)) for _ in range(M.dim)]
        f = canonical_morphism(M, m)
        unit2 = unit_tensor(m2, 2)
        one_one = [unit2.coefficient((a, b)) for a in range(4) for b in range(4)]
        assert f.matvec(one_one) == m
        assert is_bimodule_map(sq, M, f)


# -- the adjunction maps against dense-vector references ---------------------
#
# Each reference builds the targets of a map as dense vectors and solves for
# their coordinates in the canonical invariant basis with one affine solve a
# target; the maps must equal them entry for entry.


def coordinates_reference(F, basis, dim, targets):
    """The matrix whose columns are the unique coordinates of the targets in
    the basis; NotWellDefined when a target lies outside its span."""
    B = Matrix.from_columns(F, dim, basis)
    columns = []
    for target in targets:
        sol = B.solve_affine(target)
        if sol.is_empty:
            raise NotWellDefined("target outside the span")
        assert sol.basis == []
        columns.append(sol.particular)
    return Matrix.from_columns(F, len(basis), columns)


def epsilon_reference(M):
    cols = [L.matvec(u) for L in M.left for u in invariants(M)]
    return Matrix.from_columns(M.algebra.field, M.dim, cols)


def zeta_reference(cert, M):
    A, F = M.algebra, M.algebra.field
    inv = invariants(M)
    ops = [Matrix.zeros(F, M.dim, M.dim) for _ in range(A.dim)]
    for (i, j, k), c in cert.r.iter_nonzero():
        ops[i] = ops[i] + (M.left[j] @ M.right[k]).scale(c)
    rows = [{} for _ in range(A.dim * len(inv))]
    for beta in range(M.dim):
        e = [F.one if s == beta else F.zero for s in range(M.dim)]
        # column i holds the coordinates of R2.e_beta.R3 over R1 = e_i
        coords = coordinates_reference(F, inv, M.dim, [op.matvec(e) for op in ops])
        for t, row in enumerate(coords.rows):
            for i, v in row.items():
                rows[i * len(inv) + t][beta] = v
    return Matrix(F, A.dim * len(inv), M.dim, rows)


def alpha_reference(M):
    A, F = M.algebra, M.algebra.field
    targets = []
    for i in range(A.dim):
        for u in invariants(M):
            vec = [F.zero] * (A.dim * M.dim)
            vec[i * M.dim:(i + 1) * M.dim] = u
            targets.append(vec)
    ext = extended_invariants(M)
    return coordinates_reference(F, ext, A.dim * M.dim, targets)


def eta_reference(A, d):
    F = A.field
    V = free_bimodule(A, d)
    targets = []
    for s in range(d):
        vec = [F.zero] * V.dim
        vec[s::d] = A.unit
        targets.append(vec)
    return coordinates_reference(F, invariants(V), V.dim, targets)


def canonical_reference(M, m):
    cols = [L.matvec(R.matvec(m)) for L in M.left for R in M.right]
    return Matrix.from_columns(M.algebra.field, M.dim, cols)


def dense_m2():
    path = Path(__file__).parent / "data" / "m2_unitriangular.json"
    return build_algebra_from_spec(json.loads(path.read_text()))


ADJUNCTION_ALGEBRAS = [
    lambda: build_matrix_algebra(2, QQ),
    lambda: build_quaternion(-1, -1, QQ),
    lambda: build_quaternion(2, 3, GF(7)),
    lambda: build_matrix_algebra(2, GF(2)),
    lambda: build_poly_quotient([0, 0, 1], QQ),
    lambda: upper_triangular_2x2(QQ),
    lambda: build_direct_sum(build_matrix_algebra(1, GF(5)), build_matrix_algebra(1, GF(5))),
    dense_m2,
]


@pytest.mark.parametrize("build", ADJUNCTION_ALGEBRAS)
def test_adjunction_maps_match_dense_reference(build):
    A = build()
    cert = solve_rmatrix(A)
    rng = random.Random(A.dim)
    for M in (regular_bimodule(A), square_bimodule(A), free_bimodule(A, 2)):
        assert epsilon_map(M) == epsilon_reference(M), (A.label, M.label)
        assert alpha_map(M) == alpha_reference(M), (A.label, M.label)
        if cert is not None:
            assert zeta_map(cert, M) == zeta_reference(cert, M), (A.label, M.label)
        for m in ([A.field.coerce(rng.randrange(-3, 4)) for _ in range(M.dim)],
                  [A.field.zero] * M.dim):
            assert canonical_morphism(M, m) == canonical_reference(M, m), (A.label, M.label)
    for d in (1, 2, 3):
        assert adjunction_unit(A, d) == eta_reference(A, d), (A.label, d)


def test_zeta_rejects_corrupted_certificate(m2):
    # a changed coefficient sends some R2.m.R3 outside the invariants
    bad = corrupted_cert(m2, matrix_closed_form(2, QQ))
    with pytest.raises(NotWellDefined, match="image component is not invariant"):
        zeta_map(bad, regular_bimodule(m2))


def test_induced_map_rejects_non_map(m2):
    # the raw switch on A (x) A is not well-defined over the algebra
    reg = regular_bimodule(m2)
    q = tensor_over_A(reg, reg)
    with pytest.raises(NotWellDefined):
        induced_map(q, q, swap_matrix(QQ, 4, 4), what="naive switch")


def test_composition_needs_the_same_middle_space(m2):
    # A (x)_A A of M2 and a plain 4-space have one dimension but
    # different coordinates, so composing through them must fail
    q = tensor_over_A(regular_bimodule(m2), regular_bimodule(m2))
    plain = QuotientSpace.full(QQ, 4)
    eye = Matrix.identity(QQ, 4)
    into_plain = QuotientMap(plain, plain, eye)
    out_of_q = QuotientMap(q, plain, eye)
    assert q.dim == plain.dim == 4
    with pytest.raises(ShapeMismatch):
        out_of_q @ into_plain
    composed = into_plain @ out_of_q
    assert composed.source is q and composed.target is plain
    assert composed.is_identity()


def test_audit_regular_triple(m2, cert):
    reg = regular_bimodule(m2)
    report = audit_braiding(cert, reg, reg, reg)
    assert report.passed, report.failures


def test_audit_mixed_triple(m2, cert):
    reg = regular_bimodule(m2)
    sq = square_bimodule(m2)
    fr = free_bimodule(m2, 2)
    report = audit_braiding(cert, reg, sq, fr)
    assert report.passed, report.failures


def corrupted_cert(A, closed_form):
    """The certificate of `test_audit_catches_corrupted_tensor`: one
    coefficient of the closed form changed to 5."""
    return certify(A, with_coefficient(closed_form, (0, 1, 2), A.field.coerce(5)))


def scaled_cert(A, closed_form):
    """The certificate of `test_audit_catches_scaled_tensor`: the closed
    form times 2."""
    return certify(A, closed_form.scale(A.field.coerce(2)))


def entries(report):
    """Every (name, verdict, witness) of a report, in order."""
    return [(c.name, c.passed, c.witness) for c in report]


ILL_DEFINED_REGULAR3 = [
    ("well_defined[M,N]", False, "braiding does not preserve the balancing relations"),
    ("hexagon1", False, "not evaluated: braiding ill-defined"),
    ("hexagon2", False, "not evaluated: braiding ill-defined"),
]

SCALED_REGULAR3 = [
    ("well_defined[M,N]", True, None),
    ("braiding_bijective", True, None),
    ("braiding_bimodule_map", True, None),
    ("symmetry", False, "c(N,M)c(M,N) != id"),
    ("associator_roundtrip", True, None),
    ("hexagon1", False, "c(M(x)N,P) differs from the two-step braiding"),
    ("hexagon2", False, "c(M,N(x)P) differs from the two-step braiding"),
    ("naturality", True, None),
]


def test_audit_catches_corrupted_tensor(m2):
    bad_cert = corrupted_cert(m2, matrix_closed_form(2, QQ))
    reg = regular_bimodule(m2)
    report = audit_braiding(bad_cert, reg, reg, reg)
    assert not report.passed
    assert report.failures[0].witness
    assert entries(report) == ILL_DEFINED_REGULAR3


def test_audit_catches_scaled_tensor(m2):
    # scaling keeps the braiding well-defined but destroys the symmetry
    bad_cert = scaled_cert(m2, matrix_closed_form(2, QQ))
    reg = regular_bimodule(m2)
    report = audit_braiding(bad_cert, reg, reg, reg)
    assert not report.passed
    names = {c.name for c in report.failures}
    assert "symmetry" in names or "hexagon1" in names
    assert entries(report) == SCALED_REGULAR3


SCALED_SQUARE_SQUARE_REGULAR = [
    ("well_defined[M,N]", True, None),
    ("well_defined[M,P]", True, None),
    ("braiding_bijective", True, None),
    ("braiding_bimodule_map", True, None),
    ("symmetry", False, "c(N,M)c(M,N) != id"),
    ("associator_roundtrip", True, None),
    ("hexagon1", False, "c(M(x)N,P) differs from the two-step braiding"),
    ("hexagon2", False, "c(M,N(x)P) differs from the two-step braiding"),
    ("naturality", True, None),
]


@pytest.mark.parametrize("name", ["M2/Q", "H(-1,-1)/GF(7)"])
def test_scaled_square_audit_report_pinned(name):
    # 2R keeps every braiding well defined, c1 being linear in R, but
    # breaks the symmetry and both hexagons: the failing comparisons run
    # on quotients whose relation echelons a builder factor gives
    A, cert = solved(name)
    S = square_bimodule(A)
    report = audit_braiding(scaled_cert(A, cert.r), S, S, regular_bimodule(A))
    assert entries(report) == SCALED_SQUARE_SQUARE_REGULAR


def fresh_copy(M):
    """A distinct Bimodule with the same matrices and label, which the
    audit maps back to the first equal operand."""
    return Bimodule(M.algebra, list(M.left), list(M.right), M.label)


AUDIT_ALGEBRAS = {
    "M2/Q": lambda: (build_matrix_algebra(2, QQ), matrix_closed_form(2, QQ)),
    "H(-1,-1)/GF(7)": lambda: (build_quaternion(-1, -1, GF(7)),
                               quaternion_closed_form(-1, -1, GF(7))),
}
CERTS = {
    "valid": lambda A, r: certify(A, r),
    "corrupted": corrupted_cert,
    "scaled": scaled_cert,
}


@pytest.mark.parametrize("algebra, kinds", [
    ("M2/Q", ("regular", "regular", "regular")),
    ("M2/Q", ("square", "square", "regular")),
    ("H(-1,-1)/GF(7)", ("regular", "regular", "regular")),
])
@pytest.mark.parametrize("which", sorted(CERTS))
def test_audit_bytes_same_with_repeated_operands(algebra, kinds, which):
    # an audit of a repeated bimodule reports exactly what it reports on
    # distinct but equal copies, byte for byte
    A, closed_form = AUDIT_ALGEBRAS[algebra]()
    cert = CERTS[which](A, closed_form)
    build = {"regular": regular_bimodule, "square": square_bimodule}
    repeated = [build[k](A) for k in kinds]
    copies = [fresh_copy(M) for M in repeated]
    assert len({id(M) for M in copies}) == 3
    shared = audit_braiding(cert, *repeated)
    apart = audit_braiding(cert, *copies)
    assert entries(shared) == entries(apart)
    assert json.dumps(shared.to_json()) == json.dumps(apart.to_json())
    assert shared.passed == apart.passed == (which == "valid")
    if kinds[0] == kinds[1] == kinds[2]:
        expected = {"corrupted": ILL_DEFINED_REGULAR3, "scaled": SCALED_REGULAR3}
        if which in expected:
            assert entries(shared) == expected[which]


def ambient_key(ambient):
    """The entries of an ambient map given to `induced_map`: a Matrix, or
    the (X, n, inner) factors of a product of Kronecker factors."""
    if isinstance(ambient, Matrix):
        return ambient.den, repr(ambient.ints)
    return tuple((X.den, repr(X.ints), n, inner) for X, n, inner in ambient.factors)


def test_audit_builds_each_map_once(monkeypatch):
    # square^3 passes one bimodule three times: every derived map is built
    # once per distinct operands, never once per call site
    A = build_matrix_algebra(2, QQ)
    cert = solve_rmatrix(A)
    sq = square_bimodule(A)
    calls = {name: [] for name in
             ("associator", "induced_map", "braiding_map", "canonical_morphism")}

    def counting(name, key):
        original = getattr(bimodules, name)

        def wrapper(*args, **kwargs):
            calls[name].append(key(*args, **kwargs))
            return original(*args, **kwargs)
        monkeypatch.setattr(bimodules, name, wrapper)

    counting("associator", lambda M, N, P, inverse=False: (id(M), id(N), id(P), inverse))
    counting("induced_map", lambda source, target, ambient, what="map":
             (id(source), id(target), ambient_key(ambient)))
    counting("braiding_map", lambda cert, M, N: (id(M), id(N)))
    counting("canonical_morphism", lambda M, m: (id(M), tuple(m)))
    report = audit_braiding(cert, sq, sq, sq)
    assert report.passed, report.failures
    for name, keys in calls.items():
        assert len(keys) == len(set(keys)), name
    # 2 whiskered braidings and the induced map inside each of the 3
    # braidings; naturality follows from its guards, with no induced map
    # and no canonical morphism
    assert {name: len(keys) for name, keys in calls.items()} == {
        "associator": 2, "induced_map": 5, "braiding_map": 3, "canonical_morphism": 0}


def test_audit_failed_build_is_not_reused(monkeypatch, m2, cert):
    # a whiskered braiding that fails to build is stored nowhere: the
    # second hexagon builds it again and reports it under its own label
    original = bimodules.induced_map

    def refuse_whiskers(source, target, ambient, what="map"):
        if " (x) c(" in what:
            raise NotWellDefined(f"{what} does not preserve the balancing relations")
        return original(source, target, ambient, what=what)

    monkeypatch.setattr(bimodules, "induced_map", refuse_whiskers)
    reg = regular_bimodule(m2)
    report = audit_braiding(cert, reg, reg, reg)
    assert report["hexagon1"].witness == (
        "M (x) c(N,P) does not preserve the balancing relations")
    assert report["hexagon2"].witness == (
        "N (x) c(M,P) does not preserve the balancing relations")
    assert report["naturality"].passed


def test_monoidal_audit(m2, cert):
    for d1, d2 in [(1, 1), (2, 3), (3, 2)]:
        assert monoidal_F_audit(cert, d1, d2).passed


def test_monoidal_audit_quaternion():
    cert = solve_rmatrix(build_quaternion(-1, -1, QQ))
    assert monoidal_F_audit(cert, 2, 2).passed


# -- the index-map paths against the explicit products ------------------------
#
# `bimodules` applies the flip as a column relabelling, the section as a
# column selection and every Kronecker product with an identity factor
# through `_KronChain`; the references below build each of those matrices
# and multiply, as the code once did.

STRUCTURED_ALGEBRAS = {
    "M2/Q": lambda: build_matrix_algebra(2, QQ),
    "M2/GF(5)": lambda: build_matrix_algebra(2, GF(5)),
    "H(-1,-1)/Q": lambda: build_quaternion(-1, -1, QQ),
    "H(-1,-1)/GF(7)": lambda: build_quaternion(-1, -1, GF(7)),
    "dense M2/Q": dense_m2,
    "dense M2/GF(7)": lambda: unitriangular_basis(build_matrix_algebra(2, GF(7)), 3),
}
KINDS = ["regular", "square", "free:1", "free:2", "free:3"]


@cache
def solved(name):
    A = STRUCTURED_ALGEBRAS[name]()
    return A, solve_rmatrix(A)


def bimodule_of(A, kind):
    if kind == "regular":
        return regular_bimodule(A)
    if kind == "square":
        return square_bimodule(A)
    return free_bimodule(A, int(kind[len("free:"):]))


def eye(F, n):
    return Matrix.identity(F, n)


def reference_induced(source, target, ambient, what):
    """`induced_map` with the relation check and the section as explicit
    matrix products; the induced matrix, or the NotWellDefined witness."""
    F = source.field
    relations = Matrix(F, len(source.relation_rows()), source.ambient_dim,
                       [dict(r) for r in source.relation_rows()])
    projected = target.projection @ ambient
    if not (projected @ relations.transpose()).is_zero():
        return f"{what} does not preserve the balancing relations"
    return projected @ source.section


def outcome(build):
    """What `build()` gives: its matrix, or the witness of NotWellDefined."""
    try:
        return build().matrix
    except NotWellDefined as exc:
        return str(exc)


def reference_r_operator(cert, Y, X):
    """sum c * (Y.left[i] Y.right[j]) (x) X[k] over the terms of R, times
    the explicit flip."""
    F = Y.algebra.field
    dx = X[0].nrows
    total = Matrix.zeros(F, Y.dim * dx, Y.dim * dx)
    for (i, j, k), c in cert.r.iter_nonzero():
        total = total + (Y.left[i] @ Y.right[j]).kron(X[k]).scale(c)
    return total @ swap_matrix(F, dx, Y.dim)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(STRUCTURED_ALGEBRAS)), st.sampled_from(KINDS),
       st.sampled_from(KINDS), st.sampled_from(["regular", "free:1", "free:2"]),
       st.integers(0, 2 ** 32))
@example("dense M2/Q", "square", "free:2", "free:1", 0)
def test_index_map_paths_match_explicit_products(name, m, n, p, seed):
    A, cert = solved(name)
    F = A.field
    M, N, P = (bimodule_of(A, kind) for kind in (m, n, p))
    qmn, qnm = tensor_over_A(M, N), tensor_over_A(N, M)
    # the quotient actions P (L (x) I) S and P (I (x) R) S
    for i in range(A.dim):
        assert qmn.bimodule.left[i] == qmn.projection @ M.left[i].kron(eye(F, N.dim)) @ qmn.section
        assert qmn.bimodule.right[i] == (
            qmn.projection @ eye(F, M.dim).kron(N.right[i]) @ qmn.section)
    # the flip, and the braiding it induces
    assert _r_operator(cert, N, M.right) == reference_r_operator(cert, N, M.right)
    c = braiding_map(cert, M, N)
    assert c.matrix == reference_induced(qmn, qnm, reference_r_operator(cert, N, M.right), "c")
    # the whiskers P (x) c(M,N) and c(M,N) (x) P
    src = tensor_over_A(P, qmn.bimodule)
    dst = tensor_over_A(P, qnm.bimodule)
    assert outcome(lambda: induced_map(src, dst, _KronChain((c.matrix, P.dim, True)), "w")) == (
        reference_induced(src, dst, eye(F, P.dim).kron(c.matrix), "w"))
    src = tensor_over_A(qmn.bimodule, P)
    dst = tensor_over_A(qnm.bimodule, P)
    assert outcome(lambda: induced_map(src, dst, _KronChain((c.matrix, P.dim, False)), "w")) == (
        reference_induced(src, dst, c.matrix.kron(eye(F, P.dim)), "w"))
    # both associators
    qnp = tensor_over_A(N, P)
    grouped_left = tensor_over_A(qmn.bimodule, P)
    grouped_right = tensor_over_A(M, qnp.bimodule)
    assert associator(M, N, P).matrix == (
        grouped_right.projection @ eye(F, M.dim).kron(qnp.projection)
        @ qmn.section.kron(eye(F, P.dim)) @ grouped_left.section)
    assert associator(M, N, P, inverse=True).matrix == (
        grouped_left.projection @ qmn.projection.kron(eye(F, P.dim))
        @ eye(F, M.dim).kron(qnp.section) @ grouped_right.section)
    # a naturality map f (x) g = (f (x) I)(I (x) g) from the square of the
    # square bimodule, on random samples
    rng = random.Random(seed)
    f, g = (canonical_morphism(X, [F.coerce(rng.randrange(-2, 3)) for _ in range(X.dim)])
            for X in (M, N))
    chain = _KronChain((f, N.dim, False), (g, f.ncols, True))
    assert (chain.nrows, chain.ncols) == (M.dim * N.dim, f.ncols * g.ncols)
    assert qmn.projection @ chain == qmn.projection @ f.kron(g)
    sq = square_bimodule(A)
    q_a2 = tensor_over_A(sq, sq)
    assert outcome(lambda: induced_map(q_a2, qmn, chain, "f (x) g")) == (
        reference_induced(q_a2, qmn, f.kron(g), "f (x) g"))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(STRUCTURED_ALGEBRAS)), st.sampled_from(KINDS),
       st.sampled_from(["regular", "free:1", "free:2"]),
       st.tuples(*[st.integers(0, 3)] * 3), st.integers(1, 3),
       st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)))
@example("dense M2/Q", "square", "free:2", (0, 1, 2), 1, (5, 7))
def test_perturbed_maps_fail_where_explicit_products_fail(name, m, p, digits, delta, at):
    # a perturbed certificate, and a perturbed braiding matrix under a
    # whisker, each fail exactly where the explicit products fail, with
    # the same witness; every algebra here has dimension 4, and the bump
    # lands at the entry `at` reduced modulo the braiding's shape
    A, cert = solved(name)
    F = A.field
    M, P = bimodule_of(A, m), bimodule_of(A, p)
    delta = F.coerce(delta)
    bad = RMatrixCertificate(
        A, with_coefficient(cert.r, digits, F.add(cert.r.coefficient(digits), delta)),
        CheckReport([]))
    qmp, qpm = tensor_over_A(M, P), tensor_over_A(P, M)
    assert outcome(lambda: braiding_map(bad, M, P)) == reference_induced(
        qmp, qpm, reference_r_operator(bad, P, M.right),
        "braiding")
    c = braiding_map(cert, M, P).matrix
    i, j = at[0] % c.nrows, at[1] % c.ncols
    bump = Matrix(F, c.nrows, c.ncols, [{j: delta} if r == i else {} for r in range(c.nrows)])
    bad_c = c + bump
    src = tensor_over_A(P, qmp.bimodule)
    dst = tensor_over_A(P, qpm.bimodule)
    what = "P (x) c(M,P)"
    assert outcome(lambda: induced_map(src, dst, _KronChain((bad_c, P.dim, True)), what)) == (
        reference_induced(src, dst, eye(F, P.dim).kron(bad_c), what))
    src = tensor_over_A(qmp.bimodule, P)
    dst = tensor_over_A(qpm.bimodule, P)
    what = "c(M,P) (x) P"
    assert outcome(lambda: induced_map(src, dst, _KronChain((bad_c, P.dim, False)), what)) == (
        reference_induced(src, dst, bad_c.kron(eye(F, P.dim)), what))


# -- the bimodule-map check on generators against every basis index ----------


def commutes_on_every_index(M, N, matrix):
    """Reference: the matrix commutes with both actions of every basis
    element."""
    return all(matrix @ M.left[i] == N.left[i] @ matrix
               and matrix @ M.right[i] == N.right[i] @ matrix
               for i in range(M.algebra.dim))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["M2/Q", "H(-1,-1)/Q", "H(-1,-1)/GF(7)", "dense M2/GF(7)"]),
       st.sampled_from(KINDS), st.sampled_from(KINDS),
       st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)))
def test_bimodule_map_generator_scan_matches_every_index(name, m, n, at):
    # the braiding between the audited quotient bimodules, and the same
    # matrix with one entry bumped
    A, cert = solved(name)
    F = A.field
    M, N = bimodule_of(A, m), bimodule_of(A, n)
    qmn, qnm = tensor_over_A(M, N).bimodule, tensor_over_A(N, M).bimodule
    assert qmn.lawful and qnm.lawful
    c = braiding_map(cert, M, N).matrix
    i, j = at[0] % c.nrows, at[1] % c.ncols
    bumped = c + Matrix(F, c.nrows, c.ncols, [{j: F.one} if r == i else {}
                                              for r in range(c.nrows)])
    assert is_bimodule_map(qmn, qnm, c) and commutes_on_every_index(qmn, qnm, c)
    assert is_bimodule_map(qmn, qnm, bumped) == commutes_on_every_index(qmn, qnm, bumped)


def test_bimodule_map_scans_every_index_when_unlawful():
    # N is the regular bimodule of M2 with the left action of e_11, which
    # is not a generator, doubled: the identity commutes with the actions
    # of the generators only
    A = build_matrix_algebra(2, QQ)
    assert 3 not in A.generators()
    M = regular_bimodule(A)
    left = list(M.left)
    left[3] = left[3].scale(QQ.coerce(2))
    eye4 = Matrix.identity(QQ, 4)
    assert not is_bimodule_map(M, Bimodule(A, left, M.right, "bent"), eye4)
    # only a (false) claim of the laws lets the scan skip e_11
    assert is_bimodule_map(M, Bimodule(A, left, M.right, "bent", lawful=True), eye4)


# -- naturality on S (x)_A S = A (x) A (x) A -----------------------------------
#
# The audit decides naturality from its guards (proof at `audit_braiding`).
# The references below compare the maps it no longer builds: on the
# eliminated quotient S (x)_A S, and in closed form on A (x) A (x) A, which
# the identification Q: (x (x) y) (x) (z (x) w) -> x (x) yz (x) w and the
# representatives (x (x) y) (x) (1 (x) w), written in field values from
# `mul_coords`, tie to it.


def collapse_reference(A):
    """Q as an n^3 x n^4 matrix: the ambient basis vector of
    (e_x (x) e_y) (x) (e_z (x) e_w) goes to e_x (x) e_y e_z (x) e_w."""
    F, n = A.field, A.dim
    e = [A.basis_element(i).coords for i in range(n)]
    rows = [{} for _ in range(n ** 3)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                for k, c in enumerate(A.mul_coords(e[y], e[z])):
                    for w in range(n):
                        if c:
                            rows[(x * n + k) * n + w][((x * n + y) * n + z) * n + w] = c
    return Matrix(F, n ** 3, n ** 4, rows)


def representatives_reference(A):
    """sigma as an n^4 x n^3 matrix: x (x) y (x) w -> (x (x) y) (x) (1 (x) w)."""
    F, n = A.field, A.dim
    rows = [{} for _ in range(n ** 4)]
    for x in range(n):
        for y in range(n):
            for w in range(n):
                for z, u in enumerate(A.unit):
                    if u:
                        rows[((x * n + y) * n + z) * n + w][(x * n + y) * n + w] = u
    return Matrix(F, n ** 4, n ** 3, rows)


def relations_of(q):
    return Matrix(q.field, len(q.relation_rows()), q.ambient_dim,
                  [dict(r) for r in q.relation_rows()])


def closed_square_braiding(cert):
    """c(S,S) on A (x) A (x) A, with x (x) y (x) w at (x*n + y)*n + w:
    x (x) y (x) w -> sum R1 (x) w R2 x (x) y R3, about nnz(R) n^3 table
    products."""
    A = cert.algebra
    n = A.dim
    prods, mod, scale = A._int_products()
    by_right = [[prods[m][k] for m in range(n)] for k in range(n)]  # e_m e_k by k, m
    by_middle = {}
    for (i, j, k), c in cert.r.ints.items():
        by_middle.setdefault(j, []).append((i, k, c))
    rows = [{} for _ in range(n ** 3)]
    for j, terms in by_middle.items():
        for w in range(n):
            # (e_w R2) e_x for each x, on scale**2
            mids = [(x, list(_expand(prods[w][j], by_right[x], mod).items())) for x in range(n)]
            for i, k, c in terms:
                for y in range(n):
                    for v, cv in prods[y][k]:  # y R3 = sum cv e_v
                        cv *= c
                        for x, mid in mids:
                            col = (x * n + y) * n + w
                            for u, cu in mid:
                                out = rows[(i * n + u) * n + v]
                                out[col] = out.get(col, 0) + cu * cv
    return Matrix._of(A.field, n ** 3, n ** 3, [_reduced(r, mod) for r in rows],
                      cert.r.den * scale ** 3)


def closed_product(X, x, Y, y):
    """f_x (x) f_y on A (x) A (x) A: x' (x) y' (x) w -> (x'.x.y') (x) (y.w),
    projected into X (x)_A Y."""
    F = Y.algebra.field
    v = Matrix.from_columns(F, Y.dim, [list(y)])
    yb = _hstack(F, [R @ v for R in Y.right])  # column j is y.e_j
    return tensor_over_A(X, Y).projection @ _KronChain(
        (canonical_morphism(X, x), Y.dim, False), (yb, X.algebra.dim ** 2, True))


def naturality_samples(X):
    """e_0 and the all-ones vector (only e_0 in dimension 1)."""
    F = X.algebra.field
    e0 = [F.one] + [F.zero] * (X.dim - 1)
    return [e0] if X.dim == 1 else [e0, [F.one] * X.dim]


@st.composite
def separable_builders(draw):
    """Scalar, matrix, quaternion and tensor-product algebras of dimension
    at most 4 over Q or GF(p), each one with an R-matrix, in their
    builders' bases or a unitriangular one with a dense unit."""
    F = draw(st.sampled_from([QQ, GF(3), GF(5), GF(7)]))
    kind = draw(st.sampled_from(["scalar", "matrix", "quaternion", "tensor"]))
    if kind == "scalar":
        A = build_matrix_algebra(1, F)
    elif kind == "matrix":
        A = build_matrix_algebra(2, F)
    elif kind == "quaternion":
        units = st.sampled_from([1, -1, 2, 3]).filter(lambda a: F.is_invertible(F.coerce(a)))
        A = build_quaternion(draw(units), draw(units), F)
    else:
        A = build_tensor_product(build_matrix_algebra(2, F), build_matrix_algebra(1, F))
    if draw(st.booleans()):
        A = unitriangular_basis(A, draw(st.integers(0, 2 ** 16)))
    return A


@settings(max_examples=25, deadline=None)
@given(separable_builders())
@example(dense_m2())
def test_square_closed_form_matches_eliminated_quotient(A):
    # Q kills every balancing relation of S (x) S and has rank n^3, the
    # dimension of the eliminated quotient, so T = Q . section is an
    # isomorphism; the closed c(S,S) is the eliminated one conjugated by T
    F, n = A.field, A.dim
    cert = solve_rmatrix(A)
    S = square_bimodule(A)
    q = tensor_over_A(S, S)
    Q = collapse_reference(A)
    assert (Q @ relations_of(q).transpose()).is_zero()
    assert Q.rank() == n ** 3 == q.dim
    T = Q @ q.section
    assert closed_square_braiding(cert) @ T == T @ braiding_map(cert, S, S).matrix
    # on any tensor, valid or not, the closed form is Q c sigma, c being
    # the ambient operator m (x) n -> R1.n.R2 (x) m.R3
    bad = RMatrixCertificate(A, cert.r + unit_tensor(A, 3), CheckReport([]))
    for c in (cert, bad):
        assert closed_square_braiding(c) == (
            Q @ _r_operator(c, S, S.right) @ representatives_reference(A))


def eliminated_product(X, x, Y, y, what):
    """Reference: f_x (x) f_y = (f_x (x) I)(I (x) f_y) from the eliminated
    S (x)_A S to X (x)_A Y, induced from the ambient of S (x) S."""
    S = square_bimodule(X.algebra)
    f, g = canonical_morphism(X, x), canonical_morphism(Y, y)
    return induced_map(tensor_over_A(S, S), tensor_over_A(X, Y),
                       _KronChain((f, Y.dim, False), (g, f.ncols, True)), what=what).matrix


def eliminated_naturality(cert, M, N, c_mn):
    """Reference: the naturality comparison on the eliminated S (x)_A S,
    with the n^4-dimensional ambient, as the audit once ran it; the
    (verdict, witness) it gives, a failed build's witness included."""
    S = square_bimodule(cert.algebra)
    try:
        c_square = braiding_map(cert, S, S).matrix
        for mi, mvec in enumerate(naturality_samples(M)):
            for ni, nvec in enumerate(naturality_samples(N)):
                fg = eliminated_product(M, mvec, N, nvec, "f_m (x) g_n")
                gf = eliminated_product(N, nvec, M, mvec, "g_n (x) f_m")
                if gf @ c_square != c_mn @ fg:
                    return False, f"square fails for samples (m{mi}, n{ni})"
    except RBraidError as exc:
        return False, str(exc)
    return True, None


def closed_comparison(cert, M, N, c_mn):
    """Reference: the same comparison on A (x) A (x) A, as the audit ran
    it after its guards; the (verdict, witness) it gives."""
    c_square = closed_square_braiding(cert)
    for mi, mvec in enumerate(naturality_samples(M)):
        for ni, nvec in enumerate(naturality_samples(N)):
            if (closed_product(N, nvec, M, mvec) @ c_square
                    != c_mn @ closed_product(M, mvec, N, nvec)):
                return False, f"square fails for samples (m{mi}, n{ni})"
    return True, None


def closed_result(cert, M, N):
    result = _closed_naturality(cert, M, N)
    return result.passed, result.witness


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(STRUCTURED_ALGEBRAS)), st.sampled_from(KINDS),
       st.sampled_from(KINDS), st.integers(0, 2 ** 32))
@example("dense M2/Q", "square", "free:2", 0)
def test_closed_products_are_projected_ambient_products(name, m, n, seed):
    # f_x (x) g_y on A (x) A (x) A is P (f_x (x) g_y) sigma: for lawful
    # operands, where it is the eliminated reference's map times T^-1, and
    # for a left operand whose right action breaks the laws it claims,
    # where the representative sigma is the only one that gives it (the
    # right one keeps its unit law, which sigma uses)
    A, cert = solved(name)
    F = A.field
    rng = random.Random(seed)
    M, N = bimodule_of(A, m), bimodule_of(A, n)
    right = list(M.right)
    right[-1] = right[-1] + Matrix.identity(F, M.dim)
    bent = Bimodule(A, M.left, right, "bent", lawful=True)
    sigma = representatives_reference(A)
    S = square_bimodule(A)
    T = collapse_reference(A) @ tensor_over_A(S, S).section
    for X, Y in ((M, N), (bent, N)):
        x, y = ([F.coerce(rng.randrange(-2, 3)) for _ in range(Z.dim)] for Z in (X, Y))
        f, g = canonical_morphism(X, x), canonical_morphism(Y, y)
        closed = closed_product(X, x, Y, y)
        assert closed == tensor_over_A(X, Y).projection @ f.kron(g) @ sigma
        if X is M:
            assert closed @ T == eliminated_product(X, x, Y, y, "f (x) g")


def test_closed_naturality_needs_every_guard(m2, cert):
    # each guard gives the eliminated reference's result where that
    # reference means something, and "not evaluated" where it does not
    reg = regular_bimodule(m2)
    c = braiding_map(cert, reg, reg).matrix
    assert closed_result(cert, reg, reg) == eliminated_naturality(cert, reg, reg, c) == (
        True, None)
    # R + 1 (x) 1 (x) 1 fails c1, whatever its report says, and its
    # c(S,S) does not preserve the balancing relations
    r = cert.r + unit_tensor(m2, 3)
    assert not verify_rmatrix(m2, r)["c1"].passed
    bad = RMatrixCertificate(m2, r, cert.checks)
    assert closed_result(bad, reg, reg) == eliminated_naturality(bad, reg, reg, c) == (
        False, "braiding does not preserve the balancing relations")
    # an operand that does not claim the laws passes check_bimodule, is
    # marked lawful and gets the lawful one's verdict
    for side in (0, 1):
        operands = [reg, reg]
        operands[side] = Bimodule(m2, list(reg.left), list(reg.right), "regular")
        assert closed_result(cert, *operands) == closed_result(cert, reg, reg)
        assert operands[side].lawful
    # both references fail alike on c(M,N) perturbed by the identity
    bumped = c + Matrix.identity(QQ, c.nrows)
    assert closed_comparison(cert, reg, reg, bumped) == (
        eliminated_naturality(cert, reg, reg, bumped)) == (
        False, "square fails for samples (m0, n0)")
    # an operand that fails check_bimodule is not evaluated
    right = list(reg.right)
    right[-1] = right[-1] + Matrix.identity(QQ, reg.dim)
    for side, name in ((0, "M"), (1, "N")):
        operands = [reg, reg]
        operands[side] = Bimodule(m2, list(reg.left), right, "bent")
        assert closed_result(cert, *operands) == (
            False, f"not evaluated: {name} is not a bimodule")
        assert not operands[side].lawful
    # nor is an algebra that fails the unit laws, where c1 holds and the
    # regular bimodule's builder claims the laws
    doubled = Algebra(QQ, [[[1]]], [2], label="doubled unit")
    assert not validate_algebra(doubled).passed
    r = TensorElement.from_terms(doubled, 3, [((0, 0, 0), QQ.one)])
    assert verify_rmatrix(doubled, r)["c1"].passed
    one = regular_bimodule(doubled)
    assert closed_result(RMatrixCertificate(doubled, r, CheckReport([])), one, one) == (
        False, "not evaluated: the algebra fails validation")


@settings(max_examples=25, deadline=None)
@given(separable_builders(), st.tuples(*[st.integers(0, 3)] * 3), st.integers(1, 2))
@example(dense_m2(), (0, 1, 2), 1)
def test_c1_failure_is_the_ill_defined_square_braiding(A, digits, delta):
    # R moved at one monomial fails c1 on every algebra here of dimension
    # above 1 (A e_i is never one-dimensional), and the closed result's
    # witness is the text the eliminated c(S,S) raises; where c1 holds,
    # c(S,S) is well defined and naturality passes
    F, n = A.field, A.dim
    cert = solve_rmatrix(A)
    digits = tuple(d % n for d in digits)
    r = with_coefficient(cert.r, digits, F.add(cert.r.coefficient(digits), F.coerce(delta)))
    bad = RMatrixCertificate(A, r, cert.checks)
    reg = regular_bimodule(A)
    passed, witness = closed_result(bad, reg, reg)
    S = square_bimodule(A)
    if n > 1 or witness == "braiding does not preserve the balancing relations":
        with pytest.raises(NotWellDefined) as raised:
            braiding_map(bad, S, S)
        assert (passed, witness) == (False, str(raised.value))
    else:
        braiding_map(bad, S, S)
        assert (passed, witness) == (True, None)


def lawful_copy(M):
    """A distinct Bimodule with the same matrices, label and laws."""
    return Bimodule(M.algebra, list(M.left), list(M.right), M.label, lawful=True)


@pytest.mark.parametrize("name, kinds", [
    ("M2/Q", ("regular", "regular", "regular")),
    ("H(-1,-1)/GF(7)", ("square", "square", "square")),
    ("H(-1,-1)/Q", ("regular", "square", "free:2")),
    ("dense M2/GF(7)", ("free:2", "regular", "square")),
    ("M2/GF(5)", ("square", "free:3", "regular")),
])
def test_closed_and_ambient_naturality_agree(name, kinds):
    # the audit's naturality verdict is the comparison on the eliminated
    # quotient for the real c(M,N), and that reference still detects a map
    # that is not natural: c(M,N) perturbed by the identity fails at the
    # first sample pair whose f_m (x) g_n is nonzero, and the comparison
    # on A (x) A (x) A agrees with it on both maps
    A, cert = solved(name)
    F = A.field
    operands = [lawful_copy(bimodule_of(A, kind)) for kind in kinds]
    M, N = operands[0], operands[1]
    if N.left == M.left and N.right == M.right:
        N = M  # as the audit replaces it
    report = audit_braiding(cert, *operands)
    assert report.passed, report.failures
    c = braiding_map(cert, M, N).matrix
    verdict = report["naturality"].passed, report["naturality"].witness
    assert verdict == eliminated_naturality(cert, M, N, c) == closed_comparison(cert, M, N, c)
    bumped = c + Matrix.identity(F, c.nrows)
    reference = eliminated_naturality(cert, M, N, bumped)
    assert not reference[0] and reference[1].startswith("square fails for samples")
    assert closed_comparison(cert, M, N, bumped) == reference


AUDITED_TRIPLES = [("square", "square", "regular"), ("regular", "regular", "regular")]


@settings(max_examples=25, deadline=None)
@given(separable_builders(), st.one_of(st.none(), st.lists(st.integers(-2, 2), min_size=4,
                                                             max_size=4)),
       st.sampled_from(AUDITED_TRIPLES))
@example(dense_m2(), [1, 0, -1, 2], AUDITED_TRIPLES[0])
def test_audit_verdicts_follow_from_the_axioms(A, b, kinds):
    # R' = 2R (b is None) or sum bR1 (x) R2 (x) R3 keeps c1, since
    # bR1 a = b(R1 a), and may break every other axiom; the audit's
    # verdicts obey the implications that its proofs rest on: c1 makes
    # every braiding well defined and naturality pass, as the eliminated
    # comparison confirms, and c1, c2 and c3 make c(M,N) a bimodule map
    F = A.field
    r = solve_rmatrix(A).r
    if b is None:
        r = r.scale(F.coerce(2))
    else:
        r = r.act_leg(1, A.element([F.coerce(v) for v in b[:A.dim]]), "left")
    checks = verify_rmatrix(A, r)
    cert = RMatrixCertificate(A, r, checks)
    M, N, P = (bimodule_of(A, kind) for kind in kinds)
    report = audit_braiding(cert, M, N, P)
    assert checks["c1"].passed
    assert all(res.passed for res in report if res.name.startswith("well_defined["))
    c = braiding_map(cert, M, N).matrix
    verdict = report["naturality"].passed, report["naturality"].witness
    assert verdict == eliminated_naturality(cert, M, N, c) == (True, None)
    if checks["c2"].passed and checks["c3"].passed:
        assert report["braiding_bimodule_map"].passed
