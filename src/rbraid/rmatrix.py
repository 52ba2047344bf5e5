"""Canonical R-matrices: solver, independent axiom verifier, closed forms.

A canonical R-matrix of an algebra A is an invertible element of the
threefold tensor power satisfying the three centralizing identities, the
two hexagon identities, and (equivalently, which is the reduction the
solver exploits) the single centralizing identity on legs 2/3 together
with the normalization R1R2 (x) R3 = R2 (x) R3R1 = 1 (x) 1.

The solver works in two stages:

1. compute the space W of elements w of A (x) A with a.w = w.a for every
   basis element a, acting on the first leg from the left and the second
   leg from the right (a nullspace of a streamed constraint system);
   over a field the full solution space of the centralizing identity on
   legs 2/3 is then exactly A (x) W;
2. write R = sum_j e_j (x) w_j with unknown W-coordinates and impose the
   two normalizations as an affine system, built n rows at a time and
   read only as far as the answer needs: the first row that reduces to
   0 = c != 0 proves that no R exists, and once the rank is full every
   later row is checked by exact substitution into the unique candidate.

An empty affine system means no R-matrix exists.  A positive-dimensional
solution set contradicts uniqueness of the braiding over a field and is
raised as NonUniqueSolution (a solver or input defect, never a choice
point).  Every solved R is re-verified against the complete axiom list by
`verify_rmatrix`, which never uses the reduction above.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .algebra import (
    Algebra,
    _expand,
    build_matrix_algebra,
    build_quaternion,
    build_tensor_product,
    validate_algebra,
)
from .checks import CheckReport, CheckResult
from .errors import (
    ArityMismatch,
    FieldMismatch,
    NonUniqueSolution,
    UnsupportedSize,
    UnvalidatedAlgebra,
)
from .fields import Field
from .linalg import (Echelon, _difference_echelon, _nullspace_ints, _reduced, _to_ints,
                     solve_affine_rows)
from .tensor import TensorElement, tensor_mul, unit_tensor

DEFAULT_SIZE_CAP = 20

_SWAP12 = (2, 1, 3)
_CYCLE_231 = (3, 1, 2)  # result legs are (old 2, old 3, old 1)
_CYCLE_312 = (2, 3, 1)  # result legs are (old 3, old 1, old 2)


@dataclass
class SolverInfo:
    """Dimensions recorded while solving: the W-space, the unknown count
    and the dimension of the affine solution set (0 for a unique R)."""

    w_dim: int
    unknowns: int
    solution_dim: int

    def to_json(self) -> dict:
        return {
            "w_dim": self.w_dim,
            "unknowns": self.unknowns,
            "solution_dim": self.solution_dim,
        }


@dataclass
class RMatrixCertificate:
    """A solved R together with the transcript of all verifier checks."""

    algebra: Algebra
    r: TensorElement
    checks: CheckReport
    solver: SolverInfo | None = None

    @property
    def valid(self) -> bool:
        return self.checks.passed

    def to_json(self) -> dict:
        out = {
            "algebra": self.algebra.label,
            "r": self.r.to_json(),
            "checks": self.checks.to_json(),
        }
        if self.solver is not None:
            out["solver"] = self.solver.to_json()
        return out


def pair_invariant_basis(A: Algebra) -> list[TensorElement]:
    """Basis of {w in A (x) A : a.w = w.a for all a}, acting on leg 1
    left and leg 2 right, as arity-2 tensors in the canonical nullspace
    parametrization, read sparsely off the echelon's integer rows."""
    n = A.dim
    L, R = A.left_mult_matrices(), A.right_mult_matrices()
    pairs = ((L[i], R[i]) for i in A.fixed_point_indices())
    ech = _difference_echelon(A.field, n * n, pairs, q=n)
    return [TensorElement._of(A, 2, {divmod(j, n): v for j, v in ints.items()}, den)
            for ints, den in _nullspace_ints(ech)]


def solve_rmatrix(A: Algebra, size_cap: int | None = DEFAULT_SIZE_CAP):
    """Unique canonical R-matrix of A, or None when no braiding exists.

    Raises UnsupportedSize beyond the cap, UnvalidatedAlgebra when the
    structure constants fail validation, and NonUniqueSolution on a
    positive-dimensional solution set (an internal-consistency failure).
    """
    if size_cap is not None and A.dim > size_cap:
        raise UnsupportedSize(f"dim {A.dim} exceeds cap {size_cap}")
    if not validate_algebra(A).passed:
        raise UnvalidatedAlgebra(A.label)
    n = A.dim
    F = A.field
    w_basis = pair_invariant_basis(A)
    wdim = len(w_basis)
    unknowns = n * wdim
    prods, mod, pscale = A._int_products()
    wscale = lcm(1, *(w.den for w in w_basis))
    w_ints = [[(xy, v * (wscale // w.den)) for xy, v in w.ints.items()] for w in w_basis]

    # the right-hand side 1 (x) 1 on the rows' scale, an int wherever it
    # is integral (always over GF(p), where the scale is 1); it is symmetric
    rscale = pscale * wscale
    unit = [(c, uc) for c, uc in enumerate(A.unit) if uc]
    rhs = {}
    for c, uc in unit:
        for d, ud in unit:
            v = F.mul(uc, ud) * rscale
            rhs[c, d] = v.numerator if v.denominator == 1 else v
    rows = _normalization_rows(prods, mod, w_ints, wdim, rhs)
    solution = solve_affine_rows(F, unknowns, rows)
    if solution.is_empty:
        return None
    if solution.dimension != 0:
        raise NonUniqueSolution(
            f"{A.label}: affine solution set has dimension {solution.dimension}"
        )
    # R = sum x[j,t] e_j (x) w_t on integers over xden * wscale
    (x_ints,), xden = _to_ints((dict(enumerate(solution.particular)),))
    r_ints: dict = {}
    for col, xv in x_ints.items():
        j, t = divmod(col, wdim)
        for (x, y), v in w_ints[t]:
            key = (j, x, y)
            r_ints[key] = r_ints.get(key, 0) + xv * v
    r = TensorElement._of(A, 3, _reduced(r_ints, mod), xden * wscale)
    info = SolverInfo(w_dim=wdim, unknowns=unknowns, solution_dim=0)
    return _certify(A, r, info)


def _normalization_rows(prods, mod, w_ints, wdim, rhs):
    """The affine system of R = sum x[j,t] e_j (x) w_t, yielded n rows at
    a time as (integer row over the unknowns j*wdim + t, rhs) pairs, so
    that only the rows the solver reads are built.

    Block 1 demands (leg1*leg2) (x) leg3 = 1 (x) 1: its rows (k, y) for
    k = 0..n-1 come from the W terms with right leg y.  Block 2 demands
    leg2 (x) (leg3*leg1) = 1 (x) 1: its rows (x, d) come from the W terms
    with left leg x.  Entries are integers over pscale * wscale, the
    scale of `rhs`, which maps (c, d) to the nonzero coordinates of
    1 (x) 1 and is symmetric.
    """
    n = len(prods)
    by_right = [[] for _ in range(n)]
    by_left = [[] for _ in range(n)]
    for t, terms in enumerate(w_ints):
        for (x, y), v in terms:
            by_right[y].append((t, x, v))
            by_left[x].append((t, y, v))
    # row (k, g) of block 1 takes e_j e_x over the terms (x, g) and row
    # (g, k) of block 2 takes e_y e_j over the terms (g, y): both read
    # table[j][z], with table the product table or its transpose
    for index, table in ((by_right, prods), (by_left, list(zip(*prods)))):
        for g, terms in enumerate(index):
            block = [{} for _ in range(n)]
            for j, products in enumerate(table):
                base = j * wdim
                for t, z, v in terms:
                    col = base + t
                    for k, c in products[z]:
                        row = block[k]
                        row[col] = row.get(col, 0) + c * v
            for k, row in enumerate(block):
                yield _reduced(row, mod), rhs.get((k, g), 0)


def _certify(A: Algebra, r: TensorElement, info: SolverInfo | None) -> RMatrixCertificate:
    return RMatrixCertificate(A, r, verify_rmatrix(A, r), info)


def _first_diff(lhs: TensorElement, rhs: TensorElement) -> str:
    """The first monomial, in sorted digit order, where the two differ."""
    F = lhs.algebra.field
    left, right = lhs.coeffs, rhs.coeffs
    for digits in sorted(left.keys() | right.keys()):
        a = left.get(digits, F.zero)
        b = right.get(digits, F.zero)
        if a != b:
            return f"monomial {digits}: {F.format(a)} != {F.format(b)}"
    return "equal"


def _eq_check(name: str, lhs: TensorElement, rhs: TensorElement) -> CheckResult:
    if lhs == rhs:
        return CheckResult(name, True)
    return CheckResult(name, False, _first_diff(lhs, rhs))


def _scan_indices(A: Algebra):
    """The basis indices the centralizing checks scan: the algebra's
    fixed-point indices once the verifier's own span check confirms that
    the unit and its right-nested products with them span A, else every
    index.

    For a fixed R and two different legs, the a with a.R = R.a (a acting
    on the left of one leg and the right of the other) form a subspace
    that holds 1 and is closed under products, since the two actions
    commute and A is associative (every index is scanned unless A
    validates); so it is all of A once it holds a generating set.  A
    generator is taken only when its basis element lies outside the span
    built from the generators before it, so the smallest failing basis
    index is a generator and the witness is the one a scan of the whole
    basis gives.
    """
    gens = A.fixed_point_indices()
    n = A.dim
    if len(gens) == n:
        return range(n)
    prods, mod, _ = A._int_products()
    ech = Echelon(A.field, n)
    (unit,), _ = _to_ints((dict(enumerate(A.unit)),))
    queue = [unit]
    while queue:
        v = queue.pop()
        if v and ech.insert(v):
            queue.extend(_expand(v.items(), prods[g], mod) for g in gens)
    return gens if ech.rank == n else range(n)


def _centralizing_check(name, A, R, leg_left, leg_right, indices):
    for b in indices:
        e = A.basis_element(b)
        lhs = R.act_leg(leg_left, e, "left")
        rhs = R.act_leg(leg_right, e, "right")
        if lhs != rhs:
            return CheckResult(name, False, f"a=e_{b}, {_first_diff(lhs, rhs)}")
    return CheckResult(name, True)


def _literal_pair_product(R, slots_a, slots_b):
    """Fourth-power element sum_{s,t} (legs of R_s at slots_a) * (legs of
    R_t at slots_b), expanded term by term without tensor_mul.

    Slots the two factors share multiply in order (first factor on the
    left); every slot must be covered by at least one factor, so with
    three slots each the factors share exactly two.
    """
    A = R.algebra
    prods, mod, scale = A._int_products()
    assert set(slots_a) | set(slots_b) == {1, 2, 3, 4}
    # (position, index in the first factor, index in the second factor)
    (p1, x1, y1), (p2, x2, y2) = [(s - 1, slots_a.index(s), slots_b.index(s))
                                  for s in range(1, 5) if s in slots_a and s in slots_b]
    ((pa, xa),) = [(s - 1, slots_a.index(s)) for s in range(1, 5) if s not in slots_b]
    ((pb, yb),) = [(s - 1, slots_b.index(s)) for s in range(1, 5) if s not in slots_a]
    nz = list(R.ints.items())
    out = {}
    get = out.get
    key = [0, 0, 0, 0]
    for da, ca in nz:
        row1 = prods[da[x1]]
        row2 = prods[da[x2]]
        key[pa] = da[xa]
        for db, cb in nz:
            leg1 = row1[db[y1]]
            if not leg1:
                continue  # a shared slot multiplies to zero
            leg2 = row2[db[y2]]
            if not leg2:
                continue
            key[pb] = db[yb]
            c = ca * cb
            for k1, c1 in leg1:
                key[p1] = k1
                c1 *= c
                for k2, c2 in leg2:
                    key[p2] = k2
                    t = tuple(key)
                    out[t] = get(t, 0) + c1 * c2
    return TensorElement._of(A, 4, _reduced(out, mod), (R.den * scale) ** 2)


def verify_rmatrix(A: Algebra, R: TensorElement) -> CheckReport:
    """Exact verification of the complete axiom list, independent of the
    solver's reduction.

    c1..c3   the three centralizing identities, one per leg pairing,
             scanned on a self-checked generating set (`_scan_indices`);
    h1, h2   the hexagon identities written out literally as double sums
             in the fourth tensor power;
    inv1/2   invertibility with the explicit inverse swap12(R);
    n1..n3   the three normalizations (legs 1*2, 3*1 and 2*3 collapse to
             the unit of the square);
    cyc1/2   invariance under both cyclic leg rotations;
    q1, q2   the hexagons re-derived as embedded products
             R(124) = R(123) R(134) and R(134) = R(124) R(234).
    """
    A.check_same(R.algebra)
    if R.arity != 3:
        raise ArityMismatch(f"expected arity 3, got {R.arity}")
    unit2 = unit_tensor(A, 2)
    unit3 = unit_tensor(A, 3)
    s = R.permute_legs(_SWAP12)
    cyc231 = R.permute_legs(_CYCLE_231)
    r123 = R.embed_legs(4, (1, 2, 3))
    r124 = R.embed_legs(4, (1, 2, 4))
    r134 = R.embed_legs(4, (1, 3, 4))
    r234 = R.embed_legs(4, (2, 3, 4))
    indices = _scan_indices(A)
    results = [
        _centralizing_check("c1", A, R, 3, 1, indices),
        _centralizing_check("c2", A, R, 1, 2, indices),
        _centralizing_check("c3", A, R, 2, 3, indices),
        _eq_check("h1", r124, _literal_pair_product(R, (1, 2, 3), (1, 3, 4))),
        _eq_check("h2", r134, _literal_pair_product(R, (1, 2, 4), (2, 3, 4))),
        _eq_check("inv1", tensor_mul(R, s), unit3),
        _eq_check("inv2", tensor_mul(s, R), unit3),
        _eq_check("n1", R.contract_legs(1), unit2),
        _eq_check("n2", cyc231.contract_legs(2), unit2),
        _eq_check("n3", R.contract_legs(2), unit2),
        _eq_check("cyc1", cyc231, R),
        _eq_check("cyc2", R.permute_legs(_CYCLE_312), R),
        _eq_check("q1", tensor_mul(r123, r134), r124),
        _eq_check("q2", tensor_mul(r124, r234), r134),
    ]
    return CheckReport(results)


# -- closed forms --------------------------------------------------------------


def matrix_closed_form(n: int, field: Field) -> TensorElement:
    """The matrix-algebra R-matrix: sum over i,j,k of
    e_ij (x) e_ki (x) e_jk, in row-major matrix-unit coordinates."""
    A = build_matrix_algebra(n, field)
    one = field.one
    terms = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms.append(((i * n + j, k * n + i, j * n + k), one))
    return TensorElement.from_terms(A, 3, terms)


def quaternion_closed_form(a, b, field: Field) -> TensorElement:
    """The sixteen-term quaternion R-matrix in the basis (1, i, j, k).

    Coefficients are 1/4 on 1^3, 1/(4a) on the i-pairs, 1/(4b) on the
    j-pairs, -1/(4ab) on the k-pairs, +1/(4ab) on the even ijk rotations
    and -1/(4ab) on the odd ones.
    """
    A = build_quaternion(a, b, field)
    F = field
    a = F.coerce(a)
    b = F.coerce(b)
    quarter = F.inv(F.from_int(4))
    c_i = F.div(quarter, a)
    c_j = F.div(quarter, b)
    c_ab = F.div(quarter, F.mul(a, b))
    neg_ab = F.neg(c_ab)
    terms = [((0, 0, 0), quarter)]
    terms += [(digs, c_i) for digs in ((0, 1, 1), (1, 0, 1), (1, 1, 0))]
    terms += [(digs, c_j) for digs in ((0, 2, 2), (2, 0, 2), (2, 2, 0))]
    terms += [(digs, neg_ab) for digs in ((0, 3, 3), (3, 0, 3), (3, 3, 0))]
    terms += [(digs, c_ab) for digs in ((1, 2, 3), (2, 3, 1), (3, 1, 2))]
    terms += [(digs, neg_ab) for digs in ((2, 1, 3), (3, 2, 1), (1, 3, 2))]
    return TensorElement.from_terms(A, 3, terms)


def tensor_rmatrix(
    cert_a: RMatrixCertificate, cert_b: RMatrixCertificate
) -> RMatrixCertificate:
    """Certificate for A (x) B whose element interleaves the two solved
    tensors legwise: leg t of the product is (leg t of R, leg t of S)."""
    A, B = cert_a.algebra, cert_b.algebra
    if A.field != B.field:
        raise FieldMismatch(f"{A.field!r} vs {B.field!r}")
    prod = build_tensor_product(A, B)
    r, s = cert_a.r, cert_b.r
    nB = B.dim
    # distinct digit pairs give distinct monomials, so nothing accumulates
    ints = {
        tuple(x * nB + y for x, y in zip(da, db)): ca * cb
        for da, ca in r.ints.items()
        for db, cb in s.ints.items()
    }
    t = TensorElement._of(prod, 3, _reduced(ints, prod.field.characteristic), r.den * s.den)
    return _certify(prod, t, None)


def certify(A: Algebra, r: TensorElement) -> RMatrixCertificate:
    """Wrap an externally supplied tensor in a fully verified certificate."""
    return _certify(A, r, None)
