"""Bimodules, tensor products over the algebra, and the induced braiding.

A Bimodule stores one left-action and one right-action matrix per algebra
basis element.  The tensor product of two bimodules over the algebra is
computed as an explicit quotient of the plain tensor product: the span of
the balancing relations (m.a) (x) n - m (x) (a.n) is eliminated once, and
the resulting echelon data induce a canonical projection/section pair
(the section picks the non-pivot coordinates).  Maps between quotients
are always induced from ambient matrices with a machine check that
relations land in relations; this is exactly where an invalid R-matrix
certificate manifests, and it raises NotWellDefined.  The check is a
factorization: section . projection is a projector whose kernel is the
relation span, so a projected ambient map X kills every relation
exactly when X = (X . section) . projection.

The audit's naturality check compares maps out of S (x)_A S for the
square bimodule S = A (x) A.  It never eliminates in that n^4-dimensional
ambient: it runs on A (x) A (x) A, which the collapse
(x (x) y) (x) (z (x) w) -> x (x) yz (x) w identifies with the quotient
(proof at `audit_braiding`).
"""
from __future__ import annotations

from functools import cache
from math import lcm

from .algebra import Algebra, _expand, validate_algebra
from .checks import CheckReport, CheckResult
from .errors import NotWellDefined, RBraidError, ShapeMismatch
from .fields import Field
from .linalg import (
    Echelon,
    Matrix,
    _combination,
    _difference_echelon,
    _int_matmul,
    _int_matmul_kron,
    _nullspace_ints,
    _reduced,
    nullspace_from_echelon,
)
from .rmatrix import RMatrixCertificate, _centralizing_check, _scan_indices


class Bimodule:
    """Module with commuting left and right actions of a fixed algebra.

    `lawful` records that the actions are known to obey the bimodule laws
    whenever the algebra is associative and unital: the builders below and
    the induced quotient bimodules set it, and so does a passing
    `check_bimodule`.  Only then do the fixed-point eliminations use the
    algebra's generators instead of every basis element.
    """

    def __init__(self, algebra: Algebra, left: list[Matrix], right: list[Matrix],
                 label: str = "", lawful: bool = False):
        n = algebra.dim
        if len(left) != n or len(right) != n:
            raise ShapeMismatch("need one action matrix per basis element")
        self.algebra = algebra
        self.dim = left[0].nrows if left else 0
        self.left = left
        self.right = right
        self.label = label
        self.lawful = lawful
        self._invariant_ech: Echelon | None = None
        self._tensor_cache: dict[int, "QuotientSpace"] = {}

    def __repr__(self):
        return f"Bimodule({self.label!r}, dim={self.dim}, over {self.algebra.label!r})"


def regular_bimodule(A: Algebra) -> Bimodule:
    """A acting on itself by multiplication on both sides."""
    cache = A._bimodules
    if "regular" not in cache:
        cache["regular"] = Bimodule(A, A.left_mult_matrices(), A.right_mult_matrices(), "regular",
                                    lawful=True)
    return cache["regular"]


def square_bimodule(A: Algebra) -> Bimodule:
    """A (x) A with the outer actions a.(x (x) y).b = ax (x) yb."""
    cache = A._bimodules
    if "square" not in cache:
        left = [_kron_identity(L, A.dim) for L in A.left_mult_matrices()]
        right = [_kron_identity(R, A.dim, inner=True) for R in A.right_mult_matrices()]
        cache["square"] = Bimodule(A, left, right, "square", lawful=True)
    return cache["square"]


def free_bimodule(A: Algebra, d: int) -> Bimodule:
    """A (x) k^d with both actions on the algebra factor."""
    if d < 1:
        raise ShapeMismatch("free rank must be >= 1")
    label = f"free({d})"
    cache = A._bimodules
    if label not in cache:
        left = [_kron_identity(L, d) for L in A.left_mult_matrices()]
        right = [_kron_identity(R, d) for R in A.right_mult_matrices()]
        cache[label] = Bimodule(A, left, right, label, lawful=True)
    return cache[label]


def check_bimodule(M: Bimodule) -> CheckReport:
    """Verify the representation, anti-representation, unit and
    commutation laws of the two actions on all basis pairs; a pass marks
    the bimodule `lawful`."""
    A = M.algebra
    F = A.field
    n = A.dim
    results = []

    def expect(actions, terms, den=1):
        """sum c * actions[k] / den over the (k, c) pairs of `terms`."""
        m = _combination(F, M.dim, M.dim, ((c, actions[k]) for k, c in terms))
        return Matrix._of(F, M.dim, M.dim, m.ints, m.den * den)

    eye = Matrix.identity(F, M.dim)
    unit = [(i, c) for i, c in enumerate(A.unit) if c]
    failing = [side for side, actions in (("left", M.left), ("right", M.right))
               if expect(actions, unit) != eye]
    witness = ("left and right actions of 1 are not the identity" if len(failing) == 2
               else f"{failing[0]} action of 1 is not the identity" if failing else None)
    results.append(CheckResult("unital", not failing, witness))

    # (name, witness prefix, holds on (e_i, e_j)); one row-major scan finds
    # the first failing pair of each law
    prods, _, scale = A._int_products()
    laws = [
        ("representation", "left action fails on",
         lambda i, j: M.left[i] @ M.left[j] == expect(M.left, prods[i][j], scale)),
        ("anti_representation", "right action fails on",
         lambda i, j: M.right[i] @ M.right[j] == expect(M.right, prods[j][i], scale)),
        ("actions_commute", "actions do not commute on",
         lambda i, j: M.left[i] @ M.right[j] == M.right[j] @ M.left[i]),
    ]
    witnesses: dict[str, str] = {}
    for i in range(n):
        for j in range(n):
            for name, what, holds in laws:
                if name not in witnesses and not holds(i, j):
                    witnesses[name] = f"{what} (e_{i}, e_{j})"
    results += [CheckResult(name, name not in witnesses, witnesses.get(name))
                for name, _, _ in laws]
    report = CheckReport(results)
    M.lawful = M.lawful or report.passed
    return report


def _invariant_echelon(M: Bimodule) -> Echelon:
    """Echelon of the equations a.m = m.a (cached): the invariants are its
    kernel."""
    if M._invariant_ech is None:
        pairs = ((M.left[i], M.right[i]) for i in M.algebra.fixed_point_indices(M.lawful))
        M._invariant_ech = _difference_echelon(M.algebra.field, M.dim, pairs)
    return M._invariant_ech


def invariants(M: Bimodule):
    """Canonical basis of {m : a.m = m.a for all a}, as dense vectors."""
    return nullspace_from_echelon(_invariant_echelon(M))


def _relations(ech: Echelon) -> Matrix:
    """The echelon's stored rows as a matrix: its kernel is the solution
    space of the eliminated equations."""
    return Matrix._of(ech.field, ech.rank, ech.ncols, list(ech.int_rows))


def _kernel_basis(ech: Echelon) -> Matrix:
    """The kernel basis of the echelon as rows, in the canonical free-column
    parametrization: row t is 1 at the t-th free column f, 0 at the other
    free columns and -r[f]/r[p] at the pivot p of each stored row r."""
    basis = _nullspace_ints(ech)
    den = lcm(1, *(d for _, d in basis))
    rows = [ints if d == den else {j: v * (den // d) for j, v in ints.items()}
            for ints, d in basis]
    return Matrix._of(ech.field, len(rows), ech.ncols, rows, den)


def _kernel_coordinates(ech: Echelon, X: Matrix, failure: str) -> Matrix:
    """The coordinates of the columns of X in the kernel basis of the
    echelon: a kernel vector is the sum of its entries at the free columns
    times their basis vectors, so they are the rows of X at those columns.
    Raises NotWellDefined(failure) when a column lies outside the kernel."""
    if not (_relations(ech) @ X).is_zero():
        raise NotWellDefined(failure)
    rows = [X.ints[f] for f in ech.free_columns()]
    return Matrix._of(X.field, len(rows), X.ncols, rows, X.den)


def _hstack(field: Field, blocks: list[Matrix]) -> Matrix:
    """[B_0 | B_1 | ...] for blocks of one row count."""
    den = lcm(1, *(b.den for b in blocks))
    rows: list[dict] = [{} for _ in range(blocks[0].nrows)]
    base = 0
    for b in blocks:
        k = den // b.den
        for out, r in zip(rows, b.ints):
            for j, v in r.items():
                out[base + j] = v * k
        base += b.ncols
    return Matrix._of(field, len(rows), base, rows, den)


class _KronChain:
    """The product, left to right, of Kronecker factors X (x) I_n and
    I_n (x) X, one (X, n, inner) triple each (I_n on the left when
    `inner`), never built: `Q @ chain` runs the integer rows of Q through
    one factor at a time.  `induced_map` takes one as its ambient map."""

    def __init__(self, *factors: tuple[Matrix, int, bool]):
        shapes = [(X.nrows * n, X.ncols * n) for X, n, _ in factors]
        if any(c != r for (_, c), (r, _) in zip(shapes, shapes[1:])):
            raise ShapeMismatch(f"Kronecker factors of shapes {shapes} do not compose")
        self.factors = factors
        self.nrows, self.ncols = shapes[0][0], shapes[-1][1]

    def __rmatmul__(self, Q: Matrix) -> Matrix:
        if Q.ncols != self.nrows:
            raise ShapeMismatch(f"{Q.ncols} cols vs {self.nrows} rows")
        mod = Q.field.characteristic
        rows, den = Q.ints, Q.den
        for X, n, inner in self.factors:
            Q.field.check_same(X.field)
            rows = _int_matmul_kron(rows, X.ints, X.ncols, n, inner, mod)
            den *= X.den
        return Matrix._of(Q.field, Q.nrows, self.ncols, rows, den)


def _kron_identity(X: Matrix, n: int, inner: bool = False) -> Matrix:
    """X (x) I_n, or I_n (x) X when `inner`, as a matrix."""
    return Matrix.identity(X.field, X.nrows * n) @ _KronChain((X, n, inner))


class QuotientSpace:
    """Ambient space modulo a relation span, with canonical coordinates.

    The quotient coordinates are the non-pivot (free) columns of the
    relation echelon; `section` re-embeds them as canonical ambient
    representatives and `projection . section` is the identity.
    """

    def __init__(self, field: Field, ambient_dim: int, echelon: Echelon,
                 factors=None, algebra: Algebra | None = None, label: str = ""):
        self.field = field
        self.ambient_dim = ambient_dim
        self._ech = echelon
        self.free_cols = echelon.free_columns()
        self.dim = len(self.free_cols)
        self._free_pos = {f: t for t, f in enumerate(self.free_cols)}
        self.factors = factors
        self.algebra = algebra
        self.label = label
        self._projection: Matrix | None = None
        self._section: Matrix | None = None
        self._bimodule: Bimodule | None = None

    @classmethod
    def full(cls, field: Field, dim: int, label: str = "") -> "QuotientSpace":
        """A plain vector space viewed as a quotient with no relations."""
        return cls(field, dim, Echelon(field, dim), label=label)

    def __repr__(self):
        return f"QuotientSpace({self.label!r}, {self.ambient_dim}->{self.dim})"

    def relation_rows(self):
        """A basis of the relation span: the echelon's integer rows, each a
        nonzero multiple of a relation (residues over GF(p))."""
        return self._ech.int_rows

    @property
    def projection(self) -> Matrix:
        if self._projection is None:
            # the kernel basis rows vanish on every relation and each is 1
            # at its own free column, so projection . section is the identity
            self._projection = _kernel_basis(self._ech)
        return self._projection

    @property
    def section(self) -> Matrix:
        if self._section is None:
            rows: list[dict] = [{} for _ in range(self.ambient_dim)]
            for t, f in enumerate(self.free_cols):
                rows[f][t] = 1
            self._section = Matrix._of(self.field, self.ambient_dim, self.dim, rows)
        return self._section

    @property
    def bimodule(self) -> Bimodule:
        """The induced bimodule structure on the quotient coordinates."""
        if self._bimodule is None:
            if self.factors is None or self.algebra is None:
                raise RBraidError("this quotient carries no bimodule structure")
            M, N = self.factors
            P = self.projection
            # P (L (x) I) S and P (I (x) R) S
            left = [_at_section(P @ _KronChain((L, N.dim, False)), self) for L in M.left]
            right = [_at_section(P @ _KronChain((R, M.dim, True)), self) for R in N.right]
            self._bimodule = Bimodule(self.algebra, left, right, label=self.label,
                                      lawful=M.lawful and N.lawful)
        return self._bimodule


def tensor_over_A(M: Bimodule, N: Bimodule) -> QuotientSpace:
    """M (x)_A N as a quotient of the plain tensor product.

    Relations are (m.a) (x) n - m (x) (a.n) over the basis elements of
    M and N and the indices of `Algebra.fixed_point_indices` (their span is
    the span over all of A); results are cached on the left factor so
    repeated audits share the elimination work.
    """
    M.algebra.check_same(N.algebra)
    cached = M._tensor_cache.get(id(N))
    if cached is not None:
        return cached
    A = M.algebra
    F = A.field
    dm, dn = M.dim, N.dim
    pairs = ((M.right[i].transpose(), N.left[i].transpose())
             for i in A.fixed_point_indices(M.lawful and N.lawful))
    ech = _difference_echelon(F, dm * dn, pairs, q=dn)
    label = f"({M.label}(x){N.label})/A"
    q = QuotientSpace(F, dm * dn, ech, factors=(M, N), algebra=A, label=label)
    M._tensor_cache[id(N)] = q
    return q


class QuotientMap:
    """A linear map between quotient spaces in quotient coordinates."""

    def __init__(self, source: QuotientSpace, target: QuotientSpace, matrix: Matrix):
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise ShapeMismatch(
                f"map is {matrix.nrows}x{matrix.ncols}, spaces are "
                f"{target.dim}<-{source.dim}"
            )
        self.source = source
        self.target = target
        self.matrix = matrix

    def __matmul__(self, other: "QuotientMap") -> "QuotientMap":
        # equal dimensions are not enough: two quotients of one dimension
        # may use different coordinates
        if other.target is not self.source:
            raise ShapeMismatch("composition of non-matching quotient maps")
        return QuotientMap(other.source, self.target, self.matrix @ other.matrix)

    def __eq__(self, other):
        if not isinstance(other, QuotientMap):
            return NotImplemented
        return self.matrix == other.matrix

    def is_identity(self) -> bool:
        m = self.matrix
        return m.nrows == m.ncols and all(r == {i: m.den} for i, r in enumerate(m.ints))

    def is_bijective(self) -> bool:
        return self.matrix.nrows == self.matrix.ncols and self.matrix.is_bijective()

    def __repr__(self):
        return f"QuotientMap({self.source.label!r} -> {self.target.label!r})"


def _at_section(X: Matrix, space: QuotientSpace) -> Matrix:
    """X @ space.section without the product: the columns of X at the
    space's free columns, renumbered in order."""
    pos = space._free_pos
    rows = [{pos[j]: v for j, v in r.items() if j in pos} for r in X.ints]
    return Matrix._of(X.field, X.nrows, space.dim, rows, X.den)


def induced_map(source: QuotientSpace, target: QuotientSpace, ambient: Matrix | _KronChain,
                what: str = "map") -> QuotientMap:
    """Induce a quotient map from an ambient matrix, or a product of
    Kronecker factors with an identity, verifying that every relation of
    the source is sent into the relation span of the target.

    With P the target's projection and S, P' the source's section and
    projection, the projected ambient map X = P . ambient is well defined
    on the quotient exactly when X = (X S) P': S P' is a projector whose
    kernel is the relation span of the source, so X vanishes on the
    relations iff it factors through it.  The rows of X S are the induced
    map, so the check costs one product of each of them with P', compared
    row by row with X up to the first difference."""
    if ambient.nrows != target.ambient_dim or ambient.ncols != source.ambient_dim:
        raise ShapeMismatch(
            f"ambient map is {ambient.nrows}x{ambient.ncols}, ambients are "
            f"{target.ambient_dim}<-{source.ambient_dim}"
        )
    projected = target.projection @ ambient
    pos, back = source._free_pos, source.projection
    mod, scale = projected.field.characteristic, back.den
    rows = []
    for r in projected.ints:
        row = {pos[j]: v for j, v in r.items() if j in pos}
        if _int_matmul([row], back.ints, mod)[0] != (
                r if scale == 1 else {j: v * scale for j, v in r.items()}):
            raise NotWellDefined(f"{what} does not preserve the balancing relations")
        rows.append(row)
    induced = Matrix._of(projected.field, projected.nrows, source.dim, rows, projected.den)
    return QuotientMap(source, target, induced)


def _leg_sums(cert: RMatrixCertificate, Y: Bimodule, leg: int) -> dict[int, Matrix]:
    """{g: sum c * Y.left[a] Y.right[b]} over the terms c * e_i (x) e_j (x) e_k
    of R whose index on `leg` (0, 1 or 2) is g, (a, b) being the other two
    indices in order."""
    by_leg: dict[int, list] = {}
    for digits, c in cert.r.iter_nonzero():
        a, b = digits[:leg] + digits[leg + 1:]
        by_leg.setdefault(digits[leg], []).append((c, a, b))
    F = Y.algebra.field
    return {g: _combination(F, Y.dim, Y.dim, ((c, Y.left[a] @ Y.right[b]) for c, a, b in terms))
            for g, terms in by_leg.items()}


def _r_operator(cert: RMatrixCertificate, Y: Bimodule, X: list[Matrix]) -> Matrix:
    """sum c * (Y.left[i] Y.right[j]) (x) X[k] over the terms
    c * e_i (x) e_j (x) e_k of R, composed with the flip of the two
    factors: the operator of the braiding (X = M.right) and of the
    Yang-Baxter operator (X = V.left)."""
    F = Y.algebra.field
    dx, dy = X[0].nrows, Y.dim
    # grouped by the leg of X, each sum_k op_k (x) X[k] written in one pass
    # on a common denominator: entry (a, c) of op_k times entry (b, d) of
    # X[k] lands in row a * dx + b and, after the flip, column d * dy + c
    terms = [(op, X[k]) for k, op in _leg_sums(cert, Y, 2).items()]
    den = lcm(1, *(op.den * x.den for op, x in terms))
    rows: list[dict] = [{} for _ in range(dy * dx)]
    for op, x in terms:
        k = den // (op.den * x.den)
        for a, ra in enumerate(op.ints):
            ra = [(c, u * k) for c, u in ra.items()]
            for b, rb in enumerate(x.ints, a * dx):
                out = rows[b]
                get = out.get
                for d, v in rb.items():
                    base = d * dy
                    for c, u in ra:
                        out[base + c] = get(base + c, 0) + u * v
    return Matrix._of(F, dy * dx, dy * dx, [_reduced(r, F.characteristic) for r in rows], den)


def braiding_map(cert: RMatrixCertificate, M: Bimodule, N: Bimodule) -> QuotientMap:
    """The braiding M (x)_A N -> N (x)_A M induced by the certificate from
    the ambient map m (x) n -> sum R1.n.R2 (x) m.R3.

    Well-definedness on the quotient is checked, not assumed; a failing
    check raises NotWellDefined and signals an invalid certificate.
    """
    cert.algebra.check_same(M.algebra)
    M.algebra.check_same(N.algebra)
    src = tensor_over_A(M, N)
    dst = tensor_over_A(N, M)
    return induced_map(src, dst, _r_operator(cert, N, M.right), what="braiding")


def associator(M: Bimodule, N: Bimodule, P: Bimodule,
               inverse: bool = False) -> QuotientMap:
    """Canonical (M (x)_A N) (x)_A P -> M (x)_A (N (x)_A P), or with
    `inverse` the map back."""
    qmn = tensor_over_A(M, N)
    qnp = tensor_over_A(N, P)
    grouped_left = tensor_over_A(qmn.bimodule, P)
    grouped_right = tensor_over_A(M, qnp.bimodule)
    if inverse:
        src, dst = grouped_right, grouped_left
        chain = _KronChain((qmn.projection, P.dim, False), (qnp.section, M.dim, True))
    else:
        src, dst = grouped_left, grouped_right
        chain = _KronChain((qnp.projection, M.dim, True), (qmn.section, P.dim, False))
    return QuotientMap(src, dst, _at_section(dst.projection @ chain, src))


# -- adjunction machinery ---------------------------------------------------
#
# An invariant space is the kernel of an echelon and carries its canonical
# basis (`_kernel_basis`); each map below is a product of action matrices,
# and a map into invariants reads its coordinates off the free columns.


def epsilon_map(M: Bimodule) -> Matrix:
    """A (x) M^A -> M, a (x) m -> a.m, on the canonical invariant basis.

    Columns are ordered with the algebra index major, matching the
    coordinates used by `zeta_map` and `alpha_map`."""
    basis = _kernel_basis(_invariant_echelon(M)).transpose()
    return _hstack(M.algebra.field, [L @ basis for L in M.left])


def zeta_map(cert: RMatrixCertificate, M: Bimodule) -> Matrix:
    """M -> A (x) M^A, m -> R1 (x) R2.m.R3.

    The image components are expressed in the invariant basis; if some
    component were to fall outside the invariants (an invalid
    certificate) this raises NotWellDefined."""
    A = M.algebra
    cert.algebra.check_same(A)
    ech = _invariant_echelon(M)
    ops = _leg_sums(cert, M, 0)
    zero = Matrix.zeros(A.field, M.dim, M.dim)
    # block i of the rows, stacked top to bottom, holds the coordinates of
    # the R2.m.R3 of the terms with R1 = e_i
    blocks = [_kernel_coordinates(ech, ops.get(i, zero), "image component is not invariant")
              for i in range(A.dim)]
    return _hstack(A.field, [b.transpose() for b in blocks]).transpose()


def _extended_echelon(M: Bimodule) -> Echelon:
    A = M.algebra
    pairs = ((_kron_identity(M.left[i], A.dim, inner=True),
              _kron_identity(M.right[i], A.dim, inner=True))
             for i in A.fixed_point_indices(M.lawful))
    return _difference_echelon(A.field, A.dim * M.dim, pairs)


def extended_invariants(M: Bimodule):
    """Basis of the invariants of A (x) M where the algebra acts on the
    module factor only (the target space of `alpha_map`)."""
    return nullspace_from_echelon(_extended_echelon(M))


def alpha_map(M: Bimodule) -> Matrix:
    """A (x) M^A -> (A (x) M)^(1 (x) A), a (x) m -> a (x) m, expressed on
    the two canonical invariant bases.  Bijective whenever the base is a
    field."""
    basis = _kernel_basis(_invariant_echelon(M)).transpose()
    return _kernel_coordinates(_extended_echelon(M),
                               _kron_identity(basis, M.algebra.dim, inner=True),
                               "a (x) m is not invariant under 1 (x) A")


def adjunction_unit(A: Algebra, d: int) -> Matrix:
    """k^d -> (A (x) k^d)^A, n -> 1 (x) n, on the invariant basis of the
    free bimodule."""
    one = Matrix.from_columns(A.field, A.dim, [A.unit])
    return _kernel_coordinates(_invariant_echelon(free_bimodule(A, d)),
                               _kron_identity(one, d),
                               "1 (x) n is not invariant")


def canonical_morphism(M: Bimodule, m_coords) -> Matrix:
    """The bimodule map from the square bimodule to M sending
    a (x) b -> a.m.b; columns follow the tensor basis of A (x) A."""
    return _translates(M, m_coords)[0]


def _translates(M: Bimodule, m_coords) -> tuple[Matrix, Matrix]:
    """(the canonical morphism of m, the dim M x dim A matrix whose
    column j is m.e_j)."""
    F = M.algebra.field
    m = Matrix.from_columns(F, M.dim, [list(m_coords)])
    mb = _hstack(F, [R @ m for R in M.right])  # column j is m.e_j
    return _hstack(F, [L @ mb for L in M.left]), mb


def is_bimodule_map(M: Bimodule, N: Bimodule, matrix: Matrix) -> bool:
    """Exact check that a matrix commutes with both actions, on the
    indices of `Algebra.fixed_point_indices`: when both bimodules are
    lawful, the elements whose actions the matrix commutes with form a
    subspace that holds 1 and is closed under products."""
    M.algebra.check_same(N.algebra)
    for i in M.algebra.fixed_point_indices(M.lawful and N.lawful):
        if matrix @ M.left[i] != N.left[i] @ matrix:
            return False
        if matrix @ M.right[i] != N.right[i] @ matrix:
            return False
    return True


# -- audits ---------------------------------------------------------------------


def _naturality_samples(M: Bimodule):
    F = M.algebra.field
    e0 = [F.zero] * M.dim
    e0[0] = F.one
    return [e0] if M.dim == 1 else [e0, [F.one] * M.dim]


def _equal_bimodules(X: Bimodule, Y: Bimodule) -> bool:
    return X is Y or (X.algebra.same_as(Y.algebra) and X.dim == Y.dim
                      and X.left == Y.left and X.right == Y.right)


def _square_braiding(cert: RMatrixCertificate) -> Matrix:
    """c(S,S) on A (x) A (x) A, with x (x) y (x) w at (x*n + y)*n + w:
    x (x) y (x) w -> sum R1 (x) w R2 x (x) y R3, about nnz(R) n^3 table
    products (see `audit_braiding` for the identification)."""
    A = cert.algebra
    n = A.dim
    prods, mod, scale = A._int_products()
    by_right = [[prods[m][k] for m in range(n)] for k in range(n)]  # e_m e_k by k, m
    by_middle: dict[int, list] = {}
    for (i, j, k), c in cert.r.ints.items():
        by_middle.setdefault(j, []).append((i, k, c))
    rows: list[dict] = [{} for _ in range(n ** 3)]
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


def _closed_product(X: Bimodule, x: list, Y: Bimodule, y: list) -> Matrix:
    """f_x (x) f_y on A (x) A (x) A: x' (x) y' (x) w -> (x'.x.y') (x) (y.w),
    projected into X (x)_A Y."""
    f, g = _translates(X, x)[0], _translates(Y, y)[1]
    return tensor_over_A(X, Y).projection @ _KronChain((f, Y.dim, False),
                                                       (g, X.algebra.dim ** 2, True))


def _closed_naturality(cert: RMatrixCertificate, M: Bimodule, N: Bimodule,
                       c_mn: Matrix) -> CheckResult:
    """The square c(M,N) (f_m (x) g_n) = (g_n (x) f_m) c(S,S) on each pair
    of samples, in sample order, with the first failing pair as the
    witness; f_m is the canonical morphism a (x) b -> a.m.b from the
    square bimodule S, and both sides act on S (x)_A S = A (x) A (x) A.
    `audit_braiding` proves that this decides the comparison on the
    eliminated quotient when A validates and M and N are lawful.  So the
    check is not evaluated over an algebra that fails validation, an
    operand that does not claim the laws goes through `check_bimodule`
    (a pass marks it `lawful`), and one that fails it is not evaluated.
    An R that fails `c1` (recomputed here, not read off the certificate's
    report) gets the witness of c(S,S) on the eliminated quotient, which
    is then ill-defined."""
    A = cert.algebra
    if not validate_algebra(A).passed:
        return CheckResult("naturality", False, "not evaluated: the algebra fails validation")
    if not _centralizing_check("c1", A, cert.r, 3, 1, _scan_indices(A)).passed:
        return CheckResult("naturality", False,
                           "braiding does not preserve the balancing relations")
    for X, name in ((M, "M"), (N, "N")):
        if not (X.lawful or check_bimodule(X).passed):
            return CheckResult("naturality", False, f"not evaluated: {name} is not a bimodule")
    c_square = _square_braiding(cert)
    samples = {X: _naturality_samples(X) for X in (M, N)}
    product = cache(lambda X, i, Y, j: _closed_product(X, samples[X][i], Y, samples[Y][j]))
    for mi in range(len(samples[M])):
        for ni in range(len(samples[N])):
            if product(N, ni, M, mi) @ c_square != c_mn @ product(M, mi, N, ni):
                return CheckResult("naturality", False,
                                   f"square fails for samples (m{mi}, n{ni})")
    return CheckResult("naturality", True)


def audit_braiding(cert: RMatrixCertificate, M: Bimodule, N: Bimodule,
                   P: Bimodule) -> CheckReport:
    """Exact audit of one triple: both hexagon equalities, the symmetry
    condition, bijectivity and bimodule-map property of the braiding,
    associator round trips, and naturality against the canonical
    morphisms a (x) b -> a.m.b for a small deterministic sample.

    Each operand is first replaced by the first earlier operand it
    equals (same algebra, dim and action matrices), so equal inputs give
    the same report whether or not they are one object.  Each derived map
    (associator, braiding, whiskered braiding) is built once per audit,
    keyed by its operand objects: a triple that repeats one bimodule
    reuses the maps its slots share.  Nothing outlives the call, and a build that raises stores no
    map (an ill-defined braiding ends the audit before the hexagons), so
    every check sees what a fresh build gives.

    Naturality compares c(M,N) (f_m (x) g_n) with (g_n (x) f_m) c(S,S) as
    maps out of S (x)_A S, S being the square bimodule, and decides it on
    A (x) A (x) A (`_closed_naturality`).  Why that is the comparison on
    the eliminated quotient, for a validated A and lawful M and N:

    - Q: (x (x) y) (x) (z (x) w) -> x (x) yz (x) w kills every balancing
      relation (x (x) ya) (x) (z (x) w) - (x (x) y) (x) (az (x) w), by
      associativity, and sigma(x (x) y (x) w) = (x (x) y) (x) (1 (x) w) has
      Q sigma = 1, by the unit law; sigma Q t - t is the relation of
      a = z for t = (x (x) y) (x) (z (x) w), so the kernel of Q is the
      relation span and the quotient has dimension n^3.  With P and Sec
      the quotient's projection and section, T = Q Sec is an isomorphism,
      and Q = T P.
    - The ambient braiding c of S (x) S, m (x) n -> R1.n.R2 (x) m.R3,
      sends the relation above to a vector that Q maps to
      sum R1 z (x) w R2 x (x) y a R3 - R1 a z (x) w R2 x (x) y R3.  That is
      zero for all x, y, z, w exactly when `c1`, sum R1 (x) R2 (x) aR3 =
      sum R1 a (x) R2 (x) R3, holds (take x = y = z = w = 1; conversely
      apply u (x) v (x) t -> uz (x) wvx (x) yt to c1).  So c(S,S) is well
      defined exactly when c1 holds, and then its closed form
      c' = Q c sigma, x (x) y (x) w -> sum R1 (x) w R2 x (x) y R3, satisfies
      c' T = Q c sigma Q Sec = Q c Sec = Q Sec P c Sec = T c(S,S).
    - Lawful M and N make a (x) b -> a.m.b a bimodule map, so f_m (x) g_n
      sends relations to relations, and its closed form
      P (f_m (x) g_n) sigma: x (x) y (x) w -> P((x.m.y) (x) (n.w)) equals
      (f_m (x) g_n) T^-1 on the quotient; the same holds for g_n (x) f_m.

    So both closed sides are the eliminated sides times T^-1, and they
    are equal exactly when the eliminated ones are: the first differing
    sample pair is the same on both.  Every column of
    A (x) A (x) A is compared: on the generators (1 (x) e_y) (x) (1 (x) 1)
    alone both sides are one formula, and the check would only repeat
    the well-definedness of c(M,N).
    """
    operands: list[Bimodule] = []
    for X in (M, N, P):
        operands.append(next((Y for Y in operands if _equal_bimodules(X, Y)), X))
    M, N, P = operands
    results: list[CheckResult] = []
    memo: dict[tuple, object] = {}

    def once(key: tuple, build):
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def _braid(X: Bimodule, Y: Bimodule, tag: str):
        key = ("braiding", X, Y)
        if key not in memo:
            try:
                memo[key] = braiding_map(cert, X, Y)
                results.append(CheckResult(f"well_defined[{tag}]", True))
            except NotWellDefined as exc:
                # the audit returns before any later lookup of this pair
                memo[key] = None
                results.append(CheckResult(f"well_defined[{tag}]", False, str(exc)))
        return memo[key]

    def braid(X: Bimodule, Y: Bimodule) -> QuotientMap:
        return once(("braiding", X, Y), lambda: braiding_map(cert, X, Y))

    def assoc(X: Bimodule, Y: Bimodule, Z: Bimodule, inverse: bool = False) -> QuotientMap:
        return once(("associator", X, Y, Z, inverse),
                    lambda: associator(X, Y, Z, inverse=inverse))

    def whisker_left(X: Bimodule, Y: Bimodule, Z: Bimodule, what: str) -> QuotientMap:
        """X (x) c(Y,Z)."""
        return once(("X (x) c", X, Y, Z), lambda: induced_map(
            tensor_over_A(X, tensor_over_A(Y, Z).bimodule),
            tensor_over_A(X, tensor_over_A(Z, Y).bimodule),
            _KronChain((braid(Y, Z).matrix, X.dim, True)),
            what=what,
        ))

    def whisker_right(X: Bimodule, Y: Bimodule, Z: Bimodule, what: str) -> QuotientMap:
        """c(X,Y) (x) Z."""
        return once(("c (x) Z", X, Y, Z), lambda: induced_map(
            tensor_over_A(tensor_over_A(X, Y).bimodule, Z),
            tensor_over_A(tensor_over_A(Y, X).bimodule, Z),
            _KronChain((braid(X, Y).matrix, Z.dim, False)),
            what=what,
        ))

    c_mn = _braid(M, N, "M,N")
    c_nm = _braid(N, M, "N,M")
    c_mp = _braid(M, P, "M,P")
    c_np = _braid(N, P, "N,P")

    if c_mn is not None:
        bijective = c_mn.is_bijective()
        results.append(
            CheckResult("braiding_bijective", bijective,
                        None if bijective else "c(M,N) is singular")
        )
        qmn = tensor_over_A(M, N)
        qnm = tensor_over_A(N, M)
        bimod_ok = is_bimodule_map(qmn.bimodule, qnm.bimodule, c_mn.matrix)
        results.append(
            CheckResult("braiding_bimodule_map", bimod_ok,
                        None if bimod_ok else "c(M,N) breaks an action")
        )

    if c_mn is not None and c_nm is not None:
        sym = c_nm @ c_mn
        ok = sym.is_identity()
        results.append(CheckResult("symmetry", ok, None if ok else "c(N,M)c(M,N) != id"))

    missing = any(c is None for c in (c_mn, c_nm, c_mp, c_np))
    if missing:
        results.append(CheckResult("hexagon1", False, "not evaluated: braiding ill-defined"))
        results.append(CheckResult("hexagon2", False, "not evaluated: braiding ill-defined"))
        return CheckReport(results)

    qmn = tensor_over_A(M, N)
    qnp = tensor_over_A(N, P)

    a1 = assoc(M, N, P)
    a1_inv = assoc(M, N, P, inverse=True)
    round1 = (a1_inv @ a1).is_identity() and (a1 @ a1_inv).is_identity()
    results.append(
        CheckResult("associator_roundtrip", round1,
                    None if round1 else "associator is not invertible")
    )

    try:
        # c on (M(x)N, P), compared with braiding M and N past P one at a time.
        lhs1 = braid(qmn.bimodule, P)
        step_inner = whisker_left(M, N, P, "M (x) c(N,P)")
        rhs1 = (
            assoc(P, M, N)
            @ whisker_right(M, P, N, "c(M,P) (x) N")
            @ assoc(M, P, N, inverse=True)
            @ step_inner
            @ a1
        )
        ok = lhs1 == rhs1
        results.append(
            CheckResult("hexagon1", ok,
                        None if ok else "c(M(x)N,P) differs from the two-step braiding")
        )
    except RBraidError as exc:
        results.append(CheckResult("hexagon1", False, str(exc)))

    try:
        # c on (M, N(x)P), compared with braiding M past N and P one at a time.
        lhs2 = braid(M, qnp.bimodule)
        rhs2 = (
            assoc(N, P, M, inverse=True)
            @ whisker_left(N, M, P, "N (x) c(M,P)")
            @ assoc(N, M, P)
            @ whisker_right(M, N, P, "c(M,N) (x) P")
            @ a1_inv
        )
        ok = lhs2 == rhs2
        results.append(
            CheckResult("hexagon2", ok,
                        None if ok else "c(M,N(x)P) differs from the two-step braiding")
        )
    except RBraidError as exc:
        results.append(CheckResult("hexagon2", False, str(exc)))

    results.append(_closed_naturality(cert, M, N, c_mn.matrix))
    return CheckReport(results)


def monoidal_F_audit(cert: RMatrixCertificate, d1: int, d2: int) -> CheckReport:
    """Check that tensoring free modules commutes with the braiding: the
    structure map (A (x) N) (x)_A (A (x) N') -> A (x) N (x) N' intertwines
    the braiding with the plain switch of the k-factors."""
    A = cert.algebra
    F = A.field
    v1 = free_bimodule(A, d1)
    v2 = free_bimodule(A, d2)
    q12 = tensor_over_A(v1, v2)
    q21 = tensor_over_A(v2, v1)
    results = []

    def _phi_ambient(da: int, db: int) -> Matrix:
        prods, _, scale = A._int_products()
        rows: list[dict] = [{} for _ in range(A.dim * da * db)]
        for i in range(A.dim):
            for j in range(A.dim):
                for k, c in prods[i][j]:
                    for s in range(da):
                        for t in range(db):
                            row = (k * da + s) * db + t
                            col = (i * da + s) * (A.dim * db) + (j * db + t)
                            rows[row][col] = c
        return Matrix._of(F, A.dim * da * db, (A.dim * da) * (A.dim * db), rows, scale)

    target12 = QuotientSpace.full(F, A.dim * d1 * d2, label="A(x)N(x)N'")
    target21 = QuotientSpace.full(F, A.dim * d2 * d1, label="A(x)N'(x)N")
    try:
        phi12 = induced_map(q12, target12, _phi_ambient(d1, d2), what="phi")
        phi21 = induced_map(q21, target21, _phi_ambient(d2, d1), what="phi'")
        results.append(CheckResult("phi_well_defined", True))
    except NotWellDefined as exc:
        results.append(CheckResult("phi_well_defined", False, str(exc)))
        return CheckReport(results)

    results.append(
        CheckResult("phi_bijective",
                    phi12.is_bijective() and phi21.is_bijective())
    )
    try:
        sym = braiding_map(cert, v1, v2)
    except NotWellDefined as exc:
        results.append(CheckResult("monoidal_symmetry", False, str(exc)))
        return CheckReport(results)
    # tau = I (x) (the switch of k^d1 and k^d2) relabels rows: row
    # (u * d2 + b) * d1 + a of tau phi12 is row (u * d1 + a) * d2 + b of phi12
    m = phi12.matrix
    lhs = Matrix._of(F, m.nrows, m.ncols, [
        m.ints[(u * d1 + a) * d2 + b] for u in range(A.dim) for b in range(d2) for a in range(d1)],
        m.den)
    rhs = phi21.matrix @ sym.matrix
    ok = lhs == rhs
    results.append(
        CheckResult("monoidal_symmetry", ok,
                    None if ok else "switch and braiding disagree through phi")
    )
    return CheckReport(results)
