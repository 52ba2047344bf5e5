"""Yang-Baxter operators built from a verified R-matrix certificate.

Given a bimodule V, the operator sends v (x) w to R1.w.R2 (x) R3.v on the
plain tensor square of V.  It satisfies the quantum Yang-Baxter equation,
the braid equation, and its cube equals itself.  The checks compare exact
product matrices on a triple tensor power, never sampled vectors.

The two equations are decided on the regular bimodule A when that proves
them on V.  Write rho_V(a (x) b) = L_a R_b and T = sum c (e_i (x) e_j)
(x) (e_k (x) 1) over the terms c e_i (x) e_j (x) e_k of R, so that the
operator is (rho_V (x) rho_V)(T) composed with the flip.  When V obeys
the bimodule laws over an associative unital A, rho_V is an algebra map,
and moving the flips to the right turns each side of either equation
into rho_V^(x)3(Y) composed with one leg permutation, Y in (A (x)
A^op)^(x)3 depending on R alone.  When A (x) A^op acts faithfully on A,
rho_A^(x)3 is injective, so a pass on A gives equal Y on both sides and
a pass on every such V: (dim A)^3 rows instead of (dim V)^3.  The
transfer is used only when the operator carries its certificate, V is
`lawful` and larger than A, A validates, the n^2 products L_a R_b are
independent (`classify.f_map` is bijective), and the operator equals a
second construction that shares no code with the one `build_omega` uses
(so a builder bug still fails); otherwise, and whenever the regular
bimodule fails the equation, the products on V decide and give the
witness.  `YBOperator` is frozen, so the guards, which run once per
operator, hold for its lifetime.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .algebra import validate_algebra
from .bimodules import Bimodule, _r_operator, regular_bimodule
from .checks import CheckResult
from .classify import f_map
from .errors import UnsupportedSize, UnverifiedCertificate
from .linalg import IntRows, Matrix, _int_matmul, _reduced
from .rmatrix import RMatrixCertificate
from .tensor import TensorElement

DEFAULT_DIM_CAP = 16


@dataclass(frozen=True)
class YBOperator:
    """The braiding-induced operator on V (x) V as an exact matrix, with
    the certificate it was built from (None for an operator given as a
    bare matrix, which the checks decide on V itself)."""

    bimodule: Bimodule
    omega: Matrix
    cert: RMatrixCertificate | None = None

    @property
    def dim(self) -> int:
        return self.bimodule.dim

    def to_json(self) -> dict:
        fmt = self.omega.field.format
        entries = []
        for i, row in enumerate(self.omega.rows):
            for j in sorted(row):
                entries.append({"row": i, "col": j, "value": fmt(row[j])})
        return {"dim": self.omega.nrows, "entries": entries}

    @cached_property
    def _regular_rows(self) -> IntRows | None:
        """Integer rows of the operator of the same R on the regular
        bimodule when a pass there proves the pass on V (the guards of the
        module docstring, cheapest first), else None."""
        cert, V = self.cert, self.bimodule
        A = V.algebra
        if (cert is None or not V.lawful or V.dim <= A.dim
                or not cert.algebra.same_as(A) or not validate_algebra(A).passed
                or not f_map(A).is_bijective() or self.omega != _omega_by_columns(cert.r, V)):
            return None
        return _omega_by_columns(cert.r, regular_bimodule(A)).ints

    @cached_property
    def _square_rows(self) -> IntRows:
        """Integer rows of the operator's square, formed once for both
        `check_omega_cubed` and `omega_rank_profile`."""
        rows = self.omega.ints
        return _int_matmul(rows, rows, self.omega.field.characteristic)


def build_omega(cert: RMatrixCertificate, V: Bimodule,
                size_cap: int | None = DEFAULT_DIM_CAP) -> YBOperator:
    """Assemble the operator from the action matrices of V and the
    coefficients of the verified R."""
    if not cert.valid:
        raise UnverifiedCertificate(cert.algebra.label)
    cert.algebra.check_same(V.algebra)
    if size_cap is not None and V.dim > size_cap:
        raise UnsupportedSize(f"bimodule dim {V.dim} exceeds cap {size_cap}")
    return YBOperator(V, _r_operator(cert, V, V.left), cert)


def _columns(mats: list[Matrix]) -> tuple[list[IntRows], int]:
    """The columns of each matrix as integer maps {row: value}, all over
    one common denominator, which is returned with them."""
    den = lcm(*(M.den for M in mats))
    return [[{r: v * (den // M.den) for r, v in col.items()} for col in M.transpose().ints]
            for M in mats], den


def _omega_by_columns(r: TensorElement, V: Bimodule) -> Matrix:
    """The operator of R on V (x) V, built column by column on integers
    and independently of `_r_operator`: column (v, w) is
    sum c (L_i R_j e_w) (x) (L_k e_v) over the terms c e_i (x) e_j (x) e_k."""
    m, F = V.dim, V.algebra.field
    lcols, dl = _columns(V.left)
    rcols, dr = _columns(V.right)
    # s[k][w] = sum c L_i R_j e_w over the terms whose last index is k
    s: dict[int, IntRows] = {}
    for (i, j, k), c in r.ints.items():
        li = lcols[i]
        for acc, col in zip(s.setdefault(k, [{} for _ in range(m)]), rcols[j]):
            get = acc.get
            for x, y in col.items():
                for a, z in li[x].items():
                    acc[a] = get(a, 0) + c * y * z
    rows: IntRows = [{} for _ in range(m * m)]
    for k, sk in s.items():
        for v, lcol in enumerate(lcols[k]):
            for b, y in lcol.items():
                for w, scol in enumerate(sk):
                    for a, x in scol.items():
                        out = rows[a * m + b]
                        out[v * m + w] = out.get(v * m + w, 0) + x * y
    mod = F.characteristic
    return Matrix._of(F, m * m, m * m, [_reduced(row, mod) for row in rows],
                      r.den * dl * dl * dr)


# The triple-power products are the one place where dense-ish exact
# matrix multiplication gets big (4096 x 4096 for a 16-dimensional
# bimodule); with the transfer they run on the regular bimodule, and on
# V only when the transfer does not apply or A fails.  Both sides of each
# equation scale the same way, so the checks compare products of the
# operator's stored integer rows and never convert to field values.


def _int_embed12(rows: IntRows, m: int) -> IntRows:
    out: IntRows = [{} for _ in range(m ** 3)]
    for r, row in enumerate(rows):
        for b in range(m):
            out[r * m + b] = {c * m + b: v for c, v in row.items()}
    return out


def _int_embed23(rows: IntRows, m: int) -> IntRows:
    out: IntRows = [{} for _ in range(m ** 3)]
    for b in range(m):
        base = b * m * m
        for r, row in enumerate(rows):
            out[base + r] = {base + c: v for c, v in row.items()}
    return out


def _int_embed13(rows: IntRows, m: int) -> IntRows:
    out: IntRows = [{} for _ in range(m ** 3)]
    for r, row in enumerate(rows):
        g1, g2 = divmod(r, m)
        for b in range(m):
            out[(g1 * m + b) * m + g2] = {
                (c // m * m + b) * m + c % m: v for c, v in row.items()
            }
    return out


def _int_diff(lhs: IntRows, rhs: IntRows) -> str:
    for i, (ra, rb) in enumerate(zip(lhs, rhs)):
        if ra != rb:
            for j in sorted(set(ra) | set(rb)):
                a, b = ra.get(j, 0), rb.get(j, 0)
                if a != b:
                    return f"entry ({i},{j}) differs (scaled values {a} != {b})"
    return "equal"


def _qybe_sides(rows: IntRows, m: int, mod: int) -> tuple[IntRows, IntRows]:
    o12 = _int_embed12(rows, m)
    o13 = _int_embed13(rows, m)
    o23 = _int_embed23(rows, m)
    return (_int_matmul(o12, _int_matmul(o13, o23, mod), mod),
            _int_matmul(o23, _int_matmul(o13, o12, mod), mod))


def _braid_sides(rows: IntRows, m: int, mod: int) -> tuple[IntRows, IntRows]:
    o12 = _int_embed12(rows, m)
    o23 = _int_embed23(rows, m)
    return (_int_matmul(o12, _int_matmul(o23, o12, mod), mod),
            _int_matmul(o23, _int_matmul(o12, o23, mod), mod))


def _decide(name: str, op: YBOperator, sides) -> CheckResult:
    """A pass on the regular bimodule when the transfer applies, else the
    comparison of both sides on V, with the first differing entry."""
    mod = op.omega.field.characteristic
    regular = op._regular_rows
    if regular is not None:
        lhs, rhs = sides(regular, op.bimodule.algebra.dim, mod)
        if lhs == rhs:
            return CheckResult(name, True)
    lhs, rhs = sides(op.omega.ints, op.dim, mod)
    ok = lhs == rhs
    return CheckResult(name, ok, None if ok else _int_diff(lhs, rhs))


def check_qybe(op: YBOperator) -> CheckResult:
    """Compare the two triple products of the quantum Yang-Baxter
    equation, Omega12 Omega13 Omega23 = Omega23 Omega13 Omega12."""
    return _decide("qybe", op, _qybe_sides)


def check_braid(op: YBOperator) -> CheckResult:
    """Compare the two triple products of the braid equation,
    Omega12 Omega23 Omega12 = Omega23 Omega12 Omega23."""
    return _decide("braid", op, _braid_sides)


def check_omega_cubed(op: YBOperator) -> CheckResult:
    """The operator restricted to its image is an involution: its cube
    equals itself.  On the integer rows M over the denominator d this
    reads M^3 = d^2 M."""
    rows, mod = op.omega.ints, op.omega.field.characteristic
    cubed = _int_matmul(rows, op._square_rows, mod)
    sq = op.omega.den ** 2
    expect = rows if sq == 1 else [{j: sq * v for j, v in r.items()} for r in rows]
    ok = cubed == expect
    return CheckResult("omega_cubed", ok,
                       None if ok else _int_diff(cubed, expect))


def omega_rank_profile(op: YBOperator) -> tuple[int, int]:
    """(rank of the operator, rank of its square); the two agree whenever
    the cube condition holds."""
    omega = op.omega
    square = Matrix._of(omega.field, omega.nrows, omega.ncols, op._square_rows)
    return omega.rank(), square.rank()
