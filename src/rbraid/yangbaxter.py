"""Yang-Baxter operators built from a verified R-matrix certificate.

Given a bimodule V, the operator sends v (x) w to R1.w.R2 (x) R3.v on the
plain tensor square of V.  It satisfies the quantum Yang-Baxter equation,
the braid equation, and its cube equals itself; the checks here compare
the full product matrices on the triple tensor power exactly, never
sampled vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bimodules import Bimodule, _r_operator
from .checks import CheckResult
from .errors import UnsupportedSize, UnverifiedCertificate
from .linalg import IntRows, Matrix, _int_matmul
from .rmatrix import RMatrixCertificate

DEFAULT_DIM_CAP = 16


@dataclass
class YBOperator:
    """The braiding-induced operator on V (x) V as an exact matrix."""

    bimodule: Bimodule
    omega: Matrix

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


def build_omega(cert: RMatrixCertificate, V: Bimodule,
                size_cap: int | None = DEFAULT_DIM_CAP) -> YBOperator:
    """Assemble the operator from the action matrices of V and the
    coefficients of the verified R."""
    if not cert.valid:
        raise UnverifiedCertificate(cert.algebra.label)
    cert.algebra.check_same(V.algebra)
    if size_cap is not None and V.dim > size_cap:
        raise UnsupportedSize(f"bimodule dim {V.dim} exceeds cap {size_cap}")
    return YBOperator(V, _r_operator(cert, V, V.left))


# The triple-power products are the one place where dense-ish exact
# matrix multiplication gets big (4096 x 4096 for a 16-dimensional
# bimodule).  Both sides of each equation scale the same way, so the
# checks compare products of the operator's stored integer rows and never
# convert to field values.


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


def check_qybe(op: YBOperator) -> CheckResult:
    """Compare the two triple products of the quantum Yang-Baxter
    equation on the full triple tensor power."""
    m = op.dim
    rows, mod = op.omega.ints, op.omega.field.characteristic
    o12 = _int_embed12(rows, m)
    o13 = _int_embed13(rows, m)
    o23 = _int_embed23(rows, m)
    lhs = _int_matmul(o12, _int_matmul(o13, o23, mod), mod)
    rhs = _int_matmul(o23, _int_matmul(o13, o12, mod), mod)
    ok = lhs == rhs
    return CheckResult("qybe", ok, None if ok else _int_diff(lhs, rhs))


def check_braid(op: YBOperator) -> CheckResult:
    """Compare the two triple products of the braid equation."""
    m = op.dim
    rows, mod = op.omega.ints, op.omega.field.characteristic
    o12 = _int_embed12(rows, m)
    o23 = _int_embed23(rows, m)
    lhs = _int_matmul(o12, _int_matmul(o23, o12, mod), mod)
    rhs = _int_matmul(o23, _int_matmul(o12, o23, mod), mod)
    ok = lhs == rhs
    return CheckResult("braid", ok, None if ok else _int_diff(lhs, rhs))


def check_omega_cubed(op: YBOperator) -> CheckResult:
    """The operator restricted to its image is an involution: its cube
    equals itself.  On the integer rows M over the denominator d this
    reads M^3 = d^2 M."""
    rows, mod = op.omega.ints, op.omega.field.characteristic
    cubed = _int_matmul(rows, _int_matmul(rows, rows, mod), mod)
    sq = op.omega.den ** 2
    expect = rows if sq == 1 else [{j: sq * v for j, v in r.items()} for r in rows]
    ok = cubed == expect
    return CheckResult("omega_cubed", ok,
                       None if ok else _int_diff(cubed, expect))


def omega_rank_profile(op: YBOperator) -> tuple[int, int]:
    """(rank of the operator, rank of its square); the two agree whenever
    the cube condition holds."""
    return op.omega.rank(), (op.omega @ op.omega).rank()
