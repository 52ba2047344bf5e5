"""Classification oracles independent of the R-matrix solver.

Central simplicity over a field is detected by two finite computations:
the center must be one-dimensional and the enveloping map
a (x) b -> (x -> a.x.b) into the endomorphism algebra must be bijective.
`classify` runs both oracles together with the ring-epimorphism test and
the solver, and reports whether they agree; over a field with finite
dimension an R-matrix must exist exactly in the central simple case, so
any disagreement marks the report inconsistent.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, center
from .linalg import Matrix, _reduced
from .rmatrix import DEFAULT_SIZE_CAP, solve_rmatrix
from .tensor import unit_tensor


def f_map(A: Algebra) -> Matrix:
    """Matrix of the enveloping map on the monomial basis: column (i, j)
    is the flattened operator x -> e_i x e_j, whose entry in row r*n + c
    is the coefficient of e_r in e_i (e_c e_j)."""
    n = A.dim
    prods, mod, scale = A._int_products()
    rows = [{} for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            col = i * n + j
            for c in range(n):
                for m, cm in prods[c][j]:
                    for r, cr in prods[i][m]:
                        row = rows[r * n + c]
                        row[col] = row.get(col, 0) + cm * cr
    return Matrix._of(A.field, n * n, n * n, [_reduced(r, mod) for r in rows],
                      scale * scale)


def is_epi_from_base(A: Algebra) -> bool:
    """Silver's criterion: the unit map from the base field is a ring
    epimorphism iff e_i (x) 1 = 1 (x) e_i inside A (x) A for every basis
    element."""
    F = A.field
    n = A.dim
    u = A.unit
    for i in range(n):
        for x in range(n):
            for y in range(n):
                lhs = u[y] if x == i else F.zero
                rhs = u[x] if y == i else F.zero
                if lhs != rhs:
                    return False
    return True


@dataclass
class ClassificationReport:
    """Outcome of the four independent probes plus their agreement."""

    algebra_label: str
    center_dim: int
    f_map_bijective: bool
    epi: bool
    rmatrix_exists: bool
    commutative: bool
    r_is_unit: bool | None
    consistent: bool

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra_label,
            "center_dim": self.center_dim,
            "f_map_bijective": self.f_map_bijective,
            "epi": self.epi,
            "rmatrix_exists": self.rmatrix_exists,
            "commutative": self.commutative,
            "r_is_unit": self.r_is_unit,
            "consistent": self.consistent,
        }


def classify(A: Algebra, size_cap: int | None = DEFAULT_SIZE_CAP) -> ClassificationReport:
    """Run the center, enveloping-map, epimorphism and solver probes and
    cross-check them; for commutative algebras additionally require that
    an existing R-matrix is the unit tensor and coincides with the
    epimorphism test."""
    center_dim = len(center(A))
    bijective = f_map(A).is_bijective()
    epi = is_epi_from_base(A)
    cert = solve_rmatrix(A, size_cap=size_cap)
    exists = cert is not None and cert.valid
    commutative = A.is_commutative()
    r_is_unit = None
    if cert is not None:
        r_is_unit = cert.r == unit_tensor(A, 3)

    central_simple = center_dim == 1 and bijective
    consistent = exists == central_simple
    if commutative:
        consistent = consistent and (exists == epi)
        if exists:
            consistent = consistent and bool(r_is_unit)
    return ClassificationReport(
        algebra_label=A.label,
        center_dim=center_dim,
        f_map_bijective=bijective,
        epi=epi,
        rmatrix_exists=exists,
        commutative=commutative,
        r_is_unit=r_is_unit,
        consistent=consistent,
    )
