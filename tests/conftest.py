"""Shared corpus builders for the test suite."""
from __future__ import annotations

import os
import random

from hypothesis import settings

from rbraid import (
    Algebra,
    Matrix,
    build_direct_sum,
    build_matrix_algebra,
    build_poly_quotient,
    build_quaternion,
)

# HYPOTHESIS_PROFILE=ci runs every property test with more examples
settings.register_profile("rbraid", deadline=None, max_examples=60)
settings.register_profile("ci", deadline=None, max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "rbraid"))


def upper_triangular_2x2(field) -> Algebra:
    """Upper-triangular 2x2 matrices: central (center = k) but not
    separable, hence a negative test case for every oracle.

    Basis order (e11, e12, e22)."""
    F = field
    z, o = F.zero, F.one
    # products: e11*e11=e11, e11*e12=e12, e12*e22=e12, e22*e22=e22, rest 0
    table = [[[z, z, z] for _ in range(3)] for _ in range(3)]
    table[0][0][0] = o
    table[0][1][1] = o
    table[1][2][1] = o
    table[2][2][2] = o
    unit = [o, z, o]
    return Algebra(F, table, unit, label=f"upper_triangular(2)/{field!r}")


def scalar_field_algebra(field) -> Algebra:
    """The base field as a 1-dimensional algebra."""
    return build_matrix_algebra(1, field)


def positive_corpus(field):
    """Algebras that must admit an R-matrix over `field`."""
    out = [
        scalar_field_algebra(field),
        build_matrix_algebra(2, field),
        build_matrix_algebra(3, field),
    ]
    if field.characteristic != 2:
        out.append(build_quaternion(-1, -1, field))
    return out


def negative_corpus(field):
    """Algebras that must not admit an R-matrix over `field`."""
    k = scalar_field_algebra(field)
    return [
        build_poly_quotient([0, 0, 1], field),          # k[x]/(x^2)
        build_direct_sum(k, k),                          # k (+) k
        build_direct_sum(build_matrix_algebra(2, field), k),
        upper_triangular_2x2(field),
    ]


def unitriangular_basis(A: Algebra, seed: int) -> Algebra:
    """A rewritten in the basis f_i = e_i + sum_{j<i} p_ji e_j, each p_ji
    drawn from {-1, 0, 1} by `seed`: the same algebra, whose basis
    products have several terms where A's have one."""
    F, n = A.field, A.dim
    rng = random.Random(seed)
    # cols[i]: f_i in the coordinates of A's basis
    cols = [[F.from_int(rng.choice((-1, 0, 1))) if j < i else F.from_int(int(j == i))
             for j in range(n)] for i in range(n)]

    def coords(v):
        """The f-coordinates of v, by back substitution."""
        x = [F.zero] * n
        for j in range(n - 1, -1, -1):
            acc = v[j]
            for i in range(j + 1, n):
                acc = F.sub(acc, F.mul(cols[i][j], x[i]))
            x[j] = acc
        return x

    table = [[coords(A.mul_coords(cols[a], cols[b])) for b in range(n)] for a in range(n)]
    return Algebra(F, table, coords(A.unit), label=f"unitriangular({A.label}, {seed})")


def swap_matrix(field, dm: int, dn: int) -> Matrix:
    """The flip M (x) N -> N (x) M on plain tensor coordinates, as an
    explicit matrix: the reference for the flip that `bimodules` applies
    as a column relabelling."""
    rows = [{} for _ in range(dm * dn)]
    for alpha in range(dm):
        for beta in range(dn):
            rows[beta * dm + alpha][alpha * dn + beta] = field.one
    return Matrix(field, dm * dn, dm * dn, rows)
