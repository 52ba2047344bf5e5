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


def dense_table(A: Algebra):
    """table[i][j][k], the coefficient of e_k in e_i * e_j, read off
    `mul_coords` on basis pairs."""
    e = [A.basis_element(i).coords for i in range(A.dim)]
    return [[A.mul_coords(x, y) for y in e] for x in e]


# -- dense reference builders: each returns (table, unit), every structure
# constant written into an n^3 table of field values


def nonzero_terms(table):
    """The (k, c) nonzeros of each product of a dense table."""
    return [[[(k, c) for k, c in enumerate(row) if c] for row in plane] for plane in table]


def _zeros(F, dim):
    return [[[F.zero] * dim for _ in range(dim)] for _ in range(dim)]


def reference_matrix_algebra(n: int, F):
    dim = n * n
    table = _zeros(F, dim)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                table[i * n + j][j * n + l][i * n + l] = F.one
    return table, [F.one if a % (n + 1) == 0 else F.zero for a in range(dim)]


def reference_quaternion(a, b, F):
    """The closed-form products of 1, i, j, k = ij: i^2 = a, j^2 = b,
    k^2 = -ab, ik = -ki = a j, kj = -jk = b i, ij = -ji = k."""
    table = _zeros(F, 4)
    ab = F.mul(a, b)
    for x in range(4):
        table[0][x][x] = table[x][0][x] = F.one
    for x, y, k, c in ((1, 1, 0, a), (2, 2, 0, b), (3, 3, 0, F.neg(ab)),
                       (1, 2, 3, F.one), (2, 1, 3, F.neg(F.one)),
                       (1, 3, 2, a), (3, 1, 2, F.neg(a)),
                       (3, 2, 1, b), (2, 3, 1, F.neg(b))):
        table[x][y][k] = c
    return table, [F.one, F.zero, F.zero, F.zero]


def reference_poly_quotient(coeffs, F):
    """x^i * x^j = the remainder of x^(i+j) by long division by the monic
    polynomial with ascending coefficients `coeffs`."""
    d = len(coeffs) - 1

    def remainder(t):
        rem = [F.zero] * t + [F.one]
        for top in range(t, d - 1, -1):
            c = rem[top]
            for s in range(d + 1):
                rem[top - d + s] = F.sub(rem[top - d + s], F.mul(c, coeffs[s]))
        return (rem + [F.zero] * d)[:d]

    table = [[remainder(i + j) for j in range(d)] for i in range(d)]
    return table, [F.one] + [F.zero] * (d - 1)


def reference_tensor_product(F, a, b):
    (ta, ua), (tb, ub) = a, b
    nA, nB = len(ua), len(ub)
    pa, pb = nonzero_terms(ta), nonzero_terms(tb)
    table = _zeros(F, nA * nB)
    for i in range(nA):
        for j in range(nB):
            for k in range(nA):
                for l in range(nB):
                    row = table[i * nB + j][k * nB + l]
                    for c1, v1 in pa[i][k]:
                        for c2, v2 in pb[j][l]:
                            row[c1 * nB + c2] = F.add(row[c1 * nB + c2], F.mul(v1, v2))
    return table, [F.mul(x, y) for x in ua for y in ub]


def reference_opposite(a):
    table, unit = a
    n = len(unit)
    return [[list(table[j][i]) for j in range(n)] for i in range(n)], unit


def reference_direct_sum(F, a, b):
    (ta, ua), (tb, ub) = a, b
    nA, nB = len(ua), len(ub)
    table = _zeros(F, nA + nB)
    for i in range(nA):
        for j in range(nA):
            table[i][j][:nA] = ta[i][j]
    for i in range(nB):
        for j in range(nB):
            table[nA + i][nA + j][nA:] = tb[i][j]
    return table, list(ua) + list(ub)
