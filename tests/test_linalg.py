"""Exact linear algebra: echelon forms, nullspaces, affine solves."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rbraid import GF, QQ, Matrix, build_matrix_algebra, center
from rbraid.errors import NotSquare, ShapeMismatch
from rbraid.linalg import (
    AffineSolution,
    Echelon,
    _combination,
    _difference_echelon,
    nullspace_from_echelon,
    solve_affine_rows,
)


def mat(entries, field=QQ):
    rows = [{j: field.coerce(v) for j, v in enumerate(row) if v} for row in entries]
    return Matrix(field, len(rows), len(entries[0]), rows)


def entry(m, i, j):
    return m.rows[i].get(j, m.field.zero)


def to_dense(m):
    return [[entry(m, i, j) for j in range(m.ncols)] for i in range(m.nrows)]


def reduced(m):
    """(reduced row echelon rows in pivot order, rank, pivot columns) of
    the rows of m, through `Echelon`."""
    ech = Echelon(m.field, m.ncols)
    ech.extend(m.ints)
    pivots = ech.pivot_columns()
    return [ech.rows[ech.pivots[p]] for p in pivots], ech.rank, pivots


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    rows, rank, pivots = reduced(m)
    assert rows == m.rows and rank == m.rank() == 3 and pivots == (0, 1, 2)
    assert m.nullspace() == []


def test_rref_zero():
    m = Matrix.zeros(QQ, 2, 3)
    rows, rank, pivots = reduced(m)
    assert rows == [] and rank == m.rank() == 0 and pivots == ()
    assert m.nullspace() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rref_rank_one():
    m = mat([[1, 2], [2, 4]])
    rows, rank, pivots = reduced(m)
    assert rank == m.rank() == 1 and pivots == (0,)
    assert rows == [{0: 1, 1: 2}]
    assert m.nullspace() == [[-2, 1]]


def test_rref_idempotent():
    m = mat([[2, 4, 1], [1, 2, 3], [0, 1, 1]])
    rows1, rank1, piv1 = reduced(m)
    rows2, rank2, piv2 = reduced(Matrix(QQ, len(rows1), m.ncols, rows1))
    assert rows1 == rows2 and rank1 == rank2 == m.rank() and piv1 == piv2


def test_nullspace_invertible_empty():
    assert mat([[1, 1], [0, 1]]).nullspace() == []


def test_nullspace_satisfies_system():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    basis = m.nullspace()
    assert len(basis) + m.rank() == m.ncols
    for v in basis:
        assert all(x == 0 for x in m.matvec(v))


def test_nullspace_center_of_m2():
    # the commutator system of the 2x2 matrix algebra has the scalars as
    # its only solutions
    A = build_matrix_algebra(2, QQ)
    basis = center(A)
    assert len(basis) == 1
    assert basis[0] == A.unit


def test_solve_affine_homogeneous():
    m = mat([[1, 2], [2, 4]])
    sol = m.solve_affine([QQ.zero, QQ.zero])
    assert not sol.is_empty
    assert sol.particular == [QQ.zero, QQ.zero]
    assert sol.dimension == 1


def test_solve_affine_inconsistent():
    m = Matrix.zeros(QQ, 1, 1)
    sol = m.solve_affine([QQ.one])
    assert sol.is_empty and sol.dimension == -1


def test_solve_affine_exactness():
    m = mat([[1, 2, 0], [0, 1, 1]])
    b = [Fraction(5), Fraction(3)]
    sol = m.solve_affine(b)
    assert not sol.is_empty
    assert m.matvec(sol.particular) == b
    for v in sol.basis:
        assert all(x == 0 for x in m.matvec(v))


def test_solve_affine_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mat([[1, 2]]).solve_affine([QQ.one, QQ.one])


def test_is_bijective():
    assert Matrix.identity(QQ, 4).is_bijective()
    assert not mat([[1, 2], [2, 4]]).is_bijective()
    with pytest.raises(NotSquare):
        Matrix.zeros(QQ, 2, 3).is_bijective()


def test_matmul_and_kron():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert to_dense(a @ b) == [[2, 1], [4, 3]]
    k = a.kron(Matrix.identity(QQ, 2))
    assert k.nrows == 4 and entry(k, 0, 0) == 1 and entry(k, 1, 1) == 1
    assert entry(k, 0, 2) == 2 and entry(k, 3, 3) == 4


def test_transpose_and_column():
    a = mat([[1, 2, 3], [4, 5, 6]])
    assert to_dense(a.transpose()) == [[1, 4], [2, 5], [3, 6]]
    assert [entry(a, i, 1) for i in range(a.nrows)] == [2, 5]


def test_mixed_field_operands_rejected():
    from rbraid.errors import DescriptorMismatch

    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(GF(5), 2)
    with pytest.raises(DescriptorMismatch):
        a @ b
    with pytest.raises(DescriptorMismatch):
        a + b


def test_gf_elimination():
    F = GF(5)
    m = mat([[2, 1], [1, 1]], field=F)
    assert m.is_bijective()
    sol = m.solve_affine([F.one, F.zero])
    assert not sol.is_empty
    assert m.matvec(sol.particular) == [F.one, F.zero]


small_entries = st.integers(-4, 4)


@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_rref_idempotent_random(nrows, ncols, data):
    rows = data.draw(
        st.lists(st.lists(small_entries, min_size=ncols, max_size=ncols),
                 min_size=nrows, max_size=nrows)
    )
    m = mat(rows)
    rows1, rank, piv = reduced(m)
    assert (rows1, rank, piv) == reduced(Matrix(QQ, len(rows1), ncols, rows1))
    assert rank == m.rank() and len(m.nullspace()) == ncols - rank


@given(st.integers(2, 4), st.data())
def test_affine_solution_verifies_random(n, data):
    rows = data.draw(
        st.lists(st.lists(small_entries, min_size=n, max_size=n),
                 min_size=n, max_size=n)
    )
    b = data.draw(st.lists(small_entries, min_size=n, max_size=n))
    m = mat(rows)
    b = [Fraction(x) for x in b]
    sol = m.solve_affine(b)
    if not sol.is_empty:
        assert m.matvec(sol.particular) == b
        for v in sol.basis:
            assert all(x == 0 for x in m.matvec(v))


# -- the integer product kernel against an all-pairs reference ----------------

KERNEL_FIELDS = [QQ, GF(2), GF(7), GF(2**61 - 1)]


@st.composite
def sparse_matrices(draw, field, nrows, ncols):
    """Random sparse matrix: about half the entries zero; over Q negative
    values over several denominators, over GF(p) any residue."""
    if field is QQ:
        nonzero = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
    else:
        nonzero = st.integers(0, field.p - 1)
    entry = st.one_of(st.just(0), nonzero)
    rows = []
    for _ in range(nrows):
        values = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rows.append({j: field.coerce(v) for j, v in enumerate(values) if v})
    return Matrix(field, nrows, ncols, rows)


def reference_matmul_rows(a, b):
    F = a.field
    rows = []
    for i in range(a.nrows):
        row = {}
        for j in range(b.ncols):
            acc = F.zero
            for k in range(a.ncols):
                acc = F.add(acc, F.mul(entry(a, i, k), entry(b, k, j)))
            if acc != F.zero:
                row[j] = acc
        rows.append(row)
    return rows


def reference_matmul(a, b):
    return Matrix(a.field, a.nrows, b.ncols, reference_matmul_rows(a, b))


def reference_kron_rows(a, b):
    F = a.field
    rows = []
    for i in range(a.nrows):
        for k in range(b.nrows):
            row = {}
            for j in range(a.ncols):
                for l in range(b.ncols):
                    v = F.mul(entry(a, i, j), entry(b, k, l))
                    if v != F.zero:
                        row[j * b.ncols + l] = v
            rows.append(row)
    return rows


def reference_kron(a, b):
    return Matrix(a.field, a.nrows * b.nrows, a.ncols * b.ncols, reference_kron_rows(a, b))


def assert_canonical(m):
    for row in m.rows:
        for v in row.values():
            if m.field is QQ:
                assert type(v) is Fraction and v != 0
                assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1
            else:
                assert type(v) is int and 0 < v < m.field.p


@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_matmul_matches_reference(field, n, m, k, data):
    a = data.draw(sparse_matrices(field, n, m))
    b = data.draw(sparse_matrices(field, m, k))
    product = a @ b
    assert product == reference_matmul(a, b)
    assert_canonical(product)
    # [a | a] @ [b ; -b] cancels to zero entry by entry
    doubled = Matrix(field, n, 2 * m, [{**r, **{m + j: v for j, v in r.items()}}
                                       for r in a.rows])
    stacked = Matrix(field, 2 * m, k, b.rows + b.scale(field.neg(field.one)).rows)
    cancelled = doubled @ stacked
    assert cancelled.rows == [{} for _ in range(n)]


@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3), st.data())
def test_kron_matches_reference(field, n1, m1, n2, m2, data):
    a = data.draw(sparse_matrices(field, n1, m1))
    b = data.draw(sparse_matrices(field, n2, m2))
    for x, y in ((a, b), (a, Matrix.identity(field, n2)), (Matrix.identity(field, n1), b)):
        product = x.kron(y)
        assert product == reference_kron(x, y)
        assert_canonical(product)


@given(st.sampled_from(KERNEL_FIELDS), st.integers(1, 5), st.data())
def test_is_bijective_matches_rank(field, n, data):
    # also with one row made a combination of the others, anywhere
    m = data.draw(sparse_matrices(field, n, n))
    rows = m.rows
    i = data.draw(st.integers(0, n - 1))
    c = field.from_int(data.draw(st.integers(-2, 2)))
    dependent = {}
    for j in range(n):
        if j != i:
            for col, v in rows[j].items():
                dependent[col] = field.add(dependent.get(col, field.zero), field.mul(c, v))
    singular = Matrix(field, n, n, rows[:i] + [dependent] + rows[i + 1:])
    assert m.is_bijective() == (m.rank() == n)
    assert not singular.is_bijective()


# -- the stored form: integer rows over one common denominator ---------------


def assert_stored_canonical(m):
    """Zero-free integer rows over a positive denominator whose gcd with
    all entries is 1; over GF(p) residues over 1."""
    assert type(m.den) is int and m.den > 0 and len(m.ints) == m.nrows
    values = [v for r in m.ints for v in r.values()]
    assert all(type(v) is int and v != 0 for v in values)
    assert all(0 <= j < m.ncols for r in m.ints for j in r)
    if m.field is QQ:
        assert gcd(m.den, *values) == 1
    else:
        assert m.den == 1 and all(0 < v < m.field.p for v in values)


def nonzero_scalars(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
    return st.integers(1, field.p - 1)


@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_stored_form_matches_reference(field, n, m, k, data):
    F = field
    a = data.draw(sparse_matrices(field, n, m))
    b = data.draw(sparse_matrices(field, m, k))
    c = F.coerce(data.draw(nonzero_scalars(field)))
    vec = [F.coerce(v) for v in data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))]
    # each operation gives a canonical matrix whose field values are the
    # all-pairs F.add / F.mul reference
    cases = [
        (Matrix(F, n, m, [dict(r) for r in a.rows]), a.rows),
        (a @ b, reference_matmul_rows(a, b)),
        (a.kron(b), reference_kron_rows(a, b)),
        (a.transpose(), [{i: v for i in range(n) if (v := entry(a, i, j))} for j in range(m)]),
        (_combination(F, n, m, [(c, a), (F.one, a)]),
         [{j: w for j, v in r.items() if (w := F.add(F.mul(c, v), v))} for r in a.rows]),
        (_combination(F, n, m, [(c, a), (F.neg(c), a)]), [{} for _ in range(n)]),
    ]
    for got, rows in cases:
        assert_stored_canonical(got)
        assert got.rows == rows
        assert_canonical(got)
        # built from field values, the same matrix stores the same data
        assert Matrix(F, got.nrows, got.ncols, rows) == got
    # matvec returns canonical field values
    column = Matrix(F, m, 1, [{0: x} if x else {} for x in vec])
    got = a.matvec(vec)
    assert got == [r.get(0, F.zero) for r in reference_matmul_rows(a, column)]
    assert_canonical_values(field, got)
    # the same matrix reached through products over other denominators
    inverse = F.inv(c)
    assert a.scale(c) @ b.scale(inverse) == a @ b
    assert Matrix.identity(F, n) @ a @ Matrix.identity(F, m) == a
    assert (a.scale(c) @ b).scale(inverse) == a @ b
    assert a.scale(c).kron(b.scale(inverse)) == a.kron(b)


# -- integer elimination against a Fraction Gauss-Jordan reference -----------


class ReferenceEchelon:
    """Gauss-Jordan on field values with F.sub/F.mul per entry: stored rows
    have one at their pivot and zero at every other pivot column."""

    def __init__(self, field, ncols, pivot_limit=None):
        self.field = field
        self.pivot_limit = ncols if pivot_limit is None else pivot_limit
        self.rows, self.pivots, self.residues = [], {}, []

    def reduce(self, row):
        F = self.field
        out = dict(row)
        for c in [c for c in out if c in self.pivots]:
            coef = out.pop(c)
            for j, v in self.rows[self.pivots[c]].items():
                if j != c:
                    w = F.sub(out.get(j, F.zero), F.mul(coef, v))
                    if w:
                        out[j] = w
                    else:
                        out.pop(j, None)
        return out

    def insert(self, row):
        F = self.field
        out = self.reduce(row)
        if not out:
            return False
        pivotable = [c for c in out if c < self.pivot_limit]
        if not pivotable:
            self.residues.append(out)
            return False
        p = min(pivotable)
        scale = F.inv(out[p])
        out = {j: F.mul(scale, v) for j, v in out.items()}
        for r in self.rows:
            if p in r:
                coef = r.pop(p)
                for j, v in out.items():
                    if j != p:
                        w = F.sub(r.get(j, F.zero), F.mul(coef, v))
                        if w:
                            r[j] = w
                        else:
                            r.pop(j, None)
        self.pivots[p] = len(self.rows)
        self.rows.append(out)
        return True

    def nullspace(self):
        F = self.field
        basis = []
        for f in range(self.pivot_limit):
            if f in self.pivots:
                continue
            vec = [F.zero] * self.pivot_limit
            vec[f] = F.one
            for p, ridx in self.pivots.items():
                if f in self.rows[ridx]:
                    vec[p] = F.neg(self.rows[ridx][f])
            basis.append(vec)
        return basis

    def column_values(self, col):
        """(consistent, value of `col` at each pivot) for an augmented column."""
        F = self.field
        if any(res.get(col) for res in self.residues):
            return False, None
        values = [F.zero] * self.pivot_limit
        for p, ridx in self.pivots.items():
            values[p] = self.rows[ridx].get(col, F.zero)
        return True, values


def assert_canonical_values(field, values):
    for v in values:
        if field is QQ:
            assert type(v) is Fraction
            assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1
        else:
            assert type(v) is int and 0 <= v < field.p


def assert_canonical_rows(field, rows):
    for row in rows:
        assert all(v != 0 for v in row.values())
        assert_canonical_values(field, row.values())


@st.composite
def elimination_rows(draw, field):
    """Sparse rows over `field`: random rows, then rows that depend on
    them (combinations, some of them zero after reduction), shuffled."""
    ncols = draw(st.integers(1, 6))
    if field is QQ:
        nonzero = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
    else:
        nonzero = st.integers(1, field.p - 1)
    entry = st.one_of(st.just(0), st.just(0), nonzero)
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        values = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rows.append([field.coerce(v) for v in values])
    F = field
    for _ in range(draw(st.integers(0, 4))):
        if not rows:
            break
        combo = [F.zero] * ncols
        for base in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
            c = field.coerce(draw(nonzero))
            combo = [F.add(x, F.mul(c, y)) for x, y in zip(combo, base)]
        rows.append(combo)
    rows = draw(st.permutations(rows))
    pivot_limit = draw(st.integers(0, ncols))
    # the probe is a random vector plus a multiple of some row, so that it
    # usually hits pivots
    probe = [field.coerce(v) for v in draw(st.lists(entry, min_size=ncols, max_size=ncols))]
    if rows:
        c = field.coerce(draw(nonzero))
        probe = [F.add(x, F.mul(c, y)) for x, y in zip(probe, draw(st.sampled_from(rows)))]
    as_dict = lambda vec: {j: v for j, v in enumerate(vec) if v}
    return ncols, pivot_limit, [as_dict(r) for r in rows], as_dict(probe)


@pytest.mark.parametrize("field", KERNEL_FIELDS)
@given(data=st.data())
def test_echelon_matches_reference(field, data):
    ncols, pivot_limit, rows, probe = data.draw(elimination_rows(field))
    ech = Echelon(field, ncols, pivot_limit)
    ref = ReferenceEchelon(field, ncols, pivot_limit)
    for row in rows:
        assert ech.insert(dict(row)) == ref.insert(dict(row))
    assert ech.rank == len(ref.rows)
    assert ech.pivots == ref.pivots
    assert ech.pivot_columns() == tuple(sorted(ref.pivots))
    assert ech.rows == ref.rows
    assert ech.residues == ref.residues
    assert ech.reduce(probe) == ref.reduce(probe)
    assert nullspace_from_echelon(ech) == ref.nullspace()
    assert_canonical_rows(field, ech.rows)
    assert_canonical_rows(field, ech.residues)
    assert_canonical_rows(field, [ech.reduce(probe)])
    for vec in nullspace_from_echelon(ech):
        assert_canonical_values(field, vec)


@st.composite
def cancelling_rows(draw, field):
    """Up to 14 rows over up to 12 columns whose eliminations cancel
    entries of stored rows and then bring them back.  A reference
    echelon follows the draw; besides sparse rows with entries +-1 and
    +-2 and +-1 combinations of two earlier rows, each step may read a
    stored row r and add

    tail      r at some of its entries after the pivot: the new pivot
              clears all of them from r;
    bridge    a column b that r holds and a later non-pivot column: the
              new pivot b brings that column (back) into r;

    and a cycle may start on four non-pivot columns a < b < c < d: a row
    r on all four, then r at c and d, then b and d, then d, so that r
    loses d, regains it and loses it to the pivot d.
    """
    ncols = draw(st.integers(2, 12))
    # mostly no limit, so that most rows become pivots
    pivot_limit = draw(st.just(ncols) | st.integers(0, ncols))
    column = st.integers(0, ncols - 1)
    unit = st.sampled_from([1, -1, 2, -2]).map(field.coerce)
    sign = st.sampled_from([1, -1]).map(field.coerce)
    F = field
    ref = ReferenceEchelon(field, ncols, pivot_limit)
    rows, size = [], draw(st.integers(1, 14))
    while len(rows) < size:
        # the entries after the pivot of each stored row that has some
        held = [(r, sorted(r)[1:]) for r in ref.rows if len(r) > 1]
        kinds = ["sparse", "combination"][:1 + bool(rows)]
        kinds += ["tail", "bridge"] if held else []
        free = [j for j in range(pivot_limit) if j not in ref.pivots]
        kinds += ["cycle"] if len(free) > 3 else []
        kind = draw(st.sampled_from(kinds))
        if kind == "sparse":
            new = [{j: draw(unit) for j in draw(st.lists(column, min_size=1, max_size=5))}]
        elif kind == "combination":
            a, b = (draw(st.sampled_from(rows)) for _ in range(2))
            row, c = dict(a), draw(sign)
            for j, v in b.items():
                row[j] = F.add(row.get(j, F.zero), F.mul(c, v))
            new = [row]
        elif kind == "tail":
            r, h = draw(st.sampled_from(held))
            new = [{j: F.mul(draw(sign), r[j]) for j in draw(st.sets(st.sampled_from(h),
                                                                      min_size=1))}]
        elif kind == "bridge":
            r, h = draw(st.sampled_from(held))
            k = draw(st.sampled_from(h))
            later = [j for j in range(k + 1, ncols) if j not in ref.pivots]
            new = [{k: draw(sign), **({draw(st.sampled_from(later)): draw(sign)} if later
                                      else {})}]
        else:
            a, b, c, d = sorted(draw(st.sets(st.sampled_from(free), min_size=4, max_size=4)))
            r = {a: draw(sign), b: draw(sign), c: draw(sign), d: draw(sign)}
            new = [r, {c: r[c], d: r[d]}, {b: draw(sign), d: draw(sign)}, {d: draw(sign)}]
        for row in new[:size - len(rows)]:
            row = {j: v for j, v in row.items() if v}
            ref.insert(dict(row))
            rows.append(row)
    probe = draw(st.sampled_from(rows))
    return ncols, pivot_limit, rows, {**probe, draw(column): F.one}


def assert_matches_reference(field, ech, ref, probe):
    assert ech.rank == len(ref.rows)
    assert ech.pivots == ref.pivots
    assert ech.rows == ref.rows
    assert ech.residues == ref.residues
    assert ech.reduce(probe) == ref.reduce(probe)
    assert nullspace_from_echelon(ech) == ref.nullspace()
    assert_canonical_rows(field, ech.rows)


def assert_holders_cover(ech):
    """Each stored row is listed under every non-pivot column it holds."""
    for ridx, r in enumerate(ech.int_rows):
        for j in r:
            assert j in ech.pivots or ridx in ech._holders.get(j, ())


@pytest.mark.parametrize("field", KERNEL_FIELDS)
@settings(max_examples=200)
@given(data=st.data())
def test_column_index_matches_reference_under_cancellation(field, data):
    ncols, pivot_limit, rows, probe = data.draw(cancelling_rows(field))
    ech = Echelon(field, ncols, pivot_limit)
    ref = ReferenceEchelon(field, ncols, pivot_limit)
    for row in rows:
        assert ech.insert(dict(row)) == ref.insert(dict(row))
        assert_holders_cover(ech)
    assert_matches_reference(field, ech, ref, probe)


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_column_index_entry_lost_and_regained(field):
    # row 0 holds column 3; pivot 2 cancels that entry, pivot 1 brings it
    # back, so row 0 is listed twice under column 3 when 3 becomes a pivot
    F = field
    e = lambda *cols: {j: F.coerce(c) for j, c in cols}
    rows = [e((0, 1), (1, 1), (2, 1), (3, 1), (4, 1)), e((2, 1), (3, 1)),
            e((1, 1), (3, -1)), e((3, 1), (4, 1))]
    ech = Echelon(field, 5)
    ref = ReferenceEchelon(field, 5)
    seen = []
    for row in rows:
        assert ech.insert(dict(row)) and ref.insert(dict(row))
        seen.append(3 in ech.int_rows[0])
        assert_holders_cover(ech)
    assert seen == [True, False, True, False]
    assert ech.rows[0] == e((0, 1))
    assert_matches_reference(field, ech, ref, e((3, 1), (4, 2)))


@pytest.mark.parametrize("field", KERNEL_FIELDS)
@given(data=st.data())
def test_solves_match_reference(field, data):
    ncols, _, rows, _ = data.draw(elimination_rows(field))
    m = Matrix(field, len(rows), ncols, [dict(r) for r in rows])
    # the right-hand side is a row combination (consistent) or a random
    # vector (often inconsistent)
    b = [r.get(0, field.zero) for r in rows]
    if data.draw(st.booleans()) and rows:
        x = [field.coerce(data.draw(st.integers(-3, 3))) for _ in range(ncols)]
        b = m.matvec(x)
    sol = m.solve_affine(b)
    ref = ReferenceEchelon(field, ncols + 1, ncols)
    for r, bi in zip(rows, b):
        ref.insert({**r, ncols: bi} if bi else dict(r))
    consistent, particular = ref.column_values(ncols)
    assert sol.is_empty == (not consistent)
    if consistent:
        assert sol.particular == particular
        assert sol.basis == ref.nullspace()
        assert_canonical_values(field, sol.particular)


# -- the row-stream affine solver against a full-insert reference ------------


def full_insert_solve(field, ncols, pairs):
    """Reference: every (row, rhs) pair reduced into the augmented echelon,
    then the consistency and the solution read off the whole of it."""
    ech = Echelon(field, ncols + 1, pivot_limit=ncols)
    for r, b in pairs:
        ech.insert({**r, ncols: b} if b else r)
    if any(res.get(ncols) for res in ech.residues):
        return AffineSolution(is_empty=True)
    particular = [field.zero] * ncols
    for p, ridx in ech.pivots.items():
        particular[p] = ech.rows[ridx].get(ncols, field.zero)
    return AffineSolution(False, particular, nullspace_from_echelon(ech))


@st.composite
def affine_systems(draw, field, kind):
    """(ncols, rank, (integer row, rhs) pairs) of one kind of system:

    unique    full rank, consistent, rows shuffled;
    positive  rank below ncols, consistent;
    early     rank below ncols, one dependent row's rhs shifted, so the
              0 = c residue comes before the rank could be full;
    late      the independent rows first, then dependent rows with one
              rhs shifted, so only the substitution stage can see it.

    The rhs are field values at a random solution x; over Q x has
    Fraction entries and an integral rhs is sometimes passed as an int.
    """
    F = field
    if field is QQ:
        reduce = lambda row: {j: v for j, v in row.items() if v}
        nonzero = st.integers(-4, 4).filter(bool)
        value = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    else:
        reduce = lambda row: {j: w for j, v in row.items() if (w := v % field.p)}
        nonzero = st.integers(1, field.p - 1)
        value = st.integers(0, field.p - 1)
    small = st.integers(-4, 4)
    ncols = draw(st.integers(1, 5))
    rank = ncols if kind in ("unique", "late") else draw(st.integers(0, ncols - 1))
    # independent rows: distinct leading columns, each with a nonzero entry
    independent = []
    for p in sorted(draw(st.permutations(range(ncols)))[:rank]):
        row = {p: draw(nonzero)}
        row.update({j: draw(small) for j in range(p + 1, ncols)})
        independent.append(reduce(row))
    dependent = []
    for _ in range(draw(st.integers(1 if kind in ("early", "late") else 0, 4))):
        row = {}
        for base in independent:
            c = draw(small)
            for j, v in base.items():
                row[j] = row.get(j, 0) + c * v
        dependent.append(reduce(row))
    x = [F.coerce(draw(value)) for _ in range(ncols)]

    def rhs(row):
        b = F.zero
        for j, v in row.items():
            b = F.add(b, F.mul(F.coerce(v), x[j]))
        if field is QQ and b.denominator == 1 and draw(st.booleans()):
            return b.numerator
        return b

    independent = [(row, rhs(row)) for row in independent]
    dependent = [(row, rhs(row)) for row in dependent]
    if kind in ("early", "late"):
        i = draw(st.integers(0, len(dependent) - 1))
        row, b = dependent[i]
        dependent[i] = (row, F.add(F.coerce(b), F.coerce(draw(nonzero))))
    if kind == "late":
        pairs = draw(st.permutations(independent)) + draw(st.permutations(dependent))
    else:
        pairs = draw(st.permutations(independent + dependent))
    return ncols, rank, pairs


@pytest.mark.parametrize("field", KERNEL_FIELDS)
@pytest.mark.parametrize("kind", ["unique", "positive", "early", "late"])
@given(data=st.data())
def test_row_stream_solve_matches_full_insert(field, kind, data):
    ncols, rank, pairs = data.draw(affine_systems(field, kind))
    got = solve_affine_rows(field, ncols, (pair for pair in pairs))
    assert got == full_insert_solve(field, ncols, pairs)
    assert got.dimension == {"unique": 0, "positive": ncols - rank}.get(kind, -1)
    if not got.is_empty:
        assert_canonical_values(field, got.particular)


@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 4), st.integers(0, 4), st.data())
def test_combination_matches_repeated_sum(field, n, m, data):
    terms = []
    for _ in range(data.draw(st.integers(0, 4))):
        c = field.coerce(data.draw(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
                                   if field is QQ else st.integers(0, field.p - 1)))
        terms.append((c, data.draw(sparse_matrices(field, n, m))))
    expect = Matrix.zeros(field, n, m)
    for c, term in terms:
        expect = expect + term.scale(c)
    got = _combination(field, n, m, terms)
    assert got == expect
    assert_canonical(got)


# -- the difference eliminator against materialized Kronecker products -------


@pytest.mark.parametrize("field", KERNEL_FIELDS)
@settings(max_examples=200)
@given(data=st.data())
def test_difference_echelon_matches_kron_reference(field, data):
    # the shapes of the callers: center and invariants (q = r = 1), the
    # W-space (q = r = n) and tensor_over_A on bimodules of different
    # dimensions (a is r x r, b is q x q, q != r)
    shape = data.draw(st.sampled_from(["center", "w-space", "tensor"]))
    if shape == "center":
        n = data.draw(st.integers(1, 5))
        na, nb, q, r = n, n, 1, 1
    elif shape == "w-space":
        n = data.draw(st.integers(1, 3))
        na, nb, q, r = n, n, n, n
    else:
        q, r = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True))
        na, nb = r, q
    # the unit of the algebra acts as the identity
    left = st.just(Matrix.identity(field, na)) | sparse_matrices(field, na, na)
    pairs = [(data.draw(left), data.draw(sparse_matrices(field, nb, nb)))
             for _ in range(data.draw(st.integers(1, 3)))]
    ncols = na * q
    minus_one = field.neg(field.one)
    rows = []
    for a, b in pairs:
        diff = (a.kron(Matrix.identity(field, q))
                + Matrix.identity(field, r).kron(b).scale(minus_one))
        rows.extend(diff.rows)
    ref = Matrix(field, len(rows), ncols, rows)
    expect = ref._echelon()
    ech = _difference_echelon(field, ncols, pairs, q)
    assert ech.rank == expect.rank
    assert ech.pivots == expect.pivots
    assert ech.rows == expect.rows
    assert_canonical_rows(field, ech.rows)
    assert nullspace_from_echelon(ech) == ref.nullspace()
