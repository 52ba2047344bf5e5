"""Exact sparse linear algebra over a Field.

A Matrix stores one canonical form: integer rows (one dict per row
mapping column -> nonzero int) over one positive common denominator, the
field value of an entry being its integer divided by the denominator.
The gcd of all entries and the denominator is 1, so the denominator is
the least common denominator of the field values and equal matrices
store equal data.  Over GF(p) the rows hold residues and the denominator
is 1.  Products, Kronecker products and linear combinations run on this
form directly; field values appear only where a matrix is built from
them or read back through `rows`.

All eliminations are Gauss-Jordan on integer rows (fraction-free over Q,
raw residues over GF(p)); the reduced row echelon form of a matrix is
unique, so every derived object (rank, pivot set, nullspace
parametrization, affine solutions) is deterministic and byte-stable
across runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd, lcm

from .errors import NotSquare, ShapeMismatch
from .fields import Field

Row = dict
IntRows = list[dict]


class Echelon:
    """Incremental Gauss-Jordan eliminator on integer rows.

    Each stored row has its pivot column and no support on any other
    pivot column.  Over GF(p) a stored row holds residues with one at its
    pivot.  Over Q elimination is fraction-free: a stored row is a
    primitive integer row (content divided out) with a positive pivot
    entry, and the field value of an entry is the entry divided by the
    pivot entry; input rows over Q may hold ints as well as Fractions.
    `int_rows` holds the stored rows (do not mutate); `rows` gives them
    in field values.  Columns at or beyond `pivot_limit` are never
    chosen as pivots; rows whose pivotable part reduces to zero but
    which keep support beyond the limit are retained in field values as
    residue rows (they drive consistency checks for augmented solves).

    A new pivot p must be cleared from every stored row that holds p.
    `_holders` maps each non-pivot column to the indices of the stored
    rows that gained support there, so only those rows are visited, not
    every stored row (the column occurrence lists of sparse direct
    solvers).  The lists are append-only: a row whose entry cancelled
    stays listed and pops nothing when p comes, and one whose entry
    came back is listed twice, the second visit popping nothing.  A
    pivot's list is dropped once used: afterwards only the pivot's own
    row holds that column.
    """

    def __init__(self, field: Field, ncols: int, pivot_limit: int | None = None):
        self.field = field
        self.ncols = ncols
        self.pivot_limit = ncols if pivot_limit is None else pivot_limit
        self.pivots: dict[int, int] = {}  # pivot column -> row index
        self.residues: list[Row] = []
        self._mod = field.characteristic
        self.int_rows: IntRows = []
        self._values: list[Row] | None = None  # field values of int_rows over Q
        self._holders: dict[int, list[int]] = {}  # column -> stored rows that may hold it

    @property
    def rank(self) -> int:
        return len(self.int_rows)

    @property
    def rows(self) -> list[Row]:
        """Stored rows in field values, one at the pivot (do not mutate)."""
        if self._mod:
            return self.int_rows
        if self._values is None:
            values: list = [None] * len(self.int_rows)
            for p, ridx in self.pivots.items():
                r = self.int_rows[ridx]
                a = r[p]
                if a == 1:  # the common case, and the cheap Fraction path
                    values[ridx] = {j: Fraction(v) for j, v in r.items()}
                else:
                    values[ridx] = {j: Fraction(v, a) for j, v in r.items()}
            self._values = values
        return self._values

    def _residue(self, row: Row) -> tuple[Row, int]:
        """(integer residue of `row` modulo the stored rows, its scale): the
        residue in field values is each entry divided by the scale."""
        mod, pivots, stored = self._mod, self.pivots, self.int_rows
        if mod:
            out, scale = dict(row), 1
        else:
            (out,), scale = _to_ints((row,))
        # A stored row has no support on other pivot columns, so a single
        # pass over the initial pivot hits fully reduces the input.
        for c in [c for c in out if c in pivots]:
            coef = out.pop(c)
            r = stored[pivots[c]]
            if mod:
                for j, v in r.items():
                    if j != c:
                        w = (out.get(j, 0) - coef * v) % mod
                        if w:
                            out[j] = w
                        else:
                            del out[j]
                continue
            a = r[c]
            if a != 1:
                scale *= a
                for j in out:
                    out[j] *= a
            for j, v in r.items():
                if j != c:
                    w = out.get(j, 0) - coef * v
                    if w:
                        out[j] = w
                    else:
                        del out[j]
        return out, scale

    def reduce(self, row: Row) -> Row:
        """Residue of `row` modulo the current row span (fresh dict)."""
        out, scale = self._residue(row)
        if self._mod:
            return out
        return {j: Fraction(v, scale) for j, v in out.items()}

    def insert(self, row: Row) -> bool:
        """Add one row; return True when the rank grew."""
        mod = self._mod
        out, scale = self._residue(row)
        if not out:
            return False
        p = min(out)
        if p >= self.pivot_limit:
            self.residues.append(
                out if mod else {j: Fraction(v, scale) for j, v in out.items()})
            return False
        head = out[p]
        if mod:
            if head != 1:
                inv = pow(head, -1, mod)
                out = {j: v * inv % mod for j, v in out.items()}
        else:
            g = gcd(*out.values())
            if head < 0:
                g = -g
            if g != 1:
                out = {j: v // g for j, v in out.items()}
            head = out[p]
        holders, rows = self._holders, self.int_rows
        for ridx in holders.pop(p, ()):
            r = rows[ridx]
            coef = r.pop(p, None)
            if coef is None:  # the entry cancelled, or the row is listed twice
                continue
            if mod:
                for j, v in out.items():
                    if j != p:
                        w = r.get(j)
                        if w is None:
                            r[j] = -coef * v % mod
                            holders.setdefault(j, []).append(ridx)
                        elif w := (w - coef * v) % mod:
                            r[j] = w
                        else:
                            del r[j]
                continue
            if head != 1:
                for j in r:
                    r[j] *= head
            for j, v in out.items():
                if j != p:
                    w = r.get(j)
                    if w is None:
                        r[j] = -coef * v
                        holders.setdefault(j, []).append(ridx)
                    elif w := w - coef * v:
                        r[j] = w
                    else:
                        del r[j]
            g = gcd(*r.values())
            if g != 1:
                for j in r:
                    r[j] //= g
        ridx = len(rows)
        for j in out:
            if j != p:
                holders.setdefault(j, []).append(ridx)
        self.pivots[p] = ridx
        rows.append(out)
        self._values = None
        return True

    def extend(self, rows) -> None:
        for row in rows:
            self.insert(row)

    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(sorted(self.pivots))

    def free_columns(self) -> tuple[int, ...]:
        return tuple(c for c in range(self.pivot_limit) if c not in self.pivots)


@dataclass
class AffineSolution:
    """Solution set of M x = b: empty, or particular + nullspace span."""

    is_empty: bool
    particular: list | None = None
    basis: list = dc_field(default_factory=list)

    @property
    def dimension(self) -> int:
        return -1 if self.is_empty else len(self.basis)


class Matrix:
    """Immutable-by-convention exact matrix in the canonical form of the
    module docstring: integer rows `ints` over the denominator `den`."""

    __slots__ = ("field", "nrows", "ncols", "ints", "den")

    def __init__(self, field: Field, nrows: int, ncols: int, rows: list[Row] | None = None):
        """Build from rows of field values (dicts column -> value)."""
        if rows is None:
            rows = [{} for _ in range(nrows)]
        if len(rows) != nrows:
            raise ShapeMismatch(f"{len(rows)} rows for a {nrows}x{ncols} matrix")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.ints, self.den = _to_ints(rows)

    @classmethod
    def _of(cls, field: Field, nrows: int, ncols: int, ints: IntRows, den: int = 1) -> "Matrix":
        """Matrix of zero-free integer rows over the positive `den` (residues
        over 1 in GF(p)), taking ownership of `ints`; the common factor of
        the entries and `den` is divided out."""
        if den != 1:
            g = den
            for r in ints:
                if r:
                    g = gcd(g, *r.values())
                    if g == 1:
                        break
            if g != 1:
                den //= g
                ints = [{j: v // g for j, v in r.items()} for r in ints]
        m = object.__new__(cls)
        m.field, m.nrows, m.ncols, m.ints, m.den = field, nrows, ncols, ints, den
        return m

    # -- construction --------------------------------------------------

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls._of(field, nrows, ncols, [{} for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        return cls._of(field, n, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_columns(cls, field, nrows, columns):
        rows = [{} for _ in range(nrows)]
        for j, col in enumerate(columns):
            if len(col) != nrows:
                raise ShapeMismatch("column length mismatch")
            for i, v in enumerate(col):
                if v:
                    rows[i][j] = v
        return cls(field, nrows, len(columns), rows)

    # -- basic queries --------------------------------------------------

    @property
    def rows(self) -> list[Row]:
        """The entries in field values, one dict per row with no zeros
        (read only; over GF(p) these are the stored rows)."""
        if self.field.characteristic:
            return self.ints
        d = self.den
        return [{j: Fraction(v, d) for j, v in r.items()} for r in self.ints]

    def nnz(self) -> int:
        return sum(len(r) for r in self.ints)

    def is_zero(self) -> bool:
        return all(not r for r in self.ints)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.den == other.den
            and self.ints == other.ints
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r}, nnz={self.nnz()})"

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        self.field.check_same(other.field)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )
        one = self.field.one
        return _combination(self.field, self.nrows, self.ncols, ((one, self), (one, other)))

    def scale(self, c):
        return _combination(self.field, self.nrows, self.ncols, ((c, self),))

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self.field.check_same(other.field)
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"{self.ncols} cols vs {other.nrows} rows")
        rows = _int_matmul(self.ints, other.ints, self.field.characteristic)
        return Matrix._of(self.field, self.nrows, other.ncols, rows, self.den * other.den)

    def matvec(self, vec):
        if len(vec) != self.ncols:
            raise ShapeMismatch(f"vector length {len(vec)} vs {self.ncols} cols")
        column = Matrix(self.field, self.ncols, 1, [{0: x} if x else {} for x in vec])
        zero = self.field.zero
        return [r.get(0, zero) for r in (self @ column).rows]

    def transpose(self):
        rows: IntRows = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.ints):
            for j, v in r.items():
                rows[j][i] = v
        return Matrix._of(self.field, self.ncols, self.nrows, rows, self.den)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row/column index of (i, k) is i*other.n + k."""
        self.field.check_same(other.field)
        p, nb = self.field.characteristic, other.ncols
        # Left operands are often identities, sections or swaps: an entry
        # equal to one copies the right row.
        rows: IntRows = []
        for ra in self.ints:
            for rb in other.ints:
                row = {}
                for j, a in ra.items():
                    base = j * nb
                    if a == 1:
                        for l, b in rb.items():
                            row[base + l] = b
                    elif p:
                        for l, b in rb.items():
                            row[base + l] = a * b % p
                    else:
                        for l, b in rb.items():
                            row[base + l] = a * b
                rows.append(row)
        return Matrix._of(self.field, self.nrows * other.nrows, self.ncols * other.ncols,
                          rows, self.den * other.den)

    # -- eliminations ----------------------------------------------------

    def _echelon(self) -> Echelon:
        ech = Echelon(self.field, self.ncols)
        ech.extend(self.ints)  # the span of the rows does not see `den`
        return ech

    def rank(self) -> int:
        return self._echelon().rank

    def nullspace(self):
        """Canonical basis of the kernel (one vector per free column)."""
        ech = self._echelon()
        basis = nullspace_from_echelon(ech)
        assert len(basis) + ech.rank == self.ncols  # rank-nullity
        return basis

    def solve_affine(self, b) -> AffineSolution:
        """Full solution set of M x = b."""
        if len(b) != self.nrows:
            raise ShapeMismatch(f"rhs length {len(b)} vs {self.nrows} rows")
        # the stored rows are den times the rows of M, so b scales by den
        den = self.den
        return solve_affine_rows(self.field, self.ncols,
                                 ((r, bi * den) for r, bi in zip(self.ints, b)))

    def is_bijective(self) -> bool:
        if self.nrows != self.ncols:
            raise NotSquare(f"{self.nrows}x{self.ncols}")
        # n rows span n dimensions only if each one raises the rank
        ech = Echelon(self.field, self.ncols)
        return all(ech.insert(r) for r in self.ints)


def solve_affine_rows(field: Field, ncols: int, rows) -> AffineSolution:
    """Full solution set of the affine system whose equations are the
    (row, rhs) pairs of the iterable `rows`, read only as far as the
    answer needs: row . x = rhs, with `row` a zero-free integer map over
    the columns 0..ncols-1 (residues over GF(p)) and `rhs` a field value
    on the row's scale (an int or Fraction over Q, a residue over GF(p)).

    Rows are reduced into an echelon on the augmented column `ncols`.
    The first residue, whose only support is that column, is an exact
    certificate of 0 = c != 0, so the set is empty and no further row is
    read.  Once the rank reaches `ncols` the solution can only be the
    unique candidate x; every remaining row is then checked by exact
    substitution, one integer dot product on the candidate's common
    denominator (mod p over GF(p)), instead of being reduced.
    """
    mod = field.characteristic
    ech = Echelon(field, ncols + 1, pivot_limit=ncols)
    rows = iter(rows)
    for row, b in rows:
        ech.insert({**row, ncols: b} if b else row)
        if ech.residues:
            return AffineSolution(is_empty=True)
        if ech.rank == ncols:
            break
    if ech.rank == ncols:
        # a stored row is {p: a, ncols: c}, so x_p = c / a = xs[p] / den
        stored = [(p, ech.int_rows[ridx]) for p, ridx in ech.pivots.items()]
        den = lcm(1, *(r[p] for p, r in stored))
        xs = [0] * ncols
        for p, r in stored:
            xs[p] = r.get(ncols, 0) * (den // r[p])
        for row, b in rows:
            s = sum(v * xs[j] for j, v in row.items())
            if (s - b) % mod if mod else s != b * den:
                return AffineSolution(is_empty=True)
    particular = [field.zero] * ncols
    for p, ridx in ech.pivots.items():
        particular[p] = ech.rows[ridx].get(ncols, field.zero)
    return AffineSolution(False, particular, nullspace_from_echelon(ech))


def _combination(field: Field, nrows: int, ncols: int, terms) -> Matrix:
    """sum c * m over the (c, m) pairs of the iterable `terms`, read once
    and one term at a time: rows accumulate on integers over a common
    denominator, raised only when a term needs it."""
    acc: IntRows = [{} for _ in range(nrows)]
    scale = 1
    for c, m in terms:
        d = c.denominator * m.den
        if scale % d:
            grow = lcm(scale, d) // scale
            for out in acc:
                for j in out:
                    out[j] *= grow
            scale *= grow
        k = c.numerator * (scale // d)
        for out, r in zip(acc, m.ints):
            get = out.get
            for j, v in r.items():
                out[j] = get(j, 0) + k * v
    mod = field.characteristic
    return Matrix._of(field, nrows, ncols, [_reduced(r, mod) for r in acc], scale)


def _difference_echelon(field: Field, ncols: int, pairs, q: int = 1) -> Echelon:
    """Echelon of the rows of (a (x) I_q) - (I_r (x) b) over the (a, b)
    pairs, r being fixed by the shapes: the fixed points of two actions
    (centers, invariants, the W-space, the balancing relations).  Each row
    is built in place on integers, never through a Kronecker product; over
    Q each pair is brought to its own common denominator, since only the
    span matters, and over GF(p) rows hold raw residues."""
    mod = field.characteristic
    ech = Echelon(field, ncols)
    for a, b in pairs:
        arows, brows = a.ints, b.ints
        if a.den != b.den:
            d = lcm(a.den, b.den)
            arows = [{j: v * (d // a.den) for j, v in r.items()} for r in arows]
            brows = [{j: v * (d // b.den) for j, v in r.items()} for r in brows]
        # row c*q + d of a (x) I_q is row c of a at columns x*q + d, and
        # row u*b.nrows + v of I_r (x) b is row v of b at columns u*b.ncols + y
        left = [(arow, d) for arow in arows for d in range(q)]
        right = [(brow, u * b.ncols) for u in range(len(left) // b.nrows) for brow in brows]
        for (arow, d), (brow, base) in zip(left, right):
            row = {}
            for x, w in arow.items():
                row[x * q + d] = w
            for y, w in brow.items():
                key = base + y
                w = row.pop(key, 0) - w
                if mod:
                    w %= mod
                if w:
                    row[key] = w
            if row:
                ech.insert(row)
    return ech


def _to_ints(rows) -> tuple[IntRows, int]:
    """(integer rows, denominator) of rows of field values in canonical
    form: each value times the least common denominator, zeros dropped.
    Over GF(p) these are the residues over 1."""
    den = 1
    for r in rows:
        for v in r.values():
            if den % v.denominator:
                den = lcm(den, v.denominator)
    if den == 1:  # the common case, and every case over GF(p)
        return [{j: v.numerator for j, v in r.items() if v} for r in rows], 1
    return [{j: v.numerator * (den // v.denominator) for j, v in r.items() if v}
            for r in rows], den


def _reduced(r: dict, mod: int) -> dict:
    """One integer map with zeros dropped, each entry reduced first when
    there is a modulus (nonzero `mod`)."""
    if mod:
        return {j: w for j, v in r.items() if (w := v % mod)}
    return {j: v for j, v in r.items() if v}


def _int_matmul(a: IntRows, b: IntRows, mod: int) -> IntRows:
    """Sparse product of integer rows; with a modulus (nonzero `mod`) each
    output entry is reduced once.  No zero is stored in the result."""
    out = []
    for ra in a:
        acc: dict = {}
        get = acc.get
        for k, x in ra.items():
            if x == 1:
                for j, y in b[k].items():
                    acc[j] = get(j, 0) + y
            else:
                for j, y in b[k].items():
                    acc[j] = get(j, 0) + x * y
        # filtered row by row, so that one unfiltered row at a time is alive
        if mod:
            out.append({j: w for j, v in acc.items() if (w := v % mod)})
        else:
            out.append({j: v for j, v in acc.items() if v})
    return out


def _int_matmul_kron(a: IntRows, b: IntRows, bcols: int, n: int, inner: bool,
                     mod: int) -> IntRows:
    """Sparse product of integer rows a and b (x) I_n, or I_n (x) b when
    `inner` (b having `bcols` columns), without building the Kronecker
    product: an entry x at column k of a meets one row of b, spread to the
    columns j*n + s of b (x) I_n for k = i*n + s, or shifted to the columns
    u*bcols + j of I_n (x) b for k = u*len(b) + i.  Reduction and zeros
    as in `_int_matmul`."""
    nb = len(b)
    out = []
    for ra in a:
        acc: dict = {}
        get = acc.get
        for k, x in ra.items():
            if inner:
                u, i = divmod(k, nb)
                step, base = 1, u * bcols
            else:
                i, base = divmod(k, n)
                step = n
            for j, y in b[i].items():
                c = j * step + base
                acc[c] = get(c, 0) + x * y
        if mod:
            out.append({j: w for j, v in acc.items() if (w := v % mod)})
        else:
            out.append({j: v for j, v in acc.items() if v})
    return out


def _nullspace_ints(ech: Echelon) -> list[tuple[dict, int]]:
    """Kernel basis in the canonical free-variable parametrization, one
    (zero-free integer map column -> value, denominator) pair per free
    column f, in column order: 1 at f and -r[f]/r[p] at the pivot p of
    each stored row r (residues over 1 in GF(p))."""
    mod, rows, pivots = ech._mod, ech.int_rows, ech.pivots
    basis = {f: {f: 1} for f in ech.free_columns()}
    get = basis.get
    dens: dict[int, int] = {}  # columns met by a pivot other than 1, only over Q
    for p, ridx in pivots.items():
        r = rows[ridx]
        a = r[p]
        for f, v in r.items():
            ints = get(f)
            if ints is not None:
                ints[p] = -v % mod if mod else -v
                if a != 1:
                    dens[f] = lcm(dens.get(f, 1), a)
    for f, den in dens.items():  # -v becomes -v * den / a
        ints = basis[f]
        for p, w in ints.items():
            ints[p] = den if p == f else w * (den // rows[pivots[p]][p])
    return [(ints, dens.get(f, 1)) for f, ints in basis.items()]


def nullspace_from_echelon(ech: Echelon):
    """Kernel basis in the canonical free-variable parametrization, as
    dense vectors of field values."""
    F, mod = ech.field, ech._mod
    basis = []
    for ints, den in _nullspace_ints(ech):
        vec = [F.zero] * ech.pivot_limit
        for j, v in ints.items():
            vec[j] = v if mod else Fraction(v, den)
        basis.append(vec)
    return basis
