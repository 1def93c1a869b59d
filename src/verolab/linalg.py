"""Exact dense matrices and canonical subspaces over any FieldSpec.

A Subspace is stored as the reduced row echelon basis of its row space
with zero rows dropped, so two subspaces are equal exactly when their
representations are equal; no separate equivalence test exists or is
needed.  All elimination runs on raw element representations (integer
indices or Fractions) and wraps results back into Scalars at the
boundary.

Fixture syntax (one subspace):

    field=F3 ambient=4
    0 1 2 0
    1 0 0 2

Finite-field scalars are written as element indices, rationals as a/b.
A family fixture is subspace fixtures joined by lines containing "--".
"""

from __future__ import annotations

import itertools

from .errors import AmbientMismatch, BudgetExceeded, InfiniteField, LengthMismatch
from .field import FieldSpec, Scalar, parse_field, scalar_from_str

ENUM_BUDGET = 10 ** 6  # default cap on enumerate_vectors

Vector = tuple[Scalar, ...]


# ----------------------------------------------------------------------
# raw elimination
# ----------------------------------------------------------------------

def _rref_raw(f: FieldSpec, rows: list[list]) -> tuple[list[list], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    zero = f.zero_raw
    one = f.one_raw
    mul, sub, div = f.mul, f.sub, f.div
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c] != zero:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        pv = row[c]
        if pv != one:
            for j in range(c, ncols):
                row[j] = div(row[j], pv)
        for i in range(nrows):
            if i != r and rows[i][c] != zero:
                fac = rows[i][c]
                tgt = rows[i]
                for j in range(c, ncols):
                    tgt[j] = sub(tgt[j], mul(fac, row[j]))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _echelon_extend(f: FieldSpec, basis: list[list], pivots: list[int], vec: list, width: int) -> bool:
    """One step of incremental elimination.

    basis holds unit-pivot semi-echelon rows: row k is 1 at pivots[k], 0
    at every earlier pivot and before its own, and all pivots lie in
    [0, width).  vec is reduced in place against the rows in order; if
    vec[:width] stays nonzero it is scaled to a unit pivot and appended
    (True).  Otherwise vec is left as the zero residue and nothing is
    appended (False).  Entries past width are carried along but never
    pivoted on, so a tag there records the combination that was taken.
    """
    zero = f.zero_raw
    mul, sub = f.mul, f.sub
    n = len(vec)
    for row, p in zip(basis, pivots):
        c = vec[p]
        if c != zero:
            for j in range(p, n):
                x = row[j]
                if x != zero:
                    vec[j] = sub(vec[j], mul(c, x))
    for p in range(width):
        if vec[p] != zero:
            break
    else:
        return False
    pv = vec[p]
    if pv != f.one_raw:
        for j in range(p, n):
            vec[j] = f.div(vec[j], pv)
    basis.append(vec)
    pivots.append(p)
    return True


def dependent_prefixes(f: FieldSpec, n: int, rows_of, width: int, max_size: int, complete: bool = False):
    """Depth-first search over the index tuples of range(n) of size at
    most max_size, in lexicographic order, yielding each tuple whose
    last item's rows are dependent on the rows of the items before it.

    rows_of(i, depth) returns fresh rows (mutable lists) for item i
    placed at position depth.  The search keeps the semi-echelon basis
    of the current prefix's rows and, to visit prefix + (i,), reduces
    only item i's rows against it.  When one of them reduces to zero it
    yields (prefix + (i,), residue) and does not descend, since every
    extension contains the same dependency; otherwise it descends until
    max_size.  On backtrack the basis is cut back to its length before
    the item was added.  With complete=True an index is tried only when
    the tuple can still be completed to max_size inside range(n), i.e.
    i <= n - (max_size - depth).
    """
    basis: list[list] = []
    pivots: list[int] = []
    prefix: list[int] = []
    marks: list[int] = []
    i = 0
    while True:
        depth = len(prefix)
        if i > (n - max_size + depth if complete else n - 1):
            if not prefix:
                return
            i = prefix.pop() + 1
            mark = marks.pop()
            del basis[mark:], pivots[mark:]
            continue
        mark = len(basis)
        for vec in rows_of(i, depth):
            if not _echelon_extend(f, basis, pivots, vec, width):
                del basis[mark:], pivots[mark:]
                yield tuple(prefix) + (i,), vec
                break
        else:
            if depth + 1 < max_size:
                prefix.append(i)
                marks.append(mark)
                i += 1
                continue
            del basis[mark:], pivots[mark:]
        i += 1


def _solve_raw(f: FieldSpec, a_rows: list[list], b: list) -> list | None:
    """One exact solution x of A x = b (free variables 0), or None."""
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    aug = [list(a_rows[i]) + [b[i]] for i in range(nrows)]
    aug, pivots = _rref_raw(f, aug)
    zero = f.zero_raw
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = aug[i][ncols]
    return x


# ----------------------------------------------------------------------
# Matrix
# ----------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix of Scalars, row-major."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries: tuple[Scalar, ...]) -> None:
        if len(entries) != rows * cols:
            raise LengthMismatch(f"{len(entries)} entries for {rows}x{cols}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, field: FieldSpec, rows) -> Matrix:
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise LengthMismatch("ragged rows")
        return cls(field, len(rows), ncols, tuple(s for r in rows for s in r))

    @classmethod
    def from_raw_rows(cls, field: FieldSpec, rows, cols: int | None = None) -> Matrix:
        ncols = len(rows[0]) if rows else (cols or 0)
        return cls(field, len(rows), ncols, tuple(Scalar(field, v) for r in rows for v in r))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> Matrix:
        z, o = field.zero_raw, field.one_raw
        return cls.from_raw_rows(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols: (i + 1) * self.cols]

    def row_list(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def raw_rows(self) -> list[list]:
        c = self.cols
        vals = [s.v for s in self.entries]
        return [vals[i * c: (i + 1) * c] for i in range(self.rows)]

    def transpose(self) -> Matrix:
        return Matrix(
            self.field, self.cols, self.rows,
            tuple(self.entries[j * self.cols + i] for i in range(self.cols) for j in range(self.rows)),
        )

    def __mul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise LengthMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        f = self.field
        add, mul = f.add, f.mul
        zero = f.zero_raw
        a = self.raw_rows()
        bt = other.transpose().raw_rows()
        out = []
        for ar in a:
            orow = []
            for bc in bt:
                acc = zero
                for x, y in zip(ar, bc):
                    if x != zero and y != zero:
                        acc = add(acc, mul(x, y))
                orow.append(acc)
            out.append(orow)
        return Matrix.from_raw_rows(f, out, other.cols)

    def apply(self, v: Vector) -> Vector:
        """Matrix action on a column vector: (M v)_i = sum_j M[i][j] v_j."""
        if len(v) != self.cols:
            raise LengthMismatch(f"vector length {len(v)} != {self.cols}")
        f = self.field
        add, mul = f.add, f.mul
        zero = f.zero_raw
        raw = [s.v for s in v]
        out = []
        for row in self.raw_rows():
            acc = zero
            for x, y in zip(row, raw):
                if x != zero and y != zero:
                    acc = add(acc, mul(x, y))
            out.append(acc)
        return tuple(Scalar(f, x) for x in out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and all(a.v == b.v for a, b in zip(self.entries, other.entries))
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, tuple(s.v for s in self.entries)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(s) for s in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.field.name} {self.rows}x{self.cols}: {body})"


def rref(m: Matrix) -> tuple[Matrix, int]:
    """The unique reduced row echelon form of m and its rank."""
    rows, pivots = _rref_raw(m.field, m.raw_rows())
    return Matrix.from_raw_rows(m.field, rows, m.cols), len(pivots)


def rank(m: Matrix) -> int:
    _, pivots = _rref_raw(m.field, m.raw_rows())
    return len(pivots)


# ----------------------------------------------------------------------
# Subspace
# ----------------------------------------------------------------------

class Subspace:
    """A subspace of K^m held as its canonical RREF basis (no zero rows)."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: FieldSpec, ambient_dim: int, basis: Matrix) -> None:
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace({self.field.name}, ambient={self.ambient_dim}, dim={self.dim})"

    def is_zero(self) -> bool:
        return self.dim == 0


def span(vectors, ambient_dim: int, field: FieldSpec) -> Subspace:
    """Canonical subspace spanned by the given vectors (possibly none)."""
    raw = []
    for v in vectors:
        if len(v) != ambient_dim:
            raise LengthMismatch(f"vector length {len(v)} != ambient {ambient_dim}")
        raw.append([s.v for s in v])
    return span_raw(raw, ambient_dim, field)


def span_raw(rows: list[list], ambient_dim: int, field: FieldSpec) -> Subspace:
    """span() of raw coordinate lists, which are reduced in place."""
    if not rows:
        return zero_subspace(field, ambient_dim)
    rows, pivots = _rref_raw(field, rows)
    basis = Matrix.from_raw_rows(field, rows[: len(pivots)], ambient_dim)
    return Subspace(field, ambient_dim, basis)


def zero_subspace(field: FieldSpec, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, Matrix(field, 0, ambient_dim, ()))


def full_subspace(field: FieldSpec, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, Matrix.identity(field, ambient_dim))


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(
            f"{a.field.name}^{a.ambient_dim} vs {b.field.name}^{b.ambient_dim}"
        )


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
    return span(a.basis.row_list() + b.basis.row_list(), a.ambient_dim, a.field)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """A cap B by the Zassenhaus stacked-matrix method: echelonize
    [A | A; B | 0]; rows with zero left half carry the intersection."""
    _check_compatible(a, b)
    f = a.field
    m = a.ambient_dim
    if a.is_zero() or b.is_zero():
        return zero_subspace(f, m)
    zero = f.zero_raw
    stacked = [list(r) + list(r) for r in a.basis.raw_rows()]
    stacked += [list(r) + [zero] * m for r in b.basis.raw_rows()]
    rows, pivots = _rref_raw(f, stacked)
    gens = []
    for row in rows[: len(pivots)]:
        if all(x == zero for x in row[:m]):
            gens.append(tuple(Scalar(f, x) for x in row[m:]))
    return span(gens, m, f)


def annihilator(a: Subspace) -> Subspace:
    """All functionals vanishing on a, under the standard dot pairing."""
    f = a.field
    m = a.ambient_dim
    if a.is_zero():
        return full_subspace(f, m)
    rows = a.basis.raw_rows()
    zero, one = f.zero_raw, f.one_raw
    pivots = []
    for row in rows:
        for c, x in enumerate(row):
            if x != zero:
                pivots.append(c)
                break
    pivot_set = set(pivots)
    gens = []
    for c in range(m):
        if c in pivot_set:
            continue
        vec = [zero] * m
        vec[c] = one
        for i, p in enumerate(pivots):
            vec[p] = f.neg(rows[i][c])
        gens.append(tuple(Scalar(f, x) for x in vec))
    return span(gens, m, f)


def contains(a: Subspace, v: Vector) -> bool:
    """True iff v lies in a (residual after eliminating against the
    RREF basis is zero)."""
    if len(v) != a.ambient_dim:
        raise LengthMismatch(f"vector length {len(v)} != ambient {a.ambient_dim}")
    f = a.field
    zero = f.zero_raw
    mul, sub = f.mul, f.sub
    w = [s.v for s in v]
    rows = a.basis.raw_rows()
    pivots = []
    for row in rows:
        for c, x in enumerate(row):
            if x != zero:
                pivots.append(c)
                break
    for row, p in zip(rows, pivots):
        fac = w[p]
        if fac != zero:
            for j in range(p, len(w)):
                w[j] = sub(w[j], mul(fac, row[j]))
    return all(x == zero for x in w)


def subspace_le(a: Subspace, b: Subspace) -> bool:
    """True iff a is contained in b."""
    return all(contains(b, r) for r in a.basis.row_list())


def combine_basis(a: Subspace, combos) -> list[Vector]:
    """The vector sum_i c_i b_i over the basis b of a, for each tuple c of
    raw coefficients in combos, in the order given."""
    f = a.field
    add, mul = f.add, f.mul
    zero = f.zero_raw
    rows = a.basis.raw_rows()
    m = a.ambient_dim
    out = []
    for combo in combos:
        acc = [zero] * m
        for c, row in zip(combo, rows):
            if c != zero:
                for j in range(m):
                    if row[j] != zero:
                        acc[j] = add(acc[j], mul(c, row[j]))
        out.append(tuple(Scalar(f, x) for x in acc))
    return out


def enumerate_vectors(a: Subspace, budget: int = ENUM_BUDGET) -> list[Vector]:
    """All q^dim vectors of a, as coefficient combinations of the basis in
    element-enumeration order."""
    f = a.field
    if not f.is_finite:
        raise InfiniteField("cannot enumerate vectors over Q")
    if f.q ** a.dim > budget:
        raise BudgetExceeded(f"{f.q}^{a.dim} vectors exceed budget {budget}")
    return combine_basis(a, itertools.product(range(f.q), repeat=a.dim))


def projective_vectors(a: Subspace, budget: int = ENUM_BUDGET) -> list[Vector]:
    """One representative per 1-space of a: coefficient combinations whose
    first nonzero coefficient is 1, in enumeration order."""
    f = a.field
    if not f.is_finite:
        raise InfiniteField("cannot enumerate vectors over Q")
    if a.dim and f.q ** a.dim > budget:
        raise BudgetExceeded(f"{f.q}^{a.dim} vectors exceed budget {budget}")
    return combine_basis(a, (
        (f.zero_raw,) * pivot + (f.one_raw,) + tail
        for pivot in range(a.dim - 1, -1, -1)
        for tail in itertools.product(range(f.q), repeat=a.dim - 1 - pivot)
    ))


def projective_points(f: FieldSpec, ambient_dim: int) -> list[Vector]:
    """Normalized representatives (first nonzero coordinate 1) of all
    1-spaces of K^ambient, in lexicographic order of the representatives."""
    return projective_vectors(full_subspace(f, ambient_dim))


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------

def format_subspace(a: Subspace) -> str:
    lines = [f"field={a.field.name} ambient={a.ambient_dim}"]
    for r in a.basis.row_list():
        lines.append(" ".join(str(s) for s in r))
    return "\n".join(lines)


def parse_subspace(text: str) -> Subspace:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty subspace fixture")
    header = dict(part.split("=", 1) for part in lines[0].split())
    f = parse_field(header["field"])
    ambient = int(header["ambient"])
    vecs = []
    for ln in lines[1:]:
        vecs.append(tuple(scalar_from_str(f, tok) for tok in ln.split()))
    return span(vecs, ambient, f)


def format_family(members) -> str:
    return "\n--\n".join(format_subspace(s) for s in members)


def parse_family_text(text: str) -> list[Subspace]:
    blocks = [b for b in (p.strip() for p in text.split("--")) if b]
    return [parse_subspace(b) for b in blocks]
