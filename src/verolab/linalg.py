"""Exact dense matrices and canonical subspaces over any FieldSpec.

A Subspace is stored as the reduced row echelon basis of its row space
with zero rows dropped, so two subspaces are equal exactly when their
representations are equal; no separate equivalence test exists or is
needed.

A Matrix stores raw field values (integer indices or Fractions, see the
field module), one tuple per row.  Over GF(q) all elimination runs on
them.  Over Q the elimination, Matrix products and polyalgebra.sym_power
clear denominators once (_int_rows: each row becomes integers over the
lcm of its denominators) and then run on ints.  The elimination is
fraction-free Gauss-Jordan that divides out each row's content (Bareiss,
Math. Comp. 22, 1968; Cohen, A Course in Computational Algebraic Number
Theory, 2.2).  One Fraction is built per output value, so every stored Q
value is still a Fraction and equality and hashing are unchanged.

Scalars appear only where values cross the public boundary: Matrix.row,
row_list, at and apply box on the way out, from_rows, span and contains
unbox what they are given, and the vector enumerations and fixtures
speak Scalars.  Inside the package, rows travel raw: raw_rows() copies
them as mutable lists for elimination and span_raw reduces such lists.

Fixture syntax (one subspace):

    field=F3 ambient=4
    0 1 2 0
    1 0 0 2

Finite-field scalars are written as element indices, rationals as a/b.
A family fixture is subspace fixtures joined by lines containing "--".
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import mul as _imul

from .errors import AmbientMismatch, BudgetExceeded, InfiniteField, LengthMismatch
from .field import FieldSpec, Scalar, parse_field, scalar_from_str

ENUM_BUDGET = 10 ** 6  # cap on the vectors (or members) an enumeration may list
SUBSET_BUDGET = 10 ** 7  # default cap on the subsets a search may visit


def over_budget(count: int, allowed: int, base: int = 1, exponent: int = 1) -> int | str | None:
    """count * base^exponent (count >= 1) when it exceeds allowed, else None.
    A power past allowed is never formed: for base >= 2 and exponent >=
    allowed.bit_length(), base^exponent >= 2^exponent > allowed, so the
    exponent alone decides, and the count comes back as the text
    "count x base^exponent" (without "1 x ")."""
    if base > 1 and exponent >= allowed.bit_length():
        return f"{base}^{exponent}" if count == 1 else f"{count} x {base}^{exponent}"
    needed = count * base ** exponent
    return needed if needed > allowed else None


def check_budget(quantity: str, count: int, allowed: int, base: int = 1, exponent: int = 1) -> None:
    """The one budget gate: raise BudgetExceeded when count * base^exponent
    quantity exceed allowed (see over_budget).  Each site calls it before
    it builds what it counts."""
    needed = over_budget(count, allowed, base, exponent)
    if needed is not None:
        raise BudgetExceeded(quantity, needed, allowed)


Vector = tuple[Scalar, ...]


# ----------------------------------------------------------------------
# raw elimination
# ----------------------------------------------------------------------

_QZERO = Fraction(0)


def _int_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Rows of Fractions as (int_rows, dens): row i times dens[i], the lcm
    of its denominators, is int_rows[i]."""
    out, dens = [], []
    for r in rows:
        den = lcm(*[x.denominator for x in r])
        if den == 1:
            out.append([x.numerator for x in r])
        else:
            out.append([x.numerator * (den // x.denominator) for x in r])
        dens.append(den)
    return out, dens


def _fraction(num: int, den: int) -> Fraction:
    """num / den as a stored Q value."""
    if not num:
        return _QZERO
    return Fraction(num) if den == 1 else Fraction(num, den)


def _dots(f: FieldSpec, rows, cols) -> tuple[tuple, ...]:
    """Row i, entry j: the dot product of rows[i] and cols[j], raw.  Over Q
    it is an integer dot product over one denominator per row and column.
    Over GF(q) each column's nonzero (index, value) pairs are listed once
    per call, and each dot product walks only that list, skipping the
    zeros of the row, with one fma per term."""
    if not f.is_finite:
        a, da = _int_rows(rows)
        b, db = _int_rows(cols)
        return tuple(
            tuple(_fraction(sum(map(_imul, ar, bc)), x * y) for bc, y in zip(b, db))
            for ar, x in zip(a, da)
        )
    fma, zero = f.fma, f.zero_raw
    nonzeros = [[(i, y) for i, y in enumerate(bc) if y != zero] for bc in cols]
    out = []
    for ar in rows:
        orow = []
        for nz in nonzeros:
            acc = zero
            for i, y in nz:
                x = ar[i]
                if x != zero:
                    acc = fma(acc, x, y)
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def _rref_raw(f: FieldSpec, rows: list[list]) -> tuple[list[list], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    if not f.is_finite:
        return _rref_q(rows)
    zero = f.zero_raw
    one = f.one_raw
    fma, neg, div = f.fma, f.neg, f.div
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
                fac = neg(rows[i][c])
                tgt = rows[i]
                for j in range(c, ncols):
                    tgt[j] = fma(tgt[j], fac, row[j])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _rref_q(rows: list[list]) -> tuple[list[list], list[int]]:
    """_rref_raw over Q: _rref_int on the integer rows, then each pivot row
    divided by its pivot into Fractions."""
    work, _ = _int_rows(rows)
    pivots = _rref_int(work)
    for i, c in enumerate(pivots):
        pv = work[i][c]
        rows[i] = [_fraction(x, pv) for x in work[i]]
    for i in range(len(pivots), len(rows)):
        rows[i] = [_QZERO] * len(work[i])
    return rows, pivots


def _rref_int(rows: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place; returns the
    pivot columns.  Each update is a r_i - b r_p, with a and b the pivot
    and target entries over their gcd, and every row's content is divided
    out, so each nonzero row ends as the primitive integer multiple of its
    RREF row and the rows past the rank are zero."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    for i, row in enumerate(rows):
        g = gcd(*row)
        if g > 1:
            rows[i] = [x // g for x in row]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        pv = row[c]
        for i in range(nrows):
            tgt = rows[i]
            b = tgt[c]
            if b and i != r:
                g = gcd(pv, b)
                a, b = pv // g, b // g
                tgt = [a * x - b * y for x, y in zip(tgt, row)]
                g = gcd(*tgt)
                rows[i] = [x // g for x in tgt] if g > 1 else tgt
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _reduce(f: FieldSpec, rows, pivots, vec: list) -> list:
    """vec reduced in place against unit-pivot semi-echelon rows and
    returned: row k is 1 at pivots[k], 0 at every earlier pivot and before
    its own.  Zero entries are skipped.  When rows span a subspace on
    vec's columns, the residue is zero exactly when vec lies in it."""
    zero = f.zero_raw
    fma, neg = f.fma, f.neg
    n = len(vec)
    for row, p in zip(rows, pivots):
        c = vec[p]
        if c != zero:
            c = neg(c)
            for j in range(p, n):
                x = row[j]
                if x != zero:
                    vec[j] = fma(vec[j], c, x)
    return vec


def _echelon_extend(f: FieldSpec, basis: list[list], pivots: list[int], vec: list, width: int) -> bool:
    """One step of incremental elimination.

    basis holds unit-pivot semi-echelon rows with all pivots in [0,
    width).  vec is reduced in place against them by _reduce; if
    vec[:width] stays nonzero it is scaled to a unit pivot and appended
    (True).  Otherwise vec is left as the zero residue and nothing is
    appended (False).  Entries past width are carried along but never
    pivoted on, so a tag there records the combination that was taken.
    """
    _reduce(f, basis, pivots, vec)
    zero = f.zero_raw
    for p in range(width):
        if vec[p] != zero:
            break
    else:
        return False
    pv = vec[p]
    if pv != f.one_raw:
        for j in range(p, len(vec)):
            vec[j] = f.div(vec[j], pv)
    basis.append(vec)
    pivots.append(p)
    return True


def dependent_prefixes(f: FieldSpec, n: int, rows_of, width: int, max_size: int, complete: bool = False):
    """Depth-first search over the index tuples of range(n) of size at
    most max_size, in lexicographic order, yielding each tuple whose
    last item's rows are dependent on the rows of the items before it.

    rows_of(i, depth) returns fresh rows (mutable lists) for item i
    placed at position depth; only entries past width (tags, never
    pivoted on) may depend on depth.  Each tuple prefix + (i,) is
    yielded with the residue of the first of item i's rows that reduces
    to zero on [0, width) against the semi-echelon basis of the prefix's
    rows (_echelon_extend), and is not descended, since every extension
    contains the same dependency; an independent prefix is descended
    until max_size.  With complete=True an index is tried only when the
    tuple can still be completed to max_size inside range(n), i.e.
    i <= n - (max_size - depth).

    When every item has exactly one row (point families, the tagged
    columns of a check matrix) the search runs on residue columns
    (_point_walk); otherwise it reduces each candidate's rows against
    the prefix basis (_row_walk).  Both yield the same tuples and
    residues in the same order.
    """
    rows = [rows_of(i, 0) for i in range(n)]
    if all(len(r) == 1 for r in rows):
        cols = [[r[0][j] for r in rows] for j in range(width)]
        return _point_walk(f, n, rows_of, width, max_size, complete, cols)
    return _row_walk(f, n, rows_of, width, max_size, complete)


def _point_walk(f: FieldSpec, n: int, rows_of, width: int, max_size: int, complete: bool, cols: list[list]):
    """dependent_prefixes for one-row items, on residue columns.

    A level holds, for each column j < width that is no pivot of the
    current prefix P (in increasing order of j), the residue entries of
    the items after P's last one.  Descending into item a scales a's
    residue to u with a unit pivot at its first nonzero column p: in the
    child, column j is column j sliced past a when u_j = 0, and x - u_j y
    otherwise, y the item's entry in column p; column p leaves.  An item
    is dependent on the prefix exactly when its residue is zero, so with
    no column left every item is.

    The last two depths are decided at depth max_size - 2, where P is
    independent and the residues are coordinates in K^width / <P>.  For
    a < k, P + (a, k) is dependent exactly when rho_k = 0 or rho_k lies
    in <rho_a>, so the items with a nonzero residue are grouped by it
    scaled to first nonzero entry 1, and each a with rho_a != 0 yields
    P + (a, k) for every later k in its group or with rho_k = 0.

    The residues yielded carry the tags, so they come from the tagged
    semi-echelon basis of the prefix's rows_of rows.  It is built only
    when a tuple is yielded, extended from the rows of the prefix items
    it lacks, and cut back to the prefix on backtrack; each residue is
    then rows_of(k, depth)[0] reduced by _echelon_extend, as in
    _row_walk.
    """
    zero = f.zero_raw
    fma, neg, mul, inv = f.fma, f.neg, f.mul, f.inv
    last = max_size - 2
    prefix: list[int] = []
    basis: list[list] = []
    pivots: list[int] = []

    def residue(k):
        for t in range(len(basis), len(prefix)):
            _echelon_extend(f, basis, pivots, rows_of(prefix[t], t)[0], width)
        vec = rows_of(k, len(prefix))[0]
        _echelon_extend(f, basis, pivots, vec, width)
        return vec

    def pairs(ks):
        for k in ks:
            yield (*prefix, k), residue(k)

    def level(start, cols):
        depth = len(prefix)
        if depth == last:
            keys = _projective_keys(f, cols, n - start)
            groups: dict = {None: []}
            for k, key in enumerate(keys, start):
                groups.setdefault(key, []).append(k)
            zeros = groups[None]
        for a in range(start, n - max_size + depth + 1 if complete else n):
            t = a - start
            if depth == last:
                key = keys[t]
                if key is None:
                    yield (*prefix, a), residue(a)
                    continue
                group = groups[key]
                ks = group[bisect_right(group, a):] + zeros[bisect_right(zeros, a):]
                if not ks:
                    continue
                below = pairs(sorted(ks))
            else:
                u = [c[t] for c in cols]
                for p, x in enumerate(u):
                    if x != zero:
                        break
                else:
                    yield (*prefix, a), residue(a)
                    continue
                if depth + 1 == max_size:  # max_size 1: the root is the last depth
                    continue
                s = inv(x)
                colp = cols[p][t + 1:]
                child = [c[t + 1:] for c in cols[:p]]
                for c, y in zip(cols[p + 1:], u[p + 1:]):
                    if y == zero:
                        child.append(c[t + 1:])
                    else:
                        w = neg(mul(y, s))
                        child.append([fma(v, z, w) for v, z in zip(c[t + 1:], colp)])
                below = level(a + 1, child)
            prefix.append(a)
            yield from below
            prefix.pop()
            del basis[depth:], pivots[depth:]

    return level(0, cols)


def _projective_keys(f: FieldSpec, cols: list[list], count: int) -> list[tuple | None]:
    """For each of count items, given by its entries in cols: its residue
    scaled so that its first nonzero entry is 1, or None when it is zero.
    Two nonzero residues span the same line exactly when their keys are
    equal."""
    zero, one = f.zero_raw, f.one_raw
    mul, inv = f.mul, f.inv
    keys: list[tuple | None] = []
    for r in zip(*cols) if cols else [()] * count:
        for x in r:
            if x != zero:
                if x != one:
                    s = inv(x)
                    r = tuple([mul(y, s) for y in r])
                keys.append(r)
                break
        else:
            keys.append(None)
    return keys


def _row_walk(f: FieldSpec, n: int, rows_of, width: int, max_size: int, complete: bool = False):
    """dependent_prefixes by reducing candidates' rows.  The search keeps
    the semi-echelon basis of the current prefix's rows and, to visit
    prefix + (i,), reduces only item i's rows against it; on backtrack
    the basis is cut back to its length before the item was added."""
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


def meet_walk(anns, max_size: int):
    """Depth-first search over the index tuples of a family of subspaces
    of one K^m, given by the members' annihilators anns, of size at most
    max_size, in lexicographic order, yielding every tuple whose proper
    prefixes meet in a nonzero subspace, with its annihilator stack.

    The annihilator of a meet is the sum of the annihilators, so the
    stack is kept as the semi-echelon basis of the annihilator rows of
    the tuple's members: dim(D_1 cap ... cap D_j) = m - len(stack), and
    the meet is the annihilator of its span (stack_meet).  Visiting
    prefix + (i,) pushes the rows of anns[i] by _echelon_extend.  The
    search descends from a tuple while its meet is nonzero and its size
    is below max_size, and on backtrack cuts the stack back to its
    length before the member was pushed, as dependent_prefixes does.

    Each tuple is yielded as (prefix, i, stack): prefix is the list of
    its first indices and i its last, so a consumer builds the tuple
    (*prefix, i) only when it keeps one.  The prefix and the stack are
    the search's own: read them before resuming the search, and change
    neither.
    """
    f, m = anns[0].field, anns[0].ambient_dim
    ann = [a.basis.raw for a in anns]
    n = len(ann)
    basis: list[list] = []
    pivots: list[int] = []
    prefix: list[int] = []
    marks: list[int] = []
    i = 0
    while True:
        if i == n:
            if not prefix:
                return
            i = prefix.pop() + 1
            mark = marks.pop()
            del basis[mark:], pivots[mark:]
            continue
        mark = len(basis)
        for row in ann[i]:
            if len(basis) == m:
                break
            _echelon_extend(f, basis, pivots, list(row), m)
        yield prefix, i, basis
        if len(basis) < m and len(prefix) + 1 < max_size:
            prefix.append(i)
            marks.append(mark)
        else:
            del basis[mark:], pivots[mark:]
        i += 1


def stack_meet(stack: list[list], ambient_dim: int, field: FieldSpec) -> Subspace:
    """The meet a meet_walk stack stands for: the annihilator of its span."""
    return annihilator(span_raw([list(r) for r in stack], ambient_dim, field))


def contained_in(anns, u: Subspace) -> list[bool]:
    """Whether u lies in each member D of a family, given by the members'
    annihilators anns: u is in D exactly when ann(D) u^T = 0, so one
    product of the stacked annihilator rows with u's basis answers every
    member."""
    f = u.field
    zero = f.zero_raw
    prod = _dots(f, [r for a in anns for r in a.basis.raw], u.basis.raw)
    out = []
    k = 0
    for a in anns:
        out.append(all(x == zero for row in prod[k:k + a.dim] for x in row))
        k += a.dim
    return out


# ----------------------------------------------------------------------
# Matrix
# ----------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix over a field, row-major: raw holds one tuple
    of raw values per row."""

    __slots__ = ("field", "rows", "cols", "raw")

    def __init__(self, field: FieldSpec, raw: tuple[tuple, ...], cols: int) -> None:
        self.field = field
        self.rows = len(raw)
        self.cols = cols
        self.raw = raw

    @classmethod
    def from_rows(cls, field: FieldSpec, rows) -> Matrix:
        raw = tuple(tuple(s.v for s in r) for r in rows)
        ncols = len(raw[0]) if raw else 0
        for r in raw:
            if len(r) != ncols:
                raise LengthMismatch("ragged rows")
        return cls(field, raw, ncols)

    @classmethod
    def from_raw_rows(cls, field: FieldSpec, rows, cols: int | None = None) -> Matrix:
        ncols = len(rows[0]) if rows else (cols or 0)
        return cls(field, tuple(map(tuple, rows)), ncols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> Matrix:
        check_budget(f"entries of the {n} x {n} identity", n * n, ENUM_BUDGET)
        z, o = field.zero_raw, field.one_raw
        return cls.from_raw_rows(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    def row(self, i: int) -> Vector:
        f = self.field
        return tuple(Scalar(f, v) for v in self.raw[i])

    def row_list(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def at(self, i: int, j: int) -> Scalar:
        return Scalar(self.field, self.raw[i][j])

    def raw_rows(self) -> list[list]:
        """The rows as fresh mutable lists, e.g. for elimination."""
        return [list(r) for r in self.raw]

    def transpose(self) -> Matrix:
        cols = tuple(zip(*self.raw)) if self.rows else ((),) * self.cols
        return Matrix(self.field, cols, self.rows)

    def __mul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise LengthMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        return Matrix(self.field, _dots(self.field, self.raw, other.transpose().raw), other.cols)

    def apply(self, v: Vector) -> Vector:
        """Matrix action on a column vector: (M v)_i = sum_j M[i][j] v_j."""
        if len(v) != self.cols:
            raise LengthMismatch(f"vector length {len(v)} != {self.cols}")
        f = self.field
        return tuple(Scalar(f, r[0]) for r in _dots(f, self.raw, [[s.v for s in v]]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.cols == other.cols
            and self.raw == other.raw
        )

    def __hash__(self) -> int:
        return hash((self.field, self.cols, self.raw))

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
    """A subspace of K^m held as its canonical RREF basis (no zero rows)
    and the pivot column of each basis row.  The pivots are kept from the
    elimination that built the basis; equality and hashing read the basis
    alone."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: FieldSpec, ambient_dim: int, basis: Matrix, pivots: tuple[int, ...]) -> None:
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

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
    return Subspace(field, ambient_dim, basis, tuple(pivots))


def zero_subspace(field: FieldSpec, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, Matrix(field, (), ambient_dim), ())


def full_subspace(field: FieldSpec, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, Matrix.identity(field, ambient_dim), tuple(range(ambient_dim)))


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(
            f"{a.field.name}^{a.ambient_dim} vs {b.field.name}^{b.ambient_dim}"
        )


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
    return subspace_join((a, b), a.ambient_dim, a.field)


def subspace_join(members, ambient_dim: int, field: FieldSpec) -> Subspace:
    """The span of the union of the bases of the members (possibly none)."""
    return span_raw([r for s in members for r in s.basis.raw_rows()], ambient_dim, field)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """A cap B by Zassenhaus's method on residues.  Let A be the argument
    of larger dimension.  Each basis row b of the other is reduced against
    A's RREF rows to its residue r, which is zero exactly when b lies in
    A; the map b -> r is linear with kernel A.  A combination of the rows
    [r | b] has zero left half exactly when its right half lies in A, so
    after echelonizing them (dim B rows, not dim A + dim B) the rows whose
    pivot lies in the right half carry the intersection."""
    _check_compatible(a, b)
    f = a.field
    m = a.ambient_dim
    if a.is_zero() or b.is_zero():
        return zero_subspace(f, m)
    if a.dim < b.dim:
        a, b = b, a
    rows = [_reduce(f, a.basis.raw, a.pivots, list(r)) + list(r) for r in b.basis.raw]
    rows, piv = _rref_raw(f, rows)
    return span_raw([row[m:] for row, p in zip(rows, piv) if p >= m], m, f)


def annihilator(a: Subspace) -> Subspace:
    """All functionals vanishing on a, under the standard dot pairing."""
    f = a.field
    m = a.ambient_dim
    if a.is_zero():
        return full_subspace(f, m)
    rows = a.basis.raw
    zero, one = f.zero_raw, f.one_raw
    pivot_set = set(a.pivots)
    gens = []
    for c in range(m):
        if c in pivot_set:
            continue
        vec = [zero] * m
        vec[c] = one
        for row, p in zip(rows, a.pivots):
            vec[p] = f.neg(row[c])
        gens.append(vec)
    return span_raw(gens, m, f)


def contains(a: Subspace, v: Vector) -> bool:
    """True iff v lies in a: joining v to a leaves a's dimension.  Like
    subspace_le, a rank-based reference, independent of the reductions
    (_reduce, contained_in) that tests compare against it."""
    m, f = a.ambient_dim, a.field
    return subspace_join((a, span([v], m, f)), m, f).dim == a.dim


def subspace_le(a: Subspace, b: Subspace) -> bool:
    """True iff a is contained in b: joining a to b leaves b's dimension.
    Decided by rank alone, so it stays a reference independent of the
    reductions (_reduce, contained_in) that tests compare against it."""
    _check_compatible(a, b)
    return subspace_join((a, b), b.ambient_dim, b.field).dim == b.dim


def combine_basis(a: Subspace, combos) -> list[Vector]:
    """The vector sum_i c_i b_i over the basis b of a, for each tuple c of
    raw coefficients in combos, in the order given: the product of the
    combos with the basis, as one _dots."""
    f = a.field
    rows = a.basis.raw
    cols = [[row[j] for row in rows] for j in range(a.ambient_dim)]
    return [tuple(Scalar(f, x) for x in v) for v in _dots(f, combos, cols)]


def enumerate_vectors(a: Subspace) -> list[Vector]:
    """All q^dim vectors of a, as coefficient combinations of the basis in
    element-enumeration order."""
    f = a.field
    if not f.is_finite:
        raise InfiniteField("cannot enumerate vectors over Q")
    check_budget(f"vectors of a {a.dim}-space over {f.name}", 1, ENUM_BUDGET, f.q, a.dim)
    return combine_basis(a, itertools.product(range(f.q), repeat=a.dim))


def projective_vectors(a: Subspace) -> list[Vector]:
    """One representative per 1-space of a: coefficient combinations whose
    first nonzero coefficient is 1, in enumeration order."""
    f = a.field
    if not f.is_finite:
        raise InfiniteField("cannot enumerate vectors over Q")
    check_budget(f"vectors of a {a.dim}-space over {f.name}", 1, ENUM_BUDGET, f.q, a.dim)
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
