"""Exact dense matrices and canonical subspaces over any FieldSpec.

A Subspace, one class on every field, is stored as the reduced row
echelon basis of its row space with zero rows dropped, in integer form
(ints), with its pivot columns, so two subspaces are equal exactly when
their representations are equal; no separate equivalence test exists.

Every Matrix and Subspace holds its rows in one integer form, ints, and
the subspace ops (rank, _span_int, subspace_join, subspace_intersect,
contained_in, meet_walk, and the searches and products above them) read
ints only.  Over GF(q) raw values are integers (element indices, see the
field module), so ints is raw itself.  Over Q a Matrix is a _QMatrix,
integer rows each over one positive denominator, and a Subspace's ints
are the primitive integer multiples of its RREF rows, reduced by
fraction-free Gauss-Jordan that divides out each row's content (Bareiss,
Math. Comp. 22, 1968; Cohen, A Course in Computational Algebraic Number
Theory, 2.2-2.3).  A Subspace's basis Matrix is formed from ints on each
read.  Fractions are read only by annihilator, rref, Matrix.raw (and the
Scalars of row, at and apply) and the public boundary; _echelon_extend
divides the integer rows it is given into Fractions.

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
from bisect import bisect_left, bisect_right
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

def _int_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Rows of Fractions as (int_rows, dens): row i times dens[i], the lcm
    of its denominators, is int_rows[i], and the two are coprime."""
    out, dens = [], []
    for r in rows:
        den = lcm(*[x.denominator for x in r])
        if den == 1:
            out.append([x.numerator for x in r])
        else:
            out.append([x.numerator * (den // x.denominator) for x in r])
        dens.append(den)
    return out, dens


def _dots(f: FieldSpec, rows, cols) -> tuple[tuple, ...]:
    """Row i, entry j: the dot product of rows[i] and cols[j].  Over Q a
    plain sum of products (of integers, in a _QMatrix product).  Over GF(q)
    each column's nonzero (index, value) pairs are listed once per call,
    and each dot product walks only that list, skipping the zeros of the
    row, with one fma per term."""
    if not f.is_finite:
        return tuple(tuple([sum(map(_imul, ar, bc)) for bc in cols]) for ar in rows)
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


def _rref_int(rows: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan on a list of integer rows, in place (a
    row is replaced, never changed, so rows may be tuples); returns the
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
    ann = [a.ints for a in anns]
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
    annihilators anns: u is in D exactly when each annihilator row of D is
    orthogonal to u's rows, so D is rejected at its first row that is
    not.  Both sides are read as ints, whose zero is 0 on every field, and
    each dot product walks only the nonzero entries of u's rows, listed
    once per call, with one fma per term."""
    fma = u.field.fma
    nonzeros = [[(i, y) for i, y in enumerate(b) if y] for b in u.ints]

    def orthogonal(r) -> bool:
        for nz in nonzeros:
            acc = 0
            for i, y in nz:
                x = r[i]
                if x:
                    acc = fma(acc, x, y)
            if acc:
                return False
        return True

    return [all(map(orthogonal, a.ints)) for a in anns]


# ----------------------------------------------------------------------
# Matrix
# ----------------------------------------------------------------------

class Matrix:
    """Immutable dense matrix over a field, row-major: raw holds one tuple
    of raw values per row, and ints the rows in integer form, raw itself
    over GF(q).  A matrix over Q is a _QMatrix."""

    __slots__ = ("field", "rows", "cols", "raw", "ints", "dens")

    def __init__(self, field: FieldSpec, raw: tuple[tuple, ...], cols: int) -> None:
        self.field = field
        self.rows = len(raw)
        self.cols = cols
        self.raw = self.ints = raw
        if not field.is_finite:
            self.__class__ = _QMatrix
            ints, dens = _int_rows(raw)
            self.ints, self.dens = tuple(map(tuple, ints)), tuple(dens)

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
        # 0 and 1: the raw zero and one over GF(q), and the integer rows over Q
        rows = tuple(tuple([1 if i == j else 0 for j in range(n)]) for i in range(n))
        return Matrix(field, rows, n) if field.is_finite else _q_matrix(field, rows, (1,) * n, n)

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
        if not self.field.is_finite:
            return _q_product(self, other)
        return Matrix(self.field, _dots(self.field, self.raw, other.transpose().raw), other.cols)

    def apply(self, v: Vector) -> Vector:
        """Matrix action on a column vector: (M v)_i = sum_j M[i][j] v_j."""
        if len(v) != self.cols:
            raise LengthMismatch(f"vector length {len(v)} != {self.cols}")
        f = self.field
        if not f.is_finite:
            out = _q_product(self, Matrix(f, tuple((s.v,) for s in v), 1)).raw
        else:
            out = _dots(f, self.raw, [[s.v for s in v]])
        return tuple(Scalar(f, r[0]) for r in out)

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


class _QMatrix(Matrix):
    """A Matrix over Q, held as integer rows: row i is ints[i] / dens[i],
    dens[i] > 0 coprime to the content of ints[i].  That form is unique
    (dens[i] is the lcm of the row's denominators), so equality and
    hashing read it.  A matrix built from Fractions clears them at once;
    one built from integer rows leaves raw to __getattr__, which fills the
    slot on first read (defined here, not on Matrix, where every GF(q)
    read would pay for it)."""

    __slots__ = ()

    def __getattr__(self, name: str):
        # called only when the slot name is unfilled
        if name != "raw":
            raise AttributeError(name)
        self.raw = tuple(tuple(map(Fraction, r)) if den == 1 else tuple([Fraction(x, den) for x in r])
                         for r, den in zip(self.ints, self.dens))
        return self.raw

    def transpose(self) -> Matrix:
        cols, den = _q_columns(self)
        return _q_matrix(self.field, cols, (den,) * self.cols, self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _QMatrix)
            and self.cols == other.cols
            and self.dens == other.dens
            and self.ints == other.ints
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.ints, self.dens))


def _q_matrix(field: FieldSpec, rows, dens, cols: int) -> Matrix:
    """The Q matrix whose row i is rows[i] / dens[i] (integers, dens[i] >
    0), each row and its denominator divided by their gcd; its Fractions
    are left to be formed when read."""
    ints, out = [], []
    for r, den in zip(rows, dens):
        g = gcd(den, *r) if den > 1 else 1
        ints.append(tuple([x // g for x in r]) if g > 1 else tuple(r))
        out.append(den // g)
    m = _QMatrix.__new__(_QMatrix)
    m.field, m.rows, m.cols, m.ints, m.dens = field, len(ints), cols, tuple(ints), tuple(out)
    return m


def _q_columns(m: Matrix) -> tuple[tuple, int]:
    """The columns of a Q matrix as integer rows over one common
    denominator, the lcm of its dens, and that denominator."""
    den = lcm(*m.dens)
    rows = m.ints if den == 1 else [[x * (den // y) for x in r] for r, y in zip(m.ints, m.dens)]
    return (tuple(zip(*rows)) if rows else ((),) * m.cols), den


def _q_product(a: Matrix, b: Matrix) -> Matrix:
    """a * b over Q: the integer dots of a's rows with b's columns over
    their common denominator L, row i over a's dens[i] * L."""
    cols, den = _q_columns(b)
    return _q_matrix(a.field, _dots(a.field, a.ints, cols), [x * den for x in a.dens], b.cols)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """The unique reduced row echelon form of m and its rank."""
    rows, pivots = _rref_raw(m.field, m.raw_rows())
    return Matrix.from_raw_rows(m.field, rows, m.cols), len(pivots)


def rank(m: Matrix) -> int:
    return _span_int([list(r) for r in m.ints], m.cols, m.field).dim


# ----------------------------------------------------------------------
# Subspace
# ----------------------------------------------------------------------

class Subspace:
    """A subspace of K^m held as ints, its canonical RREF rows in integer
    form (over Q their primitive multiples with positive pivot entries),
    and pivots, their pivot columns.  ints is unique to the subspace, so
    equality reads the field, the ambient dimension and ints, and hashing
    the last two; basis, the RREF rows as a Matrix, is formed on each read.
    The constructor takes the rows and pivots of an elimination and ignores
    the rows past the pivots; a row with a negative pivot entry (Q only:
    over GF(q) it is the raw one, 1) is stored negated."""

    __slots__ = ("field", "ambient_dim", "pivots", "ints")

    def __init__(self, field: FieldSpec, ambient_dim: int, rows, pivots) -> None:
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = pivots = tuple(pivots)
        self.ints = tuple([tuple(row) if row[p] > 0 else tuple([-x for x in row]) for row, p in zip(rows, pivots)])

    @property
    def basis(self) -> Matrix:
        f, m = self.field, self.ambient_dim
        if f.is_finite:
            return Matrix(f, self.ints, m)
        return _q_matrix(f, self.ints, tuple([row[p] for row, p in zip(self.ints, self.pivots)]), m)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.ints == other.ints
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.ints))

    def __repr__(self) -> str:
        return f"Subspace({self.field.name}, ambient={self.ambient_dim}, dim={self.dim})"

    def is_zero(self) -> bool:
        return not self.pivots


def span(vectors, ambient_dim: int, field: FieldSpec) -> Subspace:
    """Canonical subspace spanned by the given vectors (possibly none)."""
    raw = []
    for v in vectors:
        if len(v) != ambient_dim:
            raise LengthMismatch(f"vector length {len(v)} != ambient {ambient_dim}")
        raw.append([s.v for s in v])
    return span_raw(raw, ambient_dim, field)


def span_raw(rows: list[list], ambient_dim: int, field: FieldSpec) -> Subspace:
    """span() of raw coordinate lists, reduced in place over GF(q); over Q
    their Fractions are first cleared into new integer rows."""
    if not field.is_finite:
        rows = _int_rows(rows)[0]
    return _span_int(rows, ambient_dim, field)


def _span_int(rows: list[list[int]], ambient_dim: int, field: FieldSpec) -> Subspace:
    """The one span of rows in integer form (ints, or rows built from them;
    lists, reduced in place): over GF(q) raw rows, reduced by _rref_raw,
    and over Q integer rows, which _rref_int reduces without a Fraction."""
    pivots = _rref_raw(field, rows)[1] if field.is_finite else _rref_int(rows)
    return Subspace(field, ambient_dim, rows, pivots)


def zero_subspace(field: FieldSpec, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, (), ())


def full_subspace(field: FieldSpec, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, Matrix.identity(field, ambient_dim).ints, range(ambient_dim))


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch(
            f"{a.field.name}^{a.ambient_dim} vs {b.field.name}^{b.ambient_dim}"
        )


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_compatible(a, b)
    return subspace_join((a, b), a.ambient_dim, a.field)


def subspace_join(members, ambient_dim: int, field: FieldSpec) -> Subspace:
    """The span of the union of the members' rows (ints; possibly none)."""
    return _span_int([list(r) for s in members for r in s.ints], ambient_dim, field)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """A cap B by Zassenhaus's method on residues.  Let A be the argument
    of larger dimension.  Each basis row b of the other is reduced against
    A's RREF rows to its residue r, which is zero exactly when b lies in
    A; the map b -> r is linear with kernel A.  A combination of the rows
    [r | b] has zero left half exactly when its right half lies in A, so
    after echelonizing them (dim B rows, not dim A + dim B) the rows whose
    pivot p lies in the right half (p >= m) carry the intersection.  They
    come last, and their right halves are already its RREF basis, with
    pivots p - m.  Over Q the rows are integers (_residues_int) reduced
    by _rref_int, and the meet keeps the right halves as its ints."""
    _check_compatible(a, b)
    f = a.field
    m = a.ambient_dim
    if a.is_zero() or b.is_zero():
        return zero_subspace(f, m)
    if a.dim < b.dim:
        a, b = b, a
    if f.is_finite:
        rows = [_reduce(f, a.ints, a.pivots, list(r)) + list(r) for r in b.ints]
        piv = _rref_raw(f, rows)[1]
    else:
        rows = _residues_int(a, b)
        piv = _rref_int(rows)
    k = bisect_left(piv, m)
    pivots = tuple(p - m for p in piv[k:])
    return Subspace(f, m, [row[m:] for row in rows[k:len(piv)]], pivots)


def _residues_int(a: Subspace, b: Subspace) -> list[list[int]]:
    """The rows [r | s y] of subspace_intersect over Q, on integers: for
    each integer row y of b (ints), r is s y reduced against the integer
    rows z of a.  Each step clears the entry at one of a's pivots p,
    whose row has zeros at the others, by r -> e r - c z (e and c the
    pivot entry z[p] and the cleared entry over their gcd), so the tag
    half is scaled by e along with r."""
    out = []
    for y in b.ints:
        r, s = list(y), 1
        for z, p in zip(a.ints, a.pivots):
            c = r[p]
            if c:
                pv = z[p]
                g = gcd(pv, c)
                e, c = pv // g, c // g
                r = [e * x - c * w for x, w in zip(r, z)]
                s *= e
        out.append(r + [s * x for x in y])
    return out


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
    """The vector sum_i c_i b_i over the rows b of a.ints (its RREF basis
    over GF(q), over Q their primitive integer multiples), for each tuple
    c of raw coefficients in combos, in the order given: the product of
    the combos with those rows, as one _dots."""
    f = a.field
    rows = a.ints
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
