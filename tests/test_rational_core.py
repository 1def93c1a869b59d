"""The integer core over Q against the plain Fraction algorithms it replaced.

Over Q, linalg._rref_raw, polyalgebra.sym_power, Matrix.__mul__ and
Matrix.apply clear denominators once and compute on ints.  The
references below are the Fraction loops they replaced, run on the same
inputs: non-integer values, numerators and denominators above 10^30,
zero rows, zero columns, repeated rows, and empty or one-column shapes.
Equality and hashing cannot tell Fraction(2) from 2, so every stored
output value is also checked to be a Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from verolab import Matrix, rank, rationals, subspace_intersect
from verolab.field import Scalar
from verolab.linalg import Subspace, _rref_int, _rref_raw, span_raw
from verolab.monomials import _parent_steps, _shift_table, num_monomials
from verolab.polyalgebra import sym_power

Q = rationals()
ZERO, ONE = Fraction(0), Fraction(1)
HUGE = 10 ** 30


# ----------------------------------------------------------------------
# references: the Fraction algorithms
# ----------------------------------------------------------------------

def ref_rref(rows):
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != ZERO), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        pv = row[c]
        for j in range(c, ncols):
            row[j] = row[j] / pv
        for i in range(nrows):
            if i != r and rows[i][c] != ZERO:
                fac = rows[i][c]
                for j in range(c, ncols):
                    rows[i][j] = rows[i][j] - fac * row[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def ref_subspace(rows, ambient):
    reduced, pivots = ref_rref(rows)
    return Subspace(Q, ambient, Matrix.from_raw_rows(Q, reduced[: len(pivots)], ambient), tuple(pivots))


def ref_intersect(a_rows, b_rows, m):
    a = ref_subspace(a_rows, m).basis.raw
    b = ref_subspace(b_rows, m).basis.raw
    if not a or not b:
        return ref_subspace([], m)
    stacked = [list(r + r) for r in a] + [list(r) + [ZERO] * m for r in b]
    reduced, pivots = ref_rref(stacked)
    gens = [row[m:] for row in reduced[: len(pivots)] if all(x == ZERO for x in row[:m])]
    return ref_subspace(gens, m)


def ref_sym_power(rows, d):
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    terms = [[(j, c) for j, c in enumerate(r) if c != ZERO] for r in rows]
    table = [[ONE]]
    for k in range(1, d + 1):
        shift = _shift_table(n, k)
        nxt = []
        for parent, i in _parent_steps(m, k):
            out = [ZERO] * num_monomials(n, k)
            for c, sh in zip(table[parent], shift):
                if c != ZERO:
                    for j, x in terms[i]:
                        out[sh[j]] = out[sh[j]] + c * x
            nxt.append(out)
        table = nxt
    return table


def ref_dot(row, col):
    acc = ZERO
    for x, y in zip(row, col):
        if x != ZERO and y != ZERO:
            acc = acc + x * y
    return acc


def ref_product(a, b, cols):
    bt = list(zip(*b)) if b else [()] * cols
    return Matrix(Q, tuple(tuple(ref_dot(r, c) for c in bt) for r in a), cols)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

signs = st.sampled_from([1, -1])
huge = st.integers(HUGE, 10 ** 40)
values = st.one_of(
    st.just(ZERO),
    st.integers(-4, 4).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(lambda s, p, q: Fraction(s * p, q), signs, huge, huge),
    st.builds(lambda s, p, q: Fraction(s * p, q), signs, huge, st.integers(1, 6)),
    st.builds(lambda s, p, q: Fraction(s * p, q), signs, st.integers(1, 6), huge),
)


@st.composite
def q_rows(draw, ncols=None, max_rows=5):
    """Rows of values, with a zero row, a zero column, a repeated or
    combined row each mixed in some of the time."""
    ncols = draw(st.integers(1, 5)) if ncols is None else ncols
    rows = [[draw(values) for _ in range(ncols)] for _ in range(draw(st.integers(0, max_rows)))]
    if not rows:
        return rows
    k = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(["none", "zero_row", "repeat", "combine"]))
    if kind == "zero_row":
        rows[k] = [ZERO] * ncols
    elif kind == "repeat":
        rows.append(list(rows[k]))
    elif kind == "combine":
        c1, c2 = draw(values), draw(values)
        rows.append([c1 * x + c2 * y for x, y in zip(rows[k], rows[-1])])
    if draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for r in rows:
            r[j] = ZERO
    return rows


def all_fractions(rows):
    return all(type(x) is Fraction for r in rows for x in r)


def primitive(row):
    """The primitive integer vector with the same direction as a Fraction row."""
    den = math.lcm(*[x.denominator for x in row])
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = math.gcd(*ints)
    return [x // g for x in ints]


# ----------------------------------------------------------------------
# elimination
# ----------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(q_rows())
@example([])
@example([[ZERO]])
@example([[Fraction(3, 7)], [Fraction(HUGE + 1, 3)]])
@example([[ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]])
def test_rref_matches_fraction_elimination(rows):
    want_rows, want_pivots = ref_rref(rows)
    got_rows, got_pivots = _rref_raw(Q, [list(r) for r in rows])
    assert got_pivots == want_pivots
    assert got_rows == want_rows and all_fractions(got_rows)
    if rows:
        m = Matrix.from_raw_rows(Q, rows)
        assert rank(m) == len(want_pivots)
        got = span_raw([list(r) for r in rows], m.cols, Q)
        want = ref_subspace(rows, m.cols)
        assert got == want and hash(got) == hash(want) and all_fractions(got.basis.raw)


@settings(max_examples=200, deadline=None)
@given(q_rows())
def test_integer_rows_end_primitive(rows):
    # the content is divided out: each pivot row is the primitive multiple
    # of its RREF row (up to sign) and the rows past the rank are zero
    want_rows, want_pivots = ref_rref(rows)
    work = [primitive(r) if any(r) else [0] * len(r) for r in rows]
    for i, r in enumerate(work):
        work[i] = [x * (i + 2) for x in r]  # give every row a content to remove
    assert _rref_int(work) == want_pivots
    for i, row in enumerate(work):
        if i < len(want_pivots):
            want = primitive(want_rows[i])
            assert row == want or row == [-x for x in want]
        else:
            assert not any(row)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.just(m), q_rows(ncols=m, max_rows=3), q_rows(ncols=m, max_rows=3), q_rows(ncols=m, max_rows=2))))
def test_intersection_matches_fraction_elimination(args):
    m, a_rows, b_rows, common = args
    a_rows, b_rows = a_rows + common, b_rows + common
    a, b = span_raw([list(r) for r in a_rows], m, Q), span_raw([list(r) for r in b_rows], m, Q)
    got = subspace_intersect(a, b)
    want = ref_intersect(a_rows, b_rows, m)
    assert got == want and hash(got) == hash(want) and all_fractions(got.basis.raw)


# ----------------------------------------------------------------------
# Sym^d, products, apply
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: q_rows(ncols=n, max_rows=3)), st.integers(0, 4))
@example([[Fraction(-HUGE - 3, HUGE + 1)]], 4)
def test_sym_power_matches_fraction_table(rows, d):
    got = sym_power(rows, d, Q)
    want = ref_sym_power(rows, d)
    assert got == want and all_fractions(got)
    if rows:
        gm, wm = Matrix.from_raw_rows(Q, got), Matrix.from_raw_rows(Q, want)
        assert gm == wm and hash(gm) == hash(wm)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 4)).flatmap(lambda s: st.tuples(
    st.lists(st.lists(values, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0]),
    st.lists(st.lists(values, min_size=s[2], max_size=s[2]), min_size=s[1], max_size=s[1]),
    st.just(s),
)))
def test_product_and_apply_match_fraction_dots(args):
    a_rows, b_rows, (r, k, c) = args
    a = Matrix(Q, tuple(map(tuple, a_rows)), k)
    b = Matrix(Q, tuple(map(tuple, b_rows)), c)
    got, want = a * b, ref_product(a.raw, b.raw, c)
    assert (got.rows, got.cols) == (r, c)
    assert got == want and hash(got) == hash(want) and all_fractions(got.raw)
    for col in zip(*b.raw) if k else [()]:
        v = tuple(Scalar(Q, x) for x in col)
        out = a.apply(v)
        assert [s.v for s in out] == [ref_dot(row, col) for row in a.raw]
        assert all(type(s.v) is Fraction for s in out)


def test_values_past_the_rank_are_fractions():
    rows = [[Fraction(1, 2), Fraction(HUGE, 7)], [ONE, Fraction(2 * HUGE, 7)], [ZERO, ZERO]]
    got, pivots = _rref_raw(Q, rows)
    assert pivots == [0]
    assert got == [[ONE, Fraction(2 * HUGE, 7)], [ZERO, ZERO], [ZERO, ZERO]] and all_fractions(got)
