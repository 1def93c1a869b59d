"""The integer core over Q against the plain Fraction algorithms it replaced.

Over Q a Matrix holds integer rows, each over one positive denominator
(a _QMatrix), and rank, span_raw, Matrix.__mul__, Matrix.apply,
transpose, rho_d and polyalgebra.sym_power compute on them;
subspace_intersect reduces B's primitive integer rows against A's and
reads the meet off one _rref_int; product_space convolves integer forms
and power_subspace powers them.  The references below are the Fraction
loops they replaced, run on the same inputs: non-integer values,
numerators and denominators above 10^30, zero rows, zero columns,
repeated rows, empty or one-column shapes, and zero, nested, equal and
disjoint pairs of subspaces.  Equality and hashing cannot tell
Fraction(2) from 2, so every stored output value is also checked to be
a Fraction, and stored pivots are compared too.  Over GF(q) the
one-elimination intersection is held to the two-elimination one it
replaced.

A Q Subspace keeps its primitive integer rows; its basis, formed on each
read, holds each over its pivot entry and forms its Fractions only when
they are read.  Its equality and hash, read off those rows, are held to
equality of the Fraction bases across every way a subspace is built; the lazy Fractions to the eager
division of the same rows; a Q matrix built from integer rows, with a
factor to divide out, to the same matrix built from Fractions, and its
products, transpose, rank and rho_d to the Fraction loops;
annihilator and contained_in over Q to their Fraction forms; and
T1_3's join of power subspaces to the span of Fraction powers it
replaced.  A guard counts the Fraction bases power_intersection_check
forms over Q: none.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from hypothesis import example, given, settings, strategies as st

from verolab import Matrix, parse_field, rank, rationals, rho_d, rref, subspace_intersect
from verolab import linalg
from verolab.field import Scalar
from verolab.linalg import Subspace, _int_rows, _q_matrix, _reduce, _rref_int, _rref_raw, _span_int, annihilator
from verolab.linalg import contained_in, full_subspace, span, span_raw, subspace_join, zero_subspace
from verolab.monomials import _parent_steps, _shift_table, enumerate_exponents, num_monomials
from verolab.polyalgebra import HomogPoly, linear_form_power, poly_mul, power_intersection_check
from verolab.polyalgebra import power_subspace, product_space, sym_power

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
    return Subspace(Q, ambient, _int_rows(reduced[: len(pivots)])[0], pivots)


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


def ref_poly_product(a, da, b, db, n):
    """The coefficients of the product of two forms, term by term."""
    out = {}
    for alpha, x in zip(enumerate_exponents(n, da), a):
        for beta, y in zip(enumerate_exponents(n, db), b):
            k = tuple(u + v for u, v in zip(alpha, beta))
            out[k] = out.get(k, ZERO) + x * y
    return [out.get(g, ZERO) for g in enumerate_exponents(n, da + db)]


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


def same_subspace(got, want):
    return (got == want and hash(got) == hash(want) and got.pivots == want.pivots
            and got.basis == want.basis and all_fractions(got.basis.raw))


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
@example([[Fraction(HUGE + 1, 3), Fraction(-2, HUGE), ONE],  # rank 2: the second row is 2/3 of the first
          [Fraction(2 * HUGE + 2, 9), Fraction(-4, 3 * HUGE), Fraction(2, 3)],
          [ZERO, ONE, Fraction(HUGE, 7)]])
def test_rref_matches_fraction_elimination(rows):
    want_rows, want_pivots = ref_rref(rows)
    got_rows, got_pivots = _rref_raw(Q, [list(r) for r in rows])
    assert got_pivots == want_pivots
    assert got_rows == want_rows and all_fractions(got_rows)
    if rows:
        m = Matrix.from_raw_rows(Q, rows)
        assert rank(m) == len(want_pivots)
        reduced, rk = rref(m)
        assert rk == len(want_pivots) and reduced == Matrix.from_raw_rows(Q, want_rows)
        assert [list(r) for r in reduced.raw] == want_rows and all_fractions(reduced.raw)
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
    assert same_subspace(subspace_intersect(a, b), ref_intersect(a_rows, b_rows, m))


PAIR_KINDS = ("random", "zero", "nested", "equal", "disjoint")


def draw_raw(rng, f):
    if f.is_finite:
        return rng.randrange(f.q)
    sign = rng.choice([1, -1])
    return rng.choice([
        ZERO,
        Fraction(rng.randint(-4, 4)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(sign * rng.randint(HUGE, 10 ** 40), rng.randint(1, 10 ** 40)),
    ])


def draw_nonzero(rng, f):
    while True:
        x = draw_raw(rng, f)
        if x != f.zero_raw:
            return x


def pair_rows(rng, f, m, kind):
    """Raw generating rows (a, b) of a pair of subspaces of K^m of the
    given kind.  nested: b's rows are combinations of a's; equal: b's rows
    are a's times an invertible bidiagonal matrix; disjoint: a on the
    first h coordinates and b on the rest, both moved by one invertible
    map; zero: b has no rows or only zero rows."""
    def rows(count, lo=0, hi=m):
        return [[draw_raw(rng, f) if lo <= j < hi else f.zero_raw for j in range(m)] for _ in range(count)]

    def comb(c, x, y):  # c x + y
        return [f.fma(v, c, u) for u, v in zip(x, y)]

    if kind == "disjoint":
        h = rng.randint(0, m)
        a, b = rows(rng.randint(0, h), 0, h), rows(rng.randint(0, m - h), h, m)
        ts = [draw_raw(rng, f) for _ in range(m)]
        mix = lambda r: [r[0]] + [f.fma(r[j], ts[j], r[j - 1]) for j in range(1, m)]  # unit lower bidiagonal
        return [mix(r) for r in a], [mix(r) for r in b]
    a = rows(rng.randint(1, m + 1))
    if kind == "random":
        return a, rows(rng.randint(0, m + 1))
    if kind == "zero":
        return a, [[f.zero_raw] * m for _ in range(rng.randint(0, 2))]
    if kind == "nested":
        return a, [comb(draw_raw(rng, f), rng.choice(a), rng.choice(a)) for _ in range(rng.randint(1, len(a)))]
    c = draw_nonzero(rng, f)
    zero_row = [f.zero_raw] * m
    return a, [comb(c, x, y) for x, y in zip(a, a[1:] + [zero_row])]


def two_step_intersect(a, b):
    """The reference meet: the Zassenhaus right halves spanned by a second
    elimination."""
    f, m = a.field, a.ambient_dim
    if a.is_zero() or b.is_zero():
        return zero_subspace(f, m)
    if a.dim < b.dim:
        a, b = b, a
    rows = [_reduce(f, a.basis.raw, a.pivots, list(r)) + list(r) for r in b.basis.raw]
    rows, piv = _rref_raw(f, rows)
    return span_raw([row[m:] for row, p in zip(rows, piv) if p >= m], m, f)


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_intersection_of_kinds_matches_fraction_elimination(kind):
    rng = random.Random(f"q-meet:{kind}")
    for _ in range(60):
        m = rng.randint(1, 6)
        a_rows, b_rows = pair_rows(rng, Q, m, kind)
        a, b = span_raw([list(r) for r in a_rows], m, Q), span_raw([list(r) for r in b_rows], m, Q)
        want = ref_intersect(a_rows, b_rows, m)
        assert same_subspace(subspace_intersect(a, b), want), (m, a.dim, b.dim)
        assert same_subspace(subspace_intersect(b, a), want), (m, b.dim, a.dim)
        if kind in ("zero", "disjoint"):
            assert want.is_zero()
        elif kind == "nested":
            assert want == b
        elif kind == "equal":
            assert want == a


@pytest.mark.parametrize("name", ["F2", "F3", "F4", "F64", "F257"])
@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_one_elimination_meet_matches_two_over_gf_q(name, kind):
    f = parse_field(name)
    rng = random.Random(f"gf-meet:{name}:{kind}")
    for _ in range(40):
        m = rng.randint(1, 7)
        a_rows, b_rows = pair_rows(rng, f, m, kind)
        a, b = span_raw(a_rows, m, f), span_raw(b_rows, m, f)
        for x, y in ((a, b), (b, a)):
            got, want = subspace_intersect(x, y), two_step_intersect(x, y)
            assert got == want and got.pivots == want.pivots, (m, x.dim, y.dim)


# ----------------------------------------------------------------------
# Sym^d, products, powers, apply
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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 2), st.integers(1, 2)).flatmap(lambda s: st.tuples(
        st.just(s), q_rows(ncols=num_monomials(s[0], s[1]), max_rows=3),
        q_rows(ncols=num_monomials(s[0], s[2]), max_rows=3)))))
@example(((2, 1, 1), [[Fraction(HUGE + 1, 3), Fraction(-2, HUGE)]], [[ONE, Fraction(HUGE, 7)], [ZERO, ZERO]]))
@example(((2, 0, 1), [], [[ONE, ONE]]))
def test_product_space_matches_fraction_products(args):
    (n, i, j), p_rows, q_rows_ = args
    p = span_raw([list(r) for r in p_rows], num_monomials(n, i), Q)
    q = span_raw([list(r) for r in q_rows_], num_monomials(n, j), Q)
    products = []
    for a in p.basis.raw:
        for b in q.basis.raw:
            want = ref_poly_product(a, i, b, j, n)
            assert list(poly_mul(HomogPoly.from_raw(Q, n, i, a), HomogPoly.from_raw(Q, n, j, b)).raw) == want
            products.append(want)
    assert same_subspace(product_space(p, i, q, j, n), ref_subspace(products, num_monomials(n, i + j)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: q_rows(ncols=n, max_rows=3)), st.integers(1, 3))
@example([[Fraction(-HUGE - 3, HUGE + 1), Fraction(1, HUGE)], [Fraction(2, 3), ZERO]], 3)
@example([], 2)
@example([[ZERO, ZERO]], 2)
def test_power_subspace_matches_fraction_sym_power(rows, d):
    ncols = len(rows[0]) if rows else 2
    t = span_raw([list(r) for r in rows], ncols, Q)
    power_subspace.cache_clear()
    got = power_subspace(t, d)
    assert same_subspace(got, ref_subspace(ref_sym_power(t.basis.raw, d), num_monomials(ncols, d)))


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


# ----------------------------------------------------------------------
# the integer rows a Q matrix keeps
# ----------------------------------------------------------------------

def canonical_row(row):
    """A Fraction row as (integer row, denominator): the lcm of its
    denominators (1 for a zero row) and the row times it."""
    den = math.lcm(*[x.denominator for x in row])
    return tuple(x.numerator * (den // x.denominator) for x in row), den


def from_ints(rows, cols, extra):
    """The Q matrix of Fraction rows built from integer rows: row i and its
    canonical denominator both times extra[i], a factor to divide out."""
    scaled = [([x * k for x in r], den * k) for (r, den), k in zip(map(canonical_row, rows), extra)]
    return _q_matrix(Q, [r for r, _ in scaled], [den for _, den in scaled], cols)


def eager(rows, cols):
    return Matrix(Q, tuple(map(tuple, rows)), cols)


def fraction_matrices(shape):
    return st.lists(st.lists(values, min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0])


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)).flatmap(lambda s: st.tuples(
    fraction_matrices(s[:2]), fraction_matrices(s[1:]), st.lists(st.integers(1, 12), min_size=4, max_size=4),
    st.just(s))))
@example(([[Fraction(1, 2), Fraction(-HUGE, 3)], [ZERO, ZERO]], [[Fraction(2)], [Fraction(3, HUGE)]], [6, 1, 4, 2],
          (2, 2, 1)))
def test_qmatrix_matches_fraction_references(args):
    a_rows, b_rows, extra, (r, k, c) = args
    a, b = from_ints(a_rows, k, extra), from_ints(b_rows, c, extra)
    # one form per matrix, whether built from integer rows or from Fractions
    want = [canonical_row(row) for row in a_rows]
    assert a.ints == tuple(w for w, _ in want) and a.dens == tuple(den for _, den in want)
    e = eager(a_rows, k)
    assert (e.ints, e.dens) == (a.ints, a.dens) and a == e and hash(a) == hash(e)
    assert a.raw == e.raw and all_fractions(a.raw)
    if r and k:
        changed = [list(row) for row in a_rows]
        changed[-1][-1] += Fraction(1, 3)
        assert a != eager(changed, k) and eager(changed, k) != a
    # the product, the transpose and the rank against the Fraction loops
    got, want = a * b, ref_product(a_rows, b_rows, c)
    assert (got.rows, got.cols) == (r, c) and got == want and hash(got) == hash(want)
    assert got.raw == want.raw and all_fractions(got.raw)
    t, want = a.transpose(), eager(list(zip(*a_rows)) if r else [()] * k, r)
    assert (t.rows, t.cols) == (k, r) and t == want and hash(t) == hash(want)
    assert t.raw == want.raw and all_fractions(t.raw)
    assert rank(a) == len(ref_rref(a_rows)[1])
    # a subspace's basis is the Fraction RREF of its rows
    reduced, pivots = ref_rref(a_rows)
    basis = span_raw([list(row) for row in a_rows], k, Q).basis
    assert basis == eager(reduced[:len(pivots)], k) and hash(basis) == hash(eager(reduced[:len(pivots)], k))
    assert basis.raw == tuple(map(tuple, reduced[:len(pivots)])) and all_fractions(basis.raw)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(fraction_matrices((n, n)), fraction_matrices((n, n)))),
       st.integers(0, 3), st.lists(st.integers(1, 12), min_size=3, max_size=3))
@example(([[Fraction(HUGE + 1, 3), Fraction(-2, HUGE)], [ZERO, ZERO]], [[Fraction(2, 7), ONE], [ONE, ZERO]]),
         2, [5, 3, 1])
def test_rho_d_over_q_matches_fraction_sym_power(pair, d, extra):
    a_rows, b_rows = pair
    n = len(a_rows)
    want = ref_sym_power(a_rows, d)
    for t in (eager(a_rows, n), from_ints(a_rows, n, extra)):
        got = rho_d(t, d)
        assert got == eager(want, len(want[0])) and hash(got) == hash(eager(want, len(want[0])))
        assert [list(row) for row in got.raw] == want and all_fractions(got.raw)
    a, b = from_ints(a_rows, n, extra), eager(b_rows, n)
    assert rho_d(a * b, d) == rho_d(a, d) * rho_d(b, d)


def test_values_past_the_rank_are_fractions():
    rows = [[Fraction(1, 2), Fraction(HUGE, 7)], [ONE, Fraction(2 * HUGE, 7)], [ZERO, ZERO]]
    got, rk = rref(Matrix.from_raw_rows(Q, rows))
    assert rk == 1
    assert got.raw == ((ONE, Fraction(2 * HUGE, 7)), (ZERO, ZERO), (ZERO, ZERO)) and all_fractions(got.raw)
    got, pivots = _rref_raw(Q, rows)
    assert pivots == [0]
    assert got == [[ONE, Fraction(2 * HUGE, 7)], [ZERO, ZERO], [ZERO, ZERO]] and all_fractions(got)


# ----------------------------------------------------------------------
# the integer rows a Q subspace keeps
# ----------------------------------------------------------------------

def ref_annihilator(rows, m):
    """The Fraction annihilator of the span of rows: e_c minus the RREF
    rows' entries at c, at their pivots, for each non-pivot column c."""
    basis, pivots = ref_rref(rows)
    gens = []
    for c in range(m):
        if c not in pivots:
            vec = [ZERO] * m
            vec[c] = ONE
            for row, p in zip(basis, pivots):
                vec[p] = -row[c]
            gens.append(vec)
    return ref_subspace(gens, m)


def small_rows(rng, m, count):
    return [[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(m)] for _ in range(count)]


def built_every_way(rng, m):
    """One span of random rows, built by each route that makes a Q
    subspace, with the Fraction reference last; every one is equal."""
    rows = small_rows(rng, m, rng.randint(0, m + 1))
    scales = [rng.choice([-2, 1, 3]) for _ in rows]
    ints = [[k * x for x in primitive(r)] if any(r) else [0] * m for r, k in zip(rows, scales)]
    want = ref_subspace(rows, m)
    return [
        span([tuple(Scalar(Q, x) for x in r) for r in rows], m, Q),
        _span_int(ints, m, Q),
        subspace_intersect(span_raw([list(r) for r in rows], m, Q), full_subspace(Q, m)),
        annihilator(annihilator(span_raw([list(r) for r in rows], m, Q))),
        want,
    ]


def test_equality_and_hash_match_fraction_bases():
    rng = random.Random("q-eq")
    pool = [zero_subspace(Q, 2), full_subspace(Q, 2), full_subspace(Q, 3),
            _span_int([[-2, 1]], 2, Q), span_raw([[Fraction(-2), ONE]], 2, Q), ref_subspace([[Fraction(-2), ONE]], 2),
            _span_int([[2, 1]], 2, Q), _span_int([[0, -3, 6]], 3, Q)]
    for _ in range(40):
        m = rng.randint(1, 3)
        same = built_every_way(rng, m)
        for s in same:
            assert s == same[-1] and hash(s) == hash(same[-1]) and s.basis == same[-1].basis
        pool += same
    f2 = parse_field("F2")
    assert full_subspace(f2, 2) != full_subspace(Q, 2) and full_subspace(Q, 2) != full_subspace(f2, 2)
    rng.shuffle(pool)
    for x in pool:
        for y in pool:
            assert (x == y) == (x.ambient_dim == y.ambient_dim and x.basis == y.basis)
            if x == y:
                assert hash(x) == hash(y)


def test_negative_pivot_is_normalised():
    s = _span_int([[-2, 1]], 2, Q)
    assert s.ints == ((2, -1),) and s.pivots == (0,)
    assert s == span_raw([[Fraction(-2), ONE]], 2, Q) == ref_subspace([[Fraction(-2), ONE]], 2)
    assert s.basis.raw == ((ONE, Fraction(-1, 2)),) and all_fractions(s.basis.raw)
    meet = subspace_intersect(span_raw([[ONE, ZERO, ZERO], [ZERO, ONE, Fraction(1, 2)]], 3, Q),
                              span_raw([[Fraction(-4), Fraction(-2), Fraction(-1)], [ZERO, ZERO, ONE]], 3, Q))
    assert meet.ints == ((4, 2, 1),) and meet == ref_subspace([[Fraction(4), Fraction(2), ONE]], 3)
    for s in (_span_int([[-3, 5, 0], [0, -7, 2]], 3, Q), annihilator(_span_int([[1, 1, -4]], 3, Q))):
        assert all(row[p] > 0 for row, p in zip(s.ints, s.pivots))


@settings(max_examples=200, deadline=None)
@given(q_rows())
def test_lazy_basis_is_the_eager_division(rows):
    work = [primitive(r) if any(r) else [0] * len(r) for r in rows]
    m = len(rows[0]) if rows else 1
    s = _span_int([list(r) for r in work], m, Q)
    pivots = _rref_int(work)
    want = Matrix.from_raw_rows(Q, [[Fraction(x, row[p]) for x in row] for row, p in zip(work, pivots)], m)
    assert s.basis == want and all_fractions(s.basis.raw)
    assert s.basis == ref_subspace(rows, m).basis and s.dim == len(pivots)


def members_and_vectors(rng, m):
    """Subspaces of Q^m, zero and full among them, and for each member
    whose annihilator has two rows or more, the kernel of its first one:
    a subspace through the member that it does not contain."""
    members = [zero_subspace(Q, m), full_subspace(Q, m)]
    members += [span_raw(small_rows(rng, m, rng.randint(1, m)), m, Q) for _ in range(4)]
    us = list(members) + [span_raw(small_rows(rng, m, rng.randint(0, m)), m, Q) for _ in range(4)]
    for d in members:
        ann = annihilator(d)
        if ann.dim >= 2:
            us.append(annihilator(span_raw([list(ann.basis.raw[0])], m, Q)))
    return members, us


def test_q_annihilator_matches_fraction():
    rng = random.Random("q-ann")
    for _ in range(40):
        m = rng.randint(1, 5)
        members, _ = members_and_vectors(rng, m)
        for d in members:
            want = ref_annihilator(d.basis.raw, m)
            assert same_subspace(annihilator(d), want), (m, d.dim)
            assert annihilator(d).dim == m - d.dim


def test_q_containment_matches_fraction_dots():
    rng = random.Random("q-in")
    for _ in range(30):
        m = rng.randint(1, 5)
        members, us = members_and_vectors(rng, m)
        anns = [annihilator(d) for d in members]
        for u in us:
            want = [all(ref_dot(r, y) == ZERO for r in a.basis.raw for y in u.basis.raw) for a in anns]
            assert contained_in(anns, u) == want
            assert want == [subspace_join((u, d), m, Q) == d for d in members]


def fraction_powers_span(forms, n, d):
    """T1_3's former route: the Fraction d-th power of each form's RREF row."""
    powers = [linear_form_power(HomogPoly.from_raw(Q, n, 1, s.basis.raw[0]), d) for s in forms]
    return span_raw([list(p.raw) for p in powers], num_monomials(n, d), Q)


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_t1_3_join_matches_fraction_powers(n, d):
    rng = random.Random(f"t1_3:{n}:{d}")
    for count in (d + 1, d + 1, d + 2):
        forms = set()
        while len(forms) < count:
            s = span([tuple(Scalar(Q, Fraction(rng.randint(-5, 5))) for _ in range(n))], n, Q)
            if not s.is_zero():
                forms.add(s)
        power_subspace.cache_clear()
        got = subspace_join([power_subspace(s, d) for s in forms], num_monomials(n, d), Q)
        want = fraction_powers_span(forms, n, d)
        assert same_subspace(got, want)
        if count == d + 1 or n == 2:  # T1_3; and d + 2 powers in A_d of dimension d + 1 are dependent
            assert got.dim == d + 1


def test_t1_3_dependent_draw():
    # n = 2: dim A_d = d + 1, so d + 2 powers are dependent; four forms whose squares span A_2 only
    forms = [span_raw([[Fraction(a), Fraction(b)]], 2, Q) for a, b in ((1, 0), (0, 1), (1, 1), (1, -1))]
    got = subspace_join([power_subspace(s, 2) for s in forms], 3, Q)
    assert same_subspace(got, fraction_powers_span(forms, 2, 2)) and got.dim == 3


def test_power_intersection_check_forms_no_fraction_basis(monkeypatch):
    calls = []
    fill = linalg._QMatrix.__getattr__

    def counted(m, name):
        if name == "raw":
            calls.append(m.rows)
        return fill(m, name)

    monkeypatch.setattr(linalg._QMatrix, "__getattr__", counted)
    rng = random.Random("q-guard")
    for n, d in ((3, 2), (4, 2), (3, 3)):
        for _ in range(5):
            common = small_rows(rng, n, 1)
            b = span_raw(small_rows(rng, n, rng.randint(1, n - 1)) + common, n, Q)
            c = span_raw(small_rows(rng, n, rng.randint(1, n - 1)) + common, n, Q)
            power_subspace.cache_clear()
            assert power_intersection_check(b, c, d)
    assert calls == []
    assert len(_span_int([[1, 2]], 2, Q).basis.raw) == 1 and calls == [1]  # the counter sees a basis formed
