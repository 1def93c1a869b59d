"""Matrices, canonical subspaces, and the subspace calculus."""

from __future__ import annotations

import itertools
import random
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from verolab import (
    AmbientMismatch,
    BudgetExceeded,
    LengthMismatch,
    Matrix,
    annihilator,
    contains,
    enumerate_vectors,
    format_family,
    format_subspace,
    full_subspace,
    parse_family_text,
    parse_subspace,
    parse_field,
    projective_points,
    rationals,
    rref,
    span,
    subspace_intersect,
    subspace_le,
    subspace_sum,
    veronese_subspace,
    zero_subspace,
)
from verolab.field import Scalar, scalar_from_str
from verolab.linalg import _dots, _echelon_extend, _rref_raw, check_budget, over_budget, span_raw
from verolab.linalg import Subspace, combine_basis, meet_walk, stack_meet, subspace_join
from verolab.monomials import num_monomials
from verolab.polyalgebra import HomogPoly, power_subspace, product_space, sym_matrix
from verolab.veronese import random_invertible_matrix, rho_d, veronese_point


def vec(f, *coords):
    return tuple(scalar_from_str(f, str(c)) for c in coords)


F2 = parse_field("F2")
F3 = parse_field("F3")
Q = rationals()


def test_rref_identity():
    m = Matrix.identity(F2, 3)
    out, rk = rref(m)
    assert out == m and rk == 3


def test_rref_rank_one_over_q():
    m = Matrix.from_rows(Q, [vec(Q, 1, 2), vec(Q, 2, 4)])
    out, rk = rref(m)
    assert rk == 1
    assert [s.v for s in out.row(0)] == [1, 2]
    assert all(s.v == 0 for s in out.row(1))


def test_rref_swap_over_gf3():
    m = Matrix.from_rows(F3, [vec(F3, 0, 1), vec(F3, 1, 0)])
    out, rk = rref(m)
    assert rk == 2 and out == Matrix.identity(F3, 2)


def test_span_collapses_multiples():
    s = span([vec(F3, 1, 1), vec(F3, 2, 2)], 2, F3)
    assert s.dim == 1
    assert [x.v for x in s.basis.row(0)] == [1, 1]


def test_span_empty_and_lengths():
    assert span([], 4, F2).dim == 0
    with pytest.raises(LengthMismatch):
        span([vec(F2, 1, 0, 0)], 2, F2)


def test_sum_examples():
    e1 = span([vec(F2, 1, 0, 0)], 3, F2)
    e2 = span([vec(F2, 0, 1, 0)], 3, F2)
    assert subspace_sum(e1, e2).dim == 2
    assert subspace_sum(e1, e1) == e1
    a = span([vec(F2, 1, 1)], 2, F2)
    b = span([vec(F2, 0, 1)], 2, F2)
    assert subspace_sum(a, b) == full_subspace(F2, 2)
    with pytest.raises(AmbientMismatch):
        subspace_sum(e1, a)


def test_intersect_examples():
    a = span([vec(F2, 1, 0, 0), vec(F2, 0, 1, 0)], 3, F2)
    b = span([vec(F2, 0, 1, 0), vec(F2, 0, 0, 1)], 3, F2)
    got = subspace_intersect(a, b)
    assert got == span([vec(F2, 0, 1, 0)], 3, F2)
    assert subspace_intersect(a, zero_subspace(F2, 3)).dim == 0


def test_intersect_against_enumeration_oracle():
    # brute force: intersect by enumerating every vector of both spaces
    rng = random.Random(5)
    for ambient, q in ((3, 2), (4, 2), (3, 3), (4, 3)):
        f = parse_field(f"F{q}")
        for _ in range(25):
            rows_a = [tuple(Scalar(f, rng.randrange(q)) for _ in range(ambient)) for _ in range(2)]
            rows_b = [tuple(Scalar(f, rng.randrange(q)) for _ in range(ambient)) for _ in range(2)]
            a, b = span(rows_a, ambient, f), span(rows_b, ambient, f)
            got = subspace_intersect(a, b)
            common = set(enumerate_vectors(a)) & set(enumerate_vectors(b))
            oracle = span(sorted(common, key=lambda v: [s.v for s in v]), ambient, f)
            assert got == oracle
            assert a.dim + b.dim == subspace_sum(a, b).dim + got.dim


def _random_rows(rng, f, count, m):
    if f.is_finite:
        return [tuple(Scalar(f, rng.randrange(f.q)) for _ in range(m)) for _ in range(count)]
    return [tuple(Scalar(f, Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(m))
            for _ in range(count)]


def _intersection_pairs(rng, f, m):
    """Zero, full, equal, nested and random pairs of subspaces of K^m."""
    def draw(dim):
        return span(_random_rows(rng, f, dim, m), m, f)

    big = draw(rng.randint(1, m))
    # random combinations of big's basis span a subspace of it
    combos = [[x.v for x in row] for row in _random_rows(rng, f, rng.randint(0, big.dim), big.dim)]
    inner = span(combine_basis(big, combos), m, f)
    pairs = [(zero_subspace(f, m), draw(rng.randint(0, m))), (full_subspace(f, m), draw(rng.randint(0, m))),
             (big, big), (inner, big)]
    pairs += [(draw(rng.randint(0, m)), draw(rng.randint(0, m))) for _ in range(4)]
    # dimensions that add past m, so the meet is nonzero
    pairs += [(draw(k), draw(m + 1 - k)) for k in (1, (m + 1) // 2, m)]
    return pairs


@pytest.mark.parametrize("name", ["F2", "F3", "F4", "F5", "F8", "F64", "F257", "Q"])
def test_intersection_matches_annihilator_reference(name):
    # the reference uses annihilator and subspace_join only: A cap B = ann(ann A + ann B)
    f = parse_field(name)
    rng = random.Random(f"intersect:{name}")
    for m in range(1, 10):
        for a, b in _intersection_pairs(rng, f, m):
            want = annihilator(subspace_join((annihilator(a), annihilator(b)), m, f))
            assert subspace_intersect(a, b) == want, (m, a.dim, b.dim)
            assert subspace_intersect(b, a) == want, (m, b.dim, a.dim)


def test_annihilator_examples():
    e1 = span([vec(F2, 1, 0, 0)], 3, F2)
    ann = annihilator(e1)
    assert ann == span([vec(F2, 0, 1, 0), vec(F2, 0, 0, 1)], 3, F2)
    assert annihilator(zero_subspace(F3, 4)) == full_subspace(F3, 4)


def test_annihilator_is_involution_on_random_subspaces():
    rng = random.Random(11)
    for _ in range(40):
        rows = [tuple(Scalar(F2, rng.randrange(2)) for _ in range(6)) for _ in range(rng.randint(0, 5))]
        a = span(rows, 6, F2)
        assert annihilator(annihilator(a)) == a
        assert annihilator(a).dim == 6 - a.dim


def test_annihilator_reverses_inclusion():
    a = span([vec(F3, 1, 0, 0)], 3, F3)
    b = span([vec(F3, 1, 0, 0), vec(F3, 0, 1, 0)], 3, F3)
    # a <= b, so every functional killing b also kills a
    for r in annihilator(b).basis.row_list():
        assert contains(annihilator(a), r)
    assert annihilator(b).dim < annihilator(a).dim


def test_contains_examples():
    a = span([vec(F2, 1, 0, 0), vec(F2, 0, 1, 0)], 3, F2)
    assert contains(a, vec(F2, 1, 1, 0))
    assert not contains(span([vec(F2, 1, 0)], 2, F2), vec(F2, 0, 1))
    assert contains(a, vec(F2, 0, 0, 0))
    with pytest.raises(LengthMismatch):
        contains(a, vec(F2, 1, 0))


def _first_nonzero_columns(s):
    return tuple(next(c for c, x in enumerate(row) if x != s.field.zero_raw) for row in s.basis.raw)


def _subspaces_with_pivots(rng, f, m):
    """Subspaces of K^m (and K^N(m, 2)) from every constructor that builds one."""
    def draw(dim):
        return span(_random_rows(rng, f, dim, m), m, f)

    a, b = draw(rng.randint(0, m)), draw(rng.randint(0, m))
    anns = [annihilator(draw(rng.randint(1, m))) for _ in range(3)]
    stacks = [list(stack) for _, _, stack in meet_walk(anns, 3)]
    t = draw(rng.randint(0, min(m, 2)))
    return [
        a, b, zero_subspace(f, m), full_subspace(f, m),
        span_raw([[x.v for x in r] for r in _random_rows(rng, f, rng.randint(0, m + 1), m)], m, f),
        subspace_intersect(a, b), subspace_join((a, b), m, f), annihilator(a),
        *(stack_meet(st, m, f) for st in stacks),
        power_subspace(t, 2), veronese_subspace(t, 2),
    ]


@pytest.mark.parametrize("name", ["F2", "F3", "F4", "F64", "F257", "Q"])
def test_stored_pivots_are_the_first_nonzero_columns(name):
    f = parse_field(name)
    rng = random.Random(f"pivots:{name}")
    for m in range(1, 6):
        for _ in range(4):
            for s in _subspaces_with_pivots(rng, f, m):
                assert s.pivots == _first_nonzero_columns(s), (m, s)


@pytest.mark.parametrize("name,m", [("F2", 4), ("F3", 3), ("F4", 3)])
def test_contains_and_subspace_le_match_brute_force_membership(name, m):
    f = parse_field(name)
    rng = random.Random(f"membership:{name}")
    everything = enumerate_vectors(full_subspace(f, m))
    spaces = [span(_random_rows(rng, f, rng.randint(0, m), m), m, f) for _ in range(12)]
    spaces += [zero_subspace(f, m), full_subspace(f, m)]
    members = {s: set(enumerate_vectors(s)) for s in spaces}
    for s in spaces:
        assert [contains(s, v) for v in everything] == [v in members[s] for v in everything]
        for t in spaces:
            assert subspace_le(s, t) == (members[s] <= members[t])


def test_enumerate_vectors():
    s = span([vec(F3, 1, 1)], 2, F3)
    got = {tuple(x.v for x in v) for v in enumerate_vectors(s)}
    assert got == {(0, 0), (1, 1), (2, 2)}
    assert enumerate_vectors(zero_subspace(F3, 2)) == [vec(F3, 0, 0)]
    assert len(enumerate_vectors(full_subspace(F2, 2))) == 4
    with pytest.raises(BudgetExceeded):
        enumerate_vectors(full_subspace(F3, 20))  # 3^20 vectors


@pytest.mark.parametrize("name", ["F2", "F3", "F4", "F9"])
def test_vector_enumeration_combines_the_basis_in_order(name):
    f = parse_field(name)
    rng = random.Random(name)
    for dim in range(4):
        a = span([tuple(Scalar(f, rng.randrange(f.q)) for _ in range(4)) for _ in range(dim)], 4, f)
        basis = a.basis.row_list()
        want = [tuple(sum((Scalar(f, c) * b[j] for c, b in zip(combo, basis)), f.zero()) for j in range(4))
                for combo in itertools.product(range(f.q), repeat=a.dim)]
        assert enumerate_vectors(a) == want


def test_budget_gate_rejects_past_allowed_and_keeps_the_counts():
    assert check_budget("subsets", 10, 10) is None
    with pytest.raises(BudgetExceeded, match=r"^11 subsets exceed budget 10$") as exc:
        check_budget("subsets", 11, 10)
    assert (exc.value.quantity, exc.value.needed, exc.value.allowed) == ("subsets", 11, 10)
    assert check_budget("vectors", 3, 3 * 2 ** 10, 2, 10) is None
    with pytest.raises(BudgetExceeded, match=r"^3072 vectors exceed budget 3071$"):
        check_budget("vectors", 3, 3 * 2 ** 10 - 1, 2, 10)


def test_budget_gate_reports_an_unformed_power():
    # 2^10 > 1023, and 10 is the bit length of 1023, so the exponent alone decides
    with pytest.raises(BudgetExceeded) as exc:
        check_budget("vectors", 1, 1023, 2, 10)
    assert (exc.value.needed, str(exc.value)) == ("2^10", "2^10 vectors exceed budget 1023")
    with pytest.raises(BudgetExceeded, match=r"^5 x 3\^40 entries exceed budget 1000000$"):
        check_budget("entries", 5, 10 ** 6, 3, 40)


def test_budget_gate_reports_a_count_past_the_conversion_limit_as_text():
    # 10^5000 has more digits than int-to-str conversion allows; the message gives 2^k <= it
    with pytest.raises(BudgetExceeded) as exc:
        check_budget("entries", 10 ** 5000, 10 ** 6)
    assert exc.value.needed == 10 ** 5000
    assert str(exc.value) == f"2^{(10 ** 5000).bit_length() - 1} or more entries exceed budget 1000000"


def test_budget_comparison_matches_the_formed_product():
    for count, allowed, base, exponent in itertools.product(range(1, 4), range(0, 130), range(0, 6), range(0, 9)):
        needed, got = count * base ** exponent, over_budget(count, allowed, base, exponent)
        assert (got is not None) == (needed > allowed)
        assert got in (None, needed) or exponent >= allowed.bit_length()  # text only when not formed


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))


def test_budget_gate_decides_a_huge_power_at_once():
    # 2^(10^12) has 125 GB of digits; run capped, so a gate that forms it fails fast and alone
    code = "from verolab.linalg import check_budget; check_budget('vectors', 1, 10 ** 6, 2, 10 ** 12)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10,
                         preexec_fn=_cap_address_space)
    assert out.stderr.rstrip().endswith("BudgetExceeded: 2^1000000000000 vectors exceed budget 1000000")


def test_projective_points_counts_and_normalization():
    pts = projective_points(F3, 3)
    assert len(pts) == 13
    for p in pts:
        first = next(s for s in p if s.v != 0)
        assert first.v == 1
    assert len(set(pts)) == 13


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_span_canonicity_under_shuffle_and_rescale(rnd):
    # the canonical basis must not depend on generator order or scaling
    f = F3
    rows = [tuple(Scalar(f, rnd.randrange(3)) for _ in range(4)) for _ in range(3)]
    s1 = span(rows, 4, f)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    rescaled = []
    for r in shuffled:
        c = Scalar(f, rnd.randrange(1, 3))
        rescaled.append(tuple(c * x for x in r))
    assert span(rescaled, 4, f) == s1


def test_subspace_fixture_round_trip():
    s = span([vec(F3, 1, 2, 0), vec(F3, 0, 0, 1)], 3, F3)
    assert parse_subspace(format_subspace(s)) == s
    t = span([vec(Q, "1/2", "2/3"), vec(Q, 1, 0)], 2, Q)
    assert parse_subspace(format_subspace(t)) == t


def test_family_fixture_round_trip():
    fam = [
        span([vec(F2, 1, 0, 0, 1)], 4, F2),
        span([vec(F2, 0, 1, 1, 0), vec(F2, 0, 0, 1, 1)], 4, F2),
    ]
    back = parse_family_text(format_family(fam))
    assert back == fam


# ----------------------------------------------------------------------
# the Scalar boundary: boxed and raw constructors build the same objects
# ----------------------------------------------------------------------

BOUNDARY_FIELDS = [parse_field(name) for name in ("F2", "F4", "F9", "F64", "F257", "Q")]


def _raw_stored(f, values):
    """Every value is a raw field value: an int index or a Fraction."""
    return all(type(v) is (int if f.is_finite else Fraction) for v in values)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(BOUNDARY_FIELDS), st.integers(1, 4), st.integers(1, 5), st.integers(1, 3),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_boxed_and_raw_constructors_agree(f, nrows, ncols, n, d, rnd):
    def draw():
        if f.is_finite:
            return rnd.randrange(f.q)
        return Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))

    raw = [[draw() for _ in range(ncols)] for _ in range(nrows)]
    boxed = [tuple(Scalar(f, v) for v in r) for r in raw]
    a, b = Matrix.from_rows(f, boxed), Matrix.from_raw_rows(f, raw)
    assert a == b and hash(a) == hash(b)
    assert a.row_list() == boxed and Matrix.from_rows(f, a.row_list()) == a
    s = span(boxed, ncols, f)
    assert s == span_raw([list(r) for r in raw], ncols, f)
    coeffs = [draw() for _ in range(num_monomials(n, d))]
    p = HomogPoly(f, n, d, tuple(Scalar(f, v) for v in coeffs))
    p_raw = HomogPoly.from_raw(f, n, d, coeffs)
    assert p == p_raw and hash(p) == hash(p_raw)
    assert p.coeffs == tuple(Scalar(f, v) for v in coeffs)
    for m in (a, b, a.transpose(), a * a.transpose(), rref(a)[0], s.basis):
        assert all(_raw_stored(f, r) for r in m.raw)
    assert _raw_stored(f, p.raw) and _raw_stored(f, (p * p).raw)


def _routes_to(w):
    """w reached again by a span of Scalars (other generators), a join, a
    meet, and the constructor given its integer rows and pivots."""
    f, m = w.field, w.ambient_dim
    rows = w.basis.row_list()
    lines = [span([tuple(f.one() if j == i else f.zero() for j in range(m))], m, f) for i in range(m)]
    x, y = next((x, y) for x, y in itertools.combinations(lines, 2) if subspace_join((w, x, y), m, f).dim == w.dim + 2)
    return [
        span([tuple(a + b for a, b in zip(rows[0], rows[-1])), *rows[::-1]], m, f),
        subspace_join((span(rows[:1], m, f), span(rows[1:], m, f)), m, f),
        subspace_intersect(subspace_join((w, x), m, f), subspace_join((w, y), m, f)),  # (W + X) cap (W + Y) = W
        Subspace(f, m, w.ints, w.pivots),
    ]


@pytest.mark.parametrize("name", ["F2", "F4", "Q"])
def test_every_route_to_one_subspace_compares_and_hashes_equal(name):
    """Equality and hashing read the integer rows (ints) on every field, so
    a power subspace and a Veronese image each compare and hash equal
    however they are reached: by power_subspace or product_space, by
    veronese_subspace or a join of Veronese points, or by _routes_to.
    Every route builds the one Subspace class, over Q too."""
    f = parse_field(name)
    n, d = 3, 2
    big_n = num_monomials(n, d)
    a, b = vec(f, 1, 1, 0), vec(f, 0, 1, 1)
    gens = [a, b, tuple(x + y for x, y in zip(a, b))]  # three points of the line T
    t = span([a, b], n, f)
    power, image = power_subspace(t, d), veronese_subspace(t, d)
    assert power.dim == image.dim == 3 and power != image  # the same dimension, not the same coordinates
    for w, other in ((power, product_space(t, 1, t, 1, n)),
                     (image, subspace_join([veronese_point(g, d) for g in gens], big_n, f))):
        for s in (w, other, *_routes_to(w)):
            assert type(s) is Subspace and s == w and hash(s) == hash(w)
        assert len({w, other, *_routes_to(w)}) == 1


@pytest.mark.parametrize("name", ["F2", "F4", "Q"])
def test_every_route_to_one_matrix_builds_one_class(name):
    """One Matrix class on every field, whatever builds it: the identity,
    both constructors, a product, a transpose, rho_d, sym_matrix, a
    subspace's basis and a random invertible matrix.  The routes to one
    matrix compare and hash equal and read the same raw values, over Q
    Fractions whether the matrix was built from Fractions, from ints or
    from integer rows."""
    f = parse_field(name)
    n = 3
    one = Matrix.identity(f, n)
    t = random_invertible_matrix(random.Random(name), f, n)
    routes = {
        one: [Matrix.from_rows(f, one.row_list()), Matrix.from_raw_rows(f, one.raw), Matrix.from_raw_rows(f, one.ints),
              one * one, one.transpose(), rho_d(one, 1), sym_matrix(one, 1), full_subspace(f, n).basis,
              span_raw(t.raw_rows(), n, f).basis],
        t: [Matrix.from_rows(f, t.row_list()), Matrix.from_raw_rows(f, t.raw), t * one, one * t,
            t.transpose().transpose(), rho_d(t, 1), sym_matrix(t, 1)],
        rho_d(t, 2): [rho_d(t, 2) * rho_d(one, 2), Matrix.from_raw_rows(f, rho_d(t, 2).raw)],
    }
    for w, others in routes.items():
        for m in (w, *others):
            assert type(m) is Matrix and m == w and hash(m) == hash(w)
            assert m.raw == w.raw
            if not f.is_finite:
                assert all(type(x) is Fraction for r in m.raw for x in r)
        assert len({w, *others}) == 1
    bumped = t.raw_rows()
    bumped[-1][-1] = f.add(bumped[-1][-1], f.one_raw)
    assert Matrix.from_raw_rows(f, bumped) != t


@pytest.mark.parametrize("f", [F3, Q])
def test_ragged_rows_are_refused_by_both_constructors(f):
    rows = [[1, 2], [1]]
    with pytest.raises(LengthMismatch):
        Matrix.from_raw_rows(f, rows)
    with pytest.raises(LengthMismatch):
        Matrix.from_rows(f, [tuple(Scalar(f, x) for x in r) for r in rows])


def test_the_same_integer_rows_over_different_fields_compare_unequal():
    spaces = [span([vec(f, 1, 0, 1), vec(f, 0, 1, 1)], 3, f) for f in (F2, F3, Q)]
    assert len({s.ints for s in spaces}) == 1
    for a, b in itertools.combinations(spaces, 2):
        assert a != b


def _dense_dots(f, rows, cols):
    """The reference for _dots: every term of every dot product, zeros included."""
    out = []
    for r in rows:
        orow = []
        for c in cols:
            acc = f.zero_raw
            for x, y in zip(r, c):
                acc = f.add(acc, f.mul(x, y))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


@pytest.mark.parametrize("name", ["F2", "F3", "F4", "F64", "F243", "F257", "F65536", "Q"])
def test_dots_matches_a_dense_triple_loop(name):
    f = parse_field(name)
    rng = random.Random(name)
    zero = f.zero_raw

    def nonzero():
        if f.is_finite:
            return rng.randrange(1, f.q)
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 9))

    for _ in range(40):
        inner, nrows, ncols = rng.randint(1, 9), rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.1, 0.3, 0.6, 1.0))
        rows = [[nonzero() if rng.random() < density else zero for _ in range(inner)] for _ in range(nrows)]
        cols = [[nonzero() if rng.random() < density else zero for _ in range(inner)] for _ in range(ncols)]
        rows[rng.randrange(nrows)] = [zero] * inner
        cols[rng.randrange(ncols)] = [zero] * inner
        want = _dense_dots(f, rows, cols)
        assert _dots(f, rows, cols) == want
        # the product and the action on the same rows, through the integer rows over their denominators
        a = Matrix.from_raw_rows(f, rows)
        assert (a * Matrix.from_raw_rows(f, cols).transpose()).raw == want
        for j, c in enumerate(cols):
            assert tuple(s.v for s in a.apply(tuple(Scalar(f, x) for x in c))) == tuple(r[j] for r in want)


@pytest.mark.parametrize("name", ["F3", "F5", "F9", "F243", "Q"])
def test_echelon_extend_keeps_the_span_and_zeroes_dependent_rows(name):
    """Outside characteristic 2, where a - f*b and a + f*b differ: pushing
    rows one at a time keeps the rank and span of the whole elimination,
    and every row it rejects is reduced to zero, with a tag that records
    a dependency among the rows."""
    f = parse_field(name)
    rng = random.Random(name)
    draw = (lambda: rng.randrange(f.q)) if f.is_finite else (lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    for _ in range(30):
        width, k = rng.randint(2, 6), rng.randint(1, 4)
        gens = [[draw() for _ in range(width)] for _ in range(k)]
        rows = gens + [[draw() for _ in range(width)] for _ in range(rng.randint(0, 2))]
        for _ in range(3):  # rows dependent on the generators
            coeffs = [draw() for _ in gens]
            rows.append(_combine(f, coeffs, gens))
        basis, pivots = [], []
        for i, r in enumerate(rows):
            tag = [f.one_raw if j == i else f.zero_raw for j in range(len(rows))]
            vec = list(r) + tag
            if not _echelon_extend(f, basis, pivots, vec, width):
                assert all(x == f.zero_raw for x in vec[:width])
                combo = vec[width:]  # sum_j combo[j] rows[j] = 0
                assert _combine(f, combo, rows) == [f.zero_raw] * width
        assert len(basis) == len(_rref_raw(f, [list(r) for r in rows])[1])
        assert span_raw([b[:width] for b in basis], width, f) == span_raw([list(r) for r in rows], width, f)


def _combine(f, coeffs, rows):
    out = [f.zero_raw] * len(rows[0])
    for c, r in zip(coeffs, rows):
        out = [f.add(x, f.mul(c, y)) for x, y in zip(out, r)]
    return out
