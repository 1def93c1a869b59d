"""Geometric inputs, dual arcs, prime-power families, regularity, wedges."""

from __future__ import annotations

import itertools
import math
from unittest import mock

import pytest

from verolab import (
    BudgetExceeded,
    OddQForHyperoval,
    SubspaceFamily,
    WedgeSpace,
    conic,
    contains,
    derived_family,
    desarguesian_spread,
    dual_arc_ad,
    dual_arc_ik,
    dual_family,
    elliptic_ovoid,
    enumerate_ik,
    gda_profile,
    hyperoval,
    is_r_independent,
    is_regular,
    parse_field,
    parse_poly,
    projective_points,
    rational_normal_curve,
    span,
    subspace_intersect,
    subspace_le,
    subspace_sum,
    veronese_vector,
)
from verolab import harness
from verolab.constructions import _ik_count, partial_spread_products
from verolab.linalg import SUBSET_BUDGET, enumerate_vectors, span_raw
from verolab.monomials import num_monomials
from verolab.polyalgebra import HomogPoly, component_space, product_space

F2 = parse_field("F2")
F3 = parse_field("F3")
F4 = parse_field("F4")


def no_three_collinear(points, ambient, f):
    for trio in itertools.combinations(points, 3):
        rows = [p.basis.row(0) for p in trio]
        if span(rows, ambient, f).dim != 3:
            return False
    return True


def test_spread_q2_k2_covers_and_is_disjoint():
    fam = desarguesian_spread(F2, 2)
    assert len(fam) == 5 and all(m.dim == 2 for m in fam)
    assert is_r_independent(fam, 2)[0]
    seen = set()
    for m in fam:
        seen.update(tuple(s.v for s in v) for v in enumerate_vectors(m))
    assert len(seen) == 16  # all of K^4, zero included once


def test_spread_q3_k1_is_projective_line():
    fam = desarguesian_spread(F3, 1)
    assert len(fam) == 4 and all(m.dim == 1 for m in fam)
    assert is_r_independent(fam, 2)[0]


def test_spread_q4_uses_extension_tower():
    fam = desarguesian_spread(F4, 2)
    assert len(fam) == 17 and all(m.dim == 2 for m in fam)
    assert is_r_independent(fam, 2)[0]
    seen = set()
    for m in fam:
        seen.update(tuple(s.v for s in v) for v in enumerate_vectors(m))
    assert len(seen) == 4 ** 4


def test_conic_q3():
    pts = conic(F3)
    assert len(pts) == 4
    assert no_three_collinear(pts, 3, F3)


def test_hyperoval_q4_and_parity_guard():
    pts = hyperoval(F4)
    assert len(pts) == 6
    assert no_three_collinear(pts, 3, F4)
    with pytest.raises(OddQForHyperoval):
        hyperoval(F3)


@pytest.mark.parametrize("name,char", [("Q", 0), ("F9", 3)])
def test_hyperoval_guard_names_the_characteristic(name, char):
    with pytest.raises(OddQForHyperoval, match=rf"^hyperoval needs characteristic 2; {name} has characteristic {char}$"):
        hyperoval(parse_field(name))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_elliptic_ovoid(q):
    f = parse_field(f"F{q}")
    pts = elliptic_ovoid(f)
    assert len(pts) == q * q + 1
    assert no_three_collinear(pts, 4, f)


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (3, 3), (5, 3)])
def test_rnc_spans_when_q_at_least_d(q, d):
    f = parse_field(f"F{q}")
    pts = rational_normal_curve(f, d)
    assert len(pts) == q + 1
    total = pts[0]
    for p in pts[1:]:
        total = subspace_sum(total, p)
    assert total.dim == d + 1


@pytest.mark.parametrize("d", [0, -1])
def test_rnc_refuses_degree_below_one(d):
    from verolab import BadParams

    with pytest.raises(BadParams, match=rf"^rational_normal_curve needs d >= 1, got {d}$"):
        rational_normal_curve(F3, d)


def test_dual_arc_ad_profile_322():
    fam = dual_arc_ad(3, 2, F2)
    assert len(fam) == 7 and all(m.dim == 3 for m in fam)
    rep = gda_profile(fam, 3)
    assert rep.constant_profile() == [3, 1, 0]
    assert rep.level(2) == {1: 21} and rep.level(3) == {0: 35}


def test_gda_profile_census_totals():
    fam = dual_arc_ad(3, 2, F2)
    rep = gda_profile(fam, 4)
    for j in range(1, 5):
        assert sum(rep.level(j).values()) == math.comb(7, j)


def test_dual_arc_ad_dims_332():
    fam = dual_arc_ad(3, 3, F2)
    rep = gda_profile(fam, 4)
    assert rep.constant_profile() == [6, 3, 1, 0]
    assert fam.ambient_dim == 10


def test_dual_arc_intersections_are_product_spaces():
    from verolab.linalg import projective_points
    from verolab.polyalgebra import poly_mul

    fam = dual_arc_ad(3, 2, F3)
    pts = projective_points(F3, 3)
    for i, j in itertools.combinations(range(5), 2):
        inter = subspace_intersect(fam[i], fam[j])
        prod = poly_mul(HomogPoly.linear_form(pts[i]), HomogPoly.linear_form(pts[j]))
        assert inter == span([prod.coeffs], num_monomials(3, 2), F3)


def test_ik_degree_one_is_all_points():
    for q in (2, 3):
        f = parse_field(f"F{q}")
        assert len(enumerate_ik(2, 1, f)) == q + 1


def test_ik_n2_k2_q2_explicit():
    got = {frozenset((i, c.v) for i, c in enumerate(g.coeffs)) for g in enumerate_ik(2, 2, F2)}
    expected_polys = ["1*x1^2", "1*x2^2", "1*x1^2 + 1*x2^2", "1*x1^2 + 1*x1^1*x2^1 + 1*x2^2"]
    want = {
        frozenset((i, c.v) for i, c in enumerate(parse_poly(t, F2, 2, 2).coeffs))
        for t in expected_polys
    }
    assert got == want


def test_ik_against_brute_force_factorization():
    # oracle: a binary quadratic is a prime power iff it has at most one
    # distinct linear divisor (irreducible, or the square of one form).
    # A linear form divides g exactly when g vanishes at the form's one
    # projective zero t, and g(t) = g . veronese_vector(t, 2).
    f = F3
    points = projective_points(f, 2)
    got = set(enumerate_ik(2, 2, f))
    for cand in [HomogPoly(f, 2, 2, p) for p in projective_points(f, 3)]:
        values = [sum((c * v for c, v in zip(cand.coeffs, veronese_vector(t, 2))), f.zero()) for t in points]
        assert (cand in got) == (sum(not x for x in values) <= 1)


# ----------------------------------------------------------------------
# I_k against trial division
# ----------------------------------------------------------------------

def ref_multiples(h, deg):
    """<h A_(deg - h.d)>: the degree-deg multiples of h."""
    f, n = h.field, h.n
    dq = deg - h.d
    h_space = span_raw([list(h.raw)], num_monomials(n, h.d), f)
    return product_space(component_space(f, n, dq), dq, h_space, h.d, n)


def ref_enumerate_ik(n, k, f):
    """Trial division: a degree-j form is irreducible when no irreducible
    of lower degree divides it, and I_k holds the degree-k forms with
    exactly one irreducible divisor.  h divides g when g lies in the
    span of h's multiples, one elimination per pair."""
    def forms(j):
        return [HomogPoly(f, n, j, p) for p in projective_points(f, num_monomials(n, j))]

    irr = []
    for j in range(1, k + 1):
        spaces = [ref_multiples(h, j) for h in irr]
        irr.extend([g for g in forms(j) if not any(contains(s, g.coeffs) for s in spaces)])
    spaces = [ref_multiples(h, k) for h in irr]
    return [g for g in forms(k) if sum(contains(s, g.coeffs) for s in spaces) == 1]


# (q, n, k) with q^N(n, k) <= 20,000 where the reference takes under 0.5 s
IK_GRID = [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2),
           (3, 2, 3), (3, 2, 4), (3, 3, 1), (4, 2, 1), (4, 2, 2), (4, 2, 3), (4, 2, 4), (4, 3, 1),
           (5, 2, 1), (5, 2, 2), (5, 2, 3), (5, 3, 1)]


@pytest.mark.parametrize("q,n,k", IK_GRID, ids=[f"F{q}-n{n}-k{k}" for q, n, k in IK_GRID])
def test_ik_sieve_matches_trial_division(q, n, k):
    f = parse_field(f"F{q}")
    assert enumerate_ik(n, k, f) == ref_enumerate_ik(n, k, f)


@pytest.mark.parametrize("q,n,k", IK_GRID + [(2, 2, 6), (2, 3, 3), (2, 4, 2), (3, 3, 2), (7, 2, 3)])
def test_ik_count_matches_the_sieve(q, n, k):
    assert _ik_count(n, k, q) == len(enumerate_ik(n, k, parse_field(f"F{q}")))


def test_dual_arc_ik_refuses_from_the_ik_count():
    # |I_2| = 32302 over F2 in 5 variables: 32302 x 5 x 35 entries, refused before I_2 is listed
    with mock.patch("verolab.constructions.enumerate_ik", side_effect=AssertionError("listed")):
        with pytest.raises(BudgetExceeded, match=r"^5652850 basis entries of dual_arc_ik over F2 exceed budget 1000000$"):
            dual_arc_ik(5, 3, 2, F2)


@pytest.mark.parametrize("q,n,d,k", [(2, 2, 4, 2), (3, 2, 3, 2), (5, 2, 2, 1)])
def test_dual_arc_ik_matches_trial_division(q, n, d, k):
    f = parse_field(f"F{q}")
    want = [ref_multiples(g, d) for g in ref_enumerate_ik(n, k, f)]
    assert list(dual_arc_ik(n, d, k, f).members) == want


def test_ik_budget_counts_products_before_forming_them():
    # 2^3 = 8 degree-2 candidates fit a budget of 8; the 3 x 3 products do not
    with pytest.raises(BudgetExceeded, match="9 degree-2 products exceed budget 8"):
        enumerate_ik(2, 2, F2, budget=8)
    with pytest.raises(BudgetExceeded, match="candidates"):
        enumerate_ik(2, 2, F2, budget=7)
    assert len(enumerate_ik(2, 2, F2, budget=9)) == 4


def test_dual_arc_ik_2422():
    fam = dual_arc_ik(2, 4, 2, F2)
    assert len(fam) == 4
    rep = gda_profile(fam, 3)
    assert rep.constant_profile() == [3, 1, 0]


def test_gda_profile_single_member():
    fam = SubspaceFamily([dual_arc_ad(3, 2, F2)[0]])
    rep = gda_profile(fam, 1)
    assert rep.constant_profile() == [3]


def test_gda_profile_compares_only_levels_with_subsets():
    fam = dual_arc_ad(2, 4, F2)  # 3 members: levels 4 and 5 have no subsets
    assert gda_profile(fam, 5).constant_profile() == [4, 3, 2, -1, -1]
    # the stated-profile law compares the three levels with subsets only
    assert harness._profile_law(fam, [4, 3, 2, 1, 0], SUBSET_BUDGET, True)[2]
    assert not harness._profile_law(fam, [4, 9, 2, 1, 0], SUBSET_BUDGET, True)[2]


def test_wedge_family_m5():
    from verolab import wedge_family

    fam = wedge_family(F2, 5)
    assert len(fam) == 31
    assert fam.ambient_dim == 10
    assert all(m.dim == 4 for m in fam)
    for i, j in itertools.combinations(range(6), 2):
        assert subspace_intersect(fam[i], fam[j]).dim == 1


def test_wedge_pair_point_lies_in_q_plus_1_members():
    from verolab import wedge_family

    fam = wedge_family(F2, 5)
    inter = subspace_intersect(fam[0], fam[1])
    holders = sum(1 for m in fam if subspace_le(inter, m))
    assert holders == 3


def test_wedge_space_alternation():
    w = WedgeSpace(4)
    u = tuple(F3.one() if i == 1 else F3.zero() for i in range(4))
    v = tuple(F3.one() if i == 2 else F3.zero() for i in range(4))
    uv = w.wedge(u, v)
    vu = w.wedge(v, u)
    assert [s.v for s in uv] == [(-x).v for x in vu]
    assert all(s.v == 0 for s in w.wedge(u, u))


@pytest.mark.parametrize(
    "n,d,expect",
    [(3, 2, True), (3, 3, True), (3, 4, False), (2, 2, False), (2, 3, False)],
)
def test_regularity_boundary_q2(n, d, expect):
    fam = dual_arc_ad(n, d, F2)
    ok, wit = is_regular(fam)
    assert ok is expect
    if not expect:
        assert wit is not None


def test_regularity_q3_small_d():
    assert is_regular(dual_arc_ad(3, 2, F3))[0]


def test_partial_spread_products_dims():
    for q in (2, 3):
        f = parse_field(f"F{q}")
        fam = partial_spread_products(f, 2)
        rep = gda_profile(fam, 3)
        assert rep.constant_profile() == [7, 4, 1]


def test_dual_family_involution_and_spread_duals():
    fam = partial_spread_products(F2, 2)
    duals = dual_family(fam)
    assert all(m.dim == 3 for m in duals)  # 10 - 7 = C(2+1, 2)
    back = dual_family(duals)
    assert list(back) == list(fam)
    ok, _ = is_r_independent(duals, 3)
    assert ok


def test_derived_family_profile():
    fam = dual_arc_ad(3, 3, F2)
    der = derived_family(fam, 0)
    assert len(der) == 6
    assert gda_profile(der, 3).constant_profile() == [3, 1, 0]
