"""Differential tests of the dual-arc census on linalg.meet_walk against
the Zassenhaus searches it replaced, which are kept here as references.

The references intersect members pairwise with subspace_intersect:
gda_profile's census recursed over index prefixes, the intersection
lattice grew breadth first one level per subset size, and EQ_GDA
intersected each j-subset from scratch.  gda_profile also judged an
expected profile, by rules kept here as the reference for the one
stated-profile law of the harness.  T1_1_SHARP spanned every
(d+2)-subset of the images of a 2-space; it now takes one greedy basis.
"""

from __future__ import annotations

import itertools
import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from verolab import (
    BudgetExceeded,
    HomogPoly,
    SubspaceFamily,
    derived_family,
    dual_arc_ad,
    dual_arc_ik,
    dual_family,
    gda_profile,
    is_regular,
    parse_field,
    projective_points,
    rationals,
    run_check,
    span,
    subspace_intersect,
    subspace_le,
    veronese_vector,
    wedge_family,
)
from verolab import constructions, harness, linalg
from verolab.constructions import intersection_lattice, partial_spread_products
from verolab.field import Scalar
from verolab.linalg import SUBSET_BUDGET, annihilator, contained_in, meet_walk, projective_vectors, stack_meet
from verolab.linalg import combine_basis, full_subspace, subspace_join
from verolab.monomials import num_monomials
from verolab.polyalgebra import component_space, poly_mul, product_space

FIELDS = [parse_field(f"F{q}") for q in (2, 3, 4, 5, 8, 9)]


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

def _ref_levels(fam, j_max):
    """gda_profile's intersection_dims, by recursion over prefixes."""
    members = fam.members
    n_mem = len(members)
    levels = [Counter() for _ in range(j_max)]

    def rec(start, current, depth):
        for i in range(start, n_mem):
            nxt = members[i] if current is None else subspace_intersect(current, members[i])
            levels[depth][nxt.dim] += 1
            if depth + 1 < j_max:
                if nxt.is_zero():
                    rem = n_mem - i - 1
                    for extra in range(1, j_max - depth):
                        if depth + extra < j_max and rem >= extra:
                            levels[depth + extra][0] += math.comb(rem, extra)
                else:
                    rec(i + 1, nxt, depth + 1)

    rec(0, None, 0)
    return tuple(tuple(sorted(lvl.items())) for lvl in levels)


def _ref_expected_rule(fam, j_max, expected):
    """gda_profile's verdict on an expected tuple, before each check stated
    its profile: the levels are constant and positive down to a depth
    d_star >= 1 and zero or vacuous below it, and expected, less a leading
    entry equal to the ambient dimension, cut at the member count and
    less its trailing zeros, is those d_star levels."""
    const = gda_profile(fam, j_max).constant_profile()
    d_star = len(list(itertools.takewhile(lambda c: c not in (None, -1, 0), const)))
    tail_zero = all(c in (0, -1) for c in const[d_star:])
    exp = list(expected)
    if exp and exp[0] == fam.ambient_dim:
        exp = exp[1:]
    del exp[len(fam):]
    while exp and exp[-1] == 0:
        exp.pop()
    return d_star >= 1 and tail_zero and const[:d_star] == exp


def _ref_lattice(fam):
    """intersection_lattice, one breadth-first level per subset size."""
    members = fam.members
    found = {}
    level = [((i,), members[i]) for i in range(len(members))]
    for idx, s in level:
        found.setdefault(s, idx)
    while level:
        nxt = []
        for idx, s in level:
            for j in range(idx[-1] + 1, len(members)):
                t = subspace_intersect(s, members[j])
                if not t.is_zero():
                    nxt.append((idx + (j,), t))
                    found.setdefault(t, idx + (j,))
        level = nxt
    return sorted(((idx, s) for s, idx in found.items()), key=lambda p: (len(p[0]), p[0]))


def _ref_is_regular(fam):
    for idx, u in _ref_lattice(fam):
        others = [d for d in fam.members if not subspace_le(u, d)]
        if not subspace_le(u, subspace_join(others, fam.ambient_dim, fam.field)):
            return False, idx
    return True, None


def _ref_eq_gda(fam, f, n, d):
    """EQ_GDA's first failing subset, j = 2..d in combination order."""
    points = projective_points(f, n)
    for j in range(2, d + 1):
        a_space = component_space(f, n, d - j)
        for idxs in itertools.combinations(range(len(fam)), j):
            inter = fam[idxs[0]]
            for i in idxs[1:]:
                inter = subspace_intersect(inter, fam[i])
            prod = HomogPoly.linear_form(points[idxs[0]])
            for i in idxs[1:]:
                prod = poly_mul(prod, HomogPoly.linear_form(points[i]))
            y_space = span([prod.coeffs], num_monomials(n, j), f)
            if inter != product_space(a_space, d - j, y_space, j, n):
                return idxs
    return None


def _ref_sharp(f, n, d, images):
    """T1_1_SHARP's first independent (d+2)-set of images, or None."""
    big_n = num_monomials(n, d)
    for idxs in itertools.combinations(range(len(images)), d + 2):
        if span([images[i] for i in idxs], big_n, f).dim == d + 2:
            return idxs
    return None


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------

def _ad_grid():
    # the P6_2 boundary cases over F2 (n3 d4, n2 d2, n2 d3) are not regular
    grid = [("F2", 3, 2), ("F2", 3, 3), ("F2", 3, 4), ("F2", 2, 2), ("F2", 2, 3),
            ("F3", 3, 2), ("F3", 2, 2), ("F3", 2, 3), ("F4", 2, 3), ("F4", 2, 4),
            ("F5", 2, 3), ("F8", 2, 2), ("F9", 2, 3)]
    return [pytest.param(parse_field(q), n, d, id=f"{q}-n{n}-d{d}") for q, n, d in grid]


F2, F3, F4, F5, F8, F9 = FIELDS
NAMED = {  # built when the test runs, not at collection
    "ik-F2-n2-d4-k2": lambda: dual_arc_ik(2, 4, 2, F2),
    "ik-F3-n2-d3-k2": lambda: dual_arc_ik(2, 3, 2, F3),
    "ik-F5-n2-d2-k1": lambda: dual_arc_ik(2, 2, 1, F5),
    "spread-products-F2": lambda: partial_spread_products(F2, 2),
    "dual-ad-F2-n3-d3": lambda: dual_family(dual_arc_ad(3, 3, F2)),
    "dual-ad-F4-n2-d3": lambda: dual_family(dual_arc_ad(2, 3, F4)),
    "dual-ad-F9-n2-d2": lambda: dual_family(dual_arc_ad(2, 2, F9)),
    "dual-spread-products-F2": lambda: dual_family(partial_spread_products(F2, 2)),
    "derived-F2-n3-d3": lambda: derived_family(dual_arc_ad(3, 3, F2), 0),
    "derived-F3-n3-d2": lambda: derived_family(dual_arc_ad(3, 2, F3), 4),
    "derived-F8-n2-d3": lambda: derived_family(dual_arc_ad(2, 3, F8), 1),
    "wedge-F2-m4": lambda: wedge_family(F2, 4),
    "wedge-F3-m3": lambda: wedge_family(F3, 3),
}


def _elements(f):
    if f.is_finite:
        return st.integers(0, f.q - 1).map(lambda v: Scalar(f, v))
    return st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)).map(lambda v: Scalar(f, v))


@st.composite
def families(draw):
    """Random families in K^2 .. K^5.  Small members in a larger space
    meet in 0 after a few steps; members drawn around one shared core
    meet in the core again and again, so one meet has many index sets."""
    f = draw(st.sampled_from(FIELDS + [rationals()]))
    m = draw(st.integers(2, 5))
    vectors = st.tuples(*[_elements(f)] * m)
    core = draw(st.lists(vectors, max_size=2))
    members = []
    for _ in range(draw(st.integers(2, 7))):
        rows = draw(st.lists(vectors, min_size=1, max_size=3))
        s = span(core + rows if draw(st.booleans()) else rows, m, f)
        if s.dim and s not in members:
            members.append(s)
    assume(len(members) >= 2)
    return SubspaceFamily(members)


def _census_matches(fam, j_max):
    assert gda_profile(fam, j_max).intersection_dims == _ref_levels(fam, j_max)
    assert intersection_lattice(fam) == _ref_lattice(fam)
    assert is_regular(fam) == _ref_is_regular(fam)


def _stated_law_matches(fam, j_max) -> list[bool]:
    """The stated-profile law against the expected rule on the profile a
    dual-arc law would state for fam (its leading constant positive
    levels, then zeros), on each entry of it moved by one, and on each
    proper prefix.  The expected tuple leads with the ambient dimension,
    as the checks passed it.  Returns the law's verdicts in that order."""
    const = gda_profile(fam, j_max).constant_profile()
    lead = list(itertools.takewhile(lambda c: c is not None and c > 0, const))
    natural = lead + [0] * (j_max - len(lead))
    perturbed = [natural[:i] + [natural[i] + step] + natural[i + 1:]
                 for i in range(j_max) for step in (-1, 1) if natural[i] + step >= 0]
    truncated = [natural[:t] for t in range(1, j_max)]
    verdicts = []
    for stated in [natural] + perturbed + truncated:
        holds = harness._profile_law(fam, stated, SUBSET_BUDGET, True)[2]
        assert holds == _ref_expected_rule(fam, len(stated), (fam.ambient_dim, *stated)), stated
        verdicts.append(holds)
    return verdicts


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------

@pytest.mark.parametrize("f,n,d", _ad_grid())
def test_dual_arc_ad_census_matches_reference(f, n, d):
    _census_matches(dual_arc_ad(n, d, f), d + 1)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_family_census_matches_reference(name):
    _census_matches(NAMED[name](), 3)


@settings(max_examples=40, deadline=None)
@given(families())
def test_random_family_census_matches_reference(fam):
    _census_matches(fam, len(fam))


@pytest.mark.parametrize("f,n,d", _ad_grid())
def test_stated_profile_law_matches_expected_rule_on_dual_arcs(f, n, d):
    verdicts = _stated_law_matches(dual_arc_ad(n, d, f), d + 1)
    assert verdicts[0] and not all(verdicts)  # the stated profile holds, and some moved entry fails


@pytest.mark.parametrize("name", sorted(NAMED))
def test_stated_profile_law_matches_expected_rule_on_named_families(name):
    _stated_law_matches(NAMED[name](), 3)


@settings(max_examples=40, deadline=None)
@given(families())
def test_stated_profile_law_matches_expected_rule_on_random_families(fam):
    _stated_law_matches(fam, len(fam))


def test_deep_family_ends_in_budget_not_recursion():
    # the 1,032 lines through a point of PG(2, 1031): every index set meets
    # in the point, so the walk goes 1,032 members deep
    f = parse_field("F1031")
    e1 = (f.one(), f.zero(), f.zero())
    others = [(f.zero(), f.one(), Scalar(f, t)) for t in range(f.q)] + [(f.zero(), f.zero(), f.one())]
    fam = SubspaceFamily([span([e1, v], 3, f) for v in others])
    with pytest.raises(BudgetExceeded):
        intersection_lattice(fam, budget=10 ** 5)


# ----------------------------------------------------------------------
# regularity on the annihilators
# ----------------------------------------------------------------------

def _in_hyperplane(fam):
    """fam inside the hyperplane x_(m+1) = 0 of K^(m+1)."""
    f, m = fam.field, fam.ambient_dim
    return SubspaceFamily(span([r + (f.zero(),) for r in s.basis.row_list()], m + 1, f) for s in fam)


def _ref_covers(fam):
    """is_regular's spanning covers, by rank: runs of members, in order,
    each closed as soon as its join is K^m; a last run short of K^m is
    not a cover."""
    f, m = fam.field, fam.ambient_dim
    covers, run = [], []
    for i in range(len(fam)):
        run.append(i)
        if subspace_join([fam[j] for j in run], m, f).dim == m:
            covers.append(run)
            run = []
    return covers


@pytest.mark.parametrize("q,n,d,regular", [
    (2, 3, 2, True), (2, 3, 3, True), (3, 3, 2, True), (2, 3, 4, False), (2, 2, 2, False), (4, 2, 4, False),
])
def test_regularity_in_a_hyperplane_is_decided_by_the_final_reduction(q, n, d, regular):
    # the members span at most the hyperplane, so there is no cover and no
    # join reaches full rank
    fam = dual_arc_ad(n, d, parse_field(f"F{q}"))
    flat = _in_hyperplane(fam)
    assert _ref_covers(flat) == []
    assert is_regular(flat) == _ref_is_regular(flat) == is_regular(fam)
    assert is_regular(flat)[0] is regular


def test_members_around_one_core_fail_on_the_core():
    # the four 2-spaces through e1 in F3^3 meet pairwise in <e1>, which every
    # member contains: no member is left to span it, and every cover holds it
    f = F3
    e1 = (f.one(), f.zero(), f.zero())
    rest = [(f.zero(), Scalar(f, t), f.one()) for t in range(3)] + [(f.zero(), f.one(), f.zero())]
    fam = SubspaceFamily(span([e1, v], 3, f) for v in rest)
    core = span([e1], 3, f)
    assert ((0, 1), core) in intersection_lattice(fam)
    assert all(contained_in([annihilator(s) for s in fam], core))
    assert _ref_covers(fam) == [[0, 1], [2, 3]]
    assert is_regular(fam) == _ref_is_regular(fam) == (False, (0, 1))


@pytest.mark.parametrize("q,n,d,witness", [(2, 3, 4, (0, 1, 3, 6)), (4, 2, 4, (0, 1, 2, 3))])
def test_boundary_cases_are_not_regular(q, n, d, witness):
    fam = dual_arc_ad(n, d, parse_field(f"F{q}"))
    assert is_regular(fam) == _ref_is_regular(fam) == (False, witness)


@pytest.mark.parametrize("q,n,d", [(2, 3, 3), (3, 3, 2), (4, 2, 3), (5, 2, 3)])
def test_regularity_of_perturbed_dual_arcs_matches_reference(q, n, d):
    # one member swapped for a random subspace: the covers change, and a
    # meet through the new member may be held in every cover
    fam = dual_arc_ad(n, d, parse_field(f"F{q}"))
    for seed in range(4):
        bad = _perturbed(fam, seed)
        assert is_regular(bad) == _ref_is_regular(bad), seed


def test_join_test_runs_all_three_branches_on_the_grid():
    # per meet U, the rows is_regular pushes once its covers are built: none
    # when no member of some cover holds U (the cover pass), at most the
    # others' rows when their join reaches full rank (the early exit), more
    # when U's rows are reduced against it (the final reduction)
    passed = early = final = 0
    for param in _ad_grid():
        f, n, d = param.values
        fam = dual_arc_ad(n, d, f)
        covers = _ref_covers(fam)
        pushes = []

        def lattice(*args):
            for item in intersection_lattice(*args):
                pushes.append(0)
                yield item

        def push(*args):
            if pushes:  # the covers are built before the first meet
                pushes[-1] += 1
            return linalg._echelon_extend(*args)

        with mock.patch.object(constructions, "intersection_lattice", lattice), \
                mock.patch.object(constructions, "_echelon_extend", wraps=push):
            assert is_regular(fam) == _ref_is_regular(fam)
        for (idx, u), count in zip(intersection_lattice(fam), pushes):
            holders = {i for i, s in enumerate(fam) if subspace_le(u, s)}
            others = [s for i, s in enumerate(fam) if i not in holders]
            rows = sum(s.dim for s in others)
            if any(holders.isdisjoint(c) for c in covers):
                passed += 1
                assert count == 0, idx
            elif subspace_join(others, fam.ambient_dim, f).dim == fam.ambient_dim:
                early += 1
                assert count <= rows, idx
            else:
                final += 1
                assert count > rows, idx
    assert passed and early and final


@pytest.mark.parametrize("field", ["F2", "F3", "F4", "F5", "Q"])
def test_contained_in_matches_subspace_le(field):
    # members of every dimension, K^m among them (no annihilator rows); U runs
    # over the members, their meets and random subspaces of the members
    f = parse_field(field)
    rng = random.Random(f"contained-in-{field}")

    def raw():
        return rng.randrange(f.q) if f.is_finite else Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    for m in range(3, 6):
        members = [full_subspace(f, m)]
        while len(members) < 6:
            s = span([tuple(Scalar(f, raw()) for _ in range(m)) for _ in range(rng.randint(1, m - 1))], m, f)
            if s.dim and s not in members:
                members.append(s)
        us = members + [subspace_intersect(a, b) for a, b in itertools.combinations(members, 2)]
        for s in members:
            k = rng.randint(1, s.dim)
            us.append(span(combine_basis(s, [[raw() for _ in range(s.dim)] for _ in range(k)]), m, f))
        anns = [annihilator(s) for s in members]
        big = 0
        for u in us:
            if u.is_zero():
                continue
            want = [subspace_le(u, s) for s in members]
            assert contained_in(anns, u) == want, (m, u)
            assert want[0]
            big += u.dim > 1 and sum(want) > 1
        assert big, m


@pytest.mark.parametrize("q", [2, 3])
def test_ex10_membership_matches_subspace_le(q):
    # EX10 reads membership off the pair counts: the k members through a pair
    # point meet pairwise in it, so it is the meet of exactly C(k, 2) pairs
    f = parse_field(f"F{q}")
    fam = wedge_family(f, 5)
    anns = [annihilator(s) for s in fam]
    counts = Counter(stack_meet(st, fam.ambient_dim, f) for prefix, _, st in meet_walk(anns, 2) if prefix)
    points = list(counts)
    if q == 3:
        points = points[::7]  # every seventh of the 1,210 points keeps the reference short
    for pt in points:
        flags = contained_in(anns, pt)
        assert flags == [subspace_le(pt, s) for s in fam]
        assert sum(flags) == 1 + q
        assert counts[pt] == math.comb(sum(flags), 2)


# ----------------------------------------------------------------------
# EQ_GDA
# ----------------------------------------------------------------------

def _perturbed(fam, seed):
    """fam with one member swapped for a random subspace of its dimension."""
    rng = random.Random(seed)
    f, m = fam.field, fam.ambient_dim
    k = rng.randrange(len(fam))
    while True:
        rows = [tuple(Scalar(f, rng.randrange(f.q)) for _ in range(m)) for _ in range(fam[k].dim)]
        s = span(rows, m, f)
        if s.dim == fam[k].dim and s not in fam.members:
            return SubspaceFamily(fam.members[:k] + (s,) + fam.members[k + 1:])


@pytest.mark.parametrize("q,n,d", [(2, 3, 2), (2, 3, 3), (3, 3, 2), (2, 2, 3), (4, 2, 3)])
def test_eq_gda_matches_reference(q, n, d):
    f = parse_field(f"F{q}")
    fam = dual_arc_ad(n, d, f)
    res = run_check("EQ_GDA", {"field": f"F{q}", "n": n, "d": d})
    assert res.conclusion_ok and _ref_eq_gda(fam, f, n, d) is None
    for seed in range(4):
        bad = _perturbed(fam, seed)
        with mock.patch.object(harness, "dual_arc_ad", lambda n_, d_, f_: bad):
            res = run_check("EQ_GDA", {"field": f"F{q}", "n": n, "d": d})
        ref = _ref_eq_gda(bad, f, n, d)
        assert ref is not None and not res.conclusion_ok
        assert res.witness == {"subset": list(ref)}, seed


def _cli(*argv, timeout):
    return subprocess.run([sys.executable, "-m", "verolab.cli", *argv],
                          capture_output=True, text=True, timeout=timeout)


def test_eq_gda_runs_behind_the_budget():
    # C(57, 2) + C(57, 3) + C(57, 4) = 425,866 subsets, over the budget given
    out = _cli("check", "EQ_GDA", "--field", "F7", "--n", "3", "--d", "4", "--budget", "100000", timeout=60)
    assert out.returncode == 2 and out.stdout == ""
    assert "425866 subsets" in out.stderr and "budget 100000" in out.stderr
    assert "Traceback" not in out.stderr


# ----------------------------------------------------------------------
# T1_1_SHARP
# ----------------------------------------------------------------------

def _plane_points(f, n):
    plane = span([tuple(f.one() if k == i else f.zero() for k in range(n)) for i in (0, 1)], n, f)
    return projective_vectors(plane)


def _bumped(f, n, positions):
    """veronese_vector with one coordinate raised by one at the plane
    points in the given positions: the last coordinate at the first of
    them, the one before at the second.  For n = 3 these monomials
    contain x3, so each bump leaves the span of the other images."""
    bumps = {tuple(s.v for s in t): -1 - positions.index(i)
             for i, t in enumerate(_plane_points(f, n)) if i in positions}

    def vec(t, d):
        v = list(veronese_vector(t, d))
        k = bumps.get(tuple(s.v for s in t))
        if k is not None:
            v[k] += f.one()
        return tuple(v)

    return vec


@pytest.mark.parametrize("q,n,d,positions", [
    (3, 3, 2, ()), (4, 2, 3, ()),  # the criterion-02 grids
    (2, 3, 2, ()), (5, 3, 3, ()), (8, 2, 3, ()),
    (3, 3, 2, (0,)), (3, 3, 2, (2,)), (3, 3, 2, (3,)), (3, 3, 2, (1, 2)),
    (4, 3, 3, (1,)), (5, 3, 3, (4,)), (5, 3, 3, (0, 5)), (5, 3, 2, (5,)),
])
def test_sharp_matches_reference(q, n, d, positions):
    f = parse_field(f"F{q}")
    vec = _bumped(f, n, positions)
    images = [vec(t, d) for t in _plane_points(f, n)]
    ref = _ref_sharp(f, n, d, images)
    assert (ref is None) == (not positions)
    with mock.patch.object(harness, "veronese_vector", vec):
        res = run_check("T1_1_SHARP", {"field": f"F{q}", "n": n, "d": d})
    if ref is None:
        assert res.conclusion_ok and res.data == {"points_on_plane": len(images)}
    else:
        assert not res.conclusion_ok and res.witness == list(ref)


def test_sharp_finishes_on_a_large_field():
    # C(258, 5) subsets one by one; one greedy pass over the 258 images decides it
    out = _cli("check", "T1_1_SHARP", "--field", "F257", "--n", "2", "--d", "3", "--out", "json", timeout=60)
    assert out.returncode == 0
    assert '"points_on_plane":258' in out.stdout
