"""Acceptance criteria, one test per criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 3 is named for five-fold independence of the degree-2 images
of the K^4 spreads.  Those images are 3-spaces of a 10-space, so any
five of them sum to dimension at most 10 < 15 and that claim cannot
hold.  The test checks that it is refuted with the lex-first witness
(0, 1, 2, 3, 4), confirmed dependent by a plain span.  It then checks
the level the paper proves for a spread (e = 1) at d = 2, de + 1 = 3,
directly and through check T1_2, and that this level is sharp: four
images would need dimension 12 > 10.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import time

from verolab import (
    SubspaceFamily,
    desarguesian_spread,
    dual_arc_ad,
    dual_family,
    gda_profile,
    is_r_independent,
    is_regular,
    max_independence,
    parse_field,
    projective_points,
    span,
    subspace_intersect,
    subspace_le,
    veronese_check_matrix,
    veronese_subspace,
    veronese_vector,
    wedge_family,
)
from verolab.harness import run_check, run_suite, suite_to_json
from verolab.linalg import projective_vectors
from verolab.monomials import num_monomials
from verolab.vcode import classify_supports, minimal_supports
from verolab.veronese import veronese_point


def report(num: int, ok: bool, detail: str) -> bool:
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {state} - {detail}")
    return ok


def test_criterion_01_point_independence_grid():
    t0 = time.time()
    failures = []
    for q in (2, 3, 4, 5):
        f = parse_field(f"F{q}")
        for n in (2, 3):
            for d in (2, 3):
                pts = projective_points(f, n)
                fam = SubspaceFamily([veronese_point(t, d) for t in pts])
                if len(fam) < d + 1:
                    continue  # no (d+1)-subsets to test
                ok, wit = is_r_independent(fam, d + 1)
                if not ok:
                    failures.append((q, n, d, wit))
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 300
    assert report(1, ok, f"16 grids exhaustive, failures={failures}, {elapsed:.1f}s (cap 300s)")


def test_criterion_02_sharpness_on_a_2_space():
    results = {}
    for q, n, d in ((3, 3, 2), (4, 2, 3)):
        f = parse_field(f"F{q}")
        plane = span(
            [tuple(f.one() if k == i else f.zero() for k in range(n)) for i in (0, 1)], n, f
        )
        images = [veronese_vector(t, d) for t in projective_vectors(plane)]
        big_n = num_monomials(n, d)
        all_dependent = all(
            span([images[i] for i in idxs], big_n, f).dim < d + 2
            for idxs in itertools.combinations(range(len(images)), d + 2)
        )
        results[(q, n, d)] = all_dependent
    ok = all(results.values())
    assert report(2, ok, f"every d+2 images on a 2-space dependent: {results}")


def test_criterion_03_spread_images_five_independent_as_stated():
    levels = []
    failures = {}
    for q in (2, 3):
        f = parse_field(f"F{q}")
        fam = desarguesian_spread(f, 2)
        images = SubspaceFamily([veronese_subspace(u, 2) for u in fam])
        ok5, wit5 = is_r_independent(images, 5)
        # the expected witness is dependent by one span of its members'
        # bases, without the subset search
        first5 = (0, 1, 2, 3, 4)
        first5_dim = span([v for i in first5 for v in images[i].basis.row_list()], 10, f).dim
        t1_2 = run_check("T1_2", {"field": f"F{q}", "k": 2, "d": 2, "e": 1})
        top = max_independence(images)
        parts = {
            "image dims 3 in K^10": images.ambient_dim == 10 and all(u.dim == 3 for u in images),
            "r=5 refuted at (0,1,2,3,4)": not ok5 and wit5 == first5,
            "witness sum < 15": first5_dim < 3 * 5,
            "spread 2-independent": is_r_independent(fam, 2) == (True, None),
            "r=3 holds": is_r_independent(images, 3) == (True, None),
            "T1_2 at r=3": t1_2.hypothesis_ok and bool(t1_2.conclusion_ok) and t1_2.data["r"] == 3,
            "max 3 (4*3 > 10)": top == 3,
        }
        levels.append(f"{q}: (max {top}, r5 witness {wit5})")
        failures[q] = [name for name, held in parts.items() if not held]
    ok = not any(failures.values())
    report(3, ok, f"5-independence refuted, level 3 proved and sharp: {{{', '.join(levels)}}}")
    assert ok, f"failed parts per field: {failures}"


def test_criterion_04_power_intersection_random_pairs():
    outcomes = {}
    for q in (2, 3):
        for d in (2, 3):
            res = run_check("C5_3", {"field": f"F{q}", "n": 4, "d": d, "trials": 200})
            outcomes[(q, d)] = bool(res.conclusion_ok)
    ok = all(outcomes.values())
    assert report(4, ok, f"200 seeded pairs per grid, exact equality: {outcomes}")


def test_criterion_05_regularity_boundary():
    expected = {
        (3, 2): True,
        (3, 3): True,
        (3, 4): False,
        (2, 2): False,
        (2, 3): False,
    }
    f = parse_field("F2")
    got = {}
    for (n, d), _want in expected.items():
        got[(n, d)] = is_regular(dual_arc_ad(n, d, f))[0]
    ok = got == expected
    assert report(5, ok, f"q=2 regularity map {got} == {expected}")


def test_criterion_06_dual_arc_profiles_exact():
    outcomes = {}
    for n, d, q in ((3, 3, 2), (3, 2, 3)):
        f = parse_field(f"F{q}")
        fam = dual_arc_ad(n, d, f)
        rep = gda_profile(fam, d + 1)
        want = [math.comb(n + d - 1 - j, d - j) for j in range(1, d + 1)] + [0]
        outcomes[(n, d, q)] = (rep.constant_profile() == want, rep.constant_profile(), want)
    ok = all(v[0] for v in outcomes.values())
    assert report(6, ok, f"profiles: {outcomes}")


def test_criterion_07_partial_spread_and_dual():
    from verolab.constructions import partial_spread_products

    outcomes = {}
    for q in (2, 3):
        f = parse_field(f"F{q}")
        fam = partial_spread_products(f, 2)
        prof = gda_profile(fam, 3).constant_profile()
        duals = dual_family(fam)
        ok_dims = prof == [7, 4, 1]
        ok_dual = all(m.dim == 3 for m in duals) and is_r_independent(duals, 3)[0]
        outcomes[q] = (ok_dims, ok_dual, prof)
    ok = all(a and b for a, b, _ in outcomes.values())
    assert report(7, ok, f"k=2: dims 7/4/1 and 3-independent duals: {outcomes}")


def test_criterion_08_veronese_code_323():
    t0 = time.time()
    f = parse_field("F3")
    cm = veronese_check_matrix(3, 2, f)
    found = minimal_supports(cm, 6)
    min_w = min(found) if found else None
    w4 = found.get(4, [])
    reports4 = classify_supports(cm, w4)
    all_rank2 = all(r.source_rank == 2 for r in reports4)
    no_w5 = 5 not in found
    reports6 = classify_supports(cm, found.get(6, []))
    some_two_line = any(r.source_rank == 3 and r.two_line_split for r in reports6)
    elapsed = time.time() - t0
    ok = min_w == 4 and all_rank2 and no_w5 and some_two_line and elapsed <= 120
    assert report(
        8,
        ok,
        f"min weight {min_w} (=d+2), {len(w4)} planar supports, no w=5, "
        f"two-line w=6 found={some_two_line}, {elapsed:.1f}s (cap 120s)",
    )


def test_criterion_09_char2_powerpoints():
    res = run_check("T3_4", {"field": "F8", "n": 2, "d": 3})
    n_points = res.data.get("points")
    ok = res.hypothesis_ok and bool(res.conclusion_ok) and n_points == 9
    assert report(9, ok, f"all C(9,4)=126 four-subsets independent over F8 (points={n_points})")


def test_criterion_10_small_char_powerpoints():
    res = run_check("T3_3", {"field": "F11", "n": 2, "d": 4, "r": 3})
    n_points = res.data.get("points")
    ok = res.hypothesis_ok and bool(res.conclusion_ok) and n_points == 12
    assert report(10, ok, f"all C(12,4)=495 four-subsets independent over F11 (points={n_points})")


def test_criterion_11_substitution_action():
    exhaustive = run_check("RHO", {"field": "F2", "n": 3, "d": 2})
    sampled = run_check("RHO", {"field": "F5", "n": 2, "d": 3, "trials": 100})
    ok = (
        exhaustive.conclusion_ok
        and exhaustive.data.get("maps") == 168
        and sampled.conclusion_ok
        and sampled.mode.startswith("sampled(")
    )
    assert report(11, bool(ok), f"GL(3,F2) exhaustive ({exhaustive.data.get('maps')} maps) + 100 seeded trials at (5,2,3)")


def test_criterion_12_power_dichotomy():
    branch2 = run_check("P5_4", {"field": "F2", "d": 2, "r": 2, "s": 2})
    branch3 = run_check("P5_4", {"field": "F3", "d": 2, "r": 2, "s": 2})
    dims = (branch2.data.get("intersection_dim"), branch3.data.get("intersection_dim"))
    ok = bool(branch2.conclusion_ok and branch3.conclusion_ok) and dims == (2, 0)
    assert report(12, ok, f"intersection dims (char 2, char 3) = {dims}, expected (2, 0)")


def test_criterion_13_three_ten_space_structures():
    f = parse_field("F2")
    q = 2
    # duals of the degree-3 arc: 1+q+q^2 four-spaces meeting pairwise in points
    d1s = dual_family(dual_arc_ad(3, 3, f))
    prof1 = gda_profile(d1s, 2).constant_profile()
    ok1 = len(d1s) == 7 and d1s.ambient_dim == 10 and prof1 == [4, 1]
    # the degree-2 arc in four variables: 15 members, full dual-arc profile
    d2 = dual_arc_ad(4, 2, f)
    prof2 = gda_profile(d2, 3).constant_profile()
    ok2 = len(d2) == 15 and d2.ambient_dim == 10 and prof2 == [4, 1, 0]
    # exterior-square family: pairwise points shared by exactly 1+q members
    d3 = wedge_family(f, 5)
    pair_pts = []
    pairs_ok = True
    for i, j in itertools.combinations(range(len(d3)), 2):
        inter = subspace_intersect(d3[i], d3[j])
        if inter.dim != 1:
            pairs_ok = False
            break
        pair_pts.append(inter)
    membership_ok = pairs_ok and all(
        sum(1 for m in d3 if subspace_le(pt, m)) == 1 + q for pt in set(pair_pts)
    )
    triple_level = gda_profile(d3, 3).level(3)
    not_gda = len(triple_level) > 1  # the triples meet in unequal dimensions
    ok3 = len(d3) == 31 and pairs_ok and membership_ok and not_gda
    ok = ok1 and ok2 and ok3
    assert report(
        13,
        ok,
        f"d1*: {len(d1s)} members {prof1}; d2: {len(d2)} members {prof2}; "
        f"d3: {len(d3)} members, pair points in 3 members, triple dims {sorted(triple_level)}",
    )


# sha256 of `verolab suite full-desk --out json` (the JSON plus its
# newline).  It changes only with a MANIFEST_VERSION bump.
FULL_DESK_SHA256 = "bdd1f5535d2fe4b4f4851fb354f6a91e1868075f9114c12c307ef5236fef7857"


def test_criterion_14_reproducibility():
    t0 = time.time()
    results1, code1 = run_suite("full-desk")
    json1 = suite_to_json("full-desk", results1)
    results2, code2 = run_suite("full-desk")
    json2 = suite_to_json("full-desk", results2)
    elapsed = time.time() - t0
    digest = hashlib.sha256((json1 + "\n").encode()).hexdigest()
    ok = json1 == json2 and digest == FULL_DESK_SHA256 and elapsed <= 1800 and code1 == code2 == 0
    assert report(
        14,
        ok,
        f"two full-desk runs byte-identical={json1 == json2}, sha256 pinned={digest == FULL_DESK_SHA256}, "
        f"exit codes ({code1}, {code2}), {elapsed:.1f}s for both (cap 1800s)",
    )
