"""r-independence predicates and hypothesis-gated family checks."""

from __future__ import annotations

import random

import pytest

from verolab import (
    BudgetExceeded,
    DuplicateMember,
    SubspaceFamily,
    conic,
    desarguesian_spread,
    elliptic_ovoid,
    hyperoval,
    is_r_independent,
    max_independence,
    parse_field,
    rational_normal_curve,
    span,
    veronese_subspace,
)
from verolab.field import Scalar

F2 = parse_field("F2")
F3 = parse_field("F3")


def unit(f, n, i):
    return tuple(f.one() if j == i else f.zero() for j in range(n))


def point_family(f, vectors, n):
    return SubspaceFamily([span([v], n, f) for v in vectors])


def test_independent_triple():
    fam = point_family(F2, [unit(F2, 3, i) for i in range(3)], 3)
    ok, wit = is_r_independent(fam, 3)
    assert ok and wit is None


def test_dependent_triple_with_lex_first_witness():
    e1, e2 = unit(F2, 3, 0), unit(F2, 3, 1)
    e12 = tuple(a + b for a, b in zip(e1, e2))
    fam = point_family(F2, [e1, e2, e12], 3)
    ok, wit = is_r_independent(fam, 3)
    assert not ok and wit == (0, 1, 2)


def test_spread_images_are_de_plus_1_independent():
    # degree-2 images of a 2-independent family: the guaranteed level is 3
    fam = desarguesian_spread(F2, 2)
    images = SubspaceFamily([veronese_subspace(u, 2) for u in fam])
    ok, _ = is_r_independent(images, 3)
    assert ok
    ok4, _ = is_r_independent(images, 4)
    assert not ok4  # five 3-spaces in a 10-space cannot be 4-independent


def test_downward_closure():
    rng = random.Random(2)
    for _ in range(20):
        members = []
        while len(members) < 4:
            rows = [tuple(Scalar(F3, rng.randrange(3)) for _ in range(5)) for _ in range(2)]
            s = span(rows, 5, F3)
            if s.dim and s not in members:
                members.append(s)
        fam = SubspaceFamily(members)
        top = max_independence(fam)
        for r in range(2, top + 1):
            assert is_r_independent(fam, r)[0]


def test_max_independence_examples():
    two = SubspaceFamily(
        [
            span([unit(F2, 4, 0), unit(F2, 4, 1)], 4, F2),
            span([unit(F2, 4, 2), unit(F2, 4, 3)], 4, F2),
        ]
    )
    assert max_independence(two) == 2
    # degree-4 images of the projective line over GF(5) span a 5-space
    rnc = SubspaceFamily(rational_normal_curve(parse_field("F5"), 4))
    assert max_independence(rnc) == 5


def test_max_independence_on_conic_images():
    # second-degree images of a conic behave like a degree-4 normal curve
    pts = conic(F3)
    images = SubspaceFamily([veronese_subspace(p, 2) for p in pts])
    assert max_independence(images) == 4  # only 4 members; all of them independent
    assert is_r_independent(images, 4)[0]


def _images(fam, d):
    return SubspaceFamily([veronese_subspace(u, d) for u in fam])


def test_theorem_1_2_on_spreads():
    # a spread is 2-independent (e = 1), so its degree-2 images are
    # 2*1+1 = 3-independent
    for q in (2, 3):
        fam = desarguesian_spread(parse_field(f"F{q}"), 2)
        assert is_r_independent(fam, 2) == (True, None)
        assert is_r_independent(_images(fam, 2), 3) == (True, None)


def test_theorem_1_2_on_hyperoval_and_ovoid():
    # caps have no three collinear points, so they are 3-independent
    # (e = 2) and their degree-2 images must be 2*2+1 = 5-independent
    for cap in (hyperoval(parse_field("F4")), elliptic_ovoid(F3)):
        fam = SubspaceFamily(cap)
        assert is_r_independent(fam, 3) == (True, None)
        assert is_r_independent(_images(fam, 2), 5) == (True, None)


def test_theorem_1_2_hypothesis_gate():
    # the three coordinate planes of K^3 meet pairwise, so they are not
    # 2-independent (e = 1) and the law promises nothing; indeed their
    # degree-2 images meet pairwise too and are not 3-independent
    planes = SubspaceFamily(
        [span([unit(F2, 3, i), unit(F2, 3, j)], 3, F2) for i, j in ((0, 1), (0, 2), (1, 2))]
    )
    assert is_r_independent(planes, 2) == (False, (0, 1))
    assert is_r_independent(_images(planes, 2), 3) == (False, (0, 1, 2))


def test_family_type_invariants():
    e1 = span([unit(F2, 3, 0)], 3, F2)
    with pytest.raises(DuplicateMember):
        SubspaceFamily([e1, e1])
    with pytest.raises(ValueError):
        SubspaceFamily([span([], 3, F2)])


def test_budget_and_bounds():
    fam = point_family(F3, [unit(F3, 4, i) for i in range(4)], 4)
    with pytest.raises(ValueError):
        is_r_independent(fam, 1)
    with pytest.raises(ValueError):
        is_r_independent(fam, 5)
    with pytest.raises(BudgetExceeded):
        is_r_independent(fam, 2, budget=3)
