"""Point-column check matrices and minimum-weight search."""

from __future__ import annotations

import pytest

from verolab import (
    BudgetExceeded,
    classify_supports,
    min_weight,
    minimal_supports,
    parse_field,
    powerpoint_check_matrix,
    veronese_check_matrix,
)
from verolab.linalg import rank
from verolab.monomials import enumerate_exponents, multinomial
from verolab.vcode import dependency_vector, verify_dependency

F2 = parse_field("F2")
F3 = parse_field("F3")
F8 = parse_field("F8")


def test_column_counts():
    assert veronese_check_matrix(2, 2, F3).n_cols == 4
    cm = veronese_check_matrix(3, 2, F2)
    assert cm.n_cols == 7 and cm.n_rows == 6


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (3, 3), (5, 3), (5, 2)])
def test_rank_is_d_plus_1_on_the_line(q, d):
    f = parse_field(f"F{q}")
    if q >= d:
        assert rank(veronese_check_matrix(2, d, f).h) == d + 1


def test_min_weight_conic_line_example():
    cm = veronese_check_matrix(2, 2, F3)
    w, sups = min_weight(cm, 4)
    assert w == 4 and sups == [(0, 1, 2, 3)]
    w3, sups3 = min_weight(cm, 3)
    assert w3 is None and sups3 == []
    w1, _ = min_weight(cm, 1)
    assert w1 is None


def test_dependency_witnesses_verify():
    cm = veronese_check_matrix(3, 2, F3)
    found = minimal_supports(cm, 4)
    for sup in found[4]:
        vec = dependency_vector(cm, sup)
        assert verify_dependency(cm, sup, vec)
    with pytest.raises(ValueError):
        dependency_vector(cm, (0, 1, 2))


def test_verify_dependency_rejects_bad_vectors():
    cm = veronese_check_matrix(3, 2, F3)
    sup = minimal_supports(cm, 4)[4][0]  # the 4 points of one line
    vec = dependency_vector(cm, sup)
    # a kernel vector with a zero entry: the circuit's dependency on the
    # circuit plus one more column
    extra = min(set(range(cm.n_cols)) - set(sup))
    wider = tuple(sorted(sup + (extra,)))
    padded = [F3.zero_raw if j == extra else vec[sup.index(j)] for j in wider]
    assert all(sum(row[j] * x for j, x in zip(wider, padded)) % 3 == 0 for row in cm.h.raw)
    assert not verify_dependency(cm, wider, padded)
    # full support but outside the kernel: one entry doubled
    off = [F3.mul(vec[0], F3.add(F3.one_raw, F3.one_raw))] + vec[1:]
    assert F3.zero_raw not in off
    assert not verify_dependency(cm, sup, off)


@pytest.mark.parametrize(
    "q,n,d",
    [(q, n, d) for q in (2, 3, 4, 5) for n in (2, 3) for d in (2, 3)],
)
def test_no_small_dependencies(q, n, d):
    # the code form of point independence: no d+1 columns are dependent
    f = parse_field(f"F{q}")
    cm = veronese_check_matrix(n, d, f)
    w, _ = min_weight(cm, min(d + 1, cm.n_cols))
    assert w is None


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 2)])
def test_min_weight_exactly_d_plus_2_on_line(q, d):
    f = parse_field(f"F{q}")
    if q < d:
        return
    cm = veronese_check_matrix(2, d, f)
    if cm.n_cols < d + 2:
        return
    w, sups = min_weight(cm, d + 2)
    assert w == d + 2
    assert all(len(s) == d + 2 for s in sups)


def test_classification_at_323():
    cm = veronese_check_matrix(3, 2, F3)
    found = minimal_supports(cm, 6)
    assert sorted(found) == [4, 6]
    reports4 = classify_supports(cm, found[4])
    assert len(reports4) == 13  # one per line of the projective plane
    assert all(r.source_rank == 2 for r in reports4)
    reports6 = classify_supports(cm, found[6])
    assert all(r.source_rank == 3 for r in reports6)
    assert all(r.two_line_split is not None for r in reports6)
    left, right = reports6[0].two_line_split
    assert len(left) == 3 and len(right) == 3


def test_classify_single_line_support():
    cm = veronese_check_matrix(2, 2, F3)
    reports = classify_supports(cm, [(0, 1, 2, 3)])
    assert reports[0].source_rank == 2


def test_powerpoint_matrix_q8():
    cm = powerpoint_check_matrix(2, 3, F8)
    assert cm.n_cols == 9
    w, _ = min_weight(cm, 4)
    assert w is None  # every 4 columns independent


def test_powerpoint_columns_are_scaled_veronese_columns():
    # char > d: the power column equals the monomial column scaled by the
    # multinomial coefficients entrywise
    f = parse_field("F5")
    pp = powerpoint_check_matrix(2, 3, f)
    vv = veronese_check_matrix(2, 3, f)
    cs = [multinomial(3, alpha, f)[1] for alpha in enumerate_exponents(2, 3)]
    for j in range(pp.n_cols):
        for i in range(pp.n_rows):
            assert pp.h.at(i, j) == cs[i] * vv.h.at(i, j)


def test_powerpoint_frobenius_collapse_q2():
    cm = powerpoint_check_matrix(2, 2, F2)
    exps = enumerate_exponents(2, 2)
    mid = exps.index((1, 1))
    for j in range(cm.n_cols):
        assert cm.h.at(mid, j).v == 0  # cross terms vanish in characteristic 2
    w, sups = min_weight(cm, 3)
    assert w == 3 and sups == [(0, 1, 2)]  # squares of the three points collide


def test_budget_guard():
    cm = veronese_check_matrix(3, 2, F3)
    with pytest.raises(BudgetExceeded):
        minimal_supports(cm, 6, budget=10)
