"""Exponent enumeration, the index map, multinomials, monomial evaluation."""

from __future__ import annotations

import math

import pytest

from verolab import (
    BadParams,
    BudgetExceeded,
    enumerate_exponents,
    eval_monomial,
    multinomial,
    num_monomials,
    parse_field,
    rationals,
)
from verolab import monomials
from verolab.field import int_in_field
from verolab.monomials import _index_map, _shift_table


def test_enumerate_n2_d2():
    assert list(enumerate_exponents(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert num_monomials(2, 2) == 3


def test_enumerate_n3_d2():
    exps = enumerate_exponents(3, 2)
    assert len(exps) == 6
    assert exps[0] == (2, 0, 0) and exps[-1] == (0, 0, 2)


def test_enumerate_degree_zero():
    assert list(enumerate_exponents(4, 0)) == [(0, 0, 0, 0)]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("d", range(0, 7))
def test_counts(n, d):
    assert len(enumerate_exponents(n, d)) == math.comb(d + n - 1, d)


def _recursive_exponents(n, d):
    """Reference: x1's exponent from d down to 0, then the rest in the same order."""
    if n == 1:
        return [(d,)]
    return [(a1,) + rest for a1 in range(d, -1, -1) for rest in _recursive_exponents(n - 1, d - a1)]


@pytest.mark.parametrize("n", range(1, 8))
def test_enumeration_matches_the_recursive_order(n):
    for d in range(8):
        assert list(enumerate_exponents(n, d)) == _recursive_exponents(n, d)


def test_enumeration_needs_no_recursion_depth():
    exps = enumerate_exponents(1000, 1)  # one variable per recursion level was a RecursionError
    assert len(exps) == 1000 and exps[0][0] == 1 and exps[-1][-1] == 1


def test_exponent_entries_are_capped_at_their_boundary():
    # N(n, 1) * n = n^2 entries, the cap of the n x n identity whose rows they are
    assert len(enumerate_exponents(1000, 1)) == 1000  # 10^6 entries: listed
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_exponents(1001, 1)
    assert str(exc.value) == "1002001 exponent entries in 1001 variables of degree 1 exceed budget 1000000"


def test_monomial_count_is_refused_from_its_lower_bound():
    # C(199999, 100000) >= 2^99999: refused before it is formed
    with pytest.raises(BudgetExceeded) as exc:
        num_monomials(100000, 100000)
    assert exc.value.needed == "2^99999"
    assert str(exc.value) == "2^99999 or more monomials of degree 100000 in 100000 variables exceed budget 1000000"
    assert num_monomials(20, 10 ** 50) == math.comb(10 ** 50 + 19, 19)  # min(n - 1, d) = 19 is formed


def test_descending_lex_order():
    exps = enumerate_exponents(3, 3)
    assert all(exps[i] > exps[i + 1] for i in range(len(exps) - 1))


def test_index_round_trip():
    assert _index_map(2, 2)[(1, 1)] == 1
    for i, alpha in enumerate(enumerate_exponents(3, 3)):
        assert _index_map(3, 3)[alpha] == i
    assert len(_index_map(3, 3)) == num_monomials(3, 3)


def test_multinomial_examples():
    f2, f5, q = parse_field("F2"), parse_field("F5"), rationals()
    n, img = multinomial(2, (1, 1), f2)
    assert n == 2 and img.v == 0
    n, img = multinomial(3, (2, 1), q)
    assert n == 3 and str(img) == "3/1"
    n, img = multinomial(4, (2, 2), f5)
    assert n == 6 and img.value == (1,)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("d", range(0, 6))
def test_multinomial_sum_identity(n, d):
    q = rationals()
    total = sum(multinomial(d, alpha, q)[0] for alpha in enumerate_exponents(n, d))
    assert total == n ** d


def test_eval_monomial_examples():
    q = rationals()
    t = (int_in_field(q, 2), int_in_field(q, 3))
    assert str(eval_monomial(t, (1, 1))) == "6/1"
    t2 = (int_in_field(q, 0), int_in_field(q, 5))
    assert str(eval_monomial(t2, (2, 0))) == "0/1"
    ones = tuple(int_in_field(q, 1) for _ in range(3))
    for alpha in enumerate_exponents(3, 4):
        assert str(eval_monomial(ones, alpha)) == "1/1"


def test_eval_monomial_zero_to_the_zero():
    f = parse_field("F3")
    t = (f.zero(), f.one())
    assert eval_monomial(t, (0, 2)) == f.one()


@pytest.mark.parametrize("n, d", [(0, 2), (-1, 0), (2, -1)])
def test_enumerate_exponents_rejects_bad_params(n, d):
    with pytest.raises(BadParams):
        enumerate_exponents(n, d)


def _shift_reference(n, d):
    """_shift_table by looking each gamma + e_j up in the degree-d index map."""
    idx = _index_map(n, d)
    return tuple(tuple(idx[g[:j] + (g[j] + 1,) + g[j + 1:]] for j in range(n)) for g in enumerate_exponents(n, d - 1))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("d", range(1, 9))
def test_shift_table_matches_the_index_map(n, d):
    assert _shift_table(n, d) == _shift_reference(n, d)


def test_shift_table_in_one_variable():
    for d in range(1, 40):
        assert _shift_table(1, d) == ((0,),)


def test_shift_table_in_a_thousand_variables():
    # no recursion per variable: n = 1000 is the exponent cap's reach at d = 1
    assert _shift_table(1000, 1) == _shift_reference(1000, 1) == (tuple(range(1000)),)


def test_shift_table_is_refused_past_the_entry_cap():
    # N(3, 999) * 3 entries, refused before any row is listed
    with pytest.raises(BudgetExceeded, match=r"^1501500 shift-table entries in 3 variables of degree 1000 exceed budget"):
        _shift_table(3, 1000)


def test_shift_tables_past_sixteen_degrees_are_built_once(monkeypatch):
    # sym_power reads degrees 1..d in turn on every call; none is built again
    _shift_table.cache_clear()
    monkeypatch.setattr(monomials, "_shift_entries", 0)
    first = [_shift_table(3, k) for k in range(1, 31)]
    assert all(_shift_table(3, k) is t for k, t in enumerate(first, 1))
    assert _shift_table.cache_info().currsize == 30


def test_kept_shift_tables_stay_under_the_entry_cap(monkeypatch):
    # degrees 1..10 in 3 variables hold 660 entries, more than the cap of 300
    _shift_table.cache_clear()
    monkeypatch.setattr(monomials, "ENUM_BUDGET", 300)
    monkeypatch.setattr(monomials, "_shift_entries", 0)
    sizes = {}
    for _ in range(2):
        for k in range(1, 11):
            t = _shift_table(3, k)
            assert t == _shift_reference(3, k)
            sizes[k] = 3 * len(t)
            assert monomials._shift_entries <= 300
    # the cache was emptied at degrees 8 and 10, then 6 and 9; it holds 9 and 10
    assert _shift_table.cache_info().currsize == 2 and monomials._shift_entries == sizes[9] + sizes[10] == 300
    _shift_table.cache_clear()
