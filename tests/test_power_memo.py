"""power_subspace is memoised, and the memo lives inside one check.

run_check clears the memo before a check body runs and again after it
returns or raises, so no entry crosses checks: a kernel changed between
two checks is seen by the second one.
"""

from __future__ import annotations

import random

import pytest

from verolab import BudgetExceeded, parse_field, run_check
from verolab import harness, polyalgebra
from verolab.harness import _random_subspace
from verolab.linalg import span_raw
from verolab.monomials import num_monomials
from verolab.polyalgebra import power_subspace, sym_power

C5_3 = {"field": "F2", "n": 4, "d": 2, "trials": 20}


def test_memo_is_empty_after_a_check_returns():
    assert run_check("C5_3", C5_3).passed
    assert power_subspace.cache_info().currsize == 0


def _with_body(monkeypatch, body):
    monkeypatch.setitem(harness.CHECK_REGISTRY, "C5_3", harness.CHECK_REGISTRY["C5_3"]._replace(body=body))


def test_memo_is_empty_after_a_check_raises(monkeypatch):
    def fills_then_refuses(f, seed, budget, n, d, trials):
        power_subspace(_random_subspace(random.Random(seed), f, n, 2), d)
        assert power_subspace.cache_info().currsize == 1
        raise BudgetExceeded("test cells", 2, 1)

    _with_body(monkeypatch, fills_then_refuses)
    with pytest.raises(BudgetExceeded):
        run_check("C5_3", C5_3)
    assert power_subspace.cache_info().currsize == 0


def test_memo_is_cleared_before_a_check_runs(monkeypatch):
    power_subspace(_random_subspace(random.Random(1), parse_field("F2"), 4, 2), 2)

    def sees_empty_memo(f, seed, budget, n, d, trials):
        return "exhaustive", True, power_subspace.cache_info().currsize == 0, None, {}

    _with_body(monkeypatch, sees_empty_memo)
    assert run_check("C5_3", C5_3).passed


def test_no_entry_crosses_checks(monkeypatch):
    assert run_check("C5_3", C5_3).passed

    sym_table = polyalgebra._sym_table

    def last_row_dropped(rows, d, field):
        return sym_table(rows, d, field)[:-1]

    monkeypatch.setattr(polyalgebra, "_sym_table", last_row_dropped)
    assert not run_check("C5_3", C5_3).passed


@pytest.mark.parametrize("name", ["F2", "F5", "F64", "Q"])
def test_memo_hit_equals_a_fresh_power_subspace(name):
    f = parse_field(name)
    rng = random.Random(f"memo:{name}")
    for n, dim, d in ((3, 2, 2), (4, 3, 3), (4, 1, 4), (2, 2, 5)):
        t = _random_subspace(rng, f, n, dim)
        first = power_subspace(t, d)
        hits = power_subspace.cache_info().hits
        again = power_subspace(t, d)
        assert power_subspace.cache_info().hits == hits + 1
        assert again is first
        assert again == span_raw(sym_power(t.basis.raw, d, f), num_monomials(n, d), f)
