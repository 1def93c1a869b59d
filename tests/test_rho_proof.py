"""The exhaustive RHO check proves functoriality from elementary generators.

The check tests rho(g * b) == rho(g) * rho(b) only for g in the
elementary matrices and every b in GL(n, q), then walks the edges
b -> g * b from the identity.  These tests keep the old all-pairs loop as
a reference, check the walk reaches all of GL(n, q), feed the stage a
table that is not a homomorphism, drop generators, and count the
products so the quadratic loop cannot come back unnoticed.
"""

from __future__ import annotations

import itertools
import math

import pytest

from verolab import Matrix, parse_field, rho_d, run_check
from verolab import harness
from verolab.field import Scalar
from verolab.harness import _elementary_matrices, _rho_functoriality_witness, result_to_json
from verolab.linalg import rank
from verolab.monomials import num_monomials
from verolab.veronese import all_invertible_matrices, veronese_vector


def _key(m):
    return m


def _gl_order(n, q):
    return math.prod(q ** n - q ** i for i in range(n))


def _rho_table(f, n, d):
    mats = list(all_invertible_matrices(f, n))
    return mats, {_key(m): rho_d(m, d) for m in mats}


# ----------------------------------------------------------------------
# reference: the exhaustive path with the all-pairs functoriality loop
# ----------------------------------------------------------------------

def _reference_rho(params, seed, budget):
    f, n, d = harness._field(params), params["n"], params["d"]
    big_n = num_monomials(n, d)
    if rho_d(Matrix.identity(f, n), d) != Matrix.identity(f, big_n):
        return "exhaustive", True, False, {"identity": False}, {}
    mats = list(all_invertible_matrices(f, n))
    rhos = {}
    for m in mats:
        r = rho_d(m, d)
        rhos[_key(m)] = r
        if rank(r) != big_n:
            return "exhaustive", True, False, {"singular_rho": True}, {}
    vectors = [tuple(Scalar(f, c) for c in combo) for combo in itertools.product(range(f.q), repeat=n)]
    for m in mats:
        rm = rhos[_key(m)]
        for t in vectors:
            if veronese_vector(m.apply(t), d) != rm.apply(veronese_vector(t, d)):
                return "exhaustive", True, False, {"equivariance": True}, {}
    for a in mats:
        ra = rhos[_key(a)]
        for b in mats:
            if rhos[_key(a * b)] != ra * rhos[_key(b)]:
                return "exhaustive", True, False, {"functoriality": True}, {}
    return "exhaustive", True, True, None, {"maps": len(mats)}


@pytest.mark.parametrize("field,n,d", [
    (field, n, d)
    for field, n in (("F2", 2), ("F2", 3), ("F3", 2), ("F4", 2))
    for d in (2, 3)
])
def test_generator_proof_matches_all_pairs_reference(monkeypatch, field, n, d):
    params = {"field": field, "n": n, "d": d}
    got = result_to_json(run_check("RHO", params))
    reference = harness.CHECK_REGISTRY["RHO"]._replace(body=_reference_rho)
    monkeypatch.setitem(harness.CHECK_REGISTRY, "RHO", reference)
    want = result_to_json(run_check("RHO", params))
    assert got == want
    assert '"conclusion_ok":true' in got


# ----------------------------------------------------------------------
# the walk from the identity reaches all of GL(n, q)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n,q", [(1, q) for q in (2, 3, 4, 5, 7, 8, 9)] + [(2, q) for q in (2, 3, 4, 5, 7)] + [(3, 2)])
def test_elementary_matrices_generate_gl(n, q):
    f = parse_field(f"F{q}")
    assert q ** (n * n) <= 10 ** 5  # the exhaustive gate of RHO
    mats = list(all_invertible_matrices(f, n))
    assert len(mats) == _gl_order(n, q)
    gens = _elementary_matrices(f, n)
    assert len(gens) == n * (n - 1) * (q - 1) + (q - 2)
    # every rho is the 1 x 1 identity, so products always agree and the
    # witness is None exactly when the walk reaches every map
    one = Matrix.identity(f, 1)
    assert _rho_functoriality_witness(mats, {_key(m): one for m in mats}, gens) is None


# ----------------------------------------------------------------------
# a table that is not a homomorphism, and a generating set that falls short
# ----------------------------------------------------------------------

def test_stage_rejects_a_table_that_is_not_a_homomorphism():
    f = parse_field("F3")
    mats, rhos = _rho_table(f, 2, 2)
    gens = _elementary_matrices(f, 2)
    assert _rho_functoriality_witness(mats, rhos, gens) is None
    gen_keys = {_key(g) for g in gens} | {_key(Matrix.identity(f, 2))}
    victim = next(m for m in mats if _key(m) not in gen_keys)
    r = rhos[_key(victim)]
    rows = r.row_list()
    rows[0], rows[1] = rows[1], rows[0]  # still invertible, no longer rho
    bad = dict(rhos)
    bad[_key(victim)] = Matrix.from_rows(f, rows)
    assert _rho_functoriality_witness(mats, bad, gens) == {"functoriality": True}


def test_dropping_the_diagonal_generators_over_f3_never_passes(monkeypatch):
    f = parse_field("F3")
    mats, rhos = _rho_table(f, 2, 2)
    transvections = [g for g in _elementary_matrices(f, 2) if g.at(0, 0).v == f.one_raw]
    assert len(transvections) == 4
    # transvections generate SL(2, 3), half of GL(2, 3)
    wit = _rho_functoriality_witness(mats, rhos, transvections)
    assert wit == {"functoriality": "incomplete", "reached": 24, "maps": 48}

    def no_diagonals(field, n):
        return [g for g in _elementary_matrices(field, n) if g.at(0, 0).v == field.one_raw]

    monkeypatch.setattr(harness, "_elementary_matrices", no_diagonals)
    res = run_check("RHO", {"field": "F3", "n": 2, "d": 2})
    assert not res.passed
    assert res.conclusion_ok is False and res.witness["functoriality"] == "incomplete"
    assert "maps" not in res.data


# ----------------------------------------------------------------------
# work count: 2 products per (generator, map) pair, not |G|^2
# ----------------------------------------------------------------------

def test_rho_f2_n3_builds_each_rho_once(monkeypatch):
    from verolab import veronese

    calls = []

    def counting_rho(t_mat, d):
        calls.append(1)
        return rho_d(t_mat, d)

    monkeypatch.setattr(harness, "rho_d", counting_rho)
    monkeypatch.setattr(veronese, "rho_d", counting_rho)
    res = run_check("RHO", {"field": "F2", "n": 3, "d": 2})
    assert res.passed and res.data == {"maps": 168}
    assert len(calls) == 168 + 1  # each map, and the identity check


def test_rho_f2_n3_makes_two_products_per_generator_and_map(monkeypatch):
    calls = []
    mul = Matrix.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    res = run_check("RHO", {"field": "F2", "n": 3, "d": 2})
    assert res.passed and res.data == {"maps": 168}
    assert len(calls) == 2 * 6 * 168 == 2016
