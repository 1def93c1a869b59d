"""The exhaustive RHO check proves its three laws from elementary generators.

One walk starts at the identity and follows the edges b -> g * b for g
in the elementary matrices, building each map's rho once and testing
rho(g * b) == rho(g) * rho(b) on every edge; it is complete when it
reaches |GL(n, q)| maps.  Equivariance is tested for the generators
only, and invertibility follows from rho(T) * rho(T^-1) == rho(I) == I.
These tests keep the old all-maps sweeps and the all-pairs loop, on a
scan of all q^(n^2) matrices, as a reference; check that the walk
reaches exactly the maps of that scan; feed the check an rho that is not
a homomorphism at one map and one that is functorial but not
equivariant; drop generators; and count the rho builds and the products
so neither the scan nor the quadratic loop can come back unnoticed.
"""

from __future__ import annotations

import itertools
import math

import pytest

from verolab import Matrix, parse_field, rho_d, run_check
from verolab import harness
from verolab.field import Scalar
from verolab.harness import _elementary_matrices, _rho_walk, result_to_json
from verolab.linalg import rank
from verolab.monomials import num_monomials
from verolab.veronese import veronese_vector


def _gl_order(n, q):
    return math.prod(q ** n - q ** i for i in range(n))


def _invertible_matrices(f, n):
    """Every invertible n x n matrix over f: a rank filter over all q^(n^2)."""
    for combo in itertools.product(range(f.q), repeat=n * n):
        m = Matrix.from_raw_rows(f, [list(combo[i * n: (i + 1) * n]) for i in range(n)], n)
        if rank(m) == n:
            yield m


def _seed(f, n, d, gens):
    """The table _check_rho hands the walk: the identity's rho, then each
    generator's."""
    one = Matrix.identity(f, n)
    return {one: rho_d(one, d)} | {g: rho_d(g, d) for g in gens}


# ----------------------------------------------------------------------
# reference: sweeps over the scan of GL(n, q), and the all-pairs loop
# ----------------------------------------------------------------------

def _reference_rho(f, seed, budget, n, d, trials):
    big_n = num_monomials(n, d)
    if rho_d(Matrix.identity(f, n), d) != Matrix.identity(f, big_n):
        return "exhaustive", True, False, {"identity": False}, {}
    mats = list(_invertible_matrices(f, n))
    rhos = {}
    for m in mats:
        r = rho_d(m, d)
        rhos[m] = r
        if rank(r) != big_n:
            return "exhaustive", True, False, {"singular_rho": True}, {}
    vectors = [tuple(Scalar(f, c) for c in combo) for combo in itertools.product(range(f.q), repeat=n)]
    for m in mats:
        rm = rhos[m]
        for t in vectors:
            if veronese_vector(m.apply(t), d) != rm.apply(veronese_vector(t, d)):
                return "exhaustive", True, False, {"equivariance": True}, {}
    for a in mats:
        ra = rhos[a]
        for b in mats:
            if rhos[a * b] != ra * rhos[b]:
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
# the walk from the identity reaches exactly GL(n, q)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n,q", [(1, q) for q in (2, 3, 4, 5, 7, 8, 9)] + [(2, q) for q in (2, 3, 4, 5, 7)] + [(3, 2)])
def test_elementary_matrices_generate_gl(n, q):
    f = parse_field(f"F{q}")
    assert q ** (n * n) <= 10 ** 5  # the exhaustive gate of RHO
    mats = list(_invertible_matrices(f, n))
    assert len(mats) == _gl_order(n, q)
    gens = _elementary_matrices(f, n)
    assert len(gens) == n * (n - 1) * (q - 1) + (q - 2)
    # rho_1(T) is T itself, so every edge holds and the walk's table is
    # the set of maps it reached
    rhos = _seed(f, n, 1, gens)
    assert _rho_walk(rhos, gens, 1) is None
    assert set(rhos) == set(mats)
    assert all(rhos[m] == m for m in mats)


# ----------------------------------------------------------------------
# an rho that is not a homomorphism, one that is not equivariant, and a
# generating set that falls short
# ----------------------------------------------------------------------

def test_stage_rejects_a_table_that_is_not_a_homomorphism(monkeypatch):
    f = parse_field("F3")
    gens = _elementary_matrices(f, 2)
    rhos = _seed(f, 2, 2, gens)
    assert _rho_walk(dict(rhos), gens, 2) is None
    victim = next(m for m in _invertible_matrices(f, 2) if m not in rhos)  # neither a generator nor I

    def one_bad_rho(t_mat, d):
        r = rho_d(t_mat, d)
        if t_mat != victim:
            return r
        rows = r.row_list()
        rows[0], rows[1] = rows[1], rows[0]  # still invertible, no longer rho
        return Matrix.from_rows(f, rows)

    monkeypatch.setattr(harness, "rho_d", one_bad_rho)
    assert _rho_walk(dict(rhos), gens, 2) == {"functoriality": True}
    res = run_check("RHO", {"field": "F3", "n": 2, "d": 2})
    assert res.conclusion_ok is False and res.witness == {"functoriality": True}


@pytest.mark.parametrize("field,n,d", [("F2", 3, 2), ("F3", 2, 2), ("F4", 2, 3)])
def test_a_functorial_rho_that_is_not_equivariant_fails(monkeypatch, field, n, d):
    f = parse_field(field)
    big_n = num_monomials(n, d)
    perm = list(range(big_n))
    perm[0], perm[1] = perm[1], perm[0]
    swap = Matrix.from_raw_rows(f, [[f.one_raw if j == perm[i] else f.zero_raw for j in range(big_n)]
                                    for i in range(big_n)], big_n)

    def conjugated_rho(t_mat, d):  # swap * rho * swap^-1, and swap is its own inverse
        return swap * rho_d(t_mat, d) * swap

    monkeypatch.setattr(harness, "rho_d", conjugated_rho)
    one = Matrix.identity(f, n)
    assert conjugated_rho(one, d) == Matrix.identity(f, big_n)
    gens = _elementary_matrices(f, n)
    rhos = {one: conjugated_rho(one, d)} | {g: conjugated_rho(g, d) for g in gens}
    assert _rho_walk(rhos, gens, d) is None  # functorial on all of GL(n, q)
    res = run_check("RHO", {"field": field, "n": n, "d": d})
    assert res.conclusion_ok is False and res.witness == {"equivariance": True}


def test_dropping_the_diagonal_generators_over_f3_never_passes(monkeypatch):
    f = parse_field("F3")
    transvections = [g for g in _elementary_matrices(f, 2) if g.at(0, 0).v == f.one_raw]
    assert len(transvections) == 4
    # transvections generate SL(2, 3), half of GL(2, 3)
    wit = _rho_walk(_seed(f, 2, 2, transvections), transvections, 2)
    assert wit == {"functoriality": "incomplete", "reached": 24, "maps": 48}

    def no_diagonals(field, n):
        return [g for g in _elementary_matrices(field, n) if g.at(0, 0).v == field.one_raw]

    monkeypatch.setattr(harness, "_elementary_matrices", no_diagonals)
    res = run_check("RHO", {"field": "F3", "n": 2, "d": 2})
    assert not res.passed
    assert res.conclusion_ok is False and res.witness["functoriality"] == "incomplete"
    assert "maps" not in res.data


# ----------------------------------------------------------------------
# work count: one rho per map, 2 products per (generator, map) pair
# ----------------------------------------------------------------------

def test_rho_f2_n3_builds_each_rho_once(monkeypatch):
    built = []

    def counting_rho(t_mat, d):
        built.append(t_mat)
        return rho_d(t_mat, d)

    monkeypatch.setattr(harness, "rho_d", counting_rho)
    res = run_check("RHO", {"field": "F2", "n": 3, "d": 2})
    assert res.passed and res.data == {"maps": 168}
    # the identity check's rho seeds the walk, so it is not built again
    assert len(built) == len(set(built)) == 168


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
