"""Homogeneous polynomial arithmetic and subspace operations."""

from __future__ import annotations

import math
import random

import pytest

from verolab import (
    BadCharacteristic,
    DegreeMismatch,
    HomogPoly,
    component_space,
    format_poly,
    parse_field,
    parse_poly,
    poly_mul,
    poly_pow,
    power_intersection_check,
    power_subspace,
    product_space,
    rationals,
    sigma_iso,
    span,
    subspace_intersect,
    veronese_vector,
)
from verolab.field import Scalar
from verolab.monomials import num_monomials
from verolab.polyalgebra import linear_form_power

F2 = parse_field("F2")
F3 = parse_field("F3")
F5 = parse_field("F5")
Q = rationals()


def unit_rows(f, n, k):
    return [tuple(f.one() if j == i else f.zero() for j in range(n)) for i in range(k)]


def test_poly_mul_examples():
    x1 = parse_poly("1*x1^1", Q, 2, 1)
    x2 = parse_poly("1*x2^1", Q, 2, 1)
    assert format_poly(x1 * x2) == "1/1*x1^1*x2^1"
    s = parse_poly("1*x1^1 + 1*x2^1", Q, 2, 1)
    d = parse_poly("1*x1^1 + -1*x2^1", Q, 2, 1)
    assert format_poly(s * d) == "1/1*x1^2 + -1/1*x2^2"


def test_poly_pow_examples():
    x1 = parse_poly("1*x1^1", Q, 2, 1)
    assert format_poly(poly_pow(x1, 3)) == "1/1*x1^3"
    s_q = parse_poly("1*x1 + 1*x2", Q, 2, 1)
    assert [str(c) for c in poly_pow(s_q, 2).coeffs] == ["1/1", "2/1", "1/1"]
    s_2 = parse_poly("1*x1 + 1*x2", F2, 2, 1)
    assert [c.v for c in poly_pow(s_2, 2).coeffs] == [1, 0, 1]


def test_linear_form_power_matches_repeated_mul():
    rng = random.Random(8)
    for _ in range(20):
        form = HomogPoly.from_raw(F3, 3, 1, [rng.randrange(3) for _ in range(3)])
        direct = linear_form_power(form, 3)
        naive = poly_mul(poly_mul(form, form), form)
        assert direct == naive


def test_power_subspace_dims():
    t = span(unit_rows(F3, 4, 2), 4, F3)
    assert power_subspace(t, 3).dim == 4  # C(3+2-1, 3)
    one_dim = span(unit_rows(F3, 4, 1), 4, F3)
    assert power_subspace(one_dim, 5).dim == 1
    full = span(unit_rows(F3, 3, 3), 3, F3)
    assert power_subspace(full, 2).dim == num_monomials(3, 2)


@pytest.mark.parametrize("q", [2, 3])
def test_power_subspace_dimension_formula(q):
    f = parse_field(f"F{q}")
    rng = random.Random(q)
    for dim_t in range(1, 5):
        for d in range(1, 5):
            while True:
                rows = [tuple(Scalar(f, rng.randrange(q)) for _ in range(4)) for _ in range(dim_t)]
                t = span(rows, 4, f)
                if t.dim == dim_t:
                    break
            assert power_subspace(t, d).dim == math.comb(d + dim_t - 1, d)


def test_product_space_examples():
    x1 = span([tuple([F3.one(), F3.zero()])], 2, F3)
    sq = product_space(x1, 1, x1, 1, 2)
    assert sq.dim == 1 and [s.v for s in sq.basis.row(0)] == [1, 0, 0]
    # degree-1 times a k-space: dim kn - C(k, 2)
    for n, k, expect in ((4, 2, 7), (3, 2, 5), (4, 3, 9)):
        h = span(unit_rows(F2, n, k), n, F2)
        a1 = component_space(F2, n, 1)
        assert product_space(a1, 1, h, 1, n).dim == expect


def test_sigma_iso_examples():
    assert [str(s) for s in sigma_iso(2, 2, Q)] == ["1/1", "1/2", "1/1"]
    with pytest.raises(BadCharacteristic):
        sigma_iso(2, 2, F2)


def test_sigma_sends_powers_to_monomial_vectors():
    sig = sigma_iso(2, 2, F5)
    t = (Scalar(F5, 1), Scalar(F5, 2))
    p = poly_pow(HomogPoly.linear_form(t), 2)
    assert tuple(s * c for s, c in zip(sig, p.coeffs)) == veronese_vector(t, 2)


def test_sigma_allowed_when_no_multinomial_vanishes():
    # binomials of 3 are all odd, so the two-variable map exists in char 2
    sig = sigma_iso(2, 3, F2)
    t = (F2.one(), F2.one())
    p = poly_pow(HomogPoly.linear_form(t), 3)
    assert tuple(s * c for s, c in zip(sig, p.coeffs)) == veronese_vector(t, 3)
    with pytest.raises(BadCharacteristic):
        sigma_iso(3, 3, F2)  # c(1,1,1) = 6 = 0


def test_power_intersection_trivial_cases():
    b = span(unit_rows(F3, 4, 2), 4, F3)
    assert power_intersection_check(b, b, 2)
    c = span([tuple([F3.zero(), F3.zero(), F3.one(), F3.zero()])], 4, F3)
    assert power_intersection_check(b, c, 2)  # disjoint: both sides zero
    lhs = subspace_intersect(power_subspace(b, 2), power_subspace(c, 2))
    assert lhs.dim == 0


def test_power_intersection_random():
    rng = random.Random(77)
    for q in (2, 3):
        f = parse_field(f"F{q}")
        for d in (2, 3):
            for _ in range(25):
                rows_b = [tuple(Scalar(f, rng.randrange(q)) for _ in range(4)) for _ in range(rng.randint(0, 4))]
                rows_c = [tuple(Scalar(f, rng.randrange(q)) for _ in range(4)) for _ in range(rng.randint(0, 4))]
                b = span(rows_b, 4, f)
                c = span(rows_c, 4, f)
                assert power_intersection_check(b, c, d)


def test_parse_format_round_trip():
    p = parse_poly("1*x1^2 + 2*x1^1*x2^1", F3, 2, 2)
    assert parse_poly(format_poly(p), F3, 2, 2) == p
    zero = parse_poly("0", Q, 3, 2)
    assert zero.is_zero() and format_poly(zero) == "0"
    with pytest.raises(DegreeMismatch):
        parse_poly("1*x1^1", F3, 2, 2)
