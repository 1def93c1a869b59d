"""The symmetric-power kernel against the constructions it replaced.

Each reference below is the routine as it stood before sym_power: linear
form powers from multinomial coefficients, rho_d and substitution from
products of those powers, power subspaces from one product per multiset
of basis forms, and Veronese images spanned at a (d+1)^dim grid or at one
vector per 1-space.  They are compared with the kernel on seeded inputs
over F2, F3, F4, F5, F8, F9, F243, F257 and Q for n <= 4 and d <= 4,
which covers q <= d, q = d + 1, d = 1, p <= d (where multinomials
vanish) and the zero subspace.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from verolab import (
    BudgetExceeded,
    HomogPoly,
    Matrix,
    full_subspace,
    parse_field,
    power_subspace,
    rationals,
    rho_d,
    span,
    sym_power,
    veronese_subspace,
    veronese_vector,
    zero_subspace,
)
from verolab.field import Scalar
from verolab.linalg import combine_basis, projective_vectors
from verolab.monomials import enumerate_exponents, multinomial, num_monomials
from verolab.polyalgebra import linear_form_power, poly_mul

FIELDS = ["F2", "F3", "F4", "F5", "F8", "F9", "F243", "F257", "Q"]
DEGREES = range(1, 5)


def _field(name):
    return rationals() if name == "Q" else parse_field(name)


def _raw(f, rng):
    if f.is_finite:
        return rng.randrange(f.q)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _vector(f, rng, n):
    return tuple(Scalar(f, _raw(f, rng)) for _ in range(n))


def _form(f, rng, n):
    return HomogPoly.linear_form(_vector(f, rng, n))


def _subspaces(f, rng, n):
    """The zero subspace, then one seeded subspace of each dimension 1..n."""
    out = [zero_subspace(f, n)]
    for dim in range(1, n + 1):
        while True:
            u = span([_vector(f, rng, n) for _ in range(dim)], n, f)
            if u.dim == dim:
                out.append(u)
                break
    return out


# ----------------------------------------------------------------------
# references: the constructions before the kernel
# ----------------------------------------------------------------------

def _ref_linear_form_power(form, d):
    fld = form.field
    out = []
    for alpha in enumerate_exponents(form.n, d):
        _, c = multinomial(d, alpha, fld)
        acc = c.v
        for ti, a in zip(form.coeffs, alpha):
            if a:
                acc = fld.mul(acc, (ti ** a).v)
        out.append(acc)
    return HomogPoly.from_raw(fld, form.n, d, out)


def _ref_product_of_powers(forms, alpha):
    prod = None
    for g, a in zip(forms, alpha):
        if a:
            piece = _ref_linear_form_power(g, a)
            prod = piece if prod is None else poly_mul(prod, piece)
    return prod


def _ref_rho_d(t_mat, d):
    forms = [HomogPoly.linear_form(t_mat.row(i)) for i in range(t_mat.rows)]
    return Matrix.from_rows(
        t_mat.field, [_ref_product_of_powers(forms, a).coeffs for a in enumerate_exponents(t_mat.rows, d)])


def _ref_power_subspace(t, d):
    forms = [HomogPoly.linear_form(r) for r in t.basis.row_list()]
    gens = []
    for combo in itertools.combinations_with_replacement(range(len(forms)), d):
        alpha = tuple(combo.count(i) for i in range(len(forms)))
        gens.append(_ref_product_of_powers(forms, alpha).coeffs)
    return span(gens, num_monomials(t.ambient_dim, d), t.field)


def _ref_substitute(f_poly, images):
    fld = f_poly.field
    out = HomogPoly.zero(fld, f_poly.n, f_poly.d)
    for c, alpha in zip(f_poly.coeffs, enumerate_exponents(f_poly.n, f_poly.d)):
        if c.v != fld.zero_raw:
            term = _ref_product_of_powers(images, alpha)
            if term is None:  # d = 0: substitution fixes constants
                term = HomogPoly.from_raw(fld, f_poly.n, 0, [fld.one_raw])
            out = out + HomogPoly.from_raw(fld, term.n, term.d, [fld.mul(c.v, v) for v in term.raw])
    return out


def _ref_grid_image(u, d):
    """Images at the coefficient grid S^dim, |S| = d + 1 distinct elements."""
    f = u.field
    grid = range(d + 1) if f.is_finite else [Fraction(c) for c in range(d + 1)]
    vecs = combine_basis(u, itertools.product(grid, repeat=u.dim))
    return span([veronese_vector(v, d) for v in vecs], num_monomials(u.ambient_dim, d), f)


def _ref_projective_image(u, d):
    vecs = projective_vectors(u)
    return span([veronese_vector(v, d) for v in vecs], num_monomials(u.ambient_dim, d), u.field)


# ----------------------------------------------------------------------
# differential tests
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", FIELDS)
def test_linear_form_power_matches_multinomial_formula(name):
    f = _field(name)
    rng = random.Random(f"power-{name}")
    for n in range(1, 5):
        for d in range(0, 5):
            for _ in range(3):
                form = _form(f, rng, n)
                assert linear_form_power(form, d) == _ref_linear_form_power(form, d), (n, d)


@pytest.mark.parametrize("name", FIELDS)
def test_rho_d_matches_product_of_powers(name):
    f = _field(name)
    rng = random.Random(f"rho-{name}")
    for n in range(1, 5):
        for d in DEGREES:
            m = Matrix.from_raw_rows(f, [[_raw(f, rng) for _ in range(n)] for _ in range(n)], n)
            assert rho_d(m, d) == _ref_rho_d(m, d), (n, d)


@pytest.mark.parametrize("name", FIELDS)
def test_power_subspace_matches_combination_products(name):
    f = _field(name)
    rng = random.Random(f"powsub-{name}")
    for n in range(1, 5):
        for t in _subspaces(f, rng, n):
            for d in DEGREES:
                assert power_subspace(t, d) == _ref_power_subspace(t, d), (n, t.dim, d)


@pytest.mark.parametrize("name", FIELDS)
def test_substitute_matches_termwise_expansion(name):
    f = _field(name)
    rng = random.Random(f"subst-{name}")
    for n in range(1, 5):
        for d in range(0, 5):
            poly = HomogPoly.from_raw(f, n, d, [_raw(f, rng) for _ in range(num_monomials(n, d))])
            images = [_form(f, rng, n) for _ in range(n)]
            # substitution is the coefficient vector of poly times Sym^d of the images
            sym = Matrix.from_raw_rows(f, sym_power([g.raw for g in images], d, f))
            got = Matrix.from_raw_rows(f, [poly.raw]) * sym
            assert got.raw[0] == _ref_substitute(poly, images).raw, (n, d)


@pytest.mark.parametrize("name", FIELDS)
def test_veronese_subspace_matches_grid_and_projective_spans(name):
    f = _field(name)
    rng = random.Random(f"image-{name}")
    for n in range(1, 5):
        for u in _subspaces(f, rng, n):
            for d in DEGREES:
                got = veronese_subspace(u, d)
                if not f.is_finite or f.q > d:
                    assert got == _ref_grid_image(u, d), (n, u.dim, d)
                if f.is_finite and f.q ** u.dim <= 10 ** 4:
                    assert got == _ref_projective_image(u, d), (n, u.dim, d)


def test_veronese_subspace_small_field_cases_named():
    # q <= d (projective path), q = d + 1 and p <= d (kernel path), each
    # against the projective span of all of K^3, or K^2 for F243
    cases = (("F2", 1), ("F2", 2), ("F2", 3), ("F3", 2), ("F3", 3), ("F3", 4), ("F4", 3), ("F5", 4), ("F243", 3))
    for name, d in cases:
        f = parse_field(name)
        u = full_subspace(f, 2 if f.q > 9 else 3)
        assert veronese_subspace(u, d) == _ref_projective_image(u, d), (name, d)


# ----------------------------------------------------------------------
# the kernel itself
# ----------------------------------------------------------------------

def test_sym_power_degenerate_shapes():
    f = parse_field("F5")
    rows = [[1, 2, 3], [0, 4, 1]]
    assert sym_power([], 3, f) == []
    assert sym_power(rows, 0, f) == [[f.one_raw]]
    assert sym_power(rows, 1, f) == rows  # Sym^1 is the matrix itself
    assert len(sym_power(rows, 3, f)) == num_monomials(2, 3)
    assert all(len(r) == num_monomials(3, 3) for r in sym_power(rows, 3, f))


def test_power_subspace_of_zero_subspace_is_zero():
    for name in FIELDS:
        f = _field(name)
        assert power_subspace(zero_subspace(f, 3), 2).is_zero()
        assert veronese_subspace(zero_subspace(f, 3), 2).is_zero()


def test_sym_power_budget_is_checked_before_building():
    f = parse_field("F2")
    with pytest.raises(BudgetExceeded):
        power_subspace(full_subspace(f, 40), 8)
    with pytest.raises(BudgetExceeded):
        rho_d(Matrix.identity(f, 40), 8)
