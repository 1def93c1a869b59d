"""Homogeneous components of K[x1, ..., xn]: products, powers, power
subspaces, product spaces, and the diagonal rescaling that identifies
powerpoints with degree-d monomial evaluation vectors.

One kernel builds every symmetric power: sym_power(rows, d, field) is the
matrix Sym^d of a list of linear forms, whose row beta holds the
coefficients of prod_i (rows[i] . x)^beta_i.  Powers of one linear form,
power subspaces <T^d>, substitution, and (in the veronese module) rho_d
and the span of a Veronese image are all read off that matrix.

A HomogPoly is a coefficient vector over the monomial order fixed by the
monomials module.  Subspaces of a homogeneous component are plain
Subspaces of K^dim(A_d); the variable count and degree travel as explicit
arguments where they cannot be inferred.

Text syntax for polynomials (CLI fixtures): terms "c*x1^a1*...*xn^an"
joined by "+", e.g. "1*x1^2 + 2*x1^1*x2^1".  Coefficients use the scalar
fixture syntax; exponents default to 1 when "^a" is omitted and variables
not mentioned in a term have exponent 0.
"""

from __future__ import annotations

from .errors import BadCharacteristic, BudgetExceeded, DegreeMismatch, FieldMismatch
from .field import FieldSpec, Scalar, scalar_from_str
from .linalg import ENUM_BUDGET, Matrix, Subspace, full_subspace, span, span_raw, subspace_intersect
from .monomials import enumerate_exponents, eval_monomial, multinomial, num_monomials
from .monomials import _index_map, _parent_steps, _shift_table


class HomogPoly:
    """A homogeneous polynomial of degree d in n variables."""

    __slots__ = ("field", "n", "d", "coeffs")

    def __init__(self, field: FieldSpec, n: int, d: int, coeffs: tuple[Scalar, ...]) -> None:
        if len(coeffs) != num_monomials(n, d):
            raise DegreeMismatch(f"{len(coeffs)} coefficients for (n, d) = ({n}, {d})")
        self.field = field
        self.n = n
        self.d = d
        self.coeffs = coeffs

    @classmethod
    def from_raw(cls, field: FieldSpec, n: int, d: int, raw) -> HomogPoly:
        return cls(field, n, d, tuple(Scalar(field, v) for v in raw))

    @classmethod
    def zero(cls, field: FieldSpec, n: int, d: int) -> HomogPoly:
        return cls.from_raw(field, n, d, [field.zero_raw] * num_monomials(n, d))

    @classmethod
    def monomial(cls, field: FieldSpec, n: int, alpha: tuple[int, ...]) -> HomogPoly:
        d = sum(alpha)
        raw = [field.zero_raw] * num_monomials(n, d)
        raw[_index_map(n, d)[tuple(alpha)]] = field.one_raw
        return cls.from_raw(field, n, d, raw)

    @classmethod
    def linear_form(cls, coeffs_on_x: tuple[Scalar, ...]) -> HomogPoly:
        """The form c1*x1 + ... + cn*xn; degree-1 monomial order is x1..xn."""
        f = coeffs_on_x[0].f
        return cls(f, len(coeffs_on_x), 1, tuple(coeffs_on_x))

    def raw(self) -> list:
        return [s.v for s in self.coeffs]

    def is_zero(self) -> bool:
        z = self.field.zero_raw
        return all(s.v == z for s in self.coeffs)

    def evaluate(self, t) -> Scalar:
        f = self.field
        acc = f.zero_raw
        add, mul = f.add, f.mul
        for c, alpha in zip(self.coeffs, enumerate_exponents(self.n, self.d)):
            if c.v != f.zero_raw:
                acc = add(acc, mul(c.v, eval_monomial(t, alpha).v))
        return Scalar(f, acc)

    def __add__(self, other: HomogPoly) -> HomogPoly:
        self._check(other, same_degree=True)
        f = self.field
        return HomogPoly.from_raw(f, self.n, self.d, [f.add(a.v, b.v) for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: HomogPoly) -> HomogPoly:
        return poly_mul(self, other)

    def __pow__(self, e: int) -> HomogPoly:
        return poly_pow(self, e)

    def scale(self, c: Scalar) -> HomogPoly:
        f = self.field
        return HomogPoly.from_raw(f, self.n, self.d, [f.mul(c.v, s.v) for s in self.coeffs])

    def _check(self, other: HomogPoly, same_degree: bool = False) -> None:
        if self.field != other.field or self.n != other.n:
            raise FieldMismatch("polynomials over different rings")
        if same_degree and self.d != other.d:
            raise DegreeMismatch(f"degree {self.d} vs {other.d}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogPoly)
            and self.field == other.field
            and (self.n, self.d) == (other.n, other.d)
            and all(a.v == b.v for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.d, tuple(s.v for s in self.coeffs)))

    def __repr__(self) -> str:
        return f"HomogPoly({self.field.name}, n={self.n}, d={self.d}: {format_poly(self)})"


def poly_mul(f_poly: HomogPoly, g_poly: HomogPoly) -> HomogPoly:
    """Exact convolution over exponent addition: A_a x A_b -> A_{a+b}."""
    f_poly._check(g_poly)
    fld = f_poly.field
    n = f_poly.n
    d = f_poly.d + g_poly.d
    add, mul = fld.add, fld.mul
    zero = fld.zero_raw
    idx = _index_map(n, d)
    out = [zero] * num_monomials(n, d)
    exps_f = enumerate_exponents(n, f_poly.d)
    exps_g = enumerate_exponents(n, g_poly.d)
    raw_f = f_poly.raw()
    raw_g = g_poly.raw()
    for i, a in enumerate(raw_f):
        if a == zero:
            continue
        alpha = exps_f[i]
        for j, b in enumerate(raw_g):
            if b == zero:
                continue
            beta = exps_g[j]
            k = idx[tuple(x + y for x, y in zip(alpha, beta))]
            out[k] = add(out[k], mul(a, b))
    return HomogPoly.from_raw(fld, n, d, out)


def poly_pow(f_poly: HomogPoly, e: int) -> HomogPoly:
    """e-fold product; linear forms go through sym_power."""
    if e < 0:
        raise DegreeMismatch("negative power")
    if e == 0:
        fld = f_poly.field
        return HomogPoly.from_raw(fld, f_poly.n, 0, [fld.one_raw])
    if f_poly.d == 1:
        return linear_form_power(f_poly, e)
    out = f_poly
    for _ in range(e - 1):
        out = poly_mul(out, f_poly)
    return out


def sym_power(rows, d: int, field: FieldSpec) -> list[list]:
    """Sym^d of the linear forms rows (raw coefficient lists, n each).

    Row beta, in the degree-d monomial order over len(rows) variables,
    holds the coefficients of prod_i (rows[i] . x)^beta_i in the degree-d
    monomial order over n variables.  It is built degree by degree: row
    beta is row beta - e_i times form i, for i the first nonzero index of
    beta.  No rows give no rows; d = 0 gives the constant 1 per row.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    cells = num_monomials(m, d) * num_monomials(n, d)
    if cells > ENUM_BUDGET:
        raise BudgetExceeded(
            f"Sym^{d} of {m} forms in {n} variables has {cells} entries, over budget {ENUM_BUDGET}")
    zero = field.zero_raw
    add, mul = field.add, field.mul
    terms = [[(j, c) for j, c in enumerate(r) if c != zero] for r in rows]
    table = [[field.one_raw]]
    for k in range(1, d + 1):
        shift = _shift_table(n, k)
        width = num_monomials(n, k)
        nxt = []
        for parent, i in _parent_steps(m, k):
            out = [zero] * width
            form = terms[i]
            for c, sh in zip(table[parent], shift):
                if c != zero:
                    for j, l in form:
                        s = sh[j]
                        out[s] = add(out[s], mul(c, l))
            nxt.append(out)
        table = nxt
    return table


def linear_form_power(form: HomogPoly, d: int) -> HomogPoly:
    """(t1 x1 + ... + tn xn)^d, the one-row case of sym_power."""
    if form.d != 1:
        raise DegreeMismatch("linear form expected")
    return HomogPoly.from_raw(form.field, form.n, d, sym_power([form.raw()], d, form.field)[0])


# ----------------------------------------------------------------------
# subspaces of homogeneous components
# ----------------------------------------------------------------------

def component_space(field: FieldSpec, n: int, d: int) -> Subspace:
    """All of A_d as a subspace of itself (identity basis)."""
    return full_subspace(field, num_monomials(n, d))


def subspace_polys(s: Subspace, n: int, d: int) -> list[HomogPoly]:
    """Interpret the basis rows of s as degree-d polynomials."""
    if s.ambient_dim != num_monomials(n, d):
        raise DegreeMismatch(f"ambient {s.ambient_dim} is not dim A_{d} in {n} variables")
    return [HomogPoly(s.field, n, d, r) for r in s.basis.row_list()]


def power_subspace(t: Subspace, d: int) -> Subspace:
    """<T^d>: span of all d-fold products of elements of T <= A_1, i.e. the
    row space of sym_power over the canonical basis of T."""
    if d < 1:
        raise DegreeMismatch("power degree must be >= 1")
    fld = t.field
    return span_raw(sym_power(t.basis.raw_rows(), d, fld), num_monomials(t.ambient_dim, d), fld)


def product_space(p: Subspace, deg_p: int, q: Subspace, deg_q: int, n: int) -> Subspace:
    """<PQ>: span of pairwise products of basis elements of P <= A_i and
    Q <= A_j, inside A_{i+j}."""
    fld = p.field
    if fld != q.field:
        raise FieldMismatch("product of subspaces over different fields")
    pp = subspace_polys(p, n, deg_p)
    qq = subspace_polys(q, n, deg_q)
    return span([poly_mul(a, b).coeffs for a in pp for b in qq], num_monomials(n, deg_p + deg_q), fld)


def sigma_iso(n: int, d: int, field: FieldSpec) -> Matrix:
    """Diagonal matrix with entries 1/c(alpha) in monomial order.  Applied
    to the coefficients of (sum t_i x_i)^d it yields the vector of all
    degree-d monomial values t^alpha."""
    exps = enumerate_exponents(n, d)
    for alpha in exps:
        _, c = multinomial(d, alpha, field)
        if c.v == field.zero_raw:
            raise BadCharacteristic(f"c({alpha}) = 0 in {field.name}")
    m = len(exps)
    zero = field.zero_raw
    rows = []
    for i, alpha in enumerate(exps):
        _, c = multinomial(d, alpha, field)
        row = [zero] * m
        row[i] = field.inv(c.v)
        rows.append(row)
    return Matrix.from_raw_rows(field, rows, m)


def substitute(f_poly: HomogPoly, images) -> HomogPoly:
    """Replace x_i by images[i] (all degree 1) and expand: the coefficient
    vector of f times sym_power of the images."""
    images = list(images)
    if len(images) != f_poly.n or any(g.d != 1 or g.n != f_poly.n for g in images):
        raise DegreeMismatch("need one degree-1 image per variable")
    fld = f_poly.field
    n, d = f_poly.n, f_poly.d
    sym = Matrix.from_raw_rows(fld, sym_power([g.raw() for g in images], d, fld))
    return HomogPoly(fld, n, d, sym.transpose().apply(f_poly.coeffs))


def power_intersection_check(b: Subspace, c: Subspace, d: int) -> bool:
    """<B^d> cap <C^d> == <(B cap C)^d>, all three computed independently."""
    lhs = subspace_intersect(power_subspace(b, d), power_subspace(c, d))
    bc = subspace_intersect(b, c)
    if bc.is_zero():
        rhs = span([], lhs.ambient_dim, b.field)
    else:
        rhs = power_subspace(bc, d)
    return lhs == rhs


# ----------------------------------------------------------------------
# text syntax
# ----------------------------------------------------------------------

def format_poly(p: HomogPoly) -> str:
    zero = p.field.zero_raw
    terms = []
    for c, alpha in zip(p.coeffs, enumerate_exponents(p.n, p.d)):
        if c.v == zero:
            continue
        bits = [str(c)]
        for i, a in enumerate(alpha):
            if a:
                bits.append(f"x{i + 1}^{a}")
        terms.append("*".join(bits))
    return " + ".join(terms) if terms else "0"


def parse_poly(text: str, field: FieldSpec, n: int, d: int) -> HomogPoly:
    """Parse the term syntax into monomial order; rejects degree errors."""
    raw = [field.zero_raw] * num_monomials(n, d)
    idx = _index_map(n, d)
    text = text.strip()
    if text in ("", "0"):
        return HomogPoly.from_raw(field, n, d, raw)
    for term in text.split("+"):
        parts = [p.strip() for p in term.strip().split("*") if p.strip()]
        coeff = field.one()
        alpha = [0] * n
        for part in parts:
            if part.startswith("x"):
                var, _, exp = part.partition("^")
                i = int(var[1:]) - 1
                if not 0 <= i < n:
                    raise DegreeMismatch(f"variable {part!r} out of range")
                alpha[i] += int(exp) if exp else 1
            else:
                coeff = coeff * scalar_from_str(field, part)
        if sum(alpha) != d:
            raise DegreeMismatch(f"term {term.strip()!r} has degree {sum(alpha)}, expected {d}")
        k = idx[tuple(alpha)]
        raw[k] = field.add(raw[k], coeff.v)
    return HomogPoly.from_raw(field, n, d, raw)
