"""Homogeneous components of K[x1, ..., xn]: products, powers, power
subspaces, product spaces, and the diagonal rescaling that identifies
powerpoints with degree-d monomial evaluation vectors.

One kernel builds every symmetric power: sym_power(rows, d, field) is the
matrix Sym^d of a list of linear forms, whose row beta holds the
coefficients of prod_i (rows[i] . x)^beta_i.  Powers of one linear form,
power subspaces <T^d>, and (in the veronese module) the substitution
action rho_d and the span of a Veronese image are all read off that
matrix.

A HomogPoly is a coefficient vector over the monomial order fixed by the
monomials module, stored as raw field values like a linalg Matrix.
Subspaces of a homogeneous component are plain Subspaces of K^dim(A_d);
the variable count and degree travel as explicit arguments where they
cannot be inferred.

Text syntax for polynomials (CLI fixtures): terms "c*x1^a1*...*xn^an"
joined by "+", e.g. "1*x1^2 + 2*x1^1*x2^1".  Coefficients use the scalar
fixture syntax; exponents default to 1 when "^a" is omitted and variables
not mentioned in a term have exponent 0.
"""

from __future__ import annotations

import functools
from operator import add

from .errors import BadCharacteristic, DegreeMismatch, FieldMismatch
from .field import FieldSpec, Scalar, scalar_from_str
from .linalg import ENUM_BUDGET, Matrix, Subspace, check_budget, full_subspace, subspace_intersect
from .linalg import _q_matrix, _span_int, zero_subspace
from .monomials import enumerate_exponents, multinomial, num_monomials
from .monomials import _index_map, _parent_steps, _shift_table


class HomogPoly:
    """A homogeneous polynomial of degree d in n variables.

    raw holds the coefficients as raw field values in monomial order.
    The constructor takes Scalars and from_raw takes raw values; coeffs
    gives the coefficients back as Scalars.
    """

    __slots__ = ("field", "n", "d", "raw")

    def __init__(self, field: FieldSpec, n: int, d: int, coeffs: tuple[Scalar, ...]) -> None:
        self._set(field, n, d, tuple(s.v for s in coeffs))

    @classmethod
    def from_raw(cls, field: FieldSpec, n: int, d: int, raw) -> HomogPoly:
        poly = cls.__new__(cls)
        poly._set(field, n, d, tuple(raw))
        return poly

    def _set(self, field: FieldSpec, n: int, d: int, raw: tuple) -> None:
        if len(raw) != num_monomials(n, d):
            raise DegreeMismatch(f"{len(raw)} coefficients for (n, d) = ({n}, {d})")
        self.field = field
        self.n = n
        self.d = d
        self.raw = raw

    @classmethod
    def zero(cls, field: FieldSpec, n: int, d: int) -> HomogPoly:
        return cls.from_raw(field, n, d, [field.zero_raw] * num_monomials(n, d))

    @classmethod
    def linear_form(cls, coeffs_on_x: tuple[Scalar, ...]) -> HomogPoly:
        """The form c1*x1 + ... + cn*xn; degree-1 monomial order is x1..xn."""
        f = coeffs_on_x[0].f
        return cls(f, len(coeffs_on_x), 1, tuple(coeffs_on_x))

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        f = self.field
        return tuple(Scalar(f, v) for v in self.raw)

    def is_zero(self) -> bool:
        z = self.field.zero_raw
        return all(v == z for v in self.raw)

    def __add__(self, other: HomogPoly) -> HomogPoly:
        self._check(other, same_degree=True)
        f = self.field
        return HomogPoly.from_raw(f, self.n, self.d, [f.add(a, b) for a, b in zip(self.raw, other.raw)])

    def __mul__(self, other: HomogPoly) -> HomogPoly:
        return poly_mul(self, other)

    def __pow__(self, e: int) -> HomogPoly:
        return poly_pow(self, e)

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
            and self.raw == other.raw
        )

    def __hash__(self) -> int:
        return hash((self.field, self.n, self.d, self.raw))

    def __repr__(self) -> str:
        return f"HomogPoly({self.field.name}, n={self.n}, d={self.d}: {format_poly(self)})"


def poly_mul(f_poly: HomogPoly, g_poly: HomogPoly) -> HomogPoly:
    """Exact convolution over exponent addition: A_a x A_b -> A_{a+b}."""
    f_poly._check(g_poly)
    fld = f_poly.field
    out = _convolve(f_poly.n, f_poly.raw, f_poly.d, g_poly.raw, g_poly.d, fld.fma, fld.zero_raw)
    return HomogPoly.from_raw(fld, f_poly.n, f_poly.d + g_poly.d, out)


def _convolve(n: int, a, da: int, b, db: int, fma, zero) -> list:
    """The coefficients of the product of the forms a and b of degrees da
    and db in n variables: one fma(acc, x, y) per pair of nonzero terms.
    poly_mul runs it on field values, and product_space on rows in
    integer form (ints), whose zero is 0 on every field."""
    d = da + db
    idx = _index_map(n, d)
    out = [zero] * num_monomials(n, d)
    terms_b = [(beta, y) for beta, y in zip(enumerate_exponents(n, db), b) if y != zero]
    for alpha, x in zip(enumerate_exponents(n, da), a):
        if x == zero:
            continue
        for beta, y in terms_b:
            k = idx[tuple(map(add, alpha, beta))]
            out[k] = fma(out[k], x, y)
    return out


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
    monomial order over n variables.  It is built degree by degree
    (_sym_table): row beta is row beta - e_i times form i, for i the
    first nonzero index of beta.  No rows give no rows; d = 0 gives the
    constant 1 per row.

    The rows go in as a Matrix and the raw rows of its sym_matrix come
    out, so over Q Fractions are formed at this boundary only.
    """
    return [list(r) for r in sym_matrix(Matrix.from_raw_rows(field, rows), d).raw]


def sym_matrix(m: Matrix, d: int) -> Matrix:
    """Sym^d of the rows of m (see sym_power), as a Matrix.  The table is
    built on m's integer rows (ints), so over Q, where m is ints / den,
    every row stands over den**d, and no Fraction is formed."""
    table = _sym_table(m.ints, d, m.field)
    cols = len(table[0]) if table else 0
    return _q_matrix(m.field, tuple(map(tuple, table)), m.den ** d, cols)


def check_sym_budget(m: int, n: int, d: int) -> None:
    """_sym_table's budget gate on Sym^d of m forms in n variables, which a
    caller may also run before it builds the forms.  The count in n
    variables is formed first, as power_subspace forms it before the table."""
    check_budget(f"entries of Sym^{d} of {m} forms in {n} variables", num_monomials(n, d) * num_monomials(m, d),
                 ENUM_BUDGET)


def _sym_table(rows, d: int, field: FieldSpec) -> list[list]:
    """The table of sym_power on rows in integer form (ints), whose zero
    and one are 0 and 1 on every field: over GF(q) one field.fma per
    term, and over Q inline int arithmetic with no call, left as ints."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    check_sym_budget(m, n, d)
    fma, over_q = field.fma, not field.is_finite
    terms = [[(j, c) for j, c in enumerate(r) if c] for r in rows]
    table = [[1]]
    for k in range(1, d + 1):
        shift = _shift_table(n, k)
        width = num_monomials(n, k)
        nxt = []
        for parent, i in _parent_steps(m, k):
            out = [0] * width
            form = terms[i]
            for c, sh in zip(table[parent], shift):
                if not c:
                    continue
                if over_q:
                    for j, l in form:
                        out[sh[j]] += c * l
                else:
                    for j, l in form:
                        s = sh[j]
                        out[s] = fma(out[s], c, l)
            nxt.append(out)
        table = nxt
    return table


def linear_form_power(form: HomogPoly, d: int) -> HomogPoly:
    """(t1 x1 + ... + tn xn)^d, the one-row case of sym_power."""
    if form.d != 1:
        raise DegreeMismatch("linear form expected")
    return HomogPoly.from_raw(form.field, form.n, d, sym_power([form.raw], d, form.field)[0])


# ----------------------------------------------------------------------
# subspaces of homogeneous components
# ----------------------------------------------------------------------

def component_space(field: FieldSpec, n: int, d: int) -> Subspace:
    """All of A_d as a subspace of itself (identity basis)."""
    return full_subspace(field, num_monomials(n, d))


def _check_component(s: Subspace, n: int, d: int) -> None:
    """DegreeMismatch unless s lies in K^dim(A_d), n variables."""
    if s.ambient_dim != num_monomials(n, d):
        raise DegreeMismatch(f"ambient {s.ambient_dim} is not dim A_{d} in {n} variables")


@functools.lru_cache(maxsize=1024)
def power_subspace(t: Subspace, d: int) -> Subspace:
    """<T^d>: span of all d-fold products of elements of T <= A_1, i.e. the
    row space of sym_power over the canonical basis of T.  The table
    (_sym_table) of T's integer rows (ints), whose rows are nonzero
    multiples of sym_power's, is spanned as it is (_span_int), so over Q
    no Fraction is built.

    Memoised on (T, d): sampled checks draw the same subspaces again and
    again.  harness.run_check clears the memo before and after each check
    body, so no entry outlives one check."""
    if d < 1:
        raise DegreeMismatch("power degree must be >= 1")
    fld = t.field
    return _span_int(_sym_table(t.ints, d, fld), num_monomials(t.ambient_dim, d), fld)


def product_space(p: Subspace, deg_p: int, q: Subspace, deg_q: int, n: int) -> Subspace:
    """<PQ>: span of pairwise products of basis elements of P <= A_i and
    Q <= A_j, inside A_{i+j}.  The products are taken of the integer rows
    (ints), which span the same spaces as the bases, and spanned by
    _span_int, so over Q no Fraction is built."""
    fld = p.field
    if fld != q.field:
        raise FieldMismatch("product of subspaces over different fields")
    check_budget(f"entries of the products of a {p.dim}-space of degree {deg_p} and a {q.dim}-space of degree "
                 f"{deg_q} in {n} variables", p.dim * q.dim * num_monomials(n, deg_p + deg_q), ENUM_BUDGET)
    _check_component(p, n, deg_p)
    _check_component(q, n, deg_q)
    return _span_int([_convolve(n, a, deg_p, b, deg_q, fld.fma, 0) for a in p.ints for b in q.ints],
                     num_monomials(n, deg_p + deg_q), fld)


def sigma_iso(n: int, d: int, field: FieldSpec) -> tuple[Scalar, ...]:
    """The diagonal of sigma: 1/c(alpha) in monomial order.  Multiplied
    entrywise into the coefficients of (sum t_i x_i)^d it yields the
    vector of all degree-d monomial values t^alpha."""
    diag = []
    for alpha in enumerate_exponents(n, d):
        _, c = multinomial(d, alpha, field)
        if not c:
            raise BadCharacteristic(f"c({alpha}) = 0 in {field.name}")
        diag.append(Scalar(field, field.inv(c.v)))
    return tuple(diag)


def power_intersection_check(b: Subspace, c: Subspace, d: int) -> bool:
    """<B^d> cap <C^d> == <(B cap C)^d>.  The three power subspaces come
    from separate power_subspace calls; within one check, an input seen
    before is served from power_subspace's memo."""
    lhs = subspace_intersect(power_subspace(b, d), power_subspace(c, d))
    bc = subspace_intersect(b, c)
    if bc.is_zero():
        rhs = zero_subspace(b.field, lhs.ambient_dim)
    else:
        rhs = power_subspace(bc, d)
    return lhs == rhs


# ----------------------------------------------------------------------
# text syntax
# ----------------------------------------------------------------------

def format_poly(p: HomogPoly) -> str:
    terms = []
    for c, alpha in zip(p.coeffs, enumerate_exponents(p.n, p.d)):
        if not c:
            continue
        bits = [str(c)]
        for i, a in enumerate(alpha):
            if a:
                bits.append(f"x{i + 1}^{a}")
        terms.append("*".join(bits))
    return " + ".join(terms) if terms else "0"


def parse_poly(text: str, field: FieldSpec, n: int, d: int) -> HomogPoly:
    """Parse the term syntax into monomial order; rejects degree errors."""
    coeffs = [field.zero()] * num_monomials(n, d)
    idx = _index_map(n, d)
    text = text.strip()
    if text in ("", "0"):
        return HomogPoly(field, n, d, coeffs)
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
        coeffs[k] = coeffs[k] + coeff
    return HomogPoly(field, n, d, coeffs)
