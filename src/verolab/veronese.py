"""The degree-d monomial-evaluation map K^n -> K^N, its action on
subspaces, and the substitution representation of invertible linear
maps on the degree-d component.

Conventions.  A linear map T on K^n is an n x n Matrix whose row i is
the image of the i-th basis vector; it acts on column vectors via
Matrix.apply.  rho_d(T) is the N x N matrix whose row alpha holds the
coefficients of prod_i (sum_j T[i][j] x_j)^(a_i) in monomial order: the
kernel polyalgebra.sym_power of the rows of T, which also gives
veronese_subspace.  veronese_vector evaluates monomials pointwise instead,
so checks comparing it with rho_d test two independent constructions.
Both identities below are plain matrix algebra, exercised by the harness:

    rho_d(T * S) == rho_d(T) * rho_d(S)
    veronese_vector(T.apply(t), d) == rho_d(T).apply(veronese_vector(t, d))

Over GF(q) the harness proves both, and that every rho_d(T) is
invertible, for all of GL(n, q) from the elementary matrices G
(transvections and diag(mu, 1, ..., 1); E. Artin, Geometric Algebra,
1957, ch. IV).  One walk from the identity follows the edges S -> G * S,
builds rho_d of each map once and tests rho_d(G * S) == rho_d(G) *
rho_d(S) on every edge; equivariance is tested for each G over every t.
Products of invertible generators are invertible, so the walk is
complete exactly when it reaches |GL(n, q)| = prod_{i<n} (q^n - q^i)
maps, and a shorter walk fails.  Then each T is a word G_k ... G_1, and
induction on k, with T' = G_(k-1) ... G_1 and rho_d(I) == I checked,
gives, for every T, S and t,

    rho_d(T * S) == rho_d(G_k) * rho_d(T' * S) == rho_d(G_k) * rho_d(T') * rho_d(S) == rho_d(T) * rho_d(S)
    v_d(T t) == rho_d(G_k) v_d(T' t) == rho_d(G_k) rho_d(T') v_d(t) == rho_d(T) v_d(t)

so rho_d(T) * rho_d(T^-1) == rho_d(I) == I.
"""

from __future__ import annotations

import random

from .errors import SingularT
from .field import FieldSpec, Scalar
from .linalg import Matrix, Subspace, Vector, projective_vectors, rank
from .linalg import _q_matrix, _span_int, span, zero_subspace
from .monomials import enumerate_exponents, num_monomials
from .polyalgebra import _sym_table, sym_matrix


def veronese_vector(t: Vector, d: int) -> Vector:
    """All degree-d monomial values of t, in monomial order, evaluated
    pointwise one variable at a time, from the last.  The degree-e values
    in t_j, ..., t_n are t_j^a * w, for a from e down to 0 and w over the
    degree-(e - a) values in t_(j+1), ..., t_n: descending lex order.
    Each value of each table is one product (none for a = 0), and the
    first variable needs degree d only.  enumerate_exponents(n, d) runs
    first, so a table past its cap is refused before any value is
    formed."""
    f = t[0].f
    enumerate_exponents(len(t), d)
    mul = f.mul
    tables = [[f.one_raw]] + [[]] * d  # in no variables, only degree 0 has a value
    for j in range(len(t) - 1, -1, -1):
        x = t[j].v
        pw = [f.one_raw, x]
        for _ in range(d - 1):
            pw.append(mul(pw[-1], x))
        tables = [[mul(pw[a], w) for a in range(e, 0, -1) for w in tables[e - a]] + tables[e]
                  for e in (range(d, d + 1) if j == 0 else range(d + 1))]
    return tuple(Scalar(f, v) for v in tables[-1])


def veronese_point(t: Vector, d: int) -> Subspace:
    """The 1-space spanned by the image of t."""
    v = veronese_vector(t, d)
    return span([v], len(v), t[0].f)


def veronese_subspace(u: Subspace, d: int) -> Subspace:
    """Span of the images of all vectors of u.

    Write v = sum_k c_k b_k over the basis b of u.  Coordinate j of v is
    the linear form (column j of b) . c, so the image of v is S v_d(c),
    where S = sym_power(b^T, d) has one row per degree-d monomial in the
    n coordinates and one column per degree-d monomial in c.  When q > d
    or over Q, the degree-d monomials are linearly independent functions
    on K^dim (a polynomial of degree <= d < q in each variable that
    vanishes on all of K^dim is zero), so the vectors v_d(c) span all of
    K^N(dim, d) and the image spans exactly the column space of S.  When
    q <= d that fails, and the span is taken over one vector per 1-space
    of u (images scale by lambda^d), raising BudgetExceeded if q^dim > ENUM_BUDGET.
    b is u's basis in integer form (ints): over Q its primitive integer
    rows, another basis of u, so no Fraction is built.
    """
    f = u.field
    big_n = num_monomials(u.ambient_dim, d)
    if u.is_zero():
        return zero_subspace(f, big_n)
    if f.is_finite and f.q <= d:
        vecs = projective_vectors(u)
        return span([veronese_vector(v, d) for v in vecs], big_n, f)
    s = _sym_table(list(zip(*u.ints)), d, f)
    return _span_int([list(col) for col in zip(*s)], big_n, f)


def rho_d(t_mat: Matrix, d: int) -> Matrix:
    """The linear map induced on the degree-d component by substituting
    x_i -> sum_j T[i][j] x_j; returned as an explicit N x N matrix, which
    is sym_power of the rows of T."""
    if t_mat.cols != t_mat.rows:
        raise SingularT("square matrix required")
    return sym_matrix(t_mat, d)


def random_invertible_matrix(rng: random.Random, f: FieldSpec, n: int) -> Matrix:
    while True:
        if f.is_finite:
            rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        m = _q_matrix(f, tuple(map(tuple, rows)), 1, n)
        if rank(m) == n:
            return m


def _equivariance_holds(t_mat: Matrix, rho: Matrix, vectors, d: int) -> bool:
    """veronese_vector(T t) == rho veronese_vector(t) for every t in
    vectors, where rho is rho_d(T)."""
    for t in vectors:
        if veronese_vector(t_mat.apply(t), d) != rho.apply(veronese_vector(t, d)):
            return False
    return True
