"""The degree-d monomial-evaluation map K^n -> K^N, its action on
subspaces, lifted functionals, and the substitution representation of
invertible linear maps on the degree-d component.

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

Over GF(q) the harness proves the first for all of GL(n, q) without
multiplying every pair: it tests rho_d(G * S) == rho_d(G) * rho_d(S) for
each elementary matrix G (transvections and diag(mu, 1, ..., 1)) and
every S, and walks the edges S -> G * S from the identity.  When the walk
reaches every map, each T is a word G_k ... G_1, and induction on k gives
the identity for every pair (T, S); a walk that falls short fails.
"""

from __future__ import annotations

import itertools
import random
import warnings
from fractions import Fraction

from .errors import SingularT
from .field import FieldSpec, Scalar
from .linalg import Matrix, Subspace, Vector, projective_vectors, rank, span, span_raw, zero_subspace
from .monomials import enumerate_exponents, eval_monomial, num_monomials
from .polyalgebra import HomogPoly, sym_power


def veronese_vector(t: Vector, d: int) -> Vector:
    """All degree-d monomial values of t, in monomial order.

    Degenerate parameters (n or d below 2) are flagged but allowed; the
    map degenerates to the identity or a constant there.
    """
    n = len(t)
    alphas = enumerate_exponents(n, d)  # raises BadParams before any warning
    if n < 2 or d < 2:
        warnings.warn(f"degenerate parameters (n={n}, d={d})", stacklevel=2)
    return tuple(eval_monomial(t, alpha) for alpha in alphas)


def veronese_point(t: Vector, d: int) -> Subspace:
    """The 1-space spanned by the image of t."""
    v = veronese_vector(t, d)
    return span([v], len(v), t[0].f)


def veronese_subspace(u: Subspace, d: int, budget: int = 10 ** 6) -> Subspace:
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
    of u (images scale by lambda^d), raising BudgetExceeded if q^dim > budget.
    """
    f = u.field
    big_n = num_monomials(u.ambient_dim, d)
    if u.is_zero():
        return zero_subspace(f, big_n)
    if f.is_finite and f.q <= d:
        vecs = projective_vectors(u, budget=budget)
        return span([veronese_vector(v, d) for v in vecs], big_n, f)
    s = sym_power(u.basis.transpose().raw_rows(), d, f)
    return span_raw([list(col) for col in zip(*s)], big_n, f)


def lift_functional(g: HomogPoly) -> Vector:
    """Coefficient vector a with dot(a, veronese_vector(t, d)) == g(t)."""
    return g.coeffs


def functional_dot(a: Vector, v: Vector) -> Scalar:
    f = a[0].f
    acc = f.zero_raw
    for x, y in zip(a, v):
        if x.v != f.zero_raw and y.v != f.zero_raw:
            acc = f.add(acc, f.mul(x.v, y.v))
    return Scalar(f, acc)


def rho_d(t_mat: Matrix, d: int) -> Matrix:
    """The linear map induced on the degree-d component by substituting
    x_i -> sum_j T[i][j] x_j; returned as an explicit N x N matrix, which
    is sym_power of the rows of T."""
    if t_mat.cols != t_mat.rows:
        raise SingularT("square matrix required")
    return Matrix.from_raw_rows(t_mat.field, sym_power(t_mat.raw_rows(), d, t_mat.field))


def all_invertible_matrices(f: FieldSpec, n: int, budget: int = 10 ** 6):
    """Every invertible n x n matrix over a finite field, in a fixed order."""
    q = f.q
    if q ** (n * n) > budget:
        raise SingularT(f"GL({n}, {f.name}) enumeration exceeds budget")
    for combo in itertools.product(range(q), repeat=n * n):
        rows = [list(combo[i * n: (i + 1) * n]) for i in range(n)]
        m = Matrix.from_raw_rows(f, rows, n)
        if rank(m) == n:
            yield m


def random_invertible_matrix(rng: random.Random, f: FieldSpec, n: int) -> Matrix:
    while True:
        if f.is_finite:
            rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        m = Matrix.from_raw_rows(f, rows, n)
        if rank(m) == n:
            return m


def veronese_equivariance_check(
    t_mat: Matrix,
    d: int,
    trials: int = 100,
    seed: int = 0,
    exhaustive_limit: int = 10 ** 4,
) -> bool:
    """Does the image of T(t) equal rho_d(T) applied to the image of t,
    for every t?  Exhaustive when q^n is small, else seeded sampling."""
    f = t_mat.field
    n = t_mat.rows
    if rank(t_mat) != n:
        raise SingularT("map is singular")
    m = rho_d(t_mat, d)
    if f.is_finite and f.q ** n <= exhaustive_limit:
        vectors = [
            tuple(Scalar(f, c) for c in combo)
            for combo in itertools.product(range(f.q), repeat=n)
        ]
    else:
        rng = random.Random(seed)
        vectors = []
        for _ in range(trials):
            if f.is_finite:
                vectors.append(tuple(Scalar(f, rng.randrange(f.q)) for _ in range(n)))
            else:
                vectors.append(
                    tuple(Scalar(f, Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(n))
                )
    for t in vectors:
        if veronese_vector(t_mat.apply(t), d) != m.apply(veronese_vector(t, d)):
            return False
    return True
