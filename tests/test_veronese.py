"""The monomial-evaluation map, lifted functionals, and rho_d."""

from __future__ import annotations

import itertools
import random

import pytest

from verolab import (
    HomogPoly,
    Matrix,
    SingularT,
    contains,
    full_subspace,
    lift_functional,
    parse_field,
    projective_points,
    rationals,
    rho_d,
    span,
    subspace_sum,
    veronese_equivariance_check,
    veronese_subspace,
    veronese_vector,
)
from verolab.field import Scalar, int_in_field
from verolab import veronese as veronese_mod
from verolab.linalg import combine_basis, projective_vectors, rank
from verolab.monomials import num_monomials
from verolab.veronese import all_invertible_matrices, functional_dot, random_invertible_matrix

F2 = parse_field("F2")
F3 = parse_field("F3")
F5 = parse_field("F5")
Q = rationals()


def test_veronese_vector_examples():
    t = (F2.one(), F2.one())
    assert [s.v for s in veronese_vector(t, 2)] == [1, 1, 1]
    tq = (int_in_field(Q, 1), int_in_field(Q, 2))
    assert [str(s) for s in veronese_vector(tq, 2)] == ["1/1", "2/1", "4/1"]
    t5 = (Scalar(F5, 2), F5.one())
    assert [s.v for s in veronese_vector(t5, 3)] == [3, 4, 2, 1]


def test_homogeneity():
    for lam_raw in range(1, 5):
        lam = Scalar(F5, lam_raw)
        t = (Scalar(F5, 3), Scalar(F5, 1), Scalar(F5, 4))
        lhs = veronese_vector(tuple(lam * x for x in t), 3)
        scale = lam ** 3
        rhs = tuple(scale * y for y in veronese_vector(t, 3))
        assert lhs == rhs


def test_veronese_subspace_point():
    e1 = span([(F3.one(), F3.zero(), F3.zero())], 3, F3)
    assert veronese_subspace(e1, 2).dim == 1


def test_veronese_subspace_full_plane_large_q():
    for q, d in ((3, 2), (5, 3), (4, 3)):
        f = parse_field(f"F{q}")
        u = full_subspace(f, 2)
        assert veronese_subspace(u, d).dim == d + 1


def test_veronese_subspace_small_field_defect():
    # oracle: the three projective points of K^2 over GF(2), images ranked
    u = full_subspace(F2, 2)
    pts = projective_points(F2, 2)
    images = [veronese_vector(t, 3) for t in pts]
    oracle = span(images, 4, F2)
    got = veronese_subspace(u, 3)
    assert got == oracle
    assert got.dim == 3


def _projective_image_span(u, d):
    """Reference: the span of the images of one vector per 1-space of u."""
    return span([veronese_vector(v, d) for v in projective_vectors(u)], num_monomials(u.ambient_dim, d), u.field)


def _seeded_subspaces(f, rng, n, max_dim):
    out = []
    for dim in range(1, max_dim + 1):
        while True:
            u = span([tuple(Scalar(f, rng.randrange(f.q)) for _ in range(n)) for _ in range(dim)], n, f)
            if u.dim == dim:
                out.append(u)
                break
    return out


@pytest.mark.parametrize("q,d,n,max_dim", [
    (q, d, n, max_dim)
    for q, n, max_dim in ((4, 4, 3), (8, 4, 3), (9, 4, 3), (64, 3, 2), (243, 3, 2))
    for d in (2, 3, 4)
] + [(257, d, 3, 2) for d in (2, 3)])
def test_veronese_subspace_grid_matches_projective_span(monkeypatch, q, d, n, max_dim):
    f = parse_field(f"F{q}")
    rng = random.Random(q * 100 + d)
    calls = []
    vec = veronese_mod.veronese_vector

    def counting_vector(t, deg):
        calls.append(1)
        return vec(t, deg)

    for u in _seeded_subspaces(f, rng, n, max_dim):
        want = _projective_image_span(u, d)
        if q > d:
            # the raw grid 0..d alone spans the image, whichever path runs
            grid = combine_basis(u, itertools.product(range(d + 1), repeat=u.dim))
            assert span([veronese_vector(v, d) for v in grid], want.ambient_dim, f) == want
        calls.clear()
        monkeypatch.setattr(veronese_mod, "veronese_vector", counting_vector)
        got = veronese_subspace(u, d)
        monkeypatch.undo()
        assert got == want
        n_proj = (q ** u.dim - 1) // (q - 1)
        # q > d: the column space of sym_power, with no image evaluated
        assert len(calls) == (0 if q > d else n_proj)


def test_veronese_subspace_rational_grid_matches_functional_test():
    # over Q the grid span must contain the image of every vector
    rng = random.Random(3)
    u = span(
        [tuple(int_in_field(Q, rng.randint(-3, 3)) for _ in range(3)) for _ in range(2)],
        3,
        Q,
    )
    s = veronese_subspace(u, 2)
    rows = u.basis.row_list()
    for _ in range(30):
        coeffs = [int_in_field(Q, rng.randint(-9, 9)) for _ in range(u.dim)]
        v = tuple(
            Scalar(Q, sum(c.v * r[j].v for c, r in zip(coeffs, rows)))
            for j in range(3)
        )
        assert contains(s, veronese_vector(v, 2))


def test_lift_functional_examples():
    g = HomogPoly.monomial(Q, 2, (1, 1))
    assert [str(s) for s in lift_functional(g)] == ["0/1", "1/1", "0/1"]
    z = HomogPoly.zero(F3, 2, 2)
    assert all(s.v == 0 for s in lift_functional(z))


def test_lift_functional_exhaustive_eval():
    rng = random.Random(9)
    raw = [rng.randrange(3) for _ in range(6)]
    g = HomogPoly.from_raw(F3, 3, 2, raw)
    a = lift_functional(g)
    for combo in itertools.product(range(3), repeat=3):
        t = tuple(Scalar(F3, c) for c in combo)
        assert functional_dot(a, veronese_vector(t, 2)) == g.evaluate(t)


def test_rho_identity():
    for n, d in ((2, 2), (3, 2), (2, 3)):
        big_n = len(veronese_vector(tuple(F3.one() for _ in range(n)), d))
        assert rho_d(Matrix.identity(F3, n), d) == Matrix.identity(F3, big_n)


def test_rho_swap_is_reversal_permutation():
    swap = Matrix.from_raw_rows(F3, [[0, 1], [1, 0]], 2)
    m = rho_d(swap, 2)
    want = Matrix.from_raw_rows(F3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]], 3)
    assert m == want


def test_rho_functoriality_random_gf3():
    rng = random.Random(21)
    for _ in range(20):
        a = random_invertible_matrix(rng, F3, 3)
        b = random_invertible_matrix(rng, F3, 3)
        assert rho_d(a * b, 2) == rho_d(a, 2) * rho_d(b, 2)


def test_rho_invertible_when_map_is():
    rng = random.Random(4)
    for _ in range(10):
        a = random_invertible_matrix(rng, F2, 3)
        m = rho_d(a, 2)
        assert rank(m) == m.rows


def test_equivariance_identity():
    assert veronese_equivariance_check(Matrix.identity(F5, 2), 3)


def test_equivariance_exhaustive_gl3_f2():
    mats = list(all_invertible_matrices(F2, 3))
    assert len(mats) == 168
    assert all(veronese_equivariance_check(m, 2) for m in mats)


def test_equivariance_sampled_gf5():
    rng = random.Random(123)
    for trial in range(100):
        m = random_invertible_matrix(rng, F5, 2)
        assert veronese_equivariance_check(m, 3, seed=trial)


def test_equivariance_rejects_singular():
    zero = Matrix.from_raw_rows(F2, [[0, 0], [0, 0]], 2)
    with pytest.raises(SingularT):
        veronese_equivariance_check(zero, 2)


def test_separating_functional_keeps_point_out_of_image_sum():
    # a point outside d subspaces maps outside the sum of their image spans
    rng = random.Random(14)
    d = 2
    for _ in range(25):
        subs = []
        while len(subs) < d:
            rows = [tuple(Scalar(F3, rng.randrange(3)) for _ in range(3)) for _ in range(2)]
            s = span(rows, 3, F3)
            if s.dim:
                subs.append(s)
        z = tuple(Scalar(F3, rng.randrange(3)) for _ in range(3))
        if any(s.v for s in z) and all(not contains(s, z) for s in subs):
            total = veronese_subspace(subs[0], d)
            for s in subs[1:]:
                total = subspace_sum(total, veronese_subspace(s, d))
            assert not contains(total, veronese_vector(z, d))
