"""Canonical geometric inputs and dual-arc machinery.

Spreads, conics, hyperovals, elliptic ovoids and rational normal curves
give the harness concrete families with known properties.  The dual-arc
side builds families inside a degree-d coefficient space from multiples
of linear (or prime-power) polynomials, measures their j-wise
intersection profiles, and tests the two lattice regularity conditions.

Regularity here is the containment form: every nonzero intersection U of
members must satisfy U = U cap <D : D not containing U>, i.e. U lies in
the span of the members that do not contain it.  Strong regularity
additionally requires the family to span the ambient space and the
distributivity U cap <D_1..D_l> = <U cap D_1, ..., U cap D_l> for every
intersection U and every subfamily, exhaustively when affordable and by
seeded sampling otherwise.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceeded, OddQForHyperoval
from .field import FieldSpec, Scalar, _poly_mod, _poly_mul, _poly_trim, _smallest_irreducible
from .independence import SubspaceFamily
from .linalg import (
    Subspace,
    annihilator,
    projective_points,
    span,
    subspace_intersect,
    subspace_le,
)
from .monomials import num_monomials
from .polyalgebra import HomogPoly, component_space, product_space
from .veronese import veronese_point

SUBSET_BUDGET = 10 ** 7


# ----------------------------------------------------------------------
# extension-field model for Desarguesian spreads
# ----------------------------------------------------------------------

def desarguesian_spread(f: FieldSpec, k: int) -> SubspaceFamily:
    """The q^k + 1 pairwise-disjoint k-spaces of K^2k induced by viewing
    K^2k as a 2-space over the degree-k extension of K: the graphs of
    multiplication by each extension scalar, plus the vertical axis."""
    q = f.q
    g = _smallest_irreducible(f, k)
    ambient = 2 * k
    zero = f.zero_raw

    def mul_ext(a: list, b: list) -> tuple:
        prod = _poly_mod(f, _poly_mul(f, a, b), g)
        return tuple(prod + [zero] * (k - len(prod)))

    basis_ext = [[zero] * i + [f.one_raw] for i in range(k)]
    members = []
    for lam in itertools.product(range(q), repeat=k):
        lam_t = _poly_trim(f, list(lam))
        rows = []
        for x in basis_ext:
            left = tuple(x + [zero] * (k - len(x)))
            right = mul_ext(x, lam_t)
            rows.append(tuple(Scalar(f, v) for v in left + right))
        members.append(span(rows, ambient, f))
    vert = [
        tuple(Scalar(f, v) for v in (zero,) * k + tuple(x + [zero] * (k - len(x))))
        for x in basis_ext
    ]
    members.append(span(vert, ambient, f))
    return SubspaceFamily(members)


# ----------------------------------------------------------------------
# classical point sets
# ----------------------------------------------------------------------

def conic(f: FieldSpec) -> list[Subspace]:
    """The q+1 points (1, t, t^2) plus (0, 0, 1); no three collinear."""
    pts = []
    for i in range(f.q):
        t = Scalar(f, i)
        pts.append(span([(f.one(), t, t * t)], 3, f))
    pts.append(span([(f.zero(), f.zero(), f.one())], 3, f))
    return pts


def hyperoval(f: FieldSpec) -> list[Subspace]:
    """Conic plus its nucleus (0, 1, 0); q must be even."""
    if f.char != 2:
        raise OddQForHyperoval(f"{f.name} has odd characteristic")
    pts = conic(f)
    pts.append(span([(f.zero(), f.one(), f.zero())], 3, f))
    return pts


def elliptic_ovoid(f: FieldSpec) -> list[Subspace]:
    """Projective zeros in K^4 of x1 x2 + x3^2 + a x3 x4 + b x4^2, with
    t^2 + a t + b the first irreducible quadratic over K.  Validated at
    construction: exactly q^2 + 1 points, no three collinear."""
    g = _smallest_irreducible(f, 2)  # b + a t + t^2
    b, a = g[0], g[1]
    mul, add = f.mul, f.add
    pts = []
    for p in projective_points(f, 4):
        x1, x2, x3, x4 = (s.v for s in p)
        val = add(
            add(mul(x1, x2), mul(x3, x3)),
            add(mul(a, mul(x3, x4)), mul(b, mul(x4, x4))),
        )
        if val == f.zero_raw:
            pts.append(span([p], 4, f))
    if len(pts) != f.q ** 2 + 1:
        raise AssertionError(f"ovoid point count {len(pts)} != {f.q ** 2 + 1}")
    for trio in itertools.combinations(pts, 3):
        rows = [s.basis.row(0) for s in trio]
        if span(rows, 4, f).dim != 3:
            raise AssertionError("ovoid has three collinear points")
    return pts


def rational_normal_curve(f: FieldSpec, d: int) -> list[Subspace]:
    """Images of the q+1 points of the projective line under the degree-d
    monomial map: q+1 points of K^(d+1)."""
    return [veronese_point(p, d) for p in projective_points(f, 2)]


# ----------------------------------------------------------------------
# dual arcs from multiples of fixed polynomials
# ----------------------------------------------------------------------

def dual_arc_ad(n: int, d: int, f: FieldSpec) -> SubspaceFamily:
    """One member per projective point <y> of the degree-1 component:
    all degree-d multiples of y."""
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    a_dm1 = component_space(f, n, d - 1)
    members = []
    for y in projective_points(f, n):
        y_space = span([y], n, f)
        members.append(product_space(a_dm1, d - 1, y_space, 1, n))
    return SubspaceFamily(members)


def homog_divides(g: HomogPoly, h: HomogPoly) -> HomogPoly | None:
    """The quotient g / h when h divides g exactly, else None.  Solves
    the linear system (multiplication by h) f = g over the coefficient
    space of degree deg(g) - deg(h)."""
    from .linalg import _solve_raw
    from .monomials import enumerate_exponents

    if h.d > g.d or g.n != h.n:
        return None
    fld = g.field
    n = g.n
    dq = g.d - h.d
    cols = []
    for alpha in enumerate_exponents(n, dq):
        mono = HomogPoly.monomial(fld, n, alpha)
        cols.append((mono * h).raw())
    nrows = num_monomials(n, g.d)
    a_rows = [[col[r] for col in cols] for r in range(nrows)]
    x = _solve_raw(fld, a_rows, g.raw())
    if x is None:
        return None
    return HomogPoly.from_raw(fld, n, dq, x)


_IRR_CACHE: dict = {}


def irreducible_homogeneous(f: FieldSpec, n: int, j: int, budget: int = SUBSET_BUDGET) -> list[HomogPoly]:
    """Normalized representatives of the irreducible homogeneous degree-j
    polynomials, by trial division against lower-degree irreducibles."""
    key = (f, n, j)
    if key in _IRR_CACHE:
        return _IRR_CACHE[key]
    dim = num_monomials(n, j)
    if f.q ** dim > budget:
        raise BudgetExceeded(f"{f.q}^{dim} degree-{j} candidates exceed budget")
    reps = [HomogPoly(f, n, j, p) for p in projective_points(f, dim)]
    if j == 1:
        _IRR_CACHE[key] = reps
        return reps
    lower: list[HomogPoly] = []
    for jj in range(1, j):
        lower.extend(irreducible_homogeneous(f, n, jj, budget))
    out = [g for g in reps if not any(homog_divides(g, h) for h in lower if h.d < g.d)]
    _IRR_CACHE[key] = out
    return out


def enumerate_ik(n: int, k: int, f: FieldSpec, budget: int = SUBSET_BUDGET) -> list[HomogPoly]:
    """Normalized degree-k representatives that are powers of a single
    irreducible: exactly one irreducible divisor in their lattice."""
    dim = num_monomials(n, k)
    if f.q ** dim > budget:
        raise BudgetExceeded(f"{f.q}^{dim} degree-{k} candidates exceed budget")
    candidates = [HomogPoly(f, n, k, p) for p in projective_points(f, dim)]
    irr: list[HomogPoly] = []
    for j in range(1, k + 1):
        irr.extend(irreducible_homogeneous(f, n, j, budget))
    out = []
    for g in candidates:
        divisors = 0
        for h in irr:
            if h.d == g.d:
                hit = g == h
            else:
                hit = homog_divides(g, h) is not None
            if hit:
                divisors += 1
                if divisors > 1:
                    break
        if divisors == 1:
            out.append(g)
    return out


def dual_arc_ik(n: int, d: int, k: int, f: FieldSpec, budget: int = SUBSET_BUDGET) -> SubspaceFamily:
    """Members are the degree-d multiples of each prime power in I_k."""
    if d < k:
        raise ValueError("need d >= k")
    a_dmk = component_space(f, n, d - k)
    dim_k = num_monomials(n, k)
    members = []
    for y in enumerate_ik(n, k, f, budget):
        y_space = span([y.coeffs], dim_k, f)
        members.append(product_space(a_dmk, d - k, y_space, k, n))
    return SubspaceFamily(members)


# ----------------------------------------------------------------------
# intersection profiles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DualArcReport:
    """Census of j-wise intersection dimensions of a family.

    intersection_dims[j-1] maps a dimension to the number of j-subsets
    whose intersection has that dimension.  is_gda is true when each
    level up to some depth is constant and positive and every deeper
    computed level is zero (matching expected_dims when provided).
    """

    member_count: int
    ambient_dim: int
    j_max: int
    intersection_dims: tuple[tuple[tuple[int, int], ...], ...]
    is_gda: bool
    expected_dims: tuple[int, ...] | None

    def level(self, j: int) -> dict[int, int]:
        return dict(self.intersection_dims[j - 1])

    def constant_profile(self) -> list[int | None]:
        """Common dimension per level, None where mixed, -1 where vacuous."""
        out: list[int | None] = []
        for lvl in self.intersection_dims:
            if not lvl:
                out.append(-1)
            elif len(lvl) == 1:
                out.append(lvl[0][0])
            else:
                out.append(None)
        return out


def gda_profile(
    fam: SubspaceFamily,
    j_max: int,
    expected: tuple[int, ...] | None = None,
    budget: int = SUBSET_BUDGET,
) -> DualArcReport:
    """Full intersection-dimension census for subset sizes 1..j_max."""
    members = fam.members
    n_mem = len(members)
    total = sum(math.comb(n_mem, j) for j in range(1, j_max + 1))
    if total > budget:
        raise BudgetExceeded(f"{total} subsets exceed budget {budget}")
    levels = [Counter() for _ in range(j_max)]

    def rec(start: int, current: Subspace | None, depth: int) -> None:
        for i in range(start, n_mem):
            nxt = members[i] if current is None else subspace_intersect(current, members[i])
            levels[depth][nxt.dim] += 1
            if depth + 1 < j_max:
                if nxt.is_zero():
                    rem = n_mem - i - 1
                    for extra in range(1, j_max - depth):
                        if depth + extra < j_max and rem >= extra:
                            levels[depth + extra][0] += math.comb(rem, extra)
                else:
                    rec(i + 1, nxt, depth + 1)

    rec(0, None, 0)

    # infer constancy cascade
    const: list[int | None] = []
    for lvl in levels:
        if not lvl:
            const.append(-1)  # vacuous: no subsets of this size
        elif len(lvl) == 1:
            const.append(next(iter(lvl)))
        else:
            const.append(None)
    d_star = 0
    for j in range(1, j_max + 1):
        if const[j - 1] is not None and const[j - 1] not in (-1, 0) :
            d_star = j
        else:
            break
    tail_zero = all(const[j - 1] in (0, -1) for j in range(d_star + 1, j_max + 1))
    is_gda = d_star >= 1 and tail_zero
    if expected is not None:
        exp = list(expected)
        if exp and exp[0] == fam.ambient_dim:
            exp = exp[1:]  # leading entry may carry the ambient dimension
        while exp and exp[-1] == 0:
            exp.pop()
        ok = is_gda and d_star == len(exp)
        if ok:
            ok = all(const[j - 1] == exp[j - 1] for j in range(1, d_star + 1))
        is_gda = ok
    dims = tuple(tuple(sorted(lvl.items())) for lvl in levels)
    return DualArcReport(
        member_count=n_mem,
        ambient_dim=fam.ambient_dim,
        j_max=j_max,
        intersection_dims=dims,
        is_gda=is_gda,
        expected_dims=tuple(expected) if expected is not None else None,
    )


def derived_family(fam: SubspaceFamily, fixed: int = 0) -> SubspaceFamily:
    """Fix one member D and form {D cap D' : D' != D}."""
    d0 = fam[fixed]
    members = [
        subspace_intersect(d0, fam[i]) for i in range(len(fam)) if i != fixed
    ]
    return SubspaceFamily(members)


# ----------------------------------------------------------------------
# regularity
# ----------------------------------------------------------------------

def intersection_lattice(
    fam: SubspaceFamily, budget: int = SUBSET_BUDGET
) -> list[tuple[tuple[int, ...], Subspace]]:
    """All distinct nonzero intersections of members, each with the first
    (in size-then-lex order) index set producing it.  Levels are explored
    until every intersection vanishes."""
    members = fam.members
    found: dict[Subspace, tuple[int, ...]] = {}
    level = [((i,), members[i]) for i in range(len(members))]
    explored = len(level)
    for idx, s in level:
        found.setdefault(s, idx)
    while level:
        nxt = []
        for idx, s in level:
            for j in range(idx[-1] + 1, len(members)):
                explored += 1
                if explored > budget:
                    raise BudgetExceeded(f"intersection lattice exceeds budget {budget}")
                t = subspace_intersect(s, members[j])
                if t.is_zero():
                    continue
                nidx = idx + (j,)
                nxt.append((nidx, t))
                found.setdefault(t, nidx)
        level = nxt
    return sorted(((idx, s) for s, idx in found.items()), key=lambda p: (len(p[0]), p[0]))


def is_regular(
    fam: SubspaceFamily, budget: int = SUBSET_BUDGET
) -> tuple[bool, tuple[int, ...] | None]:
    """Containment regularity: every nonzero intersection U of members
    lies in the span of the members not containing U."""
    members = fam.members
    for idx, u in intersection_lattice(fam, budget):
        rows = []
        for d_sub in members:
            if not subspace_le(u, d_sub):
                rows.extend(d_sub.basis.row_list())
        spanned = span(rows, fam.ambient_dim, fam.field)
        if not subspace_le(u, spanned):
            return False, idx
    return True, None


def is_strongly_regular(
    fam: SubspaceFamily,
    sample_budget: int = 50_000,
    seed: int = 0,
    budget: int = SUBSET_BUDGET,
) -> tuple[bool, tuple | None, str]:
    """Regular, spanning, and meet-distributive over every subfamily.

    Returns (ok, witness, mode); witness is (U index set, member index
    set) for a distributivity failure, ("span",) or the regularity
    witness otherwise.  mode records exhaustive vs sampled(seed, trials):
    a sampled true only means no counterexample was found.
    """
    members = fam.members
    total_span = span(
        [r for m in members for r in m.basis.row_list()], fam.ambient_dim, fam.field
    )
    if total_span.dim != fam.ambient_dim:
        return False, ("span",), "exhaustive"
    reg_ok, reg_wit = is_regular(fam, budget)
    if not reg_ok:
        return False, reg_wit, "exhaustive"
    lattice = intersection_lattice(fam, budget)
    n_mem = len(members)
    n_subsets = (1 << n_mem) - 1
    meets: dict[tuple[int, int], Subspace] = {}

    def meet(ui: int, mi: int) -> Subspace:
        key = (ui, mi)
        got = meets.get(key)
        if got is None:
            got = subspace_intersect(lattice[ui][1], members[mi])
            meets[key] = got
        return got

    def sr_holds(ui: int, subset: tuple[int, ...]) -> bool:
        u = lattice[ui][1]
        joined = span(
            [r for i in subset for r in members[i].basis.row_list()],
            fam.ambient_dim,
            fam.field,
        )
        lhs = subspace_intersect(u, joined)
        rhs = span(
            [r for i in subset for r in meet(ui, i).basis.row_list()],
            fam.ambient_dim,
            fam.field,
        )
        return lhs == rhs

    total_pairs = len(lattice) * n_subsets
    if total_pairs <= sample_budget:
        for ui in range(len(lattice)):
            for size in range(1, n_mem + 1):
                for subset in itertools.combinations(range(n_mem), size):
                    if not sr_holds(ui, subset):
                        return False, (lattice[ui][0], subset), "exhaustive"
        return True, None, "exhaustive"
    rng = random.Random(seed)
    for _ in range(sample_budget):
        ui = rng.randrange(len(lattice))
        mask = rng.randrange(1, n_subsets + 1)
        subset = tuple(i for i in range(n_mem) if mask & (1 << i))
        if not sr_holds(ui, subset):
            return False, (lattice[ui][0], subset), f"sampled(seed={seed},trials={sample_budget})"
    return True, None, f"sampled(seed={seed},trials={sample_budget})"


# ----------------------------------------------------------------------
# exterior square
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WedgeSpace:
    """The exterior square of K^m with basis e_i ^ e_j, i < j, in
    lexicographic pair order."""

    m: int

    @property
    def dim(self) -> int:
        return math.comb(self.m, 2)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.m) for j in range(i + 1, self.m)]

    def wedge(self, u, v) -> tuple:
        """u ^ v as a coordinate vector: alternating bilinear form with
        e_i ^ e_i = 0 and e_j ^ e_i = -(e_i ^ e_j)."""
        f = u[0].f
        out = [f.zero_raw] * self.dim
        for k, (i, j) in enumerate(self.pairs()):
            out[k] = f.sub(f.mul(u[i].v, v[j].v), f.mul(u[j].v, v[i].v))
        return tuple(Scalar(f, x) for x in out)


def wedge_family(f: FieldSpec, m: int) -> SubspaceFamily:
    """One member per projective point <v> of K^m: the span of all
    e_i ^ v inside the exterior square; each member has dimension m-1."""
    if m < 3:
        raise ValueError("need m >= 3")
    w = WedgeSpace(m)
    basis = [
        tuple(f.one() if k == i else f.zero() for k in range(m)) for i in range(m)
    ]
    members = []
    for v in projective_points(f, m):
        rows = [w.wedge(e, v) for e in basis]
        members.append(span(rows, w.dim, f))
    return SubspaceFamily(members)


def dual_family(fam: SubspaceFamily) -> SubspaceFamily:
    """Annihilator of each member, in order; dimensions complement."""
    return SubspaceFamily([annihilator(m) for m in fam])


def partial_spread_products(f: FieldSpec, k: int) -> SubspaceFamily:
    """{<A_1 H> : H in the Desarguesian spread of K^2k}, inside the
    degree-2 component in 2k variables."""
    spread = desarguesian_spread(f, k)
    n = 2 * k
    a1 = component_space(f, n, 1)
    return SubspaceFamily(
        [product_space(a1, 1, h, 1, n) for h in spread]
    )
