"""Canonical geometric inputs and dual-arc machinery.

Spreads, conics, hyperovals, elliptic ovoids and rational normal curves
give the harness concrete families with known properties.  The dual-arc
side builds families inside a degree-d coefficient space from multiples
of linear (or prime-power) polynomials, measures their j-wise
intersection profiles, and tests lattice regularity.  The prime powers
I_k come from a sieve by products (enumerate_ik), with no division.

Regularity here is the containment form: every nonzero intersection U of
members must satisfy U = U cap <D : D not containing U>, i.e. U lies in
the span of the members that do not contain it.

The intersection census walks the members' meets with linalg.meet_walk,
which reads each meet's dimension off a stack of annihilator rows.  The
regularity test answers containment in the dual form too: U lies in D
exactly when ann(D) U^T = 0, one product per meet over the members'
annihilator rows, with no intersection formed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .errors import BadParams, OddQForHyperoval
from .field import FieldSpec, _poly_mod, _poly_mul, _poly_trim, _smallest_irreducible, enumerate_elements
from .independence import SubspaceFamily, is_r_independent
from .linalg import (
    ENUM_BUDGET,
    SUBSET_BUDGET,
    Subspace,
    _echelon_extend,
    check_budget,
    contained_in,
    meet_walk,
    projective_points,
    span,
    span_raw,
    stack_meet,
    subspace_intersect,
)
from .monomials import num_monomials
from .polyalgebra import HomogPoly, component_space, poly_mul, poly_pow, product_space
from .veronese import veronese_point


# ----------------------------------------------------------------------
# extension-field model for Desarguesian spreads
# ----------------------------------------------------------------------

def desarguesian_spread(f: FieldSpec, k: int) -> SubspaceFamily:
    """The q^k + 1 pairwise-disjoint k-spaces of K^2k induced by viewing
    K^2k as a 2-space over the degree-k extension of K: the graphs of
    multiplication by each extension scalar, plus the vertical axis."""
    if k < 1:
        raise BadParams(f"desarguesian_spread needs k >= 1, got k = {k}")
    q = f.q
    # q^k is bounded before the count of basis entries forms it
    check_budget(f"scalars of the degree-{k} extension of {f.name}", 1, ENUM_BUDGET, q, k)
    check_budget(f"basis entries of desarguesian_spread over {f.name}", (q ** k + 1) * k * 2 * k, ENUM_BUDGET)
    g = _smallest_irreducible(f, k)
    ambient = 2 * k
    zero = f.zero_raw

    def mul_ext(a: list, b: list) -> list:
        prod = _poly_mod(f, _poly_mul(f, a, b), g)
        return prod + [zero] * (k - len(prod))

    basis_ext = [[zero] * i + [f.one_raw] for i in range(k)]
    members = []
    for lam in itertools.product(range(q), repeat=k):
        lam_t = _poly_trim(f, list(lam))
        rows = []
        for x in basis_ext:
            left = x + [zero] * (k - len(x))
            right = mul_ext(x, lam_t)
            rows.append(left + right)
        members.append(span_raw(rows, ambient, f))
    vert = [[zero] * k + x + [zero] * (k - len(x)) for x in basis_ext]
    members.append(span_raw(vert, ambient, f))
    return SubspaceFamily(members)


# ----------------------------------------------------------------------
# classical point sets
# ----------------------------------------------------------------------

def conic(f: FieldSpec) -> list[Subspace]:
    """The q+1 points (1, t, t^2) plus (0, 0, 1); no three collinear."""
    pts = [span([(f.one(), t, t * t)], 3, f) for t in enumerate_elements(f)]
    pts.append(span([(f.zero(), f.zero(), f.one())], 3, f))
    return pts


def hyperoval(f: FieldSpec) -> list[Subspace]:
    """Conic plus its nucleus (0, 1, 0); q must be even."""
    if f.char != 2:
        raise OddQForHyperoval(f"hyperoval needs characteristic 2; {f.name} has characteristic {f.char}")
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
    if not is_r_independent(SubspaceFamily(pts), 3)[0]:
        raise AssertionError("ovoid has three collinear points")
    return pts


def rational_normal_curve(f: FieldSpec, d: int) -> list[Subspace]:
    """Images of the q+1 points of the projective line under the degree-d
    monomial map: q+1 points of K^(d+1)."""
    if d < 1:
        raise BadParams(f"rational_normal_curve needs d >= 1, got {d}")
    return [veronese_point(p, d) for p in projective_points(f, 2)]


# ----------------------------------------------------------------------
# dual arcs from multiples of fixed polynomials
# ----------------------------------------------------------------------

def dual_arc_ad(n: int, d: int, f: FieldSpec) -> SubspaceFamily:
    """One member per projective point <y> of the degree-1 component:
    all degree-d multiples of y."""
    if d < 2 or n < 2:
        raise BadParams(f"dual_arc_ad needs d >= 2 and n >= 2, got (n, d) = ({n}, {d})")
    # q^n is bounded before the count forms it; over Q (q = 0) the count has one member
    check_budget(f"vectors of a {n}-space over {f.name}", 1, ENUM_BUDGET, f.q, n)
    check_budget(f"basis entries of dual_arc_ad over {f.name}",
                 (f.q ** n - 1) // (f.q - 1) * num_monomials(n, d - 1) * num_monomials(n, d), ENUM_BUDGET)
    a_dm1 = component_space(f, n, d - 1)
    return SubspaceFamily([product_space(a_dm1, d - 1, span([y], n, f), 1, n) for y in projective_points(f, n)])


def enumerate_ik(n: int, k: int, f: FieldSpec, budget: int = SUBSET_BUDGET) -> list[HomogPoly]:
    """I_k: the normalized degree-k forms h^(k/j) with h irreducible of
    degree j | k, which are exactly the forms with one irreducible
    divisor, in projective_points order.

    The irreducibles come from a sieve by products: the normalized
    degree-j forms less every a b with a irreducible of degree i <= j/2
    and b normalized of degree j - i.  Descending lex is a monomial
    order, so a product of normalized forms is normalized.  The product
    count is checked against the budget before any product is formed."""
    dim = num_monomials(n, k)
    # N(n, j) does not fall as j grows, so this bounds every j <= k
    check_budget(f"degree-{k} candidates over {f.name}", 1, budget, f.q, dim)
    forms = {j: [HomogPoly(f, n, j, p) for p in projective_points(f, num_monomials(n, j))]
             for j in range(1, k + 1)}
    irr: dict[int, list[HomogPoly]] = {}
    for j in range(1, k + 1):
        factors = range(1, j // 2 + 1)
        check_budget(f"degree-{j} products", sum(len(irr[i]) * len(forms[j - i]) for i in factors), budget)
        reducible = {poly_mul(a, b).raw for i in factors for a in irr[i] for b in forms[j - i]}
        irr[j] = [g for g in forms[j] if g.raw not in reducible]
    powers = {poly_pow(h, k // j).raw for j in irr if k % j == 0 for h in irr[j]}
    return [g for g in forms[k] if g.raw in powers]


def _ik_count(n: int, k: int, q: int) -> int:
    """|I_k| over GF(q), without listing it.  The normalized degree-j forms
    number P_j = (q^N(n, j) - 1)/(q - 1), and unique factorization gives
    sum_j P_j t^j = prod_j (1 - t^j)^(-I_j), I_j the irreducibles of
    degree j.  Taking t d/dt log of both sides, b_j = sum over i | j of
    i I_i satisfies j P_j = sum_{i <= j} b_i P_(j-i).  |I_k| is the sum of
    I_j over j | k."""
    p = [1] + [(q ** num_monomials(n, j) - 1) // (q - 1) for j in range(1, k + 1)]
    b, irr = [0] * (k + 1), [0] * (k + 1)
    for j in range(1, k + 1):
        b[j] = j * p[j] - sum(b[i] * p[j - i] for i in range(1, j))
        irr[j] = (b[j] - sum(i * irr[i] for i in range(1, j) if j % i == 0)) // j
    return sum(irr[j] for j in range(1, k + 1) if k % j == 0)


def dual_arc_ik(n: int, d: int, k: int, f: FieldSpec, budget: int = SUBSET_BUDGET) -> SubspaceFamily:
    """Members are the degree-d multiples of each prime power in I_k."""
    if not 1 <= k <= d or n < 2:
        raise BadParams(f"dual_arc_ik needs 1 <= k <= d and n >= 2, got (n, d, k) = ({n}, {d}, {k})")
    dim_k = num_monomials(n, k)
    # enumerate_ik's candidate precheck first, so every P_j the count forms is small
    check_budget(f"degree-{k} candidates over {f.name}", 1, budget, f.q, dim_k)
    check_budget(f"basis entries of dual_arc_ik over {f.name}",
                 _ik_count(n, k, f.q) * num_monomials(n, d - k) * num_monomials(n, d), ENUM_BUDGET)
    ik = enumerate_ik(n, k, f, budget)
    a_dmk = component_space(f, n, d - k)
    return SubspaceFamily([product_space(a_dmk, d - k, span_raw([list(y.raw)], dim_k, f), k, n) for y in ik])


# ----------------------------------------------------------------------
# intersection profiles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DualArcReport:
    """Census of j-wise intersection dimensions of a family.

    intersection_dims[j-1] maps a dimension to the number of j-subsets
    whose intersection has that dimension.  It judges nothing: a check
    compares constant_profile() with the profile its law states.
    """

    intersection_dims: tuple[tuple[tuple[int, int], ...], ...]

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


def gda_profile(fam: SubspaceFamily, j_max: int, budget: int = SUBSET_BUDGET) -> DualArcReport:
    """Full intersection-dimension census for subset sizes 1..j_max.  The
    subsets that extend a zero meet are counted, not visited."""
    members = fam.members
    n_mem = len(members)
    check_budget(f"subsets of at most {j_max} of {n_mem} members",
                 sum(math.comb(n_mem, j) for j in range(1, j_max + 1)), budget)
    levels = [Counter() for _ in range(j_max)]
    for prefix, i, stack in meet_walk(fam.annihilators(), j_max):
        size = len(prefix) + 1
        dim = fam.ambient_dim - len(stack)
        levels[size - 1][dim] += 1
        if not dim:  # every extension by later members meets in 0 too
            rem = n_mem - i - 1
            for extra in range(1, min(rem, j_max - size) + 1):
                levels[size - 1 + extra][0] += math.comb(rem, extra)
    return DualArcReport(tuple(tuple(sorted(lvl.items())) for lvl in levels))


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
    (in size-then-lex order) index set producing it.  linalg.meet_walk
    visits every index set whose proper subsets' meets are nonzero; the
    budget caps how many."""
    f, m = fam.field, fam.ambient_dim
    found: dict[Subspace, tuple[int, ...]] = {}
    ranks: list[int] = []  # the stack length at each prefix of the index set
    for explored, (prefix, i, stack) in enumerate(meet_walk(fam.annihilators(), len(fam)), 1):
        check_budget("index sets walked for the intersection lattice", explored, budget)
        size = len(prefix) + 1
        del ranks[size - 1:]
        ranks.append(len(stack))
        # skip a zero meet, and the meet of the prefix again: that index set comes first
        if len(stack) == m or (size > 1 and ranks[-2] == len(stack)):
            continue
        u = stack_meet(stack, m, f)
        first = found.get(u)
        # the walk runs in lex order, so an index set found later comes first only if smaller
        if first is None or size < len(first):
            found[u] = (*prefix, i)
    return sorted(((idx, s) for s, idx in found.items()), key=lambda p: (len(p[0]), p[0]))


def is_regular(
    fam: SubspaceFamily, budget: int = SUBSET_BUDGET
) -> tuple[bool, tuple[int, ...] | None]:
    """Containment regularity: every nonzero intersection U of members
    lies in the span of the members not containing U.  The witness is
    the first failing U's index set, in the order of intersection_lattice.

    U lies in a member D exactly when ann(D) U^T = 0, so the members'
    annihilators, computed once per family for the census walk and this
    test, say which members contain U (linalg.contained_in).  The members
    are first split, in order, into disjoint runs whose join is K^m
    (covers); if no member of some cover contains U, the others span K^m.
    Otherwise their basis rows are pushed into one semi-echelon basis
    until it has rank m, and then U lies in their span; otherwise U lies
    in it exactly when none of U's rows extends the basis."""
    f, m = fam.field, fam.ambient_dim
    anns = fam.annihilators()
    covers, cover, basis, pivots = [], [], [], []
    for s, a in zip(fam, anns):
        cover.append(a)
        for row in s.ints:
            _echelon_extend(f, basis, pivots, list(row), m)
        if len(basis) == m:
            covers.append(cover)
            cover, basis, pivots = [], [], []
    for idx, u in intersection_lattice(fam, budget):
        if any(not any(contained_in(c, u)) for c in covers):
            continue
        basis, pivots = [], []
        for row in (r for s, h in zip(fam, contained_in(anns, u)) if not h for r in s.ints):
            _echelon_extend(f, basis, pivots, list(row), m)
            if len(basis) == m:
                break
        else:
            if any(_echelon_extend(f, basis, pivots, list(r), m) for r in u.ints):
                return False, idx
    return True, None


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
        return tuple(u[i] * v[j] - u[j] * v[i] for i, j in self.pairs())


def wedge_family(f: FieldSpec, m: int) -> SubspaceFamily:
    """One member per projective point <v> of K^m: the span of all
    e_i ^ v inside the exterior square; each member has dimension m-1."""
    if m < 3:
        raise BadParams(f"wedge_family needs m >= 3, got {m}")
    w = WedgeSpace(m)
    check_budget(f"vectors of a {m}-space over {f.name}", 1, ENUM_BUDGET, f.q, m)
    check_budget(f"basis entries of wedge_family over {f.name}", (f.q ** m - 1) // (f.q - 1) * m * w.dim,
                 ENUM_BUDGET)
    basis = [tuple(f.one() if k == i else f.zero() for k in range(m)) for i in range(m)]
    return SubspaceFamily([span([w.wedge(e, v) for e in basis], w.dim, f) for v in projective_points(f, m)])


def dual_family(fam: SubspaceFamily) -> SubspaceFamily:
    """Annihilator of each member, in order; dimensions complement."""
    return SubspaceFamily(fam.annihilators())


def partial_spread_products(f: FieldSpec, k: int) -> SubspaceFamily:
    """{<A_1 H> : H in the Desarguesian spread of K^2k}, inside the
    degree-2 component in 2k variables."""
    spread = desarguesian_spread(f, k)
    n = 2 * k
    a1 = component_space(f, n, 1)
    return SubspaceFamily(
        [product_space(a1, 1, h, 1, n) for h in spread]
    )
