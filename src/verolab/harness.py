"""Named checks binding each verified statement to parameters, plus the
suite runner.

Every check reports through a CheckResult that separates hypothesis
failure from conclusion failure: a conditional statement whose premise
does not hold at the given parameters is reported as hypothesis_ok=False
with no conclusion, never as a failure.  Reports are deterministic given
(check_id, params, seed); wall time is measured but excluded from the
canonical JSON so identical runs serialize identically.

CHECK_REGISTRY is the one description of every check.  A Check entry
holds the body, the default field, a Param per other parameter, the
one-line description and whether the field must be finite.  A Param
holds the default, an integer's least and greatest values (each a
number or the name of a parameter declared before it), and whether the
reported params show the default when the caller gives none (else it is
implicit and stays out of the JSON).  run_check validates params
against the entry before anything is built: an undeclared name, a wrong
type or a value out of range raises BadParams, and Q for a finite-only
check InfiniteField.  The `check` CLI takes its flags from the entries.
A body is called as body(f, seed, budget, **declared): f is the parsed
field and declared holds every parameter the entry declares, filled in,
so its signature is (f, seed, budget, <the declared names in order>).
It returns (mode, hypothesis_ok, conclusion_ok, witness, data).

The suite manifests at the bottom of this module pin the default
parameter grids; bump MANIFEST_VERSION when they change.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import BadCharacteristic, BadParams, BudgetExceeded, InfiniteField, UnknownCheck
from .field import FieldSpec, Scalar, int_in_field, parse_field
from .independence import SubspaceFamily, is_r_independent, max_independence
from .linalg import (
    ENUM_BUDGET,
    SUBSET_BUDGET,
    Matrix,
    Subspace,
    _rref_raw,
    check_budget,
    contained_in,
    enumerate_vectors,
    full_subspace,
    meet_walk,
    over_budget,
    projective_points,
    projective_vectors,
    rank,
    span,
    span_raw,
    stack_meet,
    subspace_intersect,
    subspace_join,
    subspace_sum,
)
from .monomials import enumerate_exponents, num_monomials, _index_map
from .polyalgebra import (
    HomogPoly,
    component_space,
    linear_form_power,
    poly_mul,
    power_intersection_check,
    power_subspace,
    product_space,
    sigma_iso,
)
from .veronese import (
    _equivariance_holds,
    random_invertible_matrix,
    rho_d,
    veronese_point,
    veronese_subspace,
    veronese_vector,
)
from .constructions import (
    derived_family,
    desarguesian_spread,
    dual_arc_ad,
    dual_arc_ik,
    dual_family,
    gda_profile,
    is_regular,
    partial_spread_products,
    wedge_family,
)
from . import vcode as vc

MANIFEST_VERSION = 1
DEFAULT_SEED = 20260810
# bound at import, so a wrapper later put around power_subspace (a tracer)
# does not hide its memo from run_check
_clear_power_memo = power_subspace.cache_clear


@dataclass
class CheckResult:
    check_id: str
    params: dict
    mode: str
    hypothesis_ok: bool
    conclusion_ok: bool | None
    witness: object = None
    data: dict = dc_field(default_factory=dict)
    wall_time_ms: float = 0.0

    @property
    def passed(self) -> bool:
        """A check counts as passing when its hypothesis fails (nothing to
        conclude) or its conclusion holds."""
        return (not self.hypothesis_ok) or bool(self.conclusion_ok)

    def to_jsonable(self, with_timing: bool = False) -> dict:
        out = {
            "check_id": self.check_id,
            "params": self.params,
            "mode": self.mode,
            "hypothesis_ok": self.hypothesis_ok,
            "conclusion_ok": self.conclusion_ok,
            "witness": self.witness,
        }
        if self.data:
            out["data"] = self.data
        if with_timing:
            out["wall_time_ms"] = round(self.wall_time_ms, 3)
        return out


def result_to_json(res: CheckResult, with_timing: bool = False) -> str:
    return json.dumps(res.to_jsonable(with_timing), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _sampled(seed: int, trials: int, trial: Callable):
    """Run trial(rng, i) for i < trials on one rng seeded with seed; the
    first witness it returns (None means the trial held) fails the check."""
    mode = f"sampled(seed={seed},trials={trials})"
    rng = random.Random(seed)
    for i in range(trials):
        wit = trial(rng, i)
        if wit is not None:
            return mode, True, False, wit, {}
    return mode, True, True, None, {}


def _not_met(reason: str):
    return "exhaustive", False, None, None, {"reason": reason}


def _random_vector(rng: random.Random, f: FieldSpec, m: int):
    if f.is_finite:
        return tuple(Scalar(f, rng.randrange(f.q)) for _ in range(m))
    return tuple(Scalar(f, Fraction(rng.randint(-5, 5))) for _ in range(m))


def _random_subspace(rng: random.Random, f: FieldSpec, m: int, dim: int) -> Subspace:
    check_budget(f"entries of {dim} random vectors of length {m}", dim * m, ENUM_BUDGET)
    while True:
        s = span([_random_vector(rng, f, m) for _ in range(dim)], m, f)
        if s.dim == dim:
            return s


def _random_subspace_disjoint(rng, f, m, dim, avoid: Subspace) -> Subspace:
    for draws in itertools.count(1):
        check_budget("draws of a subspace disjoint from another", draws, 1000)
        s = _random_subspace(rng, f, m, dim)
        if subspace_intersect(s, avoid).is_zero():
            return s


def _unit_rows(f: FieldSpec, n: int, idxs) -> list[tuple]:
    """The unit vectors e_i of K^n for i in idxs."""
    return [tuple(f.one() if k == i else f.zero() for k in range(n)) for i in idxs]


def _power_is_additive(f: FieldSpec, d: int) -> bool:
    """Is (x + y)^d = x^d + y^d in f?  Exactly when d = 1 or d = p^i for
    the characteristic p of f and some i >= 1."""
    p = f.char
    return d == 1 or p > 0 and any(p ** i == d for i in range(1, d.bit_length()))


def _falling_vanishes(f: FieldSpec, d: int, r: int) -> bool:
    """Is d!/(d-r)! zero in f?"""
    return not int_in_field(f, math.perm(d, r))


def _powerpoint_family(f: FieldSpec, n: int, d: int) -> SubspaceFamily:
    """The points <(t . x)^d> of the degree-d component, one per point t
    of PG(n-1, q), in that order.  They are distinct: K[x] is a UFD, so
    (t . x)^d and (s . x)^d are proportional only when t . x and s . x
    are, and SubspaceFamily's DuplicateMember stays the guard."""
    big_n = num_monomials(n, d)
    return SubspaceFamily(span_raw([list(linear_form_power(HomogPoly.linear_form(t), d).raw)], big_n, f)
                          for t in projective_points(f, n))


def _profile_law(fam: SubspaceFamily, stated: list[int], budget: int, members_ok: bool):
    """A dual-arc profile law: the constant profile of fam's census equals
    the stated one on each level that has subsets, the first len(fam);
    the levels past the member count are vacuous.  members_ok is the
    law's condition on the member count.  The constant profile is the
    witness of a failure and, with the member count, the data."""
    prof = gda_profile(fam, len(stated), budget).constant_profile()
    ok = members_ok and prof[:len(fam)] == stated[:len(fam)]
    return "exhaustive", True, ok, None if ok else {"profile": prof}, {"members": len(fam), "profile": prof}


# ----------------------------------------------------------------------
# the three shapes of law
# ----------------------------------------------------------------------

def _point_family_law(fam: SubspaceFamily, r: int, budget: int):
    """Every r members of a family of points are independent.  With fewer
    than r points no r-set exists, and the pass says it is vacuous."""
    if len(fam) < r:
        return "exhaustive", True, True, None, {"points": len(fam), "vacuous": True}
    ok, wit = is_r_independent(fam, r, budget=budget)
    return "exhaustive", True, ok, wit, {"points": len(fam)}


def _spread_image_law(f, budget, k, d, image, r_hyp, r_conc, show_r=False):
    """Hypothesis: the spread of K^2k is r_hyp-independent with at least
    r_conc members.  Conclusion: the images image(t, d) of its members are
    r_conc-independent.  show_r adds r_conc to the data of a verdict.
    A spread with fewer than r_hyp members fails the hypothesis without
    a search (r_hyp <= r_conc)."""
    fam = desarguesian_spread(f, k)
    if len(fam) < r_hyp:
        return "exhaustive", False, None, None, {"hypothesis_witness": None}
    hyp_ok, hyp_wit = is_r_independent(fam, r_hyp, budget=budget)
    if not hyp_ok or len(fam) < r_conc:
        return "exhaustive", False, None, None, {"hypothesis_witness": hyp_wit}
    images = SubspaceFamily([image(t, d) for t in fam])
    ok, wit = is_r_independent(images, r_conc, budget=budget)
    data = {"members": len(fam), "r": r_conc} if show_r else {"members": len(fam)}
    return "exhaustive", True, ok, wit, data


def _disjoint_image_law(f, seed, n, d, trials, image, count):
    """Sampled: for a random U0 and count random subspaces each disjoint
    from U0, image(U0, d) meets the join of their images in 0."""
    big_n = num_monomials(n, d)

    def trial(rng, i):
        dim0 = rng.randint(1, max(1, n - 1))
        u0 = _random_subspace(rng, f, n, dim0)
        others = [_random_subspace_disjoint(rng, f, n, rng.randint(1, n - dim0), u0)
                  for _ in range(count)]
        right = subspace_join([image(u, d) for u in others], big_n, f)
        return None if subspace_intersect(image(u0, d), right).is_zero() else {"trial": i}

    return _sampled(seed, trials, trial)


# ----------------------------------------------------------------------
# check bodies; each returns (mode, hyp_ok, concl_ok, witness, data)
# ----------------------------------------------------------------------

def _check_t1_1(f, seed, budget, n, d):
    fam = SubspaceFamily([veronese_point(t, d) for t in projective_points(f, n)])
    return _point_family_law(fam, d + 1, budget)


def _check_t1_1_sharp(f, seed, budget, n, d):
    if f.q < d:
        return _not_met("q < d")
    plane = span(_unit_rows(f, n, (0, 1)), n, f)
    images = [veronese_vector(t, d) for t in projective_vectors(plane)]
    # the pivot columns of the images taken as columns are their lex-first greedy basis, so the
    # first d + 2 are the lex-first independent (d + 2)-set; fewer than d + 2 means there is none
    cols = [[s.v for s in v] for v in images]
    _, pivots = _rref_raw(f, [list(r) for r in zip(*cols)])
    if len(pivots) >= d + 2:
        return "exhaustive", True, False, tuple(pivots[:d + 2]), {}
    return "exhaustive", True, True, None, {"points_on_plane": len(images)}


def _check_t1_2(f, seed, budget, k, d, e):
    # distinct subspaces have distinct images: for t outside U, a form l
    # vanishing on U with l(t) != 0 and any m with m(t) != 0 make
    # l * m^(d-1) vanish on <v_d(U)> but not at v_d(t)
    return _spread_image_law(f, budget, k, d, veronese_subspace, e + 1, d * e + 1, show_r=True)


def _check_t2_3(f, seed, budget, k, d):
    return _spread_image_law(f, budget, k, d, veronese_subspace, 2, d + 1)


def _check_l2_4(f, seed, budget, n, d, trials):
    return _disjoint_image_law(f, seed, n, d, trials, veronese_subspace, d)


def _elementary_matrices(f: FieldSpec, n: int) -> list[Matrix]:
    """The transvections E_ij(lam) (i != j, lam != 0) and diag(mu, 1, ..., 1)
    (mu not 0 or 1) over a finite field: a generating set of GL(n, q)."""
    def with_entry(i, j, v):
        rows = Matrix.identity(f, n).raw_rows()
        rows[i][j] = v
        return Matrix.from_raw_rows(f, rows, n)

    nonzero = [v for v in range(f.q) if v != f.zero_raw]
    return [with_entry(i, j, lam) for i, j in itertools.permutations(range(n), 2) for lam in nonzero] + [
        with_entry(0, 0, mu) for mu in nonzero if mu != f.one_raw
    ]


def _rho_walk(rhos: dict, gens: list[Matrix], d: int):
    """Walk from the identity along the edges b -> g * b, g in gens, and
    test rho(g * b) == rho(g) * rho(b) on each.  rhos holds rho_d of the
    identity and of each generator and gains rho_d of every other map
    reached, each built once.  None when every edge holds and the walk
    reaches all |GL(n, q)| maps (see the veronese module docstring), else
    a witness."""
    stack = list(rhos)
    q, n = stack[0].field.q, stack[0].rows
    while stack:
        b = stack.pop()
        rb = rhos[b]
        for g in gens:
            gb = g * b
            if gb not in rhos:
                rhos[gb] = rho_d(gb, d)
                stack.append(gb)
            if rhos[gb] != rhos[g] * rb:
                return {"functoriality": True}
    order = math.prod(q ** n - q ** i for i in range(n))
    if len(rhos) != order:
        return {"functoriality": "incomplete", "reached": len(rhos), "maps": order}
    return None


def _check_rho(f, seed, budget, n, d, trials):
    big_n = num_monomials(n, d)
    one = Matrix.identity(f, n)
    rho_one = rho_d(one, d)
    if rho_one != Matrix.identity(f, big_n):
        return "exhaustive", True, False, {"identity": False}, {}
    if trials is None and f.is_finite and over_budget(1, 10 ** 5, f.q, n * n) is None:
        gens = _elementary_matrices(f, n)
        rhos = {one: rho_one} | {g: rho_d(g, d) for g in gens}
        vectors = enumerate_vectors(full_subspace(f, n))
        if not all(_equivariance_holds(g, rhos[g], vectors, d) for g in gens):
            return "exhaustive", True, False, {"equivariance": True}, {}
        wit = _rho_walk(rhos, gens, d)
        if wit is not None:
            return "exhaustive", True, False, wit, {}
        return "exhaustive", True, True, None, {"maps": len(rhos)}

    def trial(rng, i):
        a = random_invertible_matrix(rng, f, n)
        b = random_invertible_matrix(rng, f, n)
        ra, rb, rab = rho_d(a, d), rho_d(b, d), rho_d(a * b, d)
        if rab != ra * rb or rank(ra) != big_n:
            return {"trial": i}
        if not _equivariance_holds(a, ra, [_random_vector(rng, f, n)], d):
            return {"trial": i, "equivariance": True}
        return None

    return _sampled(seed, trials or 100, trial)


def _check_iterate(f, seed, budget, n, d, e):
    check_budget(f"degree-{e} coordinates of the vectors of {f.name}^{n}", num_monomials(num_monomials(n, d), e),
                 ENUM_BUDGET, f.q, n)
    idx_ed = _index_map(n, d * e)
    by_var = list(zip(*enumerate_exponents(n, d)))  # each variable's exponent in each coordinate
    # each degree-e exponent over the N coordinates folds to a degree-de one
    fold = [idx_ed[tuple(sum(a * mult for a, mult in zip(col, m_exp)) for col in by_var)]
            for m_exp in enumerate_exponents(num_monomials(n, d), e)]
    for t in enumerate_vectors(full_subspace(f, n)):
        lhs = veronese_vector(veronese_vector(t, d), e)
        rhs = veronese_vector(t, d * e)
        for i, j in enumerate(fold):
            if lhs[i] != rhs[j]:
                return "exhaustive", True, False, {"t": [s.v for s in t]}, {}
    return "exhaustive", True, True, None, {}


def _check_sigma(f, seed, budget, n, d, trials):
    try:
        sig = sigma_iso(n, d, f)
    except BadCharacteristic:
        return _not_met("vanishing multinomial")

    def witness(t):
        p = linear_form_power(HomogPoly.linear_form(t), d)
        image = tuple(s * c for s, c in zip(sig, p.coeffs))
        return None if image == veronese_vector(t, d) else {"t": [str(s) for s in t]}

    if not f.is_finite:
        return _sampled(seed, trials, lambda rng, i: witness(_random_vector(rng, f, n)))
    wit = next(filter(None, map(witness, projective_points(f, n))), None)
    return "exhaustive", True, wit is None, wit, {}


def _check_t1_3(f, seed, budget, n, d, trials):
    if not (f.char == 0 or f.char > d):
        return _not_met("characteristic <= d")
    if f.is_finite:
        return _point_family_law(_powerpoint_family(f, n, d), d + 1, budget)
    # _random_vector draws entries in [-5, 5].  Those vectors span at least 2^n lines of K^n (the
    # nonzero 0/1 vectors and (1, -1, 0, ...)), so only 2^n <= d can leave fewer than d + 1; then, by
    # Moebius inversion over the gcd of the entries, they span this many
    if n < d.bit_length():
        lines = sum(mu * ((2 * (5 // k) + 1) ** n - 1) for k, mu in ((1, 1), (2, -1), (3, -1), (5, -1))) // 2
        if d + 1 > lines:
            raise BadParams(f"T1_3 over Q samples d + 1 = {d + 1} of the {lines} lines of K^{n} it can draw")
    big_n = num_monomials(n, d)
    # Gauss-Jordan: d + 1 pivots, each updating up to d + 1 rows of big_n integers
    check_budget(f"cell updates per trial to reduce {d + 1} powers of {big_n} coefficients", (d + 1) ** 2 * big_n,
                 ENUM_BUDGET)

    def trial(rng, i):
        forms = set()
        while len(forms) < d + 1:
            s = span([_random_vector(rng, f, n)], n, f)
            if not s.is_zero():
                forms.add(s)
        powers = [linear_form_power(HomogPoly.from_raw(f, n, 1, s.basis.raw[0]), d) for s in forms]
        return None if span_raw([list(p.raw) for p in powers], big_n, f).dim == d + 1 else {"trial": i}

    return _sampled(seed, trials, trial)


def _check_t3_3(f, seed, budget, n, d, r):
    binoms = [math.comb(d, i) for i in range(r + 1)]
    if not (f.q > (r + 1) ** 2 / 2 and all(int_in_field(f, b) for b in binoms)):
        return _not_met("hypothesis")
    return _point_family_law(_powerpoint_family(f, n, d), r + 1, budget)


def _check_t3_4(f, seed, budget, n, d):
    hyp = f.char == 2 and f.m >= 3 and d > 2 and (d - 1) & (d - 2) == 0
    if hyp:
        i = (d - 1).bit_length() - 1
        hyp = math.gcd(i, f.m) == 1
    if not hyp:
        return _not_met("hypothesis")
    return _point_family_law(_powerpoint_family(f, n, d), 4, budget)


def _check_t1_4(f, seed, budget, k, d, r, e):
    if _falling_vanishes(f, d, r):
        return _not_met("d!/(d-r)! = 0")
    return _spread_image_law(f, budget, k, d, power_subspace, e + 1, r * e + 1, show_r=True)


def _check_l4(f, seed, budget, n, d, r, trials):
    if _falling_vanishes(f, d, r):
        return _not_met("d!/(d-r)! = 0")
    return _disjoint_image_law(f, seed, n, d, trials, power_subspace, r)


def _check_p5_2(f, seed, budget, n, d, trials):
    big_n = num_monomials(n, d)
    a_dm1 = component_space(f, n, d - 1)

    def trial(rng, i):
        dim1 = rng.randint(1, n - 1)
        u1 = _random_subspace(rng, f, n, dim1)
        dim2 = rng.randint(1, n - dim1)
        u2 = _random_subspace_disjoint(rng, f, n, dim2, u1)
        # products of the full degree-(d-1) component with each side
        au1 = product_space(a_dm1, d - 1, u1, 1, n)
        au2 = product_space(a_dm1, d - 1, u2, 1, n)
        lhs7 = subspace_intersect(au1, au2)
        if d >= 2:
            u1u2 = product_space(u1, 1, u2, 1, n)
            if d == 2:
                rhs7 = u1u2
            else:
                rhs7 = product_space(component_space(f, n, d - 2), d - 2, u1u2, 2, n)
            if lhs7 != rhs7:
                return {"trial": i, "eq": 7}
        # direct decomposition of the power of the sum: the pieces U1^k U2^(d-k)
        pieces = [power_subspace(u2, d)]
        for k in range(1, d):
            pieces.append(
                product_space(power_subspace(u1, k), k, power_subspace(u2, d - k), d - k, n)
            )
        pieces.append(power_subspace(u1, d))
        total = subspace_join(pieces, big_n, f)
        if total != power_subspace(subspace_sum(u1, u2), d):
            return {"trial": i, "eq": 8}
        if sum(p.dim for p in pieces) != total.dim:
            return {"trial": i, "eq": 8}
        if not subspace_intersect(power_subspace(u1, d), au2).is_zero():
            return {"trial": i, "eq": 9}
        return None

    return _sampled(seed, trials, trial)


def _check_c5_3(f, seed, budget, n, d, trials):

    def trial(rng, i):
        b = _random_subspace(rng, f, n, rng.randint(0, n))
        c = _random_subspace(rng, f, n, rng.randint(0, n))
        return None if power_intersection_check(b, c, d) else {"trial": i}

    return _sampled(seed, trials, trial)


def _check_p5_4(f, seed, budget, d, r, s):
    n = r * s
    big_n = num_monomials(n, d)
    blocks = [span(_unit_rows(f, n, range(i * s, i * s + s)), n, f) for i in range(r)]
    # the diagonal: row j is the sum over the blocks of their j-th unit vector
    diagonal = [tuple(f.one() if k % s == j else f.zero() for k in range(n)) for j in range(s)]
    t_last = span(diagonal, n, f)
    fam = SubspaceFamily(blocks + [t_last])
    hyp_ok, hyp_wit = is_r_independent(fam, r, budget=budget)
    if not hyp_ok:
        return "exhaustive", False, None, None, {"hypothesis_witness": hyp_wit}
    powers = [power_subspace(t, d) for t in blocks]
    total = subspace_join(powers, big_n, f)
    if total.dim != sum(p.dim for p in powers):
        return "exhaustive", True, False, {"direct_sum": False}, {}
    inter = subspace_intersect(power_subspace(t_last, d), total)
    is_p_power = _power_is_additive(f, d)
    expected = s if is_p_power else 0
    ok = inter.dim == expected
    return "exhaustive", True, ok, None if ok else {"dim": inter.dim, "expected": expected}, {
        "intersection_dim": inter.dim,
        "p_power_branch": is_p_power,
    }


def _check_t5_1(f, seed, budget, k, d, r):
    if _power_is_additive(f, d):
        return _not_met("d is a power of char K")
    return _spread_image_law(f, budget, k, d, power_subspace, r, r + 1)


def _check_t6_1(f, seed, budget, n, d):
    fam = dual_arc_ad(n, d, f)
    stated = [num_monomials(n, d - j) for j in range(1, d + 1)] + [0]
    return _profile_law(fam, stated, budget, len(fam) == (f.q ** n - 1) // (f.q - 1))


def _check_eq_gda(f, seed, budget, n, d):
    fam = dual_arc_ad(n, d, f)
    check_budget(f"subsets of 2 to {d} of {len(fam)} members",
                 sum(math.comb(len(fam), j) for j in range(2, d + 1)), budget)
    forms = [HomogPoly.linear_form(t) for t in projective_points(f, n)]
    a_spaces = {j: component_space(f, n, d - j) for j in range(2, d + 1)}
    # the (size, lex)-first failing subset.  Product spaces are nonzero, so a zero
    # meet of fewer than d members fails itself, and meet_walk skips no first failure.
    first = None
    for prefix, i, stack in meet_walk(fam.annihilators(), d):
        j = len(prefix) + 1
        if j < 2 or (first and j >= len(first)):
            continue
        inter = stack_meet(stack, fam.ambient_dim, f)
        prod = poly_mul(functools.reduce(poly_mul, [forms[k] for k in prefix]), forms[i])
        y_space = span_raw([list(prod.raw)], num_monomials(n, j), f)
        if inter != product_space(a_spaces[j], d - j, y_space, j, n):
            first = (*prefix, i)
    if first:
        return "exhaustive", True, False, {"subset": first}, {}
    return "exhaustive", True, True, None, {}


def _check_p6_2(f, seed, budget, n, d):
    fam = dual_arc_ad(n, d, f)
    reg_ok, wit = is_regular(fam, budget=budget)
    expected_nonregular = d >= f.q ** (n - 1)
    ok = reg_ok == (not expected_nonregular)
    return "exhaustive", True, ok, None if ok else {"regular": reg_ok, "witness": wit}, {
        "regular": reg_ok,
        "boundary_nonregular": expected_nonregular,
    }


def _check_t6_ik(f, seed, budget, n, d, k):
    fam = dual_arc_ik(n, d, k, f, budget=budget)
    stated = [num_monomials(n, d - m * k) for m in range(1, d // k + 1)] + [0]
    return _profile_law(fam, stated, budget, True)


def _check_l6_4(f, seed, budget, n, k, trials):
    a1 = component_space(f, n, 1)
    expected = k * n - math.comb(k, 2)

    def case(h, i):
        got = product_space(a1, 1, h, 1, n).dim
        return None if got == expected else {"case": i, "dim": got}

    # case 0 is the span of the first k unit vectors, reported before any
    # failed trial; trial i is case i + 1
    first = case(span(_unit_rows(f, n, range(k)), n, f), 0)
    mode, _, _, wit, _ = _sampled(seed, trials, lambda rng, i: case(_random_subspace(rng, f, n, k), i + 1))
    wit = first or wit
    return mode, True, wit is None, wit, {} if wit else {"expected_dim": expected}


def _check_l6_5(f, seed, budget, k):
    fam = partial_spread_products(f, k)
    return _profile_law(fam, [k * (3 * k + 1) // 2, k * k, math.comb(k, 2)], budget, True)


def _check_p6_6(f, seed, budget, k):
    fam = partial_spread_products(f, k)
    duals = dual_family(fam)
    dims_ok = all(m.dim == math.comb(k + 1, 2) for m in duals)
    ok, wit = is_r_independent(duals, 3, budget=budget)
    return "exhaustive", True, dims_ok and ok, wit, {"members": len(duals)}


def _check_ex10(f, seed, budget):
    q = f.q
    data: dict = {}
    # first structure: duals of the degree-3 arc in 3 variables.  Members
    # have dimension 4 and meet pairwise in 1-spaces; triples split by the
    # collinearity of the source points (dim 1 over a line, else 0), so the
    # family is not a dual arc and only the pairwise profile is asserted.
    d1 = dual_arc_ad(3, 3, f)
    d1_star = dual_family(d1)
    rep1 = gda_profile(d1_star, 3, budget=budget)
    prof1 = rep1.constant_profile()
    ok1 = len(d1_star) == 1 + q + q * q and prof1[:2] == [4, 1]
    triple_census = rep1.level(3)
    if q == 2:
        ok1 = ok1 and triple_census == {0: 28, 1: 7}
    data["d1_star"] = {
        "members": len(d1_star),
        "pairwise_profile": prof1[:2],
        "triple_dims": {str(k): v for k, v in sorted(triple_census.items())},
    }
    # second structure: the degree-2 arc in 4 variables
    d2 = dual_arc_ad(4, 2, f)
    _, _, ok2, _, data["d2"] = _profile_law(d2, [4, 1, 0], budget, len(d2) == 1 + q + q * q + q ** 3)
    # third structure: exterior-square family on K^5
    d3 = wedge_family(f, 5)
    count3 = len(d3) == 1 + q + q * q + q ** 3 + q ** 4
    dims3 = all(m.dim == 4 for m in d3)
    m3 = d3.ambient_dim
    anns3 = d3.annihilators()
    pair_points = [stack_meet(stack, m3, f) for prefix, _, stack in meet_walk(anns3, 2) if prefix]
    pairs_ok = all(pt.dim == 1 for pt in pair_points)
    # each distinct pair point lies in exactly q + 1 members
    membership_ok = pairs_ok and all(
        sum(contained_in(anns3, pt)) == 1 + q for pt in dict.fromkeys(pair_points)
    )
    # the shared 1-spaces force unequal triple dimensions, so not a dual arc:
    # walk the triple meets until two of them differ in dimension
    triple_ranks = set()
    for prefix, _, stack in meet_walk(anns3, 3):
        if len(prefix) == 2:
            triple_ranks.add(len(stack))
            if len(triple_ranks) == 2:
                break
    is_gda = len(triple_ranks) < 2
    ok3 = count3 and dims3 and pairs_ok and membership_ok and not is_gda
    data["d3"] = {
        "members": len(d3),
        "pairwise_dim_1": pairs_ok,
        "members_per_pair_point": 1 + q if membership_ok else None,
        "is_gda": is_gda,
    }
    ok = ok1 and ok2 and ok3
    wit = None if ok else {"d1_star": ok1, "d2": ok2, "d3": ok3}
    return "exhaustive", True, ok, wit, data


def _check_derived_gda(f, seed, budget, n, d):
    fam = dual_arc_ad(n, d, f)
    der = derived_family(fam, 0)
    return _profile_law(der, [num_monomials(n, d - 1 - j) for j in range(1, d)] + [0], budget, True)


def _check_explore_spread_r(f, seed, budget, k, d):
    fam = desarguesian_spread(f, k)
    images = SubspaceFamily([veronese_subspace(u, d) for u in fam])
    r = max_independence(images, budget=budget)
    return "exhaustive", True, True, None, {"members": len(images), "max_independence": r}


def _check_vcode(f, seed, budget, n, d, wmax, powerpoints):
    build = vc.powerpoint_check_matrix if powerpoints else vc.veronese_check_matrix
    cm = build(n, d, f)
    supports = vc.minimal_supports(cm, wmax, budget=budget)
    sizes = sorted(supports)
    data = {
        "columns": cm.n_cols,
        "rank": rank(cm.h),
        "support_sizes": {str(w): len(v) for w, v in supports.items()},
    }
    for w, sups in supports.items():
        for sup in sups:
            if not vc.verify_dependency(cm, sup, vc.dependency_vector(cm, sup)):
                return "exhaustive", True, False, {"bad_witness": sup}, data
    independence_regime = not powerpoints or f.char == 0 or f.char > d
    if independence_regime:
        small = [w for w in sizes if w <= d + 1]
        if small:
            return "exhaustive", True, False, {"dependent_at": small[0]}, data
        if f.q >= d and wmax >= d + 2:
            if not sizes or sizes[0] != d + 2:
                return "exhaustive", True, False, {"min_weight": sizes[0] if sizes else None}, data
            reports = vc.classify_supports(cm, supports[d + 2])
            if any(rep.source_rank != 2 for rep in reports):
                return "exhaustive", True, False, {"nonplanar_support": True}, data
            data["min_weight"] = d + 2
    return "exhaustive", True, True, None, data


# ----------------------------------------------------------------------
# registry and suites
# ----------------------------------------------------------------------

class Param(NamedTuple):
    """One parameter of a check; see the module docstring."""
    default: object
    lo: int | str | None = None
    hi: int | str | None = None
    shown: bool = True


class Check(NamedTuple):
    """One registry entry; see the module docstring."""
    body: Callable
    field: str
    params: dict[str, Param]
    doc: str
    finite: bool = True


CHECK_REGISTRY: dict[str, Check] = {
    "T1_1": Check(_check_t1_1, "F3", {"n": Param(2, 1), "d": Param(2, 1)},
                  "any d+1 distinct degree-d point images are independent"),
    "T1_1_SHARP": Check(_check_t1_1_sharp, "F3", {"n": Param(3, 2), "d": Param(2, 1)},
                        "d+2 point images on a 2-space are dependent (q >= d)"),
    "T1_2": Check(_check_t1_2, "F2", {"k": Param(2, 1), "d": Param(2, 1), "e": Param(1, 1)},
                  "(e+1)-independent families map to (de+1)-independent images"),
    "T2_3": Check(_check_t2_3, "F2", {"k": Param(2, 1), "d": Param(2, 1)},
                  "pairwise-disjoint families map to (d+1)-independent images"),
    "L2_4": Check(_check_l2_4, "F3", {"n": Param(3, 2), "d": Param(2, 1), "trials": Param(40, 1)},
                  "image of U0 meets images of d subspaces disjoint from U0 in 0", finite=False),
    "RHO": Check(_check_rho, "F2",
                 {"n": Param(3, 1), "d": Param(2, 1), "trials": Param(None, 1, shown=False)},
                 "substitution action: identity, invertibility, functoriality, equivariance",
                 finite=False),
    "ITERATE": Check(_check_iterate, "F2", {"n": Param(2, 1), "d": Param(2, 1), "e": Param(2, 1)},
                     "composing degree maps folds into the product-degree map"),
    "SIGMA": Check(_check_sigma, "F5",
                   {"n": Param(2, 1), "d": Param(2, 1), "trials": Param(50, 1, shown=False)},
                   "diagonal rescaling carries d-th powers to monomial vectors", finite=False),
    "T1_3": Check(_check_t1_3, "F5",
                  {"n": Param(2, 2), "d": Param(2, 1), "trials": Param(100, 1, shown=False)},
                  "any d+1 powerpoints independent when char is 0 or > d", finite=False),
    "T3_3": Check(_check_t3_3, "F11", {"n": Param(2, 1), "d": Param(4, 1), "r": Param(3, 1)},
                  "r+1 powerpoints independent for large q with nonzero binomials"),
    "T3_4": Check(_check_t3_4, "F8", {"n": Param(2, 1), "d": Param(3, 1)},
                  "any 4 powerpoints independent over GF(2^m), d = 2^i + 1", finite=False),
    "T1_4": Check(_check_t1_4, "F3",
                  {"k": Param(2, 1), "d": Param(2, 1), "r": Param(2, 1, "d"), "e": Param(1, 1)},
                  "power subspaces of an (e+1)-independent family are (re+1)-independent"),
    "L4": Check(_check_l4, "F3",
                {"n": Param(3, 2), "d": Param(2, 1), "r": Param(2, 1, "d"), "trials": Param(40, 1)},
                "power of T0 meets powers of r subspaces disjoint from T0 in 0", finite=False),
    "P5_2": Check(_check_p5_2, "F2", {"n": Param(4, 2), "d": Param(2, 1), "trials": Param(40, 1)},
                  "three product-space identities for disjoint U1, U2", finite=False),
    "C5_3": Check(_check_c5_3, "F2", {"n": Param(4, 1), "d": Param(2, 1), "trials": Param(200, 1)},
                  "d-th power commutes with intersections", finite=False),
    "P5_4": Check(_check_p5_4, "F2", {"d": Param(2, 1), "r": Param(2, 2), "s": Param(2, 1)},
                  "power of a diagonal block meets the block powers in dim s or 0", finite=False),
    "T5_1": Check(_check_t5_1, "F3", {"k": Param(2, 1), "d": Param(2, 1), "r": Param(2, 2)},
                  "powers of an r-independent family are (r+1)-independent"),
    "T6_1": Check(_check_t6_1, "F2", {"n": Param(3, 2), "d": Param(2, 2)},
                  "multiples of linear forms form a dual arc with binomial profile"),
    "EQ_GDA": Check(_check_eq_gda, "F2", {"n": Param(3, 2), "d": Param(2, 2)},
                    "j-wise intersections equal multiples of the j-fold product"),
    "P6_2": Check(_check_p6_2, "F2", {"n": Param(3, 2), "d": Param(2, 2)},
                  "regularity fails exactly when d >= q^(n-1)"),
    "T6_IK": Check(_check_t6_ik, "F2", {"n": Param(2, 2), "d": Param(4, 1), "k": Param(2, 1, "d")},
                   "prime-power multiples form a dual arc with stepped profile"),
    "L6_4": Check(_check_l6_4, "F2",
                  {"n": Param(4, 1), "k": Param(2, 1, "n"), "trials": Param(20, 1)},
                  "dim of degree-1 times a k-space is kn - C(k,2)", finite=False),
    "L6_5": Check(_check_l6_5, "F2", {"k": Param(2, 1)},
                  "spread products: dims k(3k+1)/2, pairwise k^2, triple C(k,2)"),
    "P6_6": Check(_check_p6_6, "F2", {"k": Param(2, 1)},
                  "duals of spread products are 3-independent C(k+1,2)-spaces"),
    "EX10": Check(_check_ex10, "F2", {}, "three 4-space structures in dimension 10"),
    "DERIVED_GDA": Check(_check_derived_gda, "F2", {"n": Param(3, 2), "d": Param(2, 2)},
                         "fixing one member leaves a dual arc with the tail profile"),
    "EXPLORE_SPREAD_R": Check(_check_explore_spread_r, "F2", {"k": Param(2, 1), "d": Param(2, 1)},
                              "report max independence of spread images (no assertion)"),
    "VCODE": Check(_check_vcode, "F3",
                   {"n": Param(2, 2), "d": Param(2, 1), "wmax": Param(4, 1),
                    "powerpoints": Param(False, shown=False)},
                   "minimum weight and support geometry of the point-column code"),
}


def _resolve(check_id: str, check: Check, params: dict) -> tuple[dict, dict]:
    """Validate params against the check's schema.  Returns the params to
    report and the params to run the body with; a None value counts as
    not given."""
    given = {k: v for k, v in params.items() if v is not None}
    unknown = sorted(set(given) - {"field", *check.params})
    if unknown:
        takes = ", ".join(["field", *check.params])
        raise BadParams(f"{check_id} takes no parameter {unknown[0]!r} (it takes {takes})")
    shown = {k: p.default for k, p in check.params.items() if p.shown}
    shown = {"field": check.field, **shown, **given}
    full = {**{k: p.default for k, p in check.params.items()}, **shown}
    f = shown["field"]
    if isinstance(f, FieldSpec):
        shown["field"] = f.name
    elif isinstance(f, str):
        full["field"] = f = parse_field(f)
    else:
        raise BadParams(f"{check_id} needs a field such as F3 or Q, got {f!r}")
    if check.finite and not f.is_finite:
        raise InfiniteField(f"{check_id} needs a finite field, got {f.name}")
    for name, p in check.params.items():
        v = full[name]
        if v is None:  # only an implicit default is None
            continue
        want = bool if isinstance(p.default, bool) else int
        if type(v) is not want:
            raise BadParams(f"{check_id} needs {want.__name__} {name}, got {v!r}")
        lo, hi = (full[b] if isinstance(b, str) else b for b in (p.lo, p.hi))
        if (lo is not None and v < lo) or (hi is not None and v > hi):
            rule = " <= ".join(str(b) for b in (p.lo, name, p.hi) if b is not None)
            got = ", ".join(f"{b} = {full[b]}" for b in (name, p.lo, p.hi) if isinstance(b, str))
            raise BadParams(f"{check_id} needs {rule}, got {got}")
    return shown, full


def run_check(check_id: str, params: dict | None = None, seed: int | None = None,
              budget: int | None = None) -> CheckResult:
    if check_id not in CHECK_REGISTRY:
        raise UnknownCheck(check_id)
    check = CHECK_REGISTRY[check_id]
    shown, full = _resolve(check_id, check, params or {})
    seed = DEFAULT_SEED if seed is None else seed
    budget = SUBSET_BUDGET if budget is None else budget
    if budget < 1:
        raise BadParams(f"budget must be >= 1, got {budget}")
    t0 = time.perf_counter()
    _clear_power_memo()
    try:
        mode, hyp, concl, wit, data = check.body(full.pop("field"), seed, budget, **full)
    except BudgetExceeded as exc:
        exc.check = check_id
        raise
    finally:
        _clear_power_memo()
    dt = (time.perf_counter() - t0) * 1000.0
    return CheckResult(
        check_id=check_id,
        params=shown,
        mode=mode,
        hypothesis_ok=hyp,
        conclusion_ok=concl,
        witness=_jsonable(wit),
        data=_jsonable(data),
        wall_time_ms=dt,
    )


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return repr(obj)


# suite manifests: (check_id, params or None, seed)
SUITES: dict[str, list] = {
    "smoke": [
        ("T1_1", {"field": "F2", "n": 2, "d": 2}),
        ("T1_1", {"field": "F3", "n": 2, "d": 2}),
        ("RHO", {"field": "F2", "n": 2, "d": 2}),
        ("SIGMA", {"field": "F5", "n": 2, "d": 2}),
        ("C5_3", {"field": "F2", "n": 3, "d": 2, "trials": 25}),
        ("T6_1", {"field": "F2", "n": 3, "d": 2}),
        ("VCODE", {"field": "F3", "n": 2, "d": 2, "wmax": 4}),
    ],
    "full-desk": (
        [("T1_1", {"field": f"F{q}", "n": n, "d": d})
         for q in (2, 3, 4, 5) for n in (2, 3) for d in (2, 3)]
        + [
            ("T1_1_SHARP", {"field": "F3", "n": 3, "d": 2}),
            ("T1_1_SHARP", {"field": "F4", "n": 2, "d": 3}),
            ("T1_2", {"field": "F2", "k": 2, "d": 2, "e": 1}),
            ("T1_2", {"field": "F3", "k": 2, "d": 2, "e": 1}),
            ("T2_3", {"field": "F2", "k": 2, "d": 2}),
            ("L2_4", {"field": "F3", "n": 3, "d": 2, "trials": 40}),
            ("RHO", {"field": "F2", "n": 3, "d": 2}),
            ("RHO", {"field": "F5", "n": 2, "d": 3, "trials": 100}),
            ("ITERATE", {"field": "F2", "n": 2, "d": 2, "e": 2}),
            ("ITERATE", {"field": "F3", "n": 2, "d": 2, "e": 2}),
            ("SIGMA", {"field": "F5", "n": 2, "d": 2}),
            ("SIGMA", {"field": "Q", "n": 2, "d": 3}),
            ("T1_3", {"field": "F5", "n": 2, "d": 2}),
            ("T1_3", {"field": "Q", "n": 2, "d": 2, "trials": 60}),
            ("T3_3", {"field": "F11", "n": 2, "d": 4, "r": 3}),
            ("T3_4", {"field": "F8", "n": 2, "d": 3}),
            ("T1_4", {"field": "F3", "k": 2, "d": 2, "r": 2, "e": 1}),
            ("L4", {"field": "F3", "n": 3, "d": 2, "r": 2, "trials": 40}),
            ("P5_2", {"field": "F2", "n": 4, "d": 2, "trials": 30}),
            ("P5_2", {"field": "F3", "n": 4, "d": 3, "trials": 10}),
            ("C5_3", {"field": "F2", "n": 4, "d": 2, "trials": 200}),
            ("C5_3", {"field": "F2", "n": 4, "d": 3, "trials": 200}),
            ("C5_3", {"field": "F3", "n": 4, "d": 2, "trials": 200}),
            ("C5_3", {"field": "F3", "n": 4, "d": 3, "trials": 200}),
            ("P5_4", {"field": "F2", "d": 2, "r": 2, "s": 2}),
            ("P5_4", {"field": "F3", "d": 2, "r": 2, "s": 2}),
            ("T5_1", {"field": "F3", "k": 2, "d": 2, "r": 2}),
            ("T6_1", {"field": "F2", "n": 3, "d": 3}),
            ("T6_1", {"field": "F3", "n": 3, "d": 2}),
            ("EQ_GDA", {"field": "F2", "n": 3, "d": 3}),
            ("P6_2", {"field": "F2", "n": 3, "d": 2}),
            ("P6_2", {"field": "F2", "n": 3, "d": 3}),
            ("P6_2", {"field": "F2", "n": 3, "d": 4}),
            ("P6_2", {"field": "F2", "n": 2, "d": 2}),
            ("P6_2", {"field": "F2", "n": 2, "d": 3}),
            ("T6_IK", {"field": "F2", "n": 2, "d": 4, "k": 2}),
            ("L6_4", {"field": "F2", "n": 4, "k": 2, "trials": 20}),
            ("L6_4", {"field": "F3", "n": 4, "k": 2, "trials": 20}),
            ("L6_5", {"field": "F2", "k": 2}),
            ("L6_5", {"field": "F3", "k": 2}),
            ("P6_6", {"field": "F2", "k": 2}),
            ("P6_6", {"field": "F3", "k": 2}),
            ("EX10", {"field": "F2"}),
            ("DERIVED_GDA", {"field": "F2", "n": 3, "d": 2}),
            ("EXPLORE_SPREAD_R", {"field": "F2", "k": 2, "d": 2}),
            ("VCODE", {"field": "F3", "n": 3, "d": 2, "wmax": 6}),
        ]
    ),
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> tuple[list[CheckResult], int]:
    """Run a pinned suite; exit code 0 iff every hypothesis-satisfied
    check passes."""
    if name not in SUITES:
        raise UnknownCheck(f"unknown suite {name!r}")
    results = [run_check(cid, params, seed=seed) for cid, params in SUITES[name]]
    exit_code = 0 if all(r.passed for r in results) else 1
    return results, exit_code


def suite_to_json(name: str, results: list[CheckResult], with_timing: bool = False) -> str:
    doc = {
        "suite": name,
        "manifest_version": MANIFEST_VERSION,
        "results": [r.to_jsonable(with_timing) for r in results],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
