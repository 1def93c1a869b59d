"""Named checks binding each verified statement to parameters, plus the
suite runner.

Every check reports through a CheckResult that separates hypothesis
failure from conclusion failure: a conditional statement whose premise
does not hold at the given parameters is reported as hypothesis_ok=False
with no conclusion, never as a failure.  Reports are deterministic given
(check_id, params, seed); wall time is measured but excluded from the
canonical JSON so identical runs serialize identically.

The suite manifests at the bottom of this module pin the default
parameter grids; bump MANIFEST_VERSION when they change.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import BadCharacteristic, BadParams, BudgetExceeded, InfiniteField, UnknownCheck
from .field import FieldSpec, Scalar, int_in_field, parse_field
from .independence import SubspaceFamily, check_image_independence, is_r_independent, max_independence
from .linalg import (
    Matrix,
    Subspace,
    projective_points,
    projective_vectors,
    rank,
    span,
    subspace_intersect,
    subspace_le,
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
    all_invertible_matrices,
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
DEFAULT_BUDGET = 10 ** 7


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

def _field(params: dict) -> FieldSpec:
    f = params["field"]
    return f if isinstance(f, FieldSpec) else parse_field(f)


def _sampled_mode(seed: int, trials: int) -> str:
    return f"sampled(seed={seed},trials={trials})"


def _random_vector(rng: random.Random, f: FieldSpec, m: int):
    if f.is_finite:
        return tuple(Scalar(f, rng.randrange(f.q)) for _ in range(m))
    return tuple(Scalar(f, Fraction(rng.randint(-5, 5))) for _ in range(m))


def _random_subspace(rng: random.Random, f: FieldSpec, m: int, dim: int) -> Subspace:
    while True:
        s = span([_random_vector(rng, f, m) for _ in range(dim)], m, f)
        if s.dim == dim:
            return s


def _random_subspace_disjoint(rng, f, m, dim, avoid: Subspace) -> Subspace:
    for _ in range(1000):
        s = _random_subspace(rng, f, m, dim)
        if subspace_intersect(s, avoid).is_zero():
            return s
    raise BudgetExceeded("could not sample a disjoint subspace")


def _veronese_point_family(f: FieldSpec, n: int, d: int) -> SubspaceFamily:
    return SubspaceFamily([veronese_point(t, d) for t in projective_points(f, n)])


def _powerpoint_family(f: FieldSpec, n: int, d: int) -> SubspaceFamily:
    big_n = num_monomials(n, d)
    members = []
    seen = set()
    for t in projective_points(f, n):
        p = linear_form_power(HomogPoly.linear_form(t), d)
        s = span([p.coeffs], big_n, f)
        if s not in seen:
            seen.add(s)
            members.append(s)
    return SubspaceFamily(members)


def _join(subspaces, ambient: int, f: FieldSpec) -> Subspace:
    rows = [r for s in subspaces for r in s.basis.row_list()]
    return span(rows, ambient, f)


# ----------------------------------------------------------------------
# check implementations; each returns (mode, hyp_ok, concl_ok, witness, data)
# ----------------------------------------------------------------------

def _check_t1_1(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    fam = _veronese_point_family(f, n, d)
    if len(fam) < d + 1:  # no (d+1)-subsets exist
        return "exhaustive", True, True, None, {"points": len(fam), "vacuous": True}
    ok, wit = is_r_independent(fam, d + 1, budget=budget)
    return "exhaustive", True, ok, wit, {"points": len(fam)}


def _check_t1_1_sharp(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    if not f.is_finite:
        raise InfiniteField("T1_1_SHARP enumerates the points of a 2-space, so it needs a finite field")
    if f.q < d:
        return "exhaustive", False, None, None, {"reason": "q < d"}
    plane = span(
        [tuple(f.one() if k == i else f.zero() for k in range(n)) for i in (0, 1)], n, f
    )
    images = [veronese_vector(t, d) for t in projective_vectors(plane)]
    big_n = num_monomials(n, d)
    for idxs in itertools.combinations(range(len(images)), d + 2):
        if span([images[i] for i in idxs], big_n, f).dim == d + 2:
            return "exhaustive", True, False, idxs, {}
    return "exhaustive", True, True, None, {"points_on_plane": len(images)}


def _check_t1_2(params, seed, budget):
    f, k, d, e = _field(params), params["k"], params["d"], params["e"]
    fam = desarguesian_spread(f, k)
    rep = check_image_independence(fam, d, e, budget=budget)
    data = {"members": len(fam), "r": rep.r}
    if not rep.hypothesis_ok:
        data["hypothesis_witness"] = _jsonable(rep.witness)
        return "exhaustive", False, None, None, data
    return "exhaustive", True, rep.conclusion_ok, rep.witness, data


def _check_t2_3(params, seed, budget):
    f, k, d = _field(params), params["k"], params["d"]
    fam = desarguesian_spread(f, k)
    hyp_ok, hyp_wit = is_r_independent(fam, 2, budget=budget)
    if not hyp_ok or len(fam) < d + 1:
        return "exhaustive", False, None, None, {"hypothesis_witness": _jsonable(hyp_wit)}
    images = SubspaceFamily([veronese_subspace(u, d) for u in fam])
    ok, wit = is_r_independent(images, d + 1, budget=budget)
    return "exhaustive", True, ok, wit, {"members": len(fam)}


def _check_l2_4(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    if n < 2:
        raise BadParams(f"L2_4 splits K^n into two nonzero parts, so needs n >= 2, got {n}")
    trials = params["trials"]
    rng = random.Random(seed)
    big_n = num_monomials(n, d)
    for trial in range(trials):
        dim0 = rng.randint(1, max(1, n - 1))
        u0 = _random_subspace(rng, f, n, dim0)
        others = []
        for _ in range(d):
            dim_j = rng.randint(1, n - dim0)
            others.append(_random_subspace_disjoint(rng, f, n, dim_j, u0))
        left = veronese_subspace(u0, d)
        right = _join([veronese_subspace(u, d) for u in others], big_n, f)
        if not subspace_intersect(left, right).is_zero():
            return _sampled_mode(seed, trials), True, False, {"trial": trial}, {}
    return _sampled_mode(seed, trials), True, True, None, {}


def _raw_key(m: Matrix) -> tuple:
    return tuple(s.v for s in m.entries)


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


def _rho_functoriality_witness(mats, rhos, gens):
    """None when rho(a * b) == rho(a) * rho(b) for all a, b in mats, else a
    witness; rhos maps raw entries to rho, with rho(identity) checked.
    Tests g * b for g in gens only, then walks the edges b -> g * b from
    the identity: the induction in the veronese module docstring needs the
    walk to reach every map, so a shorter walk is a failure."""
    edges = {}
    for g in gens:
        rg = rhos[_raw_key(g)]
        for b in mats:
            kb, gb = _raw_key(b), _raw_key(g * b)
            if rhos[gb] != rg * rhos[kb]:
                return {"functoriality": True}
            edges.setdefault(kb, []).append(gb)
    start = _raw_key(Matrix.identity(mats[0].field, mats[0].rows))
    reached, stack = {start}, [start]
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    if len(reached) != len(mats):
        return {"functoriality": "incomplete", "reached": len(reached), "maps": len(mats)}
    return None


def _check_rho(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    trials = params.get("trials")
    big_n = num_monomials(n, d)
    ident_ok = rho_d(Matrix.identity(f, n), d) == Matrix.identity(f, big_n)
    if not ident_ok:
        return "exhaustive", True, False, {"identity": False}, {}
    exhaustive = f.is_finite and f.q ** (n * n) <= 10 ** 5 and trials is None
    if exhaustive:
        mats = list(all_invertible_matrices(f, n))
        rhos = {}
        for m in mats:
            r = rho_d(m, d)
            rhos[_raw_key(m)] = r
            if rank(r) != big_n:
                return "exhaustive", True, False, {"singular_rho": True}, {}
        vectors = [
            tuple(Scalar(f, c) for c in combo)
            for combo in itertools.product(range(f.q), repeat=n)
        ]
        for m in mats:
            rm = rhos[_raw_key(m)]
            for t in vectors:
                if veronese_vector(m.apply(t), d) != rm.apply(veronese_vector(t, d)):
                    return "exhaustive", True, False, {"equivariance": True}, {}
        wit = _rho_functoriality_witness(mats, rhos, _elementary_matrices(f, n))
        if wit is not None:
            return "exhaustive", True, False, wit, {}
        return "exhaustive", True, True, None, {"maps": len(mats)}
    trials = trials or 100
    rng = random.Random(seed)
    for trial in range(trials):
        a = random_invertible_matrix(rng, f, n)
        b = random_invertible_matrix(rng, f, n)
        ra, rb, rab = rho_d(a, d), rho_d(b, d), rho_d(a * b, d)
        if rab != ra * rb or rank(ra) != big_n:
            return _sampled_mode(seed, trials), True, False, {"trial": trial}, {}
        t = _random_vector(rng, f, n)
        if veronese_vector(a.apply(t), d) != ra.apply(veronese_vector(t, d)):
            return _sampled_mode(seed, trials), True, False, {"trial": trial, "equivariance": True}, {}
    return _sampled_mode(seed, trials), True, True, None, {}


def _check_iterate(params, seed, budget):
    f, n, d, e = _field(params), params["n"], params["d"], params["e"]
    if not f.is_finite:
        raise InfiniteField("ITERATE enumerates K^n, so it needs a finite field")
    big_n = num_monomials(n, d)
    idx_ed = _index_map(n, d * e)
    outer = enumerate_exponents(big_n, e)
    alphas = enumerate_exponents(n, d)
    # each degree-e exponent over the N coordinates folds to a degree-de one
    fold = []
    for m_exp in outer:
        beta = [0] * n
        for coord, mult in enumerate(m_exp):
            if mult:
                for pos, a in enumerate(alphas[coord]):
                    beta[pos] += a * mult
        fold.append(idx_ed[tuple(beta)])
    for combo in itertools.product(range(f.q), repeat=n):
        t = tuple(Scalar(f, c) for c in combo)
        inner = veronese_vector(t, d)
        lhs = veronese_vector(inner, e)
        rhs = veronese_vector(t, d * e)
        for i, j in enumerate(fold):
            if lhs[i] != rhs[j]:
                return "exhaustive", True, False, {"t": list(combo)}, {}
    return "exhaustive", True, True, None, {}


def _check_sigma(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    trials = params.get("trials", 50)
    try:
        sig = sigma_iso(n, d, f)
    except BadCharacteristic:
        return "exhaustive", False, None, None, {"reason": "vanishing multinomial"}
    if f.is_finite:
        vectors = projective_points(f, n)
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        vectors = [_random_vector(rng, f, n) for _ in range(trials)]
        mode = _sampled_mode(seed, trials)
    for t in vectors:
        p = linear_form_power(HomogPoly.linear_form(t), d)
        if sig.apply(p.coeffs) != veronese_vector(t, d):
            return mode, True, False, {"t": [str(s) for s in t]}, {}
    return mode, True, True, None, {}


def _check_t1_3(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    if not (f.char == 0 or f.char > d):
        return "exhaustive", False, None, None, {"reason": "characteristic <= d"}
    if f.is_finite:
        fam = _powerpoint_family(f, n, d)
        ok, wit = is_r_independent(fam, d + 1, budget=budget)
        return "exhaustive", True, ok, wit, {"points": len(fam)}
    trials = params.get("trials", 100)
    rng = random.Random(seed)
    big_n = num_monomials(n, d)
    for trial in range(trials):
        forms = set()
        while len(forms) < d + 1:
            v = _random_vector(rng, f, n)
            s = span([v], n, f)
            if not s.is_zero():
                forms.add(s)
        vecs = [
            linear_form_power(HomogPoly.linear_form(s.basis.row(0)), d).coeffs
            for s in sorted(forms, key=lambda s: [str(x) for x in s.basis.row(0)])
        ]
        if span(vecs, big_n, f).dim != d + 1:
            return _sampled_mode(seed, trials), True, False, {"trial": trial}, {}
    return _sampled_mode(seed, trials), True, True, None, {}


def _check_t3_3(params, seed, budget):
    f, n, d, r = _field(params), params["n"], params["d"], params["r"]
    if not f.is_finite:
        raise InfiniteField("T3_3 enumerates the points of PG(n-1, q), so it needs a finite field")
    binoms = [math.comb(d, i) for i in range(r + 1)]
    hyp = f.q > (r + 1) ** 2 / 2 and all(int_in_field(f, b).v != f.zero_raw for b in binoms)
    if not hyp:
        return "exhaustive", False, None, None, {"reason": "hypothesis"}
    fam = _powerpoint_family(f, n, d)
    ok, wit = is_r_independent(fam, r + 1, budget=budget)
    return "exhaustive", True, ok, wit, {"points": len(fam)}


def _check_t3_4(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    hyp = f.char == 2 and f.m >= 3 and d > 2 and (d - 1) & (d - 2) == 0
    if hyp:
        i = (d - 1).bit_length() - 1
        hyp = math.gcd(i, f.m) == 1
    if not hyp:
        return "exhaustive", False, None, None, {"reason": "hypothesis"}
    fam = _powerpoint_family(f, n, d)
    ok, wit = is_r_independent(fam, 4, budget=budget)
    return "exhaustive", True, ok, wit, {"points": len(fam)}


def _check_t1_4(params, seed, budget):
    f, k, d, r, e = _field(params), params["k"], params["d"], params["r"], params["e"]
    falling = math.factorial(d) // math.factorial(d - r)
    if int_in_field(f, falling).v == f.zero_raw:
        return "exhaustive", False, None, None, {"reason": "d!/(d-r)! = 0"}
    fam = desarguesian_spread(f, k)
    r_conc = r * e + 1
    hyp_ok, hyp_wit = is_r_independent(fam, e + 1, budget=budget)
    if not hyp_ok or len(fam) < r_conc:
        return "exhaustive", False, None, None, {"hypothesis_witness": _jsonable(hyp_wit)}
    powers = SubspaceFamily([power_subspace(t, d) for t in fam])
    ok, wit = is_r_independent(powers, r_conc, budget=budget)
    return "exhaustive", True, ok, wit, {"members": len(fam), "r": r_conc}


def _check_l4(params, seed, budget):
    f, n, d, r = _field(params), params["n"], params["d"], params["r"]
    trials = params["trials"]
    falling = math.factorial(d) // math.factorial(d - r)
    if int_in_field(f, falling).v == f.zero_raw:
        return "exhaustive", False, None, None, {"reason": "d!/(d-r)! = 0"}
    rng = random.Random(seed)
    big_n = num_monomials(n, d)
    for trial in range(trials):
        dim0 = rng.randint(1, max(1, n - 1))
        t0 = _random_subspace(rng, f, n, dim0)
        others = []
        for _ in range(r):
            dim_j = rng.randint(1, n - dim0)
            others.append(_random_subspace_disjoint(rng, f, n, dim_j, t0))
        left = power_subspace(t0, d)
        right = _join([power_subspace(t, d) for t in others], big_n, f)
        if not subspace_intersect(left, right).is_zero():
            return _sampled_mode(seed, trials), True, False, {"trial": trial}, {}
    return _sampled_mode(seed, trials), True, True, None, {}


def _check_p5_2(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    if n < 2:
        raise BadParams(f"P5_2 splits K^n into two nonzero parts, so needs n >= 2, got {n}")
    trials = params["trials"]
    rng = random.Random(seed)
    big_n = num_monomials(n, d)
    a_full = component_space(f, n, 1)
    a_dm1 = component_space(f, n, d - 1)
    for trial in range(trials):
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
                return _sampled_mode(seed, trials), True, False, {"trial": trial, "eq": 7}, {}
        # direct decomposition of the power of the sum
        pieces = []
        for k in range(d + 1):
            if k == 0:
                pieces.append(power_subspace(u2, d))
            elif k == d:
                pieces.append(power_subspace(u1, d))
            else:
                pieces.append(
                    product_space(power_subspace(u1, k), k, power_subspace(u2, d - k), d - k, n)
                )
        total = _join(pieces, big_n, f)
        if total != power_subspace(subspace_sum(u1, u2), d):
            return _sampled_mode(seed, trials), True, False, {"trial": trial, "eq": 8}, {}
        if sum(p.dim for p in pieces) != total.dim:
            return _sampled_mode(seed, trials), True, False, {"trial": trial, "eq": 8}, {}
        if not subspace_intersect(power_subspace(u1, d), au2).is_zero():
            return _sampled_mode(seed, trials), True, False, {"trial": trial, "eq": 9}, {}
    return _sampled_mode(seed, trials), True, True, None, {}


def _check_c5_3(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    trials = params["trials"]
    rng = random.Random(seed)
    for trial in range(trials):
        b = _random_subspace(rng, f, n, rng.randint(0, n))
        c = _random_subspace(rng, f, n, rng.randint(0, n))
        if not power_intersection_check(b, c, d):
            return _sampled_mode(seed, trials), True, False, {"trial": trial}, {}
    return _sampled_mode(seed, trials), True, True, None, {}


def _check_p5_4(params, seed, budget):
    f, d, r, s = _field(params), params["d"], params["r"], params["s"]
    n = r * s
    big_n = num_monomials(n, d)

    def unit(i):
        return tuple(f.one() if k == i else f.zero() for k in range(n))

    blocks = [
        span([unit(i * s + j) for j in range(s)], n, f) for i in range(r)
    ]
    add_rows = []
    for j in range(s):
        row = [f.zero_raw] * n
        for i in range(r):
            row[i * s + j] = f.one_raw
        add_rows.append(tuple(Scalar(f, x) for x in row))
    t_last = span(add_rows, n, f)
    fam = SubspaceFamily(blocks + [t_last])
    hyp_ok, hyp_wit = is_r_independent(fam, r, budget=budget)
    if not hyp_ok:
        return "exhaustive", False, None, None, {"hypothesis_witness": _jsonable(hyp_wit)}
    powers = [power_subspace(t, d) for t in blocks]
    total = _join(powers, big_n, f)
    if total.dim != sum(p.dim for p in powers):
        return "exhaustive", True, False, {"direct_sum": False}, {}
    inter = subspace_intersect(power_subspace(t_last, d), total)
    p = f.char
    is_p_power = False
    if p:
        dd = d
        while dd % p == 0:
            dd //= p
        is_p_power = dd == 1 and d > 1
    expected = s if is_p_power else 0
    ok = inter.dim == expected
    return "exhaustive", True, ok, None if ok else {"dim": inter.dim, "expected": expected}, {
        "intersection_dim": inter.dim,
        "p_power_branch": is_p_power,
    }


def _check_t5_1(params, seed, budget):
    f, k, d, r = _field(params), params["k"], params["d"], params["r"]
    p = f.char
    is_p_power = False
    if p:
        dd = d
        while dd % p == 0:
            dd //= p
        is_p_power = dd == 1
    if d <= 1 or is_p_power:
        return "exhaustive", False, None, None, {"reason": "d is a power of char K"}
    fam = desarguesian_spread(f, k)
    hyp_ok, hyp_wit = is_r_independent(fam, r, budget=budget)
    if not hyp_ok or len(fam) < r + 1:
        return "exhaustive", False, None, None, {"hypothesis_witness": _jsonable(hyp_wit)}
    powers = SubspaceFamily([power_subspace(t, d) for t in fam])
    ok, wit = is_r_independent(powers, r + 1, budget=budget)
    return "exhaustive", True, ok, wit, {"members": len(fam)}


def _check_t6_1(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    fam = dual_arc_ad(n, d, f)
    expected = tuple(num_monomials(n, d - j) for j in range(d + 1))
    rep = gda_profile(fam, d + 1, expected=expected, budget=budget)
    count_ok = len(fam) == (f.q ** n - 1) // (f.q - 1)
    ok = rep.is_gda and count_ok
    return "exhaustive", True, ok, None if ok else {"profile": rep.constant_profile()}, {
        "members": len(fam),
        "profile": rep.constant_profile(),
    }


def _check_eq_gda(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    fam = dual_arc_ad(n, d, f)
    points = projective_points(f, n)
    a_spaces = {j: component_space(f, n, d - j) for j in range(2, d + 1)}
    for j in range(2, d + 1):
        for idxs in itertools.combinations(range(len(fam)), j):
            inter = fam[idxs[0]]
            for i in idxs[1:]:
                inter = subspace_intersect(inter, fam[i])
            prod = HomogPoly.linear_form(points[idxs[0]])
            for i in idxs[1:]:
                prod = poly_mul(prod, HomogPoly.linear_form(points[i]))
            y_space = span([prod.coeffs], num_monomials(n, j), f)
            rhs = product_space(a_spaces[j], d - j, y_space, j, n)
            if inter != rhs:
                return "exhaustive", True, False, {"subset": idxs}, {}
    return "exhaustive", True, True, None, {}


def _check_p6_2(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    fam = dual_arc_ad(n, d, f)
    reg_ok, wit = is_regular(fam, budget=budget)
    expected_nonregular = f.is_finite and d >= f.q ** (n - 1)
    ok = reg_ok == (not expected_nonregular)
    return "exhaustive", True, ok, None if ok else {"regular": reg_ok, "witness": wit}, {
        "regular": reg_ok,
        "boundary_nonregular": expected_nonregular,
    }


def _check_t6_ik(params, seed, budget):
    f, n, d, k = _field(params), params["n"], params["d"], params["k"]
    fam = dual_arc_ik(n, d, k, f, budget=budget)
    c = d // k
    expected = (num_monomials(n, d),) + tuple(num_monomials(n, d - m * k) for m in range(1, c + 1))
    rep = gda_profile(fam, c + 1, expected=expected, budget=budget)
    return "exhaustive", True, rep.is_gda, None if rep.is_gda else {"profile": rep.constant_profile()}, {
        "members": len(fam),
        "profile": rep.constant_profile(),
    }


def _check_l6_4(params, seed, budget):
    f, n, k = _field(params), params["n"], params["k"]
    trials = params.get("trials", 20)
    rng = random.Random(seed)
    a1 = component_space(f, n, 1)
    expected = k * n - math.comb(k, 2)
    subspaces = [
        span([tuple(f.one() if j == i else f.zero() for j in range(n)) for i in range(k)], n, f)
    ]
    subspaces += [_random_subspace(rng, f, n, k) for _ in range(trials)]
    for i, h in enumerate(subspaces):
        got = product_space(a1, 1, h, 1, n).dim
        if got != expected:
            return _sampled_mode(seed, trials), True, False, {"case": i, "dim": got}, {}
    return _sampled_mode(seed, trials), True, True, None, {"expected_dim": expected}


def _check_l6_5(params, seed, budget):
    f, k = _field(params), params["k"]
    fam = partial_spread_products(f, k)
    rep = gda_profile(fam, 3, budget=budget)
    prof = rep.constant_profile()
    want = [k * (3 * k + 1) // 2, k * k, math.comb(k, 2)]
    ok = prof == want
    return "exhaustive", True, ok, None if ok else {"profile": prof}, {"profile": prof, "members": len(fam)}


def _check_p6_6(params, seed, budget):
    f, k = _field(params), params["k"]
    fam = partial_spread_products(f, k)
    duals = dual_family(fam)
    dims_ok = all(m.dim == math.comb(k + 1, 2) for m in duals)
    ok, wit = is_r_independent(duals, 3, budget=budget)
    return "exhaustive", True, dims_ok and ok, wit, {"members": len(duals)}


def _check_ex10(params, seed, budget):
    f = _field(params)
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
    rep2 = gda_profile(d2, 3, expected=(10, 4, 1), budget=budget)
    ok2 = rep2.is_gda and len(d2) == 1 + q + q * q + q ** 3
    data["d2"] = {"members": len(d2), "profile": rep2.constant_profile()}
    # third structure: exterior-square family on K^5
    d3 = wedge_family(f, 5)
    count3 = len(d3) == 1 + q + q * q + q ** 3 + q ** 4
    dims3 = all(m.dim == 4 for m in d3)
    pair_points = []
    pairs_ok = True
    for i, j in itertools.combinations(range(len(d3)), 2):
        inter = subspace_intersect(d3[i], d3[j])
        if inter.dim != 1:
            pairs_ok = False
            break
        pair_points.append(inter)
    membership_ok = pairs_ok
    if pairs_ok:
        seen = set()
        for pt in pair_points:
            if pt in seen:
                continue
            seen.add(pt)
            n_holding = sum(1 for m in d3 if subspace_le(pt, m))
            if n_holding != 1 + q:
                membership_ok = False
                break
    # the shared 1-spaces force unequal triple dimensions, so not a dual arc
    pts = projective_points(f, 5)
    collinear = None
    independent = None
    for idxs in itertools.combinations(range(len(pts)), 3):
        r = span([pts[i] for i in idxs], 5, f).dim
        if r == 2 and collinear is None:
            collinear = idxs
        if r == 3 and independent is None:
            independent = idxs
        if collinear and independent:
            break

    def triple_dim(idxs):
        inter = subspace_intersect(d3[idxs[0]], d3[idxs[1]])
        return subspace_intersect(inter, d3[idxs[2]]).dim

    not_gda = triple_dim(collinear) != triple_dim(independent)
    ok3 = count3 and dims3 and pairs_ok and membership_ok and not_gda
    data["d3"] = {
        "members": len(d3),
        "pairwise_dim_1": pairs_ok,
        "members_per_pair_point": 1 + q if membership_ok else None,
        "is_gda": not not_gda,
    }
    ok = ok1 and ok2 and ok3
    wit = None if ok else {"d1_star": ok1, "d2": ok2, "d3": ok3}
    return "exhaustive", True, ok, wit, data


def _check_derived_gda(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    fam = dual_arc_ad(n, d, f)
    der = derived_family(fam, 0)
    expected = tuple(num_monomials(n, d - 1 - j) for j in range(1, d))
    rep = gda_profile(der, d, expected=expected if expected else None, budget=budget)
    ok = rep.is_gda
    return "exhaustive", True, ok, None if ok else {"profile": rep.constant_profile()}, {
        "members": len(der),
        "profile": rep.constant_profile(),
    }


def _check_explore_spread_r(params, seed, budget):
    f, k, d = _field(params), params["k"], params["d"]
    fam = desarguesian_spread(f, k)
    images = SubspaceFamily([veronese_subspace(u, d) for u in fam])
    r = max_independence(images, budget=budget)
    return "exhaustive", True, True, None, {"members": len(images), "max_independence": r}


def _check_vcode(params, seed, budget):
    f, n, d = _field(params), params["n"], params["d"]
    wmax = params["wmax"]
    use_powerpoints = params.get("powerpoints", False)
    cm = (
        vc.powerpoint_check_matrix(n, d, f)
        if use_powerpoints
        else vc.veronese_check_matrix(n, d, f)
    )
    supports = vc.minimal_supports(cm, wmax, budget=budget)
    sizes = sorted(supports)
    data = {
        "columns": cm.n_cols,
        "rank": vc.code_rank(cm),
        "support_sizes": {str(w): len(v) for w, v in supports.items()},
    }
    for w, sups in supports.items():
        for sup in sups:
            if not vc.verify_dependency(cm, sup, vc.dependency_vector(cm, sup)):
                return "exhaustive", True, False, {"bad_witness": sup}, data
    independence_regime = not use_powerpoints or f.char == 0 or f.char > d
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

CHECK_REGISTRY: dict[str, tuple] = {
    # id -> (function, defaults, one line description)
    "T1_1": (_check_t1_1, {"field": "F3", "n": 2, "d": 2},
             "any d+1 distinct degree-d point images are independent"),
    "T1_1_SHARP": (_check_t1_1_sharp, {"field": "F3", "n": 3, "d": 2},
                   "d+2 point images on a 2-space are dependent (q >= d)"),
    "T1_2": (_check_t1_2, {"field": "F2", "k": 2, "d": 2, "e": 1},
             "(e+1)-independent families map to (de+1)-independent images"),
    "T2_3": (_check_t2_3, {"field": "F2", "k": 2, "d": 2},
             "pairwise-disjoint families map to (d+1)-independent images"),
    "L2_4": (_check_l2_4, {"field": "F3", "n": 3, "d": 2, "trials": 40},
             "image of U0 meets images of d subspaces disjoint from U0 in 0"),
    "RHO": (_check_rho, {"field": "F2", "n": 3, "d": 2},
            "substitution action: identity, invertibility, functoriality, equivariance"),
    "ITERATE": (_check_iterate, {"field": "F2", "n": 2, "d": 2, "e": 2},
                "composing degree maps folds into the product-degree map"),
    "SIGMA": (_check_sigma, {"field": "F5", "n": 2, "d": 2},
              "diagonal rescaling carries d-th powers to monomial vectors"),
    "T1_3": (_check_t1_3, {"field": "F5", "n": 2, "d": 2},
             "any d+1 powerpoints independent when char is 0 or > d"),
    "T3_3": (_check_t3_3, {"field": "F11", "n": 2, "d": 4, "r": 3},
             "r+1 powerpoints independent for large q with nonzero binomials"),
    "T3_4": (_check_t3_4, {"field": "F8", "n": 2, "d": 3},
             "any 4 powerpoints independent over GF(2^m), d = 2^i + 1"),
    "T1_4": (_check_t1_4, {"field": "F3", "k": 2, "d": 2, "r": 2, "e": 1},
             "power subspaces of an (e+1)-independent family are (re+1)-independent"),
    "L4": (_check_l4, {"field": "F3", "n": 3, "d": 2, "r": 2, "trials": 40},
           "power of T0 meets powers of r subspaces disjoint from T0 in 0"),
    "P5_2": (_check_p5_2, {"field": "F2", "n": 4, "d": 2, "trials": 40},
             "three product-space identities for disjoint U1, U2"),
    "C5_3": (_check_c5_3, {"field": "F2", "n": 4, "d": 2, "trials": 200},
             "d-th power commutes with intersections"),
    "P5_4": (_check_p5_4, {"field": "F2", "d": 2, "r": 2, "s": 2},
             "power of a diagonal block meets the block powers in dim s or 0"),
    "T5_1": (_check_t5_1, {"field": "F3", "k": 2, "d": 2, "r": 2},
             "powers of an r-independent family are (r+1)-independent"),
    "T6_1": (_check_t6_1, {"field": "F2", "n": 3, "d": 2},
             "multiples of linear forms form a dual arc with binomial profile"),
    "EQ_GDA": (_check_eq_gda, {"field": "F2", "n": 3, "d": 2},
               "j-wise intersections equal multiples of the j-fold product"),
    "P6_2": (_check_p6_2, {"field": "F2", "n": 3, "d": 2},
             "regularity fails exactly when d >= q^(n-1)"),
    "T6_IK": (_check_t6_ik, {"field": "F2", "n": 2, "d": 4, "k": 2},
              "prime-power multiples form a dual arc with stepped profile"),
    "L6_4": (_check_l6_4, {"field": "F2", "n": 4, "k": 2, "trials": 20},
             "dim of degree-1 times a k-space is kn - C(k,2)"),
    "L6_5": (_check_l6_5, {"field": "F2", "k": 2},
             "spread products: dims k(3k+1)/2, pairwise k^2, triple C(k,2)"),
    "P6_6": (_check_p6_6, {"field": "F2", "k": 2},
             "duals of spread products are 3-independent C(k+1,2)-spaces"),
    "EX10": (_check_ex10, {"field": "F2"},
             "three 4-space structures in dimension 10"),
    "DERIVED_GDA": (_check_derived_gda, {"field": "F2", "n": 3, "d": 2},
                    "fixing one member leaves a dual arc with the tail profile"),
    "EXPLORE_SPREAD_R": (_check_explore_spread_r, {"field": "F2", "k": 2, "d": 2},
                         "report max independence of spread images (no assertion)"),
    "VCODE": (_check_vcode, {"field": "F3", "n": 2, "d": 2, "wmax": 4},
              "minimum weight and support geometry of the point-column code"),
}


def run_check(check_id: str, params: dict | None = None, seed: int | None = None,
              budget: int | None = None) -> CheckResult:
    if check_id not in CHECK_REGISTRY:
        raise UnknownCheck(check_id)
    fn, defaults, _ = CHECK_REGISTRY[check_id]
    merged = dict(defaults)
    if params:
        merged.update({k: v for k, v in params.items() if v is not None})
    seed = DEFAULT_SEED if seed is None else seed
    budget = DEFAULT_BUDGET if budget is None else budget
    t0 = time.perf_counter()
    mode, hyp, concl, wit, data = fn(merged, seed, budget)
    dt = (time.perf_counter() - t0) * 1000.0
    shown = {k: (v if not isinstance(v, FieldSpec) else v.name) for k, v in merged.items()}
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
