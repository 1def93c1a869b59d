"""Degree-d exponent vectors in n variables, their step tables, and multinomial coefficients.

The list produced by enumerate_exponents fixes, once and for all, the
coordinate order of the degree-d coefficient space used by every other
module: descending lexicographic order of the exponent tuples, so x1^d
comes first and xn^d last.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import add, sub

from .errors import BadParams
from .field import FieldSpec, Scalar, int_in_field
from .linalg import ENUM_BUDGET, check_budget


@functools.lru_cache(maxsize=None)
def enumerate_exponents(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All C(d+n-1, d) exponent tuples (a1, ..., an) with sum d, in
    descending lexicographic order; BudgetExceeded, before any is listed,
    when their n C(d+n-1, d) entries are more than ENUM_BUDGET, the cap of
    Matrix.identity, whose rows are the degree-1 exponents.  Each tuple
    is read off its partial sums (a1, a1 + a2, ..., a1 + ... + a(n-1)),
    the nondecreasing (n-1)-tuples in [0, d]; lex order on the sums is
    lex order on the exponents, so the sums are listed in lex order and
    reversed."""
    if n < 1 or d < 0:
        raise BadParams(f"need n >= 1 and d >= 0, got (n, d) = ({n}, {d})")
    check_budget(f"exponent entries in {n} variables of degree {d}", num_monomials(n, d) * n, ENUM_BUDGET)
    last = (d,)
    sums = itertools.combinations_with_replacement(range(d + 1), n - 1)
    return tuple([tuple(map(sub, t + last, (0,) + t)) for t in sums][::-1])


@functools.lru_cache(maxsize=None)
def _index_map(n: int, d: int) -> dict[tuple[int, ...], int]:
    return {alpha: i for i, alpha in enumerate(enumerate_exponents(n, d))}


@functools.lru_cache(maxsize=None)
def _parent_steps(n: int, d: int) -> tuple[tuple[int, int], ...]:
    """For each degree-d exponent beta (d >= 1), in order: the index of
    beta - e_i in degree d - 1, and i, the first nonzero index of beta."""
    idx = _index_map(n, d - 1)
    out = []
    for beta in enumerate_exponents(n, d):
        i = next(k for k, a in enumerate(beta) if a)
        out.append((idx[beta[:i] + (beta[i] - 1,) + beta[i + 1:]], i))
    return tuple(out)


_shift_entries = 0  # entries of the tables _shift_table's cache holds


@functools.lru_cache(maxsize=None)
def _shift_table(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Row g, entry j: the index in degree d (d >= 1) of gamma + e_j, where
    gamma is the g-th degree-(d - 1) exponent.

    In descending lex order the exponents with first entry a come after
    the N(n, d - a - 1) with a larger one, in the order of their tails in
    one variable fewer.  So gamma + e_1 keeps gamma's index, and gamma +
    e_j (j > 1) is that offset plus an entry of the table in one variable
    fewer.  Unrolled over the variables, with no recursion, entry j is
    entry j - 1 plus N(n - j, d - 1 - s_j), s_j = gamma_1 + ... + gamma_j
    (1-based).  The partial sums are listed as enumerate_exponents reads
    them, and the table is built column by column; BudgetExceeded, before
    any is listed, when its n N(n, d - 1) entries are more than
    ENUM_BUDGET.

    The cache keeps the tables until together they would hold more than
    ENUM_BUDGET entries; then it is emptied.  Each sym_power call reads
    the tables of degrees 1..d in turn, so a cap on the number of tables
    kept would drop each one just before it is read again once d passed
    the cap."""
    global _shift_entries
    top = d - 1
    check_budget(f"shift-table entries in {n} variables of degree {d}", num_monomials(n, top) * n, ENUM_BUDGET)
    sums = list(itertools.combinations_with_replacement(range(d), n - 1))[::-1]
    index = list(range(num_monomials(n, d)))  # one int object per index, shared by every row
    col = index[:len(sums)]
    cols = [col]
    for j, s in enumerate(zip(*sums), 1):
        step = [math.comb(n - j - 1 + top - t, top - t) for t in range(d)]  # N(n - j, top - t)
        col = list(map(index.__getitem__, map(add, col, map(step.__getitem__, s))))
        cols.append(col)
    table = tuple(zip(*cols))
    _shift_entries += n * len(table)
    if _shift_entries > ENUM_BUDGET:
        _shift_table.cache_clear()  # the cache stores table once this call returns
        _shift_entries = n * len(table)
    return table


@functools.lru_cache(maxsize=None)
def num_monomials(n: int, d: int) -> int:
    """C(n + d - 1, d).  It is at least 2^min(n - 1, d), and the gate
    refuses it from that exponent, before it is formed, when the bound
    alone exceeds ENUM_BUDGET: nothing that long is ever listed."""
    check_budget(f"or more monomials of degree {d} in {n} variables", 1, ENUM_BUDGET, 2, min(n - 1, d))
    return math.comb(d + n - 1, d)


def multinomial(d: int, alpha: tuple[int, ...], f: FieldSpec) -> tuple[int, Scalar]:
    """The exact integer d!/(a1! ... an!) together with its image in f."""
    if sum(alpha) != d:
        raise ValueError(f"|{alpha}| != {d}")
    c = math.factorial(d)
    for a in alpha:
        c //= math.factorial(a)
    return c, int_in_field(f, c)


def eval_monomial(t, alpha: tuple[int, ...]) -> Scalar:
    """t1^a1 * ... * tn^an with the convention 0^0 = 1."""
    if len(t) != len(alpha):
        raise ValueError(f"vector length {len(t)} != {len(alpha)}")
    f = t[0].f
    acc = f.one_raw
    mul = f.mul
    for ti, a in zip(t, alpha):
        if a:
            acc = mul(acc, (ti ** a).v)
    return Scalar(f, acc)
