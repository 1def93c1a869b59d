"""Degree-d exponent vectors in n variables, their step tables, and multinomial coefficients.

The list produced by enumerate_exponents fixes, once and for all, the
coordinate order of the degree-d coefficient space used by every other
module: descending lexicographic order of the exponent tuples, so x1^d
comes first and xn^d last.
"""

from __future__ import annotations

import functools
import math

from .errors import BadParams, IndexOutOfRange
from .field import FieldSpec, Scalar, int_in_field


@functools.lru_cache(maxsize=None)
def enumerate_exponents(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All C(d+n-1, d) exponent tuples (a1, ..., an) with sum d, in
    descending lexicographic order."""
    if n < 1 or d < 0:
        raise BadParams(f"need n >= 1 and d >= 0, got (n, d) = ({n}, {d})")
    if n == 1:
        return ((d,),)
    out = []
    for a1 in range(d, -1, -1):
        for rest in enumerate_exponents(n - 1, d - a1):
            out.append((a1,) + rest)
    return tuple(out)


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


@functools.lru_cache(maxsize=None)
def _shift_table(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Row g, entry j: the index in degree d (d >= 1) of gamma + e_j, where
    gamma is the g-th degree-(d - 1) exponent."""
    idx = _index_map(n, d)
    return tuple(
        tuple(idx[gamma[:j] + (gamma[j] + 1,) + gamma[j + 1:]] for j in range(n))
        for gamma in enumerate_exponents(n, d - 1)
    )


def num_monomials(n: int, d: int) -> int:
    return math.comb(d + n - 1, d)


def exponent_index(alpha: tuple[int, ...]) -> int:
    """Position of alpha in enumerate_exponents(len(alpha), sum(alpha))."""
    n, d = len(alpha), sum(alpha)
    try:
        return _index_map(n, d)[tuple(alpha)]
    except KeyError:
        raise IndexOutOfRange(f"{alpha} is not a valid exponent vector") from None


def index_exponent(n: int, d: int, i: int) -> tuple[int, ...]:
    exps = enumerate_exponents(n, d)
    if not 0 <= i < len(exps):
        raise IndexOutOfRange(f"index {i} out of range for (n, d) = ({n}, {d})")
    return exps[i]


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
