"""Exact scalar arithmetic over GF(p^m) and Q.

Elements of GF(p^m) are represented by an integer index in [0, p^m).  The
base-p digits of the index, least significant first, are the coefficients
of the element written over the power basis 1, x, ..., x^(m-1) of
GF(p)[x] / (modulus).  Index 0 is the zero element and index 1 the one
element, and enumeration by increasing index is the canonical element
order used everywhere downstream (fixture files store these indices).

Elements of Q are represented by fractions.Fraction, which keeps every
value in lowest terms with a positive denominator.  A Q Scalar may hold
an int: those a sampled check draws do (div and inv are exact on ints).
The elimination, matrix products, intersections, Sym^d, power subspaces
and product spaces over Q clear denominators and compute on ints,
building one Fraction per stored output value (see the linalg module).

A FieldSpec owns the arithmetic: it exposes raw operations (add, mul,
neg, inv, ...) on the underlying representation, and one fused op,
fma(a, b, c) = a + b*c, which the elimination and product kernels use
for every row update (a - f*b is fma(a, -f, b), with -f taken once per
row).  Matrices, subspaces and polynomials store raw values and compute
with these operations.  Scalar, a field plus one raw value with operator
syntax and field-mismatch checking, is the boundary type: public vectors,
fixtures, the CLI and the pointwise monomial evaluation speak Scalars,
and the linalg and polyalgebra modules box and unbox where values cross
into them.  A finite field
builds log/antilog tables on a primitive element at construction (Lidl &
Niederreiter, Finite Fields, 9.3); they take O(q) space, so q <= 2^16.
Above q = 64 the raw operations are lookups in them: mul, inv, div and
neg always (mul is exp[log[a] + log[b]], or a * b % p for primes), add
for odd-p extensions (Zech logarithms), while add is XOR for
p = 2 and mod p for primes.  Up to q = 64 their values fill full q x q
tables, so every binary op is a single 2-D lookup.

fma is one call on every backend:
  q <= 64         add_t[a][mul_t[b][c]]
  p = 2, q > 64   a ^ exp[log[b] + log[c]]
  primes > 64     (a + b*c) % p
  odd p, m >= 2   a plus exp[log[b] + log[c]] by the Zech logarithm
  Q               a + b*c
"""

from __future__ import annotations

import functools
import itertools
import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, InfiniteField, NonPrimeP

_TABLE_LIMIT = 64  # full 2-D op tables up to this order, log tables above
_MAX_ORDER = 1 << 16  # the log tables take O(q) space


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_finite(p: int | None, m: int | None) -> None:
    if p is None or m is None or m < 1:
        raise NonPrimeP(f"need a prime p and m >= 1, got p={p}, m={m}")
    if p > _MAX_ORDER or m > 16 or p ** m > _MAX_ORDER:
        raise NonPrimeP(f"field order {p}^{m} exceeds the supported 2^16")
    if not _is_prime(p):
        raise NonPrimeP(f"p={p} is not prime")


# ----------------------------------------------------------------------
# polynomials over a FieldSpec: lists of raw coefficients, low to high
# ----------------------------------------------------------------------

def _poly_trim(k: FieldSpec, c: list) -> list:
    while c and c[-1] == k.zero_raw:
        c.pop()
    return c


def _poly_mul(k: FieldSpec, a: list, b: list) -> list:
    if not a or not b:
        return []
    zero, fma = k.zero_raw, k.fma
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai != zero:
            for j, bj in enumerate(b):
                out[i + j] = fma(out[i + j], ai, bj)
    return _poly_trim(k, out)


def _poly_mod(k: FieldSpec, a: list, g: list) -> list:
    zero, fma = k.zero_raw, k.fma
    rem = list(a)
    while len(rem) >= len(g):
        if rem[-1] == zero:
            rem.pop()
            continue
        shift = len(rem) - len(g)
        fac = k.neg(k.div(rem[-1], g[-1]))
        for i, gi in enumerate(g):
            rem[shift + i] = fma(rem[shift + i], fac, gi)
        rem.pop()
    return _poly_trim(k, rem)


def _poly_is_irreducible(k: FieldSpec, g: list) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(g)//2.
    The linear divisors go first and cheaply: t - r divides g exactly
    when g(r) = 0, which Horner evaluation tests."""
    deg, zero, fma = len(g) - 1, k.zero_raw, k.fma
    if deg >= 2 and g[0] == zero:  # the root 0
        return False
    for r in range(1, k.q if deg >= 2 else 1):
        acc = zero
        for c in reversed(g):
            acc = fma(c, acc, r)
        if acc == zero:
            return False
    for d in range(2, deg // 2 + 1):
        for tail in itertools.product(range(k.q), repeat=d):
            if not _poly_mod(k, g, list(tail) + [k.one_raw]):
                return False
    return True


def _smallest_irreducible(k: FieldSpec, m: int) -> list:
    """Lexicographically smallest monic irreducible of degree m over k.

    Coefficient lists (c0, ..., c_{m-1}) are compared low-degree-first in
    element-index order, so the choice is deterministic across runs and
    platforms.
    """
    if not k.is_finite:
        raise InfiniteField(f"cannot search the degree-{m} polynomials over Q")
    for tail in itertools.product(range(k.q), repeat=m):
        cand = list(tail) + [k.one_raw]
        if _poly_is_irreducible(k, cand):
            return cand
    raise AssertionError(f"no irreducible of degree {m} over {k.name}")


# ----------------------------------------------------------------------
# FieldSpec
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """A field: GF(p^m) for prime p and m >= 1, or the rationals.

    Raw operation attributes (add, mul, neg, inv, div, and the
    fused fma(a, b, c) = a + b*c) act on the internal representation:
    int indices for finite fields, Fraction for Q.  They are installed
    at construction and excluded from equality.  fma is a 2-D table
    lookup up to q = 64; above it, XOR with a log-table product for
    p = 2, one mod p for primes, a Zech-logarithm sum for odd
    extensions, and plain a + b*c over Q.  q (0 for Q) and is_finite are
    plain attributes set the same way, since the kernels read them per call.
    """

    kind: str  # "finite" | "rational"
    p: int | None = None
    m: int | None = None
    modulus: tuple[int, ...] | None = None  # monic, low-to-high, only for m >= 2

    def __post_init__(self) -> None:
        if self.kind == "rational":
            object.__setattr__(self, "q", 0)
            object.__setattr__(self, "is_finite", False)
            self._install_rational_ops()
            return
        if self.kind != "finite":
            raise ValueError(f"unknown field kind {self.kind!r}")
        _check_finite(self.p, self.m)
        if self.m >= 2:
            mod = self.modulus
            if mod is None or len(mod) != self.m + 1 or mod[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not _poly_is_irreducible(field_make("finite", self.p, 1), list(mod)):
                raise ValueError("modulus is reducible")
        object.__setattr__(self, "q", self.p ** self.m)
        object.__setattr__(self, "is_finite", True)
        self._install_finite_ops()

    # -- identity ------------------------------------------------------

    @property
    def char(self) -> int:
        return self.p if self.kind == "finite" else 0

    @property
    def name(self) -> str:
        return f"F{self.q}" if self.kind == "finite" else "Q"

    def __repr__(self) -> str:
        return f"FieldSpec({self.name})"

    # -- element digits -------------------------------------------------

    def _digits(self, idx: int) -> tuple[int, ...]:
        p, m = self.p, self.m
        out = []
        for _ in range(m):
            idx, r = divmod(idx, p)
            out.append(r)
        return tuple(out)

    # -- raw op installation ---------------------------------------------

    def _set_ops(self, **ops) -> None:
        for nm, fn in ops.items():
            object.__setattr__(self, nm, fn)

    def _install_rational_ops(self) -> None:
        # one Fraction of ints: exact on int operands (a / b of two ints is a float) and faster than Fraction(a, b)
        def inv(a: Fraction | int) -> Fraction:
            if not a:
                raise DivisionByZero("inverse of 0")
            return Fraction(a.denominator, a.numerator)

        def div(a: Fraction | int, b: Fraction | int) -> Fraction:
            if not b:
                raise DivisionByZero("division by 0")
            return Fraction(a.numerator * b.denominator, a.denominator * b.numerator)

        self._set_ops(add=operator.add, mul=operator.mul, neg=operator.neg,
                      fma=lambda a, b, c: a + b * c, inv=inv, div=div,
                      zero_raw=Fraction(0), one_raw=Fraction(1))

    def _install_finite_ops(self) -> None:
        self._install_log_ops(*self._log_tables())
        if self.q <= _TABLE_LIMIT:
            self._install_table_ops()
        self._set_ops(zero_raw=0, one_raw=1)

    def _is_primitive(self, g: int, cofactors: list[int]) -> bool:
        """Whether g^((q-1)/r) != 1 for every prime r | q-1, by square and
        multiply on coefficient polynomials (the tables do not exist yet)."""
        if self.m == 1:
            return all(pow(g, e, self.p) != 1 for e in cofactors)
        k, mod = field_make("finite", self.p, 1), list(self.modulus)
        for e in cofactors:
            out, base = [1], _poly_trim(k, list(self._digits(g)))
            while e:
                if e & 1:
                    out = _poly_mod(k, _poly_mul(k, out, base), mod)
                base = _poly_mod(k, _poly_mul(k, base, base), mod)
                e >>= 1
            if out == [1]:
                return False
        return True

    def _generator_powers(self):
        """Yield g^0, ..., g^(q-2) as indices, g the first primitive element
        in index order.  For m >= 2, g*a is linear in the digits of a: it
        is lo_t[a % c] + hi_t[a // c] for c = p^h, h = ceil(m/2).  For p = 2
        the tables hold indices and + is XOR.  For odd p they hold digits
        packed in bit fields: + adds the fields, one subtraction of p puts
        each back below p, and a dict decodes each half to an index."""
        p, m, q = self.p, self.m, self.q
        cofactors = [(q - 1) // r for r in range(2, q) if (q - 1) % r == 0 and _is_prime(r)]
        g = next(a for a in range(1, q) if self._is_primitive(a, cofactors))
        a = 1
        if m == 1:
            for _ in range(q - 1):
                yield a
                a = a * g % p
            return
        low = self.modulus[:-1]  # x^m = -(c0 + c1 x + ... + c_{m-1} x^(m-1))
        cols, col = [], list(self._digits(g))  # cols[i] = digits of g x^i
        for _ in range(m):
            cols.append(col)
            col = [(u - col[-1] * c) % p for u, c in zip([0] + col[:-1], low)]
        width = 1 if p == 2 else (2 * p - 2).bit_length() + 1

        def pack(digits) -> int:
            return sum(d << (width * i) for i, d in enumerate(digits))

        def image(t: int, first: int) -> int:  # g * t * x^first, packed
            out = [0] * m
            for d, col in zip(self._digits(t), cols[first:]):
                out = [(u + d * v) % p for u, v in zip(out, col)]
            return pack(out)

        h = (m + 1) // 2
        c = p ** h
        lo_t = [image(t, 0) for t in range(c)]
        hi_t = [image(t, h) for t in range(p ** (m - h))]
        if p == 2:
            for _ in range(q - 1):
                yield a
                a = lo_t[a & (c - 1)] ^ hi_t[a >> h]
            return
        top_bit, shift = width - 1, width * h
        ones, bias = pack([1] * m), pack([(1 << top_bit) - p] * m)
        enc = {pack(self._digits(t)): t for t in range(c)}
        for _ in range(q - 1):
            yield a
            s = lo_t[a % c] + hi_t[a // c]
            s -= p * ((s + bias) >> top_bit & ones)  # fields in [p, 2p-2] drop by p
            a = enc[s & ((1 << shift) - 1)] + c * enc[s >> shift]

    def _log_tables(self) -> tuple[array, array]:
        """exp holds g^0, ..., g^(q-2) twice and then zeros; log[a] is the
        exponent of a != 0 and log[0] = 2(q-1).  So exp[log[a] + log[b]]
        is a*b for every pair, zero included."""
        n = self.q - 1
        exp = array("H", [0]) * (4 * n + 1)
        log = array("I", [2 * n]) * self.q
        for k, a in enumerate(self._generator_powers()):
            exp[k] = exp[k + n] = a
            log[a] = k
        return exp, log

    def _install_log_ops(self, exp: array, log: array) -> None:
        p, m, n = self.p, self.m, self.q - 1
        half = n // 2  # g^half = -1 for odd q

        def inv(a: int) -> int:
            if a == 0:
                raise DivisionByZero("inverse of 0")
            return exp[n - log[a]]

        def div(a: int, b: int) -> int:
            if b == 0:
                raise DivisionByZero("division by 0")
            return exp[log[a] + n - log[b]]

        self._set_ops(mul=lambda a, b: exp[log[a] + log[b]], inv=inv, div=div,
                      neg=lambda a: exp[log[a] + half])
        if p == 2:
            self._set_ops(add=operator.xor, neg=lambda a: a,
                          fma=lambda a, b, c: a ^ exp[log[b] + log[c]])
            return
        if m == 1:  # a * b % p is twice as fast as the lookup
            self._set_ops(add=lambda a, b: (a + b) % p, mul=lambda a, b: a * b % p,
                          fma=lambda a, b, c: (a + b * c) % p)
            return
        # Zech logarithms: 1 + g^k = g^zech[k], or 0 when zech[k] = 2n.
        # a + b = g^la (1 + g^(lb - la)) and -b = g^(lb + half); zech
        # repeats with period n over 3n entries, so no index is reduced.
        zech = array("I", [0]) * (3 * n)
        for k in range(n):
            e = exp[k]
            e_plus_1 = e + 1 if e % p != p - 1 else e + 1 - p  # digit 0 wraps
            zech[k] = zech[k + n] = zech[k + 2 * n] = log[e_plus_1]

        def add(a: int, b: int) -> int:
            if not a or not b:
                return a or b
            la = log[a]
            return exp[la + zech[log[b] - la + n]]

        def fma(a: int, b: int, c: int) -> int:  # add(a, mul(b, c)) in one call
            lbc = log[b] + log[c]  # 2n or more when b*c = 0
            if not a:
                return exp[lbc]
            if lbc >= 2 * n:
                return a
            la = log[a]
            return exp[la + zech[lbc - la + n]]

        self._set_ops(add=add, fma=fma)

    def _install_table_ops(self) -> None:
        """Replace the log-table ops by full tables of their values."""
        els = range(self.q)
        add_t = [[self.add(a, b) for b in els] for a in els]
        mul_t = [[self.mul(a, b) for b in els] for a in els]
        neg_t = [self.neg(a) for a in els]
        inv_t = [None] + [self.inv(a) for a in els[1:]]

        def inv(a: int) -> int:
            r = inv_t[a]
            if r is None:
                raise DivisionByZero("inverse of 0")
            return r

        self._set_ops(add=lambda a, b: add_t[a][b], mul=lambda a, b: mul_t[a][b], neg=lambda a: neg_t[a],
                      inv=inv, div=lambda a, b: mul_t[a][inv(b)], fma=lambda a, b, c: add_t[a][mul_t[b][c]])

    # -- Scalar constructors ---------------------------------------------

    def zero(self) -> Scalar:
        return Scalar(self, self.zero_raw)

    def one(self) -> Scalar:
        return Scalar(self, self.one_raw)


# ----------------------------------------------------------------------
# Scalar
# ----------------------------------------------------------------------

class Scalar:
    """An immutable field element: a FieldSpec plus its raw value."""

    __slots__ = ("f", "v")

    def __init__(self, f: FieldSpec, v) -> None:
        self.f = f
        self.v = v

    @property
    def value(self):
        """Coefficient vector over GF(p) for finite fields, Fraction (or int) for Q."""
        if self.f.is_finite:
            return self.f._digits(self.v)
        return self.v

    def _check(self, other: Scalar) -> None:
        if self.f is not other.f and self.f != other.f:
            raise FieldMismatch(f"{self.f.name} vs {other.f.name}")

    def __add__(self, other: Scalar) -> Scalar:
        self._check(other)
        return Scalar(self.f, self.f.add(self.v, other.v))

    def __sub__(self, other: Scalar) -> Scalar:
        self._check(other)
        return Scalar(self.f, self.f.add(self.v, self.f.neg(other.v)))

    def __mul__(self, other: Scalar) -> Scalar:
        self._check(other)
        return Scalar(self.f, self.f.mul(self.v, other.v))

    def __truediv__(self, other: Scalar) -> Scalar:
        self._check(other)
        return Scalar(self.f, self.f.div(self.v, other.v))

    def __neg__(self) -> Scalar:
        return Scalar(self.f, self.f.neg(self.v))

    def inv(self) -> Scalar:
        return Scalar(self.f, self.f.inv(self.v))

    def __pow__(self, e: int) -> Scalar:
        if e < 0:
            return self.inv() ** (-e)
        out, base = self.f.one_raw, self.v
        mul = self.f.mul
        while e:
            if e & 1:
                out = mul(out, base)
            base = mul(base, base)
            e >>= 1
        return Scalar(self.f, out)

    def __bool__(self) -> bool:
        return self.v != self.f.zero_raw

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.f == other.f and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.f, self.v))

    def __repr__(self) -> str:
        return f"{self.f.name}:{self}"

    def __str__(self) -> str:
        if self.f.is_finite:
            return str(self.v)
        return f"{self.v.numerator}/{self.v.denominator}"


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _field_make_cached(kind: str, p: int | None, m: int | None) -> FieldSpec:
    if kind == "rational":
        return FieldSpec(kind="rational")
    if m is not None and m >= 2:
        modulus = tuple(_smallest_irreducible(field_make("finite", p, 1), m))
        return FieldSpec(kind="finite", p=p, m=m, modulus=modulus)
    return FieldSpec(kind="finite", p=p, m=m)


def field_make(kind: str, p: int | None = None, m: int | None = None) -> FieldSpec:
    """Build a field spec; finite fields get the lexicographically smallest
    monic irreducible modulus, so element encodings are reproducible."""
    if kind == "finite":
        _check_finite(p, m)
    return _field_make_cached(kind, p, m)


def rationals() -> FieldSpec:
    return _field_make_cached("rational", None, None)


def parse_field(text: str) -> FieldSpec:
    """Parse the field syntax used by fixtures and the CLI: "Q" or "F<q>"."""
    text = text.strip()
    if text == "Q":
        return rationals()
    if not text.startswith("F") or not text[1:].isdigit():
        raise NonPrimeP(f"bad field spec {text!r}")
    q = int(text[1:])
    if q < 2:
        raise NonPrimeP(f"bad field order {q}")
    if q > _MAX_ORDER:
        raise NonPrimeP(f"field order {q} exceeds the supported 2^16")
    p = 2
    while p * p <= q and q % p != 0:
        p += 1
    if q % p != 0:
        p = q  # q itself is prime
    m = 0
    n = q
    while n % p == 0:
        n //= p
        m += 1
    if n != 1:
        raise NonPrimeP(f"{q} is not a prime power")
    return field_make("finite", p, m)


def enumerate_elements(f: FieldSpec) -> list[Scalar]:
    """All q elements in index order: 0 first, 1 second, then the rest in
    lexicographic order of their coefficient vectors."""
    if not f.is_finite:
        raise InfiniteField("cannot enumerate Q")
    return [Scalar(f, i) for i in range(f.q)]


def int_in_field(f: FieldSpec, n: int) -> Scalar:
    """The image of the integer n in f, i.e. n times the identity."""
    if f.is_finite:
        return Scalar(f, n % f.p)
    return Scalar(f, Fraction(n))


def scalar_from_str(f: FieldSpec, text: str) -> Scalar:
    """Parse the fixture form of a scalar: an element index for finite
    fields, "a/b" (or a bare integer) for Q."""
    text = text.strip()
    if f.is_finite:
        idx = int(text)
        if not 0 <= idx < f.q:
            raise ValueError(f"scalar index {idx} out of range for {f.name}")
        return Scalar(f, idx)
    return Scalar(f, Fraction(text))
