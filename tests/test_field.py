"""Field construction, arithmetic, enumeration, and integer images."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from verolab import (
    DivisionByZero,
    FieldMismatch,
    InfiniteField,
    NonPrimeP,
    enumerate_elements,
    field_make,
    int_in_field,
    parse_field,
    rationals,
)
from verolab.field import Scalar, _poly_is_irreducible, _smallest_irreducible, scalar_from_str


def all_monic(p, deg):
    for tail in itertools.product(range(p), repeat=deg):
        yield tuple(tail) + (1,)


def remainder(g, h, p):
    """g mod h over GF(p) for monic h, as a tuple of deg(h) coefficients."""
    rem = list(g)
    for top in range(len(g) - 1, len(h) - 2, -1):
        c = rem[top] % p
        for i, hi in enumerate(h):
            rem[top - len(h) + 1 + i] -= c * hi
    return tuple(x % p for x in rem[:len(h) - 1])


def test_gf2_has_no_modulus():
    f = field_make("finite", 2, 1)
    assert f.q == 2 and f.modulus is None


def test_gf4_modulus_is_unique_irreducible_quadratic():
    # oracle: trial-divide all 4 monic quadratics over GF(2) by the two
    # monic linears; exactly one survives
    survivors = []
    for g in all_monic(2, 2):
        if all(any(remainder(g, lin, 2)) for lin in all_monic(2, 1)):
            survivors.append(g)
    assert survivors == [(1, 1, 1)]
    assert field_make("finite", 2, 2).modulus == (1, 1, 1)


def test_rational_spec():
    f = field_make("rational")
    assert not f.is_finite and f.char == 0 and f.name == "Q"


def test_field_make_rejects_bad_orders():
    with pytest.raises(NonPrimeP):
        field_make("finite", 4, 1)
    with pytest.raises(NonPrimeP):
        field_make("finite", 2, 0)
    with pytest.raises(NonPrimeP):
        parse_field("F6")
    with pytest.raises(NonPrimeP):
        parse_field("F1")


def test_field_make_deterministic_across_calls():
    a = field_make("finite", 3, 2)
    b = parse_field("F9")
    assert a == b and a.modulus == b.modulus


def test_arith_gf3():
    f = parse_field("F3")
    two = int_in_field(f, 2)
    assert (two + two).value == (1,)


def test_arith_gf4_generator_square():
    f = parse_field("F4")
    w = enumerate_elements(f)[2]
    assert w.value == (0, 1)
    assert (w * w).value == (1, 1)  # x^2 reduces to x + 1


def test_arith_rationals():
    q = rationals()
    half = scalar_from_str(q, "1/2")
    third = scalar_from_str(q, "1/3")
    assert str(half + third) == "5/6"


def test_arith_errors():
    f = parse_field("F5")
    with pytest.raises(DivisionByZero):
        f.one() / f.zero()
    with pytest.raises(DivisionByZero):
        f.zero().inv()
    with pytest.raises(FieldMismatch):
        f.one() + parse_field("F7").one()


def test_enumeration_orders():
    assert [s.value for s in enumerate_elements(parse_field("F2"))] == [(0,), (1,)]
    assert [s.value for s in enumerate_elements(parse_field("F3"))] == [(0,), (1,), (2,)]
    assert [s.value for s in enumerate_elements(parse_field("F4"))] == [
        (0, 0), (1, 0), (0, 1), (1, 1),
    ]
    with pytest.raises(InfiniteField):
        enumerate_elements(rationals())


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    f = parse_field(f"F{q}")
    els = enumerate_elements(f)
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
    one = f.one()
    for a in els[1:]:
        assert a.inv() * a == one
        assert a / a == one


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 11])
def test_char_detection(q):
    f = parse_field(f"F{q}")
    assert int_in_field(f, f.char).v == f.zero_raw
    for n in range(1, f.char):
        assert int_in_field(f, n).v != f.zero_raw


def test_int_in_field_examples():
    assert int_in_field(parse_field("F3"), 6).value == (0,)
    assert int_in_field(parse_field("F5"), 12).value == (2,)  # 4!/(4-2)! = 12
    assert str(int_in_field(rationals(), 7)) == "7/1"


def test_scalar_pow_and_zero_conventions():
    f = parse_field("F5")
    z = f.zero()
    assert (z ** 0).value == (1,)  # 0^0 = 1 by convention
    a = int_in_field(f, 2)
    assert (a ** 4).value == (1,)


def test_large_prime_field_ops():
    f = parse_field("F101")
    a, b = int_in_field(f, 40), int_in_field(f, 70)
    assert (a * b).v == (40 * 70) % 101
    assert (a / b * b) == a


def test_extension_field_beyond_table_limit():
    f = parse_field("F128")
    els = [Scalar(f, i) for i in (1, 2, 57, 100)]
    for a in els:
        assert (a * a.inv()).v == 1


# ----------------------------------------------------------------------
# the log-table backend against digit-polynomial arithmetic
# ----------------------------------------------------------------------

class DigitPolyField:
    """Reference arithmetic on the same element indices: digit vectors
    added coefficient-wise and multiplied as polynomials over GF(p)
    reduced by the field's modulus, with inverses by a^(q-2).  A prime
    field has one digit, so there it is plain integer arithmetic mod p."""

    def __init__(self, f):
        self.p, self.m, self.q, self.modulus = f.p, f.m, f.q, f.modulus
        self.digits = [tuple(a // self.p ** i % self.p for i in range(self.m)) for a in range(self.q)]
        self.index = {d: a for a, d in enumerate(self.digits)}

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        return self.index[tuple((x + y) % self.p for x, y in zip(self.digits[a], self.digits[b]))]

    def sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        return self.index[tuple((x - y) % self.p for x, y in zip(self.digits[a], self.digits[b]))]

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        if self.m == 1:
            return a * b % self.p
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(self.digits[a]):
            for j, y in enumerate(self.digits[b]):
                prod[i + j] += x * y
        return self.index[remainder(prod, self.modulus, self.p)]

    def inv(self, a):
        out, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out


def _prime_powers(limit):
    """(p, m) for every prime power p^m <= limit, in increasing order."""
    out = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = 0
        while q % p == 0:
            q //= p
            m += 1
        if q == 1:
            out.append((p, m))
    return out


@pytest.mark.parametrize("q", [p ** m for p, m in _prime_powers(256)])
def test_ops_match_digit_polynomials_on_all_pairs(q):
    f = parse_field(f"F{q}")
    ref = DigitPolyField(f)
    els = range(q)
    mul_t = [[ref.mul(a, b) for b in els] for a in els]
    inv_t = [None] + [ref.inv(a) for a in els[1:]]
    assert all(mul_t[a][inv_t[a]] == 1 for a in els[1:])
    for a in els:
        assert [f.add(a, b) for b in els] == [ref.add(a, b) for b in els], a
        assert [(Scalar(f, a) - Scalar(f, b)).v for b in els] == [ref.sub(a, b) for b in els], a
        assert [f.mul(a, b) for b in els] == mul_t[a], a
        assert [f.div(a, b) for b in els[1:]] == [mul_t[a][inv_t[b]] for b in els[1:]], a
    assert [f.neg(a) for a in els] == [ref.neg(a) for a in els]
    assert [f.inv(a) for a in els[1:]] == inv_t[1:]


@pytest.mark.parametrize("name", ["F257", "F2187", "F4096", "F59049", "F65521", "F65536"])
def test_ops_match_digit_polynomials_on_samples(name):
    f = parse_field(name)
    ref = DigitPolyField(f)
    rng = random.Random(f"verolab:{name}")
    pairs = [(rng.randrange(f.q), rng.randrange(1, f.q)) for _ in range(300)]
    pairs += [(0, 1), (1, 1), (f.q - 1, f.q - 1), (0, f.q - 1)]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            assert f.add(x, y) == ref.add(x, y), (x, y)
            assert (Scalar(f, x) - Scalar(f, y)).v == ref.sub(x, y), (x, y)
            assert f.mul(x, y) == ref.mul(x, y), (x, y)
        inv_b = ref.inv(b)
        assert ref.mul(b, inv_b) == 1
        assert f.inv(b) == inv_b
        assert f.div(a, b) == ref.mul(a, inv_b)
        assert f.neg(a) == ref.neg(a)


def test_scalar_sub_over_q_matches_fractions():
    q = rationals()
    rng = random.Random("verolab:Q")
    for _ in range(300):
        a, b = (Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(2))
        assert (Scalar(q, a) - Scalar(q, b)).v == a - b, (a, b)
        assert (Scalar(q, a) - Scalar(q, a)).v == 0


def test_q_division_is_exact_on_int_operands():
    """The integer rows over Q reach inv and div as ints; the quotient must
    be the exact Fraction, never a float."""
    q = rationals()
    for a, b in ((1, 3), (-4, 6), (0, 7), (Fraction(2, 3), 5), (5, Fraction(2, 3)), (Fraction(-1, 2), Fraction(3, 4)),
                 (3, -6), (Fraction(1, 2), Fraction(-3, 4))):
        got = q.div(a, b)
        assert type(got) is Fraction and got == Fraction(a) / Fraction(b), (a, b)
        assert type(q.inv(b)) is Fraction and q.inv(b) == 1 / Fraction(b)
    third = Scalar(q, 1) / Scalar(q, 3)
    assert type(third.v) is Fraction and str(third) == "1/3" and str(Scalar(q, 3).inv()) == "1/3"
    with pytest.raises(DivisionByZero):
        q.div(1, 0)
    with pytest.raises(DivisionByZero):
        q.inv(0)


@pytest.mark.parametrize("name", ["F2", "F9", "F64", "F128", "F243", "F257", "F65536"])
def test_zero_division_in_both_op_forms(name):
    f = parse_field(name)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    for a in (0, 1, f.q - 1):
        with pytest.raises(DivisionByZero):
            f.div(a, 0)
        with pytest.raises(DivisionByZero):
            Scalar(f, a) / f.zero()
    with pytest.raises(DivisionByZero):
        f.zero().inv()


def test_f65536_modulus_is_pinned():
    assert parse_field("F65536").modulus == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)


def _irreducible_by_division(g, p):
    """Trial division by every monic polynomial of degree 1..deg(g)//2,
    linear ones included: the test before the root filter."""
    deg = len(g) - 1
    return all(any(remainder(g, h, p)) for d in range(1, deg // 2 + 1) for h in all_monic(p, d))


@pytest.mark.parametrize("p, max_deg", [(2, 7), (3, 5), (5, 3), (7, 3)])
def test_irreducibility_with_root_test_matches_trial_division(p, max_deg):
    gf_p = field_make("finite", p, 1)
    for deg in range(1, max_deg + 1):
        for g in all_monic(p, deg):
            assert _poly_is_irreducible(gf_p, list(g)) == _irreducible_by_division(g, p), g


def test_root_filter_keeps_every_modulus_up_to_4096():
    for p, m in _prime_powers(4096):
        if m >= 2:
            found = tuple(_smallest_irreducible(field_make("finite", p, 1), m))
            assert found == next(g for g in all_monic(p, m) if _irreducible_by_division(g, p)), (p, m)


def test_field_order_capped_at_2_16():
    assert parse_field("F65536").q == 65536 and parse_field("F65521").q == 65521
    for text in ("F65537", "F131072", "F1099511627776", "F" + str(2 ** 61 - 1)):
        with pytest.raises(NonPrimeP):
            parse_field(text)
    for p, m in ((2, 17), (3, 11), (65537, 1), (2 ** 61 - 1, 1), (2, 10 ** 9)):
        with pytest.raises(NonPrimeP):
            field_make("finite", p, m)


@pytest.mark.parametrize("name", ["F2", "F3", "F4", "F5", "F7", "F8", "F9", "F11", "F13", "F16"])
def test_fma_is_add_of_mul_on_every_triple(name):
    f = parse_field(name)
    add, mul, fma = f.add, f.mul, f.fma
    for a, b, c in itertools.product(range(f.q), repeat=3):
        assert fma(a, b, c) == add(a, mul(b, c)), (a, b, c)


@pytest.mark.parametrize("name", ["F64", "F128", "F243", "F257", "F65536", "Q"])
def test_fma_is_add_of_mul_on_samples(name):
    """Zeros in every position and sums that cancel to zero included."""
    f = parse_field(name)
    rng = random.Random(name)

    def draw():
        if rng.random() < 0.2:
            return f.zero_raw
        if f.is_finite:
            return rng.randrange(1, f.q)
        return Fraction(rng.randint(-30, 30), rng.randint(1, 9))

    for _ in range(4000):
        b, c = draw(), draw()
        a = f.neg(f.mul(b, c)) if rng.random() < 0.1 else draw()
        assert f.fma(a, b, c) == f.add(a, f.mul(b, c)), (a, b, c)
