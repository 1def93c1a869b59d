"""The sampled checks draw the same inputs as the Scalar path they replaced.

harness._random_rows draws integer rows and _random_subspace spans them
without boxing an entry.  The reference below is the earlier path, kept
here verbatim: each entry boxed as a Scalar (over Q around a Fraction)
and the vectors handed to span.  Both must make the same rng calls in
the same order, so equal subspaces come out and the rng is left in an
equal state; a passing check's canonical JSON cannot show this, since it
does not depend on the draws.  A planted fault shows it end to end: the
failing trial a check reports is the reference path's.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from verolab import harness
from verolab.field import Scalar, parse_field
from verolab.linalg import full_subspace, span

FIELDS = ["F2", "F4", "F257", "F65536", "Q"]


def ref_vector(rng, f, m):
    if f.is_finite:
        return tuple(Scalar(f, rng.randrange(f.q)) for _ in range(m))
    return tuple(Scalar(f, Fraction(rng.randint(-5, 5))) for _ in range(m))


def ref_subspace(rng, f, m, dim, power=0):
    while True:
        s = span([ref_vector(rng, f, m) for _ in range(dim)], m, f)
        if s.dim == dim:
            return s


def ref_lines(rng, f, n, count):
    """The lines T1_3's trial drew: a vector's span, a zero one skipped."""
    out = []
    while len(out) < count:
        s = span([ref_vector(rng, f, n)], n, f)
        if not s.is_zero():
            out.append(s)
    return out


@pytest.mark.parametrize("name", FIELDS)
def test_random_subspace_draws_the_reference_subspaces(name):
    f = parse_field(name)
    for m in range(1, 6):
        for dim in range(m + 1):
            for seed in range(4):
                new, ref = random.Random(seed), random.Random(seed)
                for _ in range(3):  # consecutive draws stay in step
                    assert harness._random_subspace(new, f, m, dim) == ref_subspace(ref, f, m, dim), (m, dim, seed)
                assert new.getstate() == ref.getstate(), (m, dim, seed)


@pytest.mark.parametrize("name", FIELDS)
def test_random_vector_draws_the_reference_vector(name):
    f = parse_field(name)
    for seed in range(20):
        new, ref = random.Random(seed), random.Random(seed)
        got, want = harness._random_vector(new, f, 5), ref_vector(ref, f, 5)
        assert got == want
        assert [s.v for s in got] == [s.v for s in want]
        assert all(type(s.v) is int for s in got)  # over Q an int, equal to the old Fraction
        assert new.getstate() == ref.getstate()


@pytest.mark.parametrize("name", ["Q", "F2"])
def test_t1_3_line_draws_are_the_reference_lines(name):
    f = parse_field(name)
    for n in (1, 2, 3):
        for seed in range(10):
            new, ref = random.Random(seed), random.Random(seed)
            got = [harness._random_subspace(new, f, n, 1) for _ in range(12)]
            assert got == ref_lines(ref, f, n, 12), (n, seed)
            assert new.getstate() == ref.getstate()


def _fires(subspaces) -> bool:
    """The planted fault's trigger: a condition on the drawn rows (the hash
of a tuple of ints does not vary between runs)."""
    return hash(tuple(s.ints for s in subspaces)) % 17 == 0


def _plant(monkeypatch, check_id):
    """Patch the harness so that check_id fails on draws that trigger _fires."""
    if check_id == "C5_3":
        real_pic = harness.power_intersection_check
        monkeypatch.setattr(harness, "power_intersection_check",
                            lambda b, c, d: not _fires([b]) and real_pic(b, c, d))
    elif check_id == "L4":  # a long meet: the image of U0 meets the join of the others
        real_meet = harness.subspace_intersect
        monkeypatch.setattr(harness, "subspace_intersect",
                            lambda a, b: full_subspace(a.field, a.ambient_dim) if _fires([a]) else real_meet(a, b))
    else:  # a short join
        real_join = harness.subspace_join

        def join(members, ambient_dim, field):
            members = list(members)
            out = real_join(members, ambient_dim, field)
            return span([], ambient_dim, field) if _fires(members) else out

        monkeypatch.setattr(harness, "subspace_join", join)


@pytest.mark.parametrize("check_id, params", [
    ("C5_3", {"field": "F2", "n": 4, "d": 2, "trials": 200}),
    ("C5_3", {"field": "Q", "n": 3, "d": 2, "trials": 200}),
    ("P5_2", {"field": "Q", "n": 3, "d": 2, "trials": 100}),
    ("L4", {"field": "Q", "n": 3, "d": 2, "r": 2, "trials": 100}),
    ("T1_3", {"field": "Q", "n": 2, "d": 2, "trials": 100}),
], ids=lambda v: v if isinstance(v, str) else v["field"])
def test_planted_fault_fails_at_the_reference_trial(monkeypatch, check_id, params):
    _plant(monkeypatch, check_id)
    got = harness.run_check(check_id, params, seed=7)
    with monkeypatch.context() as mp:
        mp.setattr(harness, "_random_vector", ref_vector)
        mp.setattr(harness, "_random_subspace", ref_subspace)
        want = harness.run_check(check_id, params, seed=7)
    assert want.conclusion_ok is False
    assert want.witness["trial"] > 0  # the fault is met after some trials have passed
    assert got.witness == want.witness
