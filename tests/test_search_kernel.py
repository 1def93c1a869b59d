"""Differential tests of the depth-first subset-search kernel against the
simple searches it replaced, which are kept here as references.

The references rebuild every subset from scratch: is_r_independent walks
itertools.combinations and spans each subset, minimal_supports walks
subset sizes upward and skips supersets of supports already found.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from verolab import (
    BadParams,
    Matrix,
    SubspaceFamily,
    is_r_independent,
    minimal_supports,
    parse_field,
    powerpoint_check_matrix,
    rank,
    rationals,
    span,
    veronese_check_matrix,
)
from verolab import linalg
from verolab.field import Scalar
from verolab.linalg import _rref_raw
from verolab.vcode import CheckMatrix

FIELDS = [parse_field("F2"), parse_field("F3"), parse_field("F4"), parse_field("F9"), rationals()]
# one-row items take the batched last depth; these cover the 2-D table
# fields, the log-table fields past the table limit (xor, Zech and
# prime-modulus additions) and Q
POINT_FIELDS = [parse_field(f"F{q}") for q in (2, 4, 5, 7, 128, 243, 257)] + [rationals()]


def _batch_spy():
    """Counts the prefixes whose last depth is tested as one batch."""
    return mock.patch.object(linalg, "_dependent_leaves", wraps=linalg._dependent_leaves)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

def _subset_direct(members, idxs) -> bool:
    rows = []
    total = 0
    for i in idxs:
        rows.extend(members[i].basis.row_list())
        total += members[i].dim
    s = span(rows, members[idxs[0]].ambient_dim, members[idxs[0]].field)
    return s.dim == total


def ref_is_r_independent(fam, r):
    for idxs in itertools.combinations(range(len(fam)), r):
        if not _subset_direct(fam.members, idxs):
            return False, idxs
    return True, None


def ref_minimal_supports(cm, w_max):
    found = {}
    smaller = []
    for w in range(1, w_max + 1):
        hits = []
        for idxs in itertools.combinations(range(cm.n_cols), w):
            s = set(idxs)
            if any(sup <= s for sup in smaller):
                continue
            cols = [[cm.h.at(i, j).v for i in range(cm.n_rows)] for j in idxs]
            if len(_rref_raw(cm.field, [list(c) for c in zip(*cols)])[1]) < w:
                hits.append(idxs)
        if hits:
            found[w] = hits
            smaller.extend(set(h) for h in hits)
    return found


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

def elements(f):
    if f.is_finite:
        return st.integers(0, f.q - 1).map(lambda v: Scalar(f, v))
    return st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)).map(lambda v: Scalar(f, v))


def vectors(f, m):
    return st.tuples(*[elements(f)] * m)


@st.composite
def families(draw):
    """Small families of 1- and 2-dimensional subspaces.  Low ambient
    dimension makes non-direct prefixes shorter than r common.  Half the
    draws append two members that share a vector, so a non-direct pair
    sits at the end of the index range, where no prefix starting with it
    can be completed."""
    f = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(2, 5))
    members = []
    for _ in range(draw(st.integers(2, 7))):
        rows = draw(st.lists(vectors(f, m), min_size=1, max_size=2))
        s = span(rows, m, f)
        if s.dim and s not in members:
            members.append(s)
    if draw(st.booleans()):
        v, a, b = draw(vectors(f, m)), draw(vectors(f, m)), draw(vectors(f, m))
        for s in (span([v, a], m, f), span([v, b], m, f)):
            if s.dim and s not in members:
                members.append(s)
    assume(len(members) >= 2)
    return SubspaceFamily(members)


@st.composite
def point_families(draw):
    """Families of distinct points in K^2 .. K^4.  Some points are
    combinations of two earlier ones, so small dependent sets are common
    even over the large fields."""
    f = draw(st.sampled_from(POINT_FIELDS))
    m = draw(st.integers(2, 4))
    vecs = []
    for _ in range(draw(st.integers(2, 8))):
        if len(vecs) >= 2 and draw(st.booleans()):
            u, w = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            a, b = draw(elements(f)), draw(elements(f))
            vecs.append(tuple(a * x + b * y for x, y in zip(u, w)))
        else:
            vecs.append(draw(vectors(f, m)))
    members = []
    for v in vecs:
        s = span([v], m, f)
        if s.dim and s not in members:
            members.append(s)
    assume(len(members) >= 2)
    return SubspaceFamily(members)


@st.composite
def low_rank_check_matrices(draw):
    """Check matrices whose columns are combinations of at most n_rows
    base vectors, plus zero and repeated columns, so that many leaves
    under one independent prefix are dependent at once."""
    f = draw(st.sampled_from(POINT_FIELDS))
    n_rows = draw(st.integers(1, 4))
    base = draw(st.lists(vectors(f, n_rows), min_size=1, max_size=n_rows))
    cols = []
    for _ in range(draw(st.integers(1, 8))):
        pick = draw(st.sampled_from(["zero", "repeat", "combo"] if cols else ["zero", "combo"]))
        if pick == "zero":
            cols.append(tuple(f.zero() for _ in range(n_rows)))
        elif pick == "repeat":
            cols.append(draw(st.sampled_from(cols)))
        else:
            col = [f.zero()] * n_rows
            for b in base:
                c = draw(elements(f))
                col = [x + c * y for x, y in zip(col, b)]
            cols.append(tuple(col))
    h = Matrix.from_rows(f, [tuple(c[i] for c in cols) for i in range(n_rows)])
    return CheckMatrix(f, h, tuple(cols))


@st.composite
def check_matrices(draw):
    """Random check matrices, often with a zero column and a repeated
    column, which give supports of size 1 and 2."""
    f = draw(st.sampled_from(FIELDS))
    n_rows = draw(st.integers(1, 4))
    cols = draw(st.lists(vectors(f, n_rows), min_size=1, max_size=7))
    if draw(st.booleans()):
        cols.insert(draw(st.integers(0, len(cols))), tuple(f.zero() for _ in range(n_rows)))
    if draw(st.booleans()):
        cols.insert(draw(st.integers(0, len(cols))), draw(st.sampled_from(cols)))
    h = Matrix.from_rows(f, [tuple(c[i] for c in cols) for i in range(n_rows)])
    return CheckMatrix(f, h, tuple(cols))


# ----------------------------------------------------------------------
# is_r_independent
# ----------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(families())
def test_verdict_and_witness_match_reference_for_every_r(fam):
    for r in range(2, len(fam) + 1):
        assert is_r_independent(fam, r) == ref_is_r_independent(fam, r)


def test_short_non_direct_prefix_is_completed_lex_first():
    f = parse_field("F3")
    e = [tuple(f.one() if j == i else f.zero() for j in range(4)) for i in range(4)]
    e01 = tuple(a + b for a, b in zip(e[0], e[1]))
    # members 0 and 1 meet in <e0 + e1>, so (0, 1) is already non-direct
    fam = SubspaceFamily([span([e[0], e[1]], 4, f), span([e01, e[2]], 4, f)]
                         + [span([v], 4, f) for v in e[2:]])
    assert is_r_independent(fam, 4) == (False, (0, 1, 2, 3))
    assert is_r_independent(fam, 4) == ref_is_r_independent(fam, 4)


def test_non_direct_pair_at_the_end():
    f = parse_field("F2")
    e = [tuple(f.one() if j == i else f.zero() for j in range(5)) for i in range(5)]
    e34 = tuple(a + b for a, b in zip(e[3], e[4]))
    # only sets holding all of 3, 4 and 5 are non-direct
    fam = SubspaceFamily([span([v], 5, f) for v in e + [e34]])
    for r in range(2, 7):
        assert is_r_independent(fam, r) == ref_is_r_independent(fam, r)
    assert is_r_independent(fam, 3) == (False, (3, 4, 5))
    assert is_r_independent(fam, 4) == (False, (0, 3, 4, 5))


@settings(max_examples=300, deadline=None)
@given(point_families())
def test_point_families_match_reference_through_the_batched_leaves(fam):
    with _batch_spy() as spy:
        for r in range(2, len(fam) + 1):
            assert is_r_independent(fam, r) == ref_is_r_independent(fam, r)
    assert spy.call_count > 0


def test_mixed_dimensions_keep_the_per_candidate_leaves():
    f = parse_field("F3")
    e = [tuple(f.one() if j == i else f.zero() for j in range(4)) for i in range(4)]
    e01 = tuple(a + b for a, b in zip(e[0], e[1]))
    # one 2-dimensional member among points; (1, 2, 4) and (0, 3, 4) meet
    fam = SubspaceFamily([span([v], 4, f) for v in (e[0], e[1])] + [span([e[2], e[3]], 4, f)]
                         + [span([v], 4, f) for v in (e01, e[3])])
    with _batch_spy() as spy:
        for r in range(2, 6):
            assert is_r_independent(fam, r) == ref_is_r_independent(fam, r)
        assert is_r_independent(fam, 3) == (False, (0, 1, 3))
    assert spy.call_count == 0


def test_r_outside_range_is_bad_params():
    f = parse_field("F2")
    fam = SubspaceFamily([span([tuple(f.one() if j == i else f.zero() for j in range(3))], 3, f)
                          for i in range(3)])
    for r in (1, 4):
        with pytest.raises(BadParams):
            is_r_independent(fam, r)


# ----------------------------------------------------------------------
# minimal_supports
# ----------------------------------------------------------------------

@pytest.mark.parametrize("builder", [veronese_check_matrix, powerpoint_check_matrix])
@pytest.mark.parametrize("q,n,d,w_max", [
    (2, 2, 2, 3), (2, 3, 2, 7), (3, 2, 2, 4), (3, 3, 2, 6), (4, 2, 3, 5), (5, 2, 2, 6), (2, 3, 3, 5),
])
def test_supports_match_reference_on_point_codes(builder, q, n, d, w_max):
    cm = builder(n, d, parse_field(f"F{q}"))
    assert minimal_supports(cm, w_max) == ref_minimal_supports(cm, w_max)


@settings(max_examples=300, deadline=None)
@given(check_matrices(), st.integers(1, 9))
def test_supports_match_reference_on_random_matrices(cm, w_max):
    w_max = min(w_max, cm.n_cols)
    assert minimal_supports(cm, w_max) == ref_minimal_supports(cm, w_max)


def test_zero_and_repeated_columns_are_small_supports():
    f = parse_field("F3")
    cols = [(1, 0), (0, 0), (0, 1), (1, 0), (1, 1)]
    h = Matrix.from_raw_rows(f, [[c[i] for c in cols] for i in range(2)])
    cm = CheckMatrix(f, h, ())
    found = minimal_supports(cm, 3)
    assert found == {1: [(1,)], 2: [(0, 3)], 3: [(0, 2, 4), (2, 3, 4)]}
    assert found == ref_minimal_supports(cm, 3)


@settings(max_examples=300, deadline=None)
@given(low_rank_check_matrices(), st.integers(1, 9))
def test_supports_match_reference_on_low_rank_matrices(cm, w_max):
    w_max = min(w_max, cm.n_cols)
    with _batch_spy() as spy:
        assert minimal_supports(cm, w_max) == ref_minimal_supports(cm, w_max)
    # the last depth is reached exactly when some w_max - 1 columns are independent
    assert (spy.call_count > 0) == (rank(cm.h) >= w_max - 1)


def test_every_dependent_leaf_under_one_prefix_is_yielded_in_order():
    f = parse_field("F5")
    # under the prefix (0, 1) = (e0, e1), leaves 2, 3, 4 and 6 are in
    # its span and 5 is not; 6 repeats 0, so (0, 1, 6) is no circuit
    cols = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 3, 0), (1, 2, 0), (0, 0, 1), (1, 0, 0), (0, 0, 0)]
    h = Matrix.from_raw_rows(f, [[c[i] for c in cols] for i in range(3)])
    cm = CheckMatrix(f, h, ())
    found = minimal_supports(cm, 3)
    assert found[1] == [(7,)]
    assert found[2] == [(0, 6)]
    assert found[3][:3] == [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    assert found == ref_minimal_supports(cm, 3)


def test_w_max_one_tests_every_column_against_the_empty_basis():
    for f in POINT_FIELDS:
        z, o = f.zero_raw, f.one_raw
        cols = [(z, z), (o, z), (z, z), (o, o), (z, z)]
        h = Matrix.from_raw_rows(f, [[c[i] for c in cols] for i in range(2)])
        cm = CheckMatrix(f, h, ())
        with _batch_spy() as spy:
            assert minimal_supports(cm, 1) == {1: [(0,), (2,), (4,)]}
        assert spy.call_count == 1
        assert minimal_supports(cm, 1) == ref_minimal_supports(cm, 1)


def test_w_max_below_one_is_bad_params():
    cm = veronese_check_matrix(3, 2, parse_field("F3"))
    for w_max in (0, -1):
        with pytest.raises(BadParams):
            minimal_supports(cm, w_max)
