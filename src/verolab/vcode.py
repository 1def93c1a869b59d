"""Linear codes whose check matrices list one column per projective
point: either the degree-d monomial evaluation of the point, or the
coefficients of the d-th power of its linear form.

The minimum distance of such a code is the size of the smallest
dependent column set.  The search therefore records minimal supports
(circuits): subsets that are dependent while every proper subset is
independent.  It walks column prefixes depth first in lexicographic
order, extends only independent prefixes, and closes a circuit when a
column reduces to zero against the prefix by a dependency of full
support.  The smallest size with a support is the minimum weight, and
each support carries a full-support dependency vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import BadParams
from .field import FieldSpec
from .linalg import (
    SUBSET_BUDGET,
    Matrix,
    Vector,
    _dots,
    annihilator,
    check_budget,
    dependent_prefixes,
    projective_points,
    span,
    span_raw,
)
from .polyalgebra import HomogPoly, linear_form_power
from .veronese import veronese_vector


@dataclass(frozen=True)
class CheckMatrix:
    """N x M check matrix plus the source point of each column."""

    field: FieldSpec
    h: Matrix
    column_tags: tuple[Vector, ...]

    @property
    def n_rows(self) -> int:
        return self.h.rows

    @property
    def n_cols(self) -> int:
        return self.h.cols


def veronese_check_matrix(n: int, d: int, f: FieldSpec) -> CheckMatrix:
    """Columns are the degree-d monomial vectors of the normalized
    projective points of K^n, in point-enumeration order."""
    pts = projective_points(f, n)
    cols = [veronese_vector(t, d) for t in pts]
    return CheckMatrix(f, Matrix.from_rows(f, cols).transpose(), tuple(pts))


def powerpoint_check_matrix(n: int, d: int, f: FieldSpec) -> CheckMatrix:
    """Columns are the coefficient vectors of (t1 x1 + ... + tn xn)^d for
    the normalized points t, in the same order."""
    pts = projective_points(f, n)
    cols = [linear_form_power(HomogPoly.linear_form(t), d).raw for t in pts]
    return CheckMatrix(f, Matrix.from_raw_rows(f, cols).transpose(), tuple(pts))


def minimal_supports(
    cm: CheckMatrix, w_max: int, budget: int = SUBSET_BUDGET
) -> dict[int, list[tuple[int, ...]]]:
    """Minimal dependent column sets of each size up to w_max: dependent
    subsets all of whose proper subsets are independent, in lexicographic
    order within each size.  Every such subset carries a unique (up to
    scale) full-support dependency.

    Circuit enumeration on linalg.dependent_prefixes: only independent
    prefixes are extended, since a set holding a dependent prefix holds
    a smaller dependent set and so is not minimal.  Column j is tagged
    with the unit vector of its position in the prefix, so when it
    reduces to zero against the prefix basis the tag part of the residue
    is the dependency among the prefix columns and j, unique up to scale
    because the prefix is independent.  The set is minimal exactly when
    that dependency has full support: a dependent proper subset carries
    a dependency that is zero off the subset, and by uniqueness that is
    a multiple of this one; conversely the support of this dependency
    is itself a dependent subset.
    """
    if w_max < 1:
        raise BadParams(f"w_max={w_max} must be >= 1")
    m_cols = cm.n_cols
    check_budget(f"subsets of at most {w_max} of {m_cols} columns",
                 sum(math.comb(m_cols, w) for w in range(1, w_max + 1)), budget)
    f = cm.field
    zero = f.zero_raw
    n_rows = cm.n_rows
    cols = [list(c) for c in zip(*cm.h.raw)]

    def rows_of(j, depth):
        vec = cols[j] + [zero] * w_max
        vec[n_rows + depth] = f.one_raw
        return [vec]

    found: dict[int, list[tuple[int, ...]]] = {}
    for sup, residue in dependent_prefixes(f, m_cols, rows_of, n_rows, w_max):
        if zero not in residue[n_rows:n_rows + len(sup) - 1]:
            found.setdefault(len(sup), []).append(sup)
    return {w: found[w] for w in sorted(found)}


def min_weight(
    cm: CheckMatrix, w_max: int, budget: int = SUBSET_BUDGET
) -> tuple[int | None, list[tuple[int, ...]]]:
    """Smallest w <= w_max with a full-support dependency among some w
    columns, plus all minimal supports of that size; (None, []) if none."""
    found = minimal_supports(cm, w_max, budget)
    if not found:
        return None, []
    w = min(found)
    return w, found[w]


def _restricted_rows(cm: CheckMatrix, support) -> list[list]:
    """The rows of H restricted to the support's columns."""
    return [[row[j] for j in support] for row in cm.h.raw]


def dependency_vector(cm: CheckMatrix, support) -> list:
    """The kernel vector witnessing the dependency on a minimal support:
    the one row (ints) of the annihilator of the restricted row space."""
    kernel = annihilator(span_raw(_restricted_rows(cm, support), len(support), cm.field))
    if kernel.is_zero():
        raise ValueError(f"columns {tuple(support)} are independent")
    return list(kernel.ints[0])


@dataclass(frozen=True)
class SupportReport:
    indices: tuple[int, ...]
    source_rank: int
    two_line_split: tuple[tuple[int, ...], tuple[int, ...]] | None


def classify_supports(cm: CheckMatrix, supports) -> list[SupportReport]:
    """For each support, the rank of the span of its source points; for
    rank-3 supports of even size, also a split into two half-size sets of
    points each spanning a 2-space, when one exists."""
    f = cm.field
    out = []
    for sup in supports:
        sup = tuple(sup)
        pts = [cm.column_tags[j] for j in sup]
        amb = len(pts[0])
        r = span(pts, amb, f).dim
        split = None
        if r == 3 and len(sup) % 2 == 0:
            half = len(sup) // 2
            for left in itertools.combinations(range(len(sup)), half):
                right = tuple(i for i in range(len(sup)) if i not in left)
                if (
                    span([pts[i] for i in left], amb, f).dim <= 2
                    and span([pts[i] for i in right], amb, f).dim <= 2
                ):
                    split = (
                        tuple(sup[i] for i in left),
                        tuple(sup[i] for i in right),
                    )
                    break
        out.append(SupportReport(indices=sup, source_rank=r, two_line_split=split))
    return out


def verify_dependency(cm: CheckMatrix, support, vec) -> bool:
    """H restricted to the support times vec is zero and vec has full
    support."""
    zero = cm.field.zero_raw
    if any(v == zero for v in vec):
        return False
    return all(x == zero for (x,) in _dots(cm.field, _restricted_rows(cm, support), [vec]))
