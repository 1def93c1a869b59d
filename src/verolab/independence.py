"""r-independence of subspace families: every r members span their
direct sum.  Failures always carry the lexicographically first violating
index set, so reports stay actionable and reproducible.
"""

from __future__ import annotations

import math

from .errors import AmbientMismatch, BadParams, DuplicateMember
from .field import FieldSpec
from .linalg import SUBSET_BUDGET, Subspace, annihilator, check_budget, dependent_prefixes


class SubspaceFamily:
    """An ordered family of distinct nonzero subspaces of one K^m."""

    __slots__ = ("field", "ambient_dim", "members", "_annihilators")

    def __init__(self, members) -> None:
        members = list(members)
        if not members:
            raise ValueError("family must have at least one member")
        f = members[0].field
        m = members[0].ambient_dim
        seen = set()
        for s in members:
            if s.field != f or s.ambient_dim != m:
                raise AmbientMismatch("family members in different spaces")
            if s.is_zero():
                raise ValueError("family members must be nonzero")
            if s in seen:
                raise DuplicateMember(f"repeated member {s!r}")
            seen.add(s)
        self.field: FieldSpec = f
        self.ambient_dim: int = m
        self.members: tuple[Subspace, ...] = tuple(members)
        self._annihilators: tuple[Subspace, ...] | None = None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> Subspace:
        return self.members[i]

    def annihilators(self) -> tuple[Subspace, ...]:
        """The annihilator of each member, in order, computed once per
        family: the census walk and the regularity test both read them."""
        if self._annihilators is None:
            self._annihilators = tuple(annihilator(s) for s in self.members)
        return self._annihilators

    def __repr__(self) -> str:
        return f"SubspaceFamily({len(self.members)} members in {self.field.name}^{self.ambient_dim})"


def is_r_independent(
    fam: SubspaceFamily,
    r: int,
    budget: int = SUBSET_BUDGET,
) -> tuple[bool, tuple[int, ...] | None]:
    """Does every r-subset span its direct sum?

    Depth-first search over index prefixes in lexicographic order
    (linalg.dependent_prefixes).  A prefix is direct exactly when each
    new member's basis rows extend the prefix's echelon basis; a prefix
    that is not direct is pruned, because every r-set containing it
    fails too.  Only indices i <= |F| - (r - depth) are tried, so every
    prefix visited can still be completed to an r-set.  The first
    non-direct prefix P + (i,) is reported completed by i+1, i+2, ...:
    every r-set lexicographically before that one either has all its
    prefixes visited earlier and found direct, or shares P + (i,) and
    would need a smaller tail than i+1, i+2, ..., which does not exist.
    So the witness is the lexicographically first violating r-set.
    When every member is a point (one basis row), the kernel walks the
    points' residue columns and decides the last two members of each
    (r - 2)-prefix together by grouping the residues by the line they
    span; the witness is the same, and the search stops at its first
    yield, so the echelon basis of a prefix is built at most once.

    When C(|F|, r) exceeds the budget, BudgetExceeded is raised before
    any subset is visited.
    """
    n = len(fam)
    if not 2 <= r <= n:
        raise BadParams(f"r={r} outside [2, {n}]")
    check_budget(f"{r}-subsets of {n} members", math.comb(n, r), budget)
    ints = [s.ints for s in fam.members]

    def rows_of(i, depth):
        return [list(row) for row in ints[i]]

    for prefix, _ in dependent_prefixes(fam.field, n, rows_of, fam.ambient_dim, r, complete=True):
        last = prefix[-1]
        return False, prefix + tuple(range(last + 1, last + 1 + r - len(prefix)))
    return True, None


def max_independence(fam: SubspaceFamily, budget: int = SUBSET_BUDGET) -> int:
    """Largest r <= |F| with every r-subset direct; 1 if some pair meets.

    r-independence is inherited by smaller subset sizes, so ascending
    until the first failure is valid.
    """
    if len(fam) < 2:
        return len(fam)
    best = 1
    for r in range(2, len(fam) + 1):
        ok, _ = is_r_independent(fam, r, budget=budget)
        if not ok:
            return best
        best = r
    return best

