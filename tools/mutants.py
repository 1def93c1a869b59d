"""Mutation gate for the fast paths: apply each catalogued mutant to a
temporary copy of the package, run the test module that must kill it,
and exit nonzero if any mutant survives.

    python3 tools/mutants.py

Each mutant names a function in src/verolab (a method as Class.name),
one or more exact text edits inside that function (each old text must
occur there exactly once) and the test module that must fail with them
applied.  src/, tests/ and pyproject.toml are copied to a fresh
temporary directory per run, and pytest runs there with that copy first
on PYTHONPATH, without bytecode files, so no stale .pyc, hypothesis
database or cache from the checkout or from another mutant takes part.
Each named test module must pass on the unmutated copy first.

Exit status: 0 when every mutant was killed, 1 when one survived, 2 when
the catalogue no longer applies (an edit that does not match once) or a
test module fails unmutated.  Standard library only; not part of the
tier-1 run, whose testpaths is tests/.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 900  # a mutant that makes its module hang counts as killed


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # under src/verolab
    function: str  # a method as Class.name
    edits: tuple[tuple[str, str], ...]  # (old, new) text inside the function
    tests: str  # the test module that must kill it
    fault: str


CATALOGUE = (
    # the one budget gate
    Mutant("budget-exponent-shortcut-dropped", "linalg.py", "over_budget",
           (("if base > 1 and exponent >= allowed.bit_length():", "if False:"),),
           "tests/test_linalg.py", "every power is formed, so a huge exponent hangs before it is refused"),
    Mutant("budget-refused-at-allowed", "linalg.py", "over_budget",
           (("return needed if needed > allowed else None", "return needed if needed >= allowed else None"),),
           "tests/test_linalg.py", "a count equal to its budget is refused"),
    Mutant("binomial-bound-dropped", "monomials.py", "num_monomials",
           ((", 2, min(n - 1, d))", ", 2, 0)"),),
           "tests/test_monomials.py", "every monomial count is formed, so a huge binomial hangs before it is refused"),
    # the exponent order
    Mutant("exponents-order-reversed", "monomials.py", "enumerate_exponents",
           (("for t in sums][::-1])", "for t in sums])"),),
           "tests/test_monomials.py", "the exponents come in ascending lex order"),
    Mutant("shift-table-offset-one-variable-more", "monomials.py", "_shift_table",
           (("math.comb(n - j - 1 + top - t, top - t)", "math.comb(n - j + top - t, top - t)"),),
           "tests/test_monomials.py", "each step adds N(n - j + 1, .), the offset of the table in one variable more"),
    Mutant("shift-tables-kept-past-cap", "monomials.py", "_shift_table",
           (("_shift_table.cache_clear()", "pass"),),
           "tests/test_monomials.py", "every shift table is kept for the life of the process, past the entry cap"),
    Mutant("exponent-entries-cap-dropped", "monomials.py", "enumerate_exponents",
           (("num_monomials(n, d) * n, ENUM_BUDGET)", "num_monomials(n, d), ENUM_BUDGET)"),),
           "tests/test_monomials.py", "only the tuples are capped, so n times more entries are listed"),
    # _rref_int and the integer core over Q
    Mutant("rref-int-no-update-content", "linalg.py", "_rref_int",
           (("rows[i] = [x // g for x in tgt] if g > 1 else tgt", "rows[i] = tgt"),),
           "tests/test_rational_core.py", "the row content is not divided out after each update"),
    Mutant("rref-int-no-initial-content", "linalg.py", "_rref_int",
           (("        if g > 1:\n            rows[i] = [x // g for x in row]", "        pass"),),
           "tests/test_rational_core.py", "the rows' content is not divided out before elimination"),
    Mutant("int-rows-first-den-one", "linalg.py", "_int_rows",
           (("dens.append(den)", "dens.append(den if dens else 1)"),),
           "tests/test_rational_core.py", "dens[0] forced to 1"),
    Mutant("rref-q-int-zero-rows", "linalg.py", "_QMatrix.__getattr__",
           (("tuple(map(Fraction, r)) if den == 1", "r if den == 1"),),
           "tests/test_rational_core.py",
           "rows over denominator 1, the zero rows past the rank among them, read as ints"),
    # the fused multiply-add kernels
    Mutant("dots-column-last-nonzero-dropped", "linalg.py", "_dots",
           (("if y != zero] for bc in cols]", "if y != zero][:-1] for bc in cols]"),),
           "tests/test_linalg.py", "each column's last nonzero entry is left out of its dot products"),
    Mutant("echelon-extend-factor-not-negated", "linalg.py", "_reduce",
           (("c = neg(c)", "pass"),),
           "tests/test_linalg.py", "the row update adds f*b where it subtracts it (the same in characteristic 2)"),
    # the pivots a subspace keeps from its elimination
    Mutant("span-pivots-shifted", "linalg.py", "_span_int",
           (("Subspace(field, ambient_dim, rows, pivots)", "Subspace(field, ambient_dim, rows, [p + 1 for p in pivots])"),),
           "tests/test_linalg.py", "each stored pivot is one column past the basis row's first nonzero entry"),
    # the intersection on residues and the per-check power-subspace memo
    Mutant("intersect-residue-skipped", "linalg.py", "subspace_intersect",
           (("[_reduce(f, a.ints, a.pivots, list(r)) + list(r)", "[list(r) + list(r)"),),
           "tests/test_linalg.py", "B's rows are not reduced against A, so every meet comes out zero"),
    Mutant("intersect-left-half-ignored", "linalg.py", "subspace_intersect",
           (("k = bisect_left(piv, m)", "k = 0"),),
           "tests/test_linalg.py", "right halves are kept from every row, so the meet is the smaller space"),
    Mutant("intersect-tag-not-scaled", "linalg.py", "_residues_int",
           (("s *= e", "pass"),),
           "tests/test_rational_core.py", "over Q the tag half is not scaled along with the residue it records"),
    Mutant("intersect-meet-not-divided", "linalg.py", "Subspace.basis",
           (("tuple([row[p] for row, p in zip(self.ints, self.pivots)])", "(1,) * len(self.ints)"),),
           "tests/test_rational_core.py",
           "a Q subspace's integer rows, the meet's among them, stand in its basis over 1, not over their pivot"),
    Mutant("intersect-pivots-unshifted", "linalg.py", "subspace_intersect",
           (("pivots = tuple(p - m for p in piv[k:])", "pivots = tuple(piv[k:])"),),
           "tests/test_rational_core.py", "the meet's pivots are stored as columns of the doubled rows, p not p - m"),
    Mutant("rank-q-row-count", "linalg.py", "rank",
           (("return _span_int([list(r) for r in m.ints], m.cols, m.field).dim", "return m.rows"),),
           "tests/test_rational_core.py", "rank returns the row count, over Q among the fields"),
    # the integer rows a Q matrix keeps
    Mutant("q-product-dens-not-multiplied", "linalg.py", "_q_product",
           (("[x * den for x in a.dens]", "a.dens"),),
           "tests/test_rational_core.py",
           "a product's rows stand over a's denominators alone, not times b's common one"),
    Mutant("q-matrix-rows-not-reduced", "linalg.py", "_q_matrix",
           (("g = gcd(den, *r) if den > 1 else 1", "g = 1"),),
           "tests/test_rational_core.py", "rows keep a factor shared with their denominator, so == and hash tell equal "
           "matrices apart"),
    # the integer rows a Q subspace keeps
    Mutant("q-pivot-sign-not-normalised", "linalg.py", "Subspace.__init__",
           (("tuple(row) if row[p] > 0 else tuple([-x for x in row])", "tuple(row)"),),
           "tests/test_rational_core.py", "a row with a negative pivot entry is kept, so equal spans differ"),
    Mutant("q-div-int-float", "field.py", "FieldSpec._install_rational_ops",
           (("Fraction(a.numerator * b.denominator, a.denominator * b.numerator)", "a / b"),),
           "tests/test_field.py", "Q division of two ints returns a float, not the exact Fraction"),
    Mutant("q-equality-pivots-only", "linalg.py", "Subspace.__eq__",
           (("and self.ints == other.ints", "and self.pivots == other.pivots"),),
           "tests/test_rational_core.py", "two subspaces with the same pivots compare equal, over Q among the fields"),
    Mutant("subspace-eq-field-ignored", "linalg.py", "Subspace.__eq__",
           (("            and self.field == other.field\n", ""),),
           "tests/test_linalg.py", "subspaces over different fields with the same integer rows compare equal"),
    # the integer rows a GF(q) matrix shares with its raw rows
    Mutant("gf-ints-row-dropped", "linalg.py", "Matrix.__init__",
           (("self.raw = self.ints = raw", "self.raw, self.ints = raw, raw[:-1]"),),
           "tests/test_linalg.py", "a GF(q) matrix's integer rows lack its last row, so subspaces lose a basis row"),
    Mutant("power-memo-not-cleared", "harness.py", "run_check",
           (("    _clear_power_memo()\n    try:", "    try:"),
            ("    finally:\n        _clear_power_memo()", "    finally:\n        pass")),
           "tests/test_power_memo.py", "power subspaces memoised in one check are served to the next"),
    # the one-row walk of the subset search on residue columns
    Mutant("walk-zero-residues-left-out", "linalg.py", "_point_walk",
           (("ks = group[bisect_right(group, a):] + zeros[bisect_right(zeros, a):]",
             "ks = group[bisect_right(group, a):]"),),
           "tests/test_search_kernel.py", "a last item with a zero residue is not paired with the items before it"),
    Mutant("walk-group-key-not-scaled", "linalg.py", "_projective_keys",
           (("r = tuple([mul(y, s) for y in r])", "pass"),),
           "tests/test_search_kernel.py", "residues are grouped raw, so two on one line but not equal are not paired"),
    Mutant("walk-tagged-basis-not-cut-back", "linalg.py", "_point_walk",
           (("            del basis[depth:], pivots[depth:]", "            pass"),),
           "tests/test_search_kernel.py", "the tagged basis keeps the rows of a finished subtree's prefix"),
    Mutant("walk-pivot-not-normalised", "linalg.py", "_point_walk",
           (("w = neg(mul(y, s))", "w = neg(y)"),),
           "tests/test_search_kernel.py", "u is not scaled to a unit pivot before the child columns are formed"),
    Mutant("walk-pivot-column-kept", "linalg.py", "_point_walk",
           (("for c in cols[:p]]", "for c in cols[:p + 1]]"),),
           "tests/test_search_kernel.py", "column p stays in the child level, unreduced"),
    # the RHO proof from the generators
    Mutant("rho-diagonal-generator-dropped", "harness.py", "_elementary_matrices",
           (("if mu != f.one_raw", "if mu not in (f.one_raw, nonzero[-1])"),),
           "tests/test_rho_proof.py", "the last diagonal generator is left out"),
    Mutant("rho-short-walk-accepted", "harness.py", "_rho_walk",
           (("if len(rhos) != order:", "if len(rhos) > order:"),),
           "tests/test_rho_proof.py", "a walk that stops short of |GL(n, q)| passes"),
    Mutant("rho-equivariance-sweep-skipped", "harness.py", "_check_rho",
           (("if not all(_equivariance_holds(g, rhos[g], vectors, d) for g in gens):", "if False:"),),
           "tests/test_rho_proof.py", "equivariance is not tested, so a functorial rho that is not equivariant passes"),
    # regularity on the members' annihilators
    Mutant("containment-row-skipped", "linalg.py", "contained_in",
           (("all(map(orthogonal, a.ints))", "all(map(orthogonal, a.ints[:-1]))"),),
           "tests/test_census.py", "each member's last annihilator row is not tested"),
    Mutant("regular-early-exit-short", "constructions.py", "is_regular",
           (("            if len(basis) == m:", "            if len(basis) == m - 1:"),),
           "tests/test_census.py", "the join stops at m - 1 rows"),
    Mutant("regular-cover-held-ignored", "constructions.py", "is_regular",
           (("if any(not any(contained_in(c, u)) for c in covers):",
             "if any(not all(contained_in(c, u)) for c in covers):"),),
           "tests/test_census.py", "a cover passes U although one of its members holds U"),
    Mutant("regular-cover-below-rank", "constructions.py", "is_regular",
           (("        if len(basis) == m:\n            covers.append(cover)",
             "        if len(basis) == m - 1:\n            covers.append(cover)"),),
           "tests/test_census.py", "a run of members is closed as a cover before its join reaches rank m"),
    Mutant("regular-final-reduction-skipped", "constructions.py", "is_regular",
           (("if any(_echelon_extend(f, basis, pivots, list(r), m) for r in u.ints):", "if False:"),),
           "tests/test_census.py", "a join below full rank always holds U"),
    Mutant("regular-last-failure", "constructions.py", "is_regular",
           (("    for idx, u in intersection_lattice(fam, budget):",
             "    last = None\n    for idx, u in intersection_lattice(fam, budget):"),
            ("                return False, idx\n    return True, None",
             "                last = idx\n    return (False, last) if last else (True, None)")),
           "tests/test_census.py", "the last failing meet is the witness, not the first"),
    Mutant("lattice-last-first-index-set", "constructions.py", "intersection_lattice",
           (("size < len(first)", "size <= len(first)"),),
           "tests/test_census.py", "a meet keeps its last index set of the smallest size"),
    # the VCODE witness check, independent of the search
    Mutant("verify-full-support-dropped", "vcode.py", "verify_dependency",
           (("if any(v == zero for v in vec):", "if False:"),),
           "tests/test_vcode.py", "a kernel vector with a zero entry passes"),
    Mutant("verify-product-dropped", "vcode.py", "verify_dependency",
           (("return all(x == zero for (x,) in _dots(cm.field, _restricted_rows(cm, support), [vec]))",
             "return True"),),
           "tests/test_vcode.py", "a full-support vector outside the kernel passes"),
    Mutant("dependency-vector-not-kernel", "vcode.py", "dependency_vector",
           (("kernel = annihilator(span_raw(", "kernel = (span_raw("),),
           "tests/test_vcode.py", "the witness is a row of the restricted row space, not of its annihilator"),
    # the I_k sieve
    Mutant("ik-sieve-half-degree-factor-dropped", "constructions.py", "enumerate_ik",
           (("range(1, j // 2 + 1)", "range(1, j // 2)"),),
           "tests/test_constructions.py", "a product of two degree-j/2 irreducibles is not sieved out"),
    Mutant("ik-count-divisor-dropped", "constructions.py", "_ik_count",
           (("for j in range(1, k + 1) if k % j == 0)", "for j in range(1, k) if k % j == 0)"),),
           "tests/test_constructions.py", "the irreducibles of degree k are left out of |I_k|"),
    # the one dual-arc profile law
    Mutant("profile-vacuous-levels-compared", "harness.py", "_profile_law",
           (("prof[:len(fam)] == stated[:len(fam)]", "prof == stated"),),
           "tests/test_census.py", "levels past the member count are compared, so their -1 fails the law"),
    Mutant("profile-last-level-skipped", "harness.py", "_profile_law",
           (("prof[:len(fam)] == stated[:len(fam)]",
             "prof[:len(fam)][:len(stated) - 1] == stated[:len(fam)][:len(stated) - 1]"),),
           "tests/test_census.py", "the last stated level, the zero meets, is not compared"),
    # VCODE's failure branches, reached by planted support lists
    Mutant("vcode-dependent-at-d-plus-one-missed", "harness.py", "_check_vcode",
           (("if w <= d + 1]", "if w < d + 1]"),),
           "tests/test_harness.py", "a support of size d + 1 is not reported as a dependency"),
    Mutant("vcode-min-weight-needs-both", "harness.py", "_check_vcode",
           (("if not sizes or sizes[0] != d + 2:", "if not sizes and sizes[0] != d + 2:"),),
           "tests/test_harness.py", "a wrong or missing minimum weight passes on to the geometry test"),
    Mutant("vcode-min-weight-second-size", "harness.py", "_check_vcode",
           (("sizes[0] if sizes else None", "sizes[1] if sizes else None"),),
           "tests/test_harness.py", "the min_weight witness reads the second support size"),
    # the checks' own searches, read off the library's enumerations and kernels
    Mutant("sharp-witness-one-short", "harness.py", "_check_t1_1_sharp",
           (("pivots[:d + 2]", "pivots[:d + 1]"),),
           "tests/test_census.py", "the witness holds d + 1 images, not d + 2"),
    Mutant("sharp-rows-not-columns", "harness.py", "_check_t1_1_sharp",
           (("[list(r) for r in zip(*cols)]", "cols"),),
           "tests/test_census.py", "the images are reduced as rows, so the pivots index coordinates"),
    Mutant("ex10-first-triple-only", "harness.py", "_check_ex10",
           (("if len(triple_ranks) == 2:", "if triple_ranks:"),),
           "tests/test_harness.py", "the triple walk stops after the first triple"),
    Mutant("ex10-pair-count-linear", "harness.py", "_check_ex10",
           (("math.comb(q + 1, 2)", "q + 1"),),
           "tests/test_harness.py", "a pair point's pair count is compared with q + 1, not C(q + 1, 2)"),
    Mutant("iterate-first-vector-only", "harness.py", "_check_iterate",
           (("enumerate_vectors(full_subspace(f, n))", "enumerate_vectors(full_subspace(f, n))[:1]"),),
           "tests/test_harness.py", "only the zero vector is tested"),
    # the draw of the sampled checks: the same rng calls, in the same order
    Mutant("draw-q-range-shifted", "harness.py", "_random_rows",
           (("rng.randint, -5, 5)", "rng.randint, -5, 4)"),),
           "tests/test_draws.py", "the Q entries are drawn from [-5, 4], not [-5, 5]"),
    Mutant("draw-columns-first", "harness.py", "_random_rows",
           (("return [[draw() for _ in range(m)] for _ in range(count)]",
             "return [list(r) for r in zip(*[[draw() for _ in range(count)] for _ in range(m)])]"),),
           "tests/test_draws.py", "entries are drawn column by column: the same rng calls fill other rows"),
)


def _function_span(source: str, name: str) -> tuple[int, int]:
    """Character offsets of the one function called name in source, or,
    for a name Class.method, of that method of that class."""
    scope = ast.parse(source)
    if "." in name:
        cls, name = name.split(".")
        scope = next(n for n in ast.walk(scope) if isinstance(n, ast.ClassDef) and n.name == cls)
    found = [n for n in ast.walk(scope)
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == name]
    if len(found) != 1:
        raise LookupError(f"{len(found)} functions named {name}")
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts[found[0].lineno - 1], starts[found[0].end_lineno]


def mutate(source: str, mutant: Mutant) -> str:
    """source with mutant's edits applied inside its function."""
    lo, hi = _function_span(source, mutant.function)
    body = source[lo:hi]
    for old, new in mutant.edits:
        if body.count(old) != 1:
            raise LookupError(f"{mutant.name}: {old!r} occurs {body.count(old)} times in {mutant.function}")
        body = body.replace(old, new)
    return source[:lo] + body + source[hi:]


def run_tests(tests: str, mutant: Mutant | None) -> tuple[str, float]:
    """('passed' | 'failed: <first failing test>' | 'timeout' | 'error: ...', seconds)
    for tests on a fresh copy of the checkout, with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="verolab-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        if mutant is not None:
            path = os.path.join(tmp, "src", "verolab", mutant.module)
            with open(path) as fh:
                source = fh.read()
            with open(path, "w") as fh:
                fh.write(mutate(source, mutant))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            out = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider", tests],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start
        took = time.perf_counter() - start
    if out.returncode == 0:
        return "passed", took
    if out.returncode == 1:
        failed = [ln.split()[1] for ln in out.stdout.splitlines() if ln.startswith("FAILED ")]
        return f"failed: {failed[0] if failed else '?'}", took
    tail = (out.stdout + out.stderr).strip().splitlines()[-1:] or ["?"]
    return f"error: exit {out.returncode}, {tail[0]}", took


def main() -> int:
    for m in CATALOGUE:  # every edit must still apply before anything runs
        with open(os.path.join(ROOT, "src", "verolab", m.module)) as fh:
            try:
                mutate(fh.read(), m)
            except LookupError as exc:
                print(f"catalogue out of date: {exc}", file=sys.stderr)
                return 2
    for tests in dict.fromkeys(m.tests for m in CATALOGUE):
        verdict, took = run_tests(tests, None)
        print(f"{'unmutated':40} {tests:30} {verdict} ({took:.1f} s)", flush=True)
        if verdict != "passed":
            return 2
    survivors = []
    for m in CATALOGUE:
        verdict, took = run_tests(m.tests, m)
        killed = verdict.startswith("failed") or verdict == "timeout"
        if not killed:
            survivors.append(m.name)
        print(f"{m.name:40} {m.tests:30} {'killed' if killed else 'SURVIVED'}: {verdict} ({took:.1f} s)",
              flush=True)
    print(f"{len(CATALOGUE) - len(survivors)} of {len(CATALOGUE)} mutants killed"
          + (f"; survived: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
