"""Per-module tracing of verolab from outside the package.

The tracer replaces public functions of the verolab modules with
wrappers that open a span around each call, in every ``verolab.*``
module namespace that binds the function (``harness`` and ``vcode``
import names directly, so patching the defining module alone would miss
their calls).  It also wraps ``Matrix.__mul__`` and ``Matrix.apply``,
counts ``Scalar`` constructions, and counts the raw op attributes of
every ``FieldSpec`` it sees built.  Field ops are counted, not spanned:
a pass makes millions of them.

A span has a group (the metric prefix, e.g. ``linalg.rref``), a start,
an end and a parent: the span open when it started.  Spans close in
stack order in this single-threaded loop, so a span's self time (its
duration minus the time covered by its children) is folded into its
group's totals as it closes, together with the group's call count and,
for the outermost span of the group, its inclusive time.  Only these
per-group totals stay in memory; the worker snapshots them around each
entry, so all spans of one entry are attributed to that entry.

Work counts that a new algorithm must not be able to redefine
(``*.subsets_nominal``) are computed from each call's arguments and
result, never by counting calls made inside it.
"""

from __future__ import annotations

import inspect
import math
import random
import sys
import time

# group -> [(module, attribute)]; a name that no longer exists is skipped,
# so its metrics read 0 rather than breaking the run.
SPANNED = {
    "field.construct": [("verolab.field", "parse_field"), ("verolab.field", "field_make"),
                        ("verolab.field", "rationals")],
    "linalg.rref": [("verolab.linalg", "_rref_raw")],
    "linalg.span": [("verolab.linalg", "span")],
    "linalg.intersect": [("verolab.linalg", "subspace_intersect")],
    "linalg.enumerate": [("verolab.linalg", "projective_points"), ("verolab.linalg", "projective_vectors"),
                         ("verolab.linalg", "enumerate_vectors")],
    "monomials": [("verolab.monomials", n) for n in (
        "enumerate_exponents", "_index_map", "num_monomials", "exponent_index", "index_exponent",
        "multinomial", "eval_monomial")],
    "veronese.vector": [("verolab.veronese", "veronese_vector")],
    "veronese.subspace": [("verolab.veronese", "veronese_subspace"), ("verolab.veronese", "veronese_point")],
    "veronese.rho": [("verolab.veronese", "rho_d")],
    "polyalgebra.poly_mul": [("verolab.polyalgebra", "poly_mul")],
    "polyalgebra.power": [("verolab.polyalgebra", "linear_form_power"), ("verolab.polyalgebra", "power_subspace")],
    "polyalgebra.product": [("verolab.polyalgebra", "product_space")],
    "independence.search": [("verolab.independence", "is_r_independent"),
                            ("verolab.independence", "max_independence"),
                            ("verolab.independence", "check_image_independence")],
    "constructions.build": [("verolab.constructions", n) for n in (
        "desarguesian_spread", "dual_arc_ad", "dual_arc_ik", "enumerate_ik", "irreducible_homogeneous",
        "wedge_family", "dual_family", "derived_family", "partial_spread_products", "conic",
        "hyperoval", "elliptic_ovoid", "rational_normal_curve")],
    "constructions.census": [("verolab.constructions", n) for n in (
        "gda_profile", "intersection_lattice", "is_regular", "is_strongly_regular")],
    "vcode.matrix": [("verolab.vcode", "veronese_check_matrix"), ("verolab.vcode", "powerpoint_check_matrix")],
    "vcode.search": [("verolab.vcode", "minimal_supports"), ("verolab.vcode", "min_weight")],
    "vcode.verify": [("verolab.vcode", n) for n in (
        "classify_supports", "dependency_vector", "verify_dependency", "code_rank")],
    "harness.glue": [("verolab.harness", "run_check")],
}
SPANNED_METHODS = {
    "linalg.matmul": [("verolab.linalg", "Matrix", "__mul__"), ("verolab.linalg", "Matrix", "apply")],
}
GROUPS = list(SPANNED) + list(SPANNED_METHODS)
FIELD_OPS = ("add", "sub", "mul", "div", "neg", "inv")
BINARY_OPS = ("add", "sub", "mul", "div")


def lex_rank(combo, n: int) -> int:
    """Position of the sorted index tuple combo among the r-subsets of
    range(n) in lexicographic order (itertools.combinations order)."""
    r = len(combo)
    rank, prev = 0, -1
    for i, c in enumerate(combo):
        for v in range(prev + 1, c):
            rank += math.comb(n - 1 - v, r - 1 - i)
        prev = c
    return rank


class Tracer:
    """Span and count recorder for one traced process."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: list[list[float]] = []  # one [child_time] cell per open span
        n = len(GROUPS)
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.calls = [0] * n
        self.depth = [0] * n
        self.counts = {
            "linalg.rref.cells": 0, "linalg.span.rows_in": 0, "linalg.span.dim_out": 0,
            "independence.subsets_nominal": 0, "constructions.census.subsets_nominal": 0,
            "vcode.search.subsets_nominal": 0, "field.scalars": 0, "harness.budget_exceeded": 0,
        }
        self.op_counts: dict[str, dict[str, list[int]]] = {}  # field name -> op -> [count]
        self.raw_ops: dict[str, dict] = {}  # field name -> op -> uninstrumented op
        self.fields: dict[str, object] = {}
        self._last_exc = None
        self._budget_exc = None

    # -- spans ----------------------------------------------------------

    def _wrap(self, fn, gi: int, pre=None, post=None):
        stack, clock = self.stack, self.clock
        self_s, incl_s, calls, depth = self.self_s, self.incl_s, self.calls, self.depth
        tracer = self

        def close(t0: float, cell: list[float]) -> None:
            dur = clock() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            self_s[gi] += dur - cell[0]
            calls[gi] += 1
            depth[gi] -= 1
            if not depth[gi]:
                incl_s[gi] += dur

        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            cell = [0.0]
            stack.append(cell)
            depth[gi] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(t0, cell)
                tracer._note_exception(exc)
                raise
            close(t0, cell)
            if post is not None:
                post(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _note_exception(self, exc: BaseException) -> None:
        # one exception passes through every wrapper on the stack; count it once
        if exc is self._last_exc:
            return
        self._last_exc = exc
        if self._budget_exc is not None and isinstance(exc, self._budget_exc):
            self.counts["harness.budget_exceeded"] += 1

    # -- work counts ------------------------------------------------------

    def _hooks(self):
        counts = self.counts

        def binder(mod, name):
            sig = inspect.signature(getattr(sys.modules[mod], name))
            def bind(args, kwargs):
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                return b.arguments
            return bind

        def rref_pre(args, kwargs):
            rows = args[1] if len(args) > 1 else kwargs["rows"]
            if rows:
                counts["linalg.rref.cells"] += len(rows) * len(rows[0])
            return args, kwargs

        def span_pre(args, kwargs):
            if args and not isinstance(args[0], (list, tuple)):
                args = (list(args[0]),) + tuple(args[1:])
            vectors = args[0] if args else kwargs["vectors"]
            counts["linalg.span.rows_in"] += len(vectors)
            return args, kwargs

        def span_post(args, kwargs, result):
            counts["linalg.span.dim_out"] += result.dim

        hooks = {
            ("verolab.linalg", "_rref_raw"): (rref_pre, None),
            ("verolab.linalg", "span"): (span_pre, span_post),
        }

        if hasattr(sys.modules.get("verolab.independence"), "is_r_independent"):
            bind_r = binder("verolab.independence", "is_r_independent")

            def r_independent_post(args, kwargs, result):
                a = bind_r(args, kwargs)
                fam, r = a["fam"], a["r"]
                n = len(fam)
                ok, wit = result
                total = math.comb(n, r)
                if total > a["budget"]:  # seeded sampling path: count the trials drawn
                    trials = a["sample_trials"]
                    if not ok:
                        rng = random.Random(a["seed"])
                        for t in range(trials):
                            if tuple(sorted(rng.sample(range(n), r))) == tuple(wit):
                                trials = t + 1
                                break
                    counts["independence.subsets_nominal"] += trials
                elif ok:
                    counts["independence.subsets_nominal"] += total
                else:
                    counts["independence.subsets_nominal"] += lex_rank(wit, n) + 1

            hooks[("verolab.independence", "is_r_independent")] = (None, r_independent_post)

        if hasattr(sys.modules.get("verolab.constructions"), "gda_profile"):
            bind_g = binder("verolab.constructions", "gda_profile")

            def gda_post(args, kwargs, result):
                a = bind_g(args, kwargs)
                n = len(a["fam"])
                counts["constructions.census.subsets_nominal"] += sum(
                    math.comb(n, j) for j in range(1, a["j_max"] + 1))

            def lattice_post(args, kwargs, result):
                # distinct nonzero meets the lattice must produce
                counts["constructions.census.subsets_nominal"] += len(result)

            hooks[("verolab.constructions", "gda_profile")] = (None, gda_post)
            hooks[("verolab.constructions", "intersection_lattice")] = (None, lattice_post)

        if hasattr(sys.modules.get("verolab.vcode"), "minimal_supports"):
            bind_m = binder("verolab.vcode", "minimal_supports")

            def supports_post(args, kwargs, result):
                a = bind_m(args, kwargs)
                m = a["cm"].n_cols
                counts["vcode.search.subsets_nominal"] += sum(
                    math.comb(m, w) for w in range(1, a["w_max"] + 1))

            hooks[("verolab.vcode", "minimal_supports")] = (None, supports_post)
        return hooks

    # -- field ops and scalars ---------------------------------------------

    def instrument_field(self, f) -> None:
        """Count calls to the raw op attributes of one FieldSpec."""
        name = f.name
        if name in self.fields:
            return
        self.fields[name] = f
        per_op: dict[str, list[int]] = {}
        raw: dict = {}
        for op in FIELD_OPS:
            fn = getattr(f, op, None)
            if fn is None:
                continue
            cell = [0]
            per_op[op] = cell
            raw[op] = fn
            if op in BINARY_OPS:
                def counted(a, b, fn=fn, cell=cell):
                    cell[0] += 1
                    return fn(a, b)
            else:
                def counted(a, fn=fn, cell=cell):
                    cell[0] += 1
                    return fn(a)
            object.__setattr__(f, op, counted)
        self.op_counts[name] = per_op
        self.raw_ops[name] = raw

    def _count_scalars(self, scalar_cls) -> None:
        init = scalar_cls.__init__
        counts = self.counts

        def counted_init(self, *args, **kwargs):
            counts["field.scalars"] += 1
            init(self, *args, **kwargs)

        scalar_cls.__init__ = counted_init

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every loaded verolab namespace.
        Call after importing verolab and before building any field."""
        mods = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "verolab"}
        hooks = self._hooks()
        errors = mods.get("verolab.errors")
        self._budget_exc = getattr(errors, "BudgetExceeded", None)
        construct_gi = GROUPS.index("field.construct")
        replace: dict[int, object] = {}  # id(original) -> wrapper, which keeps the original alive
        for gi, group in enumerate(GROUPS):
            for mod_name, attr in SPANNED.get(group, ()):
                fn = getattr(mods.get(mod_name), attr, None)
                if fn is None or id(fn) in replace:
                    continue
                pre, post = hooks.get((mod_name, attr), (None, None))
                if gi == construct_gi:
                    post = self._construct_post
                replace[id(fn)] = self._wrap(fn, gi, pre, post)
            for mod_name, cls_name, attr in SPANNED_METHODS.get(group, ()):
                cls = getattr(mods.get(mod_name), cls_name, None)
                fn = getattr(cls, attr, None)
                if fn is not None:
                    setattr(cls, attr, self._wrap(fn, gi))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                wrapper = replace.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        scalar_cls = getattr(mods.get("verolab.field"), "Scalar", None)
        if scalar_cls is not None:
            self._count_scalars(scalar_cls)

    def _construct_post(self, args, kwargs, result) -> None:
        self.instrument_field(result)

    # -- results ------------------------------------------------------------

    def snapshot(self) -> tuple:
        return list(self.self_s), list(self.incl_s), list(self.calls)

    @staticmethod
    def delta(before: tuple, after: tuple) -> dict:
        """Per-group self time, inclusive time and calls between two
        snapshots, for groups that ran."""
        out = {}
        for gi, group in enumerate(GROUPS):
            calls = after[2][gi] - before[2][gi]
            if calls:
                out[group] = {
                    "calls": calls,
                    "self_s": after[0][gi] - before[0][gi],
                    "incl_s": after[1][gi] - before[1][gi],
                }
        return out

    def totals(self) -> dict:
        """Per-group totals over the whole traced process."""
        n = len(GROUPS)
        return self.delta(([0.0] * n, [0.0] * n, [0] * n), self.snapshot())

    def field_op_total(self) -> int:
        return sum(c[0] for ops in self.op_counts.values() for c in ops.values())


def time_field_ops(tracer: Tracer, seed: int, target_s: float = 0.02) -> dict[str, float]:
    """ns per raw add, mul and div call on seeded element pairs of each
    field the run used, each field weighted by its traced op count.  The
    time includes the loop that feeds the op."""
    from fractions import Fraction

    sums = {"add": 0.0, "mul": 0.0, "div": 0.0}
    weight_total = 0
    for name, f in sorted(tracer.fields.items()):
        weight = sum(c[0] for c in tracer.op_counts[name].values())
        if not weight:
            continue
        rng = random.Random(f"{seed}:{name}")
        if f.is_finite:
            def draw(nonzero):
                return rng.randrange(1 if nonzero else 0, f.q)
        else:
            def draw(nonzero):
                num = rng.randint(1, 9) * rng.choice((-1, 1)) if nonzero else rng.randint(-9, 9)
                return Fraction(num, rng.randint(1, 9))
        for op in sums:
            fn = tracer.raw_ops[name][op]
            pairs = [(draw(False), draw(op == "div")) for _ in range(64)]
            reps = 1
            while True:
                t0 = time.perf_counter()
                for _ in range(reps):
                    for a, b in pairs:
                        fn(a, b)
                dt = time.perf_counter() - t0
                if dt >= target_s or reps >= 1 << 14:
                    break
                reps *= 2
            best = dt
            for _ in range(2):
                t0 = time.perf_counter()
                for _ in range(reps):
                    for a, b in pairs:
                        fn(a, b)
                best = min(best, time.perf_counter() - t0)
            sums[op] += weight * best / (reps * len(pairs)) * 1e9
        weight_total += weight
    return {op: (v / weight_total if weight_total else 0.0) for op, v in sums.items()}

