"""verolab benchmark: time each workload end to end, check every verdict,
and with --trace 1 report per-module self times and work counts.

    python3 bench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout that holds src/verolab.  Every pass
runs in a fresh single-threaded interpreter (bench/worker.py), one entry
after another, so a pass costs what `verolab suite` costs a user after
set-up.  The workloads and why each exists are in bench/workloads.py.

--trace 0 prints the end-to-end metrics, each the median over the run:
  wall_s       wall seconds of one pass after set-up (time to all verdicts)
  cpu_s        process CPU seconds of the same pass
  setup_s      `import verolab` plus parse_field of every field the
               workload names, each start in its own fresh interpreter
  peak_rss_mb  max RSS of the pass process
The three times are in reference seconds: raw seconds corrected for
the host's momentary speed by a reference workload sampled while they
run (see bench/worker.py); the raw medians are on the detail line.  Set-up is
timed in SETUP_STARTS fresh interpreters after one warm-up start (which
also writes bytecode caches); then passes repeat while the next one is
expected to end within --seconds of the start, at least MIN_PASSES.

--trace 1 runs one untraced pass and one traced pass (see
bench/tracing.py) and prints the per-module metrics.  Per-check times
come from the untraced pass; trace.overhead_ratio is traced pass wall
over untraced pass wall.

Correctness: at the pinned seed (bench/pins.json, made by
--write-pins) and the pinned MANIFEST_VERSION, each entry's canonical
JSON must hash to its pinned digest and desk's suite JSON to the
digest of `verolab suite full-desk --out json`.  At any other seed, or
after a deliberate MANIFEST_VERSION bump, every entry must pass: the
laws are theorems.  An entry that raised, did not pass or mismatched
counts as failed.  The last stdout line is the JSON result; the lines
before it give the run context and per-pass detail.

No CPU pinning or frequency control is applied.  On a shared host,
neighbours slow single passes by up to 2x for seconds to tens of seconds at a
time; the reference-seconds correction takes most of that out, and every
end-to-end metric is a median over repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

PINS = os.path.join(HERE, "pins.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_STARTS = 7
MIN_PASSES = 3
SHORT_ENTRIES = 2
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CHECK_IDS = sorted({cid for entries in WORKLOADS.values() for cid, _ in entries})
PER_LAYER = {
    "field.ops": "count", "field.mul_ns": "ns", "field.add_ns": "ns", "field.div_ns": "ns",
    "field.construct_s": "s", "field.scalars": "count",
    "linalg.rref.calls": "count", "linalg.rref.self_s": "s", "linalg.rref.cells": "count",
    "linalg.span.calls": "count", "linalg.span.self_s": "s", "linalg.span.kept_ratio": "ratio",
    "linalg.intersect.calls": "count", "linalg.intersect.self_s": "s",
    "linalg.matmul.calls": "count", "linalg.matmul.self_s": "s",
    "linalg.enumerate.self_s": "s",
    "monomials.self_s": "s",
    "veronese.vector.calls": "count", "veronese.vector.self_s": "s",
    "veronese.subspace.self_s": "s", "veronese.rho.self_s": "s",
    "polyalgebra.poly_mul.calls": "count", "polyalgebra.poly_mul.self_s": "s",
    "polyalgebra.power.self_s": "s", "polyalgebra.product.self_s": "s",
    "independence.search.self_s": "s", "independence.subsets_nominal": "count",
    "independence.us_per_subset": "us",
    "constructions.build.self_s": "s", "constructions.census.self_s": "s",
    "constructions.census.subsets_nominal": "count",
    "vcode.matrix.self_s": "s", "vcode.search.self_s": "s", "vcode.search.subsets_nominal": "count",
    "vcode.verify.self_s": "s",
    "harness.glue.self_s": "s", "harness.budget_exceeded": "count",
    **{f"harness.check.{cid}.s": "s" for cid in CHECK_IDS},
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker(mode: str, workload: str, seed: int, n_entries: int, deadline: float) -> dict:
    """Run bench/worker.py in a fresh interpreter and return its JSON."""
    spec = {"mode": mode, "workload": workload, "seed": seed, "entries": n_entries}
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def judge(workload: str, seed: int, passes: list[dict], pins: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every pass of the run."""
    attempted = failed = 0
    reasons: list[str] = []
    pinned_entries = pins["entries"].get(workload, [])
    for p in passes:
        pinned = seed == pins["seed"] and p["manifest_version"] == pins["manifest_version"]
        for i, rec in enumerate(p["entries"]):
            attempted += 1
            why = None
            if "error" in rec:
                why = rec["error"]
            elif not rec["passed"]:
                why = "did not pass"
            elif pinned and rec["sha256"] != pinned_entries[i]:
                why = "output differs from the pinned output"
            if why:
                failed += 1
                reasons.append(f"entry {i} {rec['check_id']}: {why}")
        if (pinned and workload == "desk" and len(p["entries"]) == len(WORKLOADS["desk"])
                and p.get("suite_sha256") != pins["desk_suite_sha256"]):
            failed += 1
            reasons.append("full-desk suite JSON differs from the pinned digest")
    return attempted, failed, reasons


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def context(args, manifest_version) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "manifest_version": manifest_version,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
        "cpu_pinning": "none: no CPU pinning or frequency control is applied",
    }


def entry_count(args) -> int:
    return SHORT_ENTRIES if args.short else len(WORKLOADS[args.workload])


def measure(args, deadline: float) -> tuple[dict, list[dict], dict]:
    """Untraced run: set-up starts, then passes for args.seconds."""
    n = entry_count(args)
    starts = 1 if args.short else SETUP_STARTS
    t_end = time.monotonic() + args.seconds
    worker("setup", args.workload, args.seed, n, deadline)  # warm-up: bytecode caches
    setups = [worker("setup", args.workload, args.seed, n, deadline) for _ in range(starts)]
    passes = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        passes.append(worker("pass", args.workload, args.seed, n, deadline))
        longest = max(longest, time.monotonic() - t0)
        if args.short or (len(passes) >= MIN_PASSES and time.monotonic() + longest > t_end):
            break
    metrics = {
        "wall_s": statistics.median(p["ref_wall_s"] for p in passes),
        "cpu_s": statistics.median(p["ref_cpu_s"] for p in passes),
        "setup_s": statistics.median(s["ref_setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    detail = {
        "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
        "raw_cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
        "setups": setups,
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s", "peak_rss_mb")}
                   for p in passes],
    }
    return metrics, passes, detail


def trace_metrics(untraced: dict, traced: dict) -> dict:
    t = traced["trace"]
    groups, counts = t["groups"], t["counts"]

    def g(group, key):
        return groups.get(group, {}).get(key, 0)

    m = {
        "field.ops": t["field_ops"],
        "field.mul_ns": t["op_ns"]["mul"],
        "field.add_ns": t["op_ns"]["add"],
        "field.div_ns": t["op_ns"]["div"],
        "field.construct_s": g("field.construct", "self_s"),
        "field.scalars": counts["field.scalars"],
        "linalg.rref.cells": counts["linalg.rref.cells"],
        "linalg.span.kept_ratio": (counts["linalg.span.dim_out"] / counts["linalg.span.rows_in"]
                                   if counts["linalg.span.rows_in"] else 0.0),
        "independence.subsets_nominal": counts["independence.subsets_nominal"],
        "independence.us_per_subset": (g("independence.search", "incl_s") * 1e6
                                       / counts["independence.subsets_nominal"]
                                       if counts["independence.subsets_nominal"] else 0.0),
        "constructions.census.subsets_nominal": counts["constructions.census.subsets_nominal"],
        "vcode.search.subsets_nominal": counts["vcode.search.subsets_nominal"],
        "harness.budget_exceeded": counts["harness.budget_exceeded"],
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
    }
    for name in PER_LAYER:
        if name in m:
            continue
        if name.startswith("harness.check."):
            cid = name[len("harness.check."):-len(".s")]
            m[name] = sum(r["wall_s"] for r in untraced["entries"] if r["check_id"] == cid)
            continue
        group, key = name.rsplit(".", 1)
        m[name] = g(group, "self_s" if key == "self_s" else "calls")
    return m


def write_trace(args, traced: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}{'-short' if args.short else ''}.json")
    doc = {"workload": args.workload, "seed": args.seed, "groups": traced["trace"]["groups"],
           "op_counts": traced["trace"]["op_counts"], "entries": traced["entries"]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path


def write_pins(deadline: float) -> None:
    """Pin every entry's canonical output at the harness's default seed."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from verolab.harness import DEFAULT_SEED

    pins = {"seed": DEFAULT_SEED, "entries": {}}
    for name, entries in WORKLOADS.items():
        p = worker("pass", name, DEFAULT_SEED, len(entries), deadline)
        bad = [r for r in p["entries"] if not r.get("passed")]
        if bad:
            raise BenchError(f"{name}: cannot pin failing entries {bad}")
        pins["manifest_version"] = p["manifest_version"]
        pins["entries"][name] = [r["sha256"] for r in p["entries"]]
        if name == "desk":
            pins["desk_suite_sha256"] = p["suite_sha256"]
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="workload seed (default: the pinned seed)")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help=f"self-test mode: first {SHORT_ENTRIES} entries, one set-up start, one pass")
    ap.add_argument("--write-pins", action="store_true",
                    help="re-pin every entry's output at the default seed, then exit")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "verolab", "__init__.py")):
        print(f"error: no verolab sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.write_pins:
            write_pins(deadline)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        pins = load_pins()
        if args.seed is None:
            args.seed = pins["seed"]
        if args.trace:
            n = entry_count(args)
            untraced = worker("pass", args.workload, args.seed, n, deadline)
            traced = worker("trace", args.workload, args.seed, n, deadline)
            passes = [untraced, traced]
            metrics = trace_metrics(untraced, traced)
            units = PER_LAYER
            detail = {"trace_file": os.path.relpath(write_trace(args, traced), ROOT)}
        else:
            metrics, passes, detail = measure(args, deadline)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, reasons = judge(args.workload, args.seed, passes, pins)
    detail.update(failed_ratio=failed / attempted, failures=reasons[:20])
    print(json.dumps({"context": context(args, passes[0]["manifest_version"])}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
