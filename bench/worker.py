"""One fresh interpreter of the benchmark: set-up only, one timed pass, or
one traced pass.  Started by run.py; prints one JSON line on stdout.

    python3 bench/worker.py '{"mode": "pass", "workload": "desk", "seed": 1, "entries": 62}'

Modes:
  setup  time `import verolab` plus parse_field of every field the
         workload names, from a fresh interpreter.
  pass   set up (untimed), then time one pass over the entries: wall
         and process CPU seconds, verdicts, peak RSS.
  trace  the same pass with every module traced (see tracing.py), then
         time the raw field ops of each field the pass used.

Host-speed correction.  On a shared host the CPU runs the same code up
to 2x slower for seconds to tens of seconds at a time while neighbours
are busy, which no median over a 25 s run can hide.  So while set-up or
a pass is timed, a SpeedSampler times reference_work() (fixed
interpreter work that touches no verolab code) from a timer signal every
SAMPLE_EVERY_S, and once at the start and the end.  The handler's own
time is taken out of every timed stretch.  A stretch of raw seconds is
rescaled by REFERENCE_S times the mean of 1 / (reference sample), giving
"reference seconds": what the stretch would take on a host where
reference_work() takes REFERENCE_S.  Raw seconds are reported beside
them.  The reference work never calls into verolab, so a change to
verolab moves reference seconds just as it moves raw seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, fields_of


# A fixed constant near reference_work()'s time on the 2-vCPU Intel Xeon
# host the benchmark was tuned on (3.5 to 4.5 ms), so that reference
# seconds read close to raw seconds there and stay comparable between
# runs and commits.
REFERENCE_S = 0.004
SAMPLE_EVERY_S = 0.1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_work() -> int:
    """Fixed pure-interpreter work of the kind verolab does most: small
    polynomials over Z/5 multiplied coefficient by coefficient, added
    through zip, and packed into an integer index.  Imports nothing, so
    it leaves set-up timing alone."""
    acc = 0
    for i in range(1000):
        a = (i % 5, (i >> 1) % 5, (i >> 2) % 5, 1)
        b = (i % 3, 2, (i >> 3) % 5)
        out = [0] * 7
        for x, ax in enumerate(a):
            for y, by in enumerate(b):
                out[x + y] = (out[x + y] + ax * by) % 5
        acc += sum(c * 5**k for k, c in enumerate(out)) & 1023
        acc += len(tuple((u + v) % 5 for u, v in zip(a, b)))
    return acc


class SpeedSampler:
    """Times reference_work() every SAMPLE_EVERY_S of wall time from a
    SIGALRM handler, which Python runs between bytecodes of whatever
    verolab code is executing, so long entries are sampled throughout."""

    def __init__(self):
        self.inverse = []  # 1 / (wall seconds of each sample)
        self.spent_wall = 0.0  # time inside the handler, to take out
        self.spent_cpu = 0.0

    def sample(self, *_):
        w0, c0 = time.perf_counter(), time.process_time()
        reference_work()
        w, c = time.perf_counter() - w0, time.process_time() - c0
        self.inverse.append(1.0 / w)
        self.spent_wall += w
        self.spent_cpu += c

    def __enter__(self):
        reference_work()  # warm-up
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def clocks(self) -> tuple[float, float]:
        """(wall, CPU) clocks that stand still while the handler runs."""
        return time.perf_counter() - self.spent_wall, time.process_time() - self.spent_cpu

    def to_reference(self, seconds: float) -> float:
        return seconds * REFERENCE_S * sum(self.inverse) / len(self.inverse)


class RawClock:
    """Raw clocks only: traced passes are not speed-corrected."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def clocks(self) -> tuple[float, float]:
        return time.perf_counter(), time.process_time()


def run_entries(entries, seed, clock, tracer=None):
    """Run each entry after the previous one returns.  Returns the raw
    wall and CPU seconds of the pass, read from clock, and one record per
    entry."""
    from verolab.harness import result_to_json, run_check

    records = []
    results = []
    wall = cpu = 0.0
    for check_id, params in entries:
        before = tracer.snapshot() if tracer else None
        t0, c0 = clock.clocks()
        try:
            res = run_check(check_id, dict(params), seed=seed)
        except Exception as exc:  # a failed entry is counted, the pass goes on
            res = f"{type(exc).__name__}: {exc}"
        t1, c1 = clock.clocks()
        rec = {"check_id": check_id, "wall_s": t1 - t0}
        if tracer:
            rec["groups"] = tracer.delta(before, tracer.snapshot())
        wall += t1 - t0
        cpu += c1 - c0
        results.append(res)
        records.append(rec)
    for rec, res in zip(records, results):
        if isinstance(res, str):
            rec.update(passed=False, error=res)
        else:
            rec.update(passed=res.passed, sha256=digest(result_to_json(res)))
    return wall, cpu, records, results


def main() -> int:
    spec = json.loads(sys.argv[1])
    entries = WORKLOADS[spec["workload"]][: spec["entries"]]
    seed = spec["seed"]
    sys.path.insert(0, os.path.join(ROOT, "src"))

    tracer = None
    if spec["mode"] == "trace":
        import verolab  # noqa: F401  (tracing must see every module loaded)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    with RawClock() if tracer else SpeedSampler() as clock:
        t_setup = clock.clocks()[0]
        from verolab.field import parse_field

        for name in fields_of(entries):
            parse_field(name)
        setup = clock.clocks()[0] - t_setup
    out = {"setup_s": setup}
    if not tracer:
        out["ref_setup_s"] = clock.to_reference(setup)
    if spec["mode"] == "setup":
        print(json.dumps(out))
        return 0

    from verolab.harness import MANIFEST_VERSION, suite_to_json

    with RawClock() if tracer else SpeedSampler() as clock:
        wall, cpu, records, results = run_entries(entries, seed, clock, tracer)
    out.update(wall_s=wall, cpu_s=cpu)
    if not tracer:
        out.update(ref_wall_s=clock.to_reference(wall), ref_cpu_s=clock.to_reference(cpu))
    out.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        manifest_version=MANIFEST_VERSION,
        entries=records,
    )
    if spec["workload"] == "desk" and not any(isinstance(r, str) for r in results):
        # the bytes `verolab suite full-desk --out json` prints
        out["suite_sha256"] = digest(suite_to_json("full-desk", results) + "\n")
    if tracer:
        from tracing import time_field_ops

        out["trace"] = {
            "groups": tracer.totals(),
            "counts": dict(tracer.counts),
            "field_ops": tracer.field_op_total(),
            "op_counts": {f: {op: c[0] for op, c in ops.items()} for f, ops in tracer.op_counts.items()},
            "op_ns": time_field_ops(tracer, seed),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
