"""Self-tests of the benchmark itself (not of verolab).

    python3 -m pytest -q bench/test_bench.py

They run the benchmark in its short mode (first entries of a workload,
one set-up start, one pass), so the whole file takes about a minute.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from tracing import lex_rank  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# An entry's group self times telescope to its root span's duration; the
# worker's clock around run_check adds only the root wrapper's own cost.
SELF_TIME_TOLERANCE = 0.01  # share of the entry's traced wall
SELF_TIME_SLACK_S = 0.0005


def bench(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def short_run(workload: str, trace: int, seed: int = 7) -> dict:
    code, lines = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--short")
    assert code == 0
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_mode_emits_every_metric_with_its_unit(workload, trace):
    result = short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly_across_traced_runs(workload):
    first, second = (short_run(workload, 1)["metrics"] for _ in range(2))
    counts = [name for name, unit in run.PER_LAYER.items() if unit == "count"]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_entry_self_times_sum_to_its_traced_wall():
    deadline = time.monotonic() + 120
    traced = run.worker("trace", "rational", 7, 3, deadline)
    for rec in traced["entries"]:
        total = sum(g["self_s"] for g in rec["groups"].values())
        assert abs(total - rec["wall_s"]) <= SELF_TIME_TOLERANCE * rec["wall_s"] + SELF_TIME_SLACK_S


def test_reference_work_reads_reference_s_in_reference_seconds():
    # The correction's defining property, whatever the host's speed.
    calls = 200
    with worker.SpeedSampler() as sampler:
        t0 = sampler.clocks()[0]
        for _ in range(calls):
            worker.reference_work()
        elapsed = sampler.clocks()[0] - t0
    assert len(sampler.inverse) >= 3
    per_call = sampler.to_reference(elapsed) / calls
    assert abs(per_call - worker.REFERENCE_S) <= 0.1 * worker.REFERENCE_S


def test_lex_rank_is_the_combinations_order():
    for n, r in ((6, 3), (7, 2), (5, 5)):
        for rank, combo in enumerate(itertools.combinations(range(n), r)):
            assert lex_rank(combo, n) == rank


def test_pinned_desk_digest_is_the_cli_suite_output():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-m", "verolab.cli", "suite", "full-desk", "--out", "json"],
        cwd=ROOT, env=env, capture_output=True, timeout=170, check=True,
    ).stdout
    assert run.load_pins()["desk_suite_sha256"] == hashlib.sha256(out).hexdigest()


def test_benchmark_json_names_what_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_pins_cover_every_entry():
    pins = run.load_pins()
    assert {name: len(entries) for name, entries in WORKLOADS.items()} == {
        name: len(digests) for name, digests in pins["entries"].items()}


def test_fails_without_a_result_where_there_are_no_sources():
    bare = os.path.join(run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
