"""Check registry, hypothesis gating, reproducibility, CLI."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from verolab import UnknownCheck, parse_family_text, run_check, run_suite
from verolab.harness import CHECK_REGISTRY, SUITES, result_to_json, suite_to_json

EXPECTED_IDS = {
    "T1_1", "T1_1_SHARP", "T1_2", "T2_3", "L2_4", "RHO", "ITERATE", "SIGMA",
    "T1_3", "T3_3", "T3_4", "T1_4", "L4", "P5_2", "C5_3", "P5_4", "T5_1",
    "T6_1", "EQ_GDA", "P6_2", "T6_IK", "L6_4", "L6_5", "P6_6", "EX10",
    "DERIVED_GDA", "EXPLORE_SPREAD_R", "VCODE",
}


def test_registry_is_complete():
    assert set(CHECK_REGISTRY) == EXPECTED_IDS


def test_run_check_basic_pass():
    res = run_check("T1_1", {"field": "F3", "n": 2, "d": 2})
    assert res.hypothesis_ok and res.conclusion_ok and res.mode == "exhaustive"
    assert res.witness is None


def test_run_check_nonregular_boundary():
    res = run_check("P6_2", {"field": "F2", "n": 3, "d": 4})
    assert res.conclusion_ok and res.data["boundary_nonregular"] is True


def test_hypothesis_gating_small_characteristic():
    res = run_check("T1_3", {"field": "F2", "n": 2, "d": 2})
    assert not res.hypothesis_ok and res.conclusion_ok is None


def test_hypothesis_gating_falling_factorial():
    res = run_check("T1_4", {"field": "F2", "k": 2, "d": 2, "r": 2, "e": 1})
    assert not res.hypothesis_ok
    assert res.passed  # gated checks count as passing


def test_hypothesis_gating_sigma():
    res = run_check("SIGMA", {"field": "F2", "n": 2, "d": 2})
    assert not res.hypothesis_ok


def test_unknown_check_and_suite():
    with pytest.raises(UnknownCheck):
        run_check("NOPE")
    with pytest.raises(UnknownCheck):
        run_suite("nope")


def test_budget_exceeded_propagates():
    from verolab import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        run_check("T1_1", {"field": "F5", "n": 3, "d": 3}, budget=5)


def test_cli_reports_budget_errors_cleanly():
    out = _cli("check", "T1_1", "--field", "F5", "--n", "3", "--d", "3", "--budget", "5")
    assert out.returncode == 2
    assert out.stdout == "" and out.stderr.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("VCODE", "--field", "F3", "--n", "3", "--d", "2", "--wmax", "0"),  # nothing to search
    ("T5_1", "--field", "F3", "--k", "2", "--d", "2", "--r", "1"),  # r below 2
    ("T1_1", "--field", "F3", "--n", "2", "--d", "-1"),  # negative degree
    ("L2_4", "--field", "F3", "--n", "1", "--d", "2"),  # K^1 has no two nonzero parts
    ("P5_2", "--field", "F3", "--n", "1", "--d", "2"),
    ("ITERATE", "--field", "Q"),  # K^n cannot be enumerated
    ("T1_1_SHARP", "--field", "Q", "--n", "3", "--d", "2"),  # nor the points of a 2-space
    ("T3_3", "--field", "Q", "--n", "2", "--d", "4", "--r", "3"),  # nor PG(n-1, K)
    ("T1_1", "--field", "F1099511627776", "--n", "2", "--d", "2"),  # q above 2^16
])
def test_cli_reports_bad_params_cleanly(argv):
    out = _cli("check", *argv)
    assert out.returncode == 2
    assert out.stdout == "" and out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


def test_iterate_over_q_raises_instead_of_passing_vacuously():
    from verolab import InfiniteField

    with pytest.raises(InfiniteField):
        run_check("ITERATE", {"field": "Q", "n": 2, "d": 2, "e": 2})


def test_explore_reports_value_without_asserting():
    res = run_check("EXPLORE_SPREAD_R", {"field": "F2", "k": 2, "d": 2})
    assert res.conclusion_ok and res.data["max_independence"] == 3


def test_single_check_json_reproducible():
    a = run_check("T6_1", {"field": "F2", "n": 3, "d": 2})
    b = run_check("T6_1", {"field": "F2", "n": 3, "d": 2})
    assert result_to_json(a) == result_to_json(b)
    with_timing = json.loads(result_to_json(a, with_timing=True))
    assert "wall_time_ms" in with_timing


def test_sampled_checks_reproducible_per_seed():
    a = run_check("C5_3", {"field": "F2", "n": 4, "d": 2, "trials": 30}, seed=5)
    b = run_check("C5_3", {"field": "F2", "n": 4, "d": 2, "trials": 30}, seed=5)
    assert result_to_json(a) == result_to_json(b)
    assert a.mode == "sampled(seed=5,trials=30)"


@pytest.mark.parametrize("check_id", sorted(EXPECTED_IDS))
def test_every_check_passes_at_default_params(check_id):
    res = run_check(check_id)
    assert res.passed, (check_id, res.witness, res.data)
    if res.conclusion_ok is not False:
        assert res.witness is None  # witnesses accompany conclusion failures only
    if not res.hypothesis_ok:
        assert res.conclusion_ok is None


def test_smoke_suite_passes_within_budget():
    import time

    t0 = time.time()
    results, code = run_suite("smoke")
    elapsed = time.time() - t0
    assert code == 0
    assert len(results) == len(SUITES["smoke"])
    assert all(r.passed for r in results)
    assert elapsed <= 60


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "verolab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_check_json():
    out = _cli("check", "T1_1", "--field", "F3", "--n", "2", "--d", "2", "--out", "json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["check_id"] == "T1_1" and doc["conclusion_ok"] is True
    assert "wall_time_ms" in doc


def test_cli_check_text_failure_exit_code():
    # a hypothesis-gated check exits 0
    out = _cli("check", "T1_3", "--field", "F2", "--n", "2", "--d", "2")
    assert out.returncode == 0
    assert "hypothesis-not-met" in out.stdout


def test_cli_construct_round_trips():
    out = _cli("construct", "spread", "--field", "F2", "--k", "2")
    assert out.returncode == 0
    fam = parse_family_text(out.stdout)
    assert len(fam) == 5 and all(s.dim == 2 for s in fam)
    out2 = _cli("construct", "dual-arc-ad", "--field", "F2", "--n", "3", "--d", "2")
    fam2 = parse_family_text(out2.stdout)
    assert len(fam2) == 7 and all(s.dim == 3 for s in fam2)


def test_cli_vcode_json():
    out = _cli("vcode", "--n", "2", "--d", "2", "--field", "F3", "--wmax", "4")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["M"] == 4 and doc["N"] == 3 and doc["min_weight"] == 4
    assert doc["rank"] == 3
    assert doc["supports"][0]["indices"] == [0, 1, 2, 3]
    assert doc["supports"][0]["source_rank"] == 2


def test_suite_json_has_no_timing_by_default():
    results, _ = run_suite("smoke")
    doc = json.loads(suite_to_json("smoke", results))
    assert all("wall_time_ms" not in r for r in doc["results"])
    assert doc["manifest_version"] >= 1
