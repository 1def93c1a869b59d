"""Check registry, hypothesis gating, reproducibility, CLI."""

from __future__ import annotations

import hashlib
import inspect
import json
import re
import resource
import subprocess
import sys
from unittest import mock

import pytest

from verolab import UnknownCheck, parse_family_text, parse_field, run_check, run_suite, veronese_vector
from verolab import harness
from verolab.harness import CHECK_REGISTRY, SUITES, result_to_json, suite_to_json

EXPECTED_IDS = {
    "T1_1", "T1_1_SHARP", "T1_2", "T2_3", "L2_4", "RHO", "ITERATE", "SIGMA",
    "T1_3", "T3_3", "T3_4", "T1_4", "L4", "P5_2", "C5_3", "P5_4", "T5_1",
    "T6_1", "EQ_GDA", "P6_2", "T6_IK", "L6_4", "L6_5", "P6_6", "EX10",
    "DERIVED_GDA", "EXPLORE_SPREAD_R", "VCODE",
}


def test_registry_is_complete():
    assert set(CHECK_REGISTRY) == EXPECTED_IDS


@pytest.mark.parametrize("check_id", sorted(EXPECTED_IDS))
def test_every_body_takes_its_declared_parameters(check_id):
    check = CHECK_REGISTRY[check_id]
    assert list(inspect.signature(check.body).parameters) == ["f", "seed", "budget", *check.params]


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


def test_budget_refusal_names_the_check():
    from verolab import BudgetExceeded

    with pytest.raises(BudgetExceeded) as info:
        run_check("T1_1", {"field": "F16", "n": 3, "d": 3})
    assert info.value.check == "T1_1"
    assert info.value.needed == 226387980


def test_cli_reports_budget_errors_cleanly():
    out = _cli("check", "T1_1", "--field", "F5", "--n", "3", "--d", "3", "--budget", "5")
    assert out.returncode == 2
    assert out.stdout == "" and out.stderr.startswith("error:")


@pytest.mark.parametrize("budget", [0, -1])
def test_run_check_refuses_a_budget_below_one_before_building(budget):
    from verolab import BadParams

    for check_id, params in (("T1_1", {"field": "F3"}), ("C5_3", {"field": "F2", "trials": 2})):
        body = mock.Mock(side_effect=AssertionError("the body ran"))
        check = harness.CHECK_REGISTRY[check_id]
        with mock.patch.dict(harness.CHECK_REGISTRY, {check_id: check._replace(body=body)}):
            with pytest.raises(BadParams, match=rf"^budget must be >= 1, got {budget}$"):
                run_check(check_id, params, budget=budget)
        body.assert_not_called()


@pytest.mark.parametrize("field", ["F2", "F3", "Q"])
@pytest.mark.parametrize("s", [1, 2])
def test_p5_4_at_degree_one_meets_in_the_diagonal(field, s):
    # x -> x^1 is additive in every field, so the diagonal lies in the sum of the blocks
    res = run_check("P5_4", {"field": field, "d": 1, "r": 2, "s": s})
    assert res.hypothesis_ok and res.conclusion_ok
    assert res.data["intersection_dim"] == s and res.data["p_power_branch"] is True


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
    ("C5_3", "--field", "F2", "--n", "40", "--d", "8", "--trials", "1"),  # Sym^8 of K^40 over budget
    ("L6_4", "--n", "4", "--k", "5"),  # no 5-space in K^4 (this hung)
    ("L4", "--n", "1"),
    ("L4", "--r", "5"),  # r > d
    ("T1_4", "--r", "5"),
    ("T6_IK", "--k", "0"),
    ("T6_IK", "--d", "1", "--k", "2"),  # k > d
    ("P6_6", "--k", "0"),
    ("T6_1", "--d", "1"),
    ("DERIVED_GDA", "--d", "1"),
    ("L2_4", "--trials", "-1"),  # fewer than one trial
    ("SIGMA", "--field", "Q", "--trials", "0"),
    ("RHO", "--field", "F5", "--n", "2", "--d", "3", "--trials", "0"),
    ("T5_1", "--d", "0"),  # this hung
    ("T1_2", "--field", "Q"),  # a spread needs a finite field
    ("T1_1", "--k", "7"),  # T1_1 takes no k
    ("T1_1", "--s", "2"),
    ("P5_4", "--trials", "3"),
    ("T1_3", "--field", "Q", "--n", "2", "--d", "40"),  # 41 of 40 drawable lines (this hung)
    ("T1_3", "--field", "Q", "--n", "3", "--d", "60", "--trials", "1"),  # 7,036,411 cell updates
    ("T2_3", "--field", "F2", "--k", "20"),  # 2^20 + 1 spread members over budget (this hung)
    ("T1_1", "--field", "F3", "--budget", "-1"),  # printed "exceed budget -1"
    ("C5_3", "--field", "F2", "--trials", "2", "--budget", "-1"),  # passed with exit 0
    ("T1_1", "--field", "F3", "--budget", "0"),
])
def test_cli_reports_bad_params_cleanly(argv):
    out = _cli("check", *argv)
    assert out.returncode == 2
    assert out.stdout == "" and out.stderr.startswith("error:") and out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr


def test_t1_3_over_q_draws_at_most_the_lines_it_can_reach():
    from verolab import BadParams

    res = run_check("T1_3", {"field": "Q", "n": 2, "d": 39, "trials": 1})  # all 40 lines
    assert res.hypothesis_ok and res.conclusion_ok
    with pytest.raises(BadParams):
        run_check("T1_3", {"field": "Q", "n": 3, "d": 577})  # K^3 has 577 of them


def test_t1_3_over_q_bounds_its_reduction():
    from verolab import BudgetExceeded

    with pytest.raises(BudgetExceeded, match=r"^7036411 cell updates per trial to reduce 61 powers of 1891"
                                             r" coefficients exceed budget 1000000$"):
        run_check("T1_3", {"field": "Q", "n": 3, "d": 60, "trials": 1})
    res = run_check("T1_3", {"field": "Q", "n": 4, "d": 12, "trials": 1})  # 169 * 455 cells
    assert res.hypothesis_ok and res.conclusion_ok


@pytest.mark.parametrize("check_id,params,profile", [
    ("T6_1", {"field": "F2", "n": 2, "d": 4}, [4, 3, 2, -1, -1]),
    ("T6_1", {"field": "F3", "n": 2, "d": 5}, [5, 4, 3, 2, -1, -1]),
    ("T6_IK", {"field": "F2", "n": 2, "d": 4, "k": 1}, [4, 3, 2, -1, -1]),
    ("DERIVED_GDA", {"field": "F2", "n": 2, "d": 4}, [3, 2, -1, -1]),
])
def test_dual_arc_levels_without_subsets_do_not_fail(check_id, params, profile):
    res = run_check(check_id, params)
    assert res.hypothesis_ok and res.conclusion_ok and res.witness is None
    assert res.data["profile"] == profile


@pytest.mark.parametrize("check_id", ["T1_1", "T3_3", "T3_4"])
def test_point_family_laws_on_one_point_pass_vacuously(check_id):
    res = run_check(check_id, {"n": 1})
    assert res.hypothesis_ok and res.conclusion_ok
    assert res.data == {"points": 1, "vacuous": True}


def test_iterate_over_q_raises_instead_of_passing_vacuously():
    from verolab import InfiniteField

    with pytest.raises(InfiniteField):
        run_check("ITERATE", {"field": "Q", "n": 2, "d": 2, "e": 2})


@pytest.mark.parametrize("q,n,d,e,at", [
    (2, 2, 2, 2, (1, 1)), (3, 2, 2, 2, (0, 2)), (3, 3, 2, 3, (2, 0, 1)), (4, 2, 3, 2, (3, 1)),
])
def test_iterate_reports_the_vector_where_the_composition_fails(q, n, d, e, at):
    # v_de with its last coordinate raised by one at the nonzero vector at:
    # v_e(v_d(at)) no longer folds onto it, and no other vector fails
    f = parse_field(f"F{q}")

    def vec(t, deg):
        v = list(veronese_vector(t, deg))
        if deg == d * e and tuple(s.v for s in t) == at:
            v[-1] += f.one()
        return tuple(v)

    assert run_check("ITERATE", {"field": f"F{q}", "n": n, "d": d, "e": e}).conclusion_ok
    with mock.patch.object(harness, "veronese_vector", vec):
        res = run_check("ITERATE", {"field": f"F{q}", "n": n, "d": d, "e": e})
    assert res.hypothesis_ok and res.conclusion_ok is False
    assert res.witness == {"t": list(at)}


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


ADDRESS_SPACE_CAP = 2 * 10 ** 9  # bytes; a command that builds what its budget should refuse fails fast


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def _cli(*argv, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "verolab.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_cap_address_space,
    )


def test_cli_check_json():
    out = _cli("check", "T1_1", "--field", "F3", "--n", "2", "--d", "2", "--out", "json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["check_id"] == "T1_1" and doc["conclusion_ok"] is True
    assert "wall_time_ms" in doc


def test_cli_degree_one_runs_without_a_warning():
    # veronese_vector warned on n < 2 or d < 2, parameters the registry allows
    out = _cli("check", "T1_1", "--field", "F3", "--n", "2", "--d", "1")
    assert out.returncode == 0 and out.stderr == ""


def test_cli_check_text_failure_exit_code():
    # a hypothesis-gated check exits 0
    out = _cli("check", "T1_3", "--field", "F2", "--n", "2", "--d", "2")
    assert out.returncode == 0
    assert "hypothesis-not-met" in out.stdout


def test_python_dash_m_verolab_runs_the_cli():
    out = subprocess.run(
        [sys.executable, "-m", "verolab", "check", "T1_1", "--field", "F3", "--n", "2", "--d", "2", "--out", "json"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["check_id"] == "T1_1" and doc["conclusion_ok"] is True


def test_cli_exits_quietly_when_the_reader_closes_stdout():
    # about 174 KB of fixture text, more than a pipe holds, so the writer
    # is still printing when the reader goes
    proc = subprocess.Popen(
        [sys.executable, "-m", "verolab", "construct", "spread", "--field", "F64", "--k", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first == b"field=F64 ambient=4\n"
    assert err == b""
    assert code == 141


def test_cli_construct_round_trips():
    out = _cli("construct", "spread", "--field", "F2", "--k", "2")
    assert out.returncode == 0
    fam = parse_family_text(out.stdout)
    assert len(fam) == 5 and all(s.dim == 2 for s in fam)
    out2 = _cli("construct", "dual-arc-ad", "--field", "F2", "--n", "3", "--d", "2")
    fam2 = parse_family_text(out2.stdout)
    assert len(fam2) == 7 and all(s.dim == 3 for s in fam2)


@pytest.mark.parametrize("argv", [
    ("construct", "wedge", "--field", "F2", "--m", "2"),
    ("construct", "dual-arc-ik", "--field", "F2", "--n", "2", "--d", "1", "--k", "2"),
    ("construct", "spread", "--field", "F2"),  # --k missing
    ("construct", "rnc", "--field", "F3"),  # --d missing
    ("construct", "dual-arc-ad", "--field", "F3", "--d", "2"),  # --n missing
    ("construct", "conic", "--field", "Q"),  # this printed a one-point conic
    ("construct", "ovoid", "--field", "Q"),  # these two ended in an AssertionError
    ("construct", "spread", "--field", "Q", "--k", "2"),
    ("construct", "hyperoval", "--field", "Q"),
    ("construct", "spread", "--field", "F2", "--k", "0"),  # these three ended in a ValueError
    ("construct", "spread", "--field", "F2", "--k", "-1"),
    ("construct", "dual-arc-ik", "--field", "F2", "--n", "0", "--d", "2", "--k", "1"),
    ("construct", "spread", "--field", "F2", "--k", "20"),  # 2^20 + 1 members over budget
    ("construct", "spread", "--field", "F3", "--k", "1000000000"),  # without forming 3^k
    ("construct", "rnc", "--field", "F3", "--d", "0"),  # printed q + 1 copies of one point
])
def test_cli_construct_reports_bad_params_cleanly(argv):
    out = _cli(*argv)
    assert out.returncode == 2
    assert out.stdout == "" and out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    # before their work was budgeted, six of these still ran at 30 s and two took 15-20 s
    ("check", "ITERATE", "--field", "F7", "--n", "8", "--d", "2", "--e", "2"),  # 7^8 vectors
    ("check", "ITERATE", "--field", "F65536", "--n", "2", "--d", "2", "--e", "2"),  # 65536^2 vectors
    ("construct", "ovoid", "--field", "F31"),  # C(962, 3) triples to validate
    ("construct", "spread", "--field", "F997", "--k", "2"),  # 994,010 members of 2 x 4 entries
    ("construct", "spread", "--field", "F7", "--k", "6"),  # 117,650 members of 6 x 12 entries
    ("construct", "wedge", "--field", "F3", "--m", "12"),  # 265,720 members of 12 x 66 entries
    ("construct", "dual-arc-ad", "--field", "F2", "--n", "8", "--d", "4"),  # 255 members of 120 x 330
    ("check", "L6_4", "--field", "F2", "--n", "60", "--k", "30", "--trials", "1"),  # 60 x 30 products of 1830
])
def test_cli_stops_unbounded_work_at_its_budget(argv):
    out = _cli(*argv, timeout=30)
    assert out.returncode == 2
    assert out.stdout == "" and out.stderr.startswith("error:") and "budget" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    # these listed every coordinate first: ITERATE passed in about 10 s, SIGMA ran out of memory
    ("check", "ITERATE", "--field", "F2", "--n", "4", "--d", "4", "--e", "4"),  # 2^4 x N(35, 4) = 1,181,040
    ("check", "SIGMA", "--field", "F5", "--n", "30", "--d", "10", "--trials", "1"),  # N(30, 10) = 635,745,396
    # these built every member first: the check exited 2 after 7.4 s, the construction printed them in 14.6 s
    ("check", "T6_IK", "--field", "F3", "--n", "3", "--d", "6", "--k", "3"),  # 25,533 members of 10 x 28
    ("construct", "dual-arc-ik", "--field", "F3", "--n", "3", "--d", "6", "--k", "3"),
    # these formed the power they were meant to bound, and ran past 20 s
    ("check", "T6_IK", "--field", "F2", "--n", "200", "--d", "6", "--k", "6"),  # 2^C(205, 6) candidates
    ("check", "ITERATE", "--field", "F2", "--n", "20000000000", "--d", "2", "--e", "2"),  # 2^n vectors
    # these built an n x n identity first: three ended in a MemoryError after 13-17 s, P5_2 ran past 20 s
    ("check", "T1_1", "--field", "F2", "--n", "20000", "--d", "2"),
    ("check", "RHO", "--field", "F2", "--n", "20000", "--d", "1"),
    ("check", "L6_4", "--field", "F2", "--n", "20000", "--k", "2", "--trials", "1"),
    ("check", "P5_2", "--field", "F2", "--n", "3000", "--d", "2", "--trials", "1"),
    # these drew a random dim x n matrix first, and ran past 20 s
    ("check", "C5_3", "--field", "F2", "--n", "20000", "--d", "2", "--trials", "1"),
    ("check", "L2_4", "--field", "F2", "--n", "3000", "--d", "2", "--trials", "1"),
    # these formed C(n + d - 1, d) first: the first three printed a ValueError traceback (its digits
    # pass the int-to-str limit) after 0.9 s, the last two ran past 30 s
    ("check", "ITERATE", "--field", "F2", "--n", "100000", "--d", "100000", "--e", "2"),
    ("check", "SIGMA", "--field", "F5", "--n", "100000", "--d", "100000", "--trials", "1"),
    ("check", "T1_3", "--field", "Q", "--n", "100000", "--d", "100000", "--trials", "1"),
    ("check", "ITERATE", "--field", "F2", "--n", "3000000", "--d", "3000000", "--e", "2"),
    ("check", "SIGMA", "--field", "F5", "--n", "3000000", "--d", "3000000", "--trials", "1"),
    # these listed I_k before counting it, and exited 2 after 0.9-1.4 s
    ("check", "T6_IK", "--field", "F2", "--n", "5", "--d", "3", "--k", "2"),  # |I_2| = 32,302
    ("check", "T6_IK", "--field", "F3", "--n", "3", "--d", "6", "--k", "3"),
    # this formed 11^n to count the drawable lines, and exited 2 after 26-29 s
    ("check", "T1_3", "--field", "Q", "--n", "10000000", "--d", "2", "--trials", "1"),
    # these listed every exponent tuple (the first) or built an N x N diagonal (the others), and ended in
    # a MemoryError after 3-19 s; each lists more than 10^6 exponent entries
    ("check", "SIGMA", "--field", "F5", "--n", "1000", "--d", "2"),  # 500,500 tuples of 1,000
    ("check", "SIGMA", "--field", "Q", "--n", "3", "--d", "1000", "--trials", "1"),  # 501,501 tuples of 3
    ("check", "SIGMA", "--field", "F1009", "--n", "3", "--d", "1000"),
])
def test_cli_refuses_oversized_coordinate_lists_at_once(argv):
    out = _cli(*argv, timeout=5)
    assert out.returncode == 2 and out.stdout == ""
    # one line: the needed count, the quantity, the allowed count
    assert re.fullmatch(r"error: \d\S* .+ exceed budget \d+\n", out.stderr)


@pytest.mark.parametrize("argv", [
    # enumerate_exponents recursed once per variable: each ended in a RecursionError traceback
    ("check", "SIGMA", "--field", "Q", "--n", "2000", "--d", "1", "--trials", "1"),
    ("check", "SIGMA", "--field", "F5", "--n", "1500", "--d", "1"),
    ("check", "T1_3", "--field", "Q", "--n", "1500", "--d", "1", "--trials", "1"),
])
def test_cli_runs_many_variables_without_a_traceback(argv):
    out = _cli(*argv, timeout=60)
    assert out.returncode in (0, 2)
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    ("--n", "-1", "--d", "2", "--field", "F3", "--wmax", "3"),  # this printed an empty report
    ("--n", "1", "--d", "2", "--field", "F3", "--wmax", "3"),
    ("--n", "2", "--d", "0", "--field", "F3", "--wmax", "3"),
    ("--n", "2", "--d", "2", "--field", "F3", "--wmax", "0"),
    ("--n", "2", "--d", "2", "--field", "Q", "--wmax", "3"),
])
def test_cli_vcode_applies_the_vcode_check_bounds(argv):
    out = _cli("vcode", *argv)
    assert out.returncode == 2
    assert out.stdout == "" and out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


def test_cli_check_flags_come_from_the_registry():
    # --s is P5_4's s, never an abbreviation of --seed
    doc = json.loads(_cli("check", "P5_4", "--s", "3", "--out", "json").stdout)
    assert doc["params"]["s"] == 3 and doc["conclusion_ok"] is True
    assert doc["data"] == {"intersection_dim": 3, "p_power_branch": True}
    abbreviated = _cli("check", "T1_1", "--se", "3")
    assert abbreviated.returncode == 2 and "Traceback" not in abbreviated.stderr
    # --powerpoints reaches the powerpoint code, and the JSON matches the API
    for field in ("F5", "F2"):
        params = {"field": field, "n": 2, "d": 2, "wmax": 4, "powerpoints": True}
        out = _cli("check", "VCODE", "--field", field, "--n", "2", "--d", "2", "--wmax", "4",
                   "--powerpoints", "--out", "json")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        del doc["wall_time_ms"]
        assert doc == json.loads(result_to_json(run_check("VCODE", params)))
        assert doc["params"]["powerpoints"] is True


def test_run_check_validates_params_before_running():
    from verolab import BadParams, InfiniteField

    for check_id, params in [
        ("T1_1", {"k": 7}),  # undeclared
        ("T1_1", {"n": "2"}),  # not an int
        ("T1_1", {"n": True}),
        ("VCODE", {"powerpoints": 1}),  # not a bool
        ("L6_4", {"n": 4, "k": 5}),  # above another parameter
        ("T1_1", {"field": 3}),
    ]:
        with pytest.raises(BadParams):
            run_check(check_id, params)
    for check_id in ("T1_2", "T2_3", "T1_4", "T5_1", "L6_5", "P6_6", "EXPLORE_SPREAD_R", "VCODE"):
        with pytest.raises(InfiniteField):
            run_check(check_id, {"field": "Q"})
    # the error names the rule and the values that broke it
    with pytest.raises(BadParams, match=r"L6_4 needs 1 <= k <= n, got k = 5, n = 4"):
        run_check("L6_4", {"n": 4, "k": 5})


def test_implicit_defaults_stay_out_of_params():
    assert "trials" not in run_check("RHO", {"field": "F2", "n": 2, "d": 2}).params
    assert "trials" not in run_check("SIGMA", {"field": "Q"}).params
    assert run_check("SIGMA", {"field": "Q"}).mode.endswith("trials=50)")
    assert "trials" not in run_check("T1_3", {"field": "Q"}).params
    assert "powerpoints" not in run_check("VCODE").params
    assert run_check("RHO", {"field": "F2", "n": 2, "d": 2, "trials": None}).mode == "exhaustive"


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


# Canonical JSON of branches the full-desk suite does not reach, pinned
# at the default seed and budget so that a refactor of the checks cannot
# move them unnoticed.
BRANCH_PINS = [
    # hypothesis not met
    ("T1_3", {"field": "F2", "n": 2, "d": 2}, "61d919e33b2130a8be51b41ca0fa0c808f95d274bece056272b1c22fed8bc026"),
    ("T1_4", {"field": "F2"}, "4ec86a4efb26b680a824cb0541f453171d026b0484e952ba9c3769010cd6e76d"),
    ("T5_1", {"field": "F2"}, "ddbd18203f762eac37ee1ae5fa7a168152b3406dfee83b073f8835fdebdb88d9"),
    ("SIGMA", {"field": "F2"}, "779e38f10a67b0fcea5309f23d622946971e524ccf7ec91aa74f5dd92377aaf9"),
    ("T1_1_SHARP", {"field": "F2", "n": 3, "d": 3}, "e77dcff2c44e5676f366bed2ee08550d56aa4c2276e3eb1c398ffab8d0ee57b2"),
    ("T3_3", {"field": "F5"}, "650a998e135ecb0bb2b2f523c7ef8a64218d9ca6d4de76826e1380a30ffd0921"),
    ("T3_4", {"field": "F4"}, "599839cd7601eb00e6350951bac0935e3949b82bfd1aa42c4b14b911a2e70dd7"),
    # too few spread members for the conclusion level: the hypothesis is
    # searched first, and a failure reports its witness (the 5 planes of
    # F2^4 are not 3-independent)
    ("T1_2", {"field": "F2", "k": 2, "d": 3, "e": 2}, "a8607ae77be1446f584b70e40cc313ea33f782f0a429cc99d410e85150712b9f"),
    ("T1_2", {"field": "F2", "k": 2, "d": 5, "e": 1}, "0144c9e884601826ea3addad00e8774b893da431ec8f70e8363d2c13730b3fe1"),
    # a failed spread hypothesis reports its witness
    ("T1_4", {"field": "F5", "k": 2, "d": 3, "r": 3, "e": 2}, "c324d3e52dd28fe7a1fa5750656012970b2b2f4ca140568a786f1c97d735ba5b"),
    ("T5_1", {"field": "F2", "k": 2, "d": 3, "r": 5}, "f626255111f0ec33c66ddced45dac6cff69effb17fb9b228efacf6319654bbc8"),
    # sampled branches with explicit trials
    ("T1_3", {"field": "Q", "n": 2, "d": 3, "trials": 7}, "8ff503858fdf80c270d37d609b69c84a48f9660fd38e31f4f6fd904d0f883a2f"),
    ("SIGMA", {"field": "Q", "n": 3, "d": 2, "trials": 9}, "b166a352806dcf92c2534f1196cc5077c3ee914561fb7a07a9a7fe67bf851a93"),
    ("RHO", {"field": "F3", "n": 2, "d": 2, "trials": 12}, "dcce23ccc18230b3ba040313496c51ae67ad45951322c314ea9c809a196067ec"),
    ("RHO", {"field": "Q", "n": 2, "d": 2, "trials": 5}, "b8517be8cee14f82665aaab8f17f083c6b0a62413b328a1722cdadbeab4ba631"),
    ("L6_4", {"field": "F3", "n": 3, "k": 2, "trials": 6}, "db324c70deb4692849b129fa4b41d6d9e8f1436a52798b83ccc11d6b9ca421ab"),
    # the powerpoint code, inside (F5, d = 2) and outside (F2) char > d
    ("VCODE", {"field": "F5", "n": 2, "d": 2, "wmax": 4, "powerpoints": True},
     "8d59f2a8495213ce8e17bc68ed79a744f6bc131918aefbd4876877308939f6a6"),
    ("VCODE", {"field": "F2", "n": 2, "d": 2, "wmax": 4, "powerpoints": True},
     "f129ddf79aa32c8d3bed3d7c9bf58216ef6cd18bd23ba84234f8561bd71d08a9"),
    # a spread with fewer members than the hypothesis level: not met, no search
    ("T1_4", {"field": "F3", "k": 1, "d": 2, "r": 2, "e": 4}, "765e189728c755e091d018d492b9375bc3b8275b1e3268097166d0bc0d1cf448"),
    ("T5_1", {"field": "F3", "k": 1, "d": 2, "r": 5}, "ab9ee535713251ebe703df32a810df3aaf5aee4d951dc530b6d613d79b9a4498"),
    # EX10's third structure where the first two triples of points are collinear
    ("EX10", {"field": "F3"}, "cb164454a64846e69c407115663e20754662932784e3d46f11bcff1fd25b1664"),
]


@pytest.mark.parametrize("check_id,params,digest", BRANCH_PINS)
def test_branches_outside_full_desk_are_pinned(check_id, params, digest):
    got = result_to_json(run_check(check_id, dict(params)))
    assert hashlib.sha256(got.encode()).hexdigest() == digest, got


# VCODE F3 n2 d2 wmax 4: four columns in K^3, and (0, 1, 2, 3) is their
# one circuit, so a planted list of it passes the witness check whatever
# size it is filed under, and only the sizes send the check into its
# failure branches
@pytest.mark.parametrize("planted,witness", [
    ({3: [(0, 1, 2, 3)]}, {"dependent_at": 3}),  # d + 1
    ({}, {"min_weight": None}),
    ({5: [(0, 1, 2, 3)], 6: [(0, 1, 2, 3)]}, {"min_weight": 5}),  # d + 3, d + 4
])
def test_vcode_fails_on_planted_support_sizes(planted, witness):
    params = {"field": "F3", "n": 2, "d": 2, "wmax": 4}
    assert run_check("VCODE", dict(params)).conclusion_ok
    with mock.patch.object(harness.vc, "minimal_supports", return_value=planted):
        res = run_check("VCODE", dict(params))
    assert res.hypothesis_ok and not res.conclusion_ok
    assert res.witness == witness
