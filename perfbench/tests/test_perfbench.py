"""Tests of the benchmark itself: reference, output checks, runs and traces.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import rscontrol  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# reference solution
# ---------------------------------------------------------------------------


def test_reference_single_regime_value_closed_form():
    m = reference.market_from_config(
        {"horizon": 1.0, "initial_wealth": 0.8, "rates": [0.05], "drifts": [0.11], "vols": [0.3]},
        [[0.0]],
    )
    closed = -math.exp(-0.04) * (0.8 * math.exp(0.05) - 1.0) ** 2
    assert abs(reference.value_at_zero(m, 1.0, 1) - closed) < 1e-14


def test_reference_single_regime_frontier_closed_form():
    # r = 0 and theta^2 = ln 2, so e^{-theta^2 T} = 1/2: the minimum variance
    # e^{-theta^2 T} / (1 - e^{-theta^2 T}) * (a - x0)^2 is 0.25 at a = 1.5,
    # reached at the effective target d = a - lambda* = 2.
    m = reference.market_from_config(
        {"horizon": 1.0, "initial_wealth": 1.0, "rates": [0.0],
         "drifts": [math.sqrt(math.log(2.0))], "vols": [1.0]},
        [[0.0]],
    )
    pt = reference.frontier_point(m, 1.5, 1)
    assert abs(pt.min_variance - 0.25) < 1e-12
    assert abs(pt.lambda_star + 0.5) < 1e-12


def test_reference_matches_program_on_two_regime_market():
    cfg = workloads.load_config("two_regime.json")
    m = reference.market_from_config(cfg["market"], cfg["generator"])
    model = rscontrol.load_market(cfg["market"])
    gen = rscontrol.validate_generator(cfg["generator"])
    sol = rscontrol.solve_phi_psi_chi(model, gen, 1.2)
    assert abs(reference.value_at_zero(m, 1.2, 1) - rscontrol.value_function(sol, 0.0, 1.0, 1)) < 1e-11


# ---------------------------------------------------------------------------
# output checks reject corrupted results
# ---------------------------------------------------------------------------


def tiny_round(name):
    work = workloads.WORKLOADS[name](workloads.SIZES["tiny"][name], seed=0)
    work.setup()
    return work, work.run_round()


def test_price_check_rejects_shifted_value():
    work, out = tiny_round("price")
    assert work.check(out) == []
    bad = copy.deepcopy(out)
    j, se = bad[0]["J"]
    bad[0]["J"] = (j + 10.0 * se, se)
    assert work.check(bad)
    bad = copy.deepcopy(out)
    diff, dse = bad[1]["diffs"][0]
    bad[1]["diffs"][0] = (-10.0 * dse, dse)
    assert work.check(bad)


def test_frontier_check_rejects_perturbed_lambda():
    work, out = tiny_round("frontier")
    assert work.check(out) == []
    bad = copy.deepcopy(out)
    bad[0]["lambda_star"] += 1e-6
    assert work.check(bad)
    bad = copy.deepcopy(out)
    bad[-1]["achieved_mean"] += 10.0 * bad[-1]["mean_se"]
    assert work.check(bad)


def test_verify_check_rejects_a_flipped_row():
    work, out = tiny_round("verify")
    assert work.check(out) == []
    for k in range(len(out[0]["rows"])):
        bad = copy.deepcopy(out)
        bad[0]["rows"][k]["passed"] = "false"
        assert work.check(bad), bad[0]["rows"][k]["check_name"]


# ---------------------------------------------------------------------------
# whole runs through the benchmark command
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_at_tiny_size(name):
    res = result_of(run_bench("--workload", name, "--seed", "0", "--seconds", "1",
                              "--trace", "0", "--size", "tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0


def test_traced_runs_repeat_call_counts():
    runs = [
        result_of(run_bench("--workload", "frontier", "--seed", "3", "--seconds", "1",
                            "--trace", "1", "--size", "tiny"))
        for _ in range(2)
    ]
    for res in runs:
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")} for r in runs]
    assert calls[0] == calls[1]
    assert calls[0]["chain.path_stream.calls"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "price", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
