"""End-to-end CLI tests: config ingestion, CSV artifacts, exit codes."""

import copy
import csv
import json
import math

import numpy as np
import pytest

import rscontrol.chain
from rscontrol import (
    CheckReport,
    dual_lambda_golden,
    optimal_control,
    sample_path,
    transition_matrix,
    validate_generator,
    value_function,
)
from rscontrol.cli import _write_csv, main


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture()
def cfg(tworeg_config_dict, tmp_path):
    c = copy.deepcopy(tworeg_config_dict)
    c["output"]["directory"] = str(tmp_path / "out")
    return c


def test_solve_odes_artifact(cfg, tmp_path, tworeg_sol):
    assert main(["solve-odes", _write_config(tmp_path, cfg)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "solve-odes.csv")
    assert header == ["t", "regime", "phi", "psi", "chi"]
    assert len(rows) == 201 * 2  # one row per grid node per regime
    first = rows[0]
    assert float(first[0]) == 0.0 and first[1] == "1"
    phi0, psi0, chi0 = tworeg_sol.interp(0.0)
    assert float(first[2]) == pytest.approx(phi0[0], abs=1e-12)
    assert float(first[3]) == pytest.approx(psi0[0], abs=1e-12)
    assert float(first[4]) == pytest.approx(chi0[0], abs=1e-12)
    # terminal condition serialized exactly; %.17g round-trips floats
    last = rows[-1]
    assert float(last[0]) == 1.0
    assert last[2] == "-2"
    assert float(last[3]) == 2.4


def test_optimal_control_artifact(cfg, tmp_path, tworeg_sol):
    assert main(["optimal-control", _write_config(tmp_path, cfg)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "optimal-control.csv")
    assert header == ["t", "x", "regime", "u"]
    assert len(rows) == 50 * 21 * 2
    for row in rows[:8] + rows[-8:]:
        t, x, i, u = float(row[0]), float(row[1]), int(row[2]), float(row[3])
        assert u == pytest.approx(optimal_control(tworeg_sol, t, x, i), abs=1e-12)


def test_evaluate_consistent_with_solved_value(cfg, tmp_path):
    cfg["numerics"].update(n_paths=10_000, n_steps=512)
    path = _write_config(tmp_path, cfg)
    assert main(["solve-odes", path]) == 0
    assert main(["evaluate", path]) == 0
    header, rows = _read_csv(tmp_path / "out" / "evaluate.csv")
    assert header == ["policy", "n_paths", "n_steps", "seed", "J_hat", "std_error"]
    assert [r[0] for r in rows] == [
        "optimal",
        "optimal+0.1",
        "optimal-0.1",
        "optimal*0.5",
        "optimal*1.5",
        "optimal+0.1@[0,0.5)",
    ]
    j_opt, se_opt = float(rows[0][4]), float(rows[0][5])
    # V(0, x0, 1) from the solve-odes artifact
    _, ode_rows = _read_csv(tmp_path / "out" / "solve-odes.csv")
    t0 = [r for r in ode_rows if float(r[0]) == 0.0 and r[1] == "1"][0]
    x0 = 1.0
    v0 = 0.5 * float(t0[2]) * x0**2 + float(t0[3]) * x0 + float(t0[4])
    assert abs(j_opt - v0) < 3.0 * se_opt
    # the optimal row should not be beaten by any perturbation beyond noise
    for row in rows[1:]:
        assert float(row[4]) <= j_opt + 3.0 * math.hypot(se_opt, float(row[5]))


def test_evaluate_byte_identical_across_worker_counts(cfg, tmp_path):
    cfg["numerics"].update(n_paths=4096, n_steps=128)
    blobs = []
    for w in (1, 2, 8):
        c = copy.deepcopy(cfg)
        c["numerics"]["workers"] = w
        c["output"]["directory"] = str(tmp_path / f"w{w}")
        assert main(["evaluate", _write_config(tmp_path, c, f"cfg{w}.json")]) == 0
        blobs.append((tmp_path / f"w{w}" / "evaluate.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_dotted_overrides(cfg, tmp_path):
    cfg["numerics"].update(n_paths=256, n_steps=32)
    path = _write_config(tmp_path, cfg)
    assert main(["evaluate", path, "--numerics.seed=42"]) == 0
    _, rows = _read_csv(tmp_path / "out" / "evaluate.csv")
    assert rows[0][3] == "42"
    j_42 = float(rows[0][4])
    assert main(["evaluate", path]) == 0
    _, rows7 = _read_csv(tmp_path / "out" / "evaluate.csv")
    assert rows7[0][3] == "7"
    assert float(rows7[0][4]) != j_42


def test_verify_passes_on_reference_config(cfg, tmp_path):
    cfg["numerics"].update(n_paths=10_000, n_steps=512, seed=3)
    assert main(["verify", _write_config(tmp_path, cfg)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "verify.csv")
    assert header == ["check_name", "statistic", "threshold", "passed"]
    assert len(rows) == 18
    assert all(r[3] == "true" for r in rows)


def test_verify_exit_code_on_failed_check(cfg, tmp_path, monkeypatch, capsys):
    forced = [CheckReport("forced_check", 1.0, 0.5, False, "synthetic failure")]
    monkeypatch.setattr("rscontrol.cli.run_all_checks", lambda *a, **k: forced)
    assert main(["verify", _write_config(tmp_path, cfg)]) == 1
    assert "forced_check" in capsys.readouterr().err
    _, rows = _read_csv(tmp_path / "out" / "verify.csv")
    assert rows[0][3] == "false"


def test_verify_zero_volatility_is_config_error(cfg, tmp_path, capsys):
    code = main(["verify", _write_config(tmp_path, cfg), "--market.vols=[[0.3,0.0]]"])
    assert code == 2
    assert "sigma is zero" in capsys.readouterr().err


def test_config_error_paths(cfg, tmp_path):
    # missing file
    assert main(["solve-odes", str(tmp_path / "nope.json")]) == 2
    # invalid JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve-odes", str(bad)]) == 2
    # root is not an object
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert main(["solve-odes", str(lst)]) == 2

    def broken(mutate):
        c = copy.deepcopy(cfg)
        mutate(c)
        return main(["solve-odes", _write_config(tmp_path, c, "broken.json")])

    assert broken(lambda c: c.pop("market")) == 2
    assert broken(lambda c: c.pop("generator")) == 2
    assert broken(lambda c: c["numerics"].pop("seed")) == 2
    assert broken(lambda c: c["problem"].update(mode="wat")) == 2
    assert broken(lambda c: c["problem"].pop("d")) == 2
    assert broken(lambda c: c["problem"].update(initial_state=3)) == 2
    assert broken(lambda c: c["numerics"].update(n_paths=1)) == 2
    assert broken(lambda c: c["numerics"].update(seed=-1)) == 2
    # malformed override
    assert main(["solve-odes", _write_config(tmp_path, cfg), "--oops"]) == 2


def test_unknown_subcommand_rejected(cfg, tmp_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", _write_config(tmp_path, cfg)])


def test_simulate_chain_artifact(cfg, tmp_path):
    cfg["numerics"]["n_paths"] = 2000
    assert main(["simulate-chain", _write_config(tmp_path, cfg)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "simulate-chain.csv")
    assert header == ["name", "i", "j", "value", "std_error"]
    table = {(r[0], r[1], r[2]): (float(r[3]), float(r[4])) for r in rows}
    for i in ("1", "2"):
        mean, se = table[("prob_state", i, "0")]
        exact, _ = table[("prob_state_exact", i, "0")]
        assert abs(mean - exact) < 3.0 * se + 1e-3
    for pair in (("1", "2"), ("2", "1")):
        mean, se = table[("mean_M", *pair)]
        assert abs(mean) < 3.0 * se + 1e-12


def _reference_simulate_chain(cfg, out_path):
    """simulate-chain.csv from a per-path loop over sample_path."""
    gen = validate_generator(cfg["generator"])
    t_hor = cfg["market"]["horizon"]
    i0 = cfg["problem"].get("initial_state", 1)
    n, seed = cfg["numerics"]["n_paths"], cfg["numerics"]["seed"]
    d = gen.num_states
    occ_probs = np.zeros(d)
    jumps_sum = jumps_sum2 = 0.0
    n_sum, n_sum2, m_sum, m_sum2 = (np.zeros((d, d)) for _ in range(4))
    for k in range(n):
        path = sample_path(gen, i0, t_hor, seed, k)
        occ = np.zeros(d)
        counts = np.zeros((d, d))
        prev_t, prev_s = 0.0, i0 - 1
        for tau, nxt in zip(path.jump_times, path.jump_states - 1):
            occ[prev_s] += tau - prev_t
            counts[prev_s, nxt] += 1.0
            prev_t, prev_s = float(tau), int(nxt)
        occ[prev_s] += t_hor - prev_t
        occ_probs[prev_s] += 1.0
        jumps_sum += path.n_jumps
        jumps_sum2 += path.n_jumps * path.n_jumps
        m = counts - gen.rates * occ[:, None]
        np.fill_diagonal(m, 0.0)
        n_sum += counts
        n_sum2 += counts * counts
        m_sum += m
        m_sum2 += m * m

    def se(total, total2):
        mean = total / n
        return mean, math.sqrt(max(total2 / n - mean * mean, 0.0) / n)

    exact = transition_matrix(gen, t_hor)[i0 - 1]
    rows = []
    for i in range(d):
        rows.append(["prob_state", i + 1, 0, *se(occ_probs[i], occ_probs[i])])
        rows.append(["prob_state_exact", i + 1, 0, float(exact[i]), 0.0])
    rows.append(["mean_jumps", 0, 0, *se(jumps_sum, jumps_sum2)])
    for i in range(d):
        for j in range(d):
            if i != j:
                rows.append(["mean_N", i + 1, j + 1, *se(n_sum[i, j], n_sum2[i, j])])
                rows.append(["mean_M", i + 1, j + 1, *se(m_sum[i, j], m_sum2[i, j])])
    _write_csv(out_path, ["name", "i", "j", "value", "std_error"], rows)


@pytest.mark.parametrize("market", ["two_regime", "three_regime_fast"])
def test_simulate_chain_matches_per_path_reference(cfg, tmp_path, monkeypatch, market, fast_config_dict):
    monkeypatch.setattr(rscontrol.chain, "_BATCH", 700)  # several batches
    if market == "three_regime_fast":
        cfg.update(market=fast_config_dict["market"], generator=fast_config_dict["generator"])
    cfg["numerics"].update(n_paths=2500, seed=19)
    for i0 in range(1, len(cfg["generator"]) + 1):
        cfg["problem"]["initial_state"] = i0
        assert main(["simulate-chain", _write_config(tmp_path, cfg)]) == 0
        _reference_simulate_chain(cfg, tmp_path / "reference.csv")
        got = (tmp_path / "out" / "simulate-chain.csv").read_bytes()
        assert got == (tmp_path / "reference.csv").read_bytes()


def test_frontier_artifact(cfg, tmp_path, tworeg_market, tworeg_gen):
    cfg["problem"] = {"mode": "frontier", "a": 1.2, "initial_state": 1}
    cfg["numerics"].update(n_paths=2000, n_steps=128)
    assert main(["frontier", _write_config(tmp_path, cfg)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "frontier.csv")
    assert header == ["a", "lambda_star", "d", "variance", "achieved_mean", "std_error"]
    assert len(rows) == 1
    a, lam, d_eff = (float(v) for v in rows[0][:3])
    assert a == 1.2
    assert d_eff == pytest.approx(a - lam, abs=1e-15)
    assert abs(lam - dual_lambda_golden(tworeg_market, tworeg_gen, 1.2)) < 1e-8


def test_frontier_requires_target_mean(cfg, tmp_path):
    cfg["problem"] = {"mode": "frontier", "initial_state": 1}
    assert main(["frontier", _write_config(tmp_path, cfg)]) == 2


def test_emit_paths_artifact(cfg, tmp_path):
    cfg["numerics"].update(n_paths=64, n_steps=32)
    cfg["output"]["emit_paths"] = True
    assert main(["evaluate", _write_config(tmp_path, cfg)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "paths.csv")
    assert header == ["t_left", "t_right", "regime", "control", "dW", "wealth_end"]
    assert len(rows) >= 32
    assert all(math.isfinite(float(r[5])) for r in rows)


def test_float_round_trip_serialization(cfg, tmp_path, tworeg_sol):
    assert main(["solve-odes", _write_config(tmp_path, cfg)]) == 0
    _, rows = _read_csv(tmp_path / "out" / "solve-odes.csv")
    t0_row = [r for r in rows if float(r[0]) == 0.0 and r[1] == "2"][0]
    phi0 = tworeg_sol.interp(0.0)[0]
    # 17 significant digits reproduce the double exactly
    assert float(t0_row[2]) == float(phi0[1])
