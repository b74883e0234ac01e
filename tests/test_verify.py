"""Verification suite: identity checks, martingale statistics, negative controls.

The statistical checks run here at reduced path counts with seeds the full
suite is known to pass; the acceptance tests repeat the headline checks at
their contractual scale.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import rscontrol.chain
from rscontrol import (
    BadIntervalError,
    TimeOutOfRangeError,
    ValidationError,
    check_adjoint_bsde,
    check_chain_martingales,
    check_dp_connection,
    check_dynkin,
    check_hamiltonian_maximum,
    check_integrability,
    check_rs_martingales,
    load_market,
    make_market,
    optimal_policy,
    run_all_checks,
    sample_path,
    solve_phi_psi_chi,
    validate_generator,
)
from rscontrol.chain import integrate_rates


EXPECTED_CHECKS = {
    "hamiltonian_max_coefficient",
    "dp_p_equals_vx",
    "dp_q_relation",
    "dp_eta_jump_identity",
    "dp_vx_finite_difference",
    "chain_martingale_M_1_2",
    "chain_martingale_M_2_1",
    "rs_martingale_R",
    "rs_martingale_S",
    "bsde_terminal_condition",
    "bsde_mean_residual",
    "bsde_residual_order",
    "dynkin_identity",
    "integrability_sigma_term",
    "integrability_q_term",
    "integrability_eta_term",
    "negative_control_corrupted_psi",
    "negative_control_time_reversed_R",
}


@pytest.fixture(scope="module")
def suite_reports(tworeg_market, tworeg_gen, tworeg_sol):
    return run_all_checks(
        tworeg_market,
        tworeg_gen,
        1.2,
        i0=1,
        n_paths=20_000,
        n_steps=512,
        seed=3,
        sol=tworeg_sol,
    )


def test_full_suite_passes_and_is_well_formed(suite_reports):
    assert {r.check_name for r in suite_reports} == EXPECTED_CHECKS
    for r in suite_reports:
        assert math.isfinite(r.statistic) and r.statistic >= 0.0
        assert r.passed == (r.statistic <= r.threshold)
        assert r.passed, f"{r.check_name}: {r.statistic:.3e} > {r.threshold:.3e} ({r.detail})"


def test_negative_controls_confirm_detection(suite_reports):
    by_name = {r.check_name: r for r in suite_reports}
    # inverted reports: passing means the deliberately broken input was caught
    assert by_name["negative_control_corrupted_psi"].passed
    assert by_name["negative_control_time_reversed_R"].passed


def test_hamiltonian_coefficient_single_regime(single_sol, single_market):
    rep = check_hamiltonian_maximum(single_sol, single_market)
    assert rep.passed and rep.statistic < 1e-12


def test_hamiltonian_coefficient_two_regimes(tworeg_sol, tworeg_market):
    rep = check_hamiltonian_maximum(tworeg_sol, tworeg_market)
    assert rep.passed and rep.statistic < 1e-10


def test_corrupted_psi_breaks_hamiltonian_identity(tworeg_sol, tworeg_market):
    psi_c = tworeg_sol.psi.copy()
    psi_c[:, 0] += 0.01
    rep = check_hamiltonian_maximum(
        tworeg_sol, tworeg_market, policy_sol=replace(tworeg_sol, psi=psi_c)
    )
    assert not rep.passed
    assert rep.statistic > 1e-4


def test_dp_connection_identities(single_sol, single_market, tworeg_sol, tworeg_market):
    for sol, model in ((single_sol, single_market), (tworeg_sol, tworeg_market)):
        reports = {r.check_name: r for r in check_dp_connection(sol, model)}
        assert reports["dp_p_equals_vx"].statistic < 1e-12
        assert reports["dp_eta_jump_identity"].statistic < 1e-12
        assert reports["dp_q_relation"].statistic < 1e-10
        assert reports["dp_vx_finite_difference"].statistic < 1e-6
        assert all(r.passed for r in reports.values())


def test_chain_martingales_small_scale(tworeg_gen):
    reports = check_chain_martingales(tworeg_gen, 1.0, 10_000, seed=14)
    assert len(reports) == 2
    assert all(r.passed for r in reports)


def test_rs_martingales_single_regime_degenerate(single_sol, single_market, single_gen):
    # without switching, R and S are deterministic; increments vanish at
    # solver precision, far below the 1e-7 absolute floor
    reports = check_rs_martingales(single_sol, single_market, single_gen, 200, seed=1)
    for r in reports:
        assert r.passed
        assert r.statistic < 1e-7


def test_rs_time_reversal_negative_control(tworeg_sol, tworeg_market, tworeg_gen):
    reports = check_rs_martingales(
        tworeg_sol, tworeg_market, tworeg_gen, 4_000, seed=8, reverse_time=True
    )
    assert reports[0].check_name == "rs_martingale_R_reversed"
    assert not reports[0].passed


def test_bsde_single_regime_and_deterministic_order(single_sol, single_market, single_gen):
    reports = check_adjoint_bsde(
        single_sol, single_market, single_gen, 10_000, 512, seed=4
    )
    by_name = {r.check_name: r for r in reports}
    assert by_name["bsde_terminal_condition"].statistic == 0.0
    assert by_name["bsde_mean_residual"].passed
    assert by_name["bsde_residual_order"].passed

    flat = make_market(
        horizon=1.0, initial_wealth=0.8, rates=[0.05], drifts=[0.05], vols=[0.3]
    )
    flat_sol = solve_phi_psi_chi(flat, single_gen, 1.0, 100)
    # deterministic paths leave no statistical slack, so the weak O(h^2)
    # residual bias must itself sit under the absolute floor: use 512 steps
    flat_reports = check_adjoint_bsde(flat_sol, flat, single_gen, 2_000, 512, seed=6)
    assert all(r.passed for r in flat_reports)


def test_dynkin_zero_horizon_is_exact(tworeg_market, tworeg_gen, tworeg_sol):
    rep = check_dynkin(tworeg_market, tworeg_gen, tworeg_sol, 0.0, 64, 16, seed=2)
    assert rep.statistic == 0.0
    assert rep.passed


def test_dynkin_deterministic_market(single_gen):
    flat = make_market(
        horizon=1.0, initial_wealth=0.8, rates=[0.05], drifts=[0.05], vols=[0.3]
    )
    sol = solve_phi_psi_chi(flat, single_gen, 1.0, 100)
    rep = check_dynkin(flat, single_gen, sol, 1.0, 64, 256, seed=2)
    assert rep.passed
    assert rep.statistic < 1e-4


@pytest.mark.parametrize(
    "t_end, error",
    [
        (1.5, TimeOutOfRangeError),  # past the horizon
        (-0.25, TimeOutOfRangeError),
        (0.3, ValidationError),  # inside [0, T] but between the nodes 0.25 and 0.3125
    ],
)
def test_dynkin_rejects_t_end_off_the_grid(tworeg_market, tworeg_gen, tworeg_sol, t_end, error):
    with pytest.raises(ValidationError) as info:
        check_dynkin(tworeg_market, tworeg_gen, tworeg_sol, t_end, 64, 16, seed=2)
    assert type(info.value) is error


def test_integrability_trivial_when_comparison_equals_optimum(
    tworeg_market, tworeg_gen, tworeg_sol
):
    reports = check_integrability(
        tworeg_market,
        tworeg_gen,
        1.2,
        256,
        64,
        seed=12,
        perturbation=optimal_policy(),
        sol=tworeg_sol,
    )
    for r in reports:
        assert r.statistic == 0.0
        assert "identically zero" in r.detail


def test_integrability_solves_for_d_without_a_solution(tworeg_market, tworeg_gen, tworeg_sol):
    # tworeg_sol is the triple for d = 1.2 at the default steps per cell
    args = (tworeg_market, tworeg_gen, 1.2, 512, 32)
    solved = check_integrability(*args, seed=4, sol=None)
    given = check_integrability(*args, seed=4, sol=tworeg_sol)
    assert [(r.statistic, r.threshold, r.detail) for r in solved] == [
        (r.statistic, r.threshold, r.detail) for r in given
    ]
    assert all(r.statistic > 0.0 for r in given)  # a real comparison, not the trivial case


def test_run_all_checks_validates_initial_state(tworeg_market, tworeg_gen, tworeg_sol):
    from rscontrol import StateOutOfRangeError

    with pytest.raises(StateOutOfRangeError):
        run_all_checks(tworeg_market, tworeg_gen, 1.2, i0=5, n_paths=4, n_steps=4, sol=tworeg_sol)


# ---------------------------------------------------------------------------
# the batched chain checks against their per-path reference loops
# ---------------------------------------------------------------------------


def _reference_rs(sol, model, gen, n_paths, seed, *, i0=1, check_times=None, reverse_time=False):
    """check_rs_martingales as a per-path loop over integrate_rates and state_at."""
    t_hor = model.horizon
    if check_times is None:
        check_times = [0.25 * t_hor, 0.5 * t_hor, 0.75 * t_hor, t_hor]
    times = [0.0, *check_times]
    theta = model.theta()
    c2 = 2.0 * model.rates - theta * theta
    c1 = model.rates - theta * theta
    rows = [sol.interp(t) for t in times]
    n_inc = len(times) - 1
    inc_sum = np.zeros((2, n_inc))
    inc_sum2 = np.zeros((2, n_inc))
    for k in range(n_paths):
        path = sample_path(gen, i0, t_hor, seed, k)
        i2_t = integrate_rates(path, model.breakpoints, c2, t_hor) if reverse_time else 0.0
        i1_t = integrate_rates(path, model.breakpoints, c1, t_hor) if reverse_time else 0.0
        prev_r = prev_s = 0.0
        for m, t in enumerate(times):
            st = path.state_at(t) - 1
            i2 = integrate_rates(path, model.breakpoints, c2, t)
            i1 = integrate_rates(path, model.breakpoints, c1, t)
            if reverse_time:
                e2, e1 = math.exp(i2_t - i2), math.exp(i1_t - i1)
            else:
                e2, e1 = math.exp(i2), math.exp(i1)
            phi_row, psi_row, _ = rows[m]
            r_val = -0.5 * (-0.5 * float(phi_row[st])) * e2
            s_val = 0.5 * float(psi_row[st]) * e1
            if m > 0:
                dr, ds = r_val - prev_r, s_val - prev_s
                inc_sum[0, m - 1] += dr
                inc_sum2[0, m - 1] += dr * dr
                inc_sum[1, m - 1] += ds
                inc_sum2[1, m - 1] += ds * ds
            prev_r, prev_s = r_val, s_val
    suffix = "_reversed" if reverse_time else ""
    reports = []
    for row, label in ((0, "R"), (1, "S")):
        stat, thr, where = 0.0, 1e-7, "none"
        for m in range(n_inc):
            mean = inc_sum[row, m] / n_paths
            var = max(inc_sum2[row, m] / n_paths - mean * mean, 0.0)
            se = math.sqrt(var / n_paths)
            margin_stat, margin_thr = abs(mean), 3.0 * se + 1e-7
            if margin_stat * thr > stat * margin_thr:
                stat, thr = margin_stat, margin_thr
                where = f"[{times[m]:.4g},{times[m + 1]:.4g}]"
        reports.append(
            (f"rs_martingale_{label}{suffix}", stat, thr, f"worst increment on {where}, {n_paths} paths")
        )
    return reports


def _reference_chain(gen, horizon, n_paths, seed, *, i0=1):
    """check_chain_martingales as a per-path loop over jump lists."""
    d_states = gen.num_states
    sums = np.zeros((d_states, d_states))
    sums2 = np.zeros((d_states, d_states))
    for k in range(n_paths):
        path = sample_path(gen, i0, horizon, seed, k)
        occ = np.zeros(d_states)
        counts = np.zeros((d_states, d_states))
        prev_t, prev_s = 0.0, i0 - 1
        for tau, nxt in zip(path.jump_times, path.jump_states - 1):
            occ[prev_s] += tau - prev_t
            counts[prev_s, nxt] += 1.0
            prev_t, prev_s = float(tau), int(nxt)
        occ[prev_s] += horizon - prev_t
        m = counts - gen.rates * occ[:, None]
        np.fill_diagonal(m, 0.0)
        sums += m
        sums2 += m * m
    reports = []
    for i in range(d_states):
        for j in range(d_states):
            if i == j:
                continue
            mean = sums[i, j] / n_paths
            se = math.sqrt(max(sums2[i, j] / n_paths - mean * mean, 0.0) / n_paths)
            reports.append((
                f"chain_martingale_M_{i + 1}_{j + 1}",
                abs(mean),
                3.0 * se + 1e-12,
                f"pair ({i + 1},{j + 1}), mean {mean:.3e}, se {se:.3e}, {n_paths} paths",
            ))
    return reports


@pytest.fixture(scope="module")
def fast_market(fast_config_dict):
    cfg = fast_config_dict
    gen = validate_generator(cfg["generator"])
    model = load_market({**cfg["market"], "generator": cfg["generator"]})
    return model, gen, solve_phi_psi_chi(model, gen, 1.1)


def _as_tuples(reports):
    return [(r.check_name, r.statistic, r.threshold, r.detail) for r in reports]


@pytest.mark.parametrize("market", ["two_regime", "three_regime_fast"])
@pytest.mark.parametrize("batch", [37, 8192])
def test_chain_checks_match_per_path_reference(
    market, batch, monkeypatch, tworeg_market, tworeg_gen, tworeg_sol, fast_market
):
    # batch=37 splits the paths over many batches, so the running sums cross
    # batch boundaries
    monkeypatch.setattr(rscontrol.chain, "_BATCH", batch)
    model, gen, sol = (
        (tworeg_market, tworeg_gen, tworeg_sol) if market == "two_regime" else fast_market
    )
    n = 300
    for i0 in range(1, gen.num_states + 1):
        for reverse in (False, True):
            got = check_rs_martingales(sol, model, gen, n, 23, i0=i0, reverse_time=reverse)
            ref = _reference_rs(sol, model, gen, n, 23, i0=i0, reverse_time=reverse)
            assert _as_tuples(got) == ref
        times = [0.1, 0.5, 0.7]  # a breakpoint of the fast market; not ending at T
        got = check_rs_martingales(sol, model, gen, n, 5, i0=i0, check_times=times, reverse_time=True)
        assert _as_tuples(got) == _reference_rs(sol, model, gen, n, 5, i0=i0, check_times=times, reverse_time=True)
        got = check_chain_martingales(gen, model.horizon, n, 11, i0=i0)
        assert _as_tuples(got) == _reference_chain(gen, model.horizon, n, 11, i0=i0)


@pytest.mark.parametrize(
    "check_times, error",
    [
        ([0.5, 1.5], TimeOutOfRangeError),  # past the horizon the chain is frozen
        ([0.0, 0.5], TimeOutOfRangeError),
        ([-0.25, 0.5], TimeOutOfRangeError),
        ([0.75, 0.25], BadIntervalError),
        ([0.5, 0.5], BadIntervalError),
        ([], BadIntervalError),
    ],
)
def test_rs_martingales_rejects_bad_check_times(tworeg_sol, tworeg_market, tworeg_gen, check_times, error):
    with pytest.raises(error):
        check_rs_martingales(tworeg_sol, tworeg_market, tworeg_gen, 10, 1, check_times=check_times)
