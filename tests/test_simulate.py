"""Wealth SDE simulation, J estimation, and paired policy comparisons."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscontrol import (
    NonFiniteSolutionError,
    TargetMismatchError,
    compare_policies,
    compile_policy,
    constant_policy,
    estimate_J,
    make_market,
    optimal_policy,
    phi_psi_from_oracle,
    scale_policy,
    shift_policy,
    simulate_wealth,
    solve_phi_psi_chi,
    standard_perturbations,
    table_policy,
    validate_generator,
    window_shift_policy,
)
from rscontrol import simulate
from rscontrol.simulate import _run_blocks, _resolve_policies

FAST_D = 1.1


@pytest.fixture(scope="module")
def fast_market():
    # three regimes, two coefficient cells
    return make_market(
        horizon=1.0,
        initial_wealth=1.0,
        breakpoints=[0.0, 0.5, 1.0],
        rates=[[0.02, 0.04, 0.06], [0.03, 0.05, 0.01]],
        drifts=[[0.10, 0.06, 0.14], [0.08, 0.12, 0.04]],
        vols=[[0.25, 0.35, 0.30], [0.30, 0.20, 0.40]],
    )


@pytest.fixture(scope="module")
def fast_gen():
    # exit rates 10-12: about eleven jumps per path on [0, 1]
    return validate_generator([[-10.0, 6.0, 4.0], [5.0, -11.0, 6.0], [7.0, 5.0, -12.0]])


@pytest.fixture(scope="module")
def fast_sol(fast_market, fast_gen):
    return solve_phi_psi_chi(fast_market, fast_gen, FAST_D, 200)


def test_zero_policy_recovers_deterministic_growth(single_market, single_gen):
    wp = simulate_wealth(
        single_market, single_gen, constant_policy(0.0), None, 0.8, 2**14, seed=11
    )
    assert wp.wealth[0] == 0.8
    assert abs(wp.wealth[-1] - 0.8 * math.exp(0.05)) < 1e-4 * 0.8


def test_sigma_scale_invariance_is_bit_exact(single_gen):
    # All coefficients dyadic: doubling sigma (drift adjusted to keep theta
    # fixed) and halving the position leaves u*sigma unchanged, so the paths
    # must coincide bit for bit under the same seed.
    base = make_market(horizon=1.0, initial_wealth=1.0, rates=[0.0], drifts=[0.25], vols=[0.5])
    wide = make_market(horizon=1.0, initial_wealth=1.0, rates=[0.0], drifts=[0.5], vols=[1.0])

    for k in range(3):
        a = simulate_wealth(base, single_gen, constant_policy(1.0), None, 1.0, 256, 3, path_index=k)
        b = simulate_wealth(wide, single_gen, constant_policy(0.5), None, 1.0, 256, 3, path_index=k)
        assert np.array_equal(a.wealth, b.wealth)

    sol_base = solve_phi_psi_chi(base, single_gen, 1.5, 100)
    sol_wide = solve_phi_psi_chi(wide, single_gen, 1.5, 100)
    assert np.array_equal(sol_base.phi, sol_wide.phi)  # phi depends on (r, theta) only
    a = simulate_wealth(base, single_gen, optimal_policy(), sol_base, 1.0, 256, 9)
    b = simulate_wealth(wide, single_gen, optimal_policy(), sol_wide, 1.0, 256, 9)
    assert np.array_equal(a.wealth, b.wealth)
    assert np.array_equal(a.controls, 2.0 * b.controls)


def test_optimal_policy_rides_the_discounted_target(single_market, single_gen, single_sol):
    x_star = math.exp(-0.05)  # d e^{-rT} with d = 1
    for k in range(20):
        wp = simulate_wealth(
            single_market, single_gen, optimal_policy(), single_sol, x_star, 2**14, 21, path_index=k
        )
        assert abs(wp.wealth[-1] - 1.0) < 5e-3


def test_wealth_path_structure(tworeg_market, tworeg_gen, tworeg_sol):
    wp = simulate_wealth(tworeg_market, tworeg_gen, optimal_policy(), tworeg_sol, 1.0, 64, 17)
    assert wp.times[0] == 0.0 and wp.times[-1] == 1.0
    assert np.all(np.diff(wp.times) > 0.0)
    assert wp.wealth.shape == (wp.times.shape[0],)
    assert wp.controls.shape == wp.brownian_increments.shape == wp.regimes.shape
    # chain jump times inside (0, T) appear as grid nodes
    for tau in wp.chain.jump_times:
        if tau < 1.0:
            assert np.any(wp.times == tau)
    # the regime on each cell is the cadlag chain state at the left node
    for c, t_left in enumerate(wp.times[:-1]):
        assert wp.regimes[c] == wp.chain.state_at(float(t_left))
    # previsible controls: u on a cell is the policy at the left node
    pol = compile_policy(optimal_policy(), tworeg_market, tworeg_sol)
    for c, t_left in enumerate(wp.times[:-1]):
        expected = pol(float(t_left), float(wp.wealth[c]), int(wp.regimes[c]))
        assert wp.controls[c] == expected


def test_market_breakpoints_are_grid_nodes(single_gen):
    model = make_market(
        horizon=1.0,
        initial_wealth=1.0,
        rates=[[0.03], [0.07]],
        drifts=[[0.06], [0.16]],
        vols=[[0.3], [0.3]],
        breakpoints=[0.0, 0.3, 1.0],
    )
    # 7 uniform steps put no node at 0.3, so the merge must add it
    wp = simulate_wealth(model, single_gen, constant_policy(0.2), None, 1.0, 7, 1)
    assert np.any(wp.times == 0.3)


def test_brownian_increment_variance_scales_with_cell_length(tworeg_market, tworeg_gen):
    total_sq = 0.0
    total_t = 0.0
    n = 200
    for k in range(n):
        wp = simulate_wealth(
            tworeg_market, tworeg_gen, constant_policy(0.1), None, 1.0, 64, 31, path_index=k
        )
        total_sq += float(np.sum(wp.brownian_increments**2))
        total_t += float(wp.times[-1])
    # chi-square concentration: ~12800 cells, 3 sigma ~ 3.8%
    assert abs(total_sq / total_t - 1.0) < 0.05


def test_estimate_j_deterministic_without_noise(single_gen):
    flat = make_market(
        horizon=1.0, initial_wealth=0.8, rates=[0.05], drifts=[0.05], vols=[0.3]
    )
    est = estimate_J(flat, single_gen, optimal_policy(), 1.0, 64, 4096, seed=1)
    target = -((0.8 * math.exp(0.05) - 1.0) ** 2)
    assert abs(est.mean - target) < 1e-3
    assert est.std_error == 0.0


def test_estimate_j_requires_two_paths(tworeg_market, tworeg_gen):
    with pytest.raises(ValueError):
        estimate_J(tworeg_market, tworeg_gen, constant_policy(0.0), 1.2, 1, 16, seed=0)


def test_estimate_j_reproducible_across_workers(tworeg_market, tworeg_gen, tworeg_sol):
    kw = dict(i0=1, sol=tworeg_sol)
    a = estimate_J(tworeg_market, tworeg_gen, optimal_policy(), 1.2, 4096, 256, 5, **kw)
    b = estimate_J(tworeg_market, tworeg_gen, optimal_policy(), 1.2, 4096, 256, 5, **kw)
    c = estimate_J(
        tworeg_market, tworeg_gen, optimal_policy(), 1.2, 4096, 256, 5, workers=2, **kw
    )
    d = estimate_J(
        tworeg_market, tworeg_gen, optimal_policy(), 1.2, 4096, 256, 5, workers=3, **kw
    )
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    assert (a.mean, a.std_error) == (c.mean, c.std_error)
    assert (a.mean, a.std_error) == (d.mean, d.std_error)


def test_engine_paths_match_single_path_simulator(tworeg_market, tworeg_gen, tworeg_sol):
    compiled, _ = _resolve_policies(
        tworeg_market, tworeg_gen, [optimal_policy()], tworeg_sol, 1.2
    )
    arts = _run_blocks(
        tworeg_market, tworeg_gen, compiled, i0=1, n_paths=128, n_steps=256, seed=13,
    )
    for k in (0, 1, 63, 127):
        wp = simulate_wealth(
            tworeg_market, tworeg_gen, optimal_policy(), tworeg_sol, 1.0, 256, 13, path_index=k
        )
        assert arts.x_final[0][k] == wp.wealth[-1]


@pytest.mark.parametrize("order", ["table_last", "table_middle", "table_only"])
def test_engine_paths_match_single_path_simulator_under_fast_switching(
    fast_market, fast_gen, fast_sol, order
):
    # the engine steps all policies as rows of one array, so the table
    # policy's row must land where it is listed
    n_steps, seed = 32, 41
    opt = optimal_policy()
    table = table_policy(
        [0.0, 0.25, 0.6],
        [0.5, 1.0, 1.5],
        np.linspace(-0.4, 0.5, 27).reshape(3, 3, 3),
    )
    affine = [
        opt,
        constant_policy(0.3),
        shift_policy(opt, 0.1),
        scale_policy(opt, 1.5),
        window_shift_policy(opt, 0.2, 0.1, 0.3001),  # right edge between grid nodes
    ]
    specs = {
        "table_last": [*affine, table],
        "table_middle": [*affine[:2], table, *affine[2:]],
        "table_only": [table],
    }[order]
    compiled, _ = _resolve_policies(fast_market, fast_gen, specs, fast_sol, FAST_D)
    arts = _run_blocks(
        fast_market, fast_gen, compiled, i0=2, n_paths=48, n_steps=n_steps, seed=seed,
    )
    nodes = np.linspace(0.0, 1.0, n_steps + 1)
    jump_bounded = 0  # sub-cells opened and closed by jumps inside one segment
    for k in range(48):
        for j, spec in enumerate(specs):
            wp = simulate_wealth(
                fast_market, fast_gen, spec, fast_sol, 1.0, n_steps, seed, i0=2, path_index=k
            )
            assert arts.x_final[j][k] == wp.wealth[-1], (k, spec.describe())
        off_grid = ~np.isin(wp.times, nodes)
        jump_bounded += int(np.count_nonzero(off_grid[:-1] & off_grid[1:]))
    assert jump_bounded > 20


def test_compare_policies_names_the_policy_that_overflows(fast_market, fast_gen, fast_sol):
    # an infinite control in a row other than 0, after a table policy
    table = table_policy([0.0], [0.0, 2.0], np.zeros((1, 2, 3)))
    alternatives = [
        constant_policy(0.3), table, constant_policy(float("inf")), constant_policy(0.1),
    ]
    overflow = pytest.raises(NonFiniteSolutionError, match=r"'constant\(inf\)'")
    with np.errstate(all="ignore"), overflow:
        compare_policies(
            fast_market, fast_gen, optimal_policy(), alternatives, FAST_D, 64, 8, seed=3,
            sol=fast_sol,
        )


def test_dynkin_accumulator_matches_per_cell_sum(fast_market, fast_gen, fast_sol):
    # Gamma V summed over a path's cells, segment by segment, from its
    # single-path trajectory; a constant control keeps Gamma V away from 0
    n_steps, seed = 16, 7
    spec = constant_policy(0.3)
    compiled, _ = _resolve_policies(fast_market, fast_gen, [spec], fast_sol, FAST_D)
    arts = _run_blocks(
        fast_market, fast_gen, compiled, i0=3, n_paths=12, n_steps=n_steps,
        seed=seed, accumulate=frozenset({"dynkin"}), sol=fast_sol, d=FAST_D, t_end=1.0,
    )
    g = fast_gen.rates
    theta = fast_market.theta()
    nodes = np.linspace(0.0, 1.0, n_steps + 1)
    for k in range(12):
        wp = simulate_wealth(
            fast_market, fast_gen, spec, fast_sol, 1.0, n_steps, seed, i0=3, path_index=k
        )
        total = segment = 0.0
        for c, t in enumerate(wp.times[:-1]):
            x, u, i = wp.wealth[c], wp.controls[c], wp.regimes[c] - 1
            kc = fast_market.cell_index(t)
            r, sg, th = fast_market.rates[kc, i], fast_market.vols[kc, i], theta[kc, i]
            phi, psi, chi = fast_sol.interp(t)
            phi_t, psi_t, chi_t = fast_sol.derivatives(t)
            gamma_v = (
                0.5 * phi_t[i] * x * x + psi_t[i] * x + chi_t[i]
                + (r * x + u * sg * th) * (phi[i] * x + psi[i])
                + 0.5 * u * u * sg * sg * phi[i]
                + 0.5 * (g @ phi)[i] * x * x + (g @ psi)[i] * x + (g @ chi)[i]
            )
            segment += gamma_v * (wp.times[c + 1] - t)
            if np.isin(wp.times[c + 1], nodes):
                total, segment = total + segment, 0.0
        assert arts.dynkin_int[k] == pytest.approx(total, rel=1e-12, abs=1e-15)


def test_integrability_accumulator_matches_per_cell_sum(fast_market, fast_gen, fast_sol):
    # The three integrands summed over a path's cells, segment by segment,
    # from the single-path trajectories of the optimal policy and a shift.
    # Rows come from where the engine takes them: the semigroup (expm) rows
    # at grid nodes, the ODE interpolant at jump times.  The engine expands
    # sum_j g_ij eta_ij^2 as a quadratic in x, which loses a few digits to
    # cancellation (relative gaps up to ~5e-13 on these paths).
    n_steps, seed = 16, 5
    specs = [optimal_policy(), shift_policy(optimal_policy(), 0.1)]
    compiled, _ = _resolve_policies(fast_market, fast_gen, specs, fast_sol, FAST_D)
    arts = _run_blocks(
        fast_market, fast_gen, compiled, i0=2, n_paths=12, n_steps=n_steps,
        seed=seed, accumulate=frozenset({"integrability"}), sol=fast_sol, d=FAST_D,
    )
    g = fast_gen.rates
    nodes = np.linspace(0.0, 1.0, n_steps + 1)
    node_rows = {t: phi_psi_from_oracle(fast_market, fast_gen, FAST_D, t) for t in nodes}
    split_cells = 0
    for k in range(12):
        opt, alt = (
            simulate_wealth(fast_market, fast_gen, sp, fast_sol, 1.0, n_steps, seed, i0=2, path_index=k)
            for sp in specs
        )
        assert np.array_equal(opt.times, alt.times)
        total, segment = np.zeros(3), np.zeros(3)
        for c, t in enumerate(opt.times[:-1]):
            i = opt.regimes[c] - 1
            sg = fast_market.vols[fast_market.cell_index(t), i]
            if t in node_rows:
                phi, psi = node_rows[t]
            else:
                phi, psi, _ = fast_sol.interp(t)
                split_cells += 1
            x, gap_x = opt.wealth[c], opt.wealth[c] - alt.wealth[c]
            gap_u = (opt.controls[c] - alt.controls[c]) * sg
            eta = x * (phi - phi[i]) + (psi - psi[i])  # jump of p_hat from i to each j
            dt = opt.times[c + 1] - t
            segment += dt * np.array([
                (gap_u * (phi[i] * x + psi[i])) ** 2,
                (phi[i] * sg * opt.controls[c] * gap_x) ** 2,
                gap_x * gap_x * float(np.sum(g[i] * eta * eta)),
            ])
            if opt.times[c + 1] in node_rows:
                total, segment = total + segment, np.zeros(3)
        for m in range(3):
            assert arts.integ[m, k] == pytest.approx(total[m], rel=1e-12, abs=1e-15), (k, m)
    assert split_cells > 20


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    n_paths=st.integers(1, 20),
    workers=st.sampled_from([1, 2]),
    block=st.integers(1, 9),
)
def test_paths_depend_only_on_seed_and_index(
    fast_market, fast_gen, fast_sol, seed, n_paths, workers, block
):
    compiled, _ = _resolve_policies(
        fast_market, fast_gen, [optimal_policy(), shift_policy(optimal_policy(), 0.1)],
        fast_sol, FAST_D,
    )
    kw = dict(
        i0=1, n_steps=8, seed=seed, sol=fast_sol, d=FAST_D, t_end=0.5,
        accumulate=frozenset({"bsde", "dynkin", "integrability"}),
    )
    ref = _run_blocks(fast_market, fast_gen, compiled, n_paths=n_paths + 5, **kw)
    with mock.patch.object(simulate, "_BLOCK", block):
        run = _run_blocks(fast_market, fast_gen, compiled, n_paths=n_paths, workers=workers, **kw)
    for name in ("x_final", "integ"):
        assert np.array_equal(getattr(run, name), getattr(ref, name)[:, :n_paths]), name
    for name in ("alpha_final", "n_jumps", "bsde_sum", "bsde_sq", "dynkin_int", "dynkin_vend"):
        assert np.array_equal(getattr(run, name), getattr(ref, name)[:n_paths]), name


def test_solution_for_another_target_is_rejected(tworeg_market, tworeg_gen, tworeg_sol):
    # tworeg_sol is solved for d = 1.2; its policy is not optimal for the loss at d = 1.0
    with pytest.raises(TargetMismatchError):
        estimate_J(
            tworeg_market, tworeg_gen, optimal_policy(), 1.0, 4096, 256, seed=1, sol=tworeg_sol
        )
    with pytest.raises(TargetMismatchError):
        compare_policies(
            tworeg_market, tworeg_gen, optimal_policy(), [constant_policy(0.0)], 1.0, 64, 16,
            seed=1, sol=tworeg_sol,
        )
    # a policy that does not use the solution is unaffected
    est = estimate_J(
        tworeg_market, tworeg_gen, constant_policy(0.1), 1.0, 64, 16, seed=1, sol=tworeg_sol
    )
    assert math.isfinite(est.mean)


def test_compare_policies_identical_alternative_is_exactly_zero(
    tworeg_market, tworeg_gen, tworeg_sol
):
    diffs = compare_policies(
        tworeg_market,
        tworeg_gen,
        optimal_policy(),
        [optimal_policy(), shift_policy(optimal_policy(), 0.0)],
        1.2,
        2048,
        64,
        seed=3,
        sol=tworeg_sol,
    )
    for est in diffs:
        assert est.mean == 0.0
        assert est.std_error == 0.0


def test_compare_policies_detects_doing_nothing(tworeg_market, tworeg_gen, tworeg_sol):
    (diff,) = compare_policies(
        tworeg_market,
        tworeg_gen,
        optimal_policy(),
        [constant_policy(0.0)],
        1.2,
        4096,
        256,
        seed=19,
        sol=tworeg_sol,
    )
    assert diff.mean > 3.0 * diff.std_error > 0.0


def test_perturbation_family_not_better_within_noise(tworeg_market, tworeg_gen, tworeg_sol):
    diffs = compare_policies(
        tworeg_market,
        tworeg_gen,
        optimal_policy(),
        standard_perturbations(1.0),
        1.2,
        4096,
        256,
        seed=23,
        sol=tworeg_sol,
    )
    for est in diffs:
        assert est.mean >= -3.0 * est.std_error


def test_j_discretization_gap_shrinks_as_steps_double(tworeg_market, tworeg_gen, tworeg_sol):
    ests = [
        estimate_J(
            tworeg_market, tworeg_gen, optimal_policy(), 1.2, 20_000, n, seed=29, sol=tworeg_sol
        )
        for n in (64, 128, 256)
    ]
    gap_coarse = abs(ests[0].mean - ests[1].mean)
    gap_fine = abs(ests[1].mean - ests[2].mean)
    noise = 3.0 * math.sqrt(sum(e.std_error**2 for e in ests))
    assert gap_fine <= gap_coarse + noise
