"""Runnable checks for the optimality conditions and martingale structure.

Each check produces a :class:`CheckReport` normalized so that *smaller is
better*: ``passed`` iff ``statistic <= threshold``.  Exact algebraic
identities use absolute thresholds near machine precision; statistical
checks use three standard errors (plus a tiny absolute floor so that
degenerate deterministic cases, where the standard error collapses to zero,
are judged against discretization error rather than against exactly zero).

The suite also runs two deliberate-misuse checks: a corrupted solution and a
time-reversed martingale evaluation.  Their reports *pass when the
underlying check fails*, demonstrating that the suite can detect violations
rather than merely confirm successes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import (
    GeneratorMatrix,
    _batches,
    _mean_se,
    _mean_se_of_sums,
    _running_sum,
    path_integrals,
)
from .control import optimal_policy, shift_policy
from .errors import BadIntervalError, StateOutOfRangeError, TimeOutOfRangeError
from .market import MarketModel, coefficients_at
from .odes import PhiPsiChiSolution, _exponent_rates, solve_phi_psi_chi, value_function
from .simulate import _run_blocks

__all__ = [
    "CheckReport",
    "check_hamiltonian_maximum",
    "check_dp_connection",
    "check_adjoint_bsde",
    "check_chain_martingales",
    "check_rs_martingales",
    "check_dynkin",
    "check_integrability",
    "run_all_checks",
]

_HUGE = 1e300  # finite sentinel for "detection failed" in inverted checks
_HAMILTONIAN_GRID = (50, 21)  # (t, x) points of check_hamiltonian_maximum
_DP_GRID = (10, 7)  # (t, x) points of check_dp_connection
_ORDER_PATHS = 2_000  # most paths of each run of the residual-order check


@dataclass(frozen=True)
class CheckReport:
    check_name: str
    statistic: float
    threshold: float
    passed: bool
    detail: str = ""


def _mk(check_name: str, statistic: float, threshold: float, detail: str = "") -> CheckReport:
    statistic = float(statistic)
    threshold = float(threshold)
    return CheckReport(check_name, statistic, threshold, statistic <= threshold, detail)


# ---------------------------------------------------------------------------
# deterministic identity checks
# ---------------------------------------------------------------------------


def _default_x_grid(model: MarketModel, x_points: int) -> np.ndarray:
    x0 = model.initial_wealth
    return np.linspace(x0 - 0.5, x0 + 0.5, x_points)


def check_hamiltonian_maximum(
    sol: PhiPsiChiSolution,
    model: MarketModel,
    *,
    policy_sol: PhiPsiChiSolution | None = None,
) -> CheckReport:
    """First-order optimality: the control coefficient of H vanishes at the
    candidate optimum, i.e. max over a (t, x, i) grid of
    |phi*sigma*u_hat + theta*(phi*x + psi)|.  The grid has 50 times on
    [0, T] and 21 wealths on [x0 - 0.5, x0 + 0.5].

    ``policy_sol`` lets the candidate control be computed from a different
    solution than the one supplying (phi, psi); the suite's corrupted-psi
    negative control uses this to break the identity on purpose.
    """
    if policy_sol is None:
        policy_sol = sol
    t_points, x_points = _HAMILTONIAN_GRID
    xs = _default_x_grid(model, x_points)
    worst = 0.0
    worst_at = (0.0, 1)
    for t in np.linspace(0.0, model.horizon, t_points):
        t = float(t)
        phi, psi, _ = sol.interp(t)
        phi_u, psi_u, _ = policy_sol.interp(t)
        for i in range(1, model.num_states + 1):
            _, _, sg, th = coefficients_at(model, t, i)
            u_hat = -(th / sg) * (xs + psi_u[i - 1] / phi_u[i - 1])
            stat = np.max(np.abs(phi[i - 1] * sg * u_hat + th * (phi[i - 1] * xs + psi[i - 1])))
            if stat > worst:
                worst, worst_at = float(stat), (t, i)
    return _mk(
        "hamiltonian_max_coefficient",
        worst,
        1e-10,
        f"max over {t_points}x{x_points}x{model.num_states} grid, worst at t={worst_at[0]:.4g} i={worst_at[1]}",
    )


def check_dp_connection(
    sol: PhiPsiChiSolution,
    model: MarketModel,
) -> list[CheckReport]:
    """Identities tying the adjoint triple to the value function.

    (a) p_hat equals V_x = phi*x + psi; (b) q_hat equals (sigma*u_hat)*V_xx
    with V_xx = phi; (c) eta_hat_ij equals V_x(t,x,j) - V_x(t,x,i); plus a
    central-difference cross-check of V_x against value_function.  The grid
    has 10 times on [0, T] and 7 wealths on [x0 - 0.5, x0 + 0.5].
    """
    from .control import adjoint_closed_form, optimal_control

    t_points, x_points = _DP_GRID
    xs = _default_x_grid(model, x_points)
    d_states = model.num_states
    stat_p = stat_q = stat_eta = stat_fd = 0.0
    h = 1e-5
    for t in np.linspace(0.0, model.horizon, t_points):
        t = float(t)
        phi, psi, _ = sol.interp(t)
        for i in range(1, d_states + 1):
            _, _, sg, _ = coefficients_at(model, t, i)
            for x in xs:
                x = float(x)
                triple = adjoint_closed_form(sol, t, x, i)
                vx = phi[i - 1] * x + psi[i - 1]
                stat_p = max(stat_p, abs(triple.p - vx))
                u_hat = optimal_control(sol, t, x, i)
                stat_q = max(stat_q, abs(triple.q - sg * u_hat * phi[i - 1]))
                for j in range(1, d_states + 1):
                    gap = (phi[j - 1] * x + psi[j - 1]) - (phi[i - 1] * x + psi[i - 1])
                    stat_eta = max(stat_eta, abs(triple.eta[i - 1, j - 1] - gap))
                fd = (value_function(sol, t, x + h, i) - value_function(sol, t, x - h, i)) / (2 * h)
                stat_fd = max(stat_fd, abs(fd - vx))
    grid = f"{t_points}x{x_points}x{d_states} grid"
    return [
        _mk("dp_p_equals_vx", stat_p, 1e-12, grid),
        _mk("dp_q_relation", stat_q, 1e-10, grid),
        _mk("dp_eta_jump_identity", stat_eta, 1e-12, grid),
        _mk("dp_vx_finite_difference", stat_fd, 1e-6, f"{grid}, step {h:g}"),
    ]


# ---------------------------------------------------------------------------
# simulation-based checks
# ---------------------------------------------------------------------------


def check_adjoint_bsde(
    sol: PhiPsiChiSolution,
    model: MarketModel,
    gen: GeneratorMatrix,
    n_paths: int,
    n_steps: int,
    seed: int,
    *,
    i0: int = 1,
    workers: int = 1,
) -> list[CheckReport]:
    """Discrete residual of the adjoint backward equation along the optimum.

    Per merged-grid cell the residual is dp_hat + r*p_hat*dt - q_hat*dW -
    sum eta_hat*dM; the dt-integrands use the trapezoidal rule within the
    cell so that the summed residual is an unbiased martingale sum up to
    O(dt^2).  Reports: (a) terminal condition p_hat(T) vs -2(X(T)-d),
    (b) mean of per-path summed residuals vs 0, (c) per-cell RMS residual
    decay when the step count doubles, on the first min(n_paths, 2000)
    paths.
    """
    run = dict(i0=i0, seed=seed, workers=workers, accumulate=frozenset({"bsde"}), sol=sol)
    arts = _run_blocks(model, gen, [optimal_policy()], n_paths=n_paths, n_steps=n_steps, **run)
    mean, se = _mean_se(arts.bsde_sum)
    reports = [
        _mk(
            "bsde_terminal_condition",
            arts.bsde_terminal_gap,
            1e-12,
            f"max |p_hat(T) + 2(X(T)-d)| over {n_paths} paths",
        ),
        _mk(
            "bsde_mean_residual",
            abs(mean),
            3.0 * se + 1e-9,
            f"mean {mean:.3e}, se {se:.3e}, {n_paths} paths x {n_steps} steps",
        ),
    ]
    n_ord = min(n_paths, _ORDER_PATHS)
    rms = []
    for steps in (n_steps, 2 * n_steps):
        a = _run_blocks(model, gen, [optimal_policy()], n_paths=n_ord, n_steps=steps, **run)
        rms.append(math.sqrt(float(np.mean(a.bsde_sq)) / a.n_segments))
    ratio = rms[1] / rms[0] if rms[0] > 0.0 else 0.0
    reports.append(
        _mk(
            "bsde_residual_order",
            ratio,
            0.6,
            f"cell RMS {rms[0]:.3e} -> {rms[1]:.3e} as steps double ({n_ord} paths)",
        )
    )
    return reports


def check_chain_martingales(
    gen: GeneratorMatrix,
    horizon: float,
    n_paths: int,
    seed: int,
    *,
    i0: int = 1,
) -> list[CheckReport]:
    """E M_ij(T) = 0 for every ordered pair, at three standard errors."""
    d_states = gen.num_states
    sums = np.zeros((d_states, d_states))
    sums2 = np.zeros((d_states, d_states))
    for batch in _batches(gen, i0, horizon, seed, n_paths):
        _, m = batch.compensated_counts(gen)
        sums = _running_sum(sums, m)
        sums2 = _running_sum(sums2, m * m)
    reports = []
    for i in range(d_states):
        for j in range(d_states):
            if i == j:
                continue
            mean, se = _mean_se_of_sums(sums[i, j], sums2[i, j], n_paths)
            reports.append(
                _mk(
                    f"chain_martingale_M_{i + 1}_{j + 1}",
                    abs(mean),
                    3.0 * se + 1e-12,
                    f"pair ({i + 1},{j + 1}), mean {mean:.3e}, se {se:.3e}, {n_paths} paths",
                )
            )
    return reports


def _validate_check_times(check_times, horizon: float) -> None:
    """Check times must increase strictly within (0, horizon].

    The chain is frozen after the horizon, so an increment past it is not an
    increment of the martingale.
    """
    if len(check_times) == 0:
        raise BadIntervalError("check_times is empty")
    for t in check_times:
        if not (0.0 < t <= horizon):
            raise TimeOutOfRangeError(f"check time {t} outside (0, {horizon}]")
    if any(b <= a for a, b in zip(check_times[:-1], check_times[1:])):
        raise BadIntervalError(f"check times must increase strictly, got {list(check_times)}")


def check_rs_martingales(
    sol: PhiPsiChiSolution,
    model: MarketModel,
    gen: GeneratorMatrix,
    n_paths: int,
    seed: int,
    *,
    i0: int = 1,
    check_times: list[float] | None = None,
    reverse_time: bool = False,
) -> list[CheckReport]:
    """Mean-zero increments of the exponential-functional martingales.

    R(t) = -1/2 * phi_tilde(t, alpha(t)) * exp(int_0^t (2r - theta^2)) with
    phi_tilde = -phi/2, and S(t) is the analogue built from psi with exponent
    rate r - theta^2.  Both are Doob martingales of exponential path
    functionals, so E[increment] = 0 between any two check times.

    ``check_times`` must increase strictly within (0, T] (default T/4, T/2,
    3T/4, T); a time outside raises :class:`TimeOutOfRangeError`, times out
    of order :class:`BadIntervalError`.

    ``reverse_time=True`` evaluates the exponential over [t, T] instead of
    [0, t].  That deliberately breaks the martingale property and exists as
    the suite's negative control.
    """
    t_hor = model.horizon
    if check_times is None:
        check_times = [0.25 * t_hor, 0.5 * t_hor, 0.75 * t_hor, t_hor]
    _validate_check_times(check_times, t_hor)
    times = [0.0, *check_times]
    c2, c1, _ = _exponent_rates(model, slice(None))  # every cell
    rates = np.stack([c2, c1], axis=-1)
    rows = [sol.interp(t) for t in times]
    phi = np.array([row[0] for row in rows])
    psi = np.array([row[1] for row in rows])
    cols = np.arange(len(times))
    n_inc = len(times) - 1
    inc_sum = np.zeros((2, n_inc))
    inc_sum2 = np.zeros((2, n_inc))
    for batch in _batches(gen, i0, t_hor, seed, n_paths):
        st, ints = path_integrals(batch, model.breakpoints, rates, [*times, t_hor])
        st = st[:, :-1]
        expo = ints[:, -1:] - ints[:, :-1] if reverse_time else ints[:, :-1]
        # math.exp elementwise: np.exp rounds differently on some inputs,
        # which would change the reported statistics
        e = np.array([math.exp(v) for v in expo.ravel().tolist()]).reshape(expo.shape)
        r_val = -0.5 * (-0.5 * phi[cols, st]) * e[..., 0]
        s_val = 0.5 * psi[cols, st] * e[..., 1]
        inc = np.diff(np.stack([r_val, s_val], axis=1), axis=2)  # (paths, 2, n_inc)
        inc_sum = _running_sum(inc_sum, inc)
        inc_sum2 = _running_sum(inc_sum2, inc * inc)
    suffix = "_reversed" if reverse_time else ""
    reports = []
    for row, label in ((0, "R"), (1, "S")):
        stat, thr, where = 0.0, 1e-7, "none"
        for m in range(n_inc):
            mean, se = _mean_se_of_sums(inc_sum[row, m], inc_sum2[row, m], n_paths)
            margin_stat, margin_thr = abs(mean), 3.0 * se + 1e-7
            # keep the interval with the worst margin
            if margin_stat * thr > stat * margin_thr:
                stat, thr = margin_stat, margin_thr
                where = f"[{times[m]:.4g},{times[m + 1]:.4g}]"
        reports.append(
            _mk(
                f"rs_martingale_{label}{suffix}",
                stat,
                thr,
                f"worst increment on {where}, {n_paths} paths",
            )
        )
    return reports


def check_dynkin(
    model: MarketModel,
    gen: GeneratorMatrix,
    sol: PhiPsiChiSolution,
    t_end: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    *,
    i0: int = 1,
    workers: int = 1,
) -> CheckReport:
    """E[V(t_end, X, alpha)] - V(0, x0, i0) vs E int_0^t_end Gamma V ds.

    Gamma is the full generator of (t, X, alpha): time derivative, drift and
    diffusion terms in x, plus the chain coupling sum g_ij (V(j) - V(i)).
    Under the optimal control Gamma V vanishes identically, so both sides
    are near zero; the check compares them pathwise for a paired estimate.
    """
    arts = _run_blocks(
        model, gen, [optimal_policy()], i0=i0, n_paths=n_paths, n_steps=n_steps, seed=seed,
        workers=workers, accumulate=frozenset({"dynkin"}), sol=sol, t_end=t_end,
    )
    v0 = value_function(sol, 0.0, model.initial_wealth, i0)
    diff = arts.dynkin_vend - v0 - arts.dynkin_int
    mean, se = _mean_se(diff)
    return _mk(
        "dynkin_identity",
        abs(mean),
        3.0 * se + 1e-4,
        f"t_end={t_end:g}, mean gap {mean:.3e}, se {se:.3e}, {n_paths} paths",
    )


def check_integrability(
    model: MarketModel,
    gen: GeneratorMatrix,
    d: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    *,
    i0: int = 1,
    perturbation=None,
    sol: PhiPsiChiSolution | None = None,
    workers: int = 1,
) -> list[CheckReport]:
    """Stability proxies for the three square-integrability conditions.

    The integrals E int (sigma(X_hat)-sigma(X))^T p_hat)^2, E int (q_hat^T
    (X_hat - X))^2, and the eta_hat counterpart weighted by the martingale
    brackets (lambda_ij dt) are estimated under the optimal control paired
    with one comparison control.  No finite simulation can prove
    finiteness; the operational check is that the estimate at n paths sits
    within 20% of the estimate over the first n/2 paths.  The comparison
    family is finite, which the report states explicitly.
    """
    if perturbation is None:
        perturbation = shift_policy(optimal_policy(), 0.1)
    arts = _run_blocks(
        model, gen, [optimal_policy(), perturbation], i0=i0, n_paths=n_paths, n_steps=n_steps,
        seed=seed, workers=workers, accumulate=frozenset({"integrability"}), sol=sol, d=d,
    )
    names = ("integrability_sigma_term", "integrability_q_term", "integrability_eta_term")
    half = max(n_paths // 2, 1)
    reports = []
    for k, name in enumerate(names):
        vals = arts.integ[k]
        full = float(np.mean(vals))
        head = float(np.mean(vals[:half]))
        if not (math.isfinite(full) and math.isfinite(head)):
            reports.append(_mk(name, _HUGE, 0.2, "estimate not finite"))
            continue
        if max(abs(full), abs(head)) < 1e-14:
            reports.append(
                _mk(name, 0.0, 0.2, "integrand identically zero (comparison equals optimum)")
            )
            continue
        stat = abs(full / head - 1.0)
        reports.append(
            _mk(
                name,
                stat,
                0.2,
                f"estimate {full:.4e} vs first-half {head:.4e}; "
                "stability proxy over a finite comparison family",
            )
        )
    return reports


# ---------------------------------------------------------------------------
# the full suite, including negative controls
# ---------------------------------------------------------------------------


def _invert(name: str, inner: CheckReport, detail: str) -> CheckReport:
    """Report that passes exactly when the inner check failed (detection)."""
    if inner.statistic <= 0.0:
        return _mk(name, _HUGE, 0.5, detail + " — violation went undetected")
    ratio = inner.threshold / inner.statistic
    return _mk(
        name,
        min(ratio, _HUGE),
        0.5,
        f"{detail}; corrupted statistic {inner.statistic:.3e} vs threshold {inner.threshold:.3e}",
    )


def run_all_checks(
    model: MarketModel,
    gen: GeneratorMatrix,
    d: float,
    *,
    i0: int = 1,
    n_paths: int = 100_000,
    n_steps: int = 4096,
    steps_per_cell: int = 200,
    seed: int = 0,
    workers: int = 1,
    sol: PhiPsiChiSolution | None = None,
) -> list[CheckReport]:
    """Run the complete verification suite, negative controls included, and return all reports.

    Sub-checks draw from fixed seed offsets so the whole suite is
    reproducible from the single master seed.
    """
    if not (1 <= i0 <= model.num_states):
        raise StateOutOfRangeError(f"state {i0} outside 1..{model.num_states}")
    if sol is None:
        sol = solve_phi_psi_chi(model, gen, d, steps_per_cell)
    reports: list[CheckReport] = []
    reports.append(check_hamiltonian_maximum(sol, model))
    reports.extend(check_dp_connection(sol, model))
    reports.extend(
        check_chain_martingales(gen, model.horizon, n_paths, seed + 11, i0=i0)
    )
    reports.extend(
        check_rs_martingales(sol, model, gen, n_paths, seed + 23, i0=i0)
    )
    reports.extend(
        check_adjoint_bsde(sol, model, gen, n_paths, n_steps, seed + 37, i0=i0, workers=workers)
    )
    reports.append(
        check_dynkin(model, gen, sol, model.horizon, n_paths, n_steps, seed + 41, i0=i0, workers=workers)
    )
    reports.extend(
        check_integrability(
            model, gen, d, n_paths, n_steps, seed + 53, i0=i0, sol=sol, workers=workers
        )
    )
    psi_c = sol.psi.copy()
    psi_c[:, 0] = psi_c[:, 0] + 0.01
    sol_c = replace(sol, psi=psi_c)
    inner = check_hamiltonian_maximum(sol, model, policy_sol=sol_c)
    reports.append(
        _invert(
            "negative_control_corrupted_psi",
            inner,
            "psi shifted by 0.01 in regime 1 for the candidate control",
        )
    )
    n_rev = min(n_paths, 20_000)
    rev = check_rs_martingales(
        sol, model, gen, n_rev, seed + 61, i0=i0, reverse_time=True
    )
    reports.append(
        _invert(
            "negative_control_time_reversed_R",
            rev[0],
            "R evaluated with the exponential over [t,T]",
        )
    )
    return reports
