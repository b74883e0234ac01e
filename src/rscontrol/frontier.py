"""Mean-variance frontier via Lagrangian reduction to quadratic loss.

Minimizing var X(T) subject to E X(T) = a reduces to the inner problem
min_u E(X(T) - d)^2 with shifted target d = a - lambda, followed by an outer
maximization of g(lambda) = inner_value(a - lambda) - lambda^2.  Because psi
scales linearly and chi quadratically in d, inner_value is an explicit
quadratic A + B d + C d^2 with

    A = -phi(0,i0) x0^2 / 2,   B = -psi_bar(0,i0) x0,   C = -chi_bar(0,i0),

where psi_bar, chi_bar come from one solve at unit target.  Hence g is a
quadratic in lambda with second derivative 2(C - 1); it is strictly concave
exactly when C < 1, which holds whenever the market price of risk is not
identically zero.  At theta == 0 the terminal wealth is deterministic, C
hits 1, and the dual degenerates — reported as DegenerateDualError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import GeneratorMatrix
from .control import optimal_policy
from .errors import DegenerateDualError
from .market import MarketModel
from .odes import solve_phi_psi_chi, value_function
from .simulate import _resolve_policies, _run_blocks

__all__ = [
    "FrontierPoint",
    "inner_value",
    "solve_frontier_point",
    "dual_lambda_golden",
]

_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class FrontierPoint:
    """One point of the mean-variance frontier.

    ``min_variance`` is the analytic dual value; the ``sim_*`` fields are the
    Monte Carlo counterparts under the induced policy.
    """

    target_mean: float
    lambda_star: float
    effective_target: float
    min_variance: float
    achieved_mean: float
    mean_std_error: float
    sim_variance: float
    sim_variance_std_error: float
    n_paths: int
    seed: int


def inner_value(
    model: MarketModel,
    gen: GeneratorMatrix,
    d: float,
    *,
    i0: int = 1,
    steps_per_cell: int = 200,
) -> float:
    """Optimal quadratic loss E(X_hat(T) - d)^2 = -V(0, x0, i0), analytically."""
    sol = solve_phi_psi_chi(model, gen, d, steps_per_cell)
    return -value_function(sol, 0.0, model.initial_wealth, i0)


def _dual_coefficients(
    model: MarketModel,
    gen: GeneratorMatrix,
    *,
    i0: int,
    steps_per_cell: int,
) -> tuple[float, float, float]:
    """(A, B, C) of inner_value(d) = A + B d + C d^2 from one unit-target solve."""
    sol = solve_phi_psi_chi(model, gen, 1.0, steps_per_cell)
    phi0, psi0, chi0 = (row[i0 - 1] for row in sol.interp(0.0))
    x0 = model.initial_wealth
    return -0.5 * float(phi0) * x0 * x0, -float(psi0) * x0, -float(chi0)


def _dual_value(a: float, coeffs, lam):
    """g(lambda) = inner_value(a - lam) - lam^2, in the dtype of lam."""
    av, bv, cv = coeffs
    d = a - lam
    return av + bv * d + cv * d * d - lam * lam


def solve_frontier_point(
    model: MarketModel,
    gen: GeneratorMatrix,
    a: float,
    *,
    i0: int = 1,
    n_paths: int = 100_000,
    n_steps: int = 4096,
    seed: int = 0,
    steps_per_cell: int = 200,
    workers: int = 1,
) -> FrontierPoint:
    """Frontier point at target mean ``a``: closed-form dual, then simulation.

    The induced policy is exactly the quadratic-loss optimal policy at
    d = a - lambda_star (same code path, no separate formula); achieved mean
    and variance are estimated on ``n_paths`` paths.
    """
    av, bv, cv = _dual_coefficients(model, gen, i0=i0, steps_per_cell=steps_per_cell)
    curvature = 2.0 * (cv - 1.0)
    if curvature >= -_DEGENERACY_TOL:
        raise DegenerateDualError(
            "dual quadratic is not strictly concave: the market price of risk "
            "vanishes identically and only the risk-free mean is attainable"
        )
    lam = (bv + 2.0 * cv * a) / (2.0 * (cv - 1.0))
    d_eff = a - lam
    var_analytic = float(_dual_value(a, (av, bv, cv), lam))

    sol = solve_phi_psi_chi(model, gen, d_eff, steps_per_cell)
    compiled, _ = _resolve_policies(model, gen, [optimal_policy()], sol, d_eff)
    arts = _run_blocks(
        model, gen, compiled, i0=i0, n_paths=n_paths, n_steps=n_steps, seed=seed, workers=workers,
    )
    xt = arts.x_final[0]
    mean = float(np.mean(xt))
    centered = xt - mean
    var = float(np.sum(centered * centered) / (n_paths - 1))
    m4 = float(np.mean(centered**4))
    mean_se = math.sqrt(var / n_paths)
    var_se = math.sqrt(max(m4 - var * var, 0.0) / n_paths)
    return FrontierPoint(
        target_mean=a,
        lambda_star=lam,
        effective_target=d_eff,
        min_variance=var_analytic,
        achieved_mean=mean,
        mean_std_error=mean_se,
        sim_variance=var,
        sim_variance_std_error=var_se,
        n_paths=n_paths,
        seed=seed,
    )


def dual_lambda_golden(
    model: MarketModel,
    gen: GeneratorMatrix,
    a: float,
    *,
    i0: int = 1,
    steps_per_cell: int = 200,
    tol: float = 1e-10,
) -> float:
    """Golden-section maximizer of the dual quadratic, for cross-validation.

    Searches [-10|a|, 10|a|] (widened to [-10, 10] near a = 0).  Evaluates in
    extended precision: near the flat top of a quadratic, float64 evaluation
    plateaus at ~1e-8 argument resolution, which would mask agreement with
    the closed form at tighter tolerances.
    """
    coeffs = tuple(np.longdouble(c) for c in _dual_coefficients(
        model, gen, i0=i0, steps_per_cell=steps_per_cell
    ))
    scale = max(abs(a), 1.0)
    lo = np.longdouble(-10.0 * scale)
    hi = np.longdouble(10.0 * scale)
    a_ld = np.longdouble(a)
    inv_phi = (np.longdouble(5.0) ** np.longdouble(0.5) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc = _dual_value(a_ld, coeffs, c)
    fd = _dual_value(a_ld, coeffs, d)
    while float(hi - lo) > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = _dual_value(a_ld, coeffs, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = _dual_value(a_ld, coeffs, d)
    return float((lo + hi) / 2.0)
