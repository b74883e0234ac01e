"""Independent reference solution of the quadratic-loss and frontier problems.

Works from the plain market description (breakpoints, per-cell coefficient
rows, generator matrix) and shares no code with ``rscontrol``:

* ``phi`` and ``psi`` are ordered products of matrix exponentials
  ``expm((G + diag(c_k)) * dt)`` over the coefficient cells, with exponent
  rates ``c = 2r - theta^2`` and ``c = r - theta^2`` (the semigroup form of
  their linear backward equations);
* ``chi`` integrates its backward equation
  ``chi_t = theta^2 psi^2 / (2 phi) - G chi`` with an adaptive
  ``scipy.integrate.solve_ivp`` run, cell by cell, with ``phi`` and ``psi``
  taken from the exponentials at every evaluation point.

From these come ``V(0, x0, i0) = phi x0^2 / 2 + psi x0 + chi`` and the
frontier dual coefficients ``(A, B, C)`` of ``E(X(T) - d)^2 = A + B d + C d^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm


@dataclass(frozen=True)
class Market:
    """Plain market data; states are 0-based rows/columns of the tables."""

    horizon: float
    x0: float
    breakpoints: np.ndarray  # (K+1,)
    rates: np.ndarray  # (K, D)
    drifts: np.ndarray
    vols: np.ndarray
    generator: np.ndarray  # (D, D)


def market_from_config(market: dict, generator) -> Market:
    """Build a :class:`Market` from the CLI-shaped ``market`` section."""
    rates = np.atleast_2d(np.asarray(market["rates"], dtype=float))
    drifts = np.atleast_2d(np.asarray(market["drifts"], dtype=float))
    vols = np.atleast_2d(np.asarray(market["vols"], dtype=float))
    horizon = float(market["horizon"])
    bps = market.get("breakpoints")
    breakpoints = np.array([0.0, horizon]) if bps is None else np.asarray(bps, dtype=float)
    return Market(
        horizon=horizon,
        x0=float(market["initial_wealth"]),
        breakpoints=breakpoints,
        rates=rates,
        drifts=drifts,
        vols=vols,
        generator=np.asarray(generator, dtype=float),
    )


def _cell_rates(m: Market, k: int):
    theta = (m.drifts[k] - m.rates[k]) / m.vols[k]
    th2 = theta * theta
    return 2.0 * m.rates[k] - th2, m.rates[k] - th2, th2


def coefficients_at_zero(m: Market, d: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi, psi, chi) rows at t = 0 for target ``d``."""
    g = m.generator
    n_states = g.shape[0]
    phi = np.full(n_states, -2.0)
    psi = np.full(n_states, 2.0 * d)
    chi = np.full(n_states, -d * d)
    for k in range(m.breakpoints.shape[0] - 2, -1, -1):
        t_lo, t_hi = float(m.breakpoints[k]), float(m.breakpoints[k + 1])
        c2, c1, th2 = _cell_rates(m, k)
        m2 = g + np.diag(c2)
        m1 = g + np.diag(c1)
        phi_hi, psi_hi = phi, psi

        def rhs(t, y, m2=m2, m1=m1, th2=th2, phi_hi=phi_hi, psi_hi=psi_hi, t_hi=t_hi):
            tau = t_hi - t
            ph = expm(m2 * tau) @ phi_hi
            ps = expm(m1 * tau) @ psi_hi
            return 0.5 * th2 * ps * ps / ph - g @ y

        run = solve_ivp(rhs, (t_hi, t_lo), chi, method="DOP853", rtol=1e-13, atol=1e-15)
        if not run.success:
            raise RuntimeError(f"reference chi integration failed on cell {k}: {run.message}")
        chi = run.y[:, -1]
        phi = expm(m2 * (t_hi - t_lo)) @ phi_hi
        psi = expm(m1 * (t_hi - t_lo)) @ psi_hi
    return phi, psi, chi


def value_at_zero(m: Market, d: float, i0: int) -> float:
    """V(0, x0, i0) for the quadratic loss around ``d``; ``i0`` is 1-based."""
    phi, psi, chi = coefficients_at_zero(m, d)
    j = i0 - 1
    return float(0.5 * phi[j] * m.x0 * m.x0 + psi[j] * m.x0 + chi[j])


@dataclass(frozen=True)
class FrontierReference:
    target_mean: float
    lambda_star: float
    min_variance: float


def dual_coefficients(m: Market, i0: int) -> tuple[float, float, float]:
    """(A, B, C) with E(X(T) - d)^2 = A + B d + C d^2 at the optimum."""
    phi, psi, chi = coefficients_at_zero(m, 1.0)
    j = i0 - 1
    return -0.5 * float(phi[j]) * m.x0 * m.x0, -float(psi[j]) * m.x0, -float(chi[j])


def frontier_point(m: Market, a: float, i0: int) -> FrontierReference:
    """Dual maximizer and minimum variance for target mean ``a``.

    g(lam) = A + B (a - lam) + C (a - lam)^2 - lam^2 is a concave quadratic
    when C < 1; its maximizer is lam* = (B + 2 C a) / (2 (C - 1)) and its
    maximum is the minimum variance.
    """
    av, bv, cv = dual_coefficients(m, i0)
    if cv >= 1.0:
        raise ValueError(f"dual is not strictly concave (C = {cv})")
    lam = (bv + 2.0 * cv * a) / (2.0 * (cv - 1.0))
    d = a - lam
    return FrontierReference(a, lam, av + bv * d + cv * d * d - lam * lam)
