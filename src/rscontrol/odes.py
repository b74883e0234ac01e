"""Backward ODE systems behind the quadratic-loss value function.

With piecewise-constant coefficients and theta = (b - r)/sigma, the value
function of the quadratic-loss problem is V(t, x, i) = phi(t,i) x^2 / 2
+ psi(t,i) x + chi(t,i), where the coefficient triples solve the coupled
linear backward systems (derivatives in t, G the chain rate matrix)

    phi_t + (2r - theta^2) phi + (G phi)_i = 0,          phi(T, i) = -2,
    psi_t + (r - theta^2) psi + (G psi)_i = 0,           psi(T, i) = 2 d,
    chi_t - theta^2 psi^2 / (2 phi) + (G chi)_i = 0,     chi(T, i) = -d^2,

with (G y)_i = sum_j g_ij (y_j - y_i).  The two linear systems admit a
semigroup (Feynman-Kac) representation used here as an independent oracle:

    phi(t, i) = -2 E[ exp{ integral_t^T (2r - theta^2)(s, alpha(s)) ds } | alpha(t) = i ],

and likewise psi with exponent rate r - theta^2 and factor 2d, computed as an
ordered product of matrix exponentials exp((G + diag(c_k)) Delta_k) over the
coefficient cells.  The solver itself is a fixed-step classical Runge-Kutta
scheme run backward from T, with steps aligned to the coefficient cells so no
step straddles a discontinuity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .chain import GeneratorMatrix
from .errors import (
    BadIntervalError,
    DimensionMismatchError,
    NonFiniteSolutionError,
    StateOutOfRangeError,
    TimeOutOfRangeError,
)
from .market import MarketModel

__all__ = [
    "PhiPsiChiSolution",
    "solve_phi_psi_chi",
    "feynman_kac_oracle",
    "phi_psi_from_oracle",
    "value_function",
]


@dataclass(frozen=True)
class PhiPsiChiSolution:
    """Backward-solved coefficient triple on a fixed time grid.

    ``grid`` is ascending from 0 to the horizon and contains every internal
    Runge-Kutta node; ``phi``, ``psi``, ``chi`` have shape (n_nodes, D).
    Values between nodes are linear interpolants.
    """

    model: MarketModel
    gen: GeneratorMatrix
    target: float
    grid: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    chi: np.ndarray

    @property
    def num_states(self) -> int:
        return self.model.num_states

    def _locate(self, t):
        grid = self.grid
        horizon = float(grid[-1])
        t = np.asarray(t, dtype=np.float64)
        bad = (t < -1e-12) | (t > horizon + 1e-12)
        if bad.any():
            raise TimeOutOfRangeError(f"t={t[bad].flat[0]} outside [0, {horizon}]")
        t = np.minimum(np.maximum(t, 0.0), horizon)
        idx = grid.searchsorted(t, side="right") - 1
        idx = np.minimum(np.maximum(idx, 0), grid.shape[0] - 2)
        w = (t - grid[idx]) / (grid[idx + 1] - grid[idx])
        return idx, w[..., None]

    def interp(self, t):
        """(phi, psi, chi) rows at time t: each (D,) for a float t, (N, D) for N times.

        Rows are evaluated elementwise, so a time gives the same bits alone
        or inside an array.
        """
        idx, w = self._locate(t)
        # (1-w) y0 + w y1 recovers node values exactly at w = 0 and w = 1.
        c0, c1 = 1.0 - w, w
        return (
            c0 * self.phi[idx] + c1 * self.phi[idx + 1],
            c0 * self.psi[idx] + c1 * self.psi[idx + 1],
            c0 * self.chi[idx] + c1 * self.chi[idx + 1],
        )

    def derivatives(self, t):
        """(phi_t, psi_t, chi_t) rows at t from the defining equations (shapes as interp)."""
        phi, psi, chi = self.interp(t)
        c2, c1, th2 = _exponent_rates(self.model, self.model.cell_index(t))
        g = self.gen.rates
        phi_t, psi_t = _slopes(c2, c1, phi, psi, _gen_apply(g, phi), _gen_apply(g, psi))
        return phi_t, psi_t, _chi_slope(th2, phi, psi, _gen_apply(g, chi))


def _gen_apply(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """G y for a row y of shape (D,), or for every row of y of shape (N, D).

    The stacked matrix-vector product gives each row the bits of ``g @ row``;
    a batched ``y @ g.T`` rounds differently.
    """
    return np.matmul(g, y[..., None])[..., 0]


def _exponent_rates(model: MarketModel, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-regime (2r - theta^2, r - theta^2, theta^2) on coefficient cell k.

    ``k`` may also be an array of cells or a slice; the result then has one
    row per cell.  Every exponent rate in the package is built here.
    """
    r = model.rates[k]
    th = model.theta(k)
    th2 = th * th
    return 2.0 * r - th2, r - th2, th2


def _slopes(c2, c1, phi, psi, gphi, gpsi):
    """(phi_t, psi_t) from the linear backward systems, given the rows G phi and G psi."""
    return -(c2 * phi + gphi), -(c1 * psi + gpsi)


def _chi_slope(th2, phi, psi, gchi):
    """chi_t from its backward equation, given the row G chi."""
    return 0.5 * th2 * psi * psi / phi - gchi


def _value(phi, psi, chi, x):
    """V = phi x^2 / 2 + psi x + chi from rows (or entries) of the triple."""
    return 0.5 * phi * x * x + psi * x + chi


def _propagate(g: np.ndarray, rates, lengths, terminal: np.ndarray) -> list[np.ndarray]:
    """Backward semigroup products v_k = exp((G + diag c_k) dt_k) v_{k+1}, v_n = terminal.

    ``rates`` (n rows of D) and the n ``lengths`` describe n consecutive
    pieces of constant exponent rate; returns [v_0, ..., v_n].
    """
    v = [terminal]
    for k in range(len(lengths) - 1, -1, -1):
        v.append(expm((g + np.diag(rates[k])) * lengths[k]) @ v[-1])
    return v[::-1]


def solve_phi_psi_chi(
    model: MarketModel,
    gen: GeneratorMatrix,
    d: float,
    steps_per_cell: int = 200,
) -> PhiPsiChiSolution:
    """Integrate the coupled backward systems with fixed-step RK4.

    Terminal values are assigned exactly (phi = -2, psi = 2d, chi = -d^2 in
    every state).  Each coefficient cell is covered by ``steps_per_cell``
    equal steps and all intermediate nodes are retained in the output grid.
    """
    if gen.num_states != model.num_states:
        raise DimensionMismatchError(
            f"generator has {gen.num_states} states, market has {model.num_states}"
        )
    if steps_per_cell < 1:
        raise ValueError(f"steps_per_cell must be >= 1, got {steps_per_cell}")
    d_states = model.num_states
    n_cells = model.num_cells
    g = gen.rates
    n_nodes = n_cells * steps_per_cell + 1
    grid = np.empty(n_nodes)
    phi = np.empty((n_nodes, d_states))
    psi = np.empty((n_nodes, d_states))
    chi = np.empty((n_nodes, d_states))
    grid[-1] = model.breakpoints[-1]
    phi[-1] = -2.0
    psi[-1] = 2.0 * d
    chi[-1] = -d * d

    def rhs(y: np.ndarray, c2: np.ndarray, c1: np.ndarray, th2: np.ndarray) -> np.ndarray:
        f = np.empty_like(y)
        f[0], f[1] = _slopes(c2, c1, y[0], y[1], g @ y[0], g @ y[1])
        f[2] = _chi_slope(th2, y[0], y[1], g @ y[2])
        return f

    y = np.stack([phi[-1], psi[-1], chi[-1]])
    node = n_nodes - 1
    for k in range(n_cells - 1, -1, -1):
        t_left, t_right = model.breakpoints[k], model.breakpoints[k + 1]
        h = -(t_right - t_left) / steps_per_cell
        c2, c1, th2 = _exponent_rates(model, k)
        for m in range(steps_per_cell):
            k1 = rhs(y, c2, c1, th2)
            k2 = rhs(y + 0.5 * h * k1, c2, c1, th2)
            k3 = rhs(y + 0.5 * h * k2, c2, c1, th2)
            k4 = rhs(y + h * k3, c2, c1, th2)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            node -= 1
            # Nodes are spaced from the cell's left edge so boundary nodes land
            # exactly on the breakpoints.
            grid[node] = t_left + (t_right - t_left) * (steps_per_cell - 1 - m) / steps_per_cell
            phi[node], psi[node], chi[node] = y
        grid[node] = t_left
        if not np.isfinite(y).all():
            raise NonFiniteSolutionError(f"backward integration overflowed in cell {k}")
    for arr in (grid, phi, psi, chi):
        arr.flags.writeable = False
    return PhiPsiChiSolution(
        model=model, gen=gen, target=float(d), grid=grid, phi=phi, psi=psi, chi=chi
    )


def feynman_kac_oracle(
    gen: GeneratorMatrix,
    breakpoints: np.ndarray,
    cell_rates: np.ndarray,
    t_from: float,
    t_to: float,
) -> np.ndarray:
    """Closed-form v_i = E[ exp{ integral c(s, alpha(s)) ds } | alpha(t_from) = i ].

    ``cell_rates[k][i]`` is the exponent rate on [breakpoints[k],
    breakpoints[k+1]) in state i+1.  The result is the ordered product of
    exp((G + diag(c_k)) Delta_k) over the cells meeting [t_from, t_to],
    applied to the all-ones vector (earliest cell leftmost).
    """
    breakpoints = np.asarray(breakpoints, dtype=np.float64)
    cell_rates = np.asarray(cell_rates, dtype=np.float64)
    if cell_rates.ndim != 2 or cell_rates.shape[0] != breakpoints.shape[0] - 1:
        raise DimensionMismatchError(
            f"cell_rates shape {cell_rates.shape} inconsistent with {breakpoints.shape[0]} breakpoints"
        )
    if cell_rates.shape[1] != gen.num_states:
        raise DimensionMismatchError(
            f"cell_rates has {cell_rates.shape[1]} states, generator has {gen.num_states}"
        )
    if t_from > t_to:
        raise BadIntervalError(f"need t_from <= t_to, got [{t_from}, {t_to}]")
    if t_from < breakpoints[0] - 1e-12 or t_to > breakpoints[-1] + 1e-12:
        raise BadIntervalError(
            f"[{t_from}, {t_to}] outside the table span [{breakpoints[0]}, {breakpoints[-1]}]"
        )
    rates, lengths = [], []  # the cells meeting [t_from, t_to] and their overlaps
    for k in range(cell_rates.shape[0]):
        a = max(float(breakpoints[k]), t_from)
        b = min(float(breakpoints[k + 1]), t_to)
        if b > a:
            rates.append(cell_rates[k])
            lengths.append(b - a)
    return _propagate(gen.rates, rates, lengths, np.ones(gen.num_states))[0]


def phi_psi_from_oracle(
    model: MarketModel, gen: GeneratorMatrix, d: float, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """(phi, psi) rows at time t via the semigroup representation."""
    c2, c1, _ = _exponent_rates(model, slice(None))  # every cell
    horizon = float(model.breakpoints[-1])
    phi = -2.0 * feynman_kac_oracle(gen, model.breakpoints, c2, t, horizon)
    psi = 2.0 * d * feynman_kac_oracle(gen, model.breakpoints, c1, t, horizon)
    return phi, psi


def value_function(sol: PhiPsiChiSolution, t: float, x: float, i: int) -> float:
    """V(t, x, i) = phi x^2/2 + psi x + chi with linear interpolation in t."""
    if not (1 <= i <= sol.num_states):
        raise StateOutOfRangeError(f"state {i} outside 1..{sol.num_states}")
    phi, psi, chi = sol.interp(t)
    j = i - 1
    return float(_value(phi[j], psi[j], chi[j], x))
