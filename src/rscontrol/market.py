"""Market model with regime- and time-dependent coefficients.

A riskless rate r(t, i), risky drift b(t, i), and volatility sigma(t, i) are
piecewise constant on time cells [t_k, t_{k+1}) given by ``breakpoints`` and
indexed by the chain state i in 1..D.  Cells are right-open except the last,
which is closed so that the horizon T belongs to cell K-1.  The market price
of risk theta = (b - r) / sigma is always derived on the fly from the stored
tables, never cached, so the three tables remain the single source of truth.

Controls are simulated as previsible piecewise-constant processes: the wealth
simulator evaluates u at each grid cell's left endpoint and holds it across
the cell.  At a jump instant the cadlag coefficient path and the previsible
control disagree on a Lebesgue-null set; the discretization applies both at
cell left endpoints and the gap vanishes with the step size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadIntervalError,
    DimensionMismatchError,
    MissingFieldError,
    StateOutOfRangeError,
    TimeOutOfRangeError,
    ZeroVolatilityError,
)

__all__ = [
    "MarketModel",
    "make_market",
    "load_market",
    "coefficients_at",
]

_TIME_TOL = 1e-12


@dataclass(frozen=True)
class MarketModel:
    """Piecewise-constant market coefficients on [0, horizon].

    ``rates``, ``drifts``, ``vols`` all have shape (K, D): one row per time
    cell, one column per chain state.
    """

    num_states: int
    horizon: float
    initial_wealth: float
    breakpoints: np.ndarray  # (K+1,), 0 = t_0 < ... < t_K = horizon
    rates: np.ndarray
    drifts: np.ndarray
    vols: np.ndarray

    @property
    def num_cells(self) -> int:
        return int(self.breakpoints.shape[0] - 1)

    def theta(self, k=slice(None)) -> np.ndarray:
        """Market price of risk (b - r) / sigma on cell k, computed fresh each call.

        The default gives the (K, D) table, an int k one (D,) row and an array
        of cells one row per cell.  This is the only place the formula is
        written; its arithmetic is elementwise, so every form gives the
        entries the same bits.
        """
        return (self.drifts[k] - self.rates[k]) / self.vols[k]

    def cell_index(self, t):
        """Cell k with t in [t_k, t_{k+1}); the last cell also contains T.

        A float t gives an int, an array of times an array of cells.
        """
        t = np.asarray(t, dtype=np.float64)
        bad = (t < -_TIME_TOL) | (t > self.horizon + _TIME_TOL)
        if bad.any():
            raise TimeOutOfRangeError(f"t={t[bad].flat[0]} outside [0, {self.horizon}]")
        k = self.breakpoints.searchsorted(t, side="right") - 1
        k = np.minimum(np.maximum(k, 0), self.num_cells - 1)
        return int(k) if k.ndim == 0 else k


def coefficients_at(model: MarketModel, t: float, i: int) -> tuple[float, float, float, float]:
    """(r, b, sigma, theta) in force at time t in state i (1-based)."""
    if not (1 <= i <= model.num_states):
        raise StateOutOfRangeError(f"state {i} outside 1..{model.num_states}")
    k = model.cell_index(t)
    r = float(model.rates[k, i - 1])
    b = float(model.drifts[k, i - 1])
    sig = float(model.vols[k, i - 1])
    return r, b, sig, float(model.theta(k)[i - 1])


def make_market(
    *,
    horizon: float,
    initial_wealth: float,
    rates,
    drifts,
    vols,
    breakpoints=None,
) -> MarketModel:
    """Build and validate a MarketModel from coefficient tables.

    Tables may be given as (K, D) nested lists or, for a single time cell, as
    flat per-regime lists.  ``breakpoints`` defaults to [0, horizon].
    """
    if horizon <= 0.0:
        raise BadIntervalError(f"horizon must be > 0, got {horizon}")
    rates = _as_table(rates, "rates")
    drifts = _as_table(drifts, "drifts")
    vols = _as_table(vols, "vols")
    if not (rates.shape == drifts.shape == vols.shape):
        raise DimensionMismatchError(
            f"coefficient tables disagree in shape: rates {rates.shape}, "
            f"drifts {drifts.shape}, vols {vols.shape}"
        )
    k, d = rates.shape
    if breakpoints is None:
        bps = np.array([0.0, horizon]) if k == 1 else None
        if bps is None:
            raise MissingFieldError("breakpoints required when tables have more than one cell")
    else:
        bps = np.asarray(breakpoints, dtype=np.float64)
    if bps.ndim != 1 or bps.shape[0] != k + 1:
        raise DimensionMismatchError(
            f"breakpoints has {bps.shape[0] if bps.ndim == 1 else 'bad'} entries, need K+1 = {k + 1}"
        )
    if abs(bps[0]) > _TIME_TOL or abs(bps[-1] - horizon) > _TIME_TOL:
        raise BadIntervalError(f"breakpoints must run from 0 to horizon={horizon}, got {bps}")
    if np.any(np.diff(bps) <= 0.0):
        raise BadIntervalError("breakpoints must be strictly increasing")
    if np.any(vols == 0.0):
        kk, ii = np.argwhere(vols == 0.0)[0]
        raise ZeroVolatilityError(f"sigma is zero in cell {kk}, state {ii + 1}")
    for arr in (rates, drifts, vols, bps):
        arr.flags.writeable = False
    return MarketModel(
        num_states=d,
        horizon=float(horizon),
        initial_wealth=float(initial_wealth),
        breakpoints=bps,
        rates=rates,
        drifts=drifts,
        vols=vols,
    )


def _as_table(raw, name: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be a (K, D) table, got shape {arr.shape}")
    return arr.copy()


def load_market(config: dict) -> MarketModel:
    """Build a MarketModel from a configuration mapping.

    Required keys: ``horizon``, ``initial_wealth``, ``rates``, ``drifts``,
    ``vols``.  Optional: ``breakpoints``, and ``generator`` — when present
    the regime count is cross-checked against the generator's dimension.
    """
    required = ["horizon", "initial_wealth", "rates", "drifts", "vols"]
    for key in required:
        if key not in config:
            raise MissingFieldError(f"market config is missing required field '{key}'")
    model = make_market(
        horizon=config["horizon"],
        initial_wealth=config["initial_wealth"],
        rates=config["rates"],
        drifts=config["drifts"],
        vols=config["vols"],
        breakpoints=config.get("breakpoints"),
    )
    if "generator" in config:
        from .chain import validate_generator

        gen = validate_generator(config["generator"])
        if gen.num_states != model.num_states:
            raise DimensionMismatchError(
                f"market tables have {model.num_states} regimes but the "
                f"generator is {gen.num_states}x{gen.num_states}"
            )
    return model
