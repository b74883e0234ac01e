"""Continuous-time Markov chains on a finite state space.

The chain alpha(t) lives on states labeled 1..D and is specified by a rate
matrix G with g_ij >= 0 for i != j and vanishing row sums.  For each ordered
pair (i, j), i != j, the counting process

    N_ij(t) = #{ s in (0, t] : alpha(s-) = i, alpha(s) = j }

has intensity lambda_ij(t) = g_ij * 1{alpha(t-) = i}, and the compensated
process M_ij(t) = N_ij(t) - integral_0^t lambda_ij(s) ds is a purely
discontinuous square-integrable martingale; distinct pairs are orthogonal.
Everything here computes those objects exactly: paths are sampled by exact
(event-driven) simulation and compensators are occupation times scaled by
rates, with no time discretization anywhere.

Randomness is counter-based: every path draws from its own Philox stream keyed
by (master seed, path index), so a path's law never depends on how many other
paths are drawn, in which order, or on how work is split across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidInitialStateError,
    NegativeOffDiagonalError,
    NegativeTimeError,
    NonSquareMatrixError,
    RowSumError,
    StateOutOfRangeError,
)

__all__ = [
    "GeneratorMatrix",
    "ChainPath",
    "CountingRecord",
    "validate_generator",
    "transition_matrix",
    "sample_path",
    "counting_record",
    "path_stream",
    "integrate_rates",
]

_ROW_SUM_TOL = 1e-12
_POISSON_TAIL = 1e-14

# Sub-stream tags for the per-path Philox keys.  The chain stream is consumed
# by exact path simulation; the noise stream feeds Brownian increments in the
# wealth simulator.  Keeping them separate makes chain paths invariant under
# changes of n_steps or policy.
CHAIN_STREAM = 0
NOISE_STREAM = 1


def path_stream(seed: int, path_index: int, stream: int = CHAIN_STREAM) -> np.random.Generator:
    """Counter-based RNG for one path: key = (master seed, 2*path_index + stream)."""
    if path_index < 0:
        raise ValueError(f"path_index must be >= 0, got {path_index}")
    key = [seed % (2**64), 2 * path_index + stream]
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class GeneratorMatrix:
    """Validated rate matrix of a continuous-time Markov chain."""

    rates: np.ndarray  # (D, D), read-only, rows sum to exactly zero

    @property
    def num_states(self) -> int:
        return self.rates.shape[0]

    def exit_rate(self, i: int) -> float:
        """Total rate -g_ii out of state i (1-based label)."""
        return float(-self.rates[i - 1, i - 1])


def validate_generator(raw) -> GeneratorMatrix:
    """Validate a raw rate matrix and return it with the diagonal recomputed.

    Checks, in order: the matrix is square; off-diagonal entries are
    nonnegative; each row sums to zero within 1e-12.  The diagonal is then
    *recomputed* as minus the off-diagonal row sum so that row sums vanish in
    exact floating point, which downstream code (compensators, uniformization)
    relies on.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSquareMatrixError(f"rate matrix must be square, got shape {arr.shape}")
    d = arr.shape[0]
    off = arr.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0.0):
        i, j = np.argwhere(off < 0.0)[0]
        raise NegativeOffDiagonalError(
            f"off-diagonal rate g[{i + 1},{j + 1}] = {arr[i, j]} is negative"
        )
    row_sums = arr.sum(axis=1)
    bad = np.abs(row_sums) > _ROW_SUM_TOL
    if np.any(bad):
        i = int(np.argmax(np.abs(row_sums)))
        raise RowSumError(f"row {i + 1} sums to {row_sums[i]:.3e}, must be 0 within {_ROW_SUM_TOL}")
    clean = off
    np.fill_diagonal(clean, -off.sum(axis=1))
    clean.flags.writeable = False
    return GeneratorMatrix(rates=clean)


def transition_matrix(gen: GeneratorMatrix, t: float) -> np.ndarray:
    """Transition probabilities P(t) = exp(G t) by uniformization.

    With Lambda = max_i(-g_ii) and the stochastic matrix P = I + G/Lambda,

        exp(G t) = sum_{k>=0} pois(k; Lambda t) P^k,

    truncated once the accumulated Poisson mass leaves a tail below 1e-14.
    Every partial sum is a product of nonnegative terms, so the result is
    nonnegative by construction; rows sum to 1 up to the discarded tail.
    """
    if t < 0.0:
        raise NegativeTimeError(f"time must be >= 0, got {t}")
    d = gen.num_states
    g = gen.rates
    lam = float(np.max(-np.diag(g)))
    if t == 0.0 or lam == 0.0:
        return np.eye(d)
    if lam * t > 64.0:
        # Scaling-and-squaring keeps the series short and the weights in range.
        half = transition_matrix(gen, t / 2.0)
        out = half @ half
        return _clamp_stochastic(out)
    p_unif = np.eye(d) + g / lam
    weight = float(np.exp(-lam * t))
    power = np.eye(d)
    out = weight * power
    accumulated = weight
    k = 0
    while 1.0 - accumulated > _POISSON_TAIL:
        k += 1
        power = power @ p_unif
        weight *= lam * t / k
        out += weight * power
        accumulated += weight
        if k > 100_000:  # pragma: no cover - unreachable at sane rate*time scales
            break
    return _clamp_stochastic(out)


def _clamp_stochastic(p: np.ndarray) -> np.ndarray:
    p = np.where((p < 0.0) & (p > -1e-12), 0.0, p)
    return np.minimum(p, 1.0)


@dataclass(frozen=True)
class ChainPath:
    """One realized trajectory of the chain on [0, horizon].

    ``jump_times`` is strictly increasing in (0, horizon]; ``jump_states[k]``
    is the state entered at ``jump_times[k]``.  States are 1-based labels.
    The path is right-continuous with left limits.
    """

    initial_state: int
    horizon: float
    jump_times: np.ndarray  # (n_jumps,), float64
    jump_states: np.ndarray  # (n_jumps,), int64, 1-based

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.shape[0])

    def state_at(self, t: float) -> int:
        """State alpha(t) (right-continuous version)."""
        k = int(np.searchsorted(self.jump_times, t, side="right"))
        return self.initial_state if k == 0 else int(self.jump_states[k - 1])

    def occupation_times(self, t: float, num_states: int) -> np.ndarray:
        """Lebesgue time spent in each state on [0, min(t, horizon)]."""
        out = np.zeros(num_states)
        t = min(t, self.horizon)
        prev, state = 0.0, self.initial_state
        for tau, nxt in zip(self.jump_times, self.jump_states):
            if tau >= t:
                break
            out[state - 1] += tau - prev
            prev, state = float(tau), int(nxt)
        out[state - 1] += max(t - prev, 0.0)
        return out


class _ChainSampler:
    """Precomputed jump tables for exact simulation of one generator."""

    def __init__(self, gen: GeneratorMatrix):
        g = gen.rates
        d = gen.num_states
        self.exit_rates = -np.diag(g)
        with np.errstate(divide="ignore"):
            self.scales = np.where(self.exit_rates > 0.0, 1.0 / self.exit_rates, np.inf)
        self.targets = []
        self.cum_probs = []
        for i in range(d):
            idx = np.array([j for j in range(d) if j != i], dtype=np.int64)
            if self.exit_rates[i] > 0.0:
                probs = g[i, idx] / self.exit_rates[i]
                self.cum_probs.append(np.cumsum(probs))
            else:
                self.cum_probs.append(np.zeros(d - 1))
            self.targets.append(idx)

    def sample(self, rng: np.random.Generator, state0: int, horizon: float):
        """Draw (jump_times, jump_states) arrays, 0-based state input/output."""
        times: list[float] = []
        states: list[int] = []
        i = state0
        t = 0.0
        while True:
            rate = self.exit_rates[i]
            if rate <= 0.0:
                break  # absorbing: holding time is +infinity
            t += rng.exponential(self.scales[i])
            if t > horizon:
                break
            v = rng.random()
            k = int(np.searchsorted(self.cum_probs[i], v, side="right"))
            if k >= len(self.targets[i]):  # guard against v landing past cum[-1] rounding
                k = len(self.targets[i]) - 1
            i = int(self.targets[i][k])
            times.append(t)
            states.append(i)
        return (
            np.asarray(times, dtype=np.float64),
            np.asarray(states, dtype=np.int64),
        )


def sample_path(
    gen: GeneratorMatrix,
    initial_state: int,
    horizon: float,
    seed: int,
    path_index: int = 0,
) -> ChainPath:
    """Exact simulation of the chain: Exp(-g_ii) holding times, jump kernel g_ij/(-g_ii).

    The draw stream is keyed by (seed, path_index), so the same pair always
    reproduces the same path no matter what else has been sampled.  States
    with zero exit rate are absorbing.
    """
    d = gen.num_states
    if not (1 <= initial_state <= d):
        raise InvalidInitialStateError(f"initial state {initial_state} outside 1..{d}")
    if horizon < 0.0:
        raise NegativeTimeError(f"horizon must be >= 0, got {horizon}")
    rng = path_stream(seed, path_index, CHAIN_STREAM)
    sampler = _ChainSampler(gen)
    times, states0 = sampler.sample(rng, initial_state - 1, horizon)
    times.flags.writeable = False
    states = states0 + 1
    states.flags.writeable = False
    return ChainPath(
        initial_state=initial_state, horizon=horizon, jump_times=times, jump_states=states
    )


@dataclass(frozen=True)
class CountingRecord:
    """Pair counting processes, exact compensators, and compensated martingales.

    All arrays have shape (n_times, D, D) with zero diagonal, evaluated at
    ``times`` = the path's jump times followed by the horizon.  Compensators
    are occupation times scaled by rates, integral_0^t g_ij 1{alpha=i} ds,
    computed in closed form from the path.
    """

    times: np.ndarray  # (n_times,)
    counts: np.ndarray  # N_ij at each time
    compensators: np.ndarray  # integral of lambda_ij
    martingales: np.ndarray  # counts - compensators


def counting_record(path: ChainPath, gen: GeneratorMatrix) -> CountingRecord:
    d = gen.num_states
    if not (1 <= path.initial_state <= d):
        raise StateOutOfRangeError(f"path initial state {path.initial_state} outside 1..{d}")
    if path.n_jumps and (path.jump_states.min() < 1 or path.jump_states.max() > d):
        raise StateOutOfRangeError("path visits a state outside 1..D")
    times = np.append(path.jump_times, path.horizon)
    n = times.shape[0]
    counts = np.zeros((n, d, d))
    comp = np.zeros((n, d, d))
    occ = np.zeros(d)
    running = np.zeros((d, d))
    prev = 0.0
    state = path.initial_state - 1
    for k, t in enumerate(times):
        occ_step = occ.copy()
        occ_step[state] += t - prev
        comp[k] = gen.rates * occ_step[:, None]
        np.fill_diagonal(comp[k], 0.0)
        if k < path.n_jumps:
            nxt = int(path.jump_states[k]) - 1
            running[state, nxt] += 1.0
            occ = occ_step
            prev = float(t)
            state = nxt
        counts[k] = running
    mart = counts - comp
    return CountingRecord(times=times, counts=counts, compensators=comp, martingales=mart)


def integrate_rates(
    path: ChainPath,
    breakpoints: np.ndarray,
    cell_rates: np.ndarray,
    t_end: float,
) -> float:
    """Exact integral_0^{t_end} c(s, alpha(s)) ds for piecewise-constant rates.

    ``cell_rates[k][i]`` is the rate on time cell [breakpoints[k],
    breakpoints[k+1]) in state i+1.  The integrand is piecewise constant
    between chain jumps and cell boundaries, so the integral is a finite sum.
    """
    if t_end < 0.0:
        raise NegativeTimeError(f"t_end must be >= 0, got {t_end}")
    edges = np.unique(np.concatenate([breakpoints, path.jump_times, [0.0, t_end]]))
    edges = edges[(edges >= 0.0) & (edges <= t_end)]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        cell = int(np.searchsorted(breakpoints, a, side="right")) - 1
        cell = min(max(cell, 0), cell_rates.shape[0] - 1)
        state = path.state_at(float(a))
        total += float(cell_rates[cell, state - 1]) * (b - a)
    return total
