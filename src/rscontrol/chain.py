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

To sample many paths, use :func:`sample_paths`: it draws paths lo..hi-1 into
flat jump arrays (a :class:`ChainBatch`), path k identical to
``sample_path(..., path_index=k)``.  :func:`path_integrals` then evaluates
alpha(t) and integral_0^t c(s, alpha(s)) ds for every path of a batch at once,
bit for bit equal to :meth:`ChainPath.state_at` and :func:`integrate_rates`,
and :meth:`ChainBatch.compensated_counts` gives N_ij and M_ij at the horizon.
The single-path functions stay as the scalar references.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

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
    "ChainBatch",
    "CountingRecord",
    "validate_generator",
    "transition_matrix",
    "sample_path",
    "sample_paths",
    "counting_record",
    "path_stream",
    "integrate_rates",
    "path_integrals",
]

_ROW_SUM_TOL = 1e-12
_POISSON_TAIL = 1e-14

# Sub-stream tags for the per-path Philox keys.  The chain stream is consumed
# by exact path simulation; the noise stream feeds Brownian increments in the
# wealth simulator.  Keeping them separate makes chain paths invariant under
# changes of n_steps or policy.
CHAIN_STREAM = 0
NOISE_STREAM = 1

# Paths per batch when statistics run over many paths.  Batches of 8192 were
# no faster and left the `verify` benchmark's peak memory 1.7 MB higher.
_BATCH = 1024


def _rekey(bitgen: np.random.Philox, seed: int, path_index: int, stream: int) -> None:
    """Move ``bitgen`` to the start of stream (seed, 2*path_index + stream).

    This is the state ``Philox(key=[seed mod 2**64, 2*path_index + stream])``
    starts in: counter 0 and an empty output buffer.  Philox output is a pure
    function of (key, counter), so the draws that follow are those of a
    freshly keyed generator, bit for bit.
    """
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [seed % (2**64), 2 * path_index + stream]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def path_stream(seed: int, path_index: int, stream: int = CHAIN_STREAM) -> np.random.Generator:
    """Counter-based RNG for one path: key = (master seed, 2*path_index + stream).

    The seed enters the key mod 2**64, exactly.  Each call returns a new,
    independent generator.
    """
    if path_index < 0:
        raise ValueError(f"path_index must be >= 0, got {path_index}")
    # a constant seed draws no OS entropy; the key is overwritten anyway
    bitgen = np.random.Philox(0)
    _rekey(bitgen, seed, path_index, stream)
    return np.random.Generator(bitgen)


def _streams(seed: int, lo: int, hi: int, stream: int):
    """The streams of paths lo..hi-1 in order, as one re-keyed generator.

    Each yielded generator is the one before it, moved to the next path's
    stream, so it is valid only until the next one is drawn.
    """
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    for k in range(lo, hi):
        _rekey(bitgen, seed, k, stream)
        yield rng


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
    """Precomputed jump tables for exact simulation of one generator.

    The tables are Python lists of the float64 values, so the per-jump work
    is plain float arithmetic and ``bisect`` (which finds the same index as
    ``np.searchsorted(..., side="right")``).
    """

    def __init__(self, gen: GeneratorMatrix):
        g = gen.rates
        d = gen.num_states
        exit_rates = -np.diag(g)
        with np.errstate(divide="ignore", over="ignore"):
            self.scales = np.where(exit_rates > 0.0, 1.0 / exit_rates, np.inf).tolist()
        self.absorbing = (exit_rates <= 0.0).tolist()
        self.targets = []
        self.cum_probs = []
        for i in range(d):
            idx = [j for j in range(d) if j != i]
            if exit_rates[i] > 0.0:
                self.cum_probs.append(np.cumsum(g[i, idx] / exit_rates[i]).tolist())
            else:
                self.cum_probs.append([0.0] * (d - 1))
            self.targets.append(idx)

    def draw(self, rng: np.random.Generator, state0: int, horizon: float, times: list, states: list):
        """Append one path's jump times and entered states (0-based) to the lists.

        Per jump the stream gives one exponential holding time, then one
        uniform for the target.
        """
        i = state0
        t = 0.0
        while not self.absorbing[i]:  # absorbing: holding time is +infinity
            t += rng.exponential(self.scales[i])
            if t > horizon:
                break
            v = rng.random()
            targets = self.targets[i]
            # the min guards against v landing past cum[-1] rounding
            i = targets[min(bisect_right(self.cum_probs[i], v), len(targets) - 1)]
            times.append(t)
            states.append(i)


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
    times: list[float] = []
    states: list[int] = []  # 0-based
    rng = path_stream(seed, path_index, CHAIN_STREAM)
    _ChainSampler(gen).draw(rng, initial_state - 1, horizon, times, states)
    jump_times = np.asarray(times, dtype=np.float64)
    jump_states = np.asarray(states, dtype=np.int64) + 1
    jump_times.flags.writeable = False
    jump_states.flags.writeable = False
    return ChainPath(
        initial_state=initial_state, horizon=horizon, jump_times=jump_times, jump_states=jump_states
    )


@dataclass(frozen=True)
class ChainBatch:
    """Paths lo..hi-1 of one (generator, initial state, horizon, seed), flattened.

    Jumps are stored path by path, each path's in time order.  States are
    0-based indices (label - 1), the form array code indexes tables with.
    """

    num_states: int
    initial_state: int  # 1-based label
    horizon: float
    counts: np.ndarray  # (n_paths,), jumps of each path
    times: np.ndarray  # (n_jumps,), jump times
    new: np.ndarray  # (n_jumps,), state entered
    before: np.ndarray  # (n_jumps,), state left
    path: np.ndarray  # (n_jumps,), path of the jump, 0..n_paths-1

    @property
    def n_paths(self) -> int:
        return int(self.counts.shape[0])

    def final_states(self) -> np.ndarray:
        """alpha(horizon) of each path, 0-based."""
        out = np.full(self.n_paths, self.initial_state - 1, dtype=np.int64)
        has = self.counts > 0
        out[has] = self.new[np.cumsum(self.counts)[has] - 1]
        return out

    def pair_counts(self) -> np.ndarray:
        """N_ij(horizon) of each path, shape (n_paths, D, D)."""
        d = self.num_states
        cell = (self.path * d + self.before) * d + self.new
        flat = np.bincount(cell, minlength=self.n_paths * d * d)
        return flat.reshape(self.n_paths, d, d).astype(np.float64)

    def occupation(self) -> np.ndarray:
        """Time each path spends in each state on [0, horizon], shape (n_paths, D).

        Summed holding time by holding time, in time order, as
        :func:`counting_record` does.
        """
        d = self.num_states
        _, occ = path_integrals(self, [0.0], np.eye(d)[None], [self.horizon])
        return occ[:, 0]

    def compensated_counts(self, gen: GeneratorMatrix) -> tuple[np.ndarray, np.ndarray]:
        """N_ij(horizon) and M_ij(horizon) = N_ij - g_ij * occupation_i per path.

        Both have shape (n_paths, D, D) and a zero diagonal.
        """
        counts = self.pair_counts()
        m = counts - gen.rates * self.occupation()[:, :, None]
        diag = np.arange(self.num_states)
        m[:, diag, diag] = 0.0
        return counts, m


def sample_paths(
    gen: GeneratorMatrix,
    initial_state: int,
    horizon: float,
    seed: int,
    lo: int,
    hi: int,
) -> ChainBatch:
    """Exact simulation of paths lo..hi-1 as one :class:`ChainBatch`.

    Path k is the path ``sample_path(gen, initial_state, horizon, seed, k)``
    draws, jump for jump.  The streams are taken one after another from a
    single re-keyed generator.
    """
    d = gen.num_states
    if not (1 <= initial_state <= d):
        raise InvalidInitialStateError(f"initial state {initial_state} outside 1..{d}")
    if horizon < 0.0:
        raise NegativeTimeError(f"horizon must be >= 0, got {horizon}")
    if not (0 <= lo <= hi):
        raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    sampler = _ChainSampler(gen)
    i0 = initial_state - 1
    times: list[float] = []
    states: list[int] = []
    ends = []
    for rng in _streams(seed, lo, hi, CHAIN_STREAM):
        sampler.draw(rng, i0, horizon, times, states)
        ends.append(len(times))
    ends = np.array(ends, dtype=np.int64)
    counts = np.diff(ends, prepend=0)
    new = np.array(states, dtype=np.int64)
    before = np.empty_like(new)
    before[1:] = new[:-1]
    before[(ends - counts)[counts > 0]] = i0
    return ChainBatch(
        num_states=d,
        initial_state=initial_state,
        horizon=horizon,
        counts=counts,
        times=np.array(times, dtype=np.float64),
        new=new,
        before=before,
        path=np.repeat(np.arange(hi - lo), counts),
    )


def path_integrals(
    batch: ChainBatch,
    breakpoints,
    cell_rates,
    times,
) -> tuple[np.ndarray, np.ndarray]:
    """alpha(t) and integral_0^t c(s, alpha(s)) ds for every path of a batch.

    ``cell_rates[k, i]`` is the rate on time cell [breakpoints[k],
    breakpoints[k+1]) in state i+1, as in :func:`integrate_rates`; trailing
    axes of ``cell_rates`` are rates integrated side by side.  Returns the
    0-based states, shape (n_paths, n_times), and the integrals, shape
    (n_paths, n_times, *trailing).

    Each path's edges are breakpoints, jumps and 0 in sorted order; the
    integrand is constant between two edges, and a prefix sum over those
    pieces, in edge order, plus the piece from the last edge before t to t
    is the integral.  That is the sum :func:`integrate_rates` forms, so the
    results agree with it (and states with :meth:`ChainPath.state_at`) bit
    for bit.  Repeated edges add pieces of width 0, which change no sum.
    """
    bp = np.asarray(breakpoints, dtype=np.float64)
    rates = np.asarray(cell_rates, dtype=np.float64)
    ts = np.asarray(times, dtype=np.float64)
    if np.any(ts < 0.0):
        raise NegativeTimeError(f"times must be >= 0, got {ts.min()}")
    n = batch.n_paths
    m = int(batch.counts.max(initial=0))
    paths = np.arange(n)

    # jump times padded with +inf into (n, m); jumps come first so that a
    # stable sort puts a jump before a breakpoint at the same time
    starts = np.cumsum(batch.counts) - batch.counts
    slot = np.arange(batch.times.shape[0]) - np.repeat(starts, batch.counts)
    jumps = np.full((n, m), np.inf)
    jumps[batch.path, slot] = batch.times
    entered = np.full((n, m + 1), batch.initial_state - 1, dtype=np.int64)
    entered[batch.path, slot + 1] = batch.new
    edges = np.concatenate([jumps, np.zeros((n, 1)), np.broadcast_to(bp, (n, bp.shape[0]))], axis=1)
    order = np.argsort(edges, axis=1, kind="stable")
    edges = np.take_along_axis(edges, order, axis=1)
    states = entered[paths[:, None], np.cumsum(order < m, axis=1)]  # state from each edge on
    cells = np.clip(np.searchsorted(bp, edges, side="right") - 1, 0, rates.shape[0] - 1)
    c = rates[cells, states]  # (n, n_edges, *trailing)

    with np.errstate(invalid="ignore"):
        widths = np.diff(edges, axis=1)
    widths[~np.isfinite(edges[:, 1:])] = 0.0  # past the last jump
    widths = widths.reshape(widths.shape + (1,) * (c.ndim - 2))
    pieces = np.concatenate([np.zeros((n, 1) + c.shape[2:]), c[:, :-1] * widths], axis=1)
    prefix = np.cumsum(pieces, axis=1)  # prefix[:, k]: integral up to edge k

    out_states = np.empty((n, ts.shape[0]), dtype=np.int64)
    out = np.empty((n, ts.shape[0]) + c.shape[2:])
    for j, t in enumerate(ts.tolist()):
        k = np.count_nonzero(edges <= t, axis=1) - 1  # last edge at or before t
        last = (t - edges[paths, k]).reshape(widths.shape[:1] + widths.shape[2:])
        out[:, j] = prefix[paths, k] + c[paths, k] * last
        out_states[:, j] = states[paths, k]
    return out_states, out


def _batches(gen: GeneratorMatrix, initial_state: int, horizon: float, seed: int, n_paths: int):
    """Paths 0..n_paths-1 as consecutive batches of at most ``_BATCH`` paths."""
    for lo in range(0, n_paths, _BATCH):
        yield sample_paths(gen, initial_state, horizon, seed, lo, min(lo + _BATCH, n_paths))


def _running_sum(total: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``total + values[0] + values[1] + ...``, added one path after another.

    Summing in path order makes the result independent of how the paths are
    split into batches; a pairwise ``np.sum`` would round differently.
    """
    return np.add.accumulate(np.concatenate([total[None], values]), axis=0)[-1]


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error (sample std / sqrt(n)) of a sample; the error of one value is 0."""
    n = values.shape[0]
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, se


def _mean_se_of_sums(total, total2, n: int):
    """Mean and standard error of n samples from their sum and sum of squares."""
    mean = total / n
    return mean, math.sqrt(max(total2 / n - mean * mean, 0.0) / n)


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
