"""Chain sampling, semigroup, and counting-process tests.

Frozen reference values for the symmetric generator [[-1,1],[1,-1]]:
P_11(t) = (1 + exp(-2t))/2, and E N_12(1) = 1/2 + (1 - exp(-2))/4 when
starting in state 1 (integral of g_12 * P(alpha(s)=1) over [0,1]).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscontrol import (
    ChainPath,
    CountingRecord,
    InvalidInitialStateError,
    NegativeOffDiagonalError,
    NegativeTimeError,
    NonSquareMatrixError,
    RowSumError,
    StateOutOfRangeError,
    counting_record,
    path_stream,
    sample_path,
    transition_matrix,
    validate_generator,
)
from rscontrol.chain import (
    CHAIN_STREAM,
    NOISE_STREAM,
    ChainBatch,
    _streams,
    integrate_rates,
    path_integrals,
    sample_paths,
)

P11_HALF = 0.6839397205857212  # (1 + e^-1)/2
P11_ONE = 0.5676676416183064  # (1 + e^-2)/2
EXPECTED_N12 = 0.7161661791908468  # 1/2 + (1 - e^-2)/4


# ---------------------------------------------------------------------------
# validate_generator
# ---------------------------------------------------------------------------


def test_validate_generator_accepts_and_recomputes_diagonal():
    gen = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
    assert gen.num_states == 2
    assert gen.exit_rate(1) == 1.0
    assert gen.exit_rate(2) == 2.0
    # rows sum to exactly zero after the diagonal recomputation
    assert np.all(gen.rates.sum(axis=1) == 0.0)
    assert not gen.rates.flags.writeable


def test_validate_generator_rejects_non_square():
    with pytest.raises(NonSquareMatrixError):
        validate_generator([[-1.0, 1.0]])


def test_validate_generator_rejects_negative_off_diagonal():
    with pytest.raises(NegativeOffDiagonalError):
        validate_generator([[-1.0, -0.5], [1.0, -1.0]])


def test_validate_generator_rejects_bad_row_sum():
    with pytest.raises(RowSumError):
        validate_generator([[-1.0, 2.0], [1.0, -1.0]])


# ---------------------------------------------------------------------------
# transition_matrix
# ---------------------------------------------------------------------------


def test_transition_matrix_at_zero_is_identity(sym_gen):
    assert np.array_equal(transition_matrix(sym_gen, 0.0), np.eye(2))


def test_transition_matrix_zero_generator_is_identity():
    gen = validate_generator(np.zeros((3, 3)))
    assert np.array_equal(transition_matrix(gen, 2.5), np.eye(3))


def test_transition_matrix_symmetric_closed_form(sym_gen):
    p = transition_matrix(sym_gen, 0.5)
    expected = np.array([[P11_HALF, 1.0 - P11_HALF], [1.0 - P11_HALF, P11_HALF]])
    assert np.max(np.abs(p - expected)) < 1e-6


def test_transition_matrix_rejects_negative_time(sym_gen):
    with pytest.raises(NegativeTimeError):
        transition_matrix(sym_gen, -0.1)


@st.composite
def generators(draw, max_states=4):
    d = draw(st.integers(min_value=1, max_value=max_states))
    rates = draw(
        st.lists(
            st.lists(st.floats(0.0, 5.0), min_size=d, max_size=d),
            min_size=d,
            max_size=d,
        )
    )
    g = np.array(rates)
    np.fill_diagonal(g, 0.0)
    np.fill_diagonal(g, -g.sum(axis=1))
    return validate_generator(g)


@settings(max_examples=40, deadline=None)
@given(gen=generators(), t=st.floats(0.0, 3.0))
def test_transition_matrix_is_stochastic(gen, t):
    p = transition_matrix(gen, t)
    assert np.all(p >= 0.0)
    assert np.all(p <= 1.0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# sample_path
# ---------------------------------------------------------------------------


def test_sample_path_zero_generator_never_jumps():
    gen = validate_generator(np.zeros((2, 2)))
    path = sample_path(gen, 1, 1.0, seed=0)
    assert path.n_jumps == 0
    assert path.state_at(0.0) == 1
    assert path.state_at(1.0) == 1


def test_sample_path_validates_inputs(sym_gen):
    with pytest.raises(InvalidInitialStateError):
        sample_path(sym_gen, 3, 1.0, seed=0)
    with pytest.raises(NegativeTimeError):
        sample_path(sym_gen, 1, -1.0, seed=0)


def test_sample_path_reproducible(sym_gen):
    a = sample_path(sym_gen, 1, 5.0, seed=123, path_index=4)
    b = sample_path(sym_gen, 1, 5.0, seed=123, path_index=4)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.jump_states, b.jump_states)
    c = sample_path(sym_gen, 1, 5.0, seed=124, path_index=4)
    assert not np.array_equal(a.jump_times, c.jump_times)


def test_first_holding_time_is_exponential_rate_one(sym_gen):
    # State 1 has exit rate 1; the first jump time is Exp(1).  Long horizon
    # so the first jump is observed on every sampled path.
    n = 10_000
    waits = np.empty(n)
    for k in range(n):
        path = sample_path(sym_gen, 1, 30.0, seed=2024, path_index=k)
        assert path.n_jumps > 0
        waits[k] = path.jump_times[0]
    se = waits.std(ddof=1) / math.sqrt(n)
    assert abs(waits.mean() - 1.0) < 3.0 * se


def test_terminal_state_law_matches_semigroup(sym_gen):
    n = 20_000
    hits = 0
    for k in range(n):
        if sample_path(sym_gen, 1, 1.0, seed=77, path_index=k).state_at(1.0) == 1:
            hits += 1
    p_hat = hits / n
    se = math.sqrt(P11_ONE * (1.0 - P11_ONE) / n)
    assert abs(p_hat - P11_ONE) < 3.0 * se


def test_occupation_times_partition_the_horizon(sym_gen):
    for k in range(50):
        path = sample_path(sym_gen, 1, 2.0, seed=5, path_index=k)
        occ = path.occupation_times(2.0, 2)
        assert occ.min() >= 0.0
        assert abs(occ.sum() - 2.0) < 1e-12


# ---------------------------------------------------------------------------
# counting_record
# ---------------------------------------------------------------------------


def test_counting_record_zero_jump_path(sym_gen):
    path = ChainPath(
        initial_state=1,
        horizon=1.0,
        jump_times=np.array([]),
        jump_states=np.array([], dtype=np.int64),
    )
    rec = counting_record(path, sym_gen)
    assert isinstance(rec, CountingRecord)
    assert rec.times.shape == (1,)
    assert np.all(rec.counts == 0.0)
    # compensator of the (1,2) pair is g_12 * (occupation of state 1) = 1.0
    assert rec.martingales[-1, 0, 1] == -1.0
    assert rec.martingales[-1, 1, 0] == 0.0


def test_counting_record_rejects_out_of_range_states(sym_gen):
    path = ChainPath(
        initial_state=1,
        horizon=1.0,
        jump_times=np.array([0.5]),
        jump_states=np.array([3]),
    )
    with pytest.raises(StateOutOfRangeError):
        counting_record(path, sym_gen)


def test_counts_match_recorded_transitions(sym_gen):
    for k in range(100):
        path = sample_path(sym_gen, 1, 3.0, seed=9, path_index=k)
        rec = counting_record(path, sym_gen)
        total = rec.counts[-1].sum()
        assert total == path.n_jumps
        prev = 1
        manual = np.zeros((2, 2))
        for s in path.jump_states:
            manual[prev - 1, int(s) - 1] += 1.0
            prev = int(s)
        assert np.array_equal(rec.counts[-1], manual)
        assert np.array_equal(rec.martingales[-1], rec.counts[-1] - rec.compensators[-1])
        assert np.all(np.diagonal(rec.counts, axis1=1, axis2=2) == 0.0)


def _terminal_martingales(gen, n_paths, seed, horizon=1.0, i0=1):
    d = gen.num_states
    out = np.empty((n_paths, d, d))
    counts = np.empty((n_paths, d, d))
    for k in range(n_paths):
        rec = counting_record(sample_path(gen, i0, horizon, seed, k), gen)
        out[k] = rec.martingales[-1]
        counts[k] = rec.counts[-1]
    return out, counts


def test_counting_and_martingale_means(sym_gen):
    n = 30_000
    mart, counts = _terminal_martingales(sym_gen, n, seed=41)
    n12 = counts[:, 0, 1]
    se_n = n12.std(ddof=1) / math.sqrt(n)
    assert abs(n12.mean() - EXPECTED_N12) < 3.0 * se_n

    m12 = mart[:, 0, 1]
    se_m = m12.std(ddof=1) / math.sqrt(n)
    assert abs(m12.mean()) < 3.0 * se_m


def test_martingale_pairs_are_orthogonal(sym_gen):
    # E[M_12(T) M_21(T)] = 0 for distinct pairs; the product's sample mean
    # carries the statistical error.
    n = 30_000
    mart, _ = _terminal_martingales(sym_gen, n, seed=43)
    prod = mart[:, 0, 1] * mart[:, 1, 0]
    se = prod.std(ddof=1) / math.sqrt(n)
    assert abs(prod.mean()) < 3.0 * se + 1e-12


# ---------------------------------------------------------------------------
# re-keyed Philox streams
# ---------------------------------------------------------------------------


def _draws(rng):
    """A mix of the draws the program makes, including partly used buffers."""
    z = np.empty(7)
    rng.standard_normal(out=z)
    return [
        rng.bit_generator.random_raw(3).tolist(),
        [rng.exponential(0.7), rng.random(), rng.exponential(2.0), rng.random()],
        rng.integers(0, 2**31, size=3, dtype=np.uint32).tolist(),  # 32-bit half words
        z.tolist(),
        rng.standard_normal(5).tolist(),
    ]


def _keyed(seed, k, stream):
    key = np.array([seed % 2**64, 2 * k + stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", [0, 17, 2**63 + 5, 2**64 + 5, -3])
def test_rekeyed_streams_match_freshly_keyed_philox(seed):
    for stream in (CHAIN_STREAM, NOISE_STREAM):
        expected = [_draws(_keyed(seed, k, stream)) for k in range(3, 8)]
        # one generator moved from stream to stream, left mid-buffer each time
        assert [_draws(rng) for rng in _streams(seed, 3, 8, stream)] == expected
        assert [_draws(path_stream(seed, k, stream)) for k in range(3, 8)] == expected


def test_large_seeds_keep_distinct_streams():
    # keys at or above 2**63 are exact, not rounded through float64
    draws = {path_stream(seed, 0).bit_generator.random_raw() for seed in (2**63, 2**63 + 5, -3, -4)}
    assert len(draws) == 4


def test_streams_draw_no_os_entropy(monkeypatch):
    def no_entropy(*args):
        raise AssertionError("OS entropy drawn")

    # NumPy seeds an unseeded bit generator from this function
    monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
    with pytest.raises(AssertionError, match="OS entropy"):
        np.random.Philox(key=np.array([5, 4], dtype=np.uint64))
    path_stream(5, 2).random()
    for rng in _streams(5, 0, 3, NOISE_STREAM):
        rng.standard_normal()
    sample_paths(validate_generator([[-1.0, 1.0], [2.0, -2.0]]), 1, 1.0, 5, 0, 3)


# ---------------------------------------------------------------------------
# sample_paths / path_integrals against the single-path references
# ---------------------------------------------------------------------------


@st.composite
def chain_cases(draw):
    """A generator (sometimes with an absorbing state), a horizon, breakpoints,
    cell rates and a batch of paths."""
    gen = draw(generators())
    d = gen.num_states
    if d > 1 and draw(st.booleans()):
        g = gen.rates.copy()
        g[draw(st.integers(0, d - 1))] = 0.0
        gen = validate_generator(g)
    horizon = draw(st.floats(0.05, 2.0))
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=4))
    bp = np.unique(np.concatenate([[0.0], np.array(inner) * horizon, [horizon]]))
    n_cells = bp.shape[0] - 1
    rates = np.array(
        draw(st.lists(st.floats(-3.0, 3.0), min_size=n_cells * d * 2, max_size=n_cells * d * 2))
    ).reshape(n_cells, d, 2)
    i0 = draw(st.integers(1, d))
    seed = draw(st.integers(0, 2**32))
    lo = draw(st.integers(0, 50))
    hi = lo + draw(st.integers(0, 8))
    return gen, horizon, bp, rates, i0, seed, lo, hi


@settings(max_examples=60, deadline=None)
@given(case=chain_cases(), fracs=st.lists(st.floats(0.0, 1.0), max_size=3))
def test_batch_statistics_match_single_path_references(case, fracs):
    gen, horizon, bp, rates, i0, seed, lo, hi = case
    batch = sample_paths(gen, i0, horizon, seed, lo, hi)
    assert isinstance(batch, ChainBatch)
    assert batch.n_paths == hi - lo
    paths = [sample_path(gen, i0, horizon, seed, k) for k in range(lo, hi)]
    jumps = [float(t) for p in paths for t in p.jump_times]
    # t = 0, the horizon, breakpoints, jump times and times between them
    times = sorted({0.0, horizon, *bp.tolist(), *jumps, *(f * horizon for f in fracs)})
    states, integrals = path_integrals(batch, bp, rates, times)
    states0, integrals0 = path_integrals(batch, bp, rates[..., 0], times)
    occ = batch.occupation()
    counts, mart = batch.compensated_counts(gen)
    finals = batch.final_states()
    for p, path in enumerate(paths):
        mine = batch.path == p
        assert np.array_equal(batch.times[mine], path.jump_times)
        assert np.array_equal(batch.new[mine] + 1, path.jump_states)
        assert np.array_equal(batch.before[mine] + 1, np.append(i0, path.jump_states)[:-1])
        assert finals[p] + 1 == path.state_at(horizon)
        for j, t in enumerate(times):
            assert states[p, j] + 1 == path.state_at(t)
            for r in range(2):
                assert integrals[p, j, r] == integrate_rates(path, bp, rates[..., r], t)
            assert integrals0[p, j] == integrals[p, j, 0]
        rec = counting_record(path, gen)
        assert np.array_equal(counts[p], rec.counts[-1])
        comp = gen.rates * occ[p][:, None]
        np.fill_diagonal(comp, 0.0)
        assert np.array_equal(comp, rec.compensators[-1])
        assert np.array_equal(mart[p], rec.martingales[-1])
        assert np.array_equal(occ[p], path.occupation_times(horizon, gen.num_states))


def test_first_jump_target_law_three_states():
    # jump kernel g_ij / (-g_ii): from state 1, to 2 w.p. 2/3 and to 3 w.p. 1/3
    gen = validate_generator([[-3.0, 2.0, 1.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    n = 20_000
    batch = sample_paths(gen, 1, 10.0, seed=21, lo=0, hi=n)
    assert np.all(batch.counts > 0)
    first = batch.new[np.cumsum(batch.counts) - batch.counts]
    to_2 = float(np.mean(first == 1))
    assert abs(to_2 - 2.0 / 3.0) < 3.0 * math.sqrt(2.0 / 9.0 / n)


def test_batch_of_zero_jump_paths():
    gen = validate_generator([[0.0, 0.0], [3.0, -3.0]])
    batch = sample_paths(gen, 1, 1.0, seed=4, lo=0, hi=5)
    assert batch.counts.tolist() == [0] * 5
    states, integrals = path_integrals(batch, [0.0, 0.5, 1.0], [[2.0, 9.0], [3.0, 9.0]], [0.0, 0.7, 1.0])
    assert np.all(states == 0)
    assert np.array_equal(integrals, np.tile([0.0, 2.0 * 0.5 + 3.0 * (0.7 - 0.5), 2.0 * 0.5 + 3.0 * 0.5], (5, 1)))
    assert np.array_equal(batch.occupation(), np.tile([1.0, 0.0], (5, 1)))
    empty = sample_paths(gen, 2, 1.0, seed=4, lo=3, hi=3)
    assert empty.n_paths == 0
    assert path_integrals(empty, [0.0, 1.0], [[1.0, 1.0]], [0.5])[1].shape == (0, 1)


def test_sample_paths_validates_inputs(sym_gen):
    with pytest.raises(InvalidInitialStateError):
        sample_paths(sym_gen, 3, 1.0, 0, 0, 4)
    with pytest.raises(NegativeTimeError):
        sample_paths(sym_gen, 1, -1.0, 0, 0, 4)
    with pytest.raises(ValueError):
        sample_paths(sym_gen, 1, 1.0, 0, 4, 2)
    with pytest.raises(NegativeTimeError):
        path_integrals(sample_paths(sym_gen, 1, 1.0, 0, 0, 2), [0.0, 1.0], [[1.0, 1.0]], [-0.5])
