"""Market model construction, coefficient lookup, and config validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscontrol import (
    BadIntervalError,
    DimensionMismatchError,
    MissingFieldError,
    StateOutOfRangeError,
    TimeOutOfRangeError,
    ZeroVolatilityError,
    coefficients_at,
    load_market,
    make_market,
)


@pytest.fixture(scope="module")
def two_cell_market():
    # two time cells with different coefficients, breakpoint at t = 0.5
    return make_market(
        horizon=1.0,
        initial_wealth=1.0,
        rates=[[0.03, 0.07], [0.04, 0.08]],
        drifts=[[0.06, 0.16], [0.07, 0.20]],
        vols=[[0.3, 0.3], [0.2, 0.4]],
        breakpoints=[0.0, 0.5, 1.0],
    )


def test_theta_single_cell(single_market):
    r, b, sig, th = coefficients_at(single_market, 0.37, 1)
    assert (r, b, sig) == (0.05, 0.11, 0.3)
    assert th == pytest.approx(0.2, abs=1e-15)


def test_theta_zero_when_drift_equals_rate():
    model = make_market(
        horizon=1.0, initial_wealth=1.0, rates=[0.05, 0.02], drifts=[0.05, 0.08], vols=[0.3, 0.4]
    )
    assert coefficients_at(model, 0.0, 1)[3] == 0.0
    assert coefficients_at(model, 0.0, 2)[3] == pytest.approx(0.15)


def test_breakpoint_belongs_to_right_cell(two_cell_market):
    # cells are right-open; an interior breakpoint reads the later cell,
    # while the final breakpoint (the horizon) stays in the last cell
    assert coefficients_at(two_cell_market, 0.5, 1)[0] == 0.04
    assert coefficients_at(two_cell_market, 0.5 - 1e-12, 1)[0] == 0.03
    assert coefficients_at(two_cell_market, 1.0, 2)[2] == 0.4


def test_coefficients_at_validates_arguments(two_cell_market):
    with pytest.raises(TimeOutOfRangeError):
        coefficients_at(two_cell_market, 1.5, 1)
    with pytest.raises(TimeOutOfRangeError):
        coefficients_at(two_cell_market, -0.1, 1)
    with pytest.raises(StateOutOfRangeError):
        coefficients_at(two_cell_market, 0.5, 3)


@settings(max_examples=50, deadline=None)
@given(
    t=st.floats(0.0, 0.5, exclude_max=True),
    t_prime=st.floats(0.0, 0.5, exclude_max=True),
    i=st.integers(1, 2),
)
def test_piecewise_constant_lookup_is_bit_identical(two_cell_market, t, t_prime, i):
    a = coefficients_at(two_cell_market, t, i)
    b = coefficients_at(two_cell_market, t_prime, i)
    assert a == b
    r, bb, sig, th = a
    assert th == (bb - r) / sig


def test_make_market_validation_errors():
    with pytest.raises(BadIntervalError):
        make_market(horizon=0.0, initial_wealth=1.0, rates=[0.05], drifts=[0.1], vols=[0.3])
    with pytest.raises(DimensionMismatchError):
        make_market(
            horizon=1.0, initial_wealth=1.0, rates=[0.05], drifts=[0.1, 0.2], vols=[0.3]
        )
    with pytest.raises(BadIntervalError):
        make_market(
            horizon=1.0,
            initial_wealth=1.0,
            rates=[[0.05], [0.06]],
            drifts=[[0.1], [0.1]],
            vols=[[0.3], [0.3]],
            breakpoints=[0.0, 0.7, 0.5],
        )
    with pytest.raises(MissingFieldError):
        make_market(
            horizon=1.0,
            initial_wealth=1.0,
            rates=[[0.05], [0.06]],
            drifts=[[0.1], [0.1]],
            vols=[[0.3], [0.3]],
        )


def _config(**overrides):
    cfg = {
        "horizon": 1.0,
        "initial_wealth": 1.0,
        "rates": [0.03, 0.07],
        "drifts": [0.06, 0.16],
        "vols": [0.3, 0.3],
    }
    cfg.update(overrides)
    return cfg


def test_load_market_minimal_single_regime():
    model = load_market(
        {"horizon": 1.0, "initial_wealth": 0.8, "rates": [0.05], "drifts": [0.11], "vols": [0.3]}
    )
    assert model.num_states == 1
    assert model.num_cells == 1
    assert model.initial_wealth == 0.8


def test_load_market_zero_volatility():
    with pytest.raises(ZeroVolatilityError):
        load_market(_config(vols=[0.3, 0.0]))


def test_load_market_generator_dimension_mismatch():
    bad_gen = [[-1.0, 0.5, 0.5], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]
    with pytest.raises(DimensionMismatchError):
        load_market(_config(generator=bad_gen))


def test_load_market_missing_field():
    cfg = _config()
    del cfg["drifts"]
    with pytest.raises(MissingFieldError):
        load_market(cfg)


def test_market_tables_are_read_only(single_market):
    with pytest.raises(ValueError):
        single_market.rates[0, 0] = 0.99
