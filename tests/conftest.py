"""Shared fixtures: the two reference markets and their solved coefficient systems.

SINGLE is the one-regime market (r=0.05, b=0.11, sigma=0.3, T=1, x0=0.8) with
quadratic-loss target d=1, so theta = 0.2 and every quantity has a scalar
closed form.  TWOREG is the two-regime market (r=(0.03,0.07), b=(0.06,0.16),
sigma=(0.3,0.3), G=[[-1,1],[2,-2]], T=1, x0=1) with target d=1.2 and the
chain started in regime 1.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from rscontrol import make_market, solve_phi_psi_chi, validate_generator

SINGLE_D = 1.0
TWOREG_D = 1.2
TWOREG_I0 = 1


@pytest.fixture(scope="session")
def single_market():
    return make_market(
        horizon=1.0, initial_wealth=0.8, rates=[0.05], drifts=[0.11], vols=[0.3]
    )


@pytest.fixture(scope="session")
def single_gen():
    return validate_generator([[0.0]])


@pytest.fixture(scope="session")
def single_sol(single_market, single_gen):
    return solve_phi_psi_chi(single_market, single_gen, SINGLE_D, 200)


@pytest.fixture(scope="session")
def tworeg_market():
    return make_market(
        horizon=1.0,
        initial_wealth=1.0,
        rates=[0.03, 0.07],
        drifts=[0.06, 0.16],
        vols=[0.3, 0.3],
    )


@pytest.fixture(scope="session")
def tworeg_gen():
    return validate_generator([[-1.0, 1.0], [2.0, -2.0]])


@pytest.fixture(scope="session")
def tworeg_sol(tworeg_market, tworeg_gen):
    return solve_phi_psi_chi(tworeg_market, tworeg_gen, TWOREG_D, 200)


@pytest.fixture(scope="session")
def sym_gen():
    # symmetric two-state generator used by the chain-law tests
    return validate_generator([[-1.0, 1.0], [1.0, -1.0]])


def assert_close(actual, expected, tol, label=""):
    err = abs(actual - expected)
    assert err <= tol, f"{label}: |{actual} - {expected}| = {err} > {tol}"


@pytest.fixture(scope="session")
def tworeg_config_dict():
    """CLI-shaped configuration for the two-regime market (small numerics)."""
    return {
        "market": {
            "horizon": 1.0,
            "initial_wealth": 1.0,
            "rates": [0.03, 0.07],
            "drifts": [0.06, 0.16],
            "vols": [0.3, 0.3],
        },
        "generator": [[-1.0, 1.0], [2.0, -2.0]],
        "problem": {"mode": "quadratic", "d": 1.2, "initial_state": 1},
        "numerics": {
            "n_paths": 4096,
            "n_steps": 256,
            "steps_per_cell": 200,
            "seed": 7,
            "workers": 1,
        },
        "output": {"directory": "."},
    }


@pytest.fixture(scope="session")
def fast_config_dict():
    """The benchmark's fast-switching market: three regimes, exit rates 10-12,
    two coefficient cells (``perfbench/configs/three_regime_fast.json``)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "three_regime_fast.json"
    return json.loads(path.read_text())


def _chain_terminal_states(gen, i0, horizon, n_paths, seed):
    """1-based alpha(horizon) over n_paths reproducible paths."""
    from rscontrol import sample_path

    out = np.empty(n_paths, dtype=np.int64)
    for k in range(n_paths):
        out[k] = sample_path(gen, i0, horizon, seed, k).state_at(horizon)
    return out
