"""Hamiltonian evaluation, the closed-form policy, and the adjoint triple."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rscontrol import (
    DimensionMismatchError,
    adjoint_closed_form,
    coefficients_at,
    compile_policy,
    constant_policy,
    lq_hamiltonian,
    make_market,
    optimal_control,
    optimal_policy,
    scale_policy,
    shift_policy,
    solve_phi_psi_chi,
    standard_perturbations,
    table_policy,
    window_shift_policy,
)

U_HAT_08 = 0.10081961633380931  # (0.2/0.3) * (e^{-0.05} - 0.8)


def test_lq_hamiltonian_reference_value(single_market):
    # (0.05*1 + 2*0.3*0.2)*1 + 2*0.3*0.5 = 0.47
    h = lq_hamiltonian(single_market, 0.0, 1.0, 2.0, 1, 1.0, 0.5)
    assert h == pytest.approx(0.47, abs=1e-12)


# ---------------------------------------------------------------------------
# optimal control
# ---------------------------------------------------------------------------


def test_optimal_control_vanishes_without_risk_premium(single_gen):
    flat = make_market(
        horizon=1.0, initial_wealth=1.0, rates=[0.05], drifts=[0.05], vols=[0.3]
    )
    sol = solve_phi_psi_chi(flat, single_gen, 1.0, 50)
    for t, x in [(0.0, 0.2), (0.5, 1.7), (1.0, -3.0)]:
        assert optimal_control(sol, t, x, 1) == 0.0


def test_optimal_control_zero_at_discounted_target(single_sol):
    assert abs(optimal_control(single_sol, 0.0, math.exp(-0.05), 1)) < 1e-10


def test_optimal_control_reference_point(single_sol):
    u = optimal_control(single_sol, 0.0, 0.8, 1)
    assert abs(u - U_HAT_08) < 1e-6
    assert u == pytest.approx(U_HAT_08, abs=1e-10)


def test_single_regime_reduction(single_sol):
    # u(t, x) = -(theta/sigma) (x - d e^{-r (T-t)})
    for t in np.linspace(0.0, 1.0, 9):
        for x in (-0.5, 0.8, 1.0, 2.3):
            closed = -(0.2 / 0.3) * (x - math.exp(-0.05 * (1.0 - float(t))))
            assert abs(optimal_control(single_sol, float(t), x, 1) - closed) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(0.0, 1.0),
    xs=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    i=st.integers(1, 2),
)
def test_optimal_control_is_affine_with_slope_minus_theta_over_sigma(tworeg_sol, t, xs, i):
    x1, x2, x3 = sorted(xs)
    if x2 - x1 < 1e-3 or x3 - x2 < 1e-3:
        return
    u1 = optimal_control(tworeg_sol, t, x1, i)
    u2 = optimal_control(tworeg_sol, t, x2, i)
    u3 = optimal_control(tworeg_sol, t, x3, i)
    s12 = (u2 - u1) / (x2 - x1)
    s23 = (u3 - u2) / (x3 - x2)
    assert abs(s12 - s23) < 1e-9
    _, _, sig, th = coefficients_at(tworeg_sol.model, t, i)
    assert abs(s12 + th / sig) < 1e-9


def test_vanishing_u_coefficient_identity(tworeg_sol):
    model = tworeg_sol.model
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 50):
        phi, psi, _ = tworeg_sol.interp(float(t))
        for x in np.linspace(0.5, 1.5, 21):
            for i in (1, 2):
                _, _, sig, th = coefficients_at(model, float(t), i)
                u = optimal_control(tworeg_sol, float(t), float(x), i)
                coeff = phi[i - 1] * sig * u + th * (phi[i - 1] * x + psi[i - 1])
                worst = max(worst, abs(coeff))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# adjoint triple
# ---------------------------------------------------------------------------


def test_adjoint_terminal_condition_exact(tworeg_sol):
    for x in (0.0, 0.77, 1.2, -2.5):
        for i in (1, 2):
            trip = adjoint_closed_form(tworeg_sol, 1.0, x, i)
            assert trip.p == -2.0 * x + 2.4


def test_adjoint_q_forms_agree(tworeg_sol):
    for t in np.linspace(0.0, 1.0, 11):
        for x in (0.6, 1.0, 1.4):
            for i in (1, 2):
                trip = adjoint_closed_form(tworeg_sol, float(t), x, i)
                _, _, _, th = coefficients_at(tworeg_sol.model, float(t), i)
                assert abs(trip.q + th * trip.p) < 1e-10


def test_adjoint_eta_matches_gradient_jump(tworeg_sol):
    t, x = 0.4, 1.1
    phi, psi, _ = tworeg_sol.interp(t)
    trip = adjoint_closed_form(tworeg_sol, t, x, 1)
    assert trip.eta[0, 0] == 0.0 and trip.eta[1, 1] == 0.0
    expected = x * (phi[1] - phi[0]) + (psi[1] - psi[0])
    assert trip.eta[0, 1] == pytest.approx(expected, abs=1e-15)
    assert trip.eta[1, 0] == pytest.approx(-expected, abs=1e-15)


def test_adjoint_q_zero_without_risk_premium(single_gen):
    flat = make_market(
        horizon=1.0, initial_wealth=1.0, rates=[0.04], drifts=[0.04], vols=[0.5]
    )
    sol = solve_phi_psi_chi(flat, single_gen, 1.0, 50)
    assert adjoint_closed_form(sol, 0.3, 1.1, 1).q == 0.0


# ---------------------------------------------------------------------------
# policy specs and compiled evaluators
# ---------------------------------------------------------------------------


def test_standard_perturbation_family_contents():
    fam = standard_perturbations(1.0)
    assert len(fam) == 5
    assert [p.describe() for p in fam] == [
        "optimal+0.1",
        "optimal-0.1",
        "optimal*0.5",
        "optimal*1.5",
        "optimal+0.1@[0,0.5)",
    ]


def test_compiled_policy_shift_scale_window(tworeg_sol):
    model = tworeg_sol.model
    base = compile_policy(optimal_policy(), model, tworeg_sol)
    shifted = compile_policy(shift_policy(optimal_policy(), 0.1), model, tworeg_sol)
    scaled = compile_policy(scale_policy(optimal_policy(), 1.5), model, tworeg_sol)
    windowed = compile_policy(
        window_shift_policy(optimal_policy(), 0.1, 0.0, 0.5), model, tworeg_sol
    )
    for t, x, i in [(0.0, 1.0, 1), (0.49, 0.8, 2), (0.75, 1.3, 1)]:
        u = base(t, x, i)
        assert shifted(t, x, i) == pytest.approx(u + 0.1, abs=1e-15)
        assert scaled(t, x, i) == pytest.approx(1.5 * u, abs=1e-15)
        inside = 0.0 <= t < 0.5
        assert windowed(t, x, i) == pytest.approx(u + (0.1 if inside else 0.0), abs=1e-15)


def test_constant_policy_ignores_state(tworeg_market):
    pol = compile_policy(constant_policy(0.3), tworeg_market, None)
    assert pol(0.1, -5.0, 1) == 0.3
    assert pol(0.9, +5.0, 2) == 0.3
    c0, c1 = pol.coeffs(0.5)
    assert np.all(c0 == 0.3) and np.all(c1 == 0.0)


def test_optimal_policy_requires_solution(tworeg_market):
    with pytest.raises(ValueError):
        compile_policy(optimal_policy(), tworeg_market, None)


def test_table_policy_interpolation(tworeg_market):
    times = [0.0, 0.5]
    xs = [0.0, 1.0]
    # values[t, x, regime]
    values = np.array(
        [
            [[0.0, 10.0], [1.0, 11.0]],
            [[5.0, 50.0], [6.0, 51.0]],
        ]
    )
    pol = compile_policy(table_policy(times, xs, values), tworeg_market, None)
    assert not pol.is_affine
    assert pol(0.1, 0.25, 1) == pytest.approx(0.25)  # linear in x
    assert pol(0.1, 0.25, 2) == pytest.approx(10.25)
    assert pol(0.7, 0.5, 1) == pytest.approx(5.5)  # step in t
    with pytest.raises(ValueError):
        pol.coeffs(0.0)


def test_table_policy_shape_validation():
    with pytest.raises(DimensionMismatchError):
        table_policy([0.0, 0.5], [0.0, 1.0], np.zeros((2, 3, 1)))
