"""Hamiltonian, closed-form optimal policy, and adjoint processes.

For the wealth problem the Hamiltonian is H = (r x + u sigma theta) p
+ u sigma q (no running cost), which is linear in u; along the candidate
solution the coefficient of u vanishes, which is exactly the first-order
condition of the maximum principle.  The optimal feedback control is

    u_hat(t, x, i) = -(theta/sigma)(t, i) * ( x + psi(t, i) / phi(t, i) ),

affine in x, and the adjoint processes are p_hat = phi x + psi,
q_hat = phi sigma u_hat (equivalently -theta p_hat), and jump terms
eta_hat_ij = x (phi_j - phi_i) + (psi_j - psi_i).

Policies are described declaratively by :class:`PolicySpec` (optimal,
constant, perturbations of a base policy, or a lookup table) and compiled to
evaluators.  Affine policies expose per-regime (intercept, slope) rows; both
the scalar and the vectorized simulation paths evaluate the same expression
``u = c0 + c1 * x`` so that results agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .market import MarketModel, coefficients_at
from .odes import PhiPsiChiSolution

__all__ = [
    "AdjointTriple",
    "PolicySpec",
    "CompiledPolicy",
    "lq_hamiltonian",
    "optimal_control",
    "adjoint_closed_form",
    "optimal_policy",
    "constant_policy",
    "shift_policy",
    "scale_policy",
    "window_shift_policy",
    "table_policy",
    "standard_perturbations",
    "compile_policy",
]


def lq_hamiltonian(model: MarketModel, t: float, x: float, u: float, i: int, p: float, q: float) -> float:
    """Wealth-problem Hamiltonian (r x + u sigma theta) p + u sigma q."""
    r, _, sig, th = coefficients_at(model, t, i)
    return (r * x + u * sig * th) * p + u * sig * q


# ---------------------------------------------------------------------------
# policy specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableData:
    """Control lookup table: step interpolation in t, linear in x."""

    times: np.ndarray  # (nt,), ascending
    xs: np.ndarray  # (nx,), ascending
    values: np.ndarray  # (nt, nx, D)


@dataclass(frozen=True)
class PolicySpec:
    """Declarative description of a feedback control.

    kind is one of "optimal", "constant", "perturbed", "table".  Perturbed
    policies wrap a base spec with direction "shift" (u + epsilon), "scale"
    (kappa * u) or "window_shift" (u + epsilon on [t0, t1)).
    """

    kind: str
    u0: float = 0.0
    base: "PolicySpec | None" = None
    direction: str | None = None
    epsilon: float = 0.0
    window: tuple[float, float] | None = None
    table: TableData | None = None

    def describe(self) -> str:
        if self.kind == "optimal":
            return "optimal"
        if self.kind == "constant":
            return f"constant({self.u0:g})"
        if self.kind == "table":
            return "table"
        base = self.base.describe() if self.base is not None else "?"
        if self.direction == "shift":
            return f"{base}{self.epsilon:+g}"
        if self.direction == "scale":
            return f"{base}*{self.epsilon:g}"
        if self.direction == "window_shift":
            t0, t1 = self.window
            return f"{base}{self.epsilon:+g}@[{t0:g},{t1:g})"
        return f"{base}?"


def optimal_policy() -> PolicySpec:
    return PolicySpec(kind="optimal")


def constant_policy(u0: float) -> PolicySpec:
    return PolicySpec(kind="constant", u0=float(u0))


def shift_policy(base: PolicySpec, epsilon: float) -> PolicySpec:
    return PolicySpec(kind="perturbed", base=base, direction="shift", epsilon=float(epsilon))


def scale_policy(base: PolicySpec, kappa: float) -> PolicySpec:
    return PolicySpec(kind="perturbed", base=base, direction="scale", epsilon=float(kappa))


def window_shift_policy(base: PolicySpec, epsilon: float, t0: float, t1: float) -> PolicySpec:
    return PolicySpec(
        kind="perturbed",
        base=base,
        direction="window_shift",
        epsilon=float(epsilon),
        window=(float(t0), float(t1)),
    )


def table_policy(times, xs, values) -> PolicySpec:
    times = np.asarray(times, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.shape[:2] != (times.shape[0], xs.shape[0]):
        raise DimensionMismatchError(
            f"table values shape {values.shape} inconsistent with {times.shape[0]} times, {xs.shape[0]} x-nodes"
        )
    return PolicySpec(kind="table", table=TableData(times=times, xs=xs, values=values))


def standard_perturbations(horizon: float) -> list[PolicySpec]:
    """The five reference perturbations of the optimal policy.

    Constant shifts +/- 0.1, proportional scalings x0.5 and x1.5, and a
    shift by +0.1 on the first half of the horizon.
    """
    base = optimal_policy()
    epsilon = 0.1
    return [
        shift_policy(base, +epsilon),
        shift_policy(base, -epsilon),
        scale_policy(base, 0.5),
        scale_policy(base, 1.5),
        window_shift_policy(base, +epsilon, 0.0, horizon / 2.0),
    ]


# ---------------------------------------------------------------------------
# compiled evaluators
# ---------------------------------------------------------------------------


class CompiledPolicy:
    """Evaluator for a PolicySpec against a fixed model (and solution).

    Affine policies expose ``coeffs(t) -> (c0, c1)`` with per-regime rows so
    u(t, x, i) = c0[i-1] + c1[i-1] * x.  Table policies are evaluated by
    interpolation and report ``is_affine = False``.
    """

    def __init__(self, spec: PolicySpec, model: MarketModel, sol: PhiPsiChiSolution | None):
        self.spec = spec
        self.model = model
        self.sol = sol
        self.is_affine = spec.kind != "table"
        if _needs_solution(spec) and sol is None:
            raise ValueError("optimal policy requires a solved coefficient triple (sol)")

    def coeffs(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Per-regime (intercept, slope) rows at time t: (D,) each, or (N, D) for N times."""
        if not self.is_affine:
            raise ValueError("table policies are not affine")
        return _affine_terms(self.spec, self.model, self.sol, t)

    def __call__(self, t: float, x: float, i: int) -> float:
        """Scalar evaluation u(t, x, i), state 1-based."""
        if self.is_affine:
            c0, c1 = self.coeffs(t)
            return float(c0[i - 1] + c1[i - 1] * x)
        return float(self.eval_vector(t, np.asarray([x]), np.asarray([i - 1]))[0])

    def eval_vector(self, t, x: np.ndarray, reg0: np.ndarray) -> np.ndarray:
        """Table policies only: u at wealths x in 0-based regimes ``reg0``.

        ``t`` is one time for all elements of x or one time per element.
        """
        if self.is_affine:
            raise ValueError("affine policies are evaluated from coeffs(t)")
        tab = self.spec.table
        ti = np.searchsorted(tab.times, t, side="right") - 1
        ti = np.clip(ti, 0, tab.times.shape[0] - 1)
        out = np.empty_like(x, dtype=np.float64)
        for row in np.unique(ti):
            for j in range(self.model.num_states):
                mask = (ti == row) & (reg0 == j)
                if np.any(mask):
                    out[mask] = np.interp(x[mask], tab.xs, tab.values[row, :, j])
        return out


def _needs_solution(spec: PolicySpec) -> bool:
    if spec.kind == "optimal":
        return True
    if spec.kind == "perturbed":
        return _needs_solution(spec.base)
    return False


def _affine_terms(
    spec: PolicySpec, model: MarketModel, sol: PhiPsiChiSolution | None, t
) -> tuple[np.ndarray, np.ndarray]:
    """(intercept, slope) rows at a float t, or one row each per time of an array t.

    Arithmetic is elementwise, so a time gives the same bits alone or in an array.
    """
    shape = np.shape(t) + (model.num_states,)
    if spec.kind == "constant":
        return np.full(shape, spec.u0), np.zeros(shape)
    if spec.kind == "optimal":
        phi, psi, _ = sol.interp(t)
        k = model.cell_index(t)
        slope = -model.theta(k) / model.vols[k]
        return slope * (psi / phi), slope
    if spec.kind == "perturbed":
        c0, c1 = _affine_terms(spec.base, model, sol, t)
        if spec.direction == "shift":
            return c0 + spec.epsilon, c1
        if spec.direction == "scale":
            return spec.epsilon * c0, spec.epsilon * c1
        if spec.direction == "window_shift":
            t0, t1 = spec.window
            t = np.asarray(t)
            inside = (t0 <= t) & (t < t1)
            return np.where(inside[..., None], c0 + spec.epsilon, c0), c1
        raise ValueError(f"unknown perturbation direction {spec.direction!r}")
    raise ValueError(f"policy kind {spec.kind!r} has no affine form")


def compile_policy(
    spec: PolicySpec, model: MarketModel, sol: PhiPsiChiSolution | None = None
) -> CompiledPolicy:
    return CompiledPolicy(spec, model, sol)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def optimal_control(sol: PhiPsiChiSolution, t: float, x: float, i: int) -> float:
    """u_hat(t, x, i) = -(theta/sigma) (x + psi/phi), evaluated in affine form."""
    pol = CompiledPolicy(optimal_policy(), sol.model, sol)
    return pol(t, x, i)


@dataclass(frozen=True)
class AdjointTriple:
    """Adjoint state (p, q, eta) of the wealth problem at one point.

    The state dimension is one, so p and q are scalars; ``eta`` is a (D, D)
    matrix of jump sizes with zero diagonal, row = pre-jump state.
    """

    p: float
    q: float
    eta: np.ndarray


def adjoint_closed_form(sol: PhiPsiChiSolution, t: float, x: float, i: int) -> AdjointTriple:
    """p_hat = phi x + psi, q_hat = phi sigma u_hat, eta_hat_ij = x Dphi + Dpsi."""
    phi, psi, _ = sol.interp(t)
    j = i - 1
    p = float(phi[j] * x + psi[j])
    _, _, sig, _ = coefficients_at(sol.model, t, i)
    u = optimal_control(sol, t, x, i)
    q = float(phi[j] * sig * u)
    eta = x * (phi[None, :] - phi[:, None]) + (psi[None, :] - psi[:, None])
    eta = eta * 1.0  # materialize; rows are pre-jump states
    np.fill_diagonal(eta, 0.0)
    return AdjointTriple(p=p, q=q, eta=eta)
