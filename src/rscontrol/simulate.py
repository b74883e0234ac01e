"""Monte Carlo simulation of controlled wealth under regime switching.

The wealth SDE is dX = (r X + u sigma theta) dt + u sigma dW with
coefficients driven by the chain.  Discretization is Euler-Maruyama on the
*merged* grid: uniform nodes, market breakpoints, and the exact chain jump
times of each path, so regime changes take effect at the true jump instant.
Every update evaluates coefficients and the control at the cell's left
endpoint using the regime in force during the cell (previsible,
piecewise-constant controls).

The engine steps a block of paths one shared-grid segment at a time, all
paths at once.  A jump strictly inside a segment splits it, for that path,
into sub-cells: ordinal 0 from the left node to the first such jump, ordinal
m from the m-th jump to the next one or to the right node.  Per block, the
within-segment jumps are gathered into flat arrays (path, segment, time, new
state, draw column), and what their sub-cells need that does not depend on
wealth is evaluated in one vectorized pass.  Each split segment is then
stepped again for all of its jumping paths, ordinal by ordinal, with the
full-segment step's elementwise expressions.  Those give the same bits on
arrays as on scalars, so every path matches :func:`simulate_wealth`.

A block's wealth is one (P, nb) array, row k for policy k.  Each full
segment and each sub-cell ordinal computes all controls as ``c0 + c1 * x``
from stacked (times, P, D) affine tables and steps all rows in one Euler
update; table policies' rows are zero there and overwritten by interpolation.
The BSDE weak-order correction applies to row 0 alone.

A run may also accumulate per-path sums for the verification suite: the
adjoint BSDE residual (``bsde``), the Dynkin integral of Gamma V
(``dynkin``) and the three integrability integrands (``integrability``).
Each per-cell formula is written once and evaluated on full segments and on
sub-cells alike; only their rows differ in source (per-segment tables at
grid nodes, the solved triple or cubic Hermite rows at jump times).  The
BSDE residual alone keeps two forms that round differently: the collapsed
affine form on full segments (a speed choice) and the explicit trapezoid on
sub-cells.  A split path's full-segment contributions are replaced by the
sum of its sub-cell contributions.  The adjoint rows at grid nodes come from
one matrix exponential per segment (:func:`rscontrol.odes._propagate`).

Reproducibility contract: path k under master seed s draws its chain from
Philox stream (s, 2k) and its Brownian increments from stream (s, 2k+1).
Noise therefore depends only on (seed, path index, chain path), never on the
policy, the number of paths, or how blocks are scheduled across workers;
paths are aggregated in path-index order, so estimates are bit-identical for
any worker count.  Evaluating several policies in one run reuses the same
noise per path (common random numbers), which is what makes paired policy
comparisons sharp.

Draw layout per path: with S merged-grid segments shared by all paths, draw
``z[0:S]`` feeds the first sub-cell of each segment and ``z[S + m]`` feeds the
sub-cell opened by the path's m-th within-segment jump (time order).  A jump
landing exactly on a grid node splits nothing and consumes no extra draw.
"""

from __future__ import annotations

import math
import mmap
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import (
    CHAIN_STREAM,
    NOISE_STREAM,
    ChainPath,
    GeneratorMatrix,
    _ChainSampler,
    _streams,
    path_stream,
    sample_paths,
)
from .control import CompiledPolicy, PolicySpec, _needs_solution, compile_policy
from .errors import (
    InvalidInitialStateError,
    NonFiniteSolutionError,
    TargetMismatchError,
    TimeOutOfRangeError,
    ValidationError,
)
from .market import MarketModel
from .odes import (
    PhiPsiChiSolution,
    _exponent_rates,
    _gen_apply,
    _propagate,
    _slopes,
    _value,
    solve_phi_psi_chi,
)

__all__ = [
    "McEstimate",
    "WealthPath",
    "simulate_wealth",
    "estimate_J",
    "compare_policies",
]

_BLOCK = 2048  # fixed block size; independent of n_paths and worker count
_CHUNK = 256  # segments per transposed chunk of the regime and draw matrices


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error (sample std / sqrt(n))."""

    mean: float
    std_error: float
    n_paths: int
    seed: int
    elapsed: float


@dataclass(frozen=True)
class WealthPath:
    """One simulated path on its merged grid.

    ``times`` has n_cells+1 nodes; per-cell arrays hold the control, the
    Brownian increment, and the (1-based) regime in force on each cell.
    """

    times: np.ndarray
    wealth: np.ndarray
    controls: np.ndarray
    brownian_increments: np.ndarray
    regimes: np.ndarray
    chain: ChainPath


def _euler_step(x, u, r, sig, th, dt, dw):
    """Canonical update; identical expression on arrays and scalars."""
    return x + (r * x + u * sig * th) * dt + u * sig * dw


def _mapped_array(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Zero-filled array in its own anonymous memory mapping, unmapped when freed.

    Large per-block arrays freed in the malloc heap below small arrays left
    by the Euler stage would keep the heap from shrinking between runs.
    """
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


# ---------------------------------------------------------------------------
# shared grid geometry and coefficient tables
# ---------------------------------------------------------------------------


class _SimGrid:
    """Segment decomposition shared by all paths of a run."""

    def __init__(self, model: MarketModel, n_steps: int):
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        uniform = np.linspace(0.0, model.horizon, n_steps + 1)
        self.bounds = np.unique(np.concatenate([uniform, model.breakpoints]))
        self.n_seg = self.bounds.shape[0] - 1
        self.lens = np.diff(self.bounds)
        self.sqrt_lens = np.sqrt(self.lens)
        cells = np.searchsorted(model.breakpoints, self.bounds[:-1], side="right") - 1
        self.cell_of_seg = np.clip(cells, 0, model.num_cells - 1)
        self.r_seg = model.rates[self.cell_of_seg]  # (S, D)
        self.sig_seg = model.vols[self.cell_of_seg]
        theta = (model.drifts - model.rates) / model.vols
        self.th_seg = theta[self.cell_of_seg]
        self.c2_seg, self.c1_seg, self.th2_seg = _exponent_rates(model, self.cell_of_seg)


def _policy_tables(policies: list[CompiledPolicy], t: np.ndarray):
    """(intercept, slope) arrays of shape (len(t), P, D) at times t; zero for table policies."""
    c0 = np.zeros((t.shape[0], len(policies), policies[0].model.num_states))
    c1 = np.zeros_like(c0)
    for k, pol in enumerate(policies):
        if pol.is_affine:
            c0[:, k], c1[:, k] = pol.coeffs(t)
    return c0, c1


def _eta_quadratic(g: np.ndarray, phi: np.ndarray, psi: np.ndarray):
    """Per row, (A2, A1, A0) with sum_j g_ij eta_ij^2 = A2 x^2 + A1 x + A0.

    eta_ij = (phi_j - phi_i) x + psi_j - psi_i is the jump of p_hat when the
    chain moves from i to j.
    """
    dphi = phi[:, None, :] - phi[:, :, None]  # [n, i, j] = phi_j - phi_i
    dpsi = psi[:, None, :] - psi[:, :, None]
    return (
        np.sum(g * dphi * dphi, axis=2),
        2.0 * np.sum(g * dphi * dpsi, axis=2),
        np.sum(g * dpsi * dpsi, axis=2),
    )


def _weak_drift(c1, th2, phi, psi, phi_t, psi_t):
    """wa of the optimal policy's second-order drift correction (wa + wb x) dt^2.

    The Euler update's conditional mean is exact only to O(dt^2), which
    leaves a deterministic O(dt) bias in summed martingale residuals -- far
    above Monte Carlo resolution.  Adding (wa + wb*x)*dt^2, with wb =
    (r - theta^2)^2 / 2, makes the mean flow third-order accurate, pushing
    the summed bias to O(dt^2).  Rows are taken at the cell's left edge.
    """
    rho = psi / phi
    rho_t = (psi_t * phi - psi * phi_t) / (phi * phi)
    return -0.5 * th2 * (rho_t + c1 * rho)


class _AdjointTables:
    """Per-bound adjoint ingredients for the residual accumulators."""

    def __init__(self, gen, d, grid: _SimGrid):
        g = gen.rates
        n_states = grid.r_seg.shape[1]
        # The exponent rates are constant within a segment, so one matrix
        # exponential per segment evaluates the backward systems at machine
        # precision on the simulation nodes.
        self.phi = np.array(_propagate(g, grid.c2_seg, grid.lens, np.full(n_states, -2.0)))
        self.psi = np.array(_propagate(g, grid.c1_seg, grid.lens, np.full(n_states, 2.0 * d)))
        self.gphi = self.phi @ g.T
        self.gpsi = self.psi @ g.T
        self.integ_rows = (self.phi, self.psi, *_eta_quadratic(g, self.phi, self.psi))
        # slopes at both ends of each segment, in the segment's rates
        rates = grid.c2_seg, grid.c1_seg
        phi_l, psi_l = self.phi[:-1], self.psi[:-1]
        self.phi_tl, self.psi_tl = _slopes(*rates, phi_l, psi_l, self.gphi[:-1], self.gpsi[:-1])
        self.phi_tr, self.psi_tr = _slopes(*rates, self.phi[1:], self.psi[1:], self.gphi[1:], self.gpsi[1:])
        self.wa = _weak_drift(grid.c1_seg, grid.th2_seg, phi_l, psi_l, self.phi_tl, self.psi_tl)
        self.wb = 0.5 * grid.c1_seg**2
        # Collapsed per-cell residual coefficients: apart from the
        # martingale-increment term, the trapezoid residual of one cell is
        # affine in (x_s, x_{s+1}), so three gathered rows replace the full
        # term-by-term evaluation in the hot loop.
        r_s = grid.r_seg
        half = 0.5 * grid.lens[:, None]
        b0, b1 = psi_l, self.psi[1:]
        c0, c1 = self.gphi[:-1], self.gphi[1:]
        d0, d1 = self.gpsi[:-1], self.gpsi[1:]
        self.bsde_rows = (
            (b1 - b0) + half * (r_s * (b0 + b1) + d0 + d1),
            -phi_l + half * (r_s * phi_l + c0),
            self.phi[1:] + half * (r_s * self.phi[1:] + c1),
            self.phi,
        )
        self.bounds = grid.bounds
        self.g = g

    def hermite_rows(self, s: np.ndarray, t: np.ndarray):
        """phi/psi rows at times t inside segments s by cubic Hermite between exact bounds.

        Both endpoint values (semigroup tables) and endpoint slopes (from the
        backward systems) are exact, so the interpolation error is ~h^4 --
        needed because regime-jump residual terms see interpolation errors of
        the two regimes with opposite signs, without cancellation.  Returns
        (phi, psi, G phi, G psi), one row per time.
        """
        b0 = self.bounds[s]
        h = self.bounds[s + 1] - b0
        u = (t - b0) / h
        u2 = u * u
        u3 = u2 * u
        h00 = (2.0 * u3 - 3.0 * u2 + 1.0)[:, None]
        h10 = ((u3 - 2.0 * u2 + u) * h)[:, None]
        h01 = (-2.0 * u3 + 3.0 * u2)[:, None]
        h11 = ((u3 - u2) * h)[:, None]
        phi = h00 * self.phi[s] + h10 * self.phi_tl[s] + h01 * self.phi[s + 1] + h11 * self.phi_tr[s]
        psi = h00 * self.psi[s] + h10 * self.psi_tl[s] + h01 * self.psi[s + 1] + h11 * self.psi_tr[s]
        return phi, psi, _gen_apply(self.g, phi), _gen_apply(self.g, psi)


class _ValueTables:
    """V and its pieces at grid bounds, from the solved coefficient triple."""

    def __init__(self, gen, grid: _SimGrid, sol: PhiPsiChiSolution):
        g = gen.rates
        self.phi, self.psi, self.chi = sol.interp(grid.bounds)
        phi_t, psi_t, chi_t = sol.derivatives(grid.bounds[:-1])
        # the rows of Gamma V, in the order _dynkin_integrand takes them
        self.rows = (
            self.phi, self.psi, phi_t, psi_t, chi_t, self.phi @ g.T, self.psi @ g.T, self.chi @ g.T,
        )


# ---------------------------------------------------------------------------
# per-cell formulas, shared by full segments and jump sub-cells
# ---------------------------------------------------------------------------

# rows of a block's per-path sums
_BSDE, _BSDE_SQ, _DYNKIN = 0, 1, 2
_INTEG = (3, 4, 5)
_N_SUMS = 6


def _bsde_collapsed(rows, x0, x1, u, sg, dw):
    """Adjoint BSDE residual of a full segment: rl0 + rl1 x0 + rl2 x1 - q_hat dW."""
    rl0, rl1, rl2, phi = rows
    return rl0 + rl1 * x0 + rl2 * x1 - phi * sg * u * dw


def _bsde_trapezoid(rows, jump_right, x0, x1, u, r, sg, dt, dw):
    """Adjoint BSDE residual of a sub-cell, term by term (trapezoid in time).

    It rounds differently from the collapsed form, so the two stay separate.
    """
    pa, sa, gpa, gsa, pb, sb, gpb, gsb, pb_after, sb_after = rows
    p0 = pa * x0 + sa
    p1 = pb * x1 + sb
    qh = pa * sg * u
    eg0 = x0 * gpa + gsa
    eg1 = x1 * gpb + gsb
    res = (p1 - p0) + 0.5 * (r * p0 + r * p1) * dt - qh * dw + 0.5 * (eg0 + eg1) * dt
    # a jump at the right edge: p_hat's jump minus eta cancels up to rounding
    jump_dp = (pb_after * x1 + sb_after) - p1
    eta = x1 * (pb_after - pb) + (sb_after - sb)
    return np.where(jump_right, res + (jump_dp - eta), res)


def _dynkin_integrand(x, u, r, sg, th, rows):
    """Gamma V at the cell's left edge, for the control u."""
    phi, psi, phi_t, psi_t, chi_t, gphi, gpsi, gchi = rows
    return (
        0.5 * phi_t * x * x + psi_t * x + chi_t + (r * x + u * sg * th) * (phi * x + psi)
        + 0.5 * u * u * sg * sg * phi + 0.5 * gphi * x * x + gpsi * x + gchi
    )


def _integrability_terms(xh, xa, uh, ua, sg, dt, rows):
    """The three integrability integrands of the optimal (h) against the comparison (a) path, times dt."""
    phi, psi, q2, q1, q0 = rows
    ph = phi * xh + psi
    gap_u = (uh - ua) * sg
    gap_x = xh - xa
    qh = phi * sg * uh
    eta_q = q2 * xh * xh + q1 * xh + q0
    return (
        gap_u * gap_u * ph * ph * dt,
        qh * qh * gap_x * gap_x * dt,
        gap_x * gap_x * eta_q * dt,
    )


def _cell_terms(res, x, u, r, sg, th, dt, dyn_rows, integ_rows):
    """(sum row, per-path contribution) pairs of one cell for the tracked sums.

    ``res`` is the cell's BSDE residual (None if untracked), ``x`` and ``u``
    the wealth and controls of each policy at the cell's left edge, and
    ``dyn_rows``/``integ_rows`` the cell's rows for those sums (None if
    untracked).
    """
    terms = []
    if res is not None:
        terms += [(_BSDE, res), (_BSDE_SQ, res * res)]
    if dyn_rows is not None:
        terms.append((_DYNKIN, _dynkin_integrand(x[0], u[0], r, sg, th, dyn_rows) * dt))
    if integ_rows is not None:
        terms += zip(_INTEG, _integrability_terms(x[0], x[1], u[0], u[1], sg, dt, integ_rows))
    return terms


# ---------------------------------------------------------------------------
# chain jumps against the shared grid
# ---------------------------------------------------------------------------


def _jump_segments(bounds: np.ndarray, times: np.ndarray):
    """Segment of each jump time and whether it lies strictly inside it.

    A jump on a grid node splits nothing: it takes effect from that node on.
    """
    seg = np.searchsorted(bounds, times, side="right") - 1
    return seg, times != bounds[seg]


class _SubCells:
    """Sub-cells of the segments that a block's paths split by jumping inside them.

    Arrays run over sub-cells in (segment, ordinal, path) order and
    ``groups[s]`` holds one slice per ordinal of segment s, ordinal 0 (the
    "heads") first.  Everything that does not depend on wealth is evaluated
    here, once per block, in the arithmetic of the full-segment step.
    """

    def __init__(self, ctx, z, path, tau, new, before, seg):
        # path, tau, new, before, seg: the block's interior jumps in (path,
        # time) order, with the states entered and left and their segments
        grid = ctx.grid
        bounds, n_seg = grid.bounds, grid.n_seg
        n_jump = tau.shape[0]
        idx = np.arange(n_jump)
        first = np.ones(n_jump, dtype=bool)  # first jump of its (path, segment)
        first[1:] = (path[1:] != path[:-1]) | (seg[1:] != seg[:-1])
        last = np.append(first[1:], True)
        nxt = np.minimum(idx + 1, n_jump - 1)
        heads = np.nonzero(first)[0]
        n_head = heads.shape[0]
        # the m-th interior jump of a path opens the sub-cell fed by z[S + m]
        zcol = n_seg + idx - np.searchsorted(path, path, side="left")
        ordinal = idx + 1 - np.maximum.accumulate(np.where(first, idx, 0))
        cat = np.concatenate
        keys = (
            cat([path[heads], path]),
            cat([np.zeros(n_head, dtype=np.int64), ordinal]),
            cat([seg[heads], seg]),
        )
        order = np.lexsort(keys)
        self.path, ordinal, self.seg = (k[order] for k in keys)
        self.a = cat([bounds[seg[heads]], tau])[order]
        b = cat([tau[heads], np.where(last, bounds[seg + 1], tau[nxt])])[order]
        self.st = cat([before[heads], new])[order]
        self.lj = cat([np.full(n_head, -1), idx])[order]  # jump at the left edge
        self.rj = cat([heads, np.where(last, -1, nxt)])[order]  # jump at the right edge
        zc = cat([seg[heads], zcol])[order]

        cut = np.nonzero((self.seg[1:] != self.seg[:-1]) | (ordinal[1:] != ordinal[:-1]))[0] + 1
        self.groups: dict[int, list[slice]] = {}
        for lo, hi in zip([0, *cut.tolist()], [*cut.tolist(), order.shape[0]]):
            self.groups.setdefault(int(self.seg[lo]), []).append(slice(lo, hi))

        s, st = self.seg, self.st
        self.dt = b - self.a
        self.dw = z[self.path, zc] * np.sqrt(self.dt)
        self.r = grid.r_seg[s, st]
        self.sg = grid.sig_seg[s, st]
        self.th = grid.th_seg[s, st]
        # (P, sub-cells) affine rows at jump times, in the regime entered (ordinals >= 1)
        self.cu = tuple(
            np.ascontiguousarray(c[self.lj, :, st].T) for c in _policy_tables(ctx.policies, tau)
        )

        # per-path sums over the sub-cells of one segment
        self.part = np.zeros((_N_SUMS, z.shape[0])) if ctx.accumulate else None
        sol, g = ctx.sol, ctx.gen.rates
        if ctx.bsde:
            adj = ctx.adj
            hphi, hpsi, hgphi, hgpsi = adj.hermite_rows(seg, tau)
            after = cat([new[heads], new[nxt]])[order]  # regime past the right edge
            pa, sa = self.left(adj.phi, hphi), self.left(adj.psi, hpsi)
            gpa, gsa = self.left(adj.gphi, hgphi), self.left(adj.gpsi, hgpsi)
            self.bsde = (
                pa, sa, gpa, gsa,
                self.right(adj.phi, hphi, st), self.right(adj.psi, hpsi, st),
                self.right(adj.gphi, hgphi, st), self.right(adj.gpsi, hgpsi, st),
                self.right(adj.phi, hphi, after), self.right(adj.psi, hpsi, after),
            )
            # the drift correction from the rows at each sub-cell's left edge
            c2, c1 = grid.c2_seg[s, st], grid.c1_seg[s, st]
            self.wa = _weak_drift(c1, grid.th2_seg[s, st], pa, sa, *_slopes(c2, c1, pa, sa, gpa, gsa))
            self.wb = adj.wb[s, st]  # depends on the cell and regime only
        if ctx.dynkin or ctx.integ:
            phi, psi, chi = sol.interp(tau)
        if ctx.dynkin:
            rows = (phi, psi, *sol.derivatives(tau),
                    _gen_apply(g, phi), _gen_apply(g, psi), _gen_apply(g, chi))
            self.dyn = tuple(self.left(tab, row) for tab, row in zip(ctx.val.rows, rows))
        if ctx.integ:
            rows = (phi, psi, *_eta_quadratic(g, phi, psi))
            self.integ = tuple(self.left(tab, row) for tab, row in zip(ctx.adj.integ_rows, rows))

    def left(self, at_bounds, at_jumps):
        """Per sub-cell, in its regime: the row of its segment's left node in
        ``at_bounds`` for heads, else the row of its opening jump in ``at_jumps``."""
        return np.where(self.lj < 0, at_bounds[self.seg, self.st], at_jumps[self.lj, self.st])

    def right(self, at_bounds, at_jumps, state):
        """Per sub-cell, in regime ``state``: the row of its right edge, a node
        of ``at_bounds`` or a jump of ``at_jumps``."""
        return np.where(self.rj < 0, at_bounds[self.seg + 1, state], at_jumps[self.rj, state])


# ---------------------------------------------------------------------------
# block engine
# ---------------------------------------------------------------------------


class _RunContext:
    def __init__(
        self,
        model: MarketModel,
        gen: GeneratorMatrix,
        policies: list[CompiledPolicy],
        *,
        i0: int,
        n_steps: int,
        seed: int,
        accumulate: frozenset,
        sol: PhiPsiChiSolution | None,
        d: float | None,
        t_end: float | None,
    ):
        self.model = model
        self.gen = gen
        self.policies = policies
        self.i0 = i0
        self.seed = seed
        self.grid = _SimGrid(model, n_steps)
        self.tables = _policy_tables(policies, self.grid.bounds[:-1])
        self.table_rows = [k for k, pol in enumerate(policies) if not pol.is_affine]
        self.accumulate = accumulate
        self.bsde = "bsde" in accumulate
        self.dynkin = "dynkin" in accumulate
        self.integ = "integrability" in accumulate
        self.adj = None
        self.val = None
        self.t_end_idx = None
        if self.bsde or self.integ:
            self.adj = _AdjointTables(gen, d, self.grid)
        if self.bsde and policies and policies[0].spec.kind == "optimal":
            # Feed the residual run the same phi/psi representation in the
            # control as in the coefficient rows.  The ODE interpolant is
            # only solver-tolerance accurate; the ~1e-9 control offset it
            # carries would otherwise bias the summed residual mean by a
            # step-count-independent amount.
            th, sg = self.grid.th_seg, self.grid.sig_seg
            c1 = -th / sg
            self.tables[0][:, 0] = c1 * (self.adj.psi[:-1] / self.adj.phi[:-1])
            self.tables[1][:, 0] = c1
        if self.dynkin:
            if not (-1e-12 <= t_end <= model.horizon + 1e-12):
                raise TimeOutOfRangeError(f"t_end={t_end} outside [0, {model.horizon}]")
            idx = np.nonzero(np.abs(self.grid.bounds - t_end) <= 1e-12)[0]
            if idx.shape[0] == 0:
                raise ValidationError(f"t_end={t_end} is not a grid node")
            self.t_end_idx = int(idx[0])
            self.val = _ValueTables(gen, self.grid, sol)
        self.d = d
        self.sol = sol


@dataclass
class _RunArtifacts:
    x_final: np.ndarray  # (P, n_paths)
    alpha_final: np.ndarray  # (n_paths,), 1-based
    n_jumps: np.ndarray  # (n_paths,)
    n_segments: int = 0
    bsde_sum: np.ndarray | None = None
    bsde_sq: np.ndarray | None = None  # per-path sum of squared cell residuals
    bsde_terminal_gap: float = 0.0
    dynkin_int: np.ndarray | None = None
    dynkin_vend: np.ndarray | None = None
    integ: np.ndarray | None = None  # (3, n_paths)


def _process_block(ctx: _RunContext, lo: int, hi: int, arts: _RunArtifacts) -> float:
    """Simulate paths lo..hi-1 into their slices of ``arts``; returns the BSDE terminal gap."""
    grid = ctx.grid
    model = ctx.model
    bounds, lens, sqrt_lens = grid.bounds, grid.lens, grid.sqrt_lens
    n_seg = grid.n_seg
    nb = hi - lo
    i0_0 = ctx.i0 - 1

    # --- chain stage -------------------------------------------------------
    batch = sample_paths(ctx.gen, ctx.i0, model.horizon, ctx.seed, lo, hi)
    counts, tau, new, before, path = batch.counts, batch.times, batch.new, batch.before, batch.path
    seg, inner = _jump_segments(bounds, tau)
    regimes = _mapped_array((nb, n_seg), np.int16)
    regimes[:] = i0_0
    for p, start, state in zip(path.tolist(), (seg + inner).tolist(), new.tolist()):
        regimes[p, start:] = state
    alpha_final = batch.final_states()  # 0-based
    arts.n_jumps[lo:hi] = counts
    arts.alpha_final[lo:hi] = alpha_final + 1
    n_inner = np.bincount(path[inner], minlength=nb)

    # --- noise stage -------------------------------------------------------
    z = _mapped_array((nb, n_seg + int(n_inner.max())), np.float64)
    needs = (n_seg + n_inner).tolist()
    for p, rng in enumerate(_streams(ctx.seed, lo, hi, NOISE_STREAM)):
        rng.standard_normal(out=z[p, :needs[p]])

    sub = None
    if inner.any():
        sub = _SubCells(ctx, z, path[inner], tau[inner], new[inner], before[inner], seg[inner])

    # --- Euler stage -------------------------------------------------------
    x = np.full((len(ctx.policies), nb), float(model.initial_wealth))
    sums = np.zeros((_N_SUMS, nb)) if ctx.accumulate else None
    adj, val = ctx.adj, ctx.val
    c0, c1 = ctx.tables

    # The regime and draw matrices are path-major, so reading one segment's
    # column would touch one cache line per path; transposing a chunk at a
    # time amortizes that into contiguous rows.  Coefficient rows are then
    # gathered per segment with those contiguous index vectors, and the cell
    # residual uses the collapsed affine form rl0 + rl1*x0 + rl2*x1 - q*dW
    # to keep the vector-operation count per segment small.
    for cs in range(0, n_seg, _CHUNK):
        ce = min(cs + _CHUNK, n_seg)
        regsT = regimes[:, cs:ce].T.astype(np.intp)
        dwC = z[:, cs:ce].T * sqrt_lens[cs:ce, None]
        for s in range(cs, ce):
            c = s - cs
            reg = regsT[c]
            dw = dwC[c]
            dt = float(lens[s])
            r_v = grid.r_seg[s][reg]
            sg_v = grid.sig_seg[s][reg]
            th_v = grid.th_seg[s][reg]
            u = c0[s].take(reg, axis=1) + c1[s].take(reg, axis=1) * x
            for k in ctx.table_rows:
                u[k] = ctx.policies[k].eval_vector(float(bounds[s]), x[k], reg)
            # the shared rows get a leading axis: broadcasting 1-D rows
            # against (P, nb) is slower, and the bits are the same
            xn = _euler_step(x, u, r_v[None], sg_v[None], th_v[None], dt, dw[None])
            if ctx.bsde:
                xn[0] += (adj.wa[s][reg] + adj.wb[s][reg] * x[0]) * (dt * dt)
            if s == ctx.t_end_idx:
                x_end = x[0]

            split = None if sub is None else sub.groups.get(s)
            dyn = ctx.dynkin and s < ctx.t_end_idx
            if sums is not None:
                res = None
                if ctx.bsde:
                    rows = [tab[s][reg] for tab in adj.bsde_rows]
                    res = _bsde_collapsed(rows, x[0], xn[0], u[0], sg_v, dw)
                terms = _cell_terms(
                    res, x, u, r_v, sg_v, th_v, dt,
                    [tab[s][reg] for tab in val.rows] if dyn else None,
                    [tab[s][reg] for tab in adj.integ_rows] if ctx.integ else None,
                )
                for k, contrib in terms:
                    if split is not None:
                        # split paths contribute their sub-cell sums instead
                        contrib[sub.path[split[0]]] = 0.0
                    sums[k] += contrib
            if split is not None:
                _replay_split(ctx, sub, split, x, xn, u, sums, dyn)
            x = xn

    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        bad = ctx.policies[int(np.argmin(finite))]
        raise NonFiniteSolutionError(f"wealth overflowed for policy {bad.spec.describe()!r}")
    arts.x_final[:, lo:hi] = x
    gap = 0.0
    if ctx.bsde:
        arts.bsde_sum[lo:hi] = sums[_BSDE]
        arts.bsde_sq[lo:hi] = sums[_BSDE_SQ]
        # terminal condition: p_hat(T) vs dh/dx, both affine in X(T)
        p_t = adj.phi[n_seg][alpha_final] * x[0] + adj.psi[n_seg][alpha_final]
        grad = -2.0 * (x[0] - ctx.d)
        gap = float(np.max(np.abs(p_t - grad)))
    if ctx.dynkin:
        j = ctx.t_end_idx
        if j == n_seg:
            x_end = x[0]
        reg = alpha_final if j == n_seg else regimes[:, j]
        arts.dynkin_int[lo:hi] = sums[_DYNKIN]
        arts.dynkin_vend[lo:hi] = _value(val.phi[j][reg], val.psi[j][reg], val.chi[j][reg], x_end)
    if ctx.integ:
        arts.integ[:, lo:hi] = sums[list(_INTEG)]
    return gap


def _replay_split(ctx, sub: _SubCells, split, x, xn, u, sums, dyn):
    """Step one segment again for every path of the block that jumps inside it.

    ``split`` holds the segment's sub-cell slices by ordinal; each ordinal is
    stepped for all of its paths and all policies at once, starting from the
    (P, nb) wealth ``x`` and writing into ``xn``.  Ordinal 0 reuses the
    full-segment controls ``u``.  Such a path's sums receive the sum of its
    sub-cell contributions (its full-segment ones were zeroed); ``dyn`` tells
    whether the Dynkin integral still runs.
    """
    paths = sub.path[split[0]]
    part = sub.part
    if part is not None:
        part[:, paths] = 0.0
    c0, c1 = sub.cu
    for ordinal, sl in enumerate(split):
        pg = sub.path[sl]
        dt, dw, r, sg, th = sub.dt[sl], sub.dw[sl], sub.r[sl], sub.sg[sl], sub.th[sl]
        if ordinal == 0:
            xs, us = x.take(pg, axis=1), u.take(pg, axis=1)
        else:
            xs = xn.take(pg, axis=1)
            us = c0[:, sl] + c1[:, sl] * xs
            for k in ctx.table_rows:
                us[k] = ctx.policies[k].eval_vector(sub.a[sl], xs[k], sub.st[sl])
        x1 = _euler_step(xs, us, r[None], sg[None], th[None], dt[None], dw[None])
        if ctx.bsde:
            x1[0] += (sub.wa[sl] + sub.wb[sl] * xs[0]) * (dt * dt)
        xn[:, pg] = x1
        if part is None:
            continue
        res = None
        if ctx.bsde:
            rows = [v[sl] for v in sub.bsde]
            res = _bsde_trapezoid(rows, sub.rj[sl] >= 0, xs[0], x1[0], us[0], r, sg, dt, dw)
        terms = _cell_terms(
            res, xs, us, r, sg, th, dt,
            [v[sl] for v in sub.dyn] if dyn else None,
            [v[sl] for v in sub.integ] if ctx.integ else None,
        )
        for k, contrib in terms:
            part[k, pg] += contrib
    if part is not None:
        sums[:, paths] += part[:, paths]


def _run_blocks(
    model: MarketModel,
    gen: GeneratorMatrix,
    policies: list[CompiledPolicy],
    *,
    i0: int,
    n_paths: int,
    n_steps: int,
    seed: int,
    workers: int = 1,
    accumulate: frozenset = frozenset(),
    sol: PhiPsiChiSolution | None = None,
    d: float | None = None,
    t_end: float | None = None,
) -> _RunArtifacts:
    if not (1 <= i0 <= model.num_states):
        raise InvalidInitialStateError(f"initial state {i0} outside 1..{model.num_states}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    ctx = _RunContext(
        model, gen, policies, i0=i0, n_steps=n_steps, seed=seed,
        accumulate=accumulate, sol=sol, d=d, t_end=t_end,
    )
    n_pol = len(policies)
    arts = _RunArtifacts(
        x_final=np.empty((n_pol, n_paths)),
        alpha_final=np.empty(n_paths, dtype=np.int64),
        n_jumps=np.empty(n_paths, dtype=np.int64),
    )
    arts.n_segments = ctx.grid.n_seg
    if "bsde" in accumulate:
        arts.bsde_sum = np.empty(n_paths)
        arts.bsde_sq = np.empty(n_paths)
    if "dynkin" in accumulate:
        arts.dynkin_int = np.empty(n_paths)
        arts.dynkin_vend = np.empty(n_paths)
    if "integrability" in accumulate:
        arts.integ = np.empty((3, n_paths))
    blocks = [(lo, min(lo + _BLOCK, n_paths)) for lo in range(0, n_paths, _BLOCK)]

    def work(span):
        return _process_block(ctx, *span, arts)

    if workers <= 1 or len(blocks) == 1:
        gaps = [work(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            gaps = list(pool.map(work, blocks))
    arts.bsde_terminal_gap = max(gaps) if gaps else 0.0
    return arts


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def _resolve_policies(model, gen, specs: list[PolicySpec], sol, d, steps_per_cell=200):
    if any(_needs_solution(sp) for sp in specs):
        if sol is None:
            if d is None:
                raise ValueError("target d is required to solve for the optimal policy")
            sol = solve_phi_psi_chi(model, gen, d, steps_per_cell)
        elif d is not None and float(d) != sol.target:
            # the policy would be optimal for sol.target, not for the loss at d
            raise TargetMismatchError(f"solution was solved for target {sol.target}, not d={d}")
    return [compile_policy(sp, model, sol) for sp in specs], sol


def simulate_wealth(
    model: MarketModel,
    gen: GeneratorMatrix,
    policy: PolicySpec,
    sol: PhiPsiChiSolution | None,
    x0: float,
    n_steps: int,
    seed: int,
    *,
    i0: int = 1,
    path_index: int = 0,
) -> WealthPath:
    """Simulate one path and return its full trajectory on the merged grid.

    Uses the same per-path streams and update arithmetic as the aggregate
    estimators, so path ``k`` here reproduces path ``k`` of an
    :func:`estimate_J` run with the same seed, bit for bit.
    """
    pol = _resolve_policies(model, gen, [policy], sol, None)[0][0]
    grid = _SimGrid(model, n_steps)
    c0, c1 = _policy_tables([pol], grid.bounds[:-1])
    if not (1 <= i0 <= model.num_states):
        raise InvalidInitialStateError(f"initial state {i0} outside 1..{model.num_states}")
    rng = path_stream(seed, path_index, CHAIN_STREAM)
    sampler = _ChainSampler(gen)
    times, states = sampler.sample(rng, i0 - 1, model.horizon)
    seg, inner = _jump_segments(grid.bounds, times)
    interior_seg = np.where(inner, seg, -1)
    n_draws = grid.n_seg + int(np.count_nonzero(inner))
    zrng = path_stream(seed, path_index, NOISE_STREAM)
    z = zrng.standard_normal(n_draws)

    cell_times = [0.0]
    wealth = [x0]
    controls: list[float] = []
    incrs: list[float] = []
    regs: list[int] = []
    x = float(x0)
    state = i0 - 1
    m = 0  # interior jumps consumed
    jump_ptr = 0
    for s in range(grid.n_seg):
        t0, t1 = float(grid.bounds[s]), float(grid.bounds[s + 1])
        # node-exact jumps switch the regime without splitting the cell
        while jump_ptr < times.shape[0] and interior_seg[jump_ptr] < 0 and times[jump_ptr] <= t0:
            state = int(states[jump_ptr])
            jump_ptr += 1
        sub = []
        a, zcol = t0, s
        while jump_ptr < times.shape[0] and interior_seg[jump_ptr] == s:
            tau = float(times[jump_ptr])
            sub.append((a, tau, state, zcol))
            state = int(states[jump_ptr])
            a, zcol = tau, grid.n_seg + m
            m += 1
            jump_ptr += 1
        sub.append((a, t1, state, zcol))
        cell_k = int(grid.cell_of_seg[s])
        for ca, cb, st, zc in sub:
            dtc = cb - ca
            dwc = float(z[zc]) * math.sqrt(dtc)
            r_c = float(model.rates[cell_k, st])
            sg_c = float(model.vols[cell_k, st])
            th_c = (float(model.drifts[cell_k, st]) - r_c) / sg_c
            if pol.is_affine and ca == t0:
                u_c = float(c0[s, 0, st] + c1[s, 0, st] * x)
            else:
                u_c = pol(ca, x, st + 1)
            x = _euler_step(x, u_c, r_c, sg_c, th_c, dtc, dwc)
            cell_times.append(cb)
            wealth.append(x)
            controls.append(u_c)
            incrs.append(dwc)
            regs.append(st + 1)
    chain = ChainPath(initial_state=i0, horizon=model.horizon, jump_times=times, jump_states=states + 1)
    return WealthPath(
        times=np.asarray(cell_times),
        wealth=np.asarray(wealth),
        controls=np.asarray(controls),
        brownian_increments=np.asarray(incrs),
        regimes=np.asarray(regs, dtype=np.int64),
        chain=chain,
    )


def estimate_J(
    model: MarketModel,
    gen: GeneratorMatrix,
    policy: PolicySpec,
    d: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    *,
    i0: int = 1,
    sol: PhiPsiChiSolution | None = None,
    workers: int = 1,
) -> McEstimate:
    """Estimate J(u) = E[-(X(T) - d)^2] over n_paths independent paths."""
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for a standard error, got {n_paths}")
    t_start = time.perf_counter()
    compiled, _ = _resolve_policies(model, gen, [policy], sol, d)
    arts = _run_blocks(
        model, gen, compiled, i0=i0, n_paths=n_paths, n_steps=n_steps, seed=seed, workers=workers,
    )
    payoff = -((arts.x_final[0] - d) ** 2)
    mean = float(np.mean(payoff))
    se = float(np.std(payoff, ddof=1) / math.sqrt(n_paths))
    return McEstimate(
        mean=mean, std_error=se, n_paths=n_paths, seed=seed,
        elapsed=time.perf_counter() - t_start,
    )


def compare_policies(
    model: MarketModel,
    gen: GeneratorMatrix,
    base: PolicySpec,
    alternatives: list[PolicySpec],
    d: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    *,
    i0: int = 1,
    sol: PhiPsiChiSolution | None = None,
    workers: int = 1,
) -> list[McEstimate]:
    """Paired estimates of J(base) - J(alt) under common random numbers.

    All policies see identical chain paths and Brownian increments, so the
    difference estimator's standard error reflects only the policy gap.  An
    alternative equal to the base yields a difference of exactly zero.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for a standard error, got {n_paths}")
    t_start = time.perf_counter()
    compiled, _ = _resolve_policies(model, gen, [base, *alternatives], sol, d)
    arts = _run_blocks(
        model, gen, compiled, i0=i0, n_paths=n_paths, n_steps=n_steps, seed=seed, workers=workers,
    )
    payoff_base = -((arts.x_final[0] - d) ** 2)
    out = []
    elapsed = time.perf_counter() - t_start
    for k in range(len(alternatives)):
        payoff_alt = -((arts.x_final[k + 1] - d) ** 2)
        diff = payoff_base - payoff_alt
        out.append(
            McEstimate(
                mean=float(np.mean(diff)),
                std_error=float(np.std(diff, ddof=1) / math.sqrt(n_paths)),
                n_paths=n_paths,
                seed=seed,
                elapsed=elapsed,
            )
        )
    return out
