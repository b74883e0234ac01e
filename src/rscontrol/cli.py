"""Batch command-line front end.

Subcommands read a JSON config, run one stage of the pipeline, and write a
CSV artifact named after the subcommand into the configured output
directory.  Floats are serialized with 17 significant digits so results
survive a round-trip exactly; identical config and seed produce
byte-identical files for any worker count.

Exit codes: 0 success, 1 at least one verification check failed, 2 config
or validation errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chain import (
    GeneratorMatrix,
    _batches,
    _mean_se_of_sums,
    _running_sum,
    transition_matrix,
    validate_generator,
)
from .control import optimal_control, optimal_policy, standard_perturbations
from .errors import (
    ConfigError,
    DegenerateDualError,
    MissingFieldError,
    NonFiniteSolutionError,
    ValidationError,
)
from .frontier import solve_frontier_point
from .market import MarketModel, load_market
from .odes import solve_phi_psi_chi
from .simulate import _resolve_policies, _run_blocks, simulate_wealth
from .verify import run_all_checks

__all__ = ["main"]

_SUBCOMMANDS = (
    "simulate-chain",
    "solve-odes",
    "optimal-control",
    "evaluate",
    "verify",
    "frontier",
)


@dataclass(frozen=True)
class RunConfig:
    model: MarketModel
    gen: GeneratorMatrix
    mode: str
    d: float | None
    a: float | None
    i0: int
    n_paths: int
    n_steps: int
    steps_per_cell: int
    seed: int
    workers: int
    outdir: Path
    emit_paths: bool


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _apply_override(cfg: dict, dotted: str, raw_value: str) -> None:
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    keys = dotted.split(".")
    node = cfg
    for key in keys[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[keys[-1]] = value


def _require_positive_int(value, name: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _build_config(cfg: dict) -> RunConfig:
    if "market" not in cfg:
        raise MissingFieldError("config is missing the 'market' section")
    if "generator" not in cfg:
        raise MissingFieldError("config is missing the 'generator' matrix")
    gen = validate_generator(cfg["generator"])
    model = load_market({**cfg["market"], "generator": cfg["generator"]})
    problem = cfg.get("problem", {})
    mode = problem.get("mode", "quadratic")
    if mode not in ("quadratic", "frontier"):
        raise ConfigError(f"problem.mode must be 'quadratic' or 'frontier', got {mode!r}")
    d = problem.get("d")
    a = problem.get("a")
    i0 = _require_positive_int(problem.get("initial_state", 1), "problem.initial_state")
    if i0 > model.num_states:
        raise ConfigError(f"problem.initial_state {i0} exceeds {model.num_states} regimes")
    numerics = cfg.get("numerics", {})
    if "seed" not in numerics:
        raise MissingFieldError("numerics.seed is mandatory (no wall-clock seeding)")
    seed = numerics["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"numerics.seed must be a non-negative integer, got {seed!r}")
    output = cfg.get("output", {})
    return RunConfig(
        model=model,
        gen=gen,
        mode=mode,
        d=None if d is None else float(d),
        a=None if a is None else float(a),
        i0=i0,
        n_paths=_require_positive_int(numerics.get("n_paths", 100_000), "numerics.n_paths", 2),
        n_steps=_require_positive_int(numerics.get("n_steps", 4096), "numerics.n_steps"),
        steps_per_cell=_require_positive_int(
            numerics.get("steps_per_cell", 200), "numerics.steps_per_cell"
        ),
        seed=seed,
        workers=_require_positive_int(numerics.get("workers", 1), "numerics.workers"),
        outdir=Path(output.get("directory", ".")),
        emit_paths=bool(output.get("emit_paths", False)),
    )


def _need_target(rc: RunConfig) -> float:
    if rc.d is None:
        raise MissingFieldError("problem.d is required for this subcommand")
    return rc.d


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate_chain(rc: RunConfig) -> int:
    gen, t_hor = rc.gen, rc.model.horizon
    d_states = gen.num_states
    occ_probs = np.zeros(d_states)
    jumps_sum = jumps_sum2 = 0.0
    n_sum = np.zeros((d_states, d_states))
    n_sum2 = np.zeros((d_states, d_states))
    m_sum = np.zeros((d_states, d_states))
    m_sum2 = np.zeros((d_states, d_states))
    for batch in _batches(gen, rc.i0, t_hor, rc.seed, rc.n_paths):
        counts, m = batch.compensated_counts(gen)
        # integer-valued sums are exact in any order
        occ_probs += np.bincount(batch.final_states(), minlength=d_states)
        jumps_sum += int(batch.counts.sum())
        jumps_sum2 += int((batch.counts * batch.counts).sum())
        n_sum += counts.sum(axis=0)
        n_sum2 += (counts * counts).sum(axis=0)
        m_sum = _running_sum(m_sum, m)
        m_sum2 = _running_sum(m_sum2, m * m)
    n = rc.n_paths
    exact = transition_matrix(gen, t_hor)[rc.i0 - 1]
    rows = []
    for i in range(d_states):
        mean, s = _mean_se_of_sums(occ_probs[i], occ_probs[i], n)  # hit * hit = hit
        rows.append(["prob_state", i + 1, 0, mean, s])
        rows.append(["prob_state_exact", i + 1, 0, float(exact[i]), 0.0])
    mean, s = _mean_se_of_sums(jumps_sum, jumps_sum2, n)
    rows.append(["mean_jumps", 0, 0, mean, s])
    for i in range(d_states):
        for j in range(d_states):
            if i == j:
                continue
            mean, s = _mean_se_of_sums(n_sum[i, j], n_sum2[i, j], n)
            rows.append(["mean_N", i + 1, j + 1, mean, s])
            mean, s = _mean_se_of_sums(m_sum[i, j], m_sum2[i, j], n)
            rows.append(["mean_M", i + 1, j + 1, mean, s])
    _write_csv(rc.outdir / "simulate-chain.csv", ["name", "i", "j", "value", "std_error"], rows)
    return 0


def _cmd_solve_odes(rc: RunConfig) -> int:
    d = _need_target(rc)
    sol = solve_phi_psi_chi(rc.model, rc.gen, d, rc.steps_per_cell)
    rows = []
    for k, t in enumerate(sol.grid):
        for i in range(rc.model.num_states):
            rows.append([float(t), i + 1, float(sol.phi[k, i]), float(sol.psi[k, i]), float(sol.chi[k, i])])
    _write_csv(rc.outdir / "solve-odes.csv", ["t", "regime", "phi", "psi", "chi"], rows)
    return 0


def _cmd_optimal_control(rc: RunConfig) -> int:
    d = _need_target(rc)
    sol = solve_phi_psi_chi(rc.model, rc.gen, d, rc.steps_per_cell)
    x0 = rc.model.initial_wealth
    rows = []
    for t in np.linspace(0.0, rc.model.horizon, 50):
        for x in np.linspace(x0 - 0.5, x0 + 0.5, 21):
            for i in range(1, rc.model.num_states + 1):
                rows.append([float(t), float(x), i, optimal_control(sol, float(t), float(x), i)])
    _write_csv(rc.outdir / "optimal-control.csv", ["t", "x", "regime", "u"], rows)
    return 0


def _cmd_evaluate(rc: RunConfig) -> int:
    d = _need_target(rc)
    specs = [optimal_policy(), *standard_perturbations(rc.model.horizon)]
    compiled, sol = _resolve_policies(rc.model, rc.gen, specs, None, d, rc.steps_per_cell)
    arts = _run_blocks(
        rc.model, rc.gen, compiled, i0=rc.i0, n_paths=rc.n_paths, n_steps=rc.n_steps,
        seed=rc.seed, workers=rc.workers,
    )
    rows = []
    for k, spec in enumerate(specs):
        payoff = -((arts.x_final[k] - d) ** 2)
        j_hat = float(np.mean(payoff))
        se = float(np.std(payoff, ddof=1) / math.sqrt(rc.n_paths))
        rows.append([spec.describe(), rc.n_paths, rc.n_steps, rc.seed, j_hat, se])
    _write_csv(
        rc.outdir / "evaluate.csv",
        ["policy", "n_paths", "n_steps", "seed", "J_hat", "std_error"],
        rows,
    )
    if rc.emit_paths:
        wp = simulate_wealth(
            rc.model, rc.gen, optimal_policy(), sol, rc.model.initial_wealth,
            rc.n_steps, rc.seed, i0=rc.i0, path_index=0,
        )
        path_rows = []
        for c in range(wp.controls.shape[0]):
            path_rows.append([
                float(wp.times[c]), float(wp.times[c + 1]), int(wp.regimes[c]),
                float(wp.controls[c]), float(wp.brownian_increments[c]), float(wp.wealth[c + 1]),
            ])
        _write_csv(
            rc.outdir / "paths.csv",
            ["t_left", "t_right", "regime", "control", "dW", "wealth_end"],
            path_rows,
        )
    return 0


def _cmd_verify(rc: RunConfig) -> int:
    d = _need_target(rc)
    reports = run_all_checks(
        rc.model, rc.gen, d, i0=rc.i0, n_paths=rc.n_paths, n_steps=rc.n_steps,
        steps_per_cell=rc.steps_per_cell, seed=rc.seed, workers=rc.workers,
    )
    rows = [[r.check_name, r.statistic, r.threshold, r.passed] for r in reports]
    _write_csv(rc.outdir / "verify.csv", ["check_name", "statistic", "threshold", "passed"], rows)
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"FAILED {r.check_name}: {r.statistic:.6g} > {r.threshold:.6g} ({r.detail})", file=sys.stderr)
    return 1 if failed else 0


def _cmd_frontier(rc: RunConfig) -> int:
    if rc.a is None:
        raise MissingFieldError("problem.a is required for the frontier subcommand")
    pt = solve_frontier_point(
        rc.model, rc.gen, rc.a, i0=rc.i0, n_paths=rc.n_paths, n_steps=rc.n_steps,
        seed=rc.seed, steps_per_cell=rc.steps_per_cell, workers=rc.workers,
    )
    _write_csv(
        rc.outdir / "frontier.csv",
        ["a", "lambda_star", "d", "variance", "achieved_mean", "std_error"],
        [[pt.target_mean, pt.lambda_star, pt.effective_target, pt.min_variance,
          pt.achieved_mean, pt.mean_std_error]],
    )
    return 0


_DISPATCH = {
    "simulate-chain": _cmd_simulate_chain,
    "solve-odes": _cmd_solve_odes,
    "optimal-control": _cmd_optimal_control,
    "evaluate": _cmd_evaluate,
    "verify": _cmd_verify,
    "frontier": _cmd_frontier,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rscontrol",
        description="Regime-switching stochastic control: solve, simulate, verify.",
    )
    parser.add_argument("subcommand", choices=_SUBCOMMANDS)
    parser.add_argument("config", help="path to a JSON configuration file")
    args, extra = parser.parse_known_args(argv)
    try:
        overrides = []
        for item in extra:
            if not item.startswith("--") or "=" not in item:
                raise ConfigError(f"unrecognized argument {item!r}; expected --key.path=value")
            key, _, value = item[2:].partition("=")
            overrides.append((key, value))
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        for key, value in overrides:
            _apply_override(cfg, key, value)
        rc = _build_config(cfg)
        return _DISPATCH[args.subcommand](rc)
    except (ValidationError, ConfigError, DegenerateDualError, NonFiniteSolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
