"""Benchmark workloads: one process runs one workload and prints its result.

Started by ``run.py``, which sets the BLAS/OpenMP thread count before this
process imports NumPy and measures set-up time and peak memory from outside.
This process

1. imports ``rscontrol``, validates the market and generator and solves the
   coefficient ODEs once (the set-up; its end time is reported),
2. runs one untimed warm-up round of the workload's operations, then timed
   rounds until ``--seconds`` have passed,
3. checks every round's outputs: identical to the warm-up round (each round
   repeats the same seeded operations), and the warm-up outputs against the
   independent reference (``reference.py``) or the properties the theory
   requires,
4. prints one JSON line with the round times, counts and check failures.

With ``--trace 1`` the timed rounds alternate untraced and traced
(``spans.py``), and the per-layer metrics replace the round times.

The program is called only through attribute lookups on ``rscontrol`` at call
time, so the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import rscontrol
import rscontrol.cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = Path(__file__).resolve().parent / "configs"
OUT = ROOT / ".bench_out"

# Statistical checks allow Z standard errors.  Benchmark results are medians
# over ten or more seeds per workload, with up to a dozen such comparisons
# per run; at 3 se a correct program would fail one of them on some seed of
# twenty about one time in three.  At 4.5 se a correct run fails about once
# in ten thousand, and a 10-se error still fails every time.
Z = 4.5

# Deterministic comparisons with the reference: the program's fixed-step RK4
# agrees with it to ~1e-11 on these markets.
REL_TOL = 1e-9

MIN_ROUNDS = 3

SIZES = {
    "full": {
        "price": {"est_paths": 4096, "est_steps": 2048, "cmp_paths": 4096, "cmp_steps": 1024},
        "frontier": {"targets": [1.08, 1.12, 1.16], "paths": 2048, "steps": 256},
        "verify": {"paths": 3072, "steps": 128},
    },
    "tiny": {
        "price": {"est_paths": 64, "est_steps": 32, "cmp_paths": 64, "cmp_steps": 16},
        "frontier": {"targets": [1.08, 1.12], "paths": 64, "steps": 16},
        "verify": {"paths": 256, "steps": 32},
    },
}


def load_config(name: str) -> dict:
    with open(CONFIGS / name) as fh:
        return json.load(fh)


def n_segments(model, n_steps: int) -> int:
    """Merged-grid segments: uniform nodes joined with the market breakpoints."""
    uniform = np.linspace(0.0, model.horizon, n_steps + 1)
    return int(np.unique(np.concatenate([uniform, model.breakpoints])).shape[0] - 1)


class Workload:
    """One workload: set-up, the round of timed operations, and its checks."""

    name = ""
    config = ""
    engine_layers: tuple[str, ...] = ()

    def __init__(self, size: dict, seed: int):
        self.size = size
        self.seed = seed

    def setup(self) -> None:
        """The program's set-up: validation and the first ODE solve."""
        self.cfg = load_config(self.config)
        self.gen = rscontrol.validate_generator(self.cfg["generator"])
        self.model = rscontrol.load_market({**self.cfg["market"], "generator": self.cfg["generator"]})
        self.i0 = int(self.cfg["problem"].get("initial_state", 1))
        self.sol = rscontrol.solve_phi_psi_chi(self.model, self.gen, self.target())

    def target(self) -> float:
        return float(self.cfg["problem"]["d"])

    def reference_market(self):
        # imported late, after the measured rounds, so that SciPy's ODE
        # solvers are never part of set-up or round times
        import reference

        return reference.market_from_config(self.cfg["market"], self.cfg["generator"])

    def ops(self) -> list:
        """The round's operations, in order; each returns part of its output."""
        raise NotImplementedError

    def run_round(self) -> list:
        return [op() for op in self.ops()]

    def check(self, out: list) -> list[str]:
        raise NotImplementedError

    def path_steps(self) -> int:
        raise NotImplementedError


class Price(Workload):
    """estimate_J of the optimal policy, then compare_policies against the
    five standard perturbations, on the two-regime market."""

    name = "price"
    config = "two_regime.json"
    engine_layers = ("simulate.estimate_J", "simulate.compare_policies")

    def ops(self):
        return [self.estimate, self.compare]

    def estimate(self):
        s = self.size
        est = rscontrol.estimate_J(
            self.model, self.gen, rscontrol.optimal_policy(), self.target(),
            s["est_paths"], s["est_steps"], self.seed, i0=self.i0, sol=self.sol, workers=1,
        )
        return {"J": (est.mean, est.std_error)}

    def compare(self):
        s = self.size
        diffs = rscontrol.compare_policies(
            self.model, self.gen, rscontrol.optimal_policy(),
            rscontrol.standard_perturbations(self.model.horizon), self.target(),
            s["cmp_paths"], s["cmp_steps"], self.seed, i0=self.i0, sol=self.sol, workers=1,
        )
        return {"diffs": [(e.mean, e.std_error) for e in diffs]}

    def check(self, out) -> list[str]:
        import reference

        v_ref = reference.value_at_zero(self.reference_market(), self.target(), self.i0)
        return check_price({**out[0], **out[1]}, v_ref)

    def path_steps(self) -> int:
        s = self.size
        return (
            s["est_paths"] * n_segments(self.model, s["est_steps"])
            + s["cmp_paths"] * n_segments(self.model, s["cmp_steps"])
        )


def check_price(out, v_ref: float) -> list[str]:
    fails = []
    j, se = out["J"]
    if not abs(j - v_ref) <= Z * se:
        fails.append(f"J_hat {j!r} vs reference V(0) {v_ref!r}: {abs(j - v_ref) / se:.2f} se > {Z}")
    for k, (diff, dse) in enumerate(out["diffs"]):
        # the optimal policy is never worse than an alternative
        if not diff >= -Z * dse:
            fails.append(f"J(opt) - J(alt {k}) = {diff!r} below -{Z} se ({dse!r})")
    return fails


class Frontier(Workload):
    """solve_frontier_point and dual_lambda_golden over a few target means on
    a fast-switching three-regime market with two coefficient cells."""

    name = "frontier"
    config = "three_regime_fast.json"
    engine_layers = ("frontier.solve_frontier_point",)

    def target(self) -> float:
        return float(self.size["targets"][0])

    def ops(self):
        return [functools.partial(self.point, a) for a in self.size["targets"]]

    def point(self, a: float):
        s = self.size
        pt = rscontrol.solve_frontier_point(
            self.model, self.gen, a, i0=self.i0,
            n_paths=s["paths"], n_steps=s["steps"], seed=self.seed, workers=1,
        )
        golden = rscontrol.dual_lambda_golden(self.model, self.gen, a, i0=self.i0)
        return {
            "a": a,
            "lambda_star": pt.lambda_star,
            "lambda_golden": golden,
            "min_variance": pt.min_variance,
            "achieved_mean": pt.achieved_mean,
            "mean_se": pt.mean_std_error,
            "sim_variance": pt.sim_variance,
            "var_se": pt.sim_variance_std_error,
        }

    def check(self, out) -> list[str]:
        import reference

        m = self.reference_market()
        refs = [reference.frontier_point(m, p["a"], self.i0) for p in out]
        return check_frontier(out, refs)

    def path_steps(self) -> int:
        s = self.size
        return len(s["targets"]) * s["paths"] * n_segments(self.model, s["steps"])


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(1.0, abs(y))


def check_frontier(out, refs) -> list[str]:
    fails = []
    for p, ref in zip(out, refs):
        a = p["a"]
        if not _close(p["lambda_star"], ref.lambda_star):
            fails.append(f"a={a}: lambda* {p['lambda_star']!r} vs reference {ref.lambda_star!r}")
        if not abs(p["lambda_golden"] - p["lambda_star"]) <= 1e-8:
            fails.append(f"a={a}: golden-section lambda {p['lambda_golden']!r} vs closed form {p['lambda_star']!r}")
        if not _close(p["min_variance"], ref.min_variance):
            fails.append(f"a={a}: min variance {p['min_variance']!r} vs reference {ref.min_variance!r}")
        if not abs(p["achieved_mean"] - a) <= Z * p["mean_se"]:
            fails.append(f"a={a}: achieved mean {p['achieved_mean']!r} beyond {Z} se ({p['mean_se']!r})")
        if not abs(p["sim_variance"] - ref.min_variance) <= Z * p["var_se"]:
            fails.append(
                f"a={a}: simulated variance {p['sim_variance']!r} vs {ref.min_variance!r} "
                f"beyond {Z} se ({p['var_se']!r})"
            )
    return fails


# Monte Carlo checks of the verification suite: the mean-zero checks, whose
# CSV threshold is 3 se plus a small floor, and the integrability stability
# proxies (full-sample estimate within 20% of the first-half estimate).  A
# correct program fails one of them on a few percent of seeds.
STATISTICAL_CHECKS = (
    "chain_martingale_",
    "rs_martingale_R",
    "rs_martingale_S",
    "bsde_mean_residual",
    "dynkin_identity",
    "integrability_",
)
NEGATIVE_CONTROLS = ("negative_control_corrupted_psi", "negative_control_time_reversed_R")
VERIFY_CHECK_COUNT = 18


class Verify(Workload):
    """``rscontrol verify`` through ``rscontrol.cli.main`` on the two-regime
    config: the whole verification suite with its negative controls."""

    name = "verify"
    config = "two_regime.json"
    engine_layers = ("verify.check_adjoint_bsde", "verify.check_dynkin", "verify.check_integrability")

    def ops(self):
        return [self.verify]

    def verify(self):
        s = self.size
        outdir = OUT / f"verify-seed{self.seed}"
        code = rscontrol.cli.main([
            "verify", str(CONFIGS / self.config),
            f"--numerics.seed={self.seed}",
            f"--numerics.n_paths={s['paths']}",
            f"--numerics.n_steps={s['steps']}",
            "--numerics.workers=1",
            f"--output.directory={outdir}",
        ])
        with open(outdir / "verify.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {"exit_code": code, "rows": rows}

    def check(self, out) -> list[str]:
        return check_verify(out[0])

    def path_steps(self) -> int:
        # bsde: the main run plus its order runs at n and 2n steps on at most
        # 2000 paths; dynkin and integrability: one run each.
        s = self.size
        n_ord = min(s["paths"], 2000)
        seg = n_segments(self.model, s["steps"])
        seg2 = n_segments(self.model, 2 * s["steps"])
        return 3 * s["paths"] * seg + n_ord * (seg + seg2)


def check_verify(out) -> list[str]:
    """Every check passes; the Monte Carlo checks are judged at Z se.

    A mean-zero check's threshold is 3 se plus a floor, so ``statistic <=
    (Z/3) * threshold`` allows Z se (and a slightly wider floor); the
    integrability proxies get the same factor on their 20% threshold.
    """
    fails = []
    rows = out["rows"]
    if len(rows) != VERIFY_CHECK_COUNT:
        fails.append(f"verify wrote {len(rows)} checks, expected {VERIFY_CHECK_COUNT}")
    names = {r["check_name"] for r in rows}
    for ctl in NEGATIVE_CONTROLS:
        if ctl not in names:
            fails.append(f"negative control {ctl} missing")
    for r in rows:
        name = r["check_name"]
        stat, thr = float(r["statistic"]), float(r["threshold"])
        passed = r["passed"] == "true"
        if passed != (stat <= thr):
            fails.append(f"{name}: passed={r['passed']} disagrees with {stat!r} <= {thr!r}")
        if name.startswith(STATISTICAL_CHECKS):
            if not stat <= (Z / 3.0) * thr:
                fails.append(f"{name}: {stat!r} beyond {Z} se (3 se + floor = {thr!r})")
        elif not passed:
            fails.append(f"{name}: {stat!r} > {thr!r}")
    n_failed = sum(r["passed"] != "true" for r in rows)
    if out["exit_code"] != (1 if n_failed else 0):
        fails.append(f"verify exit code {out['exit_code']} with {n_failed} failed checks")
    return fails


WORKLOADS = {w.name: w for w in (Price, Frontier, Verify)}


# ---------------------------------------------------------------------------
# the measuring loop
# ---------------------------------------------------------------------------


def _same(a, b) -> bool:
    """Exact equality, float for float (outputs are repeated, not recomputed)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# Host speed.  On a shared virtual machine the same code runs up to ~50%
# slower for seconds to minutes at a time, in CPU time as much as in wall
# time, so raw wall times of runs made minutes apart disagree by more than
# any useful bound.  Every operation is therefore bracketed by a short fixed
# calibration kernel that runs no rscontrol code, and its time is rescaled to
# the host speed at which that kernel takes CALIBRATION_NOMINAL_S.  Bracketing
# each operation (about a second) rather than each round tracks the speed
# changes several times more closely.
CALIBRATION_NOMINAL_S = 0.065
_CAL_GRID = np.linspace(0.0, 1.0, 401)


def calibration_s() -> float:
    """The shorter of two timings of the calibration kernel: an interrupt
    that lands in one of them says nothing about the host's speed."""
    return min(_calibration_kernel_s(), _calibration_kernel_s())


def _calibration_kernel_s() -> float:
    """Wall time of a fixed mix of the kinds of work the workloads do:
    per-stream Philox set-up and normal draws, long-vector arithmetic,
    interpreted scalar arithmetic, and the per-call overhead of NumPy
    operations on tiny arrays (table lookups by ``searchsorted``)."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(300):
        rng = np.random.Generator(np.random.Philox(key=[7, k]))
        acc += float(rng.standard_normal(1024)[0])
    x = np.ones(2048)
    y = np.full(2048, 0.5)
    for _ in range(2500):
        x = x + (0.01 * x + 0.3 * y) * 0.001 + 0.02 * y
    for i in range(125_000):
        acc += i * 0.5
    lo = np.array([0.1, 0.2, 0.3])
    hi = np.array([1.0, 2.0, 3.0])
    for k in range(3000):
        t = (k % 397) / 397.0
        i = int(np.searchsorted(_CAL_GRID, t, side="right")) - 1
        w = (t - _CAL_GRID[i]) / (_CAL_GRID[i + 1] - _CAL_GRID[i])
        row = (1.0 - w) * lo + w * hi
        acc += float((-(row / hi) * 0.5)[1]) + float(row[2])
    return time.perf_counter() - t0


def measure(work: Workload, seconds: float, tracer=None) -> dict:
    """Warm-up round, then timed rounds; with a tracer, every second round traced.

    A timed round's wall time is the sum of its operations' wall times, and
    its scaled time the sum of each operation's wall time times the nominal
    calibration time over the mean of the calibrations just before and just
    after it.  The tracer is installed only while an operation runs.
    """
    clock = time.perf_counter
    first = work.run_round()
    rounds = 1
    plain, traced_rounds, per_round = [], [], []
    mismatches = 0
    n_layers = len(tracer.layers) if tracer is not None else 0
    start = clock()
    calib = calibration_s()
    while True:
        traced = tracer is not None and len(plain) > len(traced_rounds)
        wall = scaled = 0.0
        calls = [0] * n_layers
        self_s = [0.0] * n_layers
        out = []
        for op in work.ops():
            if traced:
                tracer.round = rounds
                before = tracer.snapshot()
                tracer.install()
            t0 = clock()
            out.append(op())
            elapsed = clock() - t0
            if traced:
                tracer.uninstall()
                after = tracer.snapshot()
            calib_after = calibration_s()
            scale = CALIBRATION_NOMINAL_S / (0.5 * (calib + calib_after))
            calib = calib_after
            wall += elapsed
            scaled += scale * elapsed
            if traced:
                for lid in range(n_layers):
                    calls[lid] += after[0][lid] - before[0][lid]
                    self_s[lid] += scale * (after[1][lid] - before[1][lid])
        rounds += 1
        if traced:
            traced_rounds.append((wall, scaled))
            per_round.append((calls, self_s))
        else:
            plain.append((wall, scaled))
        mismatches += not _same(out, first)
        enough = len(plain) >= MIN_ROUNDS and (tracer is None or len(traced_rounds) >= MIN_ROUNDS)
        if enough and clock() - start >= seconds:
            break
    return {
        "first": first,
        "rounds": rounds,
        "plain": plain,
        "traced": traced_rounds,
        "per_round": per_round,
        "mismatches": mismatches,
    }


def scaled_median(rounds) -> float:
    return statistics.median(scaled for _, scaled in rounds)


def layer_metrics(work: Workload, tracer, res: dict) -> tuple[dict, list[str]]:
    """The per-layer metrics BENCHMARK.json lists, from the traced rounds.

    Calls and self times are per round; every round repeats the same
    operations, so the call counts of all traced rounds must agree.
    """
    fails = []
    calls = res["per_round"][0][0]
    if any(pr[0] != calls for pr in res["per_round"]):
        fails.append("call counts differ between traced rounds")
    values = {}
    self_med = {}
    for lid, layer in enumerate(tracer.layers):
        self_med[layer] = statistics.median(pr[1][lid] for pr in res["per_round"])
        values[f"{layer}.calls"] = calls[lid]
        values[f"{layer}.self_s"] = self_med[layer]
    engine_s = sum(self_med[layer] for layer in work.engine_layers)
    values["simulate.ns_per_path_step"] = 1e9 * engine_s / work.path_steps()
    values["trace.overhead_s"] = scaled_median(res["traced"]) - scaled_median(res["plain"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    return metrics, fails


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload in this process.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(SIZES), required=True)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(rscontrol.__file__).resolve().parent.parent != src:
        print(f"rscontrol imported from {rscontrol.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload](SIZES[args.size][args.workload], args.seed)
    work.setup()
    setup_done = time.monotonic()
    setup_calib = statistics.median(calibration_s() for _ in range(3))

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    OUT.mkdir(exist_ok=True)
    res = measure(work, args.seconds, tracer)
    fails = work.check(res["first"])
    if res["mismatches"]:
        fails.append(f"{res['mismatches']} rounds differ from the warm-up round")
    metrics = {}
    if tracer is not None:
        metrics, trace_fails = layer_metrics(work, tracer, res)
        fails += trace_fails
        tracer.dump(OUT / f"spans-{work.name}-seed{args.seed}.npz")
    result = {
        "setup_done": setup_done,
        "setup_scale": CALIBRATION_NOMINAL_S / setup_calib,
        "run_s": scaled_median(res["plain"]),
        "round_wall_s": [wall for wall, _ in res["plain"]],
        "round_scaled_s": [scaled for _, scaled in res["plain"]],
        "rounds": res["rounds"],
        "attempted": res["rounds"] * len(work.ops()),
        "failed": 0,
        "failures": fails,
        "metrics": metrics,
        "path_steps_per_round": work.path_steps(),
        "env": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
