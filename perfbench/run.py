#!/usr/bin/env python3
"""Benchmark command: run one workload in a fresh process and print its metrics.

    python3 perfbench/run.py --workload {price,frontier,verify} --seed N \
        --seconds S --trace {0,1}

Runs from any directory; the program is imported from ``src/`` next to this
directory.  The workload process starts with one BLAS/OpenMP thread (set here,
before it imports NumPy) and ``workers=1``.  This launcher never imports
NumPy; it measures from outside the workload process

* ``setup_s``: from just before the process is started until it has imported
  ``rscontrol``, validated the market and generator and solved the
  coefficient ODEs once (a cold set-up, one per run),
* ``peak_rss_mb``: the process's peak resident memory,

and takes ``run_s``, the median wall time of one timed round, from it.  With
``--trace 1`` it prints the per-layer metrics instead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rscontrol benchmark")
    ap.add_argument("--workload", required=True, choices=("price", "frontier", "verify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload at a toy size (for the benchmark's tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rscontrol" / "__init__.py").is_file():
        print(f"error: no rscontrol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: workload process exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 4
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    res = json.loads(stdout.strip().splitlines()[-1])

    print(f"environment: {json.dumps(res['env'], sort_keys=True)}")
    print(f"rounds: {res['rounds']} (1 warm-up), path-steps per round: {res['path_steps_per_round']}")
    print("timed rounds, wall (s): " + " ".join(f"{t:.3f}" for t in res["round_wall_s"]))
    print("timed rounds, scaled (s): " + " ".join(f"{t:.3f}" for t in res["round_scaled_s"]))
    print(f"raw set-up wall (s): {res['setup_done'] - started:.4f}, speed scale {res['setup_scale']:.3f}")
    for failure in res["failures"]:
        print(f"CHECK FAILED: {failure}")
    if args.trace:
        metrics = res["metrics"]
    else:
        metrics = {
            "setup_s": {"value": (res["setup_done"] - started) * res["setup_scale"], "unit": "s"},
            "run_s": {"value": res["run_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
