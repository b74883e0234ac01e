#!/usr/bin/env python3
"""Write sha256 digests of the engine's outputs to a JSON file.

Two versions of the code give files that compare equal (``cmp``) exactly
when every output below is byte-identical between them:

* every ``_RunArtifacts`` field of plain, ``bsde``, ``dynkin`` (t_end 0.5 and
  the horizon), ``integrability`` and all-three engine runs on both
  ``perfbench/configs`` markets, with a table policy and a ``window_shift``
  policy among the policies (plain runs with the table policy last, in a
  middle row and alone);
* ``phi_psi_from_oracle`` at every node of the ODE solver's grid;
* the CSVs of the CLI's ``evaluate``, ``verify``, ``frontier``,
  ``simulate-chain``, ``solve-odes`` and ``optimal-control`` subcommands at
  small sizes.

Example (a few seconds on two cores):
    PYTHONPATH=src python3 scripts/dump_outputs.py before.json
    ...change the code...
    PYTHONPATH=src python3 scripts/dump_outputs.py after.json
    cmp before.json after.json
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from rscontrol import (
    constant_policy,
    load_market,
    optimal_policy,
    phi_psi_from_oracle,
    shift_policy,
    solve_phi_psi_chi,
    table_policy,
    validate_generator,
    window_shift_policy,
)
from rscontrol.cli import main as cli_main
from rscontrol.simulate import _run_blocks, _RunArtifacts

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "perfbench" / "configs"
MARKETS = ("two_regime", "three_regime_fast")
TARGET = {"two_regime": 1.2, "three_regime_fast": 1.1}  # loss target d
N_PATHS, N_STEPS, SEED = 2100, 48, 17  # two blocks of paths


def _digest(value) -> str:
    h = hashlib.sha256()
    if value is None:
        h.update(b"None")
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(value.hex().encode())
    elif isinstance(value, (bytes, bytearray)):
        h.update(value)
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


def _engine_runs(name: str, out: dict) -> None:
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    gen = validate_generator(cfg["generator"])
    model = load_market({**cfg["market"], "generator": cfg["generator"]})
    d = TARGET[name]
    sol = solve_phi_psi_chi(model, gen, d)
    horizon = model.horizon
    n_states = model.num_states
    opt = optimal_policy()
    table = table_policy(
        [0.0, 0.25, 0.6], [0.5, 1.0, 1.5],
        np.linspace(-0.4, 0.5, 9 * n_states).reshape(3, 3, n_states),
    )
    window = window_shift_policy(opt, 0.2, 0.1, 0.3001)  # right edge between grid nodes
    shift = shift_policy(opt, 0.1)
    runs = {
        "plain": ([opt, constant_policy(0.3), shift, window, table], frozenset(), None),
        "table_middle": ([opt, constant_policy(0.3), table, shift, window], frozenset(), None),
        "table_only": ([table], frozenset(), None),
        "bsde": ([opt, window], frozenset({"bsde"}), None),
        "dynkin_half": ([opt, table], frozenset({"dynkin"}), 0.5),
        "dynkin_end": ([constant_policy(0.3)], frozenset({"dynkin"}), horizon),
        "integ_shift": ([opt, shift], frozenset({"integrability"}), None),
        "integ_table": ([opt, table], frozenset({"integrability"}), None),
        "integ_window": ([opt, window], frozenset({"integrability"}), None),
        "all": ([opt, window], frozenset({"bsde", "dynkin", "integrability"}), 0.5),
    }
    for run, (specs, acc, t_end) in runs.items():
        for i0 in range(1, min(n_states, 2) + 1):
            arts = _run_blocks(
                model, gen, specs, i0=i0, n_paths=N_PATHS,
                n_steps=N_STEPS, seed=SEED, accumulate=acc, sol=sol, d=d, t_end=t_end,
            )
            for field in dataclasses.fields(_RunArtifacts):
                out[f"engine/{name}/{run}/i0={i0}/{field.name}"] = _digest(
                    getattr(arts, field.name)
                )

    rows = [phi_psi_from_oracle(model, gen, d, float(t)) for t in sol.grid]
    out[f"oracle/{name}/phi"] = _digest(np.array([r[0] for r in rows]))
    out[f"oracle/{name}/psi"] = _digest(np.array([r[1] for r in rows]))


def _cli_runs(name: str, out: dict, tmp: Path) -> None:
    config = CONFIGS / f"{name}.json"
    common = [
        f"--output.directory={tmp / name}", f"--problem.d={TARGET[name]}", "--problem.a=1.25",
        "--numerics.seed=5",
    ]
    sizes = {
        "evaluate": ["--numerics.n_paths=2048", "--numerics.n_steps=64"],
        "verify": ["--numerics.n_paths=1024", "--numerics.n_steps=32"],
        "frontier": ["--numerics.n_paths=1024", "--numerics.n_steps=32"],
        "simulate-chain": ["--numerics.n_paths=3000"],
        "solve-odes": [],
        "optimal-control": [],
    }
    for cmd, size in sizes.items():
        code = cli_main([cmd, str(config), *common, *size])
        out[f"cli/{name}/{cmd}/exit"] = _digest(code)
        out[f"cli/{name}/{cmd}/csv"] = _digest((tmp / name / f"{cmd}.csv").read_bytes())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write the digests to")
    args = ap.parse_args()
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in MARKETS:
            _engine_runs(name, out)
            _cli_runs(name, out, Path(tmp))
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"{len(out)} digests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
