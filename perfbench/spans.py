"""In-memory span tracer that wraps the public functions of ``rscontrol``.

Each layer is a list of functions (or methods) of one module.  Installing the
tracer replaces every binding the program looks the function up by -- the
defining module, every ``rscontrol`` module that imported the name, and the
package re-export -- with a wrapper that records one span per call: layer,
start, end and parent span.  Spans stay in memory (typed arrays) until
:meth:`Tracer.dump`.  Self time is a span's duration minus the time covered
by its child spans; calls are sequential (one worker), so that is the
duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np
import scipy.linalg

import rscontrol
import rscontrol.cli
from rscontrol.control import CompiledPolicy
from rscontrol.market import MarketModel
from rscontrol.odes import PhiPsiChiSolution

# layer name -> the objects it covers.  A (class, attribute) pair wraps a
# method on its class; a bare function wraps every module-level binding of it
# inside ``rscontrol``.
LAYERS = {
    "chain.path_stream": [rscontrol.chain.path_stream],
    "chain.integrate_rates": [rscontrol.chain.integrate_rates],
    "odes.solve_phi_psi_chi": [rscontrol.odes.solve_phi_psi_chi],
    "odes.interp": [(PhiPsiChiSolution, "interp")],
    "odes.expm": [scipy.linalg.expm],
    "market.cell_index": [(MarketModel, "cell_index")],
    "control.coeffs": [(CompiledPolicy, "coeffs")],
    "simulate.estimate_J": [rscontrol.simulate.estimate_J],
    "simulate.compare_policies": [rscontrol.simulate.compare_policies],
    "verify.check_chain_martingales": [rscontrol.verify.check_chain_martingales],
    "verify.check_rs_martingales": [rscontrol.verify.check_rs_martingales],
    "verify.check_adjoint_bsde": [rscontrol.verify.check_adjoint_bsde],
    "verify.check_dynkin": [rscontrol.verify.check_dynkin],
    "verify.check_integrability": [rscontrol.verify.check_integrability],
    "verify.identity_checks": [
        rscontrol.verify.check_hamiltonian_maximum,
        rscontrol.verify.check_dp_connection,
    ],
    "verify.run_all_checks": [rscontrol.verify.run_all_checks],
    "frontier.solve_frontier_point": [rscontrol.frontier.solve_frontier_point],
    "frontier.dual_lambda_golden": [rscontrol.frontier.dual_lambda_golden],
    "cli.main": [rscontrol.cli.main],
}


def _module_bindings(fn):
    """(module, name) pairs inside ``rscontrol`` that are bound to ``fn``."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "rscontrol" or mod_name.startswith("rscontrol.")):
            continue
        for name, value in vars(mod).items():
            if value is fn:
                out.append((mod, name))
    return out


class Tracer:
    """Span recorder; :meth:`install` and :meth:`uninstall` toggle the wrappers."""

    def __init__(self):
        self.layers = list(LAYERS)
        n = len(self.layers)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_round = array("i")
        self.round = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patches = []  # (owner, attribute, original, wrapper)
        for lid, name in enumerate(self.layers):
            for target in LAYERS[name]:
                if isinstance(target, tuple):
                    cls, attr = target
                    original = vars(cls)[attr]
                    self._patches.append((cls, attr, original, self._wrap(lid, original)))
                else:
                    wrapper = self._wrap(lid, target)
                    for mod, attr in _module_bindings(target):
                        self._patches.append((mod, attr, target, wrapper))

    def _wrap(self, lid: int, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            self.span_layer.append(lid)
            self.span_parent.append(parent)
            self.span_round.append(self.round)
            self.span_end.append(0.0)
            start = clock()
            self.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.span_end[idx] = end
                self.calls[lid] += 1
                self.self_s[lid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def snapshot(self) -> tuple[list[int], list[float]]:
        return list(self.calls), list(self.self_s)

    def dump(self, path) -> None:
        """Write every span as arrays to an ``.npz`` file."""
        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            round=np.frombuffer(self.span_round, dtype=np.int32),
        )
