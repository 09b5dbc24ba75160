"""Traced mode: spans around the calls into each convexflow layer.

The tracer replaces public functions and methods of convexflow's modules
and classes with timing wrappers, from the benchmark's side; convexflow
itself is not changed.  Functions are looked up through their module at
call time, so wrapping ``solver.solve`` also catches the calls that
``fees.brute_force_optimum`` makes to it.

Calls at the layer boundaries that happen a few thousand times per round
(solves, recovery, brute force, document I/O) are kept as spans
``(id, name, start, end, parent)`` in memory and written out at the end.
The oracle calls (``support``, ``contains``, ``gauge``, ``conjugate``)
happen millions of times, so they are only counted and timed in place;
they still take part in the self-time accounting of their parents.  The
self time of a call is its duration minus the time of the wrapped calls
made inside it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from convexflow import bench, calculus, conic, fees, model, sets, solver

_FAMILIES = {sets.CappedConcaveEdge: "capped_concave", sets.LinearTickEdge: "linear_tick",
             sets.ProductMarketEdge: "product_market", sets.HalfLineEdge: "half_line"}


def _targets():
    """(owner, attribute, name, keep a span) of every wrapped call."""
    out = []
    for cls, family in _FAMILIES.items():
        for method in ("support", "contains"):
            out.append((cls, method, f"sets.{method}.{family}", False))
    # the generic bisection gauge serves every family without its own
    out.append((sets.FlowSet, "gauge", "sets.gauge.bisection", False))
    out.append((sets.HalfLineEdge, "gauge", "sets.gauge.half_line", False))
    # the only composed set the workloads build
    for method in ("support", "contains"):
        out.append((calculus.MinkowskiSumSet, method, f"calculus.{method}.minkowski_sum", False))
    out += [(conic.FlowCone, "contains", "conic.contains.FlowCone", False),
            (conic.ClippedCone, "contains", "conic.contains.ClippedCone", False),
            (conic.ClippedCone, "support", "conic.support.ClippedCone", False)]
    for cls in (model.LinearUtility, model.QuadraticUtility, model.ThresholdUtility):
        out.append((cls, "conjugate", f"model.conjugate.{cls.__name__}", False))
    out += [
        (conic, "conic_rewrite", "conic.conic_rewrite", True),
        (model, "loads", "model.loads", True),
        (solver, "solve", "solver.solve", True),
        (solver, "solve_conic", "solver.solve_conic", True),
        (solver, "minimize_dual", "solver.minimize_dual", True),
        (solver, "recover_primal", "solver.recover_primal", True),
        (solver, "report_to_document", "solver.report_to_document", True),
        (fees, "round_relaxation", "fees.round_relaxation", True),
        (fees, "brute_force_optimum", "fees.brute_force_optimum", True),
        (bench, "gen_bench_instance", "bench.gen_bench_instance", True),
        (bench, "gen_knapsack_instance", "bench.gen_knapsack_instance", True),
    ]
    return out


# inner calls also totalled while an outer call is open: (outer, inner),
# where inner names a call or, as in "model.conjugate", a group of calls
_RECOVERY_IN_BRUTE_FORCE = ("fees.brute_force_optimum", "solver.recover_primal")
_SOLVES_IN_BRUTE_FORCE = ("fees.brute_force_optimum", "solver.solve")
_EVALS_IN_MINIMIZE = ("solver.minimize_dual", "model.conjugate")
_WITHIN = (_RECOVERY_IN_BRUTE_FORCE, _SOLVES_IN_BRUTE_FORCE, _EVALS_IN_MINIMIZE)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._next_id = 0
        self._stack: list[list] = []   # [child time, span id or nearest kept ancestor's]
        self._patches: list[tuple] = []
        self._open: dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self):
        """Zero the per-round tallies; spans are kept for the whole run."""
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.within_calls: dict[tuple, int] = defaultdict(int)
        self.within_time: dict[tuple, float] = defaultdict(float)
        self.iterations = self.nonconverged = self.ties = 0

    # -- installing -------------------------------------------------------

    def install(self):
        for owner, attr, name, keep in _targets():
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, keep))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, keep: bool):
        stack, open_calls = self._stack, self._open
        outers = [pair for pair in _WITHIN if name == pair[1] or name.startswith(pair[1] + ".")]
        is_outer = any(name == outer for outer, _ in _WITHIN)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep:
                ref = self._next_id
                self._next_id += 1
            else:
                ref = parent
            frame = [0.0, ref]
            stack.append(frame)
            if is_outer:
                open_calls[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_outer:
                    open_calls[name] -= 1
                duration = end - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                for pair in outers:
                    if open_calls[pair[0]]:
                        self.within_calls[pair] += 1
                        self.within_time[pair] += duration
                if keep:
                    self.spans.append((ref, name, start, end, parent))
            if name in ("solver.solve", "solver.solve_conic"):
                self.iterations += result.iterations
                self.nonconverged += not result.converged
                self.ties += result.tie_count
            return result

        return traced

    def call(self, name: str, fn, *args):
        """fn(*args) in a kept span of the benchmark's own, such as one operation."""
        return self._wrap(fn, name, True)(*args)

    # -- results ------------------------------------------------------------

    def _sum(self, table: dict, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def round_metrics(self) -> dict[str, float]:
        """Per-layer figures of the calls made since the last reset."""
        calls, self_ms = self.calls, {k: v * 1e3 for k, v in self.self_time.items()}
        total_ms = {k: v * 1e3 for k, v in self.total.items()}
        pm_calls = calls.get("sets.support.product_market", 0)
        dual_evals = int(self._sum(calls, "model.conjugate."))
        minimize_evals = self.within_calls[_EVALS_IN_MINIMIZE]
        minimize_ms = total_ms.get("solver.minimize_dual", 0.0)
        return {
            "sets.support.calls": self._sum(calls, "sets.support."),
            "sets.support.self_ms": self._sum(self_ms, "sets.support."),
            "sets.support.product_market.calls": pm_calls,
            "sets.support.product_market.us": (
                1e3 * self_ms.get("sets.support.product_market", 0.0) / pm_calls if pm_calls else 0.0),
            "sets.contains.calls": self._sum(calls, "sets.contains."),
            "sets.contains.self_ms": self._sum(self_ms, "sets.contains."),
            "sets.gauge.calls": self._sum(calls, "sets.gauge."),
            "sets.gauge.self_ms": self._sum(self_ms, "sets.gauge."),
            "calculus.calls": self._sum(calls, "calculus."),
            "calculus.self_ms": self._sum(self_ms, "calculus."),
            "conic.contains.calls": self._sum(calls, "conic.contains."),
            "conic.self_ms": self._sum(self_ms, "conic."),
            "conic.solve_conic.ms": total_ms.get("solver.solve_conic", 0.0),
            "model.loads.ms": total_ms.get("model.loads", 0.0),
            "solver.solve.ms": total_ms.get("solver.solve", 0.0),
            "solver.minimize_dual.ms": minimize_ms,
            "solver.recover_primal.ms": total_ms.get("solver.recover_primal", 0.0),
            "solver.report_to_document.ms": total_ms.get("solver.report_to_document", 0.0),
            "solver.dual_evals": dual_evals,
            "solver.dual_eval.us": 1e3 * minimize_ms / minimize_evals if minimize_evals else 0.0,
            "solver.iterations": self.iterations,
            "solver.nonconverged": self.nonconverged,
            "solver.ties": self.ties,
            "fees.brute_force.ms": total_ms.get("fees.brute_force_optimum", 0.0),
            "fees.brute_force.patterns": self.within_calls[_SOLVES_IN_BRUTE_FORCE],
            "fees.brute_force.recover_ms": 1e3 * self.within_time[_RECOVERY_IN_BRUTE_FORCE],
            "fees.round_relaxation.ms": total_ms.get("fees.round_relaxation", 0.0),
        }

    def write(self, path, header: dict):
        """Write the kept spans (times in microseconds from the first span)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(header, handle)
            handle.write("\n")
            for ref, name, start, end, parent in sorted(self.spans):
                handle.write(json.dumps([ref, name, round((start - origin) * 1e6, 1),
                                         round((end - origin) * 1e6, 1), parent]))
                handle.write("\n")

