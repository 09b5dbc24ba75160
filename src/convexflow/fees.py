"""Fixed-fee problem objects: the nonconvex per-edge constraint set
Q_i = {0} ∪ (T_i × {-1}), its convex relaxation through clipped cones,
rounding of relaxation points, optimality-gap bounds, and a brute-force
oracle for small instances.

Using an edge costs its fee: activation -1 is charged, activation 0 is
free and forces zero flow.  The convex hull of Q_i is the clipped flow
cone, so relaxing Q_i to conv(Q_i) turns the problem into a convex flow
problem the dual solver handles directly.  Rounding pushes fractional
activations to -1 (feasible by the dominating-point property) while the
net flows stay unchanged, and the resulting objective loss is at most
(n + 1) times the largest fee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import solver as _solver
from .conic import ClippedCone, FlowCone
from .errors import EnumerationBudgetError, InfeasibleProblemError
from .model import Instance, net_flow
from .sets import DEFAULT_TOL, FlowSet, as_vector, scaled_tol
from .solver import SolveReport, SolverOptions


def q_membership(flow_set: FlowSet, x, lam: float, tol: float = DEFAULT_TOL) -> bool:
    """(x, lam) in Q = {0} ∪ (T × {-1}), with tolerances."""
    v = as_vector(x, flow_set.dim)
    eps = scaled_tol(tol, 1.0)
    if abs(lam) <= eps and np.all(np.abs(v) <= eps):
        return True
    if abs(lam + 1.0) <= eps:
        return flow_set.contains(v, tol)
    return False


@dataclass
class RoundedSolution:
    flows: list[np.ndarray]
    activations: np.ndarray
    y_hat: np.ndarray
    objective: float
    fee_delta: float  # extra fee paid relative to the relaxation point


def round_relaxation(instance: Instance, points, tol: float = DEFAULT_TOL) -> RoundedSolution:
    """Round per-edge clipped-cone points (x_i, lam_i) into Q_i.

    Points already in Q_i are kept; all others keep their flow and drop
    the activation to -1, which stays feasible because the clipped cone
    is downward closed in the activation coordinate.  Net flows are
    unchanged by construction.
    """
    if len(points) != instance.m:
        raise ValueError("need one (x, lambda) point per edge")
    flows: list[np.ndarray] = []
    lam_relaxed = np.zeros(instance.m)
    lam_rounded = np.zeros(instance.m)
    for i, (edge, point) in enumerate(zip(instance.edges, points)):
        x, lam = point
        x = as_vector(x, edge.degree)
        lam = float(lam)
        cone = ClippedCone(FlowCone(edge.flow_set))
        if not cone.contains(np.append(x, lam), tol):
            raise ValueError(f"edge {i}: point is not in the clipped cone")
        lam_relaxed[i] = lam
        if q_membership(edge.flow_set, x, lam, tol):
            lam_rounded[i] = -1.0 if lam < -0.5 else 0.0
            if lam_rounded[i] == 0.0:
                x = np.zeros(edge.degree)
        else:
            lam_rounded[i] = -1.0
        flows.append(x)
    y_hat = net_flow(instance, flows)
    fees = np.array([edge.fee for edge in instance.edges])
    objective = instance.utility.value(y_hat) + float(fees @ lam_rounded)
    fee_delta = float(fees @ (lam_relaxed - lam_rounded))
    return RoundedSolution(flows=flows, activations=lam_rounded, y_hat=y_hat,
                           objective=objective, fee_delta=fee_delta)


@dataclass
class GapBounds:
    lower: float       # value of the recovered feasible point
    upper: float       # certified dual bound (>= relaxation optimum)
    sf_bound: float    # (n + 1) * max_i q_i

    @property
    def width(self) -> float:
        return self.upper - self.lower


def gap_bounds(report: SolveReport, instance: Instance) -> GapBounds:
    """Bracket on the true fixed-fee optimum plus the a-priori fee bound."""
    return GapBounds(lower=report.primal_value, upper=report.dual_value,
                     sf_bound=(instance.n + 1) * instance.max_fee())


@dataclass
class BruteForceResult:
    value: float
    pattern: tuple[int, ...]
    evaluated: int


def brute_force_optimum(instance: Instance, max_edges: int = 20,
                        opts: SolverOptions | None = None) -> BruteForceResult:
    """Ground-truth fixed-fee optimum by enumerating activation patterns.

    Every subset S of edges is charged its fees and the fee-free convex
    flow problem restricted to S is solved with the regular solver, so a
    disagreement with the dual heuristic isolates the rounding logic
    rather than solver drift.  Only the minimized dual value of each
    pattern is taken (the ``dual_value`` that ``solve`` would report on
    the instance of S); no primal point is recovered.  The solver's
    program is built once, and each pattern masks off the edges outside
    S, which evaluates exactly as the instance of S would.  Ties between
    patterns break toward the earlier pattern in mask order.
    """
    m = instance.m
    if m > max_edges:
        raise EnumerationBudgetError(f"{m} edges exceed the {max_edges}-edge budget")
    _solver._check_solvable(instance)
    opts = opts or SolverOptions()
    program = _solver._program([replace(edge, fee=0.0) for edge in instance.edges])
    best = -math.inf
    best_pattern: tuple[int, ...] = ()
    evaluated = 0
    for mask in range(2 ** m):
        on = [bool(mask >> i & 1) for i in range(m)]
        pattern = tuple(i for i in range(m) if on[i])
        fee_total = sum(instance.edges[i].fee for i in pattern)
        if not pattern:
            value = instance.utility.value(np.zeros(instance.n))
        else:
            try:
                value = _solver._minimize(instance.utility, program, opts, on).g
            except InfeasibleProblemError:
                continue
        evaluated += 1
        total = value - fee_total
        if total > best:
            best = total
            best_pattern = pattern
    return BruteForceResult(value=best, pattern=best_pattern, evaluated=evaluated)
