"""Fixed-fee problem objects: the nonconvex per-edge constraint set
Q_i = {0} ∪ (T_i × {-1}), its convex relaxation through clipped cones,
rounding of relaxation points, optimality-gap bounds, and a brute-force
oracle for small instances.

Using an edge costs its fee: activation -1 is charged, activation 0 is
free and forces zero flow.  The convex hull of Q_i is the clipped flow
cone, so relaxing Q_i to conv(Q_i) turns the problem into a convex flow
problem the dual solver handles directly.  Rounding keeps every point
that already lies in Q_i, which is every point of an integral solution,
and tests only the points outside Q_i against the clipped cone; those
fractional points have their activations pushed to -1 (feasible by the
dominating-point property) while the net flows stay unchanged, and the
resulting objective loss is at most (n + 1) times the largest fee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import solver as _solver
from .conic import ClippedCone, FlowCone
from .errors import EnumerationBudgetError, InfeasibleProblemError
from .model import Instance, ThresholdUtility, Utility
from .sets import DEFAULT_TOL, FlowSet, as_vector, scaled_tol
from .solver import SolveReport, SolverOptions

# edges of the largest instance brute force enumerates: 2^20 patterns
MAX_EDGES = 20


def q_membership(flow_set: FlowSet, x, lam: float, tol: float = DEFAULT_TOL) -> bool:
    """(x, lam) in Q = {0} ∪ (T × {-1}), with tolerances."""
    v = as_vector(x, flow_set.dim)
    eps = scaled_tol(tol, 1.0)
    if abs(lam) <= eps and all(abs(t) <= eps for t in v.tolist()):
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

    A point that ``q_membership`` accepts lies in Q_i, which lies inside
    conv(Q_i), so it is kept as it is: activation -1 stays with its flow,
    and activation 0 keeps flow 0.  Only a point outside Q_i meets the
    clipped cone: it must pass ``ClippedCone.contains`` (``ValueError``
    otherwise), keeps its flow and drops its activation to -1, which stays
    feasible because the clipped cone is downward closed in the activation
    coordinate.  Net flows are unchanged by construction.

    The net flow, the fee term of the objective and ``fee_delta`` are
    summed on Python floats in edge order; each field of the result
    becomes numpy once.
    """
    if len(points) != instance.m:
        raise ValueError("need one (x, lambda) point per edge")
    flows: list[np.ndarray] = []
    activations: list[float] = []
    y = [0.0] * instance.n
    fee_term = fee_delta = 0.0
    for i, (edge, point) in enumerate(zip(instance.edges, points)):
        x, lam = point
        x = as_vector(x, edge.degree)
        lam = float(lam)
        if q_membership(edge.flow_set, x, lam, tol):
            rounded = -1.0 if lam < -0.5 else 0.0
            if rounded == 0.0:
                x = np.zeros(edge.degree)
        elif ClippedCone(FlowCone(edge.flow_set)).contains(np.append(x, lam), tol):
            rounded = -1.0
        else:
            raise ValueError(f"edge {i}: point is not in the clipped cone")
        flows.append(x)
        activations.append(rounded)
        for j, v in zip(edge.nodes, x.tolist()):
            y[j] += v
        fee_term += edge.fee * rounded
        fee_delta += edge.fee * (lam - rounded)
    y_hat = np.array(y)
    return RoundedSolution(flows=flows, activations=np.array(activations), y_hat=y_hat,
                           objective=instance.utility.value(y_hat) + fee_term,
                           fee_delta=fee_delta)


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


def brute_force_optimum(instance: Instance, opts: SolverOptions | None = None) -> BruteForceResult:
    """Ground-truth fixed-fee optimum by enumerating activation patterns.

    Every subset S of edges is charged its fees and the fee-free convex
    flow problem restricted to S is solved with the regular solver, so a
    disagreement with the dual heuristic isolates the rounding logic
    rather than solver drift.  Only the minimized dual value of each
    pattern is taken (the ``dual_value`` that ``solve`` would report on
    the instance of S); no primal point is recovered.  The solver's
    program is built once with its fees zeroed, and each pattern hands
    ``_minimize`` the entries of S alone, the program of the instance of
    S.  A threshold instance takes one pass over all patterns instead
    (``solver._threshold_pattern_minima``), with the same values; ``opts``
    does not reach it.  Ties between patterns break toward the earlier
    pattern in mask order.
    """
    m = instance.m
    if m > MAX_EDGES:
        raise EnumerationBudgetError(f"{m} edges exceed the {MAX_EDGES}-edge budget")
    program = [(kernel, nodes, 0.0, unique)
               for kernel, nodes, _, unique in _solver._program(instance.edges)]
    utility = instance.utility
    if isinstance(utility, ThresholdUtility):
        minima = _solver._threshold_pattern_minima(utility, program)
    else:
        minima = _pattern_minima(utility, program, opts or SolverOptions())
    best = -math.inf
    best_mask = 0
    evaluated = 0
    fee_totals = [0]
    for mask, value in enumerate(minima):
        if mask:
            top = mask.bit_length() - 1
            fee_totals.append(fee_totals[mask ^ (1 << top)] + instance.edges[top].fee)
        else:
            value = utility.value(np.zeros(instance.n))
        if value is None:
            continue
        evaluated += 1
        total = value - fee_totals[mask]
        if total > best:
            best = total
            best_mask = mask
    return BruteForceResult(value=best,
                            pattern=tuple(i for i in range(m) if best_mask >> i & 1),
                            evaluated=evaluated)


def _pattern_minima(utility: Utility, program: _solver.Program,
                    opts: SolverOptions) -> Iterator[float | None]:
    """The minimized dual value of every activation pattern, by mask, each
    from its own ``_minimize``; None where the pattern is infeasible."""
    yield None
    for mask in range(1, 2 ** len(program)):
        try:
            yield _solver._minimize(
                utility, [e for i, e in enumerate(program) if mask >> i & 1], opts).g
        except InfeasibleProblemError:
            yield None
