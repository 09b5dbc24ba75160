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

import numpy as np

from . import solver as _solver
from .conic import ClippedCone, FlowCone
from .errors import EnumerationBudgetError, InfeasibleProblemError
from .model import Instance, ThresholdUtility, Utility, _floats
from .sets import DEFAULT_TOL, FlowSet, as_vector, scaled_tol
from .solver import SolveReport, SolverOptions

# edges of the largest instance brute force enumerates: 2^20 patterns
MAX_EDGES = 20


def q_membership(flow_set: FlowSet, x, lam: float, tol: float = DEFAULT_TOL) -> bool:
    """(x, lam) in Q = {0} ∪ (T × {-1}), with tolerances.  The activation
    is tested first and the flow read as floats once: an idle point's flow
    must be 0, and an active point's must lie in T."""
    eps = scaled_tol(tol, 1.0)
    v = _floats(x, flow_set.dim)
    if abs(lam) <= eps and all(abs(t) <= eps for t in v):
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
        flow = x.tolist()
        lam = float(lam)
        if q_membership(edge.flow_set, flow, lam, tol):
            rounded = -1.0 if lam < -0.5 else 0.0
            if rounded == 0.0:
                x = np.zeros(edge.degree)
                flow = [0.0] * edge.degree
        elif ClippedCone(FlowCone(edge.flow_set)).contains(np.append(x, lam), tol):
            rounded = -1.0
        else:
            raise ValueError(f"edge {i}: point is not in the clipped cone")
        flows.append(x)
        activations.append(rounded)
        for j, v in zip(edge.nodes, flow):
            y[j] += v
        fee_term += edge.fee * rounded
        fee_delta += edge.fee * (lam - rounded)
    return RoundedSolution(flows=flows, activations=np.array(activations), y_hat=np.array(y),
                           objective=instance.utility.value(y) + fee_term,
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
    # the empty pattern and every feasible pattern minimized (with a
    # threshold utility, every feasible pattern)
    evaluated: int


def brute_force_optimum(instance: Instance, opts: SolverOptions | None = None) -> BruteForceResult:
    """Ground-truth fixed-fee optimum by enumerating activation patterns.

    Every subset S of edges is charged its fees and valued by the minimum
    of the fee-free dual of the convex flow problem restricted to S, the
    ``dual_value`` that ``solve`` would report on the instance of S, so a
    disagreement with the dual heuristic isolates the rounding logic
    rather than solver drift.  No primal point is recovered.  The
    solver's program is built once with its fees zeroed, and a pattern
    that is minimized hands ``_minimize`` the entries of S alone, the
    program of the instance of S.  Among patterns of equal total the
    earlier in mask order wins.

    A threshold instance takes one pass over all patterns, in mask order
    (``solver._threshold_pattern_minima``); ``opts`` does not reach it.

    With a quadratic or linear utility the enumeration is a best-first
    branch and bound (``_best_first``).  Every fee-free edge term
    max(f_i, 0) is >= 0, so adding edges never lowers the dual: g_S <=
    g_full at every price.  The full pattern is minimized first, at price
    nu_full, and each other pattern S is evaluated once there; by weak
    duality bound(S) = g_S(nu_full) - fee(S) is at least the best total S
    can reach, and it is never above g_full - fee(S).  Patterns are
    minimized in decreasing bound order, equal bounds in mask order, and
    the pass ends at the first pattern with bound(S) + GAP_TOL * (1 +
    |g_full|) < best, the best total so far: no pattern from there on can
    win.  The margin covers a pattern minimized to within the solver's gap
    tolerance.  The order changes which patterns are minimized, never the
    answer, since an equal total displaces the best only from an earlier
    mask.  When the full pattern is infeasible there is no bound, and
    every pattern is minimized in mask order.

    ``evaluated`` counts the empty pattern and every feasible pattern
    minimized, or, with a threshold utility, every feasible pattern.
    """
    m = instance.m
    if m > MAX_EDGES:
        raise EnumerationBudgetError(f"{m} edges exceed the {MAX_EDGES}-edge budget")
    program = [(kernel, nodes, 0.0, unique)
               for kernel, nodes, _, unique in _solver._program(instance.edges)]
    fee_totals = [0]  # by mask: the fee of the pattern without its top edge, plus the top's
    for edge in instance.edges:
        fee_totals += [total + edge.fee for total in fee_totals]
    utility = instance.utility
    best, best_mask, evaluated = utility.value([0.0] * instance.n), 0, 1
    if isinstance(utility, ThresholdUtility):
        for mask, value in enumerate(_solver._threshold_pattern_minima(utility, program)):
            if value is not None:
                evaluated += 1
                if value - fee_totals[mask] > best:
                    best, best_mask = value - fee_totals[mask], mask
    elif m:
        best, best_mask, minimized = _best_first(utility, program, fee_totals,
                                                 opts or SolverOptions(), best)
        evaluated += minimized
    return BruteForceResult(value=best,
                            pattern=tuple(i for i in range(m) if best_mask >> i & 1),
                            evaluated=evaluated)


def _best_first(utility: Utility, program: _solver.Program, fee_totals: list[float],
                opts: SolverOptions, best: float) -> tuple[float, int, int]:
    """(best total, its mask, feasible patterns minimized) over the
    nonempty patterns of ``program``, given ``best``, the empty pattern's
    value, by the branch and bound of ``brute_force_optimum``."""
    full = len(fee_totals) - 1

    def entries(mask: int) -> _solver.Program:
        return [e for i, e in enumerate(program) if mask >> i & 1]

    bounds, margin = [math.inf] * full, 0.0  # by mask; entry 0 unused
    best_mask = minimized = 0
    try:
        full_state = _solver._minimize(utility, program, opts)
    except InfeasibleProblemError:
        pass
    else:
        minimized = 1
        if full_state.g - fee_totals[full] > best:
            best, best_mask = full_state.g - fee_totals[full], full
        margin = _solver.GAP_TOL * (1.0 + abs(full_state.g))
        bounds = [_solver._evaluate(utility, entries(mask), full_state.nu).g - fee_totals[mask]
                  if mask else math.inf for mask in range(full)]
    for mask in sorted(range(1, full), key=lambda mask: -bounds[mask]):
        if bounds[mask] + margin < best:
            break
        try:
            g = _solver._minimize(utility, entries(mask), opts).g
        except InfeasibleProblemError:
            continue
        minimized += 1
        total = g - fee_totals[mask]
        if total > best or (total == best and mask < best_mask):
            best, best_mask = total, mask
    return best, best_mask, minimized
