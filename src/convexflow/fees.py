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
from typing import Callable

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
    # patterns whose value entered the comparison: the empty one, each
    # minimized for itself and each that took a subset's value by the idle
    # edge rule; a pattern skipped by the bound, or infeasible, is not counted
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
    program of the instance of S.  Patterns are compared in mask order,
    and ties break toward the earlier pattern.

    With a quadratic or linear utility ``_pattern_minima`` leaves out the
    patterns that cannot change the answer: those below the full
    pattern's bound, and those that take a subset's value because an
    added edge is idle (both rules and why they are exact are set out
    there).  A threshold instance takes one pass over all patterns instead
    (``solver._threshold_pattern_minima``), with the same values; ``opts``
    does not reach it.
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
    if isinstance(utility, ThresholdUtility):
        minima = _solver._threshold_pattern_minima(utility, program)

        def value_of(mask: int, best: float) -> float | None:
            return minima[mask]
    else:
        value_of = _pattern_minima(utility, program, fee_totals, opts or SolverOptions())
    best = utility.value(np.zeros(instance.n))
    best_mask = 0
    evaluated = 1
    for mask in range(1, 2 ** m):
        value = value_of(mask, best)
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


def _pattern_minima(utility: Utility, program: _solver.Program, fee_totals: list[float],
                    opts: SolverOptions) -> Callable[[int, float], float | None]:
    """The value of pattern ``mask`` given the best total so far: the
    minimized fee-free dual of the pattern, or None where the pattern is
    infeasible or cannot beat that total.  Masks must come in increasing
    order.  Two exact rules spare most minimizations.

    Rule 1 (bound).  The full pattern is minimized first, and its state
    is the last mask's value.  Every fee-free edge term max(f_i, 0) is
    >= 0, so adding edges never lowers the dual: g_S <= g_full everywhere,
    and by weak duality g_full at any price bounds the optimum of every
    pattern S from above.  A pattern with g_full - fee(S) + GAP_TOL *
    (1 + |g_full|) < best therefore cannot win and is skipped; the margin
    covers a pattern minimized to within the solver's gap tolerance.  A
    skipped pattern's supersets pay at least its fees and are skipped too.
    When the full pattern is infeasible the bound is off.

    Rule 2 (idle edge).  When a pattern S ended converged (``grad``,
    ``gap`` or ``exact``) and edge j's kernel gives support <= 0.0 at S's
    price nu_S, S + {j} takes S's state as it is: its term adds nothing
    there, so g_{S+j}(nu_S) = g_S(nu_S), and g_{S+j} >= g_S everywhere, so
    nu_S minimizes g_{S+j} as well.  S + {j} costs at least S's fees and
    comes later in mask order, so it never displaces S.  The subsets
    S = mask - {j} are tried in increasing j, and S + {j} is converged in
    turn.  Only (g, nu) of each converged pattern is kept.
    """
    full = 2 ** len(program) - 1
    converged: dict[int, tuple[float, list[float]]] = {}  # (g, price) by mask, for rule 2

    def minimize(mask: int) -> _solver.DualState | None:
        try:
            return _solver._minimize(
                utility, [e for i, e in enumerate(program) if mask >> i & 1], opts)
        except InfeasibleProblemError:
            return None

    full_state = minimize(full) if full else None
    bound = margin = math.inf
    if full_state is not None:
        bound, margin = full_state.g, _solver.GAP_TOL * (1.0 + abs(full_state.g))

    def value_of(mask: int, best: float) -> float | None:
        if bound - fee_totals[mask] + margin < best:
            return None
        if mask == full:
            return None if full_state is None else full_state.g
        taken = _subset_with_idle_edge(program, converged, mask)
        if taken is None:
            state = minimize(mask)
            if state is None:
                return None
            if not state.converged:
                return state.g
            taken = state.g, state.nu
        converged[mask] = taken
        return taken[0]

    return value_of


def _subset_with_idle_edge(program: _solver.Program,
                           converged: dict[int, tuple[float, list[float]]],
                           mask: int) -> tuple[float, list[float]] | None:
    """(g, price) of the first converged subset mask - {j}, in increasing
    j, at whose price edge j's support is <= 0.0; None if there is none."""
    for j, (kernel, nodes, _, _) in enumerate(program):
        subset = converged.get(mask ^ (1 << j)) if mask >> j & 1 else None
        if subset is not None and kernel([subset[1][k] for k in nodes])[0] <= 0.0:
            return subset
    return None
