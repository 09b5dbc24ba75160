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

from dataclasses import dataclass

import numpy as np

from . import solver as _solver
from .conic import ClippedCone, FlowCone
from .errors import EnumerationBudgetError
from .model import Instance, LinearUtility, QuadraticUtility, ThresholdUtility, _floats
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
    # the empty pattern and every feasible pattern valued: with a quadratic
    # utility, those the branch and bound minimizes
    evaluated: int


def brute_force_optimum(instance: Instance, opts: SolverOptions | None = None) -> BruteForceResult:
    """Ground-truth fixed-fee optimum by enumerating activation patterns.

    Every subset S of edges is charged its fees and valued by the minimum
    of the fee-free dual of the convex flow problem restricted to S, the
    ``dual_value`` that ``solve`` would report on the instance of S, so a
    disagreement with the dual heuristic isolates the rounding logic
    rather than solver drift.  No primal point is recovered.  Among
    patterns of equal total the earlier in mask order wins.

    One evaluation, subset sums: the solver's program is built once with
    its fees zeroed, so at any price nu the dual of S is Ubar(nu) plus
    the terms max(f_i(nu), 0) of the edges in S.  One evaluation of the
    full program therefore gives every pattern's dual at nu, as the
    subset sums of its edge terms (``_subset_sums``), added in the order
    ``solver._evaluate`` adds them; the fee totals are subset sums too.

    * threshold -- without fees every breakpoint is 0: a pattern is
      feasible when its supplies at unit price reach b, and is then
      minimized at price 0, where its dual is the full program's.  One
      evaluation at 0 values every feasible pattern.
    * linear -- every pattern's dual is minimized at nu = c, so the full
      program's one evaluation there values every pattern.
    * quadratic -- a best-first branch and bound (``_best_first``).  The
      full pattern is minimized first, at price nu_full, and by weak
      duality bound(S) = g_S(nu_full) - fee(S) is at least the best total
      S can reach.  The other patterns are minimized, each on its own
      entries of the program (the program of the instance of S), in
      decreasing bound order, equal bounds in mask order, and the pass
      ends at the first pattern with bound(S) + GAP_TOL * (1 + |g_full|)
      < best, the best total so far: no pattern from there on can win.
      The margin covers a pattern minimized to within the solver's gap
      tolerance.  The order changes which patterns are minimized, never
      the answer, since an equal total displaces the best only from an
      earlier mask.  A fee-free quadratic dual is never below 0, so every
      pattern is feasible.

    Only the quadratic minimizations read ``opts``.  ``evaluated`` counts
    the empty pattern and every feasible pattern valued, or with a
    quadratic utility every pattern minimized.
    """
    m = instance.m
    if m > MAX_EDGES:
        raise EnumerationBudgetError(f"{m} edges exceed the {MAX_EDGES}-edge budget")
    program = [(kernel, nodes, 0.0, unique)
               for kernel, nodes, _, unique in _solver._program(instance.edges)]
    fee_totals = _subset_sums(0.0, [edge.fee for edge in instance.edges])
    utility = instance.utility
    best, best_mask, evaluated = utility.value([0.0] * instance.n), 0, 1
    values: list[float | None] = []  # by mask: each pattern's minimum, None when infeasible
    if isinstance(utility, ThresholdUtility):
        reach = _subset_sums(0.0, [h for h, _ in _solver._unit_supplies(program)])
        value = _solver._evaluate(utility, program, [0.0]).g
        values = [value if -utility.b + r >= 0.0 else None for r in reach]
    elif m:
        full = _solver._minimize(utility, program, opts)
        at_full = _subset_sums(utility.conjugate(full.nu)[0], full.values)
        if isinstance(utility, LinearUtility):
            values = at_full
        else:
            best, best_mask, evaluated = _best_first(utility, program, fee_totals, opts,
                                                     best, at_full)
    for mask in range(1, len(values)):
        if values[mask] is not None:
            evaluated += 1
            if values[mask] - fee_totals[mask] > best:
                best, best_mask = values[mask] - fee_totals[mask], mask
    return BruteForceResult(value=best,
                            pattern=tuple(i for i in range(m) if best_mask >> i & 1),
                            evaluated=evaluated)


def _subset_sums(start: float, terms: list[float]) -> list[float]:
    """By mask (bit i set when term i is in), ``start`` plus the pattern's
    terms that are > 0.0.  A pattern's sum is that of the pattern without
    its top term, plus the top term, so the terms are added in index
    order, as ``solver._evaluate`` adds the edge terms above a zero fee."""
    sums = [start]
    for term in terms:
        sums += [s + term for s in sums] if term > 0.0 else sums
    return sums


def _best_first(utility: QuadraticUtility, program: _solver.Program, fee_totals: list[float],
                opts: SolverOptions | None, best: float,
                at_full: list[float]) -> tuple[float, int, int]:
    """(best total, its mask, ``evaluated``) over the patterns of
    ``program``, given ``best``, the empty pattern's value, and
    ``at_full``, each pattern's dual at the full pattern's minimizer, by
    the branch and bound of ``brute_force_optimum``."""
    full = len(fee_totals) - 1
    bounds = [g - fee for g, fee in zip(at_full, fee_totals)]
    margin = _solver.GAP_TOL * (1.0 + abs(at_full[full]))
    best_mask, evaluated = 0, 2  # the empty pattern and the full one
    if bounds[full] > best:  # the full pattern's bound is its total
        best, best_mask = bounds[full], full
    for mask in sorted(range(1, full), key=lambda mask: -bounds[mask]):
        if bounds[mask] + margin < best:
            break
        entries = [e for i, e in enumerate(program) if mask >> i & 1]
        total = _solver._minimize(utility, entries, opts).g - fee_totals[mask]
        evaluated += 1
        if total > best or (total == best and mask < best_mask):
            best, best_mask = total, mask
    return best, best_mask, evaluated
