"""Dual decomposition solver for flow problems with zero edge utilities.

The dual of the (possibly fee-carrying) problem is

    g(nu) = Ubar(nu) + sum_i max( f_i(nu[nodes_i]) - q_i, 0 ),   nu >= 0,

where f_i is the support function of edge i's flow set.  Each edge term is
the support of the nonconvex fee set Q_i = {0} ∪ (T_i × {-1}) at the
pulled price, so the edge subproblems decide activation on their own:
lambda_i = -1 exactly when f_i >= q_i, with ties recorded.

Utility branches:

* quadratic  -- smooth conjugate; g is minimized by a projected
  limited-memory BFGS over the box nu >= 0 (two-loop recursion, projected
  backtracking line search with sufficient decrease, history restart to
  steepest descent on bad curvature or non-descent directions),
* linear     -- the conjugate domain is the single point c, so the dual
  is evaluated there directly,
* threshold  -- one-dimensional piecewise-linear dual, minimized exactly
  by a breakpoint scan.

Primal recovery scatters the active-edge maximizers into a feasible net
flow; tied edges are enumerated (up to a cap) and the best-valued primal
kept.  Weak duality makes [primal value, dual value] a bracket on the
true optimum in every case.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .conic import ClippedCone, ConicInstance
from .errors import (EdgeUtilityNotSupported, InfeasibleProblemError,
                     UnboundedProblemError)
from .model import (Instance, LinearUtility, QuadraticUtility, ThresholdUtility,
                    Utility)
from .sets import FlowSet, as_vector


@dataclass
class SolverOptions:
    max_iter: int = 500
    grad_tol: float = 1e-8
    memory: int = 10
    tie_tol: float = 1e-7
    armijo: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 40
    dual_floor: float = -1e15
    max_tie_enum: int = 12
    start: np.ndarray | None = None
    keep_trace: bool = False  # record g at every accepted iterate


@dataclass
class EdgeRecord:
    """One edge subproblem at a fixed price: support value, maximizer,
    integral activation, and whether the activation decision was a tie."""

    value: float
    term: float
    maximizer: np.ndarray | None
    active: bool
    tied: bool


@dataclass
class DualState:
    nu: np.ndarray
    xi: list[np.ndarray]
    records: list[EdgeRecord]
    g: float
    gradient: np.ndarray | None
    conjugate_value: float = 0.0
    conjugate_maximizer: np.ndarray | None = None
    iterations: int = 0
    converged: bool = True
    trace: list[float] = field(default_factory=list)


@dataclass
class SolveReport:
    dual_value: float
    primal_value: float
    flows: list[np.ndarray]
    activations: np.ndarray
    y_hat: np.ndarray
    nu: np.ndarray
    gap: float
    rel_gap: float
    tie_count: int
    iterations: int
    converged: bool
    edge_values: list[float] = field(default_factory=list)
    edge_tied: list[bool] = field(default_factory=list)
    runtime_ms: float = 0.0


@dataclass
class VerifyResult:
    status: str  # "optimal" | "gap_certified" | "unknown"
    bracket: tuple[float, float]


class _EdgeTerm:
    """Edge dual term evaluated through the flow set: max(f(xi) - q, 0)."""

    def __init__(self, flow_set: FlowSet, fee: float, nodes: Sequence[int]):
        self.flow_set = flow_set
        self.fee = float(fee)
        self.nodes = list(nodes)

    def evaluate(self, xi: np.ndarray, tie_tol: float) -> EdgeRecord:
        value, point = self.flow_set.support(xi)
        return _record_from_support(value, point, self.fee, tie_tol)

    def feasible_maximizer(self, xi: np.ndarray) -> np.ndarray:
        return _fallback_maximizer(self.flow_set, xi)


class _ConeTerm(_EdgeTerm):
    """Edge dual term evaluated through the clipped flow cone.

    The cone support at price (xi, q) is max(f(xi) - q, 0) with an
    integral activation coordinate, so the conic form reuses the same
    solver loop while genuinely exercising the cone oracles.
    """

    def __init__(self, clipped: ClippedCone, fee: float, nodes: Sequence[int]):
        super().__init__(clipped.base, fee, nodes)
        self.clipped = clipped

    def evaluate(self, xi: np.ndarray, tie_tol: float) -> EdgeRecord:
        term_value, point = self.clipped.support(np.append(xi, self.fee))
        if not math.isfinite(term_value):
            return EdgeRecord(math.inf, math.inf, None, True, False)
        if point is not None and point[-1] < -0.5:
            value = term_value + self.fee
            maximizer = point[:-1]
        else:
            # inactive branch: still fetch the set's own maximizer so a
            # tie flip can fall back on it
            value, maximizer = self.flow_set.support(xi)
        return _record_from_support(value, maximizer, self.fee, tie_tol)


def _record_from_support(value: float, point: np.ndarray | None, fee: float,
                         tie_tol: float) -> EdgeRecord:
    if not math.isfinite(value):
        return EdgeRecord(math.inf, math.inf, None, True, False)
    scale = max(1.0, abs(value), abs(fee))
    active = value >= fee - tie_tol * scale
    tied = abs(value - fee) <= tie_tol * scale
    term = max(value - fee, 0.0)
    return EdgeRecord(value, term, point, active, tied)


def _fallback_maximizer(flow_set: FlowSet, xi: np.ndarray) -> np.ndarray:
    """Feasible near-maximizer at prices where the supremum is unattained.

    Flooring zero price components keeps the returned point inside the
    set; it is used only for supergradient directions and heuristic
    primal points, never for the dual value itself.
    """
    floor = 1e-12 * max(1.0, float(np.max(xi, initial=0.0)))
    point = flow_set.support(np.maximum(xi, floor)).point
    if point is None:
        return np.zeros(flow_set.dim)
    return point


def _check_solvable(instance: Instance):
    for i, edge in enumerate(instance.edges):
        if not edge.has_zero_utility():
            raise EdgeUtilityNotSupported(
                f"edge {i} has a nonzero edge utility; the solver handles "
                "the zero-edge-utility case only")


def _terms_for(instance: Instance) -> list[_EdgeTerm]:
    return [_EdgeTerm(e.flow_set, e.fee, e.nodes) for e in instance.edges]


def _terms_for_conic(conic: ConicInstance) -> list[_EdgeTerm]:
    base = conic.base
    return [_ConeTerm(clipped, edge.fee, edge.nodes)
            for clipped, edge in zip(conic.clipped, base.edges)]


def _evaluate_dual(utility: Utility, terms: list[_EdgeTerm], n: int,
                   nu, tie_tol: float) -> DualState:
    v = np.maximum(as_vector(nu, n), 0.0)
    conj_value, conj_max = utility.conjugate(v)
    xi = [v[term.nodes] for term in terms]
    if not math.isfinite(conj_value):
        records = [EdgeRecord(math.nan, math.nan, None, False, False) for _ in terms]
        return DualState(nu=v, xi=xi, records=records, g=math.inf, gradient=None,
                         conjugate_value=conj_value)
    g = conj_value
    grad = np.zeros(n)
    records = []
    for term, price in zip(terms, xi):
        record = term.evaluate(price, tie_tol)
        records.append(record)
        if not math.isfinite(record.term):
            return DualState(nu=v, xi=xi, records=records, g=math.inf,
                             gradient=None, conjugate_value=conj_value)
        g += record.term
        if record.active:
            point = record.maximizer
            if point is None:
                point = term.feasible_maximizer(price)
            grad[term.nodes] += point
    if conj_max is not None:
        grad -= conj_max
    else:
        # linear utility: any y maximizes at nu = c; completing with the
        # scattered edge flows gives the zero supergradient
        grad = np.zeros(n)
    return DualState(nu=v, xi=xi, records=records, g=g, gradient=grad,
                     conjugate_value=conj_value, conjugate_maximizer=conj_max)


def dual_value_and_gradient(instance: Instance, nu,
                            tie_tol: float = 1e-7) -> tuple[float, np.ndarray | None, DualState]:
    """Evaluate the dual function and a supergradient at nu (clamped to >= 0)."""
    _check_solvable(instance)
    state = _evaluate_dual(instance.utility, _terms_for(instance), instance.n,
                           nu, tie_tol)
    return state.g, state.gradient, state


def _two_loop(history, grad: np.ndarray) -> np.ndarray:
    """L-BFGS two-loop recursion: an approximation of H @ grad."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if history:
        s, y, _ = history[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def _minimize_projected_lbfgs(evaluate: Callable[[np.ndarray], DualState],
                              start: np.ndarray, opts: SolverOptions) -> DualState:
    nu = np.maximum(np.asarray(start, dtype=float), 0.0)
    state = evaluate(nu)
    if not math.isfinite(state.g):
        raise UnboundedProblemError("dual function is infinite at the starting point")
    history: list[tuple[np.ndarray, np.ndarray, float]] = []
    trace = [state.g] if opts.keep_trace else []
    iterations = 0
    converged = False
    for iterations in range(1, opts.max_iter + 1):
        grad = state.gradient
        projected = nu - np.maximum(nu - grad, 0.0)
        if float(np.max(np.abs(projected), initial=0.0)) <= opts.grad_tol:
            converged = True
            break
        direction = -_two_loop(history, grad)
        if grad @ direction >= 0.0:
            history.clear()
            direction = -grad
        step = 1.0
        accepted = None
        for _ in range(opts.max_backtracks):
            trial = np.maximum(nu + step * direction, 0.0)
            delta = trial - nu
            slope = float(grad @ delta)
            if not np.any(delta):
                break
            if slope < 0.0:
                trial_state = evaluate(trial)
                if (math.isfinite(trial_state.g)
                        and trial_state.g <= state.g + opts.armijo * slope):
                    accepted = (trial, trial_state)
                    break
            step *= opts.backtrack
        if accepted is None:
            if history:
                history.clear()  # retry the iteration from steepest descent
                continue
            break
        trial, trial_state = accepted
        s = trial - nu
        y = trial_state.gradient - grad
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            history.append((s, y, 1.0 / sy))
            if len(history) > opts.memory:
                history.pop(0)
        nu, state = trial, trial_state
        if opts.keep_trace:
            trace.append(state.g)
        if state.g < opts.dual_floor:
            raise InfeasibleProblemError(
                "dual objective fell below the configured floor; the dual is "
                "unbounded and the primal infeasible")
    state.iterations = iterations
    state.converged = converged
    state.trace = trace
    return state


def _minimize_threshold(instance: Instance, terms: list[_EdgeTerm],
                        opts: SolverOptions) -> DualState:
    """Exact minimizer of the 1-D piecewise-linear threshold dual.

    g(nu) = -b * nu + sum_i max(h_i * nu - q_i, 0) with h_i the edge
    supply at unit price; the slope only changes at nu = q_i / h_i.
    """
    utility = instance.utility
    assert isinstance(utility, ThresholdUtility)
    b = utility.b
    heights = np.array([term.flow_set.support(np.ones(1)).value for term in terms])
    fees = np.array([term.fee for term in terms])
    if np.any(~np.isfinite(heights)):
        raise UnboundedProblemError("an edge has unbounded supply at unit price")
    breakpoints = sorted({0.0} | {float(q / h) for q, h in zip(fees, heights) if h > 0.0})

    def slope_after(point: float) -> float:
        live = (heights > 0.0) & (fees < heights * point + 1e-15 * np.maximum(1.0, fees))
        return float(-b + heights[live].sum())

    minimizer = None
    for point in breakpoints:
        if slope_after(point) >= 0.0:
            minimizer = point
            break
    if minimizer is None:
        raise InfeasibleProblemError(
            "threshold dual decreases without bound; total edge supply "
            "cannot reach the demanded net flow")
    state = _evaluate_dual(utility, terms, instance.n, np.array([minimizer]),
                           opts.tie_tol)
    state.iterations = 1
    return state


def minimize_dual(instance: Instance, opts: SolverOptions | None = None) -> DualState:
    """Minimize the dual over nu >= 0 and return the final dual state."""
    _check_solvable(instance)
    opts = opts or SolverOptions()
    terms = _terms_for(instance)
    return _minimize_terms(instance, instance.utility, terms, opts)


def _minimize_terms(instance: Instance, utility: Utility,
                    terms: list[_EdgeTerm], opts: SolverOptions) -> DualState:
    if isinstance(utility, LinearUtility):
        state = _evaluate_dual(utility, terms, instance.n, utility.c, opts.tie_tol)
        if not math.isfinite(state.g):
            raise UnboundedProblemError(
                "the dual is infinite at nu = c, so the linear-utility "
                "problem is unbounded above")
        state.iterations = 1
        return state
    if isinstance(utility, ThresholdUtility):
        return _minimize_threshold(instance, terms, opts)
    if isinstance(utility, QuadraticUtility):
        start = opts.start if opts.start is not None else utility.c
        return _minimize_projected_lbfgs(
            lambda nu: _evaluate_dual(utility, terms, instance.n, nu, opts.tie_tol),
            np.asarray(start, dtype=float), opts)
    raise TypeError(f"unsupported utility type: {type(utility).__name__}")


def recover_primal(state: DualState, instance: Instance,
                   opts: SolverOptions | None = None) -> SolveReport:
    """Assemble a feasible primal point from the edge subproblem maximizers.

    Activations are integral by construction.  Tied edges (support equal
    to the fee within tolerance) are enumerated up to ``max_tie_enum``
    and the best-valued primal kept; beyond the cap the active branch is
    kept, which is always feasible by the dominating-point property.

    The 2^t patterns of t enumerated ties are valued in one pass: with
    ``bits`` the (2^t, t) 0/1 pattern matrix, the net flows are
    ``y_base + bits @ C_tied`` and the fees ``fee_base + bits @ q_tied``,
    where row k of ``C_tied`` is tied edge k's maximizer scattered to its
    nodes.  The base pattern (every tied edge active, the last row) is
    kept unless another pattern is strictly better; among equally good
    patterns the first in mask order wins.
    """
    opts = opts or SolverOptions()
    records = state.records
    tied = [i for i, r in enumerate(records) if r.tied]
    enumerated = tied if len(tied) <= opts.max_tie_enum else []
    row = {i: k for k, i in enumerate(enumerated)}
    y_base, fee_base = np.zeros(instance.n), 0.0
    c_tied = np.zeros((len(enumerated), instance.n))
    q_tied = np.zeros(len(enumerated))
    points = {}
    for i, (edge, record) in enumerate(zip(instance.edges, records)):
        if not record.active:
            continue
        point = record.maximizer
        if point is None:
            point = _fallback_maximizer(edge.flow_set, state.xi[i])
        points[i] = point
        nodes = list(edge.nodes)
        if i in row:
            c_tied[row[i], nodes] = point
            q_tied[row[i]] = edge.fee
        else:
            y_base[nodes] += point
            fee_base += edge.fee
    bits = (np.arange(2 ** len(enumerated))[:, None] >> np.arange(len(enumerated))) & 1
    ys = y_base + bits @ c_tied
    values = instance.utility.values(ys) - (fee_base + bits @ q_tied)
    best = int(np.argmax(values))
    if not values[best] > values[-1]:
        best = len(values) - 1  # the base pattern: every tied edge active
    active = np.array([r.active for r in records], dtype=bool)
    active[enumerated] = bits[best].astype(bool)
    flows = [points[i] if on else np.zeros(edge.degree)
             for i, (edge, on) in enumerate(zip(instance.edges, active))]
    value = float(values[best])
    activations = np.where(active, -1.0, 0.0)
    gap = state.g - value
    rel_gap = gap / (1.0 + abs(state.g)) if math.isfinite(gap) else math.inf
    return SolveReport(dual_value=state.g, primal_value=value, flows=flows,
                       activations=activations, y_hat=ys[best].copy(), nu=state.nu.copy(),
                       gap=gap, rel_gap=rel_gap, tie_count=len(tied),
                       iterations=state.iterations, converged=state.converged,
                       edge_values=[r.value for r in records],
                       edge_tied=[r.tied for r in records])


def verify_optimality(report: SolveReport, tol: float = 1e-8) -> VerifyResult:
    bracket = (report.primal_value, report.dual_value)
    if not math.isfinite(report.dual_value) or not math.isfinite(report.primal_value):
        return VerifyResult("unknown", bracket)
    if report.dual_value - report.primal_value <= tol * (1.0 + abs(report.dual_value)):
        return VerifyResult("optimal", bracket)
    return VerifyResult("gap_certified", bracket)


def solve(instance: Instance, opts: SolverOptions | None = None) -> SolveReport:
    """Minimize the dual, recover a primal point, and time the whole run."""
    opts = opts or SolverOptions()
    started = time.perf_counter()
    state = minimize_dual(instance, opts)
    report = recover_primal(state, instance, opts)
    report.runtime_ms = (time.perf_counter() - started) * 1e3
    return report


def solve_conic(conic: ConicInstance, opts: SolverOptions | None = None) -> SolveReport:
    """Solve the conic form of an instance through its clipped-cone oracles.

    The shared activation node carries price zero (the network objective
    ignores it), so the dual lives on the original n coordinates and each
    edge term is the clipped-cone support at (xi_i, q_i).
    """
    instance = conic.base
    _check_solvable(instance)
    opts = opts or SolverOptions()
    started = time.perf_counter()
    terms = _terms_for_conic(conic)
    state = _minimize_terms(instance, instance.utility, terms, opts)
    report = recover_primal(state, instance, opts)
    report.runtime_ms = (time.perf_counter() - started) * 1e3
    return report


def report_to_document(report: SolveReport) -> dict:
    """Solution document: {objective_dual, objective_primal, gap, nu, edges[]}."""
    def _num(v: float):
        return float(v) if math.isfinite(v) else repr(v)

    return {
        "objective_dual": _num(report.dual_value),
        "objective_primal": _num(report.primal_value),
        "gap": _num(report.gap),
        "nu": [float(v) for v in report.nu],
        "edges": [
            {"x": [float(v) for v in x], "lambda": float(lam),
             "value": _num(value), "tied": bool(tied)}
            for x, lam, value, tied in zip(report.flows, report.activations,
                                           report.edge_values, report.edge_tied)
        ],
    }
