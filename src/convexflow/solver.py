"""Dual decomposition solver for flow problems with zero edge utilities.

The dual of the (possibly fee-carrying) problem is

    g(nu) = Ubar(nu) + sum_i max( f_i(nu[nodes_i]) - q_i, 0 ),   nu >= 0,

where f_i is the support function of edge i's flow set.  Each edge term is
the support of the nonconvex fee set Q_i = {0} ∪ (T_i × {-1}) at the
pulled price, so the edge subproblems decide activation on their own:
lambda_i = -1 exactly when f_i >= q_i, with ties recorded.

One evaluator, ``_evaluate``, computes g and a supergradient for every
caller: the minimizers below, ``dual_value_and_gradient``, ``solve_conic``
(whose clipped-cone support at price (xi_i, q_i) is the same edge term)
and the brute force of ``fees``, which values every activation pattern
at one price by subset sums of the edge terms of one evaluation.  It
runs over a program of ``(kernel, nodes, fee, unique)`` entries built
once per instance, where ``kernel`` is the edge set's float support
oracle (``FlowSet.kernel``) and ``unique`` its
``FlowSet.unique_maximizer`` flag, read only by the quadratic branch.

The evaluator and the minimizers run on Python floats end to end: prices,
maximizers, the conjugate (``utility.conjugate``), the gradient, the
L-BFGS direction and history, and the threshold scan are float lists,
because the instances the fee checks solve thousands of times have one
to four nodes, where a numpy call costs more than the arithmetic it does.
The one exception is the routing experiment's scale: a program made
entirely of constant-product markets, at least ``BATCH_MIN`` of them, is
a ``BatchedProgram``, built from the markets' columns
(``model.MarketColumns``: reserves, nodes and fees as arrays) as one
numpy block (``ProductMarketEdge.batch_kernel``).  ``_program`` takes a
loaded document's columns as they are, and reads an instance's tuple of
markets into columns in one pass; the block is built from columns only.
The program's per-edge entries are made from the edges when read: by
the zero-price fix-up, by the loop that takes a block that is not
finite, and by the certificate (which makes them all once).  ``_evaluate``
computes the block in one pass by the per-edge loop's float operations,
adding to g and the gradient in edge order, so it gets the loop's state
bit for bit.  ``BATCH_MIN`` is measured: with fewer markets, building
the block and evaluating it once costs more than the loop.  A program
with an edge of another family, such as each fee check's, is a plain
list and takes the loop.  Otherwise numpy appears only where a state
leaves the solver: the ``DualState`` returned by ``minimize_dual`` and
``dual_value_and_gradient`` (and the one ``solve_conic`` recovers from)
holds numpy ``nu`` and ``gradient``, and ``SolveReport`` its numpy
fields.  Internal callers, such as brute force, take the float state
of ``_minimize`` as it is.

Utility branches:

* quadratic  -- smooth conjugate; g is minimized by a projected
  limited-memory BFGS over the box nu >= 0 (two-loop recursion, projected
  backtracking line search with sufficient decrease, history restart to
  steepest descent on bad curvature or non-descent directions).  It stops
  on a projected gradient of at most ``grad_tol`` (``grad``) or on a
  certified duality gap (``gap``).  The edge terms put kinks in g, where
  the gradient test is never met: at a fee's break-even price, and where
  a set whose ``unique_maximizer`` is false (a tick, a piecewise-linear
  gain) switches maximizer.  So after an iteration whose line search
  rejected a trial, each edge's choice at the iterate is compared with
  its choice at the previous accepted iterate and at the nearest rejected
  trial; an edge whose activation differs there, or whose non-unique
  maximizer does, gets that choice as an alternative.  Weights in [0, 1]
  between the two choices give a point of the fee relaxation, which exact
  coordinate ascent moves to the best primal value P; the solver stops
  when g - P <= GAP_TOL * (1 + |g|), or when the price of that primal
  point, nu' = max(c - mu * y, 0), has a lower g that passes the same
  test (``_certify``).  Without an alternative the point is the
  iterate's own choices, and only its gap at the iterate is tested: this
  certifies the fee-free solves whose line search gives up within
  rounding of the optimum.  Otherwise it ends on ``line_search`` or
  ``max_iter``,
* linear     -- the conjugate domain is the single point c, so the dual
  is evaluated there directly,
* threshold  -- one-dimensional piecewise-linear dual, minimized exactly
  by a breakpoint scan; at a minimizer of 0 each active edge takes its
  maximizer just above 0, so recovery can meet the demand.

Primal recovery scatters the maximizers of the active, untied edges into
a feasible net flow.  A ``BatchedProgram`` reads the arrays its final
evaluation built: the report's flows are one (m, 2) array, a copy of
the block's flows (each market's maximizer when active, else zeros),
its activations are one ``np.where`` over the block's activity mask,
and one ``np.bincount`` and one ``cumsum`` give the net flow and the
fees, adding in edge order as the loop does, so the report is the
loop's bit for bit.  Every other program takes the loop, on Python
floats, in the same pass that lays every edge's flow out flat: the
report's flows are a list of views of the one numpy array this makes.
Both index, iterate and take row assignment alike.  This is
``_evaluate``'s split on the same rule.  Tied edges are enumerated (up
to ``MAX_TIE_ENUM``) in one numpy pass and the best-valued primal kept:
one flat Python list, which becomes one numpy array, holds each tied
edge's scattered maximizer and fee over a last row of the base net flow
and fee, and one product with the cached pattern matrix, whose last
column of ones adds the base, gives every pattern's net flow and fee
total; the kept pattern writes its tied edges' activations.  Without a
tie the base net flow is valued alone.  The report's net flow and
prices become numpy arrays once, as the report leaves.  Weak duality
makes [primal value, dual value] a bracket on the true optimum in every
case.

``SolverOptions`` holds the two settings a caller chooses, the L-BFGS's
``max_iter`` and ``grad_tol``.  Every other parameter is a constant of
this module: ``GAP_TOL``, ``CERTIFICATE_SWEEPS``, ``MEMORY``, ``TIE_TOL``,
``ARMIJO``, ``BACKTRACK``, ``MAX_BACKTRACKS``, ``DUAL_FLOOR`` and
``MAX_TIE_ENUM``, or of ``model``: ``BATCH_MIN``, which the loader shares.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import time
from collections import abc
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .conic import ConicInstance
from .errors import InfeasibleProblemError, UnboundedProblemError
from .model import (BATCH_MIN, Edge, Instance, LinearUtility, MarketColumns,
                    QuadraticUtility, ThresholdUtility, Utility, _dot)
from .sets import ProductMarketEdge, as_vector

# one entry per edge: (the flow set's kernel, the edge's nodes, its fee,
# whether the set's maximizer is unique at every positive price)
Program = Sequence[tuple[Callable, tuple[int, ...], float, bool]]

# relative duality gap, g - P <= GAP_TOL * (1 + |g|), of a ``gap`` stop and
# of ``verify_optimality``'s ``optimal`` tag
GAP_TOL = 1e-8
# coordinate-ascent sweeps of one certificate at most
CERTIFICATE_SWEEPS = 50
# curvature pairs the L-BFGS history keeps
MEMORY = 10
# an edge is active when f_i >= q_i - TIE_TOL * scale and tied when
# |f_i - q_i| <= TIE_TOL * scale, with scale = max(1, |f_i|, q_i)
TIE_TOL = 1e-7
# the line search: sufficient-decrease constant, step factor, trials at most
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40
# an accepted dual value below this ends the L-BFGS: the dual is unbounded
# below and the primal infeasible
DUAL_FLOOR = -1e15
# tied edges that recovery enumerates at most; beyond, all stay active
MAX_TIE_ENUM = 12
# the stops of a converged solve
CONVERGED = ("grad", "gap", "exact")


class _Block(NamedTuple):
    """The constant-product edges of a program, evaluated as one numpy block."""

    kernel: Callable         # ``ProductMarketEdge.batch_kernel`` of their sets
    nodes: np.ndarray        # each one's two nodes, interleaved in edge order
    fees: np.ndarray


class BatchedProgram(abc.Sequence):
    """A ``Program`` of constant-product edges alone, built from their
    ``MarketColumns``: ``block`` holds the columns as one numpy block, and
    an entry is made from its ``Edge`` when it is read (the zero-price
    fix-up of ``_evaluate``); iterating makes every entry once and keeps
    them.  ``_program`` builds one when every edge is a market and there
    are at least ``BATCH_MIN`` of them; every other program is a plain
    list, such as the fee checks' and each pattern of brute force.
    """

    def __init__(self, markets: MarketColumns):
        self.markets = markets
        self.block = _Block(kernel=ProductMarketEdge.batch_kernel(markets.reserves),
                            nodes=markets.nodes, fees=markets.fees)

    def __len__(self) -> int:
        return len(self.markets)

    def __getitem__(self, i: int):
        edge = self.markets[i]
        return edge.flow_set.kernel, edge.nodes, edge.fee, ProductMarketEdge.unique_maximizer

    @functools.cached_property
    def _entries(self) -> Program:
        return list(map(self.__getitem__, range(len(self.markets))))

    def __iter__(self):
        return iter(self._entries)


@dataclass(frozen=True)
class SolverOptions:
    """The L-BFGS's iteration cap and projected-gradient tolerance."""

    max_iter: int = 500
    grad_tol: float = 1e-8

    def __post_init__(self):
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if (isinstance(self.grad_tol, bool) or not isinstance(self.grad_tol, numbers.Real)
                or not 0.0 <= self.grad_tol < math.inf):
            raise ValueError(f"grad_tol must be a finite number >= 0, got {self.grad_tol!r}")


@dataclass
class Certificate:
    """A point of the fee relaxation whose value bounds the dual from below.

    Per edge i, ``(flows[i], activations[i])`` lies in the clipped cone
    conv(Q_i), with the activation in [-1, 0].
    ``value`` is P = U(min(y, c / mu)) + sum_i q_i * activations[i], where
    y is the net flow of the edge flows and the min disposes of its surplus
    above the utility's peak c / mu.  Weak duality gives P <= g(nu) at
    every nu >= 0.
    """

    value: float
    flows: list[tuple[float, ...]]
    activations: list[float]


@dataclass
class DualState:
    """The dual at one price vector, with each edge subproblem's outcome.

    Per edge i: ``values[i]`` is the support f_i at the pulled price (nan
    when not evaluated), ``points[i]`` its maximizer as a tuple (for an
    active edge whose supremum is unattained, a feasible near-maximizer;
    otherwise None when unattained), ``active[i]`` the integral
    activation and ``tied[i]`` whether that decision was a tie.

    ``stop`` says how the minimizer ended: ``grad`` (projected gradient at
    most ``grad_tol``), ``gap`` (duality gap certified by ``certificate``),
    ``line_search`` (no step of steepest descent passed the Armijo test),
    ``max_iter``, or ``exact`` (the linear and threshold paths, and a
    single evaluation).  ``converged`` is true for ``grad``, ``gap`` and
    ``exact``; it is read from ``stop``.

    Inside the solver ``nu`` and ``gradient`` are lists of floats; the
    states it returns hold them as numpy arrays.
    """

    nu: np.ndarray
    g: float
    gradient: np.ndarray | None
    values: list[float]
    points: list[tuple[float, ...] | None]
    active: list[bool]
    tied: list[bool]
    iterations: int = 0
    stop: str = "exact"
    certificate: Certificate | None = None
    trace: list[float] = field(default_factory=list)
    # (flows, activity, nodes, fees) of a block as its finite evaluation
    # left them, which ``recover_primal`` reads instead of the per-edge
    # lists; None for every other state
    _block: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def converged(self) -> bool:
        return self.stop in CONVERGED


@dataclass
class SolveReport:
    """A recovered primal point and its bracket on the optimum.

    ``flows[i]`` is edge i's flow: a ``BatchedProgram``'s report holds
    them as one (m, 2) float array, every other report as a list of
    arrays, views of one flat array.  Both index, iterate and take row
    assignment alike, but the array is no list: its truth value is
    ambiguous and it has no ``append``.
    """

    dual_value: float
    primal_value: float
    flows: Sequence[np.ndarray]
    activations: np.ndarray
    y_hat: np.ndarray
    nu: np.ndarray
    gap: float
    rel_gap: float
    tie_count: int
    iterations: int
    stop: str = "exact"
    edge_values: list[float] = field(default_factory=list)
    edge_tied: list[bool] = field(default_factory=list)
    runtime_ms: float = 0.0

    @property
    def converged(self) -> bool:
        return self.stop in CONVERGED


@dataclass
class VerifyResult:
    status: str  # "optimal" | "gap_certified" | "unknown"
    bracket: tuple[float, float]


def _fallback_maximizer(kernel: Callable, xi: list[float]) -> tuple[float, ...]:
    """Feasible near-maximizer at prices where the supremum is unattained.

    Flooring zero price components keeps the returned point inside the
    set; it is used only for supergradient directions and heuristic
    primal points, never for the dual value itself.
    """
    floor = 1e-12 * max(1.0, *xi)
    point = kernel([max(x, floor) for x in xi])[1]
    if point is None:
        return (0.0,) * len(xi)
    return point


def _program(edges: Sequence[Edge]) -> Program:
    # a loaded document's columns, or at least BATCH_MIN edges that are all
    # markets, read into columns in one pass: a block
    markets = edges if type(edges) is MarketColumns else (
        MarketColumns.of(edges) if len(edges) >= BATCH_MIN else None)
    if markets is not None:
        return BatchedProgram(markets)
    return [(edge.flow_set.kernel, edge.nodes, edge.fee, edge.flow_set.unique_maximizer)
            for edge in edges]


def _evaluate(utility: Utility, program: Program, prices: list[float]) -> DualState:
    """g and a supergradient at ``prices``, a list of nonnegative floats,
    over the edges of ``program``.  The state's ``nu`` is ``prices`` and
    its gradient a list.

    Activations and ties follow ``TIE_TOL``.  The evaluation stops at the
    first infinite term, with g = inf.

    A ``BatchedProgram``'s block is evaluated in one numpy pass, by the
    float operations of the per-edge loop below: the terms of g are added
    one by one in edge order, and the maximizers scattered into the
    gradient by ``np.bincount``, which also adds in edge order, so the
    state is the loop's bit for bit.  A market with a zero price takes
    its point from its ``kernel``, through ``_fallback_maximizer`` when
    active, as the loop does.  The state keeps the block's flows (each
    market's maximizer when active, else zeros), its activity and its
    nodes and fees for ``recover_primal``.  A block with a value that is
    not finite is left to the loop, which stops at the first infinite
    term; so is every plain program.
    """
    tie_tol = TIE_TOL
    conj_value, conj_max = utility.conjugate(prices)
    m = len(program)
    state = DualState(nu=prices, g=math.inf, gradient=None, values=[math.nan] * m,
                      points=[None] * m, active=[False] * m, tied=[False] * m)
    if not math.isfinite(conj_value):
        return state
    grad = [0.0] * len(prices)
    g = conj_value
    block = getattr(program, "block", None)  # a ``BatchedProgram``'s
    if block is not None:
        # a zero price divides by zero and an extreme one overflows, as in
        # the float kernel, which warns of neither
        with np.errstate(all="ignore"):
            pulled = np.array(prices)[block.nodes]
            supports, maximizers = block.kernel(pulled)
            excess = supports - block.fees
            # each edge's term, value - fee where value > fee and else 0,
            # added one by one in edge order (unlike sum()); a value that
            # is not finite leaves the sum so
            terms = np.maximum(excess, 0.0)
            terms[0] += g
            block_g = float(terms.cumsum()[-1])
        if math.isfinite(block_g):
            g = block_g
            # scale = max(1, |value|, fee), each value being >= 0
            tol = tie_tol * np.maximum(np.maximum(supports, 1.0), block.fees)
            on = supports >= block.fees - tol
            weights = np.where(np.repeat(on, 2), maximizers, 0.0)
            pairs = iter(maximizers.tolist())
            block_points = list(zip(pairs, pairs))
            block_active = on.tolist()
            if 0.0 in prices:
                for k in np.flatnonzero((pulled == 0.0).reshape(-1, 2).any(axis=1)).tolist():
                    kernel, nodes = program[k][:2]
                    xi = [prices[j] for j in nodes]
                    point = kernel(xi)[1]
                    if block_active[k]:
                        if point is None:
                            point = _fallback_maximizer(kernel, xi)
                        weights[2 * k:2 * k + 2] = point
                    block_points[k] = point
            grad = np.bincount(block.nodes, weights, len(prices)).tolist()
            state.values, state.points, state.active, state.tied = (
                supports.tolist(), block_points, block_active, (np.abs(excess) <= tol).tolist())
            state._block = (weights, on, block.nodes, block.fees)
    if state._block is None:  # a plain program, or a block that is not finite
        values, points, active, tied = state.values, state.points, state.active, state.tied
        for i, (kernel, nodes, fee, _) in enumerate(program):
            xi = [prices[j] for j in nodes]
            value, point = kernel(xi)
            values[i] = value
            if not math.isfinite(value):
                active[i] = True
                return state
            scale = max(1.0, abs(value), fee)
            tied[i] = abs(value - fee) <= tie_tol * scale
            if value > fee:
                g += value - fee
            if value >= fee - tie_tol * scale:
                active[i] = True
                if point is None:
                    point = _fallback_maximizer(kernel, xi)
                for j, x in zip(nodes, point):
                    grad[j] += x
            points[i] = point
    state.g = g
    if conj_max is None:
        # linear utility: any y maximizes at nu = c; completing with the
        # scattered edge flows gives the zero supergradient
        state.gradient = [0.0] * len(prices)
    else:
        state.gradient = list(map(operator.sub, grad, conj_max))
    return state


def _with_arrays(state: DualState) -> DualState:
    """The state as it leaves the solver: numpy ``nu`` and ``gradient``."""
    state.nu = np.array(state.nu)
    if state.gradient is not None:
        state.gradient = np.array(state.gradient)
    return state


def _clamped(prices: list[float]) -> list[float]:
    """A list of floats clamped to >= 0."""
    return [max(x, 0.0) for x in prices]


def dual_value_and_gradient(instance: Instance, nu) -> tuple[float, np.ndarray | None, DualState]:
    """Evaluate the dual function and a supergradient at nu (clamped to >= 0)."""
    prices = _clamped(as_vector(nu, instance.n).tolist())
    state = _with_arrays(_evaluate(instance.utility, _program(instance.edges), prices))
    return state.g, state.gradient, state


def _two_loop(history, grad: list[float]) -> list[float]:
    """L-BFGS two-loop recursion: an approximation of H @ grad."""
    q = grad
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * _dot(s, q)
        alphas.append(a)
        q = [qj - a * yj for qj, yj in zip(q, y)]
    if history:
        s, y, _ = history[-1]
        gamma = _dot(s, y) / _dot(y, y)
        q = [gamma * qj for qj in q]
    for (s, y, rho), a in zip(history, reversed(alphas)):
        b = rho * _dot(y, q)
        q = [qj + (a - b) * sj for qj, sj in zip(q, s)]
    return q


def _minimize_projected_lbfgs(utility: QuadraticUtility, program: Program,
                              opts: SolverOptions) -> DualState:
    """Projected L-BFGS over nu >= 0 from c clamped to >= 0.

    It stops on the projected gradient test or, after an iteration whose
    line search rejected a trial, on the duality-gap certificate of
    ``_certify``.  The state's ``trace`` holds g at the start, at every
    accepted iterate and at a certified primal point's price it adopts.
    """
    nu = _clamped(utility._c)
    state = _evaluate(utility, program, nu)
    if not math.isfinite(state.g):
        raise UnboundedProblemError("dual function is infinite at the starting point")
    history: list[tuple[list[float], list[float], float]] = []
    trace = [state.g]
    previous = None  # the accepted state before ``state``
    iterations = 0
    stop = "max_iter"
    for iterations in range(1, opts.max_iter + 1):
        grad = state.gradient
        projected = max(abs(x - max(x - d, 0.0)) for x, d in zip(nu, grad))
        if projected <= opts.grad_tol:
            stop = "grad"
            break
        direction = [-d for d in _two_loop(history, grad)]
        if _dot(grad, direction) >= 0.0:
            history.clear()
            direction = [-d for d in grad]
        step = 1.0
        accepted = rejected = None
        for _ in range(MAX_BACKTRACKS):
            trial = [max(x + step * d, 0.0) for x, d in zip(nu, direction)]
            delta = list(map(operator.sub, trial, nu))
            slope = _dot(grad, delta)
            if not any(delta):
                break
            if slope < 0.0:
                trial_state = _evaluate(utility, program, trial)
                if trial_state.g <= state.g + ARMIJO * slope:
                    accepted = (delta, trial, trial_state)
                    break
                if math.isfinite(trial_state.g):
                    rejected = trial_state  # the nearest so far
            step *= BACKTRACK
        if accepted is not None:
            s, trial, trial_state = accepted
            y = list(map(operator.sub, trial_state.gradient, grad))
            sy = _dot(s, y)
            if sy > 1e-12 * (math.hypot(*s) * math.hypot(*y)):
                history.append((s, y, 1.0 / sy))
                if len(history) > MEMORY:
                    history.pop(0)
            previous, nu, state = state, trial, trial_state
            trace.append(state.g)
            if state.g < DUAL_FLOOR:
                raise InfeasibleProblemError(
                    f"dual objective fell below DUAL_FLOOR = {DUAL_FLOOR:g}; the dual "
                    "is unbounded and the primal infeasible")
        if rejected is not None:
            bundle = [other for other in (previous, rejected) if other is not None]
            certified = _certify(utility, program, state, bundle)
            if certified is not None:
                if certified is not state:
                    trace.append(certified.g)
                state = certified
                stop = "gap"
                break
        if accepted is None:
            if history:
                history.clear()  # retry the iteration from steepest descent
                continue
            stop = "line_search"
            break
    state.iterations = iterations
    state.stop = stop
    state.trace = trace
    return state


def _certify(utility: QuadraticUtility, program: Program, state: DualState,
             bundle: Sequence[DualState]) -> DualState | None:
    """The state to stop at with a certified duality gap, or None.

    Each edge's base choice is its choice in ``state``: (maximizer, fee)
    when active, (0, 0) when not.  It has an alternative, the choice of
    the first ``bundle`` state that differs from it, when its activation
    differs there (a fee kink) or when its set's maximizer is not unique
    and differs there (a kernel kink).  Both choices lie in conv(Q_i), so any
    weight theta_i in [0, 1] toward the alternative keeps the point
    feasible; ``_ascend`` maximizes P(theta) of ``Certificate``.  The gap
    g - P is tested at ``state`` and then once at the price of the primal
    point, nu' = max(c - mu * y(theta), 0), which is adopted only if it
    lowers g and passes the same test.  Without an alternative the point
    is the base point itself, whose P is U(min(y, c / mu)) less the fees
    of the active edges (activation -1), and only the gap at ``state`` is
    tested.
    """
    c, mu = utility._c, utility.mu
    flows: list[tuple[float, ...]] = []
    moves = []  # (edge, nodes, flow change, activation switch) toward each alternative
    for i, (_, nodes, _, unique) in enumerate(program):
        active, point = state.active[i], state.points[i]
        flows.append(point if active else (0.0,) * len(nodes))
        for other in bundle:
            other_active, other_point = other.active[i], other.points[i]
            fee_kink = other_active != active
            kernel_kink = active and other_active and not unique and other_point != point
            if fee_kink or kernel_kink:
                target = other_point if other_active else (0.0,) * len(nodes)
                moves.append((i, nodes, [b - a for a, b in zip(flows[i], target)],
                              other_active - active))
                break
    activations = [-1.0 if active else 0.0 for active in state.active]
    if moves:
        theta = _ascend(c, mu, _net_flow(len(c), program, flows),
                        [(nodes, change, switch * program[i][2])
                         for i, nodes, change, switch in moves])
        for (i, _, change, switch), t in zip(moves, theta):
            flows[i] = tuple(a + t * d for a, d in zip(flows[i], change))
            activations[i] -= t * switch
    y = _net_flow(len(c), program, flows)
    value = _disposal_value(c, mu, y) + _dot([fee for _, _, fee, _ in program], activations)
    certificate = Certificate(value=value, flows=flows, activations=activations)
    if state.g - value <= GAP_TOL * (1.0 + abs(state.g)):
        state.certificate = certificate
        return state
    if not moves:
        return None
    primal_price = [max(cj - mu * yj, 0.0) for cj, yj in zip(c, y)]
    candidate = _evaluate(utility, program, primal_price)
    if candidate.g < state.g and candidate.g - value <= GAP_TOL * (1.0 + abs(candidate.g)):
        candidate.certificate = certificate
        return candidate
    return None


def _net_flow(n: int, program: Program, flows: list[tuple[float, ...]]) -> list[float]:
    y = [0.0] * n
    for (_, nodes, _, _), flow in zip(program, flows):
        for j, x in zip(nodes, flow):
            y[j] += x
    return y


def _disposal_value(c: list[float], mu: float, y: list[float]) -> float:
    """U(min(y, c / mu)) of the quadratic utility: U at y after free
    disposal of the surplus above its peak."""
    return sum(cj * cj / (2.0 * mu) if mu * yj >= cj else yj * (cj - 0.5 * mu * yj)
               for cj, yj in zip(c, y))


def _ascend(c: list[float], mu: float, y: list[float],
            moves: list[tuple[tuple[int, ...], list[float], float]]) -> list[float]:
    """theta in [0, 1]^k maximizing sum_j U_j(min(y_j, c_j / mu)) - fees
    when move k = (nodes, flow change, fee change) adds theta_k times its
    changes to the net flow ``y`` (updated in place) and to the fees.

    Exact coordinate ascent, each sweep followed by an exact line search
    along the sweep's whole step, which ends the zigzag of coupled moves;
    it stops when no weight moves by more than 1e-12.
    """
    theta = [0.0] * len(moves)
    for _ in range(CERTIFICATE_SWEEPS):
        start = theta[:]
        for k, (nodes, change, fee_change) in enumerate(moves):
            t = theta[k]
            step = _line_max(c, mu, y, nodes, change, fee_change, -t, 1.0 - t)
            for j, d in zip(nodes, change):
                y[j] += step * d
            theta[k] = t + step
        delta = list(map(operator.sub, theta, start))
        if max(map(abs, delta)) <= 1e-12:
            break
        if len(moves) > 1:
            # the sweep's step as one move: its net-flow change, fee change and
            # the largest multiple that keeps theta in the box
            change_of = {}
            for (nodes, change, _), dk in zip(moves, delta):
                for j, d in zip(nodes, change):
                    change_of[j] = change_of.get(j, 0.0) + dk * d
            nodes, change = tuple(change_of), list(change_of.values())
            fee_change = _dot([f for _, _, f in moves], delta)
            longest = min([(1.0 - t) / dk for t, dk in zip(theta, delta) if dk > 0.0]
                          + [-t / dk for t, dk in zip(theta, delta) if dk < 0.0])
            step = _line_max(c, mu, y, nodes, change, fee_change, 0.0, longest)
            for j, d in zip(nodes, change):
                y[j] += step * d
            theta = [t + step * dk for t, dk in zip(theta, delta)]
    return [min(max(t, 0.0), 1.0) for t in theta]


def _line_max(c: list[float], mu: float, y: list[float], nodes: Sequence[int],
              change: list[float], fee_change: float, lo: float, hi: float) -> float:
    """argmax over t in [lo, hi] of sum_j U_j(min(y_j + t change_j, c_j / mu))
    - t fee_change, over ``nodes``.

    The derivative, sum_j change_j max(c_j - mu (y_j + t change_j), 0) -
    fee_change, is nonincreasing and linear between the knots where a node
    reaches its peak, so its root is found exactly segment by segment.
    """
    def slope(t: float) -> float:
        return sum(d * max(c[j] - mu * (y[j] + t * d), 0.0)
                   for j, d in zip(nodes, change)) - fee_change

    knots = sorted(t for t in ((c[j] / mu - y[j]) / d for j, d in zip(nodes, change) if d)
                   if lo < t < hi)
    s_lo = slope(lo)
    if s_lo <= 0.0:
        return lo
    for t in knots + [hi]:
        s_t = slope(t)
        if s_t <= 0.0:
            return lo + (t - lo) * s_lo / (s_lo - s_t)
        lo, s_lo = t, s_t
    return hi


def _unit_supplies(program: Program) -> list[tuple[float, float]]:
    """(h_i, q_i) of each edge of a threshold ``program``: its supply at
    unit price and its fee."""
    kept = [(kernel([1.0])[0], fee) for kernel, _, fee, _ in program]
    if not all(math.isfinite(h) for h, _ in kept):
        raise UnboundedProblemError("an edge has unbounded supply at unit price")
    return kept


def _minimize_threshold(utility: ThresholdUtility, program: Program) -> DualState:
    """Exact minimizer of the 1-D piecewise-linear threshold dual.

    g(nu) = -b * nu + sum_i max(h_i * nu - q_i, 0) with h_i the edge
    supply at unit price; the slope only changes at nu = q_i / h_i.

    At a minimizer of 0 a set's maximizer may be 0 (a half line's is), so
    recovery would leave the demand unmet; each active edge there takes
    its maximizer just above price 0 (``_fallback_maximizer``), a half
    line its cap, and the gradient follows.
    """
    b = utility.b
    supplying = [(h, q) for h, q in _unit_supplies(program) if h > 0.0]
    # the first breakpoint after which the slope is >= 0
    for minimizer in sorted({0.0} | {q / h for h, q in supplying}):
        if -b + sum(h for h, q in supplying if q < h * minimizer + 1e-15 * max(1.0, q)) >= 0.0:
            break
    else:
        raise InfeasibleProblemError(
            "threshold dual decreases without bound; total edge supply "
            "cannot reach the demanded net flow")
    state = _evaluate(utility, program, [minimizer])
    if minimizer == 0.0:
        points = state.points
        for i, (kernel, _, _, _) in enumerate(program):
            if state.active[i]:
                points[i] = _fallback_maximizer(kernel, [0.0])
        state.gradient = [sum(p[0] for p, on in zip(points, state.active) if on) - b]
    state.iterations = 1
    return state


def minimize_dual(instance: Instance, opts: SolverOptions | None = None) -> DualState:
    """Minimize the dual over nu >= 0 and return the final dual state."""
    return _with_arrays(_minimize(instance.utility, _program(instance.edges), opts))


def _minimize(utility: Utility, program: Program, opts: SolverOptions | None) -> DualState:
    """``minimize_dual`` over ``program``.  Only the L-BFGS reads ``opts``
    (the defaults when None).  The state stays on floats; callers that
    hand it out convert it with ``_with_arrays``."""
    if isinstance(utility, LinearUtility):
        state = _evaluate(utility, program, _clamped(utility._c))
        if not math.isfinite(state.g):
            raise UnboundedProblemError(
                "the dual is infinite at nu = c, so the linear-utility "
                "problem is unbounded above")
        state.iterations = 1
    elif isinstance(utility, ThresholdUtility):
        state = _minimize_threshold(utility, program)
    elif isinstance(utility, QuadraticUtility):
        state = _minimize_projected_lbfgs(utility, program, opts or SolverOptions())
    else:
        raise TypeError(f"unsupported utility type: {type(utility).__name__}")
    return state


@functools.cache
def _tie_patterns(t: int) -> np.ndarray:
    """The (2^t, t + 1) float64 0/1 pattern matrix whose row k holds the
    bits of k and a 1, the base's; built once per t and read-only."""
    bits = ((np.arange(2 ** t)[:, None] >> np.arange(t + 1)) & 1).astype(float)
    bits[:, t] = 1.0
    bits.flags.writeable = False
    return bits


def recover_primal(state: DualState, instance: Instance) -> SolveReport:
    """Assemble a feasible primal point from the edge subproblem maximizers.

    Activations are integral by construction.  Tied edges (support equal
    to the fee within tolerance) are enumerated up to ``MAX_TIE_ENUM``
    and the best-valued primal kept; beyond the cap the active branch is
    kept, which is always feasible by the dominating-point property.  A
    state whose g is not finite has no primal point: ``ValueError``.

    The 2^t patterns of t enumerated ties are valued in one pass, with one
    matrix product: ``bits``, the (2^t, t + 1) 0/1 pattern matrix
    (``_tie_patterns``, last column all ones), times ``[C_tied | q_tied]``
    (row k: tied edge k's maximizer scattered to its nodes, then its fee)
    over a last row ``[y_base | fee_base]``.  The product's first n
    columns are the net flows and its last column the fees.  The rows
    are one flat Python list, which becomes one numpy array.  The base
    pattern (every tied edge active, the last row of ``bits``) is kept
    unless another pattern is strictly better; among equally good
    patterns the first in mask order wins.  Without an enumerated tie
    there is one pattern, ``y_base``, valued once, with no matrix product.

    A finite state of a ``BatchedProgram`` carries its block's arrays
    from ``_evaluate``, of which one ``np.bincount`` and one
    ``cumsum``, both adding in edge order, give ``y_base`` and
    ``fee_base`` as the per-edge loop does, bit for bit.  Its report's
    flows are one (m, 2) array, a copy of the block's flows, in which the
    tie pass zeroes a dropped market's row, and its activations come from
    the block's activity mask.  Every other report's flows are a list of
    views of one flat array.
    """
    if not math.isfinite(state.g):
        raise ValueError(f"no primal point to recover from a dual state with g = {state.g}")
    n, edges = instance.n, instance.edges
    tied = [i for i, t in enumerate(state.tied) if t]
    enumerated = tied if len(tied) <= MAX_TIE_ENUM else []
    if state._block is not None:
        # the block of the evaluation: a copy of its flows is the report's,
        # its activity gives the activations, and the active markets that
        # are not enumerated scatter into y_base and fee_base, added in edge
        # order as in the loop below
        weights, kept, nodes, fees = state._block
        flows = weights.reshape(-1, 2).copy()
        activations = np.where(kept, -1.0, 0.0)
        if enumerated:
            kept = kept.copy()
            kept[enumerated] = False
            weights = np.where(np.repeat(kept, 2), weights, 0.0)
        y_base = np.bincount(nodes, weights, n)
        fee_base = float(np.where(kept, fees, 0.0).cumsum()[-1])
    else:
        # one pass lays every edge's flow (its maximizer when active, else
        # zeros) out flat in edge order, and scatters the active edges that
        # are not enumerated into y_base and fee_base
        skipped = state.tied if enumerated else itertools.repeat(False)
        y_base, fee_base, entries, starts = [0.0] * n, 0.0, [], []
        for edge, on, point, skip in zip(edges, state.active, state.points, skipped):
            starts.append(len(entries))
            if not on:
                entries += (0.0,) * len(edge.nodes)
                continue
            entries += point
            if not skip:
                for j, x in zip(edge.nodes, point):
                    y_base[j] += x
                fee_base += edge.fee
        data = np.array(entries, dtype=float)
        starts.append(len(entries))
        flows = [data[a:b] for a, b in zip(starts, starts[1:])]
        activations = np.array([-1.0 if on else 0.0 for on in state.active])
    if enumerated:
        # [C_tied | q_tied] over [y_base | fee_base], row by row in one flat
        # list; a tied edge is active, since |f - q| <= tol gives f >= q - tol
        t, width = len(enumerated), n + 1
        rows = [0.0] * (t * width)
        for row, i in zip(range(0, t * width, width), enumerated):
            for j, x in zip(edges[i].nodes, state.points[i]):
                rows[row + j] = x
            rows[row + n] = edges[i].fee
        rows += [*y_base, fee_base]  # y_base: a list, or the block's array
        # sums of flows or fees near the float maximum overflow to inf, which
        # the selection below takes as it comes; numpy would warn on stderr
        with np.errstate(over="ignore"):
            sums = _tie_patterns(t) @ np.array(rows).reshape(t + 1, width)
            values = instance.utility.values(sums[:, :n]) - sums[:, n]
        best = int(values.argmax())
        if not values[best] > values[-1]:
            best = len(values) - 1  # the base pattern: every tied edge active
        for k, i in enumerate(enumerated):
            if not best >> k & 1:  # bits[best, k]: tied edge i, active, is dropped
                activations[i] = 0.0
                flows[i] = np.zeros(len(edges[i].nodes))
        y_hat, value = sums[best, :n].copy(), float(values[best])
    else:
        y_hat = np.array(y_base)
        value = float(instance.utility.values(y_hat[None])[0]) - fee_base
    gap = state.g - value
    rel_gap = gap / (1.0 + abs(state.g)) if math.isfinite(gap) else math.inf
    return SolveReport(dual_value=state.g, primal_value=value, flows=flows,
                       activations=activations,
                       y_hat=y_hat, nu=np.array(state.nu, dtype=float),
                       gap=gap, rel_gap=rel_gap, tie_count=len(tied),
                       iterations=state.iterations, stop=state.stop,
                       edge_values=list(state.values), edge_tied=list(state.tied))


def verify_optimality(report: SolveReport, tol: float = GAP_TOL) -> VerifyResult:
    bracket = (report.primal_value, report.dual_value)
    if not math.isfinite(report.dual_value) or not math.isfinite(report.primal_value):
        return VerifyResult("unknown", bracket)
    if report.dual_value - report.primal_value <= tol * (1.0 + abs(report.dual_value)):
        return VerifyResult("optimal", bracket)
    return VerifyResult("gap_certified", bracket)


def solve(instance: Instance, opts: SolverOptions | None = None) -> SolveReport:
    """Minimize the dual, recover a primal point, and time the whole run."""
    started = time.perf_counter()
    state = minimize_dual(instance, opts)
    report = recover_primal(state, instance)
    report.runtime_ms = (time.perf_counter() - started) * 1e3
    return report


def solve_conic(conic: ConicInstance, opts: SolverOptions | None = None) -> SolveReport:
    """Solve the conic form of an instance through its clipped cones.

    The shared activation node carries price zero (the network objective
    ignores it), so the dual lives on the original n coordinates and each
    edge term is the clipped-cone support at (xi_i, q_i),
    max(f_i(xi_i) - q_i, 0): the evaluator's edge term with the fee as the
    cone's last price coordinate, read from the kernel of the cone's base
    set, which is the edge's flow set.  ``ClippedCone.support`` is the
    per-edge reference for it.
    """
    instance = conic.base
    started = time.perf_counter()
    state = _with_arrays(_minimize(instance.utility, _program(instance.edges), opts))
    report = recover_primal(state, instance)
    report.runtime_ms = (time.perf_counter() - started) * 1e3
    return report


def report_to_document(report: SolveReport) -> dict:
    """Solution document: {objective_dual, objective_primal, gap, nu, edges[]}.

    Non-finite values stay floats, which a strict JSON writer refuses.
    A block's report (its flows one (m, 2) array) becomes rows in one
    ``tolist()``; a list of flows takes one ``tolist()`` per edge.
    """
    flows = report.flows
    rows = flows.tolist() if isinstance(flows, np.ndarray) else [x.tolist() for x in flows]
    return {
        "objective_dual": float(report.dual_value),
        "objective_primal": float(report.primal_value),
        "gap": float(report.gap),
        "nu": report.nu.tolist(),
        "edges": [
            {"x": x, "lambda": lam, "value": float(value), "tied": bool(tied)}
            for x, lam, value, tied in zip(rows, report.activations.tolist(),
                                           report.edge_values, report.edge_tied)
        ],
    }
