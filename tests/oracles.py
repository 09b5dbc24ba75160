"""Independent oracles used by the test suite.

Everything here recomputes expected values by brute force (grid search,
enumeration, dynamic programming, dense linear algebra) without touching
the closed forms it is checking.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from convexflow.bench import MAX_ATTEMPTS, RESERVE_RANGE, WEIGHT_RANGE, BenchConfig
from convexflow.conic import ClippedCone, FlowCone
from convexflow.errors import InfeasibleProblemError, UnboundedProblemError
from convexflow.fees import RoundedSolution
from convexflow.model import (Edge, Instance, LinearUtility, QuadraticUtility,
                              ThresholdUtility, net_flow)
from convexflow.sets import (CappedConcaveEdge, FlowSet, HalfLineEdge,
                             LinearTickEdge, ProductMarketEdge, as_vector,
                             scaled_tol)
from convexflow.solver import (ARMIJO, BACKTRACK, GAP_TOL, MAX_BACKTRACKS, MEMORY, TIE_TOL,
                               SolverOptions, dual_value_and_gradient, solve)


def _frontier_max(xs: np.ndarray, ys: np.ndarray, xi) -> float:
    values = xi[0] * xs + xi[1] * ys
    return float(max(values.max(), 0.0))


def grid_support(the_set: FlowSet, xi, num: int = 10_001) -> float:
    """Support value by dense grid search over the set's efficient frontier.

    Refines once around the coarse optimum, so the result is accurate to
    roughly (range / num)^2 relative.
    """
    xi = np.asarray(xi, dtype=float)
    if isinstance(the_set, CappedConcaveEdge):
        gain = the_set.gain
        w = np.linspace(0.0, the_set.capacity, num)
        h = np.array([gain.value(v) for v in w])
        best = _frontier_max(-w, h, xi)
        k = int(np.argmax(-xi[0] * w + xi[1] * h))
        lo, hi = w[max(k - 1, 0)], w[min(k + 1, num - 1)]
        w2 = np.linspace(lo, hi, num)
        h2 = np.array([gain.value(v) for v in w2])
        return max(best, _frontier_max(-w2, h2, xi))
    if isinstance(the_set, LinearTickEdge):
        w = np.linspace(0.0, the_set.cap, num)
        return _frontier_max(-w, the_set.price * w, xi)
    if isinstance(the_set, ProductMarketEdge):
        r = the_set.upper_bound
        k_inv = the_set.invariant
        scale = np.sqrt(k_inv)
        u = scale * np.logspace(-3, 3, num)  # R1 - x1 along the reserve curve
        best = _frontier_max(r[0] - u, r[1] - k_inv / u, xi)
        j = int(np.argmax(xi[0] * (r[0] - u) + xi[1] * (r[1] - k_inv / u)))
        u2 = np.linspace(u[max(j - 1, 0)], u[min(j + 1, num - 1)], num)
        return max(best, _frontier_max(r[0] - u2, r[1] - k_inv / u2, xi))
    if isinstance(the_set, HalfLineEdge):
        z = np.linspace(-10.0 * max(the_set.cap, 1.0), the_set.cap, num)
        return float(max((xi[0] * z).max(), 0.0))
    raise TypeError(f"no grid oracle for {type(the_set).__name__}")


def grid_gauge(the_set: FlowSet, x, lam_max: float = 1e6, num: int = 20_001) -> float:
    """Gauge by scanning a dense logarithmic grid of candidate scalings."""
    lams = np.logspace(-9, np.log10(lam_max), num)
    for lam in lams:
        if the_set.contains(np.asarray(x, dtype=float) / lam):
            return float(lam)
    return float("inf")


def subset_sum_reachable(weights, target: int) -> bool:
    """Classic subset-sum DP over reachable totals."""
    reachable = {0}
    for w in weights:
        reachable |= {r + w for r in reachable if r + w <= target}
    return target in reachable


def dense_selector(nodes, n: int) -> np.ndarray:
    a = np.zeros((n, len(nodes)))
    for k, j in enumerate(nodes):
        a[j, k] = 1.0
    return a


def dense_degree(instance) -> np.ndarray:
    total = np.zeros((instance.n, instance.n))
    for edge in instance.edges:
        a = dense_selector(edge.nodes, instance.n)
        total += a @ a.T
    return np.diag(total)


def central_difference(fn, x, h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        grad[j] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


class OrthantBoxSet(FlowSet):
    """Test fixture: the downward closure of a single point b >= 0.

    T = {x : x <= b}.  Simplest possible flow set of any dimension; used
    to build hyperedges whose geometry is trivial so that selector and
    degree bookkeeping can be tested in isolation.
    """

    def __init__(self, bound):
        self.upper_bound = np.asarray(bound, dtype=float)
        if np.any(self.upper_bound < 0.0):
            raise ValueError("bound must be nonnegative so that 0 is a member")
        self.dim = self.upper_bound.size

    def contains(self, x, tol: float = 1e-9) -> bool:
        v = as_vector(x, self.dim)
        return bool(np.all(v <= self.upper_bound
                           + np.array([scaled_tol(tol, b) for b in self.upper_bound])))

    def kernel(self, xi):
        return float(np.array(xi) @ self.upper_bound), tuple(self.upper_bound.tolist())


def sample_members(the_set: FlowSet, rng: np.random.Generator, count: int,
                   price_scale: float = 2.0) -> list[np.ndarray]:
    """Points of T built from support maximizers, dilations, and downward moves."""
    points = [np.zeros(the_set.dim)]
    while len(points) < count:
        xi = rng.uniform(0.05, price_scale, size=the_set.dim)
        point = the_set.support(xi).point
        if point is None:
            continue
        alpha = rng.uniform(0.0, 1.0)
        d = rng.exponential(0.3, size=the_set.dim) * rng.integers(0, 2, size=the_set.dim)
        points.append(alpha * point - d)
    return points[:count]


def sample_cone_points(the_set: FlowSet, rng: np.random.Generator, count: int,
                       lam_max: float = 2.0) -> list[np.ndarray]:
    """Points of the flow cone: scaled members plus downward perturbations."""
    members = sample_members(the_set, rng, count)
    out = []
    for t in members:
        lam = rng.uniform(0.0, lam_max)
        point = np.append(lam * t, -lam)
        if rng.random() < 0.3:
            point[:-1] -= rng.exponential(0.2, size=the_set.dim)
        out.append(point)
    return out


def brute_force_patterns(instance, opts=None):
    """(values, fee_totals, bounds), each by mask.  ``values`` holds the
    ``dual_value`` of a full ``solve`` (primal recovery included) of each
    fee-free pattern, U(0) for the empty one and None where the pattern is
    infeasible; ``fee_totals`` each pattern's fees; ``bounds`` each
    pattern's dual at the full pattern's price less its fees,
    g_S(nu_full) - fee(S), or None when m = 0 or the full pattern is
    infeasible."""
    values, fee_totals, bounds, subs = [], [], [], []
    full_report = None
    for mask in range(2 ** instance.m):
        pattern = tuple(i for i in range(instance.m) if mask >> i & 1)
        fee_totals.append(sum(instance.edges[i].fee for i in pattern))
        sub = Instance(n=instance.n,
                       edges=tuple(replace(instance.edges[i], fee=0.0) for i in pattern),
                       utility=instance.utility)
        subs.append(sub)
        if not pattern:
            values.append(instance.utility.value(np.zeros(instance.n)))
            continue
        try:
            full_report = solve(sub, opts)
            values.append(full_report.dual_value)
        except InfeasibleProblemError:
            full_report = None
            values.append(None)
    if full_report is None:  # the last report is the full pattern's
        return values, fee_totals, None
    bounds = [dual_value_and_gradient(sub, full_report.nu)[0] - fee_total
              for sub, fee_total in zip(subs, fee_totals)]
    return values, fee_totals, bounds


def brute_force_reference(instance, opts=None):
    """(value, pattern, feasible, kept) of the best activation pattern, from
    the full solves of ``brute_force_patterns``.

    ``feasible`` counts the empty pattern and every feasible one.  ``kept``
    counts the empty pattern, the full one and every feasible S that a
    best-first pass over the bounds reaches: the nonempty patterns below
    the full one in decreasing bound order (equal bounds in mask order),
    up to the first with bound + GAP_TOL * (1 + |g_full|) below the best
    total so far.  Without bounds ``kept`` is ``feasible``.
    """
    values, fee_totals, bounds = brute_force_patterns(instance, opts)
    best, best_mask, feasible = -math.inf, 0, 0
    for mask, (value, fee_total) in enumerate(zip(values, fee_totals)):
        if value is None:
            continue
        feasible += 1
        if value - fee_total > best:
            best, best_mask = value - fee_total, mask
    kept = feasible
    if bounds is not None:
        margin = GAP_TOL * (1.0 + abs(values[-1]))
        reached, kept = max(values[0], values[-1] - fee_totals[-1]), 2
        for mask in sorted(range(1, len(values) - 1), key=lambda mask: -bounds[mask]):
            if bounds[mask] + margin < reached:
                break
            if values[mask] is not None:
                kept += 1
                reached = max(reached, values[mask] - fee_totals[mask])
    return best, tuple(i for i in range(instance.m) if best_mask >> i & 1), feasible, kept


def q_membership_reference(flow_set: FlowSet, x, lam: float, tol: float = 1e-9) -> bool:
    """(x, lam) in Q = {0} ∪ (T × {-1}) on numpy, with tolerances."""
    v = as_vector(x, flow_set.dim)
    eps = scaled_tol(tol, 1.0)
    if abs(lam) <= eps and np.all(np.abs(v) <= eps):
        return True
    if abs(lam + 1.0) <= eps:
        return flow_set.contains(v, tol)
    return False


def round_relaxation_reference(instance, points, tol: float = 1e-9) -> RoundedSolution:
    """``fees.round_relaxation`` with the clipped cone tested first, on
    every point: a point outside the clipped cone is refused even where
    ``q_membership_reference`` accepts it; the net flow is ``net_flow`` and
    the fee sums are numpy dots."""
    if len(points) != instance.m:
        raise ValueError("need one (x, lambda) point per edge")
    flows = []
    lam_relaxed = np.zeros(instance.m)
    lam_rounded = np.zeros(instance.m)
    for i, (edge, (x, lam)) in enumerate(zip(instance.edges, points)):
        x = as_vector(x, edge.degree)
        lam = float(lam)
        if not ClippedCone(FlowCone(edge.flow_set)).contains(np.append(x, lam), tol):
            raise ValueError(f"edge {i}: point is not in the clipped cone")
        lam_relaxed[i] = lam
        if q_membership_reference(edge.flow_set, x, lam, tol):
            lam_rounded[i] = -1.0 if lam < -0.5 else 0.0
            if lam_rounded[i] == 0.0:
                x = np.zeros(edge.degree)
        else:
            lam_rounded[i] = -1.0
        flows.append(x)
    y_hat = net_flow(instance, flows)
    fees = np.array([edge.fee for edge in instance.edges])
    return RoundedSolution(flows=flows, activations=lam_rounded, y_hat=y_hat,
                           objective=instance.utility.value(y_hat) + float(fees @ lam_rounded),
                           fee_delta=float(fees @ (lam_relaxed - lam_rounded)))


def fallback_maximizer_reference(flow_set: FlowSet, xi: np.ndarray) -> np.ndarray:
    """A point of the set near the supremum at prices where it is unattained:
    the maximizer at the prices with zero components floored."""
    floor = 1e-12 * max(1.0, float(np.max(xi, initial=0.0)))
    point = flow_set.support(np.maximum(xi, floor)).point
    if point is None:
        return np.zeros(flow_set.dim)
    return point


def evaluate_dual_reference(instance, nu, tie_tol: float = TIE_TOL):
    """The dual at nu, one edge at a time through ``flow_set.support``:
    (g, gradient, values, active, tied), with the solver's rule (scale =
    max(1, |f|, q); active when f >= q - tie_tol * scale, tied when
    |f - q| <= tie_tol * scale) and g = inf at the first infinite term."""
    v = np.maximum(as_vector(nu, instance.n), 0.0)
    conj_value, conj_max = instance.utility.conjugate(v)
    m = instance.m
    values, active, tied = [math.nan] * m, [False] * m, [False] * m
    if not math.isfinite(conj_value):
        return math.inf, None, values, active, tied
    g, grad = conj_value, np.zeros(instance.n)
    for i, edge in enumerate(instance.edges):
        xi = v[list(edge.nodes)]
        value, point = edge.flow_set.support(xi)
        values[i] = value
        if not math.isfinite(value):
            active[i] = True
            return math.inf, None, values, active, tied
        scale = max(1.0, abs(value), abs(edge.fee))
        active[i] = value >= edge.fee - tie_tol * scale
        tied[i] = abs(value - edge.fee) <= tie_tol * scale
        g += max(value - edge.fee, 0.0)
        if active[i]:
            if point is None:
                point = fallback_maximizer_reference(edge.flow_set, xi)
            grad[list(edge.nodes)] += point
    if conj_max is None:
        return g, np.zeros(instance.n), values, active, tied
    return g, grad - conj_max, values, active, tied


def recover_primal_reference(state, instance, max_tie_enum: int):
    """(value, activations, y_hat, flows) of the best tie pattern, one
    pattern at a time: the base pattern first, then masks 0 .. 2^t - 1,
    first best kept."""
    def candidate(active):
        flows = []
        for i, edge in enumerate(instance.edges):
            point = state.points[i]
            if active[i] and point is None:
                point = fallback_maximizer_reference(edge.flow_set,
                                                     state.nu[list(edge.nodes)])
            flows.append(point if active[i] else np.zeros(edge.degree))
        y = net_flow(instance, flows)
        fees = sum(edge.fee for edge, on in zip(instance.edges, active) if on)
        return instance.utility.value(y) - fees, active, y, flows

    base = np.array(state.active, dtype=bool)
    tied = [i for i, t in enumerate(state.tied) if t]
    best = candidate(base)
    if 0 < len(tied) <= max_tie_enum:
        for mask in range(2 ** len(tied)):
            active = base.copy()
            for bit, i in enumerate(tied):
                active[i] = bool(mask >> bit & 1)
            trial = candidate(active)
            if trial[0] > best[0]:
                best = trial
    value, active, y, flows = best
    return value, np.where(active, -1.0, 0.0), y, [np.asarray(x, dtype=float) for x in flows]


def tie_pass_reference(state, instance, max_tie_enum: int):
    """(value, activations, y_hat) of recovery's tie pass by the two-step
    formula: the product of the (2^t, t) 0/1 pattern matrix with the tied
    edges' scattered maximizers and fees first, then the base net flow
    added to the flows and the base fee to the fees.  The base is every
    active edge that is not enumerated, summed on floats in edge order."""
    n, edges = instance.n, instance.edges
    tied = [i for i, t in enumerate(state.tied) if t]
    enumerated = tied if len(tied) <= max_tie_enum else []
    y_base, fee_base = [0.0] * n, 0.0
    for i, (edge, on, point) in enumerate(zip(edges, state.active, state.points)):
        if on and i not in enumerated:
            for j, x in zip(edge.nodes, point):
                y_base[j] += x
            fee_base += edge.fee
    active = np.array(state.active, dtype=bool)
    if not enumerated:
        y = np.array(y_base)
        return (float(instance.utility.values(y[None])[0]) - fee_base,
                np.where(active, -1.0, 0.0), y)
    t = len(enumerated)
    tied_rows = np.zeros((t, n + 1))
    for k, i in enumerate(enumerated):
        tied_rows[k, list(edges[i].nodes)] = state.points[i]
        tied_rows[k, n] = edges[i].fee
    bits = np.array([[mask >> k & 1 for k in range(t)] for mask in range(2 ** t)], dtype=float)
    with np.errstate(over="ignore"):
        sums = bits @ tied_rows
        ys = sums[:, :n] + np.array(y_base)
        values = instance.utility.values(ys) - (sums[:, n] + fee_base)
    best = int(values.argmax())
    if not values[best] > values[-1]:
        best = 2 ** t - 1  # the base pattern: every tied edge active
    for k, i in enumerate(enumerated):
        active[i] = bool(best >> k & 1)
    return float(values[best]), np.where(active, -1.0, 0.0), ys[best]


def conjugate_reference(utility, nu):
    """sup_y U(y) - nu @ y and its maximizer, in numpy vector arithmetic."""
    v = as_vector(nu, utility.dim)
    if isinstance(utility, LinearUtility):
        scale = max(1.0, float(np.max(np.abs(utility.c))) if utility.c.size else 1.0)
        if np.max(np.abs(v - utility.c), initial=0.0) <= 1e-12 * scale:
            return 0.0, None
        return math.inf, None
    if isinstance(utility, QuadraticUtility):
        diff = utility.c - v
        return float(diff @ diff) / (2.0 * utility.mu), diff / utility.mu
    if isinstance(utility, ThresholdUtility):
        if v[0] < 0.0:
            return math.inf, None
        return -float(v[0]) * utility.b, np.array([utility.b])
    raise TypeError(type(utility).__name__)


def _two_loop_reference(history, grad: np.ndarray) -> np.ndarray:
    """L-BFGS two-loop recursion on numpy vectors: an approximation of H @ grad."""
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


def lbfgs_reference(instance, opts: SolverOptions | None = None):
    """(nu, g, iterations, converged) of the solver's projected L-BFGS on a
    quadratic-utility instance, run on numpy vectors and evaluated through
    ``dual_value_and_gradient``; the same start, steps, tests, stopping rule
    and constants."""
    opts = opts or SolverOptions()

    def evaluate(point):
        g, grad, _ = dual_value_and_gradient(instance, point)
        return g, grad

    nu = np.maximum(instance.utility.c, 0.0)
    g, grad = evaluate(nu)
    if not math.isfinite(g):
        raise UnboundedProblemError("dual function is infinite at the starting point")
    history = []
    iterations = 0
    converged = False
    for iterations in range(1, opts.max_iter + 1):
        projected = nu - np.maximum(nu - grad, 0.0)
        if float(np.max(np.abs(projected), initial=0.0)) <= opts.grad_tol:
            converged = True
            break
        direction = -_two_loop_reference(history, grad)
        if grad @ direction >= 0.0:
            history.clear()
            direction = -grad
        step = 1.0
        accepted = None
        for _ in range(MAX_BACKTRACKS):
            trial = np.maximum(nu + step * direction, 0.0)
            delta = trial - nu
            slope = float(grad @ delta)
            if not np.any(delta):
                break
            if slope < 0.0:
                trial_g, trial_grad = evaluate(trial)
                if math.isfinite(trial_g) and trial_g <= g + ARMIJO * slope:
                    accepted = (trial, trial_g, trial_grad)
                    break
            step *= BACKTRACK
        if accepted is None:
            if history:
                history.clear()
                continue
            break
        trial, trial_g, trial_grad = accepted
        s, y = trial - nu, trial_grad - grad
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            history.append((s, y, 1.0 / sy))
            if len(history) > MEMORY:
                history.pop(0)
        nu, g, grad = trial, trial_g, trial_grad
    return nu, g, iterations, converged


def threshold_minimizer_reference(instance) -> float:
    """The minimizer of a threshold-utility dual by a breakpoint scan on
    numpy arrays of edge heights (supply at unit price) and fees."""
    b = instance.utility.b
    heights = np.array([edge.flow_set.support([1.0]).value for edge in instance.edges])
    fees = np.array([edge.fee for edge in instance.edges])
    if np.any(~np.isfinite(heights)):
        raise UnboundedProblemError("an edge has unbounded supply at unit price")
    breakpoints = sorted({0.0} | {float(q / h) for q, h in zip(fees, heights) if h > 0.0})
    for point in breakpoints:
        live = (heights > 0.0) & (fees < heights * point + 1e-15 * np.maximum(1.0, fees))
        if float(-b + heights[live].sum()) >= 0.0:
            return point
    raise InfeasibleProblemError("threshold dual decreases without bound")


def _draw_pairs_reference(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, int]]:
    for _ in range(MAX_ATTEMPTS):
        pairs = []
        touched = np.zeros(n, dtype=bool)
        for _ in range(m):
            a = int(rng.integers(0, n))
            b = int(rng.integers(0, n - 1))
            if b >= a:
                b += 1
            pair = (a, b) if a < b else (b, a)
            pairs.append(pair)
            touched[[a, b]] = True
        if touched.all():
            return pairs
    raise RuntimeError("could not cover every node; raise m or n")


def bench_instance_reference(config: BenchConfig) -> Instance:
    """The routing generator drawn market by market with scalar calls:
    ``bench.gen_bench_instance`` must consume the same Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    c = WEIGHT_RANGE[0] + rng.random(config.n) * (WEIGHT_RANGE[1] - WEIGHT_RANGE[0])
    pairs = _draw_pairs_reference(rng, config.n, config.m)
    log_hi = math.log(RESERVE_RANGE[1] / RESERVE_RANGE[0])
    edges = []
    for pair in pairs:
        reserves = RESERVE_RANGE[0] * np.exp(rng.random(2) * log_hi)
        edges.append(Edge(flow_set=ProductMarketEdge(reserves), nodes=pair,
                          fee=config.q0))
    if config.mu == 0.0:
        utility = LinearUtility(c)
    else:
        utility = QuadraticUtility(c, config.mu)
    return Instance(n=config.n, edges=tuple(edges), utility=utility)
