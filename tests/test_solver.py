import copy
import json
import math
import pickle
import sys
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexflow import model, solver
from convexflow.bench import BenchConfig, gen_bench_instance, gen_knapsack_instance
from convexflow.calculus import (aggregate, intersection, lift, minkowski_sum,
                                 nonneg_matrix_image, scale)
from convexflow.conic import ClippedCone, FlowCone, conic_rewrite
from convexflow.errors import InfeasibleProblemError, UnboundedProblemError
from convexflow.fees import brute_force_optimum
from convexflow.model import (Edge, Instance, LinearUtility, QuadraticUtility,
                              ThresholdUtility)
from convexflow.sets import (CappedConcaveEdge, HalfLineEdge, LinearTickEdge,
                             PiecewiseLinearGain, ProductMarketEdge)
from convexflow.solver import (BATCH_MIN, GAP_TOL, MAX_TIE_ENUM, SolveReport, SolverOptions,
                               _evaluate, _minimize, _program, _tie_patterns,
                               dual_value_and_gradient,
                               minimize_dual, recover_primal, report_to_document, solve,
                               solve_conic, verify_optimality)

from conftest import builtin_families, mixed_instance
from oracles import (central_difference, conjugate_reference, dense_selector,
                     evaluate_dual_reference, lbfgs_reference,
                     recover_primal_reference, threshold_minimizer_reference,
                     tie_pass_reference)


def capped_instance(fee, c=(1.0, 4.0), mu=None):
    utility = LinearUtility(c) if mu is None else QuadraticUtility(c, mu)
    return Instance(n=2, edges=(Edge(CappedConcaveEdge(capacity=1.0), (0, 1),
                                     fee=fee),), utility=utility)


def random_instance(rng, n_max=8, m_max=16, fee_range=(0.01, 1.0), mu=0.3):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    edges = []
    for _ in range(m):
        kind = rng.integers(0, 4)
        fee = float(rng.uniform(*fee_range))
        if kind == 0:
            the_set = CappedConcaveEdge(capacity=float(rng.uniform(0.5, 2.0)))
        elif kind == 1:
            the_set = LinearTickEdge(price=float(rng.uniform(0.5, 2.0)),
                                     cap=float(rng.uniform(0.5, 2.0)))
        elif kind == 2:
            the_set = ProductMarketEdge(rng.uniform(1.0, 5.0, size=2))
        else:
            edges.append(Edge(HalfLineEdge(float(rng.uniform(0.5, 2.0))),
                              (int(rng.integers(0, n)),), fee=fee))
            continue
        pair = rng.choice(n, size=2, replace=False)
        edges.append(Edge(the_set, tuple(int(v) for v in pair), fee=fee))
    c = rng.uniform(0.5, 1.5, size=n)
    return Instance(n=n, edges=tuple(edges), utility=QuadraticUtility(c, mu))


class TestDualValueAndGradient:
    def test_active_edge_term(self):
        inst = capped_instance(0.5)
        g, grad, state = dual_value_and_gradient(inst, [1.0, 4.0])
        assert g == pytest.approx(0.5)
        assert state.active[0] and not state.tied[0]

    def test_inactive_edge_term(self):
        inst = capped_instance(2.0)
        g, grad, state = dual_value_and_gradient(inst, [1.0, 4.0])
        assert g == 0.0
        assert not state.active[0]

    def test_gradient_reduces_to_conjugate_part(self):
        # fee too high for any activation: only the network term varies
        c, mu = np.array([1.0, 1.0]), 1.0
        inst = capped_instance(5.0, c=c, mu=mu)
        nu = np.array([0.7, 0.9])
        g, grad, state = dual_value_and_gradient(inst, nu)
        assert grad == pytest.approx(-(c - nu) / mu)

    def test_out_of_domain_price(self):
        inst = capped_instance(0.5)
        g, grad, _ = dual_value_and_gradient(inst, [1.0, 3.0])  # nu != c
        assert g == math.inf and grad is None

    def test_negative_nu_clamped(self):
        inst = capped_instance(0.5, c=(1.0, 1.0), mu=1.0)
        g, _, state = dual_value_and_gradient(inst, [-1.0, -1.0])
        assert np.all(state.nu == 0.0)
        assert math.isfinite(g)


def every_kind_instance(rng, n, utility, with_intersection=False):
    """One edge of every built-in family, a Minkowski sum and, optionally,
    an intersection (a numerical kernel), on random nodes with random
    fees."""
    def pair():
        return tuple(int(v) for v in rng.choice(n, size=2, replace=False))

    def uniform(lo=0.5, hi=2.0):
        return float(rng.uniform(lo, hi))

    sets = [CappedConcaveEdge(capacity=uniform()),
            CappedConcaveEdge(gain=PiecewiseLinearGain([(0.4, 0.5), (1.0, 0.8), (2.0, 1.0)]),
                              capacity=2.0),
            LinearTickEdge(price=uniform(), cap=uniform()),
            ProductMarketEdge(rng.uniform(1.0, 5.0, size=2)),
            ProductMarketEdge(rng.uniform(1.0, 5.0, size=2)),
            minkowski_sum(CappedConcaveEdge(capacity=uniform()),
                          LinearTickEdge(price=uniform(), cap=uniform()))]
    if with_intersection:
        sets.append(intersection(LinearTickEdge(price=uniform(), cap=uniform()),
                                 CappedConcaveEdge(capacity=uniform())))
    edges = [Edge(s, pair(), fee=uniform(0.0, 0.6)) for s in sets]
    edges.append(Edge(HalfLineEdge(uniform()), (int(rng.integers(0, n)),), fee=uniform(0.0, 0.6)))
    order = rng.permutation(len(edges))
    return Instance(n=n, edges=tuple(edges[i] for i in order), utility=utility)


def prices_with_zeros(rng, n):
    nu = rng.uniform(0.0, 2.0, size=n)
    nu[rng.random(n) < 0.3] = 0.0
    return nu


class TestEvaluatorMatchesReference:
    """The single evaluator against a per-edge loop through ``support``."""

    def assert_same(self, inst, nu):
        g, grad, state = dual_value_and_gradient(inst, nu)
        ref_g, ref_grad, values, active, tied = evaluate_dual_reference(inst, nu)
        if ref_g == math.inf:
            assert g == math.inf and grad is None
            return state
        assert g == pytest.approx(ref_g, rel=1e-12, abs=1e-12)
        assert grad == pytest.approx(ref_grad, rel=1e-12, abs=1e-12)
        assert state.values == pytest.approx(values, rel=1e-12, abs=1e-12, nan_ok=True)
        assert state.active == active and state.tied == tied
        return state

    def test_every_family_at_prices_with_zeros(self, rng):
        unattained = 0
        for _ in range(60):
            n = int(rng.integers(2, 6))
            utility = QuadraticUtility(rng.uniform(0.5, 1.5, size=n), float(rng.uniform(0.1, 1.0)))
            inst = every_kind_instance(rng, n, utility)
            for _ in range(5):
                nu = prices_with_zeros(rng, n)
                state = self.assert_same(inst, nu)
                unattained += sum(
                    e.flow_set.kernel(nu[list(e.nodes)].tolist())[1] is None
                    for e in inst.edges)
        assert unattained > 0  # product markets with one zero price were hit

    def test_intersection_set_default_kernel(self, rng):
        for _ in range(3):
            utility = QuadraticUtility(rng.uniform(0.5, 1.5, size=3), 0.3)
            inst = every_kind_instance(rng, 3, utility, with_intersection=True)
            self.assert_same(inst, rng.uniform(0.1, 2.0, size=3))

    def test_linear_and_threshold_utilities(self, rng):
        for _ in range(10):
            c = rng.uniform(0.5, 1.5, size=4)
            inst = every_kind_instance(rng, 4, LinearUtility(c))
            self.assert_same(inst, c)
            self.assert_same(inst, c + 0.1)  # off the conjugate's domain: g = inf
        for _ in range(10):
            edges = tuple(Edge(HalfLineEdge(float(w)), (0,), fee=float(q))
                          for w, q in rng.uniform(0.5, 3.0, size=(4, 2)))
            inst = Instance(n=1, edges=edges, utility=ThresholdUtility(4.0))
            for nu in (0.0, 1.0, float(rng.uniform(0.0, 3.0))):
                self.assert_same(inst, [nu])

    def test_near_ties(self, rng):
        # fees within a few tie tolerances of the support at nu = 1, on
        # supports of 5 to 20, where the scaled and the unscaled rule differ
        for _ in range(10):
            weights = rng.uniform(5.0, 20.0, size=8)
            offsets = rng.choice([0.0, 5e-8, -5e-8, 5e-7, -5e-7, 5e-6, -5e-6], size=8)
            edges = tuple(Edge(HalfLineEdge(float(w)), (0,), fee=float(w * (1.0 + d)))
                          for w, d in zip(weights, offsets))
            inst = Instance(n=1, edges=edges, utility=ThresholdUtility(30.0))
            state = self.assert_same(inst, [1.0])
            assert 0 < sum(state.tied) < inst.m

    def test_unbounded_half_line_is_infinite(self, rng):
        edges = (Edge(ProductMarketEdge([2.0, 3.0]), (0, 1), fee=0.1),
                 Edge(HalfLineEdge(math.inf), (1,), fee=0.2))
        inst = Instance(n=2, edges=edges, utility=QuadraticUtility([1.0, 1.0], 0.5))
        assert self.assert_same(inst, [0.5, 0.7]).g == math.inf
        assert self.assert_same(inst, [0.5, 0.0]).g < math.inf  # zero price: finite

    def test_conic_terms_and_dual_view_agree(self, rng):
        # ClippedCone.support at (xi, q) is each edge term of solve_conic
        for _ in range(20):
            utility = QuadraticUtility(rng.uniform(0.5, 1.5, size=4), 0.4)
            inst = every_kind_instance(rng, 4, utility)
            nu = prices_with_zeros(rng, 4)
            g = dual_value_and_gradient(inst, nu)[0]
            conic_g = utility.conjugate(nu)[0] + sum(
                ClippedCone(FlowCone(e.flow_set)).support(np.append(nu[list(e.nodes)], e.fee)).value
                for e in inst.edges)
            assert g == pytest.approx(conic_g, rel=1e-12, abs=1e-12)


def composed_sets():
    """One set of every calculus rule, some of them nested."""
    market, capped = ProductMarketEdge([2.0, 3.0]), CappedConcaveEdge(capacity=1.0)
    return {
        "minkowski_sum": minkowski_sum(market, capped),
        "scaled": scale(market, 1.7),
        "scaled_zero": scale(capped, 0.0),
        "matrix_image": nonneg_matrix_image(capped, [[1.0, 0.2], [0.0, 1.5], [0.5, 0.5]]),
        "lifted": lift(market, [2, 0], 3),
        "lifted_scaled": lift(scale(market, 0.6), [1, 3], 4),
        "intersection": intersection(LinearTickEdge(price=1.2, cap=0.7), capped),
        "aggregate": aggregate([(market, [0, 1]), (capped, [1, 2]), (HalfLineEdge(0.9), [2])], 3),
    }


@pytest.mark.parametrize("name", sorted(builtin_families()) + sorted(composed_sets()))
def test_support_equals_kernel(name, rng):
    the_set = {**builtin_families(), **composed_sets()}[name]
    for _ in range(50):
        xi = prices_with_zeros(rng, the_set.dim)
        value, point = the_set.support(xi)
        k_value, k_point = the_set.kernel(xi.tolist())
        assert value == k_value
        assert (point is None and k_point is None) or point.tolist() == list(k_point)


@pytest.mark.parametrize("kind", ["linear", "quadratic", "threshold"])
def test_float_conjugate_matches_vector_formula(kind, rng):
    for _ in range(40):
        n = 1 if kind == "threshold" else int(rng.integers(1, 8))
        c = rng.uniform(-1.0, 2.0, size=n) * 10.0 ** rng.integers(0, 4)
        utility = {"linear": lambda: LinearUtility(c),
                   "quadratic": lambda: QuadraticUtility(c, float(rng.uniform(0.05, 3.0))),
                   "threshold": lambda: ThresholdUtility(float(rng.uniform(-5.0, 5.0)))}[kind]()
        for nu in (prices_with_zeros(rng, n), rng.uniform(-1.0, 1.0, size=n), c,
                   c * (1.0 + 1e-13), c + 1e-6):
            value, point = utility.conjugate(nu.tolist())
            ref_value, ref_point = conjugate_reference(utility, nu)
            assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-300)
            assert (point is None) == (ref_point is None)
            if point is not None:
                assert isinstance(point, list)
                assert point == pytest.approx(ref_point.tolist(), rel=1e-12, abs=1e-300)
            assert utility.conjugate(nu) == utility.conjugate(nu.tolist())


class FixedConjugate:
    """A utility whose conjugate is the same at every price, so that any
    price, inf included, reaches the edge terms of ``_evaluate``."""

    def __init__(self, value, maximizer):
        self.value, self.maximizer = value, maximizer

    def conjugate(self, prices):
        return self.value, self.maximizer


def _bits(value):
    """``value`` with every float replaced by its hex form, so that ==
    compares floats bit for bit, nan included, and lists and tuples stay
    apart."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return type(value)(_bits(v) for v in value)
    return value


# node prices: zeros (with few nodes, often both of a market's), ties,
# infinities, and magnitudes whose products overflow
_prices = st.sampled_from([0.0, 0.0, math.inf, 1e-300, 1e200]) | st.floats(0.0, 3.0)


@st.composite
def _market_edges(draw, n: int, prices: list[float]) -> list[Edge]:
    """At least ``BATCH_MIN`` product markets on ``n`` nodes, about half
    with a fee equal to their support at ``prices``: an exact tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = []
    for _ in range(int(rng.integers(BATCH_MIN, BATCH_MIN + 13))):
        market = ProductMarketEdge(rng.uniform(0.5, 100.0, size=2))
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        fee = float(rng.choice([0.0, 0.01, 1.0, rng.uniform(0.0, 5.0)]))
        tie = market.kernel([prices[a], prices[b]])[0]
        if rng.random() < 0.5 and math.isfinite(tie):
            fee = tie
        edges.append(Edge(market, (a, b), fee=fee))
    return edges


def _evaluations(data, edges, n, prices):
    """``_evaluate`` of ``edges`` at ``prices`` with their block and, from
    the same entries, without one, under a utility drawn from ``data``."""
    utility = FixedConjugate(data.draw(st.floats(-2.0, 2.0)),
                             data.draw(st.none() | st.just([0.5] * n)))
    program = _program(edges)
    assert program.block is not None
    return _evaluate(utility, program, prices), _evaluate(utility, list(program), prices)


class TestBatchedProductMarkets:
    """The numpy block of a program's constant-product edges against the
    per-edge loop it replaces."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_market_programs_are_bit_equal(self, data):
        n = data.draw(st.integers(2, 6))
        prices = data.draw(st.lists(_prices, min_size=n, max_size=n))
        edges = data.draw(_market_edges(n, prices))
        batched, looped = _evaluations(data, edges, n, prices)
        for name in ("g", "gradient", "values", "points", "active", "tied"):
            assert _bits(getattr(batched, name)) == _bits(getattr(looped, name)), name

    def test_small_programs_build_no_block(self):
        # the benchmark's fee instances: knapsacks of half lines, and the
        # mixed instances with one product market each
        assert type(_program(gen_knapsack_instance([3, 5, 7, 11, 13], 19).edges)) is list
        for n, kinds in ((3, ("capped_rational", "capped_piecewise", "product_market",
                              "half_line")),
                         (4, ("linear_tick", "product_market", "half_line", "minkowski_sum"))):
            inst = mixed_instance(np.random.default_rng(n), n, kinds)
            assert type(_program(inst.edges)) is list
        markets = [Edge(ProductMarketEdge([2.0, 3.0]), (0, 1))] * BATCH_MIN
        assert type(_program(markets[1:])) is list
        assert _program(markets).block is not None
        # an edge of another family sends a program of any size to the loop
        assert type(_program(markets + [Edge(HalfLineEdge(1.0), (0,))])) is list


def _outcome(fn, *args):
    """fn(*args), or the type of the solver error it raised."""
    try:
        return fn(*args)
    except (InfeasibleProblemError, UnboundedProblemError) as exc:
        return type(exc)


class TestThresholdScanMatchesReference:
    """The float breakpoint scan against the numpy scan it replaced."""

    def assert_same(self, inst, on=None):
        sub = inst if on is None else Instance(
            n=1, edges=tuple(e for e, k in zip(inst.edges, on) if k), utility=inst.utility)

        def scan():
            state = _minimize(inst.utility, _program(sub.edges), SolverOptions())
            return state.nu, state.g  # _minimize keeps the state on floats

        def reference():
            point = threshold_minimizer_reference(sub)
            return [point], dual_value_and_gradient(sub, [point])[0]

        got, expected = _outcome(scan), _outcome(reference)
        assert got == expected
        return got

    def test_random_knapsacks_under_edge_masks(self, rng):
        from convexflow.bench import gen_knapsack_instance

        outcomes = set()
        for _ in range(40):
            weights = [int(w) for w in rng.integers(1, 21, size=int(rng.integers(1, 9)))]
            inst = gen_knapsack_instance(weights, int(rng.integers(0, sum(weights) + 5)))
            for _ in range(4):
                on = [bool(k) for k in rng.integers(0, 2, size=inst.m)]
                got = self.assert_same(inst, on)
                outcomes.add(got if isinstance(got, type) else got[0][0])
        assert {0.0, 1.0, InfeasibleProblemError} <= outcomes

    def test_random_caps_and_fees_under_edge_masks(self, rng):
        for _ in range(40):
            m = int(rng.integers(1, 9))
            edges = tuple(Edge(HalfLineEdge(float(w)), (0,), fee=float(q))
                          for w, q in rng.uniform(0.1, 5.0, size=(m, 2)))
            inst = Instance(n=1, edges=edges,
                            utility=ThresholdUtility(float(rng.uniform(-1.0, 3.0 * m))))
            self.assert_same(inst)
            self.assert_same(inst, [bool(k) for k in rng.integers(0, 2, size=m)])

    def test_zero_height_edge(self):
        edges = (Edge(HalfLineEdge(0.0), (0,), fee=0.0), Edge(HalfLineEdge(0.0), (0,), fee=1.0),
                 Edge(HalfLineEdge(2.0), (0,), fee=3.0), Edge(HalfLineEdge(4.0), (0,), fee=2.0))
        for b in (-1.0, 0.0, 3.0, 6.0, 7.0):
            self.assert_same(Instance(n=1, edges=edges, utility=ThresholdUtility(b)))

    def test_infeasible_and_unbounded_supply(self):
        short = Instance(n=1, edges=(Edge(HalfLineEdge(2.0), (0,), fee=2.0),),
                         utility=ThresholdUtility(5.0))
        assert self.assert_same(short) is InfeasibleProblemError
        endless = Instance(n=1, edges=(Edge(HalfLineEdge(2.0), (0,), fee=2.0),
                                       Edge(HalfLineEdge(math.inf), (0,), fee=1.0)),
                           utility=ThresholdUtility(5.0))
        assert self.assert_same(endless) is UnboundedProblemError


def smooth_market_instance(rng, n):
    """A fee-free quadratic instance of product markets: a ring through all
    nodes plus random pairs."""
    pairs = [(j, (j + 1) % n) for j in range(n)]
    pairs += [tuple(int(v) for v in rng.choice(n, size=2, replace=False)) for _ in range(n // 2)]
    edges = tuple(Edge(ProductMarketEdge(rng.uniform(1.0, 5.0, size=2)), pair) for pair in pairs)
    return Instance(n=n, edges=edges, utility=QuadraticUtility(
        rng.uniform(0.5, 1.5, size=n), float(rng.uniform(0.2, 1.0))))


def test_lbfgs_matches_vector_reference():
    # the float L-BFGS against the numpy one it replaced, where the
    # reference converges: the dot products round differently, so the
    # iterates agree to rounding, not bit for bit.  The reference has no
    # certificate; a solve that stops earlier on one is held to its own
    # contract instead: sound, and g within the gap tolerance
    compared = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        inst = smooth_market_instance(rng, int(rng.integers(3, 11)))
        ref_nu, ref_g, _, ref_converged = lbfgs_reference(inst)
        if not ref_converged:
            continue
        state = minimize_dual(inst)
        assert state.converged
        if state.stop == "gap":
            assert_certificate_sound(inst, state)
            assert abs(state.g - ref_g) <= GAP_TOL * (1.0 + abs(state.g))
        else:
            assert state.stop == "grad"
            assert state.g == pytest.approx(ref_g, rel=1e-10)
            assert state.nu == pytest.approx(ref_nu, rel=0, abs=1e-8)
        assert isinstance(state.nu, np.ndarray) and isinstance(state.gradient, np.ndarray)
        compared += 1
    assert compared >= 8


class TestMinimizeDual:
    def test_linear_short_circuit(self):
        inst = capped_instance(0.5)
        state = minimize_dual(inst)
        assert state.nu == pytest.approx([1.0, 4.0])
        assert state.g == pytest.approx(0.5)
        assert state.iterations == 1

    def test_quadratic_matches_grid_oracle(self):
        # frozen from a 2e6-point sweep of the frontier curve
        # 4 h(w) - (w^2 + h(w)^2) / 2 with h(w) = w / (1 + w)
        inst = capped_instance(0.0, c=(0.0, 4.0), mu=1.0)
        state = minimize_dual(inst)
        assert state.converged
        assert state.g == pytest.approx(1.3789653628876, abs=1e-6)

    def test_infeasible_start_is_clamped(self):
        # the L-BFGS starts from c clamped to >= 0, here (0, 1)
        inst = capped_instance(0.0, c=(-1.0, 1.0), mu=1.0)
        state = minimize_dual(inst)
        assert state.trace[0] == dual_value_and_gradient(inst, [0.0, 1.0])[0]
        assert state.converged
        assert np.all(state.nu >= 0.0)

    def test_monotone_accepted_iterates(self, rng):
        inst = random_instance(rng)
        state = minimize_dual(inst)
        trace = np.array(state.trace)
        assert np.all(np.diff(trace) <= 1e-12 * (1 + np.abs(trace[:-1])))

    def test_projected_stationarity_at_convergence(self, rng):
        # a gradient stop is stationary; a gap stop at a kink need not be,
        # and is checked through its certificate instead
        for _ in range(5):
            inst = random_instance(rng, n_max=5, m_max=8)
            state = minimize_dual(inst)
            if state.stop == "grad":
                projected = state.nu - np.maximum(state.nu - state.gradient, 0.0)
                assert np.abs(projected).max() <= 1e-8
            elif state.stop == "gap":
                assert_certificate_sound(inst, state)

    def test_unbounded_linear_detected(self):
        # negative utility weight on a reachable node: flow can run away
        inst = capped_instance(0.0, c=(-1.0, 4.0))
        with pytest.raises(UnboundedProblemError):
            minimize_dual(inst)

    def test_threshold_breakpoint_scan(self):
        inst = Instance(n=1,
                        edges=(Edge(HalfLineEdge(2.0), (0,), fee=2.0),
                               Edge(HalfLineEdge(3.0), (0,), fee=3.0)),
                        utility=ThresholdUtility(5.0))
        state = minimize_dual(inst)
        assert state.nu == pytest.approx([1.0])
        assert state.g == pytest.approx(-5.0)
        assert all(state.tied)

    @pytest.mark.parametrize("caps, fees", [((2.0,), (0.0,)), ((2.0, 3.0), (0.0, 1.0))],
                             ids=["one_edge", "fee_edge_idle"])
    def test_threshold_minimized_at_price_zero(self, caps, fees):
        # the zero-fee half line meets b = 1 at price 0, where its kernel's
        # maximizer is 0; the state takes its cap, so recovery meets b
        inst = Instance(n=1, edges=tuple(Edge(HalfLineEdge(cap), (0,), fee=fee)
                                         for cap, fee in zip(caps, fees)),
                        utility=ThresholdUtility(1.0))
        state = minimize_dual(inst)
        assert state.nu.tolist() == [0.0] and state.gradient.tolist() == [1.0]
        report = solve(inst)
        assert report.primal_value == report.dual_value == report.gap == 0.0
        assert report.y_hat.tolist() == [2.0]
        assert report.activations.tolist() == [-1.0] + [0.0] * (len(caps) - 1)
        optimum = brute_force_optimum(inst)
        assert optimum.value == report.primal_value and optimum.pattern == (0,)

    def test_threshold_infeasible(self):
        inst = Instance(n=1, edges=(Edge(HalfLineEdge(2.0), (0,), fee=2.0),),
                        utility=ThresholdUtility(5.0))
        with pytest.raises(InfeasibleProblemError):
            minimize_dual(inst)


def assert_certificate_sound(inst, state):
    """The state's certificate, recomputed with numpy: every (flow,
    activation) lies in its edge's clipped cone, the value is U at the net
    flow capped at c / mu plus the activation-weighted fees, and it closes
    the gap at ``state``."""
    cert = state.certificate
    assert len(cert.flows) == len(cert.activations) == inst.m
    y, fees = np.zeros(inst.n), 0.0
    for i, (edge, flow, lam) in enumerate(zip(inst.edges, cert.flows, cert.activations)):
        x = np.asarray(flow, dtype=float)
        assert -1.0 <= lam <= 0.0
        assert ClippedCone(FlowCone(edge.flow_set)).contains(np.append(x, lam)), (i, x, lam)
        y += dense_selector(edge.nodes, inst.n) @ x
        fees += edge.fee * lam
    utility = inst.utility
    value = utility.value(np.minimum(y, utility.c / utility.mu)) + fees
    assert cert.value == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert state.g - cert.value <= GAP_TOL * (1.0 + abs(state.g))


def mixed_tick_instance():
    """The n = 4 instance of a tick, a product market, a half line and a
    rational capped edge plus a tick: both ticks put kinks in the dual."""
    edges = (
        Edge(LinearTickEdge(price=1.772975064933159, cap=0.8813867412336212), (0, 2),
             fee=0.13353260399627517),
        Edge(ProductMarketEdge([4.929869302065558, 3.422840342999278]), (2, 3),
             fee=0.35638638886057944),
        Edge(HalfLineEdge(1.8693446728950311), (3,), fee=0.3607992800487482),
        Edge(minkowski_sum(CappedConcaveEdge(capacity=1.3694105864544994),
                           LinearTickEdge(price=1.1393097350289345, cap=1.4255861616743155)),
             (2, 3), fee=0.29285411304192493))
    utility = QuadraticUtility([0.6707874916489275, 0.6107978187748119,
                                1.1514115192608916, 1.0896623719520488], 0.44609480414327407)
    return Instance(n=4, edges=edges, utility=utility)


# each fee-free pattern's minimized dual from the solver that stopped on the
# projected gradient alone (9 of them ended nonconverged), by mask
PATTERN_DUALS = {
    1: 0.5081901701139259, 2: 0.07564133145578453, 3: 0.5396312904446214,
    4: 1.2575266662608373, 5: 1.7657168363747695, 6: 1.7939262728788241,
    7: 1.9184104514775764, 8: 0.003955204946360454, 9: 0.7923239350593545,
    10: 0.2792813050484171, 11: 0.962480256808496, 12: 1.2575266662608373,
    13: 1.7657168363747306, 14: 1.7955377655944957, 15: 1.9414678238898315}


class TestGapCertificate:
    def test_kinked_patterns_end_certified(self):
        inst = mixed_tick_instance()
        free = replace(inst, edges=tuple(replace(e, fee=0.0) for e in inst.edges))
        stops = set()
        for mask, before in PATTERN_DUALS.items():
            sub = replace(free, edges=tuple(e for i, e in enumerate(free.edges) if mask >> i & 1))
            state = _minimize(inst.utility, _program(sub.edges), SolverOptions())
            stops.add(state.stop)
            assert state.converged and state.stop in ("grad", "gap"), mask
            assert state.g <= before + GAP_TOL * (1.0 + abs(before)), mask
            if state.stop == "gap":
                assert_certificate_sound(sub, state)
        assert stops == {"grad", "gap"}

    def test_fee_instance_ends_certified(self):
        # the fees add kinks to the ticks': before, the line search gave up
        # at g = 1.3170369321883737, 4e-8 above the optimum
        inst = mixed_tick_instance()
        state = minimize_dual(inst)
        assert state.stop == "gap" and state.converged
        assert_certificate_sound(inst, state)
        assert state.g <= 1.3170369321883737
        report = solve(inst)
        assert report.stop == "gap" and report.converged

    def test_certificate_adopts_the_primal_points_price(self, monkeypatch):
        # a fee-free tick from node 0 to node 1 and a half line at node 1:
        # the first step idles the tick, a kernel kink against its flow at
        # the start.  The best point, the half line's supply of 1 alone, is
        # worth P = 1.375, short of g = 1.4238 at the iterate, and closes
        # the gap at its own price nu' = max(c - mu * y, 0) = (1, 1.25)
        inst = Instance(n=2, edges=(Edge(LinearTickEdge(price=0.75, cap=0.5), (0, 1)),
                                    Edge(HalfLineEdge(1.0), (1,))),
                        utility=QuadraticUtility([1.0, 1.5], 0.25))
        iterates = []
        certify = solver._certify

        def recorded(utility, program, state, bundle):
            iterates.append(state)
            return certify(utility, program, state, bundle)

        monkeypatch.setattr(solver, "_certify", recorded)
        state = minimize_dual(inst)
        iterate = iterates[-1]  # the last accepted iterate
        assert state.stop == "gap" and state.iterations == 1
        assert state.nu.tolist() != iterate.nu and state.g < iterate.g
        assert state.trace[-2:] == [iterate.g, state.g]
        y = sum(dense_selector(edge.nodes, inst.n) @ np.asarray(flow)
                for edge, flow in zip(inst.edges, state.certificate.flows))
        assert state.nu.tolist() == pytest.approx(np.maximum(inst.utility.c - 0.25 * y, 0.0))
        assert state.nu.tolist() == pytest.approx([1.0, 1.25])
        assert_certificate_sound(inst, state)

    def test_random_fee_instances_are_sound(self, rng):
        stops = []
        for _ in range(12):
            inst = random_instance(rng, n_max=5, m_max=8)
            state = minimize_dual(inst)
            stops.append(state.stop)
            if state.stop == "gap":
                assert_certificate_sound(inst, state)
            else:
                assert state.certificate is None
        assert stops.count("gap") >= 3

    def test_fee_free_smooth_instances_keep_their_trajectory(self):
        # no edge of a product-market instance without fees has an
        # alternative, so a certificate is the iterate's own choices: it
        # can only end the reference's trajectory early
        stops = []
        for seed in range(12):
            rng = np.random.default_rng(seed)
            inst = smooth_market_instance(rng, int(rng.integers(3, 11)))
            state = minimize_dual(inst)
            _, _, ref_iterations, ref_converged = lbfgs_reference(inst)
            stops.append(state.stop)
            if state.stop == "gap":
                assert_certificate_sound(inst, state)
                assert state.certificate.activations == [-1.0] * inst.m
                assert state.iterations <= ref_iterations
            else:
                assert state.certificate is None
                assert state.stop == ("grad" if ref_converged else "line_search")
        assert "gap" in stops

    def test_certified_values_stay_at_or_below_the_best_known_dual(self, rng):
        # weak duality: P <= g at every price, so a certificate's P is at
        # or below the lower of the two solvers' duals, up to rounding
        # (1e-12 relative); a fee term with the wrong sign raises P above
        # it by far more on the fee cells
        cells = [gen_bench_instance(BenchConfig(n=10, mu=0.01, q0=q0, seed=seed))
                 for q0 in (0.0, 0.01, 1.0) for seed in range(3)]
        cells += [smooth_market_instance(np.random.default_rng(seed), 3 + seed % 8)
                  for seed in range(12)]
        cells += [random_instance(rng, n_max=5, m_max=8) for _ in range(12)]
        certified = 0
        for inst in cells:
            state = minimize_dual(inst)
            if state.stop != "gap":
                continue
            best = min(state.g, lbfgs_reference(inst)[1])
            assert state.certificate.value <= best + 1e-12 * (1.0 + abs(best))
            certified += 1
        assert certified >= 10

    def test_exact_paths_and_report(self):
        assert minimize_dual(capped_instance(0.5)).stop == "exact"
        inst = Instance(n=1, edges=(Edge(HalfLineEdge(2.0), (0,), fee=2.0),),
                        utility=ThresholdUtility(1.0))
        assert solve(inst).stop == "exact"
        report = solve(capped_instance(0.0, c=(0.0, 4.0), mu=1.0))
        assert report.stop == "grad" and report.converged
        capped = solve(capped_instance(0.0, c=(0.0, 4.0), mu=1.0), SolverOptions(max_iter=1))
        assert capped.stop == "max_iter" and not capped.converged


class TestRecoverPrimal:
    def test_active_edge_recovery(self):
        inst = capped_instance(0.5)
        report = solve(inst)
        assert report.y_hat == pytest.approx([-1.0, 0.5])
        assert report.primal_value == pytest.approx(0.5)
        assert report.gap == pytest.approx(0.0, abs=1e-12)
        assert report.activations == pytest.approx([-1.0])

    def test_inactive_edge_recovery(self):
        report = solve(capped_instance(2.0))
        assert report.y_hat == pytest.approx([0.0, 0.0])
        assert report.primal_value == pytest.approx(0.0)

    def test_tie_enumeration_keeps_better_branch(self):
        # fee exactly equal to the support value at nu = c: both activation
        # choices are dual optimal and give the same primal value
        inst = capped_instance(1.0)
        report = solve(inst)
        assert report.tie_count == 1
        assert report.edge_tied == [True]
        assert report.primal_value == pytest.approx(0.0, abs=1e-12)
        assert report.gap == pytest.approx(0.0, abs=1e-12)

    def test_tie_cap_keeps_active_branch(self):
        # more tied edges than the enumeration cap: all stay active, though
        # two of them alone would meet the demand for less fee
        edges = tuple(Edge(HalfLineEdge(1.0), (0,), fee=1.0) for _ in range(MAX_TIE_ENUM + 1))
        inst = Instance(n=1, edges=edges, utility=ThresholdUtility(2.0))
        report = solve(inst)
        assert report.tie_count == MAX_TIE_ENUM + 1
        assert np.all(report.activations == -1.0)

    def test_weak_duality_in_report(self, rng):
        for _ in range(10):
            report = solve(random_instance(rng, n_max=5, m_max=8))
            assert report.primal_value <= report.dual_value + 1e-8 * (
                1 + abs(report.dual_value))


class TestTieEnumerationMatchesPerMaskLoop:
    """The one-pass enumeration picks what a per-pattern loop picks."""

    def assert_same(self, inst):
        state = minimize_dual(inst)
        report = recover_primal(state, inst)
        value, activations, y_hat, flows = recover_primal_reference(state, inst, MAX_TIE_ENUM)
        assert report.primal_value == pytest.approx(value, rel=1e-12, abs=1e-12)
        assert np.array_equal(report.activations, activations)
        assert report.y_hat == pytest.approx(y_hat, rel=1e-12, abs=1e-12)
        assert len(report.flows) == len(flows)
        for got, expected in zip(report.flows, flows):
            assert got.shape == expected.shape
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
        # recovery runs on floats inside; the report it returns holds numpy
        assert all(type(x) is np.ndarray for x in report.flows)
        for field in (report.activations, report.y_hat, report.nu):
            assert type(field) is np.ndarray and field.dtype == float
        return report

    def test_no_ties(self, rng):
        for _ in range(6):
            assert self.assert_same(random_instance(rng, n_max=5, m_max=8)).tie_count == 0

    def test_one_tie(self):
        assert self.assert_same(capped_instance(1.0)).tie_count == 1

    def test_several_ties_better_pattern_found(self, rng):
        # knapsacks: every item is tied at nu = 1 and the best subset is
        # usually not the base pattern of all items
        from convexflow.bench import gen_knapsack_instance

        for _ in range(8):
            weights = [int(w) for w in rng.integers(1, 21, size=int(rng.integers(3, 7)))]
            inst = gen_knapsack_instance(weights, int(rng.integers(1, sum(weights) + 1)))
            assert self.assert_same(inst).tie_count == len(weights)

    def test_several_equal_ties_keep_base_pattern(self):
        # fees equal to each tick's support at nu = c, in exact binary
        # arithmetic: every pattern is worth the same, so the base stays
        c = np.array([1.0, 2.0, 1.5])
        ticks = [(LinearTickEdge(price=1.0, cap=1.0), (0, 1)),
                 (LinearTickEdge(price=2.0, cap=0.5), (0, 2)),
                 (LinearTickEdge(price=2.0, cap=0.5), (1, 2))]
        edges = [Edge(t, nodes, fee=t.support(c[list(nodes)]).value) for t, nodes in ticks]
        edges.append(Edge(HalfLineEdge(1.0), (2,), fee=0.25))
        inst = Instance(n=3, edges=tuple(edges), utility=LinearUtility(c))
        report = self.assert_same(inst)
        assert report.tie_count == 3
        assert np.all(report.activations == -1.0)

    def test_more_ties_than_cap(self):
        from convexflow.bench import gen_knapsack_instance

        weights = list(range(2, MAX_TIE_ENUM + 3))  # one item more than the cap
        report = self.assert_same(gen_knapsack_instance(weights, 9))
        assert report.tie_count == len(weights)
        assert np.all(report.activations == -1.0)

    @pytest.mark.parametrize("q0", [0.0, 0.01, 1.0])
    def test_linear_routing_instances(self, q0):
        # the routing workload at mu = 0: one evaluation at nu = c, then
        # recovery over every product market
        from convexflow.bench import BenchConfig, gen_bench_instance, gen_knapsack_instance

        for seed in range(3):
            inst = gen_bench_instance(BenchConfig(n=10, mu=0.0, q0=q0, seed=seed))
            report = self.assert_same(inst)
            assert report.activations.size == inst.m == 25

    def test_unattained_maximizer_uses_the_fallback_point(self):
        # c_0 = 0: the first market's supremum at nu = c is approached only
        # in the limit, so its active flow is the fallback near-maximizer;
        # the tick's fee equals its support at nu = c, so it is tied
        c = [0.0, 1.0, 1.5]
        tick = LinearTickEdge(price=2.0, cap=0.5)
        edges = (Edge(ProductMarketEdge([2.0, 3.0]), (0, 1), fee=0.5),
                 Edge(ProductMarketEdge([4.0, 1.0]), (1, 2), fee=0.01),
                 Edge(tick, (1, 2), fee=tick.support(c[1:]).value))
        inst = Instance(n=3, edges=edges, utility=LinearUtility(c))
        state = minimize_dual(inst)
        assert state.active[0] and state.points[0] is not None
        assert edges[0].flow_set.kernel([0.0, 1.0])[1] is None
        report = self.assert_same(inst)
        assert report.tie_count == 1
        assert report.flows[0] == pytest.approx(state.points[0])


def priced_markets(rng, n, nu, fees):
    """One product market per entry of ``fees`` on random pairs of ``n``
    nodes, each entry a function of the market's support at the prices
    ``nu`` that gives its fee (the support itself is an exact tie)."""
    edges = []
    for fee_of in fees:
        market = ProductMarketEdge(rng.uniform(1.0, 100.0, size=2))
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        edges.append(Edge(market, (a, b), fee=float(fee_of(market.kernel([nu[a], nu[b]])[0]))))
    return edges


def assert_reports_bit_equal(got, expected):
    for name in ("dual_value", "primal_value", "gap", "rel_gap"):
        assert float(getattr(got, name)).hex() == float(getattr(expected, name)).hex(), name
    for name in ("activations", "y_hat", "nu"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert [x.tobytes() for x in got.flows] == [x.tobytes() for x in expected.flows]
    assert _bits(got.edge_values) == _bits(expected.edge_values)
    assert ((got.tie_count, got.iterations, got.stop, got.edge_tied)
            == (expected.tie_count, expected.iterations, expected.stop, expected.edge_tied))


class TestBlockRecovery:
    """Recovery from the arrays of a markets-only block's evaluation
    against the per-edge loop, which ``replace(state)`` takes (the copy
    drops the block), and against the per-pattern reference."""

    def assert_block_recovery(self, state, inst):
        assert state._block is not None
        looped = replace(state)
        assert looped._block is None and looped == state
        report = recover_primal(state, inst)
        looped_report = recover_primal(looped, inst)
        assert_reports_bit_equal(report, looped_report)
        # one (m, 2) float array, the report's own; its rows are arrays of
        # two floats, one per market
        flows = report.flows
        assert type(flows) is np.ndarray and flows.shape == (inst.m, 2) and flows.dtype == float
        assert not np.shares_memory(flows, state._block[0])
        assert len(report.flows) == inst.m
        assert all(type(x) is np.ndarray and x.shape == (2,) and x.dtype == float
                   for x in report.flows)
        assert not np.shares_memory(report.flows[0], state._block[0])
        # the document of the loop's list of rows, to the byte
        assert (json.dumps(report_to_document(report))
                == json.dumps(report_to_document(looped_report)))
        # the reference lays out the same flows and picks the same pattern;
        # it values each pattern and sums an enumerated pattern's net flow
        # in its own order, which rounds differently
        value, activations, y_hat, flows = recover_primal_reference(state, inst, MAX_TIE_ENUM)
        assert report.activations.tobytes() == activations.tobytes()
        assert [x.tobytes() for x in report.flows] == [x.tobytes() for x in flows]
        if 0 < report.tie_count <= MAX_TIE_ENUM:
            assert report.y_hat == pytest.approx(y_hat, rel=1e-12, abs=1e-12)
        else:
            assert report.y_hat.tobytes() == y_hat.tobytes()
        assert report.primal_value == pytest.approx(value, rel=1e-12, abs=1e-12)
        return report

    def priced_state(self, seed, fees, n=6):
        """The dual state at random prices.  The utility is small next to
        the fees, so that the primal value shows the fee sum's rounding."""
        rng = np.random.default_rng(seed)
        nu = rng.uniform(0.2, 1.5, size=n).tolist()
        edges = priced_markets(rng, n, nu, fees)
        inst = Instance(n=n, edges=tuple(edges), utility=QuadraticUtility([0.0] * n, 1e-6))
        return dual_value_and_gradient(inst, nu)[2], inst

    @pytest.mark.parametrize("m", [BATCH_MIN, BATCH_MIN + 13])
    @pytest.mark.parametrize("seed", range(3))
    def test_fee_free(self, seed, m):
        state, inst = self.priced_state(seed, [lambda support: 0.0] * m)
        report = self.assert_block_recovery(state, inst)
        assert report.tie_count == 0 and np.all(report.activations == -1.0)

    def test_negative_zero_fees(self):
        # at zero prices every market is active with no flow, and its fee
        # of -0.0 (a document may hold one) is summed from -0.0, not 0.0 as
        # in the loop: P = U - fees is 0.0 either way
        rng = np.random.default_rng(6)
        edges = priced_markets(rng, 4, [0.0] * 4, [lambda support: -0.0] * BATCH_MIN)
        inst = Instance(n=4, edges=tuple(edges), utility=QuadraticUtility([-1.0] * 4, 0.5))
        state = dual_value_and_gradient(inst, [0.0] * 4)[2]
        report = self.assert_block_recovery(state, inst)
        assert np.all(report.activations == -1.0) and report.primal_value.hex() == "0x0.0p+0"

    @pytest.mark.parametrize("seed", range(4))
    def test_fees_leave_markets_inactive(self, seed):
        # fees from 1e-5 to 1.5 times the support: the fee sum rounds
        # differently in any other order
        rng = np.random.default_rng(100 + seed)
        scales = rng.permutation(np.concatenate([np.exp(rng.uniform(-12.0, 0.0, size=40)),
                                                 rng.uniform(0.5, 1.5, size=40)]))
        state, inst = self.priced_state(seed, [lambda support, k=k: k * support for k in scales])
        report = self.assert_block_recovery(state, inst)
        assert report.tie_count == 0
        assert 0 < np.count_nonzero(report.activations) < inst.m
        for x, lam in zip(report.flows, report.activations):
            assert lam == -1.0 or x.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("ties", [1, 5, MAX_TIE_ENUM, MAX_TIE_ENUM + 1, MAX_TIE_ENUM + 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_ties(self, seed, ties):
        rng = np.random.default_rng(200 + seed)
        fees = ([lambda support: support] * ties
                + [lambda support, k=k: k * support for k in rng.uniform(0.5, 1.5, size=BATCH_MIN)])
        state, inst = self.priced_state(seed, fees)
        report = self.assert_block_recovery(state, inst)
        assert report.tie_count == ties
        if ties > MAX_TIE_ENUM:  # beyond the cap every tied market stays active
            assert np.all(report.activations[:ties] == -1.0)

    def test_routing_tie_deactivates_a_market(self):
        # a routing cell whose best pattern drops tied market 44, which the
        # dual state holds active with its maximizer
        inst = gen_bench_instance(BenchConfig(n=17, mu=1e-2, q0=1.0, seed=1))
        state = minimize_dual(inst)
        report = self.assert_block_recovery(state, inst)
        dropped = [i for i, tied in enumerate(state.tied)
                   if tied and report.activations[i] == 0.0]
        assert dropped == [44]
        assert state.active[44] and any(state.points[44])
        assert type(report.flows[44]) is np.ndarray and report.flows[44].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("q0", [0.0, 0.01, 1.0])
    def test_linear_routing_instances(self, q0):
        # the routing_linear_docs path: one evaluation at nu = c
        for seed in range(2):
            inst = gen_bench_instance(BenchConfig(n=28, mu=0.0, q0=q0, seed=seed))
            self.assert_block_recovery(minimize_dual(inst), inst)

    def test_lbfgs_state_with_a_zero_price(self):
        # c_0 far below 0 holds node 0's price at 0, where the markets on it
        # have no maximizer: the active ones take the fallback point and the
        # inactive ones keep none
        rng = np.random.default_rng(3)
        pairs = [(0, 1), (0, 2)] * 3 + [tuple(int(v) for v in rng.choice(np.arange(1, 5), 2,
                                                                          replace=False))
                                        for _ in range(BATCH_MIN - 2)]
        edges = tuple(Edge(ProductMarketEdge(rng.uniform(1.0, 10.0, size=2)), pair,
                           fee=float(rng.choice([0.0, 5.0, 50.0]))) for pair in pairs)
        inst = Instance(n=5, edges=edges,
                        utility=QuadraticUtility([-1e9, 1.0, 1.5, 0.8, 1.2], 1.0))
        state = minimize_dual(inst)
        assert state.nu[0] == 0.0 and state.stop in ("grad", "gap")
        zero_priced = [(state.active[i], state.points[i]) for i in range(6)]
        assert any(on and point is not None for on, point in zero_priced)
        assert any(not on and point is None for on, point in zero_priced)
        self.assert_block_recovery(state, inst)

    def test_block_that_is_not_finite_is_left_to_the_loop(self):
        # an infinite price overflows a market's support: the loop stops at
        # the first infinite term and the state keeps no block
        rng = np.random.default_rng(4)
        edges = priced_markets(rng, 4, [1.0] * 4, [lambda support: 0.0] * BATCH_MIN)
        program = _program(edges)
        assert program.block is not None
        prices = [math.inf, 1.0, 1.0, 1.0]
        state = _evaluate(FixedConjugate(0.0, None), program, prices)
        assert state.g == math.inf and state._block is None
        looped = _evaluate(FixedConjugate(0.0, None), list(program), prices)
        for name in ("values", "points", "active", "tied"):
            assert _bits(getattr(state, name)) == _bits(getattr(looped, name)), name

    def test_program_with_a_half_line_takes_the_loop(self):
        rng = np.random.default_rng(5)
        c = rng.uniform(0.5, 1.5, size=5)
        edges = priced_markets(rng, 5, c, [lambda support: 0.5 * support] * BATCH_MIN)
        edges.insert(7, Edge(HalfLineEdge(2.0), (3,), fee=0.1))
        inst = Instance(n=5, edges=tuple(edges), utility=LinearUtility(c))
        assert type(_program(inst.edges)) is list
        state = minimize_dual(inst)
        assert state._block is None
        report = recover_primal(state, inst)
        value, activations, y_hat, flows = recover_primal_reference(state, inst, MAX_TIE_ENUM)
        assert report.activations.tobytes() == activations.tobytes()
        assert [x.tobytes() for x in report.flows] == [x.tobytes() for x in flows]
        assert report.flows[7].shape == (1,) and report.activations[7] == -1.0
        assert report.y_hat.tobytes() == y_hat.tobytes()
        assert report.primal_value == pytest.approx(value, rel=1e-12, abs=1e-12)

    def test_equality_and_repr_ignore_the_block(self):
        inst = gen_bench_instance(BenchConfig(n=10, mu=0.0, q0=0.01, seed=0))
        inst = replace(inst, edges=inst.edges * 2)  # 50 markets
        state = minimize_dual(inst)
        assert state._block is not None
        looped = replace(state)
        assert looped == state and repr(looped) == repr(state)
        assert "_block" not in repr(state)


class TestVerifyOptimality:
    def test_zero_gap_is_optimal(self):
        assert verify_optimality(solve(capped_instance(0.5))).status == "optimal"

    def test_irreducible_gap_certified_within_fee_bound(self):
        # relaxation reaches -b = -4 but the best subset sums to 5
        from convexflow.bench import gen_knapsack_instance

        inst = gen_knapsack_instance([2, 3], 4)
        report = solve(inst)
        result = verify_optimality(report, tol=1e-8)
        assert result.status == "gap_certified"
        lower, upper = result.bracket
        assert lower == pytest.approx(-5.0) and upper == pytest.approx(-4.0)
        assert upper - lower <= (inst.n + 1) * inst.max_fee() + 1e-9

    def test_no_finite_primal_is_unknown(self):
        report = SolveReport(dual_value=1.0, primal_value=-math.inf, flows=[],
                             activations=np.zeros(0), y_hat=np.zeros(1),
                             nu=np.zeros(1), gap=math.inf, rel_gap=math.inf,
                             tie_count=0, iterations=1)
        assert verify_optimality(report).status == "unknown"

    def test_fee_free_quadratic_is_optimal(self, rng):
        inst = random_instance(rng, n_max=5, m_max=6, fee_range=(0.0, 0.0))
        report = solve(inst)
        assert verify_optimality(report, tol=1e-6).status == "optimal"


class TestInvariants:
    def test_gradient_matches_central_differences(self, rng):
        checked = 0
        while checked < 30:
            inst = random_instance(rng)
            nu = rng.uniform(0.2, 2.0, size=inst.n)
            g, grad, state = dual_value_and_gradient(inst, nu)
            # tie-free points only: the dual is differentiable there
            if min(abs(v - e.fee) for v, e in zip(state.values, inst.edges)) <= 1e-4:
                continue
            numeric = central_difference(
                lambda v: dual_value_and_gradient(inst, v)[0], nu)
            scale = max(1.0, float(np.abs(grad).max()))
            assert np.abs(grad - numeric).max() <= 1e-5 * scale
            checked += 1

    def test_dual_convex_along_lines(self, rng):
        inst = random_instance(rng, n_max=5, m_max=8)
        for _ in range(40):
            nu1 = rng.uniform(0.0, 2.0, size=inst.n)
            nu2 = rng.uniform(0.0, 2.0, size=inst.n)
            theta = rng.uniform()
            g1 = dual_value_and_gradient(inst, nu1)[0]
            g2 = dual_value_and_gradient(inst, nu2)[0]
            gm = dual_value_and_gradient(inst, theta * nu1 + (1 - theta) * nu2)[0]
            assert gm <= theta * g1 + (1 - theta) * g2 + 1e-9 * (1 + abs(g1) + abs(g2))

    def test_edge_records_independent_of_order(self, rng):
        inst = random_instance(rng, n_max=5, m_max=8)
        nu = rng.uniform(0.1, 2.0, size=inst.n)
        _, _, state = dual_value_and_gradient(inst, nu)
        perm = rng.permutation(inst.m)
        shuffled = Instance(n=inst.n, edges=tuple(inst.edges[i] for i in perm),
                            utility=inst.utility)
        _, _, state2 = dual_value_and_gradient(shuffled, nu)
        for k, i in enumerate(perm):
            assert state.values[i] == state2.values[k]
            assert state.active[i] == state2.active[k]
            assert state.points[i] == state2.points[k]

    def test_repeat_evaluation_bit_identical(self, rng):
        inst = random_instance(rng)
        nu = rng.uniform(0.1, 2.0, size=inst.n)
        g1, grad1, _ = dual_value_and_gradient(inst, nu)
        g2, grad2, _ = dual_value_and_gradient(inst, nu)
        assert g1 == g2 and np.array_equal(grad1, grad2)


def test_report_document_schema():
    doc = report_to_document(solve(capped_instance(0.5)))
    assert set(doc) == {"objective_dual", "objective_primal", "gap", "nu", "edges"}
    assert doc["edges"][0]["lambda"] == -1.0
    assert doc["edges"][0]["value"] == pytest.approx(1.0)
    assert doc["edges"][0]["tied"] is False


def test_report_document_writes_python_types():
    # a report built by hand with (m, 2) flows and numpy values and ties
    # still makes a document a JSON writer takes
    report = SolveReport(dual_value=np.float64(1.0), primal_value=1.0,
                         flows=np.array([[1.0, -2.0], [0.0, 0.0]]),
                         activations=np.array([-1.0, 0.0]), y_hat=np.array([1.0, -2.0]),
                         nu=np.array([1.0, 1.0]), gap=0.0, rel_gap=0.0, tie_count=0,
                         iterations=0, edge_values=np.array([0.5, 0.0]),
                         edge_tied=np.array([True, False]))
    doc = json.loads(json.dumps(report_to_document(report)))
    assert doc["edges"] == [{"x": [1.0, -2.0], "lambda": -1.0, "value": 0.5, "tied": True},
                            {"x": [0.0, 0.0], "lambda": 0.0, "value": 0.0, "tied": False}]


class TestTiePass:
    """Recovery values the tie patterns with one product, the base net flow
    and fee riding as a last row under an all-ones column; the two-step
    formula (product, then the base added) gives the same bits."""

    def assert_tie_pass(self, state, inst):
        report = recover_primal(state, inst)
        value, activations, y_hat = tie_pass_reference(state, inst, MAX_TIE_ENUM)
        assert report.primal_value.hex() == value.hex()
        assert report.activations.tobytes() == activations.tobytes()
        assert report.y_hat.tobytes() == y_hat.tobytes()
        return report

    @pytest.mark.parametrize("t", range(1, MAX_TIE_ENUM + 1))
    def test_patterns(self, t):
        bits = _tie_patterns(t)
        assert bits.shape == (2 ** t, t + 1) and bits.dtype == float
        assert np.all(bits[:, t] == 1.0)
        assert all(bits[k, :t].tolist() == [float(k >> j & 1) for j in range(t)]
                   for k in range(2 ** t))
        assert not bits.flags.writeable
        assert _tie_patterns(t) is bits

    @pytest.mark.parametrize("batched", [False, True], ids=["plain", "batched"])
    @pytest.mark.parametrize("t", range(1, MAX_TIE_ENUM + 1))
    def test_random_priced_markets(self, t, batched):
        # t markets whose fee is their support at the prices (non-integer
        # exact ties) among markets with fees apart from theirs
        for seed in range(2):
            rng = np.random.default_rng([300, t, seed])
            n = int(rng.integers(2, 6))
            nu = rng.uniform(0.2, 1.5, size=n).tolist()
            others = (BATCH_MIN if batched else 0) + int(rng.integers(0, 6))
            fees = ([lambda support: support] * t
                    + [lambda support, k=k: k * support for k in rng.uniform(0.5, 1.5, size=others)])
            edges = priced_markets(rng, n, nu, fees)
            edges = [edges[i] for i in rng.permutation(len(edges))]
            inst = Instance(n=n, edges=tuple(edges),
                            utility=QuadraticUtility(rng.uniform(-1.0, 1.0, size=n),
                                                     float(rng.uniform(1e-3, 1.0))))
            state = dual_value_and_gradient(inst, nu)[2]
            assert (state._block is not None) == batched
            assert self.assert_tie_pass(state, inst).tie_count == t

    @pytest.mark.filterwarnings("error")
    def test_sums_that_overflow(self):
        # two items of 10^308: the flow and fee sums of the full pattern
        # overflow to inf, which the pass takes as it comes, quietly
        inst = gen_knapsack_instance([10 ** 308, 10 ** 308], 10 ** 308)
        state = minimize_dual(inst)
        report = self.assert_tie_pass(state, inst)
        assert report.tie_count == 2
        assert report.primal_value == -1e308 and report.activations.tolist().count(-1.0) == 1


class TestRecoveryRefusesNonFiniteDual:
    """A dual state whose g is not finite has no primal point to recover."""

    def test_infinite_edge_term(self):
        # the supply 10 at price 1e308 overflows, so the evaluation stops at
        # this edge, active with no point
        inst = Instance(n=1, edges=(Edge(HalfLineEdge(10.0), (0,), fee=1.0),),
                        utility=ThresholdUtility(0.5))
        state = dual_value_and_gradient(inst, [1e308])[2]
        assert state.g == math.inf and state.active == [True] and state.points == [None]
        with pytest.raises(ValueError, match="g = inf"):
            recover_primal(state, inst)

    def test_nan_price(self):
        inst = capped_instance(0.5, mu=0.3)
        state = dual_value_and_gradient(inst, [math.nan, 1.0])[2]
        assert not math.isfinite(state.g)
        with pytest.raises(ValueError, match="g = inf"):
            recover_primal(state, inst)
        with pytest.raises(ValueError, match="g = nan"):
            recover_primal(replace(minimize_dual(inst), g=math.nan), inst)


# the benchmark's mixed fee instance of one market, one half line and two
# capped edges
FEE_KINDS = ("capped_rational", "capped_piecewise", "product_market", "half_line")
MARKETS_196 = model.dumps(gen_bench_instance(BenchConfig(n=28, mu=0.0, q0=0.01, seed=1)))
# builders of fresh instances: threshold, quadratic and linear fee
# instances, and 196 markets as a loaded document's columns and as a tuple
FRESH = {"knapsack": lambda: gen_knapsack_instance([3, 5, 7, 11, 13], 19),
         "mixed": lambda: mixed_instance(np.random.default_rng(3), 3, FEE_KINDS),
         "capped_linear": lambda: capped_instance(0.5),
         "columns": lambda: model.loads(MARKETS_196),
         "tuple": lambda: gen_bench_instance(BenchConfig(n=28, mu=0.0, q0=0.01, seed=1))}
SMALL = ("knapsack", "mixed", "capped_linear")


def _counted(name):
    """A mock that counts the calls of solver's ``name`` and passes them on."""
    return mock.patch.object(solver, name, wraps=getattr(solver, name))


class TestCompiledProgram:
    """Each instance's program is compiled once, on its first use, and kept
    on the instance for every later solve, conic solve, dual evaluation and
    brute force."""

    @pytest.mark.parametrize("name", SMALL)
    def test_one_compile_across_entry_points(self, name):
        inst = FRESH[name]()
        with _counted("_program") as compile_, _counted("_unit_supplies") as supplies:
            solve(inst)
            solve_conic(conic_rewrite(inst))
            brute_force_optimum(inst)
            for price in (0.5, 1.0, 2.0):
                dual_value_and_gradient(inst, [price] * inst.n)
            minimize_dual(inst)
            solve(inst)
        assert compile_.call_count == 1
        # the threshold scan's unit supplies are kept with the program
        assert supplies.call_count == (1 if name == "knapsack" else 0)

    def test_replaced_instance_compiles_anew(self):
        inst = FRESH["knapsack"]()
        solve(inst)
        kept = inst._compiled["program"]
        for changes, fresh in (
                ({"utility": ThresholdUtility(25.0)},
                 gen_knapsack_instance([3, 5, 7, 11, 13], 25)),
                ({"edges": inst.edges[1:]}, gen_knapsack_instance([5, 7, 11, 13], 19))):
            other = replace(inst, **changes)
            assert other._compiled == {}
            with _counted("_program") as compile_:
                report = solve(other)
            assert compile_.call_count == 1 and other._compiled["program"] is not kept
            assert_reports_bit_equal(report, solve(fresh))
        assert inst._compiled["program"] is kept

    @pytest.mark.parametrize("name", sorted(FRESH))
    def test_reports_equal_a_fresh_instances(self, name):
        inst = FRESH[name]()
        for _ in range(3):
            assert_reports_bit_equal(solve(inst), solve(FRESH[name]()))
            assert_reports_bit_equal(solve_conic(conic_rewrite(inst)),
                                     solve_conic(conic_rewrite(FRESH[name]())))
            # at c, where a linear utility's dual is finite
            nu = getattr(inst.utility, "c", np.ones(inst.n))
            got, expected = (dual_value_and_gradient(instance, nu)[2]
                             for instance in (inst, FRESH[name]()))
            for field_name in ("g", "values", "points", "active", "tied"):
                assert _bits(getattr(got, field_name)) == _bits(getattr(expected, field_name))
            assert got.gradient.tobytes() == expected.gradient.tobytes()
            if name in SMALL:
                got, expected = brute_force_optimum(inst), brute_force_optimum(FRESH[name]())
                assert ((got.value.hex(), got.pattern, got.evaluated)
                        == (expected.value.hex(), expected.pattern, expected.evaluated))

    @pytest.mark.parametrize("name", ["knapsack", "columns"])
    def test_solved_instance_pickles_and_copies(self, name):
        inst = FRESH[name]()
        report = solve(inst)
        kept = inst._compiled["program"]
        for copied in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst), copy.copy(inst)):
            assert copied._compiled == {} and type(copied.edges) is type(inst.edges)
            assert model.dumps(copied) == model.dumps(inst)
            assert_reports_bit_equal(solve(copied), report)
            assert copied._compiled["program"] is not kept
        assert copy.copy(inst) == inst  # the same edges and utility
        assert inst._compiled["program"] is kept

    def test_threads_share_one_program(self):
        # 8 threads race to compile and solve each of 20 rounds of two shared
        # instances, a knapsack and 196 markets: every thread takes the one
        # program stored first, and every report is the serial solve's
        rounds = [(FRESH["knapsack"](), FRESH["columns"]()) for _ in range(20)]
        expected = [solve(FRESH["knapsack"]()), solve(FRESH["columns"]())]
        optimum = brute_force_optimum(FRESH["knapsack"]())
        programs, reports, errors = [], [], []
        together = threading.Barrier(8)

        def work():
            try:
                for shared in rounds:
                    together.wait(timeout=30)  # all 8 meet each first compile
                    for k, inst in enumerate(shared):
                        programs.append((inst, solver._compiled(inst)))
                        reports.append((k, solve(inst)))
                    reports.append((2, brute_force_optimum(shared[0])))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(programs) == 8 * 20 * 2 and len(reports) == 8 * 20 * 3
        for inst, program in programs:
            assert program is inst._compiled["program"]
        for k, report in reports:
            if k == 2:
                assert report == optimum
            else:
                assert_reports_bit_equal(report, expected[k])
