import math
from dataclasses import replace

import numpy as np
import pytest

from convexflow import solver
from convexflow.bench import gen_knapsack_instance
from convexflow.calculus import (aggregate, intersection, lift, minkowski_sum,
                                 nonneg_matrix_image, scale)
from convexflow.conic import ClippedCone, FlowCone
from convexflow.errors import EnumerationBudgetError, UnboundedProblemError
from convexflow.fees import brute_force_optimum, gap_bounds, q_membership, round_relaxation
from convexflow.model import (Edge, Instance, LinearUtility, QuadraticUtility,
                              ThresholdUtility)
from convexflow.sets import (CappedConcaveEdge, FlowSet, HalfLineEdge, LinearTickEdge,
                             ProductMarketEdge, as_vector, scaled_tol, support_from_kernel)
from convexflow.solver import SolverOptions, solve

from conftest import MIXED_KINDS, builtin_families, mixed_instance
from oracles import (brute_force_patterns, brute_force_reference, q_membership_reference,
                     round_relaxation_reference, sample_members, subset_sum_reachable)


class BelowHalfLine(FlowSet):
    """{z : z <= cap} for a cap below 0: a set without 0, so its supply at
    unit price, the cap, is negative."""

    dim = 1
    unique_maximizer = True

    def __init__(self, cap: float):
        self.cap = cap
        self.upper_bound = np.array([cap])

    def contains(self, x, tol: float = 1e-9) -> bool:
        return as_vector(x, 1)[0] <= self.cap + scaled_tol(tol, self.cap)

    def support(self, price):
        return support_from_kernel(self, price)

    def kernel(self, xi):
        return xi[0] * self.cap, (self.cap,)


def threshold_instance(caps, fees, b):
    """One node, one half-line edge per cap (a ``BelowHalfLine`` for a
    negative cap), and a threshold utility with target b."""
    edges = tuple(Edge(HalfLineEdge(cap) if cap >= 0.0 else BelowHalfLine(cap), (0,), fee=fee)
                  for cap, fee in zip(caps, fees))
    return Instance(n=1, edges=edges, utility=ThresholdUtility(b))


def capped_fee_instance(fee):
    return Instance(n=2, edges=(Edge(CappedConcaveEdge(capacity=1.0), (0, 1),
                                     fee=fee),), utility=LinearUtility([1.0, 4.0]))


class TestQMembership:
    def test_zero_point(self):
        assert q_membership(CappedConcaveEdge(capacity=1.0), [0.0, 0.0], 0.0)

    def test_active_member(self):
        assert q_membership(CappedConcaveEdge(capacity=1.0), [-1.0, 0.5], -1.0)

    def test_fractional_activation_rejected(self):
        assert not q_membership(CappedConcaveEdge(capacity=1.0), [-0.5, 0.25], -0.5)

    def test_active_nonmember_rejected(self):
        assert not q_membership(CappedConcaveEdge(capacity=1.0), [-1.0, 0.6], -1.0)

    def test_zero_activation_with_flow_rejected(self):
        assert not q_membership(CappedConcaveEdge(capacity=1.0), [-0.5, 0.0], 0.0)


class TestRounding:
    def three_edge_instance(self):
        return Instance(
            n=2,
            edges=tuple(Edge(CappedConcaveEdge(capacity=1.0), (0, 1), fee=1.0)
                        for _ in range(3)),
            utility=LinearUtility([1.0, 4.0]))

    def test_rule_application(self):
        inst = self.three_edge_instance()
        # second point is 0.4 * (boundary point, -1): activation -0.4
        points = [(np.array([-1.0, 0.5]), -1.0),
                  (np.array([-0.4, 0.2]), -0.4),
                  (np.array([0.0, 0.0]), 0.0)]
        rounded = round_relaxation(inst, points)
        assert rounded.activations == pytest.approx([-1.0, -1.0, 0.0])
        assert rounded.fee_delta == pytest.approx(0.6)

    def test_integral_input_unchanged(self):
        inst = self.three_edge_instance()
        points = [(np.array([-1.0, 0.5]), -1.0),
                  (np.array([0.0, 0.0]), 0.0),
                  (np.array([0.0, 0.0]), 0.0)]
        rounded = round_relaxation(inst, points)
        assert rounded.fee_delta == 0.0
        assert rounded.activations == pytest.approx([-1.0, 0.0, 0.0])

    def test_fractional_point_pushed_down(self):
        inst = capped_fee_instance(1.0)
        rounded = round_relaxation(inst, [(np.array([-0.5, 0.25]), -0.5)])
        assert rounded.activations == pytest.approx([-1.0])
        assert q_membership(inst.edges[0].flow_set, rounded.flows[0],
                            rounded.activations[0])

    def test_net_flow_unchanged_by_rounding(self, rng):
        inst = self.three_edge_instance()
        members = sample_members(inst.edges[0].flow_set, rng, 3)
        lams = [-1.0, -0.37, -0.9]
        points = [((-lam) * np.asarray(t), lam) for t, lam in zip(members, lams)]
        before = sum(p[0] for p in points)
        rounded = round_relaxation(inst, points)
        assert sum(rounded.flows) == pytest.approx(before)

    def test_point_outside_clipped_cone_rejected(self):
        inst = capped_fee_instance(1.0)
        with pytest.raises(ValueError):
            round_relaxation(inst, [(np.array([-1.0, 0.8]), -1.0)])

    def test_nan_input_rejected(self):
        # max(0.0, nan) is 0.0: read as no input, the point would be kept
        # and give an objective of nan
        inst = Instance(n=2, edges=(Edge(CappedConcaveEdge(capacity=1.0), (0, 1)),),
                        utility=LinearUtility([1.0, 4.0]))
        with pytest.raises(ValueError, match="not in the clipped cone"):
            round_relaxation(inst, [([math.nan, 0.0], -1)])

    def test_rounding_feasibility_sampled(self, rng):
        # clipped-cone samples from every built-in family land in Q
        for name, the_set in builtin_families().items():
            inst = Instance(n=the_set.dim,
                            edges=(Edge(the_set, tuple(range(the_set.dim)), fee=0.3),),
                            utility=LinearUtility(np.ones(the_set.dim)))
            for t in sample_members(the_set, rng, 40):
                lam = rng.uniform(0.0, 1.0)
                rounded = round_relaxation(inst, [(lam * np.asarray(t), -lam)])
                assert q_membership(the_set, rounded.flows[0],
                                    rounded.activations[0], 1e-7), name


class TestRoundingTestsQFirst:
    """A point in Q_i is kept without meeting the clipped cone; the points
    whose outcome that changes lie in Q_i within the tolerance but not in
    the cone's, and were refused before."""

    def test_half_line_point_within_tolerance_is_kept(self):
        inst = Instance(n=1, edges=(Edge(HalfLineEdge(0.5), (0,), fee=1.0),),
                        utility=LinearUtility([1.0]))
        points = [(np.array([0.5 + 1e-9]), -1.0)]
        with pytest.raises(ValueError):
            round_relaxation_reference(inst, points)
        rounded = round_relaxation(inst, points)
        assert rounded.activations.tolist() == [-1.0]
        assert rounded.flows[0].tolist() == [0.5 + 1e-9]
        assert rounded.fee_delta == 0.0

    def test_idle_capped_point_within_tolerance_is_kept(self):
        inst = capped_fee_instance(1.0)
        points = [(np.array([1e-10, 0.0]), 0.0)]
        with pytest.raises(ValueError):
            round_relaxation_reference(inst, points)
        rounded = round_relaxation(inst, points)
        assert rounded.activations.tolist() == [0.0]
        assert rounded.flows[0].tolist() == [0.0, 0.0]
        assert rounded.y_hat.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_nonfinite_activation_is_refused(self, lam):
        inst = gen_knapsack_instance([3, 5], 5)
        with pytest.raises(ValueError, match="edge 0: point is not in the clipped cone"):
            round_relaxation(inst, [(np.array([0.0]), lam), (np.array([5.0]), -1.0)])

    def test_fields_are_numpy_once(self):
        rounded = round_relaxation(gen_knapsack_instance([3, 5], 5),
                                   [(np.array([0.0]), 0.0), (np.array([5.0]), -1.0)])
        assert all(type(x) is np.ndarray and x.dtype == float for x in rounded.flows)
        for field in (rounded.activations, rounded.y_hat):
            assert type(field) is np.ndarray and field.dtype == float
        assert type(rounded.objective) is float and type(rounded.fee_delta) is float
        assert rounded.objective == -5.0 and rounded.y_hat.tolist() == [5.0]


def rounding_families():
    """Every built-in family and a Minkowski sum."""
    families = builtin_families()
    families["minkowski_sum"] = minkowski_sum(CappedConcaveEdge(capacity=1.0),
                                              LinearTickEdge(price=0.9, cap=1.5))
    return families


class TestRoundingMatchesReference:
    """Sampled instances of three edges of one family, each point integral,
    fractional, outside the cone or near its boundary, against the
    cone-first reference."""

    KINDS = ("active", "idle", "fractional", "outside", "near", "nan")

    def point(self, the_set, rng, kind):
        t = sample_members(the_set, rng, 2)[1]
        lam = float(rng.uniform(0.05, 0.95))
        if kind == "active":
            return t, -1.0
        if kind == "idle":
            return np.zeros(the_set.dim), 0.0
        if kind == "fractional":
            return lam * t, -lam
        if kind == "outside":
            # above the upper bound of every member: outside T, so outside
            # the cone at any activation in (0, 1]
            return lam * (the_set.upper_bound + 0.5), -lam
        if kind == "near":
            return t * (1.0 + float(rng.choice([-1e-9, 1e-10, 1e-9]))), \
                -1.0 + float(rng.choice([-5e-10, 0.0, 5e-10]))
        return t, math.nan

    @pytest.mark.parametrize("name", sorted(rounding_families()))
    def test_sampled(self, rng, name):
        the_set = rounding_families()[name]
        nodes = [(0,), (1,), (2,)] if the_set.dim == 1 else [(0, 1), (1, 2), (2, 0)]
        inst = Instance(n=3, edges=tuple(Edge(the_set, v, fee=float(rng.uniform(0.0, 0.5)))
                                         for v in nodes),
                        utility=QuadraticUtility([1.0, 1.2, 0.8], 0.3))
        accepted = refused = 0
        # a Minkowski sum's gauge bisects over a fan test of 720 directions
        for _ in range(6 if name == "minkowski_sum" else 25):
            points = [self.point(the_set, rng, kind) for kind in rng.choice(self.KINDS, 3)]
            try:
                expected = round_relaxation_reference(inst, points)
            except ValueError:
                refused += 1
                cone = [ClippedCone(FlowCone(the_set)).contains(np.append(x, lam))
                        for x, lam in points]
                in_q = [q_membership_reference(the_set, x, lam) for x, lam in points]
                if any(not c and not q for c, q in zip(cone, in_q)):
                    with pytest.raises(ValueError):
                        round_relaxation(inst, points)
                continue
            accepted += 1
            got = round_relaxation(inst, points)
            assert got.activations.tobytes() == expected.activations.tobytes()
            assert got.y_hat.tobytes() == expected.y_hat.tobytes()
            for x, y in zip(got.flows, expected.flows):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert got.objective == pytest.approx(expected.objective, rel=1e-12, abs=1e-15)
            assert got.fee_delta == pytest.approx(expected.fee_delta, rel=1e-12, abs=1e-15)
        assert accepted and refused


class TestGapBounds:
    def test_single_edge_example(self):
        inst = capped_fee_instance(0.5)
        bounds = gap_bounds(solve(inst), inst)
        assert bounds.lower == pytest.approx(0.5)
        assert bounds.upper == pytest.approx(0.5)
        assert bounds.sf_bound == pytest.approx(1.5)  # (n + 1) * max fee, n = 2

    def test_zero_fees_collapse(self):
        inst = capped_fee_instance(0.0)
        bounds = gap_bounds(solve(inst), inst)
        assert bounds.sf_bound == 0.0
        assert bounds.width <= 1e-9

    def test_bracket_contains_brute_force(self):
        inst = gen_knapsack_instance([2, 3], 4)
        bounds = gap_bounds(solve(inst), inst)
        reference = brute_force_optimum(inst).value
        assert bounds.lower - 1e-9 <= reference <= bounds.upper + 1e-9


class TestBruteForce:
    def test_single_edge_low_fee(self):
        result = brute_force_optimum(capped_fee_instance(0.5))
        assert result.value == pytest.approx(0.5)
        assert result.pattern == (0,)

    def test_single_edge_high_fee(self):
        result = brute_force_optimum(capped_fee_instance(2.0))
        assert result.value == pytest.approx(0.0)
        assert result.pattern == ()

    def test_knapsack_exact_subset(self):
        # weights (2, 3) reach 5 exactly: optimum is -5 on the full pattern
        result = brute_force_optimum(gen_knapsack_instance([2, 3], 5))
        assert result.value == pytest.approx(-5.0)
        assert result.pattern == (0, 1)

    def test_budget_guard(self):
        # one edge over the 20-edge budget
        inst = gen_knapsack_instance([1] * 21, 4)
        with pytest.raises(EnumerationBudgetError):
            brute_force_optimum(inst)

    def test_infeasible_patterns_skipped(self):
        # no subset reaches b = 5, so every pattern is infeasible; only the
        # empty pattern (value -inf directly from U(0)) gets evaluated
        result = brute_force_optimum(gen_knapsack_instance([2, 2], 5))
        assert result.value == -math.inf
        assert result.evaluated == 1

    def test_zero_target_empty_pattern(self):
        result = brute_force_optimum(gen_knapsack_instance([1], 0))
        assert result.value == 0.0
        assert result.pattern == ()


def assert_matches_full_solves(inst, opts=None):
    """Value and pattern bit-equal to full solves of every pattern, and
    ``evaluated`` the empty pattern and every feasible one valued: with a
    quadratic utility those the best-first pass reaches, else every
    feasible one."""
    result = brute_force_optimum(inst, opts=opts)
    value, pattern, feasible, kept = brute_force_reference(inst, opts)
    assert (result.value, result.pattern) == (value, pattern)
    assert result.evaluated == (kept if isinstance(inst.utility, QuadraticUtility) else feasible)


class TestBruteForceMatchesFullSolves:
    """The dual value of each pattern equals a full solve's dual_value."""

    def assert_same(self, inst, opts=None):
        assert_matches_full_solves(inst, opts)

    def test_random_knapsacks(self, rng):
        for _ in range(12):
            weights = [int(w) for w in rng.integers(1, 21, size=int(rng.integers(3, 7)))]
            self.assert_same(gen_knapsack_instance(weights, int(rng.integers(0, sum(weights) + 1))))
        for m in range(11):
            weights = [int(w) for w in rng.integers(1, 21, size=m)]
            self.assert_same(gen_knapsack_instance(weights, int(rng.integers(0, sum(weights) + 1))))

    def test_random_threshold_instances(self, rng):
        # float caps, some zero, with fees drawn apart from them, and
        # targets that may be zero or negative
        for _ in range(40):
            m = int(rng.integers(0, 7))
            caps = [0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 5.0))
                    for _ in range(m)]
            fees = [0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 5.0))
                    for _ in range(m)]
            b = float(rng.choice([0.0, -1.0, rng.uniform(-2.0, sum(caps) + 1.0)]))
            self.assert_same(threshold_instance(caps, fees, b))

    @pytest.mark.parametrize("caps, fees, b", [
        ([2.0, 2.0, 3.0], [2.0, 2.0, 3.0], 2.0),   # {0} and {1} tie at -2
        ([1.0, 2.0], [0.0, 0.0], 0.0),             # every pattern ties U(0) = 0
        ([1.0, 2.0], [0.0, 0.5], -3.0),
        ([0.0, 0.0, 1.5], [0.5, 0.0, 1.0], 1.5),   # zero caps reach nothing
        ([0.0, 0.0], [0.0, 1.0], 0.0),
        ([0.0], [0.0], 1e-10),                     # only U(0) is feasible
        ([2.0, -1.0, -1.0], [1.0, 0.0, 0.5], 1.5),  # negative supplies add nothing
        ([2.0, -1.0, -1.0], [1.0, 0.0, 0.5], -0.5),
    ], ids=["earlier_mask_wins", "zero_fees_tie_empty", "negative_target", "zero_caps",
            "zero_caps_zero_target", "tiny_target", "negative_supply",
            "negative_supply_negative_target"])
    def test_threshold_instances(self, caps, fees, b):
        self.assert_same(threshold_instance(caps, fees, b))

    @pytest.mark.parametrize("utility", [ThresholdUtility(1.0), LinearUtility([1.0])],
                             ids=["threshold", "linear"])
    def test_infinite_cap_is_unbounded(self, utility):
        inst = Instance(n=1, edges=(Edge(HalfLineEdge(1.0), (0,), fee=0.5),
                                    Edge(HalfLineEdge(math.inf), (0,), fee=0.5)),
                        utility=utility)
        with pytest.raises(UnboundedProblemError):
            brute_force_optimum(inst)
        with pytest.raises(UnboundedProblemError):
            brute_force_reference(inst)

    def test_capped_and_product_market_fees(self, rng):
        for _ in range(4):
            n = 3
            edges = [Edge(CappedConcaveEdge(capacity=float(rng.uniform(0.5, 2.0))), (0, 1),
                          fee=float(rng.uniform(0.0, 0.6))),
                     Edge(ProductMarketEdge(rng.uniform(1.0, 4.0, size=2)), (1, 2),
                          fee=float(rng.uniform(0.0, 0.6))),
                     Edge(ProductMarketEdge(rng.uniform(1.0, 4.0, size=2)), (0, 2),
                          fee=float(rng.uniform(0.0, 0.6))),
                     Edge(HalfLineEdge(float(rng.uniform(0.5, 2.0))), (2,), fee=0.25)]
            inst = Instance(n=n, edges=tuple(edges),
                            utility=QuadraticUtility(rng.uniform(0.5, 1.5, n), 0.2))
            self.assert_same(inst, SolverOptions())

    def test_linear_capped_fee(self):
        for fee in (0.5, 1.0, 2.0):
            self.assert_same(capped_fee_instance(fee))


def sub_minimum(inst, pattern, opts=None):
    """The minimized fee-free dual of the instance restricted to ``pattern``."""
    sub = Instance(n=inst.n, edges=tuple(replace(inst.edges[i], fee=0.0) for i in pattern),
                   utility=inst.utility)
    return solver.minimize_dual(sub, opts)


def count_minimizations(monkeypatch):
    """Count ``solver._minimize`` calls from here on; the count is item 0."""
    calls = [0]
    minimize = solver._minimize

    def counted(*args):
        calls[0] += 1
        return minimize(*args)

    monkeypatch.setattr(solver, "_minimize", counted)
    return calls


def idle_edge_instance(fees=(0.1, 0.1, 0.1)):
    """Edge 0 supplies node 1 and lowers its price below node 0's.  Edge 1
    sends node 0 to node 1 with gain at most 1, so it is idle wherever node
    1 is cheaper; edge 2 sends node 1 to node 0, which then pays."""
    edges = (Edge(HalfLineEdge(1.0), (1,), fee=fees[0]),
             Edge(CappedConcaveEdge(capacity=1.0), (0, 1), fee=fees[1]),
             Edge(CappedConcaveEdge(capacity=1.0), (1, 0), fee=fees[2]))
    return Instance(n=2, edges=edges, utility=QuadraticUtility([2.0, 1.0], 0.5))


def supply_instance(caps, fees):
    """One node with U(y) = 2y - y^2 / 2, at most 2 at its peak y = 2, and
    one half line per cap.  A pattern is worth U(min(its caps' sum, 2))
    less its fees, and at price 0, the full pattern's minimizer when the
    caps sum to 2 or more, every pattern's dual is 2: its bound is 2 less
    its fees."""
    return Instance(n=1, edges=tuple(Edge(HalfLineEdge(cap), (0,), fee=fee)
                                     for cap, fee in zip(caps, fees)),
                    utility=QuadraticUtility([2.0], 1.0))


def under_linear(inst):
    """The instance with its quadratic utility's c as a linear utility."""
    return replace(inst, utility=LinearUtility(inst.utility.c))


def and_linear(values):
    """Each value with linear False (id the value), then with linear True
    (id the value and "-linear")."""
    return [pytest.param(value, linear, id=f"{value}" + "-linear" * linear)
            for linear in (False, True) for value in values]


def mask_order_minimizations(inst):
    """The minimizations of a pass over the same bounds in mask order,
    which skips a pattern below the best so far but cannot stop early."""
    values, fee_totals, bounds = brute_force_patterns(inst)
    margin = solver.GAP_TOL * (1.0 + abs(values[-1]))
    best, count = max(values[0], values[-1] - fee_totals[-1]), 1
    for mask in range(1, 2 ** inst.m - 1):
        if bounds[mask] + margin >= best:
            count += 1
            best = max(best, values[mask] - fee_totals[mask])
    return count


class TestBruteForcePruning:
    """Patterns are minimized in decreasing order of their bound at the
    full pattern's price, and the pass stops at the first that cannot win,
    without changing the answer."""

    @pytest.mark.parametrize("kind, linear", and_linear(MIXED_KINDS))
    def test_random_mixed_instances(self, kind, linear):
        # each instance holds an edge of ``kind`` and two edges of random kinds
        for j in range(60):
            rng = np.random.default_rng([MIXED_KINDS.index(kind), j])
            kinds = (kind,) + tuple(rng.choice(MIXED_KINDS, size=2))
            inst = mixed_instance(rng, int(rng.integers(2, 5)), kinds)
            assert_matches_full_solves(under_linear(inst) if linear else inst)

    @pytest.mark.parametrize("m, linear", and_linear([4, 5, 6]))
    def test_random_larger_mixed_instances(self, m, linear):
        for j in range(34):
            rng = np.random.default_rng([15, m, j])
            kinds = tuple(rng.choice(MIXED_KINDS, size=m))
            inst = mixed_instance(rng, int(rng.integers(2, 5)), kinds)
            assert_matches_full_solves(under_linear(inst) if linear else inst)

    def test_best_first_minimizes_fewer_patterns(self, monkeypatch):
        # {1, 2} wins with 2 - 0.2 = 1.8.  In bound order {1} and {2} (bound
        # 1.9, total 1.5 - 0.1) come first, then {1, 2} (bound 1.8), and {0}
        # (bound 1.7) ends the pass.  Mask order minimizes {0} as well, since
        # its bound beats the full pattern's total of 2 - 0.5 = 1.5.
        inst = supply_instance(caps=(2.0, 1.0, 1.0), fees=(0.3, 0.1, 0.1))
        calls = count_minimizations(monkeypatch)
        result = brute_force_optimum(inst)
        assert calls[0] == 4  # the full pattern, {1}, {2} and {1, 2}
        assert result.pattern == (1, 2) and result.evaluated == 5
        assert result.value == pytest.approx(1.8, rel=1e-12)
        assert mask_order_minimizations(inst) == 5
        assert_matches_full_solves(inst)

    @pytest.mark.parametrize("caps, fees, pattern", [
        ((2.0, 1.0, 1.0, 0.0), (0.3, 0.1, 0.1, 0.0), (1, 2)),
        ((1.0, 1.0, 0.0), (0.1, 0.1, 0.0), (0, 1)),
    ], ids=["superset_comes_later", "superset_is_the_full_pattern"])
    def test_zero_fee_superset_tie_goes_to_the_earlier_mask(self, caps, fees, pattern):
        # the cap-0, fee-0 edge adds nothing at any price, so a pattern with
        # it ties the pattern without it bit for bit: with equal bounds the
        # earlier mask comes first, and the full pattern is minimized first
        inst = supply_instance(caps, fees)
        result = brute_force_optimum(inst)
        assert result.pattern == pattern
        with_zero = sub_minimum(inst, pattern + (len(caps) - 1,))
        assert sub_minimum(inst, pattern).g.hex() == with_zero.g.hex()
        assert_matches_full_solves(inst)

    @pytest.mark.parametrize("utility", [QuadraticUtility([1.0, 2.0], 0.5),
                                         LinearUtility([1.0, 2.0])], ids=["quadratic", "linear"])
    def test_no_edges(self, monkeypatch, utility):
        calls = count_minimizations(monkeypatch)
        result = brute_force_optimum(Instance(n=2, edges=(), utility=utility))
        assert (result.value, result.pattern, result.evaluated) == (0.0, (), 1)
        assert calls[0] == 0

    def test_large_fee_is_skipped_by_the_bound(self, monkeypatch):
        inst = idle_edge_instance(fees=(0.1, 0.1, 50.0))
        _, _, feasible, kept = brute_force_reference(inst)
        assert kept < feasible
        calls = count_minimizations(monkeypatch)
        result = brute_force_optimum(inst)
        assert result.evaluated == kept
        assert 2 not in result.pattern
        assert calls[0] <= 2 ** (inst.m - 1)  # the full pattern, and none other with edge 2
        assert_matches_full_solves(inst)

    @pytest.mark.parametrize("cap, pattern", [(0.0, (0,)), (1e-12, (0, 1))],
                             ids=["tie_earlier_mask_wins", "later_mask_wins_by_a_hair"])
    def test_near_tie_with_the_full_pattern(self, cap, pattern):
        # the full pattern's total ties pattern {0} or beats it by 1e-12, far
        # inside the bound's margin
        inst = Instance(n=2, edges=(Edge(CappedConcaveEdge(capacity=1.0), (0, 1), fee=0.5),
                                    Edge(HalfLineEdge(cap), (0,), fee=0.0)),
                        utility=LinearUtility([1.0, 4.0]))
        result = brute_force_optimum(inst)
        assert result.pattern == pattern
        assert_matches_full_solves(inst)


    def test_linear_patterns_are_evaluated_once(self, monkeypatch):
        # every edge supplies 1 at nu = c: the full pattern's one evaluation
        # there values all 8 patterns by subset sums, and {0, 2} wins with
        # 2 - 0.7
        inst = Instance(n=2, edges=tuple(Edge(CappedConcaveEdge(capacity=1.0), (0, 1), fee=fee)
                                         for fee in (0.5, 3.9, 0.2)),
                        utility=LinearUtility([1.0, 4.0]))
        calls = [0]
        evaluate = solver._evaluate

        def counted(*args):
            calls[0] += 1
            return evaluate(*args)

        monkeypatch.setattr(solver, "_evaluate", counted)
        result = brute_force_optimum(inst)
        assert calls[0] == 1
        assert result.pattern == (0, 2) and result.evaluated == 2 ** inst.m
        assert result.value == 2.0 - (0.5 + 0.2)
        assert_matches_full_solves(inst)


class TestKnapsackSoundness:
    def test_matches_subset_sum_dp(self, rng):
        for _ in range(12):
            m = int(rng.integers(1, 8))
            weights = [int(w) for w in rng.integers(1, 11, size=m)]
            b = int(rng.integers(0, sum(weights) + 1))
            inst = gen_knapsack_instance(weights, b)
            result = brute_force_optimum(inst)
            if subset_sum_reachable(weights, b):
                assert result.value == pytest.approx(-float(b), abs=1e-9)
            else:
                assert result.value < -float(b) or result.value == -math.inf

    def test_all_tied_at_unit_price(self):
        report = solve(gen_knapsack_instance([2, 3, 4], 9))
        assert report.tie_count == 3
        assert report.dual_value == pytest.approx(-9.0)
        assert report.primal_value == pytest.approx(-9.0)


class TestBracketOnRandomInstances:
    def test_heuristic_within_brute_force_bracket(self, rng):
        opts = SolverOptions()
        for _ in range(8):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 6))
            edges = []
            for _ in range(m):
                if rng.random() < 0.5:
                    the_set = ProductMarketEdge(rng.uniform(1.0, 4.0, size=2))
                else:
                    the_set = CappedConcaveEdge(capacity=float(rng.uniform(0.5, 2)))
                pair = tuple(int(v) for v in rng.choice(n, size=2, replace=False))
                edges.append(Edge(the_set, pair, fee=float(rng.uniform(0.0, 0.6))))
            inst = Instance(n=n, edges=tuple(edges),
                            utility=QuadraticUtility(rng.uniform(0.5, 1.5, n), 0.2))
            report = solve(inst, opts)
            reference = brute_force_optimum(inst, opts=opts).value
            assert report.primal_value <= reference + 1e-6
            assert reference <= report.dual_value + 1e-6
            sf = (inst.n + 1) * inst.max_fee()
            assert report.dual_value - reference <= sf + 1e-6


def _sets_at_zero_price():
    """Every built-in family, every calculus rule and ``BelowHalfLine``."""
    families = builtin_families()
    capped, market = families["capped_rational"], families["product_market"]
    return {
        **families,
        "infinite_cap": HalfLineEdge(math.inf),
        "below_half_line": BelowHalfLine(-2.0),
        "scale": scale(market, 1.7),
        "scale_zero": scale(capped, 0.0),
        "matrix_image": nonneg_matrix_image(capped, np.array([[1.0, 0.2], [0.0, 1.5]])),
        "lift": lift(market, [2, 0], 3),
        "minkowski_sum": minkowski_sum(capped, market),
        "intersection": intersection(capped, families["linear_tick"]),
        "aggregate": aggregate([(capped, [0, 1]), (market, [1, 2])], 3),
        "scaled_half_line": scale(HalfLineEdge(2.0), 0.3),
        "half_line_sum": minkowski_sum(HalfLineEdge(1.5), HalfLineEdge(2.5)),
        "half_line_intersection": intersection(HalfLineEdge(1.5), HalfLineEdge(2.5)),
    }


class TestThresholdBruteForceAtPriceZero:
    """Brute force values every feasible threshold pattern by the
    conjugate at price 0 alone, since no edge term is positive there."""

    @pytest.mark.parametrize("name", list(_sets_at_zero_price()))
    def test_no_edge_term_at_price_zero(self, name):
        the_set = _sets_at_zero_price()[name]
        assert max(the_set.kernel([0.0] * the_set.dim)[0], 0.0) == 0.0

    @pytest.mark.parametrize("specs", [
        [("scale", 2.0, 0.3), ("scale", 1.0, 4.0), ("half_line", 0.7, None)],
        [("sum", 1.5, 2.5), ("half_line", 3.0, None), ("sum", 0.25, 0.5)],
        [("intersection", 1.5, 2.5), ("intersection", 4.0, 0.5), ("half_line", 1.0, None)],
        [("scale", 3.0, 0.0), ("sum", 1.0, 1.0), ("intersection", 2.0, 3.0),
         ("below", -1.0, None), ("half_line", 0.5, None)],
    ], ids=["scaled", "sums", "intersections", "mixed"])
    @pytest.mark.parametrize("b", [0.0, 1.75, 3.5, 100.0])
    def test_one_dimensional_calculus_sets(self, specs, b):
        def make(kind, a, c):
            if kind == "scale":
                return scale(HalfLineEdge(a), c)
            if kind == "sum":
                return minkowski_sum(HalfLineEdge(a), HalfLineEdge(c))
            if kind == "intersection":
                return intersection(HalfLineEdge(a), HalfLineEdge(c))
            return BelowHalfLine(a) if kind == "below" else HalfLineEdge(a)

        fees = [0.0, 0.6, 1.25, 0.3, 2.0]
        edges = tuple(Edge(make(*spec), (0,), fee=fee) for spec, fee in zip(specs, fees))
        inst = Instance(n=1, edges=edges, utility=ThresholdUtility(b))
        result = brute_force_optimum(inst)
        value, pattern, feasible, _ = brute_force_reference(inst)
        assert (result.value.hex(), result.pattern) == (float(value).hex(), pattern)
        assert result.evaluated == feasible
