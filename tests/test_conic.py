import math

import numpy as np
import pytest

from convexflow.conic import ClippedCone, FlowCone, conic_rewrite
from convexflow.model import Edge, Instance, LinearUtility, QuadraticUtility
from convexflow.sets import CappedConcaveEdge, ProductMarketEdge
from convexflow.solver import solve, solve_conic

from conftest import builtin_families
from oracles import sample_cone_points, sample_members


@pytest.fixture
def capped_cone():
    return FlowCone(CappedConcaveEdge(capacity=1.0))


class TestConeMembership:
    def test_recovered_boundary_point(self, capped_cone):
        assert capped_cone.contains([-1.0, 0.5, -1.0])

    def test_origin(self, capped_cone):
        assert capped_cone.contains([0.0, 0.0, 0.0])

    def test_recession_slice(self, capped_cone):
        assert capped_cone.contains([-1.0, -1.0, 0.0])
        assert not capped_cone.contains([0.0, 1.0, 0.0])

    def test_positive_last_coordinate_rejected(self, capped_cone):
        assert not capped_cone.contains([0.0, 0.0, 0.5])

    def test_scaling_invariance(self, capped_cone, rng):
        for point in sample_cone_points(capped_cone.base, rng, 40):
            alpha = rng.uniform(0.0, 3.0)
            assert capped_cone.contains(alpha * point, 1e-7)

    def test_recovery_slice_equals_set(self, family_set, rng):
        cone = FlowCone(family_set)
        for x in sample_members(family_set, rng, 30):
            assert cone.contains(np.append(x, -1.0), 1e-7)
            g = family_set.gauge(x)
            if math.isfinite(g) and g > 1e-6:
                outside = x * (1.3 / g)
                assert not family_set.contains(outside, 1e-9)
                assert not cone.contains(np.append(outside, -1.0), 1e-9)


class TestNonfiniteActivation:
    """Every comparison with NaN is false, so each range test is written to
    fail on NaN: a NaN activation is in no cone."""

    nan = float("nan")

    def test_flow_cone_refuses_nan(self, family_set):
        point = np.append(np.zeros(family_set.dim), self.nan)
        assert not FlowCone(family_set).contains(point)

    def test_clipped_cone_refuses_nonfinite(self, family_set):
        clipped = ClippedCone(FlowCone(family_set))
        for s in (self.nan, math.inf, -math.inf):
            assert not clipped.contains(np.append(np.zeros(family_set.dim), s))

    def test_dominating_completion_refuses_nan(self, capped_cone):
        with pytest.raises(ValueError, match="must lie in"):
            capped_cone.dominating_completion([0.0, 0.0, self.nan])

    def test_conic_instance_refuses_nan(self):
        inst = Instance(n=2, edges=(Edge(CappedConcaveEdge(capacity=1.0), (0, 1)),),
                        utility=LinearUtility([1.0, 4.0]))
        conic = conic_rewrite(inst)
        assert conic.edge_objective(0, [0.0, 0.0, self.nan]) == -math.inf
        with pytest.raises(ValueError, match="activation must be -1"):
            conic.to_original_flows([[0.0, 0.0, self.nan]])


class TestPolar:
    def test_epigraph_examples(self, capped_cone):
        assert capped_cone.polar_contains([1.0, 4.0, 1.0])
        assert not capped_cone.polar_contains([1.0, 4.0, 0.5])
        assert capped_cone.polar_contains([0.0, 0.0, 0.0])
        assert capped_cone.polar_contains([1.0, 1.0, 0.0])

    def test_negative_price_excluded(self, capped_cone):
        assert not capped_cone.polar_contains([-1.0, 1.0, 100.0])

    def test_inner_products_nonpositive(self, family_set, rng):
        cone = FlowCone(family_set)
        cone_pts = np.array(sample_cone_points(family_set, rng, 100))
        polar_pts = []
        while len(polar_pts) < 100:
            xi = rng.uniform(0.0, 2.0, size=family_set.dim)
            value = family_set.support(xi).value
            polar_pts.append(np.append(xi, value + rng.exponential(0.5)))
        products = cone_pts @ np.array(polar_pts).T
        assert products.max() <= 1e-9


class TestDominatingCompletion:
    def test_interior_point(self, capped_cone):
        out = capped_cone.dominating_completion([-0.5, 0.25, -0.5])
        assert out == pytest.approx([-0.5, 0.25, -1.0])
        assert capped_cone.contains(out)

    def test_origin_completes_to_zero_flow(self, capped_cone):
        assert capped_cone.dominating_completion([0.0, 0.0, 0.0]) == \
            pytest.approx([0.0, 0.0, -1.0])

    def test_idempotent_at_bottom(self, capped_cone):
        out = capped_cone.dominating_completion([-1.0, 0.5, -1.0])
        assert out == pytest.approx([-1.0, 0.5, -1.0])

    def test_rejects_points_outside(self, capped_cone):
        with pytest.raises(ValueError):
            capped_cone.dominating_completion([-1.0, 0.6, -0.5])
        with pytest.raises(ValueError):
            capped_cone.dominating_completion([-1.0, 0.5, -1.5])


class TestClippedCone:
    def test_contains_set_slice_and_origin(self, family_set, rng):
        clipped = ClippedCone(FlowCone(family_set))
        assert clipped.contains(np.zeros(family_set.dim + 1))
        for x in sample_members(family_set, rng, 20):
            assert clipped.contains(np.append(x, -1.0), 1e-7)
        below = np.zeros(family_set.dim + 1)
        below[-1] = -1.1
        assert not clipped.contains(below)

    def test_convex_hull_inclusion_forward(self, family_set, rng):
        # convex combinations of {0} and T x {-1} stay in the clipped cone
        clipped = ClippedCone(FlowCone(family_set))
        for t in sample_members(family_set, rng, 30):
            theta = rng.uniform()
            assert clipped.contains(np.append(theta * t, -theta), 1e-7)

    def test_convex_hull_inclusion_reverse(self, family_set, rng):
        # every clipped-cone point splits into a scaled member plus zero
        for t in sample_members(family_set, rng, 30):
            lam = rng.uniform(0.05, 1.0)
            beta = rng.uniform(0.0, 1.0)
            x = lam * beta * t
            assert family_set.contains(x / lam, 1e-7)

    def test_support_is_fee_subproblem(self, capped_cone):
        clipped = ClippedCone(capped_cone)
        value, point = clipped.support([1.0, 4.0, 0.5])
        assert value == pytest.approx(0.5)
        assert point == pytest.approx([-1.0, 0.5, -1.0])
        value, point = clipped.support([1.0, 4.0, 2.0])
        assert value == 0.0
        assert point == pytest.approx([0.0, 0.0, 0.0])


class TestConicRewrite:
    def test_selector_gains_unit_block(self):
        inst = Instance(n=2, edges=(Edge(CappedConcaveEdge(capacity=1.0), (0, 1)),),
                        utility=LinearUtility([1.0, 4.0]))
        conic = conic_rewrite(inst)
        assert conic.ambient_dim == 3
        assert conic.selector(0) == (0, 1, 2)

    def test_zero_flows_feasible(self):
        inst = Instance(n=2, edges=(Edge(CappedConcaveEdge(capacity=1.0), (0, 1)),),
                        utility=LinearUtility([1.0, 4.0]))
        conic = conic_rewrite(inst)
        assert conic.edge_objective(0, [0.0, 0.0, 0.0]) == 0.0
        assert conic.network_objective([0.0, 0.0, 0.0]) == 0.0

    def test_activation_floor_in_edge_objective(self):
        inst = Instance(n=2, edges=(Edge(CappedConcaveEdge(capacity=1.0), (0, 1)),),
                        utility=LinearUtility([1.0, 4.0]))
        conic = conic_rewrite(inst)
        assert conic.edge_objective(0, [0.0, 0.0, -1.0]) == 0.0
        assert conic.edge_objective(0, [0.0, 0.0, -1.5]) == -math.inf

    def test_single_edge_conic_optimum_matches(self):
        inst = Instance(n=2, edges=(Edge(CappedConcaveEdge(capacity=1.0), (0, 1)),),
                        utility=LinearUtility([1.0, 4.0]))
        direct = solve(inst)
        conic = solve_conic(conic_rewrite(inst))
        assert direct.dual_value == pytest.approx(1.0, abs=1e-9)
        assert conic.dual_value == pytest.approx(direct.dual_value, abs=1e-9)

    def test_recovered_flows_map_back(self):
        inst = Instance(n=2, edges=(Edge(ProductMarketEdge([1.0, 1.0]), (0, 1)),),
                        utility=LinearUtility([1.0, 4.0]))
        conic = conic_rewrite(inst)
        report = solve_conic(conic)
        tilde = [np.append(x, lam) for x, lam in zip(report.flows, report.activations)]
        flows = conic.to_original_flows(tilde)
        for edge, x in zip(inst.edges, flows):
            assert edge.flow_set.contains(x, 1e-7)

    def test_objective_identical_under_mapping(self, rng):
        # a conic-form point with every activation at -1 values exactly like
        # the original point it maps back to
        from convexflow.model import net_flow

        inst = Instance(n=3,
                        edges=(Edge(ProductMarketEdge([2.0, 3.0]), (0, 1)),
                               Edge(CappedConcaveEdge(capacity=1.0), (1, 2))),
                        utility=LinearUtility([1.0, 0.8, 1.3]))
        conic = conic_rewrite(inst)
        flows = [e.flow_set.support(rng.uniform(0.2, 2, 2)).point
                 for e in inst.edges]
        tilde = [np.append(x, -1.0) for x in flows]
        conic_value = conic.network_objective(
            np.append(net_flow(inst, flows), sum(p[-1] for p in tilde)))
        conic_value += sum(conic.edge_objective(i, p) for i, p in enumerate(tilde))
        assert conic_value == pytest.approx(inst.utility.value(net_flow(inst, flows)))
        assert conic.to_original_flows(tilde)[0] == pytest.approx(flows[0])

    def test_fee_carrying_conic_path_agrees(self, rng):
        # fees enter the cone support as the activation price, so the conic
        # route must reproduce the fee solve including inactive edges
        for fee in (0.25, 0.5, 2.0):
            edges = (Edge(CappedConcaveEdge(capacity=1.0), (0, 1), fee=fee),
                     Edge(ProductMarketEdge([2.0, 3.0]), (1, 2), fee=fee))
            inst = Instance(n=3, edges=edges,
                            utility=QuadraticUtility([1.0, 1.1, 0.9], 0.3))
            direct = solve(inst)
            conic = solve_conic(conic_rewrite(inst))
            assert conic.dual_value == pytest.approx(direct.dual_value, abs=1e-9)
            assert conic.primal_value == pytest.approx(direct.primal_value,
                                                       abs=1e-9)
            assert np.array_equal(conic.activations, direct.activations)


def test_closure_suite_sampled(family_set, rng):
    cone = FlowCone(family_set)
    for point in sample_cone_points(family_set, rng, 60):
        d = rng.exponential(0.3, size=family_set.dim + 1)
        assert cone.contains(point - d, 1e-7)


def test_dominating_point_property_sampled(family_set, rng):
    cone = FlowCone(family_set)
    for t in sample_members(family_set, rng, 30):
        lam = rng.uniform(0.0, 1.0)
        point = np.append(lam * t, -lam)
        completed = cone.dominating_completion(point, 1e-7)
        assert cone.contains(completed, 1e-7)


def test_gauge_cone_consistency(family_set, rng):
    for x in sample_members(family_set, rng, 30):
        g = family_set.gauge(x)
        if not math.isfinite(g):
            continue
        assert FlowCone(family_set).contains(np.append(x, -g), 1e-7)
