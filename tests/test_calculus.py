import math

import numpy as np
import pytest

from convexflow.calculus import (FAN_SIZE, _halton, aggregate, direction_fan, intersection,
                                 lift, minkowski_sum, nonneg_matrix_image, scale)
from convexflow.sets import (CappedConcaveEdge, HalfLineEdge, LinearTickEdge,
                             ProductMarketEdge)

from oracles import grid_support, sample_members


def tick(price, cap=1.0):
    return LinearTickEdge(price=price, cap=cap)


class TestScale:
    def test_identity(self, rng):
        base = CappedConcaveEdge(capacity=1.0)
        scaled = scale(base, 1.0)
        for x in sample_members(base, rng, 30):
            assert scaled.contains(x) == base.contains(x)
        for _ in range(10):
            xi = rng.uniform(0, 2, size=2)
            assert scaled.support(xi).value == pytest.approx(base.support(xi).value)

    def test_zero_collapses_to_nonpositive_orthant(self):
        scaled = scale(CappedConcaveEdge(capacity=1.0), 0.0)
        assert scaled.contains([-3.0, -1.0])
        assert scaled.contains([0.0, 0.0])
        assert not scaled.contains([0.1, 0.0])
        assert scaled.support([1.0, 4.0]).value == 0.0

    def test_support_homogeneity(self):
        # support doubles with the set; grid oracle on the base confirms
        base = CappedConcaveEdge(capacity=1.0)
        doubled = scale(base, 2.0)
        assert doubled.support([1.0, 4.0]).value == pytest.approx(2.0, abs=1e-12)
        assert doubled.support([1.0, 4.0]).value == pytest.approx(
            2.0 * grid_support(base, [1.0, 4.0]), rel=1e-7)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            scale(CappedConcaveEdge(capacity=1.0), -0.5)

    @pytest.mark.parametrize("alpha, error", [(math.nan, ValueError), (math.inf, ValueError),
                                              (True, TypeError), ("2", TypeError)])
    def test_invalid_alpha_rejected(self, alpha, error):
        with pytest.raises(error):
            scale(CappedConcaveEdge(capacity=1.0), alpha)


class TestMatrixImage:
    def test_identity_matrix(self, rng):
        base = CappedConcaveEdge(capacity=1.0)
        image = nonneg_matrix_image(base, np.eye(2))
        for _ in range(10):
            xi = rng.uniform(0, 2, size=2)
            assert image.support(xi).value == pytest.approx(base.support(xi).value)

    def test_diagonal_pullback(self):
        base = CappedConcaveEdge(capacity=1.0)
        image = nonneg_matrix_image(base, np.diag([1.0, 2.0]))
        # prices pull back through the transpose: (1, 2) -> (1, 4)
        assert image.support([1.0, 2.0]).value == pytest.approx(1.0, abs=1e-12)

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError):
            nonneg_matrix_image(CappedConcaveEdge(), np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            nonneg_matrix_image(CappedConcaveEdge(), np.array([[1.0, -0.1], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_nonfinite_entries_rejected(self, entry):
        with pytest.raises(ValueError, match="finite"):
            nonneg_matrix_image(HalfLineEdge(1.0), [[entry]])

    def test_pullback_identity_sampled(self, rng):
        base = ProductMarketEdge([1.0, 2.0])
        a = np.array([[0.5, 0.0], [0.3, 1.0], [0.0, 0.7]])
        image = nonneg_matrix_image(base, a)
        for _ in range(40):
            xi = rng.uniform(0, 2, size=3)
            lhs = image.support(xi).value
            rhs = base.support(a.T @ xi).value
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_maximizer_inside_and_achieving(self, rng):
        base = CappedConcaveEdge(capacity=1.0)
        image = nonneg_matrix_image(base, np.array([[1.0, 0.5], [0.0, 2.0]]))
        for _ in range(20):
            xi = rng.uniform(0.05, 2, size=2)
            value, point = image.support(xi)
            assert point is not None
            assert image.contains(point, 1e-7)
            assert xi @ point == pytest.approx(value, abs=1e-9 * (1 + abs(value)))


class TestLift:
    def test_same_dim_identity_order(self, rng):
        base = CappedConcaveEdge(capacity=1.0)
        lifted = lift(base, [0, 1], 2)
        for _ in range(10):
            xi = rng.uniform(0, 2, size=2)
            assert lifted.support(xi).value == pytest.approx(base.support(xi).value)

    def test_lift_into_four_nodes(self):
        base = CappedConcaveEdge(capacity=1.0)
        lifted = lift(base, [0, 2], 4)
        value, point = lifted.support([1.0, 9.0, 4.0, 7.0])
        assert value == pytest.approx(1.0, abs=1e-12)
        assert point == pytest.approx([-1.0, 0.0, 0.5, 0.0])

    def test_negative_unselected_price_diverges(self):
        lifted = lift(CappedConcaveEdge(capacity=1.0), [0, 2], 4)
        assert lifted.support([1.0, -0.1, 4.0, 0.0]).value == math.inf

    def test_membership_requires_dissipation_elsewhere(self):
        lifted = lift(CappedConcaveEdge(capacity=1.0), [0, 2], 4)
        assert lifted.contains([-1.0, 0.0, 0.5, -3.0])
        assert not lifted.contains([-1.0, 0.1, 0.5, 0.0])

    def test_duplicate_or_out_of_range_indices(self):
        base = CappedConcaveEdge(capacity=1.0)
        with pytest.raises(ValueError):
            lift(base, [1, 1], 4)
        with pytest.raises(ValueError):
            lift(base, [0, 4], 4)
        with pytest.raises(ValueError):
            lift(base, [-1, 0], 4)

    @pytest.mark.parametrize("indices, ambient_dim", [([1.5], 3), ([True], 3), ([0], 3.0)])
    def test_non_integer_indices_rejected(self, indices, ambient_dim):
        with pytest.raises(TypeError):
            lift(HalfLineEdge(1.0), indices, ambient_dim)


class TestMinkowskiSum:
    def test_adding_the_zero_set_is_neutral(self, rng):
        base = tick(1.5)
        zero = scale(tick(1.0), 0.0)
        summed = minkowski_sum(base, zero)
        for _ in range(20):
            xi = rng.uniform(0, 2, size=2)
            assert summed.support(xi).value == pytest.approx(base.support(xi).value)

    def test_two_tick_support_adds(self):
        summed = minkowski_sum(tick(1.0), tick(2.0))
        # per-tick closed form: 1*max(0, p*1 - 1) summed over p in {1, 2}
        assert summed.support([1.0, 1.0]).value == pytest.approx(1.0, abs=1e-12)

    def test_support_additivity_sampled(self, rng):
        a, b = ProductMarketEdge([1.0, 3.0]), CappedConcaveEdge(capacity=2.0)
        summed = minkowski_sum(a, b)
        for _ in range(40):
            xi = rng.uniform(0, 2, size=2)
            fa, fb = a.support(xi).value, b.support(xi).value
            fs = summed.support(xi).value
            assert abs(fs - fa - fb) <= 1e-9 * (1 + abs(fa) + abs(fb))

    def test_maximizers_add(self, rng):
        a, b = tick(1.2), CappedConcaveEdge(capacity=1.0)
        summed = minkowski_sum(a, b)
        for _ in range(20):
            xi = rng.uniform(0.05, 2, size=2)
            value, point = summed.support(xi)
            pa, pb = a.support(xi).point, b.support(xi).point
            assert point == pytest.approx(pa + pb)
            assert xi @ point == pytest.approx(value, abs=1e-9 * (1 + abs(value)))

    def test_undirected_edge_contains_both_orientations(self):
        # two opposing directed edges summed: flow may go either way
        forward = CappedConcaveEdge(capacity=1.0)
        backward = nonneg_matrix_image(forward, np.array([[0.0, 1.0], [1.0, 0.0]]))
        undirected = minkowski_sum(forward, backward)
        assert undirected.contains([-1.0, 0.5])
        assert undirected.contains([0.5, -1.0])
        assert not undirected.contains([0.6, 0.6])

    def test_unbounded_summand_rejected(self):
        unbounded = HalfLineEdge(1.0)
        one_dim_ok = scale(unbounded, 1.0)
        with pytest.raises(ValueError):
            minkowski_sum(one_dim_ok, HalfLineEdge(math.inf))

    def test_fan_membership_rejects_outside_points(self):
        summed = minkowski_sum(tick(1.0), tick(1.0))
        assert not summed.contains([0.0, 2.1])  # above the summed output cap
        assert summed.contains([-2.0, 2.0])


class TestIntersection:
    def test_membership_is_conjunction(self, rng):
        a, b = ProductMarketEdge([2.0, 2.0]), CappedConcaveEdge(capacity=1.0)
        both = intersection(a, b)
        for x in sample_members(a, rng, 30) + sample_members(b, rng, 30):
            assert both.contains(x) == (a.contains(x) and b.contains(x))

    def test_support_upper_bounded_by_children(self, rng):
        a, b = ProductMarketEdge([1.0, 1.0]), tick(2.0, cap=0.5)
        both = intersection(a, b)
        for _ in range(10):
            xi = rng.uniform(0.1, 2, size=2)
            value = both.support(xi).value
            # approximate oracle: allow the descent tolerance on top
            assert value <= min(a.support(xi).value, b.support(xi).value) + 1e-5

    def test_support_matches_direct_maximization(self, rng):
        # intersecting a set with itself changes nothing; the approximate
        # support should land near the exact value
        base = ProductMarketEdge([1.0, 2.0])
        both = intersection(base, base)
        for _ in range(5):
            xi = rng.uniform(0.2, 2, size=2)
            assert both.support(xi).value == pytest.approx(
                base.support(xi).value, rel=1e-3, abs=1e-3)


class TestAggregate:
    def test_single_edge_equals_lift(self, rng):
        base = CappedConcaveEdge(capacity=1.0)
        agg = aggregate([(base, [1, 3])], 4)
        lifted = lift(base, [1, 3], 4)
        for _ in range(20):
            xi = rng.uniform(0, 2, size=4)
            assert agg.support(xi).value == pytest.approx(lifted.support(xi).value)

    def test_orderbook_depth(self):
        # three ticks quoting 1.0, 0.9, 0.8 with unit size: selling into all
        # of them at price (0, 1) collects the full depth
        ticks = [(tick(1.0), [0, 1]), (tick(0.9), [0, 1]), (tick(0.8), [0, 1])]
        book = aggregate(ticks, 2)
        assert book.support([0.0, 1.0]).value == pytest.approx(2.7, abs=1e-12)

    def test_two_markets_support_adds(self):
        pair = [(ProductMarketEdge([1.0, 1.0]), [0, 1]),
                (ProductMarketEdge([1.0, 1.0]), [0, 1])]
        agg = aggregate(pair, 2)
        assert agg.support([1.0, 4.0]).value == pytest.approx(2.0, abs=1e-12)

    def test_invalid_member_rejected(self):
        with pytest.raises(ValueError):
            aggregate([(CappedConcaveEdge(), [0, 5])], 4)

    def test_one_big_edge_view_matches_solver(self):
        # with zero edge utilities the whole network collapses to a single
        # aggregate edge: maximizing a linear utility over it is exactly the
        # fee-free flow problem
        from convexflow.model import Edge, Instance, LinearUtility
        from convexflow.solver import solve

        members = [(ProductMarketEdge([2.0, 3.0]), [0, 1]),
                   (CappedConcaveEdge(capacity=1.0), [1, 2]),
                   (tick(1.3, cap=0.5), [2, 0])]
        c = np.array([1.0, 0.7, 1.4])
        agg = aggregate(members, 3)
        inst = Instance(n=3, edges=tuple(Edge(s, tuple(idx)) for s, idx in members),
                        utility=LinearUtility(c))
        assert agg.support(c).value == pytest.approx(solve(inst).dual_value,
                                                     abs=1e-12)


# ---------------------------------------------------------------------------
# generic flow-set invariants for composed sets
# ---------------------------------------------------------------------------

def composed_sets():
    base = CappedConcaveEdge(capacity=1.0)
    market = ProductMarketEdge([1.0, 2.0])
    return {
        "scaled": scale(market, 1.7),
        "image": nonneg_matrix_image(base, np.array([[1.0, 0.2], [0.0, 1.5]])),
        "lifted": lift(market, [2, 0], 3),
        "sum": minkowski_sum(base, market),
        "aggregate": aggregate([(base, [0, 1]), (market, [1, 2])], 3),
    }


@pytest.fixture(params=list(composed_sets()))
def composed(request):
    return composed_sets()[request.param]


def test_composed_contains_zero(composed):
    assert composed.contains(np.zeros(composed.dim))


def test_composed_downward_closed(composed, rng):
    for x in sample_members(composed, rng, 25):
        d = rng.exponential(0.3, size=composed.dim)
        assert composed.contains(x - d, 1e-8)


def test_composed_dilation(composed, rng):
    for x in sample_members(composed, rng, 25):
        assert composed.contains(rng.uniform(0, 1) * x, 1e-8)


def test_composed_support_homogeneous(composed, rng):
    for _ in range(20):
        xi = rng.uniform(0, 2, size=composed.dim)
        alpha = rng.uniform(0, 3)
        assert composed.support(alpha * xi).value == pytest.approx(
            alpha * composed.support(xi).value, rel=1e-8, abs=1e-12)


def test_direction_fan_shapes():
    fan2 = direction_fan(2)
    assert fan2.shape[0] == 722 and np.all(fan2 >= 0)
    fan4 = direction_fan(4)
    assert fan4.shape[1] == 4 and np.all(fan4 >= -1e-15)
    assert np.allclose(np.linalg.norm(fan4, axis=1), 1.0)


def test_direction_fan_is_scipys_halton_fan():
    # scipy, a test dependency only, is the reference for the in-tree
    # radical inverse: the same points, bit for bit
    from scipy.stats import qmc

    for dim in range(1, 61):
        reference = qmc.Halton(d=dim, scramble=False).random(FAN_SIZE)
        assert np.array_equal(_halton(dim, FAN_SIZE), reference), dim
        if dim < 3:
            continue
        pts = reference[1:]
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-12]
        fan = np.vstack([pts / np.linalg.norm(pts, axis=1, keepdims=True), np.eye(dim)])
        assert np.array_equal(direction_fan(dim), fan), dim
