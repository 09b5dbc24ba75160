import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexflow.sets import (CappedConcaveEdge, HalfLineEdge, LinearTickEdge,
                             PiecewiseLinearGain, ProductMarketEdge, RationalGain)

from conftest import builtin_families
from oracles import grid_support, sample_members


class TestCappedConcaveEdge:
    def setup_method(self):
        self.edge = CappedConcaveEdge(capacity=1.0)

    def test_boundary_point_is_member(self):
        # one unit in, h(1) = 1/2 out
        assert self.edge.contains([-1.0, 0.5])

    def test_zero_is_member(self):
        assert self.edge.contains([0.0, 0.0])

    def test_over_capacity_output_rejected(self):
        # input is capped at 1, so 1 > h(1) = 1/2 units out is infeasible
        assert not self.edge.contains([-2.0, 1.0])

    def test_support_at_steep_price(self):
        # grid oracle over w in [0, 1] of -w + 4 w/(1+w): optimum at w = 1
        value, point = self.edge.support([1.0, 4.0])
        assert value == pytest.approx(1.0, abs=1e-12)
        assert point == pytest.approx([-1.0, 0.5])
        assert self.edge.contains(point)

    def test_support_at_flat_price(self):
        # derivative -1 + 1/(1+w)^2 <= 0 on [0, 1]: stay at zero flow
        value, point = self.edge.support([1.0, 1.0])
        assert value == 0.0
        assert point == pytest.approx([0.0, 0.0])

    def test_support_zero_price(self):
        value, point = self.edge.support([0.0, 0.0])
        assert value == 0.0 and point == pytest.approx([0.0, 0.0])

    def test_gauge_on_boundary(self):
        assert self.edge.gauge([-1.0, 0.5]) == pytest.approx(1.0, abs=1e-8)

    def test_gauge_at_zero(self):
        assert self.edge.gauge([0.0, 0.0]) == 0.0

    def test_gauge_recession_direction(self):
        # the nonpositive orthant is recessive under downward closure
        assert self.edge.gauge([-1.0, -1.0]) <= 1e-8

    def test_negative_price_diverges(self):
        assert self.edge.support([-1.0, 2.0]).value == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            self.edge.contains([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            self.edge.support([1.0])


class TestPiecewiseLinearGain:
    def test_requires_strictly_decreasing_slopes(self):
        with pytest.raises(ValueError):
            PiecewiseLinearGain([(1.0, 1.0), (2.0, 2.0)])  # equal slopes

    def test_requires_increasing_inputs(self):
        with pytest.raises(ValueError):
            PiecewiseLinearGain([(1.0, 1.0), (0.5, 1.2)])

    def test_gain_must_cover_capacity(self):
        gain = PiecewiseLinearGain([(1.0, 1.0)])
        with pytest.raises(ValueError):
            CappedConcaveEdge(gain=gain, capacity=2.0)

    def test_value_interpolates(self):
        gain = PiecewiseLinearGain([(1.0, 2.0), (3.0, 3.0)])
        assert gain.value(0.5) == pytest.approx(1.0)
        assert gain.value(2.0) == pytest.approx(2.5)

    def test_best_input_walks_segments(self):
        gain = PiecewiseLinearGain([(1.0, 2.0), (3.0, 3.0)])
        # second segment has slope 1/2: worth entering only if price ratio allows
        assert gain.best_input(1.0, 1.0, 3.0) == pytest.approx(1.0)
        assert gain.best_input(0.4, 1.0, 3.0) == pytest.approx(3.0)


class TestLinearTickEdge:
    def setup_method(self):
        self.edge = LinearTickEdge(price=2.0, cap=1.0)

    def test_closed_form_support(self):
        for xi in ([1.0, 1.0], [3.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.5, 2.0]):
            expected = self.edge.cap * max(0.0, self.edge.price * xi[1] - xi[0])
            assert self.edge.support(xi).value == pytest.approx(expected, abs=1e-10)

    def test_membership_of_segment(self):
        assert self.edge.contains([-0.5, 1.0])
        assert not self.edge.contains([-0.5, 1.1])
        assert self.edge.contains([-2.0, 2.0])  # input beyond cap, output capped


class TestProductMarketEdge:
    def setup_method(self):
        self.edge = ProductMarketEdge([1.0, 1.0])

    def test_unit_reserves_support(self):
        # grid search on the reserve curve x2 = R2 - k/(R1 - x1)
        value, point = self.edge.support([1.0, 4.0])
        assert value == pytest.approx(1.0, abs=1e-12)
        assert point == pytest.approx([-1.0, 0.5])

    def test_closed_form_matches_grid(self, rng):
        edge = ProductMarketEdge([2.0, 5.0])
        for _ in range(25):
            xi = rng.uniform(0.05, 3.0, size=2)
            value = edge.support(xi).value
            assert value == pytest.approx(grid_support(edge, xi), rel=1e-6, abs=1e-8)

    def test_zero_on_boundary(self):
        assert self.edge.contains([0.0, 0.0])
        assert self.edge.gauge([0.1, 0.1]) == math.inf  # strictly positive is out

    def test_single_zero_price_unattained(self):
        value, point = self.edge.support([0.0, 1.0])
        assert value == pytest.approx(1.0)
        assert point is None

    def test_tiny_market_contains_its_own_maximizer(self):
        # k = 1e-20, far below the tolerance: the product test still holds
        # the kernel's point on the reserve curve
        edge = ProductMarketEdge([1e-10, 1e-10])
        point = edge.kernel([1.0, 2.0])[1]
        assert point[0] < 0.0 < point[1]
        assert edge.contains(point)


class TestHalfLineEdge:
    def test_oracles(self):
        edge = HalfLineEdge(3.0)
        assert edge.contains([3.0]) and edge.contains([-100.0])
        assert not edge.contains([3.1])
        assert edge.support([2.0]) == (6.0, pytest.approx([3.0]))
        assert edge.support([-1.0]).value == math.inf
        assert edge.gauge([1.5]) == pytest.approx(0.5)
        assert edge.gauge([-1.0]) == 0.0


# ---------------------------------------------------------------------------
# family-wide property suites
# ---------------------------------------------------------------------------

def test_zero_is_always_member(family_set):
    assert family_set.contains(np.zeros(family_set.dim))


def test_downward_closure_sampled(family_set, rng):
    for x in sample_members(family_set, rng, 60):
        d = rng.exponential(0.4, size=family_set.dim)
        assert family_set.contains(x - d), (x, d)


def test_dilation_sampled(family_set, rng):
    for x in sample_members(family_set, rng, 60):
        alpha = rng.uniform(0.0, 1.0)
        assert family_set.contains(alpha * x)


def test_convexity_sampled(family_set, rng):
    points = sample_members(family_set, rng, 40)
    for _ in range(60):
        i, j = rng.integers(0, len(points), size=2)
        theta = rng.uniform()
        assert family_set.contains(theta * points[i] + (1 - theta) * points[j])


def test_maximizer_is_member_and_achieves_value(family_set, rng):
    for _ in range(50):
        xi = rng.uniform(0.05, 2.0, size=family_set.dim)
        value, point = family_set.support(xi)
        assert math.isfinite(value)
        if point is None:
            continue
        assert family_set.contains(point, 1e-8)
        assert xi @ point == pytest.approx(value, abs=1e-9 * (1 + abs(value)))


def test_support_homogeneous(family_set, rng):
    for _ in range(40):
        xi = rng.uniform(0.0, 2.0, size=family_set.dim)
        alpha = rng.uniform(0.0, 3.0)
        lhs = family_set.support(alpha * xi).value
        rhs = alpha * family_set.support(xi).value
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)


def test_support_monotone_along_price_rays(family_set, rng):
    # support values are nonnegative and homogeneous, so scaling a price
    # up can only scale the support up
    for _ in range(40):
        xi = rng.uniform(0.0, 2.0, size=family_set.dim)
        a, b = sorted(rng.uniform(0.0, 3.0, size=2))
        assert (family_set.support(a * xi).value
                <= family_set.support(b * xi).value + 1e-9)


def test_gauge_homogeneous(family_set, rng):
    for x in sample_members(family_set, rng, 25):
        g = family_set.gauge(x)
        if not math.isfinite(g):
            continue
        alpha = rng.uniform(0.1, 3.0)
        assert family_set.gauge(alpha * x) == pytest.approx(alpha * g, abs=1e-7)


def test_membership_iff_gauge_at_most_one(family_set, rng):
    for x in sample_members(family_set, rng, 40):
        g = family_set.gauge(x)
        if g <= 1e-8:  # recession direction: level-set relation does not apply
            continue
        assert family_set.contains(x) == (g <= 1.0 + 1e-7), (x, g)
        outside = x * (1.5 / g)
        assert not family_set.contains(outside, 1e-9) or family_set.gauge(outside) <= 1 + 1e-6


def test_support_against_grid_oracle(family_set, rng):
    for _ in range(15):
        xi = rng.uniform(0.05, 2.5, size=family_set.dim)
        value = family_set.support(xi).value
        oracle = grid_support(family_set, xi)
        assert value == pytest.approx(oracle, rel=1e-6, abs=1e-7)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.0, 10.0), w1=st.floats(0.0, 5.0), w2=st.floats(0.0, 5.0))
def test_tick_support_closed_form_everywhere(a, w1, w2):
    edge = LinearTickEdge(price=1.3, cap=0.7)
    xi = np.array([w1, w2]) * a
    expected = edge.cap * max(0.0, edge.price * xi[1] - xi[0])
    assert abs(edge.support(xi).value - expected) <= 1e-10 * (1 + expected)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.0, 4.0), w=st.floats(0.05, 1.0))
def test_capped_gauge_scales(alpha, w):
    # frontier points of the strictly concave gain have gauge exactly 1,
    # so scaling by alpha scales the gauge to alpha; the accuracy floor is
    # the membership tolerance divided by the local curvature gap
    edge = CappedConcaveEdge(capacity=1.0)
    x = np.array([-w, edge.gain.value(w)])
    g = edge.gauge(alpha * x, 1e-10)
    assert abs(g - alpha) <= 1e-5 * (1 + alpha)


def test_upper_bounds_hold(family_set, rng):
    for x in sample_members(family_set, rng, 40):
        assert np.all(x <= family_set.upper_bound + 1e-9)


# ---------------------------------------------------------------------------
# membership reads its point as floats (``sets._floats``)
# ---------------------------------------------------------------------------

def _beyond(bound: float, times: float = 1.0) -> float:
    """``bound`` plus ``times`` its scaled tolerance at the default 1e-9."""
    return bound + times * 1e-9 * max(1.0, abs(bound))


_NAN, _INF = math.nan, math.inf
_RATIONAL_OUT = RationalGain().value(1.0)
_TICK_OUT = 0.9 * 1.5

# (family, point, member): at a bound, at its tolerance, one tolerance
# beyond it, NaN and infinite entries, and an infinite cap
CONTAINS_CASES = [
    ("capped_rational", [-1.0, _RATIONAL_OUT], True),
    ("capped_rational", [-1.0, _beyond(_RATIONAL_OUT)], True),
    ("capped_rational", [-1.0, _beyond(_RATIONAL_OUT, 2.0)], False),
    ("capped_rational", [-5.0, _RATIONAL_OUT], True),
    ("capped_rational", [1e-9, 0.0], True),
    ("capped_rational", [2e-9, 0.0], False),
    ("capped_rational", [_NAN, 0.0], False),
    ("capped_rational", [0.0, _NAN], False),
    ("capped_rational", [-_INF, _RATIONAL_OUT], True),
    ("capped_piecewise", [-0.4, 0.5], True),
    ("capped_piecewise", [-0.4, _beyond(0.5, 2.0)], False),
    ("capped_piecewise", [-3.0, 1.0], True),
    ("capped_piecewise", [-3.0, _beyond(1.0, 2.0)], False),
    ("linear_tick", [-1.5, _TICK_OUT], True),
    ("linear_tick", [-1.5, _beyond(_TICK_OUT)], True),
    ("linear_tick", [-1.5, _beyond(_TICK_OUT, 2.0)], False),
    ("linear_tick", [2e-9, 0.0], False),
    ("linear_tick", [_NAN, 0.0], False),
    ("linear_tick", [-1.0, _NAN], False),
    ("linear_tick", [-_INF, _TICK_OUT], True),
    ("product_market", [-2.0, 2.5], True),     # (2 + 2)(5 - 2.5) = k = 10
    ("product_market", [-2.0, 2.5 + 1e-9], True),
    ("product_market", [-2.0, 2.5 + 5e-9], False),
    ("product_market", [_beyond(2.0), -1e300], False),
    ("product_market", [_beyond(2.0, 2.0), -1e300], False),
    ("product_market", [0.0, _beyond(5.0, 2.0)], False),
    ("product_market", [_NAN, 0.0], False),
    ("product_market", [-_INF, 0.0], True),
    ("product_market", [-_INF, 5.0], False),   # inf * 0 is NaN
    # k = 1e-20: the product's tolerance is relative to k however small, so
    # draining both reserves (product 0) is refused as for any market
    ("tiny_market", [1.0, 0.0], False),
    ("tiny_market", [0.0, 1.0], False),
    ("tiny_market", [0.0, 0.0], True),
    ("tiny_market", [1e-10, 1e-10], False),
    ("half_line", [3.0], True),
    ("half_line", [_beyond(3.0)], True),
    ("half_line", [_beyond(3.0, 2.0)], False),
    ("half_line", [-_INF], True),
    ("half_line", [_INF], False),
    ("half_line", [_NAN], False),
    ("infinite_cap", [1e308], True),
    ("infinite_cap", [_INF], True),
    ("infinite_cap", [_NAN], False),
    ("zero_cap", [1e-9], True),
    ("zero_cap", [2e-9], False),
]


def _contains_family(name):
    sets = {**builtin_families(), "infinite_cap": HalfLineEdge(math.inf),
            "zero_cap": HalfLineEdge(0.0), "tiny_market": ProductMarketEdge([1e-10, 1e-10])}
    return sets[name]


class TestContainsReadsFloats:
    """Each family's ``contains`` answers the same for every form of its
    point: a list (read as it is), a tuple, a numpy array and, at
    dimension 1, a scalar."""

    @pytest.mark.parametrize("name, point, member", CONTAINS_CASES)
    def test_every_form_gives_the_same_answer(self, name, point, member):
        the_set = _contains_family(name)
        forms = [list(point), tuple(point), np.array(point)]
        if the_set.dim == 1:
            forms += [point[0], np.float64(point[0]), np.array(point[0])]
        for form in forms:
            assert the_set.contains(form) == member, form

    @pytest.mark.parametrize("name", [*builtin_families(), "infinite_cap"])
    def test_wrong_lengths_are_refused(self, name):
        the_set = _contains_family(name)
        for n in (0, the_set.dim + 1, the_set.dim + 2):
            for form in ([0.0] * n, (0.0,) * n, np.zeros(n)):
                with pytest.raises(ValueError, match="expected a vector of length"):
                    the_set.contains(form)
        if the_set.dim == 2:
            with pytest.raises(ValueError, match="expected a vector of length"):
                the_set.contains(0.0)

    @pytest.mark.parametrize("name, points, gauges", [
        ("capped_rational", [[-0.5, 0.2], [-3.0, 0.9], [0.0, 0.1]],
         ["0x1.9999998800000p-2", "0x1.ccccccc600000p+0", "inf"]),
        ("capped_piecewise", [[-0.5, 0.3], [-3.0, 2.0], [-0.1, 0.0]],
         ["0x1.5555554800000p-2", "0x1.2aaaaaa700000p+1", "0x1.0000000000000p-31"]),
        ("linear_tick", [[-1.0, 0.5], [-0.2, 1.0], [0.3, 0.1]],
         ["0x1.7b425ec800000p-2", "inf", "inf"]),
        ("product_market", [[-1.0, 1.5], [1.0, -3.0], [1.5, 1.0]],
         ["0x1.7fffffe400000p-1", "0x1.7fffffbf00000p+1", "inf"]),
        ("half_line", [[1.0], [4.5], [-1.0]],
         ["0x1.5555555555555p-2", "0x1.8000000000000p+0", "0x0.0p+0"]),
    ])
    def test_gauge_values_are_kept(self, name, points, gauges):
        # the bisection gauge reads membership at numpy points; these are
        # its values, bit for bit, from before membership read floats
        the_set = _contains_family(name)
        for point, expected in zip(points, gauges):
            for form in (point, np.array(point)):
                assert float(the_set.gauge(form)).hex() == expected
