import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from convexflow.calculus import minkowski_sum
from convexflow.model import Edge, Instance, QuadraticUtility
from convexflow.sets import (CappedConcaveEdge, HalfLineEdge, LinearTickEdge,
                             PiecewiseLinearGain, ProductMarketEdge, RationalGain)

# the edge kinds of a mixed fee instance: every built-in family, the capped
# family with each gain, and a Minkowski sum
MIXED_KINDS = ("capped_rational", "capped_piecewise", "linear_tick", "product_market",
               "half_line", "minkowski_sum")


def builtin_families():
    """One representative per built-in edge-set family."""
    return {
        "capped_rational": CappedConcaveEdge(capacity=1.0),
        "capped_piecewise": CappedConcaveEdge(
            gain=PiecewiseLinearGain([(0.4, 0.5), (1.0, 0.8), (2.0, 1.0)]),
            capacity=2.0),
        "linear_tick": LinearTickEdge(price=0.9, cap=1.5),
        "product_market": ProductMarketEdge([2.0, 5.0]),
        "half_line": HalfLineEdge(3.0),
    }


def mixed_instance(rng, n, kinds, fee_high=0.4):
    """A fee instance with one edge per kind on random nodes, fees uniform
    in [0, fee_high) and a quadratic utility, drawn from the ranges of the
    benchmark's mixed instances."""
    def uniform(lo, hi):
        return float(rng.uniform(lo, hi))

    def make(kind):
        if kind == "capped_rational":
            return CappedConcaveEdge(gain=RationalGain(), capacity=uniform(0.5, 2.0))
        if kind == "capped_piecewise":
            cap = uniform(0.5, 1.5)
            return CappedConcaveEdge(
                gain=PiecewiseLinearGain([(0.5 * cap, 0.6 * cap), (2.0 * cap, cap)]), capacity=cap)
        if kind == "linear_tick":
            return LinearTickEdge(price=uniform(0.5, 2.0), cap=uniform(0.5, 2.0))
        if kind == "product_market":
            return ProductMarketEdge([uniform(1.0, 5.0), uniform(1.0, 5.0)])
        if kind == "half_line":
            return HalfLineEdge(uniform(0.5, 2.0))
        if kind == "minkowski_sum":
            return minkowski_sum(make("capped_rational"), make("linear_tick"))
        raise ValueError(f"unknown edge kind {kind!r}")

    edges = []
    for kind in kinds:
        the_set = make(kind)
        nodes = tuple(int(v) for v in rng.choice(n, size=the_set.dim, replace=False))
        edges.append(Edge(the_set, nodes, fee=uniform(0.0, fee_high)))
    return Instance(n=n, edges=tuple(edges),
                    utility=QuadraticUtility([uniform(0.5, 1.5) for _ in range(n)],
                                             uniform(0.1, 0.5)))


def invalid_document_edits():
    """Edits that make a valid instance document invalid, by name, each with
    the words its error message must hold.

    Each applies to a document with at least two nodes and at least one
    edge on nodes other than (-1, 0).
    """
    nan, inf = float("nan"), float("inf")

    def edge_field(key, value):
        return lambda doc: doc["edges"][0].__setitem__(key, value)

    def first_edge(kind, params, nodes=(0, 1)):
        return lambda doc: doc["edges"].__setitem__(
            0, {"kind": kind, "params": params, "nodes": list(nodes), "fee": 0.0})

    def utility(make):
        return lambda doc: doc.__setitem__("utility", make(doc["n"]))

    def drop(key):
        return lambda doc: doc["edges"][0].pop(key)

    def reserves(value):
        return first_edge("product_market", {"reserves": value})

    def gain(points):
        return first_edge("capped_concave", {
            "capacity": 1.0, "gain": {"kind": "piecewise_linear", "points": points}})

    def capped(capacity, points=((0.5, 0.6), (2.0, 1.0))):
        return first_edge("capped_concave", {
            "capacity": capacity,
            "gain": {"kind": "piecewise_linear", "points": [list(p) for p in points]}})

    return {
        "string_fee": (edge_field("fee", "0.5"), "fee must be a real number"),
        "nan_fee": (edge_field("fee", nan), "fee must be finite"),
        "negative_node": (edge_field("nodes", [-1, 0]), "edge node must be nonnegative"),
        "fractional_n": (lambda doc: doc.__setitem__("n", 2.7), "n must be an integer"),
        "nan_reserve": (first_edge("product_market", {"reserves": [nan, 1.0]}),
                        "reserves must be two positive finite numbers"),
        "inf_reserve": (first_edge("product_market", {"reserves": [1.0, inf]}),
                        "reserves must be two positive finite numbers"),
        "overflowing_reserves": (first_edge("product_market", {"reserves": [1e200, 1e200]}),
                                 "'product_market': reserves must have a positive finite product"),
        "nan_weight": (utility(lambda n: {"kind": "linear", "c": [nan] + [1.0] * (n - 1)}),
                       "c must hold finite numbers"),
        "nan_mu": (utility(lambda n: {"kind": "quadratic", "c": [1.0] * n, "mu": nan}),
                   "mu must be positive and finite"),
        "inf_mu": (utility(lambda n: {"kind": "quadratic", "c": [1.0] * n, "mu": inf}),
                   "mu must be positive and finite"),
        "nan_edge_utility": (edge_field("edge_utility", [nan, 0.0]),
                             "edge utilities are not supported"),
        "nan_tick_price": (first_edge("linear_tick", {"price": nan, "cap": 1.0}),
                           "price and cap must be positive and finite"),
        "nan_capacity": (capped(nan), "capacity must be positive and finite"),
        "nan_half_line_cap": (first_edge("half_line", {"cap": nan}, nodes=(0,)),
                              "cap must be nonnegative"),
        "nan_threshold": (utility(lambda n: {"kind": "threshold", "b": nan}),
                          "b must be finite"),
        "nan_gain_point": (capped(1.0, points=((0.5, nan), (2.0, 1.0))),
                           "breakpoints must be finite numbers"),
        # JSON true is a number to Python (True == 1); every numeric field refuses it
        "bool_version": (lambda doc: doc.__setitem__("version", True),
                         "unsupported document version"),
        "bool_n": (lambda doc: doc.__setitem__("n", True), "n must be an integer"),
        "bool_node": (edge_field("nodes", [0, True]), "edge node must be an integer"),
        "bool_fee": (edge_field("fee", True), "fee must be a real number"),
        "bool_edge_utility": (edge_field("edge_utility", [True, 0.0]),
                              "edge utilities are not supported"),
        "bool_weight": (utility(lambda n: {"kind": "linear", "c": [True] + [1.0] * (n - 1)}),
                        "c must be a real number"),
        "bool_mu": (utility(lambda n: {"kind": "quadratic", "c": [1.0] * n, "mu": True}),
                    "mu must be a real number"),
        "bool_threshold": (utility(lambda n: {"kind": "threshold", "b": True}),
                           "b must be a real number"),
        "bool_reserve": (first_edge("product_market", {"reserves": [True, 2.0]}),
                         "reserves must be a real number"),
        "bool_tick_price": (first_edge("linear_tick", {"price": True, "cap": 1.0}),
                            "price must be a real number"),
        "bool_tick_cap": (first_edge("linear_tick", {"price": 1.0, "cap": True}),
                          "cap must be a real number"),
        "bool_capacity": (capped(True), "capacity must be a real number"),
        "bool_half_line_cap": (first_edge("half_line", {"cap": True}, nodes=(0,)),
                               "cap must be a real number"),
        "bool_gain_point": (capped(1.0, points=((0.5, True), (2.0, 1.0))),
                            "gain point must be a real number"),
        # every refusal names its field: nodes, fees and reserves of each wrong
        # type, value or length, a missing key, a value that is not an array
        "float_node": (edge_field("nodes", [0.0, 1]), "edge node must be an integer, got 0.0"),
        "string_node": (edge_field("nodes", ["0", 1]), "edge node must be an integer, got '0'"),
        "duplicate_node": (edge_field("nodes", [1, 1]), "edge 0: edge nodes must be distinct"),
        "extra_node": (edge_field("nodes", [0, 1, 2]), "need one node per flow-set coordinate"),
        "scalar_nodes": (edge_field("nodes", 3), "edge 0: nodes must be an array, got 3"),
        "null_nodes": (edge_field("nodes", None), "edge 0: nodes must be an array, got None"),
        "missing_nodes": (drop("nodes"), "edge 0: missing field 'nodes'"),
        "out_of_range_node": (edge_field("nodes", [0, 99]), "edge 0: nodes must be less than n"),
        "inf_fee": (edge_field("fee", inf), "fee must be finite and nonnegative, got inf"),
        "negative_fee": (edge_field("fee", -0.1), "fee must be finite and nonnegative, got -0.1"),
        "huge_integer_fee": (edge_field("fee", 10 ** 400),
                             "edge 0: fee is an integer too large for a float"),
        "string_reserve": (reserves(["1", 2.0]), "reserves must be a real number, got '1'"),
        "three_reserves": (reserves([1.0, 2.0, 3.0]),
                           "reserves must be two positive finite numbers"),
        "zero_reserve": (reserves([0.0, 2.0]), "reserves must be two positive finite numbers"),
        "nested_reserves": (reserves([[1.0, 2.0], 3.0]),
                            "reserves must be a real number, got [1.0, 2.0]"),
        "huge_integer_reserve": (reserves([10 ** 400, 2.0]),
                                 "reserves is an integer too large for a float"),
        "scalar_reserves": (reserves(3), "'product_market': reserves must be an array, got 3"),
        "missing_reserves": (first_edge("product_market", {}),
                             "'product_market': missing field 'reserves'"),
        "missing_params": (drop("params"), "edge 0: missing field 'params'"),
        "array_params": (edge_field("params", [2.0, 3.0]), "set params must be an object"),
        "null_params": (edge_field("params", None), "set params must be an object"),
        "scalar_points": (gain(3), "'capped_concave': points must be an array, got 3"),
        "long_gain_point": (gain([[0.5, 0.6, 0.7], [2.0, 1.0]]),
                            "gain point must be two numbers, got [0.5, 0.6, 0.7]"),
        "scalar_gain_point": (gain([0.5, [2.0, 1.0]]), "gain point must be an array, got 0.5"),
        "missing_points": (first_edge("capped_concave", {"capacity": 1.0,
                                                         "gain": {"kind": "piecewise_linear"}}),
                           "'capped_concave': missing field 'points'"),
        "scalar_weights": (utility(lambda n: {"kind": "linear", "c": 3}),
                           "'linear': c must be an array, got 3"),
        "missing_weights": (utility(lambda n: {"kind": "linear"}), "'linear': missing field 'c'"),
        # the schema is closed: a key outside an object's allowed set is refused by name
        "misspelled_fee": (edge_field("fees", 9.0), "edge 0: unknown key 'fees'"),
        "misspelled_edge_utility": (edge_field("edge_utilty", [5.0]),
                                    "edge 0: unknown key 'edge_utilty'"),
        "threshold_mu": (utility(lambda n: {"kind": "threshold", "b": 1.0, "mu": 3}),
                         "utility kind 'threshold': unknown key 'mu'"),
        "extra_top_level_key": (lambda doc: doc.__setitem__("extra", 1),
                                "instance document: unknown key 'extra'"),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20240913)


@pytest.fixture(params=list(builtin_families()))
def family_set(request):
    return builtin_families()[request.param]
