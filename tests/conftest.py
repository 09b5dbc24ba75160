import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from convexflow.sets import (CappedConcaveEdge, HalfLineEdge, LinearTickEdge,
                             PiecewiseLinearGain, ProductMarketEdge)


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
