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

    Each applies to a document with at least one edge on nodes other than
    (-1, 0).
    """
    def edge_field(key, value):
        return lambda doc: doc["edges"][0].__setitem__(key, value)

    return {
        "string_fee": (edge_field("fee", "0.5"), "fee must be a real number"),
        "nan_fee": (edge_field("fee", float("nan")), "fee must be finite"),
        "negative_node": (edge_field("nodes", [-1, 0]), "edge node must be nonnegative"),
        "fractional_n": (lambda doc: doc.__setitem__("n", 2.7), "n must be an integer"),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20240913)


@pytest.fixture(params=list(builtin_families()))
def family_set(request):
    return builtin_families()[request.param]
