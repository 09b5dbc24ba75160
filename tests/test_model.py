import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexflow.model as model
from convexflow.conic import FlowCone
from convexflow.errors import SchemaError
from convexflow.model import (Edge, Instance, LinearUtility, QuadraticUtility,
                              ThresholdUtility, net_flow, node_degrees)
from convexflow.sets import (CappedConcaveEdge, HalfLineEdge, LinearTickEdge,
                             PiecewiseLinearGain, ProductMarketEdge, scaled_tol)
from convexflow.solver import dual_value_and_gradient

from conftest import invalid_document_edits
from oracles import OrthantBoxSet, central_difference, dense_degree


def hypergraph_instance():
    # four nodes; edges touching {0,2,3}, {0,2}, {1,3}
    return Instance(
        n=4,
        edges=(
            Edge(OrthantBoxSet([1.0, 1.0, 1.0]), (0, 2, 3)),
            Edge(OrthantBoxSet([1.0, 1.0]), (0, 2)),
            Edge(OrthantBoxSet([1.0, 1.0]), (1, 3)),
        ),
        utility=LinearUtility([1.0, 1.0, 1.0, 1.0]),
    )


class TestNetFlow:
    def test_three_edge_hypergraph(self):
        inst = hypergraph_instance()
        y = net_flow(inst, [np.ones(3), np.ones(2), np.ones(2)])
        assert y == pytest.approx([2.0, 1.0, 2.0, 2.0])

    def test_zero_flows(self):
        inst = hypergraph_instance()
        assert net_flow(inst, [np.zeros(3), np.zeros(2), np.zeros(2)]) == \
            pytest.approx(np.zeros(4))

    def test_single_edge_scatter(self):
        inst = Instance(n=4, edges=(Edge(CappedConcaveEdge(capacity=1.0), (0, 2)),),
                        utility=LinearUtility(np.ones(4)))
        y = net_flow(inst, [np.array([-1.0, 0.5])])
        assert y == pytest.approx([-1.0, 0.0, 0.5, 0.0])

    def test_dimension_mismatch(self):
        inst = hypergraph_instance()
        with pytest.raises(ValueError):
            net_flow(inst, [np.ones(2), np.ones(2), np.ones(2)])


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_net_flow_is_linear(a, b):
    inst = hypergraph_instance()
    x1 = [np.arange(1.0, 4.0), np.array([2.0, -1.0]), np.array([0.5, 0.5])]
    x2 = [np.ones(3), np.array([-1.0, 3.0]), np.array([2.0, 0.0])]
    combo = [a * u + b * v for u, v in zip(x1, x2)]
    lhs = net_flow(inst, combo)
    rhs = a * net_flow(inst, x1) + b * net_flow(inst, x2)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * (1 + np.abs(rhs)))


class TestDegrees:
    def test_hypergraph_degrees(self):
        assert node_degrees(hypergraph_instance()) == pytest.approx([2, 1, 2, 2])

    def test_single_edge_over_all_nodes(self):
        inst = Instance(n=3, edges=(Edge(OrthantBoxSet(np.ones(3)), (0, 1, 2)),),
                        utility=LinearUtility(np.ones(3)))
        assert node_degrees(inst) == pytest.approx([1, 1, 1])

    def test_matches_dense_selector_products(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 20))
            edges = []
            for _ in range(int(rng.integers(1, 8))):
                k = int(rng.integers(1, min(n, 4) + 1))
                nodes = tuple(rng.choice(n, size=k, replace=False).tolist())
                edges.append(Edge(OrthantBoxSet(np.ones(k)), nodes))
            inst = Instance(n=n, edges=tuple(edges), utility=LinearUtility(np.ones(n)))
            assert node_degrees(inst) == pytest.approx(dense_degree(inst))


class TestConjugates:
    def test_quadratic_closed_form(self):
        u = QuadraticUtility([1.0, 0.0], 1.0)
        value, y = u.conjugate([0.0, 0.0])
        assert value == pytest.approx(0.5)
        assert y == pytest.approx([1.0, 0.0])

    def test_quadratic_at_matching_price(self):
        u = QuadraticUtility([1.0, 0.0], 1.0)
        value, y = u.conjugate([1.0, 0.0])
        assert value == 0.0
        assert y == pytest.approx([0.0, 0.0])

    def test_quadratic_stationarity_finite_difference(self, rng):
        u = QuadraticUtility(rng.uniform(0, 2, size=3), 0.7)
        nu = rng.uniform(0, 2, size=3)
        value, y = u.conjugate(nu)
        assert u.value(y) - nu @ y == pytest.approx(value, abs=1e-10)
        grad = central_difference(lambda z: u.value(z) - nu @ z, y)
        assert np.abs(grad).max() <= 1e-6

    def test_linear_domain_is_single_point(self):
        u = LinearUtility([1.0, 2.0])
        assert u.conjugate([1.0, 2.0])[0] == 0.0
        assert u.conjugate([1.0, 2.1])[0] == math.inf

    def test_threshold_conjugate(self):
        u = ThresholdUtility(5.0)
        value, y = u.conjugate([2.0])
        assert value == pytest.approx(-10.0)
        assert y == pytest.approx([5.0])
        assert u.conjugate([-0.5])[0] == math.inf

    def test_threshold_value(self):
        u = ThresholdUtility(5.0)
        assert u.value([5.0]) == 0.0
        assert u.value([7.0]) == 0.0
        assert u.value([4.0]) == -math.inf

    def test_conjugate_maximizer_consistency(self, rng):
        # the returned maximizer must achieve the conjugate value
        for u in (QuadraticUtility(rng.uniform(0, 2, 4), 0.3), ThresholdUtility(2.0)):
            nu = rng.uniform(0, 1.5, size=u.dim)
            value, y = u.conjugate(nu)
            if y is not None:
                assert u.value(y) - nu @ y == pytest.approx(value, abs=1e-10)


class TestFloatValues:
    """``value`` computes on floats and agrees with ``values`` on the same
    row: bit for bit for the threshold, within 1e-12 relative otherwise."""

    UTILITIES = {"linear": LinearUtility([1.5, -0.7, 2.0]),
                 "quadratic": QuadraticUtility([1.5, 0.7, 2.0], 0.3),
                 "threshold": ThresholdUtility(5.0)}

    def assert_agrees(self, u, row):
        expected = float(u.values(np.array([row], dtype=float))[0])
        vector = np.array(row, dtype=float)
        inputs = [list(row), vector] + ([float(row[0])] if u.dim == 1 else [])
        for y in inputs:
            got = u.value(y)
            assert type(got) is float
            if isinstance(u, ThresholdUtility) or not math.isfinite(expected):
                assert got.hex() == expected.hex()
            else:
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("name", sorted(UTILITIES))
    def test_random_rows(self, rng, name):
        u = self.UTILITIES[name]
        for _ in range(50):
            self.assert_agrees(u, [float(v) for v in rng.uniform(-10.0, 10.0, u.dim)])

    @pytest.mark.parametrize("name", sorted(UTILITIES))
    def test_nan_entry(self, name):
        u = self.UTILITIES[name]
        self.assert_agrees(u, [math.nan] + [1.0] * (u.dim - 1))

    def test_threshold_boundary(self):
        for b in (5.0, -3.0, 0.0, 1e12):
            u = ThresholdUtility(b)
            edge = b - scaled_tol(1e-9, b)
            for y in (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)):
                self.assert_agrees(u, [y])
            assert u.value([edge]) == 0.0
            assert u.value([math.nextafter(edge, -math.inf)]) == -math.inf

    @pytest.mark.parametrize("name", sorted(UTILITIES))
    def test_wrong_length_is_refused(self, name):
        u = self.UTILITIES[name]
        for y in ([1.0] * (u.dim + 1), np.ones(u.dim + 1), []):
            with pytest.raises(ValueError):
                u.value(y)


class TestDualView:
    """The dual side of an instance through the direct calls: degrees, the
    polar-cone oracles and the dual objective."""

    def test_single_edge_degrees(self):
        inst = Instance(n=2, edges=(Edge(CappedConcaveEdge(capacity=1.0), (0, 1)),),
                        utility=LinearUtility([1.0, 4.0]))
        assert node_degrees(inst) == pytest.approx([1, 1])

    def test_linear_dual_objective_reduces_to_supports(self):
        c = np.array([1.0, 4.0])
        inst = Instance(n=2,
                        edges=(Edge(CappedConcaveEdge(capacity=1.0), (0, 1)),
                               Edge(ProductMarketEdge([1.0, 1.0]), (0, 1))),
                        utility=LinearUtility(c))
        expected = sum(e.flow_set.support(c).value for e in inst.edges)
        assert dual_value_and_gradient(inst, c)[0] == pytest.approx(expected)

    def test_polar_oracles_wired(self):
        polar_contains = FlowCone(CappedConcaveEdge(capacity=1.0)).polar_contains
        assert polar_contains([1.0, 4.0, 1.0])
        assert not polar_contains([1.0, 4.0, 0.5])

    def test_weak_duality_sampled(self, rng):
        inst = Instance(n=2,
                        edges=(Edge(ProductMarketEdge([2.0, 3.0]), (0, 1), fee=0.2),
                               Edge(CappedConcaveEdge(capacity=1.0), (1, 0), fee=0.1)),
                        utility=QuadraticUtility([1.0, 1.2], 0.5))
        for _ in range(1000):
            nu = rng.uniform(0.0, 2.5, size=2)
            dual = dual_value_and_gradient(inst, nu)[0]
            flows, lams = [], []
            for edge in inst.edges:
                point = edge.flow_set.support(rng.uniform(0.1, 2, 2)).point
                if point is None or rng.random() < 0.3:
                    flows.append(np.zeros(2))
                    lams.append(0.0)
                else:
                    flows.append(point * rng.uniform(0, 1))
                    lams.append(-1.0)
            primal = inst.utility.value(net_flow(inst, flows)) + sum(
                lam * edge.fee for lam, edge in zip(lams, inst.edges))
            assert primal <= dual + 1e-9 * (1 + abs(dual))


class TestEdgeValidation:
    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            Edge(CappedConcaveEdge(capacity=1.0), (1, 1))

    def test_negative_fee_rejected(self):
        with pytest.raises(ValueError):
            Edge(CappedConcaveEdge(capacity=1.0), (0, 1), fee=-0.1)

    def test_node_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Instance(n=2, edges=(Edge(CappedConcaveEdge(capacity=1.0), (0, 2)),),
                     utility=LinearUtility([1.0, 1.0]))

    @pytest.mark.parametrize("fee", [math.nan, math.inf])
    def test_nonfinite_fee_rejected(self, fee):
        with pytest.raises(ValueError):
            Edge(CappedConcaveEdge(capacity=1.0), (0, 1), fee=fee)

    @pytest.mark.parametrize("fee", ["0.5", True, None])
    def test_nonnumeric_fee_rejected(self, fee):
        with pytest.raises(TypeError):
            Edge(CappedConcaveEdge(capacity=1.0), (0, 1), fee=fee)

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError):
            Edge(CappedConcaveEdge(capacity=1.0), (-1, 0))

    def test_fractional_node_rejected(self):
        with pytest.raises(TypeError):
            Edge(CappedConcaveEdge(capacity=1.0), (0, 1.5))

    @pytest.mark.parametrize("n", [2.7, 2.0, "2"])
    def test_nonintegral_node_count_rejected(self, n):
        with pytest.raises(TypeError):
            Instance(n=n, edges=(), utility=LinearUtility([1.0, 1.0]))

    def test_numpy_scalars_accepted(self):
        edge = Edge(CappedConcaveEdge(capacity=1.0), tuple(np.arange(2)),
                    fee=np.float64(0.5))
        inst = Instance(n=np.int64(2), edges=(edge,), utility=LinearUtility([1.0, 1.0]))
        assert inst.n == 2 and type(inst.n) is int
        assert edge.nodes == (0, 1) and type(edge.fee) is float
        # numpy-int nodes in an array or a list, and tuple or array reserves
        for nodes in (np.array([0, 1]), [np.int64(0), np.int32(1)]):
            edge = Edge(ProductMarketEdge([2.0, 3.0]), nodes, fee=1)
            assert edge.nodes == (0, 1) and all(type(v) is int for v in edge.nodes)
            assert edge.fee == 1.0 and type(edge.fee) is float
        for reserves in ((2.0, 3.0), np.array([2.0, 3.0]), [np.float64(2.0), 3]):
            market = ProductMarketEdge(reserves)
            assert (market._r1, market._r2) == (2.0, 3.0)
            assert type(market._r1) is float and type(market._r2) is float


class TestSerialization:
    def build(self):
        return Instance(
            n=4,
            edges=(
                Edge(ProductMarketEdge([1.0, 2.0]), (0, 2), fee=0.25),
                Edge(ProductMarketEdge([3.0, 4.0]), (0, 3)),
                Edge(ProductMarketEdge([5.5, 6.5]), (1, 3), fee=1.0),
            ),
            utility=QuadraticUtility([1.0, 0.9, 1.1, 1.2], 0.01),
        )

    def test_round_trip_is_byte_identical(self):
        inst = self.build()
        text = model.dumps(inst)
        again = model.dumps(model.loads(text))
        assert text.encode() == again.encode()

    @pytest.mark.parametrize("reserves", [
        np.array([1.5, 2.25]), [np.float64(0.1), np.float64(7.3)],
        np.array([0.1, 7.3], dtype=np.float32), [2, 3]],
        ids=["float64-array", "float64-scalars", "float32", "int"])
    def test_market_writes_its_checked_floats(self, reserves):
        market = ProductMarketEdge(reserves)
        inst = Instance(n=2, edges=(Edge(market, (0, 1)),), utility=LinearUtility([1.0, 1.0]))
        written = model.to_document(inst)["edges"][0]["params"]["reserves"]
        assert written == [market._r1, market._r2]
        assert all(type(v) is float for v in written)
        assert "reserves" not in vars(market)  # the numpy copy is not built
        text = model.dumps(inst)
        assert model.dumps(model.loads(text)) == text

    def test_all_set_kinds_round_trip(self):
        inst = Instance(
            n=3,
            edges=(
                Edge(CappedConcaveEdge(capacity=2.0), (0, 1)),
                Edge(CappedConcaveEdge(
                    gain=PiecewiseLinearGain([(0.5, 1.0), (2.0, 1.5)]),
                    capacity=1.5), (1, 2)),
                Edge(LinearTickEdge(price=1.1, cap=0.4), (0, 2)),
                Edge(HalfLineEdge(2.5), (2,), fee=0.5),
            ),
            utility=LinearUtility([1.0, 1.0, 1.0]),
        )
        text = model.dumps(inst)
        assert model.dumps(model.loads(text)) == text

    def test_threshold_utility_round_trips(self):
        inst = Instance(n=1, edges=(Edge(HalfLineEdge(2.0), (0,), fee=2.0),),
                        utility=ThresholdUtility(3.0))
        assert model.dumps(model.loads(model.dumps(inst))) == model.dumps(inst)

    def test_fee_defaults_to_zero(self):
        doc = model.to_document(self.build())
        del doc["edges"][1]["fee"]
        inst = model.from_document(doc)
        assert inst.edges[1].fee == 0.0

    def test_negative_fee_rejected(self):
        doc = model.to_document(self.build())
        doc["edges"][0]["fee"] = -0.5
        with pytest.raises(SchemaError):
            model.from_document(doc)

    @pytest.mark.parametrize("name", sorted(invalid_document_edits()))
    def test_invalid_value_rejected(self, name):
        doc = model.to_document(self.build())
        edit, message = invalid_document_edits()[name]
        edit(doc)
        for load in (model.from_document, lambda edited: model.loads(json.dumps(edited))):
            with pytest.raises(SchemaError, match=re.escape(message)):
                load(doc)

    def test_invalid_set_parameter_rejected(self):
        doc = model.to_document(self.build())
        doc["edges"][0]["params"]["reserves"] = [-1.0, 2.0]
        with pytest.raises(SchemaError):
            model.from_document(doc)

    def test_unknown_set_kind_rejected(self):
        doc = model.to_document(self.build())
        doc["edges"][0]["kind"] = "mystery_blob"
        with pytest.raises(SchemaError):
            model.from_document(doc)

    def test_version_mismatch_rejected(self):
        doc = model.to_document(self.build())
        doc["version"] = 99
        with pytest.raises(SchemaError):
            model.from_document(doc)

    def test_edge_utility_key_rejected(self):
        # the key itself is refused, whatever its value, zeros and null included
        for coeffs in ([0.1, 0.2], [0.0, 0.0], None):
            doc = model.to_document(self.build())
            doc["edges"][1]["edge_utility"] = coeffs
            with pytest.raises(SchemaError, match="edge 1: edge utilities are not supported"):
                model.from_document(doc)

    def test_unknown_key_of_any_object_is_refused_by_name(self):
        # the document, the utility, each edge, its params and a gain
        doc = model.to_document(Instance(
            n=2, edges=(Edge(CappedConcaveEdge(gain=PiecewiseLinearGain([(0.5, 1.0), (2.0, 1.5)]),
                                               capacity=1.5), (0, 1)),),
            utility=LinearUtility([1.0, 1.0])))
        objects = [(), ("utility",), ("edges", 0), ("edges", 0, "params"),
                   ("edges", 0, "params", "gain")]
        for path in objects:
            edited = json.loads(json.dumps(doc))
            target = edited
            for key in path:
                target = target[key]
            target["extra"] = 1
            with pytest.raises(SchemaError, match="unknown key 'extra'"):
                model.from_document(edited)

    def test_meta_block_preserved(self):
        inst = self.build()
        doc = model.to_document(inst, meta={"generator": "test", "seed": 7})
        assert doc["meta"]["seed"] == 7
        assert model.from_document(doc).n == inst.n

    def test_garbage_json_rejected(self):
        with pytest.raises(SchemaError):
            model.loads("{not json")
        with pytest.raises(SchemaError):
            model.from_document({"version": 1})


# --- every JSON value loads to an Instance or raises SchemaError -----------

_SCHEMA_WORDS = ["version", "n", "utility", "edges", "kind", "params", "nodes", "fee",
                 "edge_utility", "c", "mu", "b", "reserves", "cap", "price", "capacity",
                 "gain", "points", "linear", "quadratic", "threshold", "product_market",
                 "half_line", "linear_tick", "capped_concave", "rational", "piecewise_linear",
                 # keys no object allows, and meta, which only the document allows
                 "fees", "edge_utilty", "extra", "meta"]

_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.sampled_from(_SCHEMA_WORDS) | st.text(max_size=4))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_SCHEMA_WORDS) | st.text(max_size=3),
                                     inner, max_size=5)),
    max_leaves=20)


def _valid_document():
    return model.to_document(Instance(
        n=3,
        edges=(Edge(CappedConcaveEdge(capacity=2.0), (0, 1), fee=0.5),
               Edge(CappedConcaveEdge(gain=PiecewiseLinearGain([(0.5, 1.0), (2.0, 1.5)]),
                                      capacity=1.5), (1, 2)),
               Edge(LinearTickEdge(price=1.1, cap=0.4), (0, 2)),
               Edge(ProductMarketEdge([2.0, 3.0]), (2, 0)),
               Edge(HalfLineEdge(2.5), (2,), fee=0.5)),
        utility=QuadraticUtility([1.0, 1.0, 1.0], 0.5)))


def _paths(doc, prefix=()):
    """Every key path into a document, the empty path (the root) included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


_VALID_PATHS = list(_paths(_valid_document()))


@st.composite
def _edited_documents(draw):
    """A valid document with the value at one of its paths replaced, or
    with a schema word set as a key of the object at that path."""
    doc = _valid_document()
    path = draw(st.sampled_from(_VALID_PATHS))
    value = draw(_json_values)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if isinstance(parent, dict) and draw(st.booleans()):
        key = draw(st.sampled_from(_SCHEMA_WORDS))  # a key of the object or a new one
    parent[key] = value
    return doc


def _loads_or_schema_error(load, value):
    try:
        assert isinstance(load(value), Instance)
    except SchemaError:
        pass


@settings(max_examples=300, deadline=None)
@given(doc=_json_values | _edited_documents())
def test_any_json_value_loads_or_raises_schema_error(doc):
    _loads_or_schema_error(model.from_document, doc)
    _loads_or_schema_error(model.loads, json.dumps(doc))


def test_every_path_of_a_document_with_bad_values():
    # each value of each kind at each key path of a valid document
    bad = [None, True, -1, 10 ** 400, 1e308, float("nan"), "x", [], [None], {}, {"kind": None}]
    for path in _VALID_PATHS:
        for value in bad:
            doc = _valid_document()
            if path:
                parent = doc
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
            else:
                doc = value
            _loads_or_schema_error(model.from_document, doc)
            _loads_or_schema_error(model.loads, json.dumps(doc))


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "1" * 5_000],
                         ids=["deep_nesting", "long_integer"])
def test_pathological_text_raises_schema_error(text):
    with pytest.raises(SchemaError):
        model.loads(text)


# --- orjson reads a document as json does -------------------------------------

def _bits(instance: Instance):
    """Every field of ``instance`` (n, nodes, fees, set and utility
    parameters) with each float as its hex form, so that equal results
    mean equal bits."""
    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {key: exact(v) for key, v in value.items()}
        if isinstance(value, list):
            return [exact(v) for v in value]
        return value
    return exact(model.to_document(instance))


def _same_as_json(text: str):
    """``model.loads(text)`` loads what ``from_document(json.loads(text))``
    loads, bit for bit, or refuses it with the same message."""
    try:
        expected = _bits(model.from_document(json.loads(text)))
    except SchemaError as exc:
        with pytest.raises(SchemaError) as refused:
            model.loads(text)
        assert str(refused.value) == str(exc)
        return False
    assert _bits(model.loads(text)) == expected
    return True


# float fields as json.dumps writes any finite double, or as JSON integers
# from 2**63 (beyond int64) to 10**308
_float_fields = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.integers(2 ** 63, 10 ** 308))


@st.composite
def _float_field_documents(draw):
    """A document of every set kind and a drawn utility, each float field
    drawn; a field with a sign constraint takes the absolute value."""
    def positive():
        return abs(draw(_float_fields))

    def edge(kind, params, nodes):
        return {"kind": kind, "params": params, "nodes": nodes, "fee": positive()}

    n = 3
    utility = draw(st.sampled_from(["linear", "quadratic"]))
    doc = {"version": 1, "n": n,
           "utility": {"kind": utility, "c": [draw(_float_fields) for _ in range(n)]},
           "edges": [edge("product_market", {"reserves": [positive(), positive()]}, [0, 1]),
                     edge("capped_concave", {"capacity": positive(),
                                             "gain": {"kind": "rational"}}, [1, 2]),
                     edge("linear_tick", {"price": positive(), "cap": positive()}, [2, 0]),
                     edge("half_line", {"cap": positive()}, [1])]}
    if utility == "quadratic":
        doc["utility"]["mu"] = positive()
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=_float_field_documents())
def test_document_loads_as_json_reads_it(doc):
    _same_as_json(json.dumps(doc))


@pytest.mark.parametrize("n", [28, 46])
def test_generated_document_loads_as_json_reads_it(n):
    from convexflow.bench import BenchConfig, bench_meta, gen_bench_instance

    config = BenchConfig(n=n, mu=0.0, q0=0.01, seed=1)
    text = model.dumps(gen_bench_instance(config), meta=bench_meta(config))
    assert _same_as_json(text)


_HALF_LINE = ('{"version": 1, "n": 1, "utility": {"kind": "threshold", "b": 1.0}, '
              '"edges": [{"kind": "half_line", "params": {"cap": 2.0}, "nodes": [0], '
              '"fee": %s}]%s}')
_MARKET = ('{"version": 1, "n": 2, "utility": {"kind": "linear", "c": [1.0, 1.0]}, '
           '"edges": [{"kind": %s, "params": {"reserves": [%s, 2.0]}, "nodes": [0, %s], '
           '"fee": 0.0}]}')
_RESERVES_REFUSED = ("edge 0: bad parameters for set kind 'product_market': "
                     "reserves must be two positive finite numbers")


@pytest.mark.parametrize("text,message", [
    (_HALF_LINE % ("NaN", ""), "edge 0: fee must be finite and nonnegative, got nan"),
    (_HALF_LINE % ("Infinity", ""), "edge 0: fee must be finite and nonnegative, got inf"),
    (_HALF_LINE % ("-Infinity", ""), "edge 0: fee must be finite and nonnegative, got -inf"),
    (_MARKET % ('"product_market"', "NaN", "1"), _RESERVES_REFUSED),
    (_MARKET % ('"product_market"', "Infinity", "1"), _RESERVES_REFUSED),
    (_MARKET % ('"product_market"', "-Infinity", "1"), _RESERVES_REFUSED),
    (_HALF_LINE % ("1e400", ""), "edge 0: fee must be finite and nonnegative, got inf"),
    (_HALF_LINE % ("1" + "0" * 399, ""), "edge 0: fee is an integer too large for a float"),
    (_MARKET % ('"\\ud800"', "1.0", "1"), "edge 0: unknown set kind: '\\ud800'"),
    ("﻿" + _HALF_LINE % ("0.0", ""),
     "instance document: not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0)"),
    ("[" * 100_000 + "]" * 100_000,
     "instance document: not valid JSON: maximum recursion depth exceeded while decoding "
     "a JSON array from a unicode string"),
], ids=["nan_fee", "infinity_fee", "minus_infinity_fee", "nan_reserve", "infinity_reserve",
        "minus_infinity_reserve", "fee_beyond_float", "integer_fee_beyond_float",
        "lone_surrogate_kind", "byte_order_mark", "nested_too_deeply"])
def test_text_orjson_refuses_keeps_its_message(text, message):
    with pytest.raises(SchemaError) as refused:
        model.loads(text)
    assert str(refused.value) == message


def test_set_refusal_names_its_edge():
    # the columns refuse the overflowing product, and the edge loader's
    # refusal says which of the 529 markets it is
    from convexflow.bench import BenchConfig, gen_bench_instance

    doc = json.loads(model.dumps(gen_bench_instance(BenchConfig(n=46, mu=0.0, q0=0.01, seed=1))))
    assert len(doc["edges"]) == 529
    doc["edges"][300]["params"]["reserves"] = [1e200, 1e200]
    with pytest.raises(SchemaError) as refused:
        model.loads(json.dumps(doc))
    assert str(refused.value) == ("edge 300: bad parameters for set kind 'product_market': "
                                  "reserves must have a positive finite product")


def test_meta_with_nan_and_a_lone_surrogate_loads():
    inst = model.loads(_HALF_LINE % ("0.5", ', "meta": {"x": NaN, "s": "\\ud800"}'))
    assert inst.edges[0].fee == 0.5


def test_nesting_orjson_reads_and_json_refuses_is_refused():
    # orjson reads any depth; 2 000 levels in meta exceed json's recursion limit
    deep = "[" * 2_000 + "]" * 2_000
    with pytest.raises(SchemaError, match="not valid JSON: maximum recursion depth exceeded"):
        model.loads(_HALF_LINE % ("0.5", ', "meta": ' + deep))
    assert model.loads(_HALF_LINE % ("0.5", ', "meta": ' + deep[1800:2200])).m == 1


# --- the canonical text form is a fixed point of loads and dumps -------------

_positive = st.floats(0.01, 100.0)


@st.composite
def _routing_instances(draw):
    from convexflow.bench import BenchConfig, gen_bench_instance

    return gen_bench_instance(BenchConfig(
        n=draw(st.integers(2, 8)), mu=draw(st.sampled_from([0.0, 1e-2, 0.5])),
        q0=draw(st.floats(0.0, 2.0)), seed=draw(st.integers(0, 2 ** 32))))


@st.composite
def _knapsack_instances(draw):
    from convexflow.bench import gen_knapsack_instance

    weights = draw(st.lists(st.integers(1, 50), min_size=1, max_size=6))
    return gen_knapsack_instance(weights, draw(st.integers(0, sum(weights))))


@st.composite
def _every_family_instances(draw):
    """One edge of each family on three nodes, every parameter drawn."""
    w1, s1 = draw(st.floats(0.1, 1.0)), draw(st.floats(0.5, 2.0))
    w2, s2 = w1 + draw(st.floats(0.1, 3.0)), s1 * draw(st.floats(0.0, 0.9))
    capacity = draw(st.floats(0.05, 1.0)) * w2
    gain = PiecewiseLinearGain([(w1, s1 * w1), (w2, s1 * w1 + s2 * (w2 - w1))])
    flow_sets = [CappedConcaveEdge(capacity=draw(_positive)),
                 CappedConcaveEdge(gain=gain, capacity=capacity),
                 LinearTickEdge(price=draw(_positive), cap=draw(_positive)),
                 ProductMarketEdge([draw(_positive), draw(_positive)]),
                 HalfLineEdge(draw(st.just(math.inf) | st.floats(0.0, 100.0)))]
    edges = []
    for the_set in flow_sets:
        nodes = draw(st.permutations([0, 1, 2]))[:the_set.dim]
        edges.append(Edge(the_set, tuple(nodes), fee=draw(st.floats(0.0, 2.0))))
    c = draw(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
    utility = draw(st.sampled_from([LinearUtility(c), QuadraticUtility(c, draw(_positive))]))
    return Instance(n=3, edges=tuple(edges), utility=utility)


@settings(max_examples=60, deadline=None)
@given(inst=_routing_instances() | _knapsack_instances() | _every_family_instances())
def test_canonical_text_round_trips(inst):
    text = model.dumps(inst)
    assert model.dumps(model.loads(text)) == text


# --- a document of markets alone loads as columns -----------------------------

def _built_and_loaded(n, q0, seed=1):
    from convexflow.bench import BenchConfig, gen_bench_instance

    built = gen_bench_instance(BenchConfig(n=n, mu=0.0, q0=q0, seed=seed))
    return built, model.loads(model.dumps(built))


def _solution_text(instance):
    from convexflow.solver import report_to_document, solve

    return json.dumps(report_to_document(solve(instance)))


@pytest.mark.parametrize("q0", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("n", [28, 46])
def test_market_document_loads_as_the_built_instance(n, q0):
    built, loaded = _built_and_loaded(n, q0)
    assert type(loaded.edges) is model.MarketColumns and type(built.edges) is tuple
    assert _bits(loaded) == _bits(built)
    assert _solution_text(loaded) == _solution_text(built)


def test_market_columns_read_as_a_tuple_of_edges():
    from convexflow.conic import conic_rewrite
    from convexflow.fees import round_relaxation
    from convexflow.solver import solve

    built, loaded = _built_and_loaded(28, 0.01)
    edges = loaded.edges
    assert len(edges) == len(built.edges) == 196
    assert edges[-1] is edges[195] is edges[-1]
    assert [e.nodes for e in edges[3:9:2]] == [e.nodes for e in built.edges[3:9:2]]
    assert type(edges[3:9:2]) is tuple and edges[3:9:2][0] is edges[3]
    last = edges[-1]  # read before any iteration, and kept by it
    assert all(a is b for a, b in zip(edges, list(edges)))
    assert edges[-1] is last is list(edges)[-1]
    for a, b in zip(edges, built.edges):
        assert (a.nodes, a.fee.hex(), a.flow_set._r1.hex(), a.flow_set._r2.hex()) == \
               (b.nodes, b.fee.hex(), b.flow_set._r1.hex(), b.flow_set._r2.hex())
        assert type(a.nodes[0]) is int and type(a.fee) is float
    with pytest.raises(IndexError):
        edges[196]

    assert model.dumps(loaded) == model.dumps(built)
    rewritten = [conic_rewrite(inst) for inst in (built, loaded)]
    assert [rewritten[1].selector(i) for i in (0, 195)] == [rewritten[0].selector(i) for i in (0, 195)]
    assert [(c.base._r1, c.base._r2) for c in rewritten[1].cones] == \
           [(c.base._r1, c.base._r2) for c in rewritten[0].cones]
    report = solve(built)
    points = list(zip(report.flows, report.activations))
    rounded = [round_relaxation(inst, points) for inst in (built, loaded)]
    assert rounded[0].objective == rounded[1].objective
    assert rounded[0].y_hat.tobytes() == rounded[1].y_hat.tobytes()
    assert rounded[0].activations.tobytes() == rounded[1].activations.tobytes()


def _market_document():
    """40 markets on 6 nodes, the first on nodes (0, 1) with reserves
    (2.0, 3.0) and the last on (4, 5) with (0.25, 3.0), so that one edit
    of either meets each bulk test at its edge: a repeated or
    out-of-range node, a product that overflows or underflows."""
    rng = np.random.default_rng(40)
    edges = [{"kind": "product_market",
              "params": {"reserves": rng.uniform(0.5, 5.0, size=2).tolist()},
              "nodes": [int(v) for v in rng.choice(6, size=2, replace=False)],
              "fee": float(rng.uniform(0.0, 1.0))} for _ in range(40)]
    edges[0].update(params={"reserves": [2.0, 3.0]}, nodes=[0, 1])
    edges[39].update(params={"reserves": [0.25, 3.0]}, nodes=[4, 5])
    return {"version": 1, "n": 6, "utility": {"kind": "linear", "c": [1.0] * 6}, "edges": edges}


_MARKET_PATHS = [path for path in _paths(_market_document())
                 if path in ((), ("n",), ("edges",)) or path[:2] in (("edges", 0), ("edges", 39))]
_EDGE_VALUES = [None, True, 0, 1, 4, 5, 6, -1, 2 ** 63, 10 ** 400, 0.0, -0.0, -1.0, 5e-324,
                1.0, 1e308, math.inf, math.nan, "product_market", "half_line", "x", [], [None],
                [1.0], [1.0, 2.0], [-2.0, -3.0], [1.0, 2.0, 3.0], [0, 1], [1, 1], {},
                {"reserves": [1.0, 2.0]}, {"cap": 1.0}]


def _loads_as_edge_by_edge(doc):
    """``from_document(doc)`` gives what the per-edge loader alone gives:
    the same bits, or the same refusal."""
    def load():
        try:
            return _bits(model.from_document(doc))
        except SchemaError as exc:
            return str(exc)
    with mock.patch.object(model, "_market_columns", lambda edge_docs, n: None):
        expected = load()
    assert load() == expected


def _edit(doc, path, key, value):
    """``doc`` with the value at ``path`` replaced, or, when ``key`` is not
    None and that value is an object, with ``key`` set on it."""
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if key is not None and isinstance(parent[path[-1]], dict):
        parent[path[-1]][key] = value
    else:
        parent[path[-1]] = value
    return doc


def test_market_columns_take_what_the_edge_loader_takes():
    # each boundary value, and each schema word as a key, at each path of
    # the first and last market of a 40-market document
    for path in _MARKET_PATHS:
        for value in _EDGE_VALUES:
            _loads_as_edge_by_edge(_edit(_market_document(), path, None, value))
        for key in _SCHEMA_WORDS:
            _loads_as_edge_by_edge(_edit(_market_document(), path, key, 1.0))


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(_MARKET_PATHS), value=_json_values | st.floats(),
       key=st.none() | st.sampled_from(_SCHEMA_WORDS))
def test_market_columns_never_raise(path, value, key):
    _loads_as_edge_by_edge(_edit(_market_document(), path, key, value))


@pytest.mark.parametrize("q0", [0.0, 0.01, 1.0])
def test_max_fee_of_columns_builds_no_edge(q0):
    from convexflow.fees import gap_bounds
    from convexflow.solver import solve

    built, loaded = _built_and_loaded(28, q0)
    report = solve(loaded)  # the block reads the columns, building no edge
    with mock.patch.object(model, "Edge", side_effect=AssertionError("an Edge was built")):
        value = loaded.max_fee()
        bounds = gap_bounds(report, loaded)
    assert type(value) is float and value.hex() == built.max_fee().hex()
    assert bounds.sf_bound == (built.n + 1) * built.max_fee()
    assert loaded.edges._edges == [None] * 196
