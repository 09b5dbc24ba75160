import json
import math

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
        with pytest.raises(SchemaError, match=message):
            model.from_document(doc)

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
