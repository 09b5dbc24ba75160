"""Problem instances: edges with node selectors and fees, network utilities,
degree bookkeeping, and the canonical document format.

Selector matrices are never materialized; an edge stores the list of
global node indices its local coordinates map to, and net flows are plain
scatter-adds over those lists.

Sign convention for the dual.  The Lagrange multiplier is placed on
``sum_i A_i x_i - y``, so the network conjugate is

    Ubar(nu) = sup_y ( U(y) - nu @ y )

and every edge subproblem sees the pulled price ``xi_i = nu[nodes_i]``
with nu >= 0.  With this convention the fee dual's edge terms are support
functions of the flow sets less the fee, which is exactly what the
solver evaluates.

Each utility's ``conjugate(nu)`` is the solver's one call per dual
evaluation, so it computes on Python floats: it takes the solver's price
list as it is (any other vector goes through ``as_vector``) and returns
the value with a maximizer as a list of floats, or None when there is no
unique one.  ``value(y)`` computes on floats the same way, since its
callers (rounding, brute force, the conic objective) value one net flow
of a few nodes at a time; ``values(ys)`` stays on numpy for the rows of
recovery's tie pass and for its one no-tie net flow.

The loader (``from_document``) takes one of two paths, decided by the
edge array alone.  An array of at least ``BATCH_MIN`` edges that are all
constant-product markets, each valid and in the types JSON gives (a
``float`` reserve and fee, an ``int`` node, the exact edge and params
keys), is tested in bulk (``_market_columns``): ``set(map(type, ...))``
over its values, then ``np.fromiter`` and one range check per column.
It loads as ``MarketColumns``, three arrays (reserves, nodes, fees),
which ``Instance`` keeps as its ``edges``; an ``Edge`` is built only
when one is read, and the solver builds its market block from the arrays.
Every other array, and every array that fails a bulk test, goes through
the per-edge loader (``_decode_edges``), the reference and the source of
every refusal.  It checks Python-typed values in one pass per edge,
without numpy, with one decoder per set kind.  A value of the type JSON
gives it passes on one exact-type test: a nonnegative ``int`` node, a
``float`` fee or reserve.  Any other value goes through ``sets._real``,
which takes an ``int`` or a ``float`` (or another real number type such
as a numpy scalar) and refuses booleans, strings and everything else, or
through ``sets._index`` for counts and node indices; each constructor
then checks its range with chained comparisons.  Node ranges are checked
once over all edges in ``Instance``.  Every refusal names its field: a
missing key, a value that is not an array (``sets._array``), an entry
that is not a number or is out of its range, an integer beyond float
range.  A refused value is shown by the start of its ``repr``
(``sets._shown``).
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import operator
import sys
from collections import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import orjson

from .errors import SchemaError
from .sets import (CappedConcaveEdge, FlowSet, HalfLineEdge, LinearTickEdge,
                   PiecewiseLinearGain, ProductMarketEdge, RationalGain, _array, _floats,
                   _index, _real, _shown, as_vector, scaled_tol)

SCHEMA_VERSION = 1
# markets from which a program made of them alone is held as columns: a
# document's edge array loads as ``MarketColumns`` and the solver
# evaluates them as one numpy block.  The fewest at which building and
# evaluating the block once beats the per-edge loop (measured).
BATCH_MIN = 36


def _weights(c: Sequence[float]) -> list[float]:
    """Utility weights as a list of finite floats."""
    weights = [_real(v, "c") for v in _array(c, "c")]
    if not all(map(math.isfinite, weights)):
        raise ValueError("c must hold finite numbers")
    return weights


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(map(operator.mul, a, b))


class LinearUtility:
    """U(y) = c @ y."""

    def __init__(self, c: Sequence[float]):
        self._c = _weights(c)
        self.c = np.array(self._c)
        self._tol = 1e-12 * max(1.0, max(map(abs, self._c), default=0.0))

    @property
    def dim(self) -> int:
        return self.c.size

    def value(self, y) -> float:
        return float(_dot(_floats(y, self.dim), self._c))

    def values(self, ys: np.ndarray) -> np.ndarray:
        """U at each row of ys."""
        return ys @ self.c

    def conjugate(self, nu) -> tuple[float, None]:
        """sup_y U(y) - nu @ y: 0 on nu = c, +inf elsewhere (no unique maximizer)."""
        prices = _floats(nu, self.dim)
        if all(abs(p - c) <= self._tol for p, c in zip(prices, self._c)):
            return 0.0, None
        return math.inf, None


class QuadraticUtility:
    """U(y) = c @ y - (mu / 2) * y @ y with risk aversion mu > 0.

    Nondecreasing only on y <= c / mu; the solver keeps prices
    nonnegative, which matches how the routing experiment uses it.
    """

    def __init__(self, c: Sequence[float], mu: float):
        self._c = _weights(c)
        self.c = np.array(self._c)
        mu = _real(mu, "mu")
        if not 0.0 < mu < math.inf:
            raise ValueError("mu must be positive and finite")
        self.mu = mu

    @property
    def dim(self) -> int:
        return self.c.size

    def value(self, y) -> float:
        y = _floats(y, self.dim)
        return float(_dot(y, self._c) - 0.5 * self.mu * _dot(y, y))

    def values(self, ys: np.ndarray) -> np.ndarray:
        """U at each row of ys."""
        return ys @ self.c - 0.5 * self.mu * np.einsum("ij,ij->i", ys, ys)

    def conjugate(self, nu) -> tuple[float, list[float]]:
        """(c - nu) @ (c - nu) / (2 mu), attained at y = (c - nu) / mu."""
        diff = list(map(operator.sub, self._c, _floats(nu, self.dim)))
        mu = self.mu
        return _dot(diff, diff) / (2.0 * mu), [d / mu for d in diff]


class ThresholdUtility:
    """Scalar demand utility: 0 when the net flow reaches b, -inf below it.

    This is the utility of the knapsack reduction; maximizing it only asks
    for feasibility of y >= b while the fees account for the cost.
    """

    def __init__(self, b: float):
        self.b = _real(b, "b")
        if not math.isfinite(self.b):
            raise ValueError("b must be finite")
        self._floor = self.b - scaled_tol(1e-9, self.b)  # the least net flow that reaches b

    @property
    def dim(self) -> int:
        return 1

    def value(self, y) -> float:
        return 0.0 if _floats(y, 1)[0] >= self._floor else -math.inf

    def values(self, ys: np.ndarray) -> np.ndarray:
        """U at each row of ys."""
        return np.where(ys[:, 0] >= self._floor, 0.0, -math.inf)

    def conjugate(self, nu) -> tuple[float, list[float] | None]:
        price = _floats(nu, 1)[0]
        if price < 0.0:
            return math.inf, None
        return -price * self.b, [self.b]


Utility = LinearUtility | QuadraticUtility | ThresholdUtility


@dataclass(frozen=True, init=False)
class Edge:
    """One hyperedge: a flow set, the global nodes it touches, and a fixed fee.

    The constructor checks and converts every field before it sets it,
    and writes the three frozen fields in one update of the instance's
    dict: a loaded document builds one edge per market.
    """

    flow_set: FlowSet
    nodes: tuple[int, ...]
    fee: float = 0.0

    def __init__(self, flow_set: FlowSet, nodes: Sequence[int], fee: float = 0.0):
        nodes = _array(nodes, "nodes")
        # JSON's nonnegative ints and float fee pass as they are; any other
        # value goes through _index or _real, which convert or refuse it
        for v in nodes:
            if type(v) is not int or v < 0:
                nodes = tuple([_index(v, "edge node") for v in nodes])
                break
        if len(nodes) != flow_set.dim:
            raise ValueError("need one node per flow-set coordinate")
        if len(set(nodes)) != len(nodes):
            raise ValueError("edge nodes must be distinct")
        if type(fee) is not float:
            fee = _real(fee, "fee")
        if not 0.0 <= fee < math.inf:
            raise ValueError(f"fee must be finite and nonnegative, got {fee!r}")
        self.__dict__.update(flow_set=flow_set, nodes=nodes, fee=fee)

    @property
    def degree(self) -> int:
        return len(self.nodes)


class MarketColumns(abc.Sequence):
    """Constant-product market edges held as three columns: ``reserves``
    (float, r1 and r2 of each market interleaved), ``nodes`` (intp, its
    two nodes interleaved) and ``fees`` (float), each value already
    checked as ``ProductMarketEdge`` and ``Edge`` check it.

    As a sequence of ``Edge`` it builds edge i when it is first read and
    keeps it, so every read returns the same object; a slice is a tuple.
    Iterating builds every edge not yet read from one list per column.
    ``of`` holds an existing tuple of edges the same way, keeping each.
    """

    __slots__ = ("reserves", "nodes", "fees", "_edges", "_whole")

    def __init__(self, reserves: np.ndarray, nodes: np.ndarray, fees: np.ndarray,
                 edges: Sequence[Edge] | None = None):
        self.reserves, self.nodes, self.fees = reserves, nodes, fees
        self._edges = [None] * len(fees) if edges is None else list(edges)
        self._whole = edges is not None  # whether every edge is built

    @classmethod
    def of(cls, edges: Sequence[Edge]) -> MarketColumns | None:
        """The columns of ``edges`` in one pass, or None at the first edge
        that is not a market."""
        reserves, nodes, fees = [], [], []
        for edge in edges:
            the_set = edge.flow_set
            if type(the_set) is not ProductMarketEdge:
                return None
            reserves += (the_set._r1, the_set._r2)
            nodes += edge.nodes
            fees.append(edge.fee)
        m = len(fees)
        return cls(np.fromiter(reserves, float, 2 * m), np.fromiter(nodes, np.intp, 2 * m),
                   np.fromiter(fees, float, m), edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(*index.indices(len(self._edges)))))
        edge = self._edges[index]
        if edge is None:
            i = range(len(self._edges))[index]
            edge = Edge(ProductMarketEdge(self.reserves[2 * i:2 * i + 2].tolist()),
                        tuple(self.nodes[2 * i:2 * i + 2].tolist()), self.fees[i].item())
            self._edges[i] = edge
        return edge

    def __iter__(self):
        if not self._whole:
            reserves, nodes = self.reserves.tolist(), self.nodes.tolist()
            self._edges = [
                Edge(ProductMarketEdge(reserves[2 * i:2 * i + 2]), tuple(nodes[2 * i:2 * i + 2]), fee)
                if edge is None else edge
                for i, (edge, fee) in enumerate(zip(self._edges, self.fees.tolist()))]
            self._whole = True
        return iter(self._edges)


@dataclass(frozen=True)
class Instance:
    """A convex flow problem: n nodes, hyperedges, and a network utility.

    ``edges`` is a tuple of ``Edge``, or the ``MarketColumns`` of a
    loaded document made of markets alone, kept as they are.

    ``_compiled`` is the solver's private cache: the program it compiles
    from the edges on its first use of the instance, and a threshold
    instance's unit-price supplies (``solver._compiled``).  Every later
    solve, conic solve, dual evaluation and brute force of the instance
    reads them from there, so the arrays of ``MarketColumns`` edges must
    not be mutated after a solve.  The cache is not compared, shown,
    pickled or copied; ``dataclasses.replace``, a copy and an unpickled
    instance start with an empty one.
    """

    n: int
    edges: tuple[Edge, ...] | MarketColumns
    utility: Utility
    _compiled: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = _index(self.n, "n")
        edges = self.edges if type(self.edges) is MarketColumns else tuple(self.edges)
        if n < 1:
            raise ValueError("need at least one node")
        if self.utility.dim != n:
            raise ValueError("utility dimension must equal the node count")
        # each node is already a nonnegative int; columns are checked as one array
        if type(edges) is MarketColumns:
            if len(edges) and edges.nodes.max() >= n:
                k = int(np.argmax(edges.nodes >= n))
                raise ValueError(f"edge {k // 2}: nodes must be less than n = {n}, "
                                 f"got {edges.nodes[k]}")
        elif max((v for edge in edges for v in edge.nodes), default=-1) >= n:
            i, v = next((i, v) for i, edge in enumerate(edges) for v in edge.nodes if v >= n)
            raise ValueError(f"edge {i}: nodes must be less than n = {n}, got {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def max_fee(self) -> float:
        if type(self.edges) is MarketColumns:  # from the fee column, building no edge
            return float(self.edges.fees.max(initial=0.0))
        return max((edge.fee for edge in self.edges), default=0.0)

    def __getstate__(self):
        # a block's kernel is a closure, which does not pickle; a copy
        # compiles its own program
        return {**self.__dict__, "_compiled": {}}


def net_flow(instance: Instance, flows: Sequence) -> np.ndarray:
    """y = sum of edge flows scattered to their global nodes."""
    if len(flows) != instance.m:
        raise ValueError("need one flow vector per edge")
    y = np.zeros(instance.n)
    for edge, x in zip(instance.edges, flows):
        y[list(edge.nodes)] += as_vector(x, edge.degree)
    return y


def node_degrees(instance: Instance) -> np.ndarray:
    """Diagonal of D = sum_i A_i A_i^T: how many edges touch each node."""
    deg = np.zeros(instance.n, dtype=int)
    for edge in instance.edges:
        deg[list(edge.nodes)] += 1
    return deg


# ---------------------------------------------------------------------------
# canonical document format
# ---------------------------------------------------------------------------
#
# {"version": 1, "n": ..., "utility": {...}, "edges": [{kind, params, nodes,
#  fee}], "meta"?: {...}}  -- numbers as decimal doubles, UTF-8, keys sorted
# in the canonical text form.  An edge that carries edge utilities is
# refused: the solver handles the zero-edge-utility problem only.  The
# schema is closed: the document, each utility kind, the edge, each set
# kind's params and each gain kind have one set of allowed keys, and any
# other key is refused by name (``meta`` is free-form); ``edge_utility``
# is one such key, with a message of its own.
#
# Text is read by ``_parse``.  orjson decodes it; ``json`` decides only
# the texts orjson refuses or that nest 100 levels deep, and accepts or
# refuses them as it always has.  Those are the NaN, Infinity and
# -Infinity literals Python's ``json.dump`` writes (free in ``meta``,
# refused by name in any number field), lone surrogates, numbers beyond
# float range such as 1e400 or a 400-digit integer, a UTF-8 BOM, and
# nesting too deep for ``json``'s recursion limit.  Both parsers give the
# same Python values for every other text, floats bit for bit, except an
# integer at or beyond 2**64 (or below -2**63), which orjson reads as a
# float: the same value in a number field, and a refusal either way in
# an integer field (``n``, a node, ``version``), where the message shows
# the float.  The writers stay on ``json``: ``dumps`` keeps the canonical
# text (orjson would write 1e-05 as 0.00001 and 1e+22 as 1e22), and the
# CLI keeps its refusal of NaN, which orjson would write as null.

_DOCUMENT_KEYS = frozenset({"version", "n", "utility", "edges", "meta"})
_EDGE_KEYS = frozenset({"kind", "params", "nodes", "fee"})
_UTILITY_KEYS = {"linear": frozenset({"kind", "c"}),
                 "quadratic": frozenset({"kind", "c", "mu"}),
                 "threshold": frozenset({"kind", "b"})}
_SET_KEYS = {"product_market": frozenset({"reserves"}),
             "capped_concave": frozenset({"capacity", "gain"}),
             "linear_tick": frozenset({"price", "cap"}),
             "half_line": frozenset({"cap"})}
_GAIN_KEYS = {"rational": frozenset({"kind"}),
              "piecewise_linear": frozenset({"kind", "points"})}


def _kind_keys(table: dict, kind, what: str) -> frozenset:
    """The allowed keys of ``kind`` in ``table``; SchemaError for any other kind."""
    try:
        return table[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise SchemaError(f"unknown {what} kind: {_shown(kind)}") from None


def _unknown_key(doc: dict, allowed: frozenset, where: str) -> SchemaError:
    """The error for the keys of ``doc`` outside ``allowed``, naming them.
    Callers test ``allowed.issuperset(doc)`` first, so a valid object
    costs one subset test and no message."""
    unknown = ", ".join(sorted(_shown(key) for key in doc if key not in allowed))
    return SchemaError(f"{where}: unknown key {unknown}")


def _reason(exc: Exception) -> str:
    """Why a field was refused: a missing key (``KeyError``) by its name,
    any other error by its message."""
    if isinstance(exc, KeyError):
        return f"missing field {exc.args[0]!r}"
    return str(exc)


def _encode_gain(gain) -> dict:
    if isinstance(gain, RationalGain):
        return {"kind": "rational"}
    if isinstance(gain, PiecewiseLinearGain):
        points = [[float(w), float(h)] for w, h in zip(gain.inputs[1:], gain.outputs[1:])]
        return {"kind": "piecewise_linear", "points": points}
    raise SchemaError(f"gain {type(gain).__name__} is not serializable")


def _decode_gain(doc: dict):
    if not isinstance(doc, dict):
        raise SchemaError("gain must be an object")
    kind = doc.get("kind")
    keys = _kind_keys(_GAIN_KEYS, kind, "gain")
    if not keys.issuperset(doc):
        raise _unknown_key(doc, keys, f"gain kind {kind!r}")
    if kind == "rational":
        return RationalGain()
    return PiecewiseLinearGain(doc["points"])


def _encode_set(the_set: FlowSet) -> tuple[str, dict]:
    if isinstance(the_set, CappedConcaveEdge):
        return "capped_concave", {"capacity": the_set.capacity,
                                  "gain": _encode_gain(the_set.gain)}
    if isinstance(the_set, LinearTickEdge):
        return "linear_tick", {"price": the_set.price, "cap": the_set.cap}
    if isinstance(the_set, ProductMarketEdge):
        return "product_market", {"reserves": [the_set._r1, the_set._r2]}
    if isinstance(the_set, HalfLineEdge):
        return "half_line", {"cap": the_set.cap}
    raise SchemaError(f"set {type(the_set).__name__} is not serializable")


def _decode_set(kind: str, params: dict) -> FlowSet:
    if not isinstance(params, dict):
        raise SchemaError("set params must be an object")
    keys = _kind_keys(_SET_KEYS, kind, "set")
    if not keys.issuperset(params):
        raise _unknown_key(params, keys, f"params of set kind {kind!r}")
    try:
        if kind == "product_market":
            return ProductMarketEdge(params["reserves"])
        if kind == "capped_concave":
            return CappedConcaveEdge(gain=_decode_gain(params["gain"]),
                                     capacity=params["capacity"])
        if kind == "linear_tick":
            return LinearTickEdge(price=params["price"], cap=params["cap"])
        return HalfLineEdge(params["cap"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad parameters for set kind {kind!r}: {_reason(exc)}") from exc


def _encode_utility(utility: Utility) -> dict:
    if isinstance(utility, LinearUtility):
        return {"kind": "linear", "c": [float(v) for v in utility.c]}
    if isinstance(utility, QuadraticUtility):
        return {"kind": "quadratic", "c": [float(v) for v in utility.c],
                "mu": utility.mu}
    if isinstance(utility, ThresholdUtility):
        return {"kind": "threshold", "b": utility.b}
    raise SchemaError(f"utility {type(utility).__name__} is not serializable")


def _decode_utility(doc: dict) -> Utility:
    kind = doc.get("kind")
    keys = _kind_keys(_UTILITY_KEYS, kind, "utility")
    if not keys.issuperset(doc):
        raise _unknown_key(doc, keys, f"utility kind {kind!r}")
    try:
        if kind == "linear":
            return LinearUtility(doc["c"])
        if kind == "quadratic":
            return QuadraticUtility(doc["c"], doc["mu"])
        return ThresholdUtility(doc["b"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"bad parameters for utility kind {kind!r}: {_reason(exc)}") from exc


def to_document(instance: Instance, meta: dict | None = None) -> dict:
    edges = []
    for edge in instance.edges:
        kind, params = _encode_set(edge.flow_set)
        edges.append({"kind": kind, "params": params,
                      "nodes": list(edge.nodes), "fee": float(edge.fee)})
    out = {"version": SCHEMA_VERSION, "n": instance.n,
           "utility": _encode_utility(instance.utility), "edges": edges}
    if meta is not None:
        out["meta"] = meta
    return out


def from_document(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise SchemaError("instance document must be a JSON object")
    version = doc.get("version")
    try:
        supported = _real(version, "version") == SCHEMA_VERSION
    except (TypeError, OverflowError):
        supported = False
    if not supported:
        raise SchemaError(f"unsupported document version: {_shown(version)}")
    if not _DOCUMENT_KEYS.issuperset(doc):
        raise _unknown_key(doc, _DOCUMENT_KEYS, "instance document")
    for key in ("n", "utility", "edges"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    if not isinstance(doc["edges"], list) or not isinstance(doc["utility"], dict):
        raise SchemaError("edges must be an array and utility an object")
    edges = _market_columns(doc["edges"], doc["n"])
    if edges is None:
        edges = _decode_edges(doc["edges"])
    try:
        return Instance(n=doc["n"], edges=edges, utility=_decode_utility(doc["utility"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(str(exc)) from exc


def _market_columns(edge_docs: list, n) -> MarketColumns | None:
    """The edges of a document as ``MarketColumns`` when they are at least
    ``BATCH_MIN`` markets, every one valid and in JSON's exact types: a
    ``float`` reserve and fee, an ``int`` node.  Otherwise None, and
    ``_decode_edges`` loads them, or refuses them by name.

    Each test takes only what the per-edge constructors accept, so both
    give the same values: two reserves with 0 < r < inf and
    0 < r1 * r2 < inf, 0 <= fee < inf, two distinct nodes with
    0 <= node < n.  The tests are ``set(map(type, ...))`` over the values
    and one range check per column; none of them raises."""
    m = len(edge_docs)
    if m < BATCH_MIN or type(n) is not int:
        return None
    if set(map(type, edge_docs)) != {dict} or set(map(len, edge_docs)) != {len(_EDGE_KEYS)}:
        return None
    # four keys each, so four of them present means those four exactly
    kinds, params, nodes, fees = (list(map(dict.get, edge_docs, itertools.repeat(key)))
                                  for key in ("kind", "params", "nodes", "fee"))
    if (set(map(type, kinds)) != {str} or kinds.count("product_market") != m
            or set(map(type, params)) != {dict} or set(map(len, params)) != {1}):
        return None
    reserves = list(map(dict.get, params, itertools.repeat("reserves")))
    if (set(map(type, reserves)) != {list} or set(map(len, reserves)) != {2}
            or set(map(type, nodes)) != {list} or set(map(len, nodes)) != {2}):
        return None
    reserves = list(itertools.chain.from_iterable(reserves))
    nodes = list(itertools.chain.from_iterable(nodes))
    if (set(map(type, reserves)) != {float} or set(map(type, fees)) != {float}
            or set(map(type, nodes)) != {int}):
        return None
    # an n beyond sys.maxsize has no utility of its size, and keeps every
    # node within intp
    if not (0 <= min(nodes) and max(nodes) < n <= sys.maxsize):
        return None
    reserves = np.fromiter(reserves, float, 2 * m)
    nodes = np.fromiter(nodes, np.intp, 2 * m)
    fees = np.fromiter(fees, float, m)
    with np.errstate(over="ignore"):  # an overflow to inf fails its test below
        invariants = reserves[0::2] * reserves[1::2]
    # min and max of an array holding NaN are NaN, which fails each test;
    # an infinite reserve gives an infinite or NaN product
    if not (reserves.min() > 0.0 and invariants.min() > 0.0 and invariants.max() < math.inf
            and fees.min() >= 0.0 and fees.max() < math.inf
            and (nodes[0::2] != nodes[1::2]).all()):
        return None
    return MarketColumns(reserves, nodes, fees)


def _decode_edges(edge_docs: list) -> tuple[Edge, ...]:
    """The edges of a document, one by one: the reference loader, and the
    source of every refusal of an edge."""
    edges = []
    for i, edge_doc in enumerate(edge_docs):
        if not isinstance(edge_doc, dict):
            raise SchemaError(f"edge {i}: must be an object")
        if not _EDGE_KEYS.issuperset(edge_doc):
            if "edge_utility" in edge_doc:
                raise SchemaError(f"edge {i}: edge utilities are not supported")
            raise _unknown_key(edge_doc, _EDGE_KEYS, f"edge {i}")
        try:
            the_set = _decode_set(edge_doc.get("kind"), edge_doc["params"])
            edges.append(Edge(the_set, edge_doc["nodes"], edge_doc.get("fee", 0.0)))
        except (SchemaError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"edge {i}: {_reason(exc)}") from exc
    return tuple(edges)


def dumps(instance: Instance, meta: dict | None = None) -> str:
    """Canonical UTF-8 text form: sorted keys, minimal separators."""
    return json.dumps(to_document(instance, meta=meta), sort_keys=True,
                      separators=(",", ":"))


def _shallow(value, depth: int) -> bool:
    """Whether the arrays and objects of ``value`` nest less than ``depth``
    levels deep (False when they nest more; at exactly ``depth`` levels,
    True only when the innermost ones are empty).

    One ``gc.get_referents`` call per level returns the items of every
    list and the values of every dict of that level, and a string,
    number, bool or None refers to nothing, so the walk runs out one
    level below the deepest array or object, at C speed."""
    level = [value]
    for _ in range(depth):
        level = gc.get_referents(*level)
        if not level:
            return True
    return False


def _parse(text: str, what: str):
    """The JSON value of ``text``; SchemaError naming ``what`` when it is not JSON.

    orjson decodes the text.  ``json`` decides a text orjson refuses (the
    format comment above ``_DOCUMENT_KEYS`` lists them) and one whose
    value nests 100 levels or more: orjson reads any depth, where ``json``
    refuses nesting beyond the interpreter's recursion limit less the
    caller's stack depth (about 990 levels under the default limit)."""
    try:
        value = orjson.loads(text)
    except orjson.JSONDecodeError:
        pass
    else:
        if _shallow(value, 100):
            return value
    # ValueError: bad JSON or an integer too long to convert;
    # RecursionError: arrays or objects nested too deeply to decode
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{what}: not valid JSON: {exc}") from exc


def loads(text: str) -> Instance:
    return from_document(_parse(text, "instance document"))
