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

The loader (``from_document``) checks Python-typed values in one pass per
edge, without numpy, with one decoder per set kind.  A value of the type
JSON gives it passes on one exact-type test: a nonnegative ``int`` node,
a ``float`` fee or reserve.  Any other value goes through ``sets._real``,
which takes an ``int`` or a ``float`` (or another real number type such
as a numpy scalar) and refuses booleans, strings and everything else, or
through ``sets._index`` for counts and node indices; each constructor
then checks its range with chained comparisons.  Node ranges are checked
once over all edges in ``Instance``.  Every refusal names its field: a
missing key, a value that is not an array (``sets._array``), an entry
that is not a number or is out of its range, an integer beyond float
range.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SchemaError
from .sets import (CappedConcaveEdge, FlowSet, HalfLineEdge, LinearTickEdge,
                   PiecewiseLinearGain, ProductMarketEdge, RationalGain, _array, _floats,
                   _index, _real, as_vector, scaled_tol)

SCHEMA_VERSION = 1


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


@dataclass(frozen=True)
class Instance:
    """A convex flow problem: n nodes, hyperedges, and a network utility."""

    n: int
    edges: tuple[Edge, ...]
    utility: Utility

    def __post_init__(self):
        n = _index(self.n, "n")
        edges = tuple(self.edges)
        if n < 1:
            raise ValueError("need at least one node")
        if self.utility.dim != n:
            raise ValueError("utility dimension must equal the node count")
        # one pass over the nodes of every edge; each is already a nonnegative int
        if max((v for edge in edges for v in edge.nodes), default=-1) >= n:
            i, v = next((i, v) for i, edge in enumerate(edges) for v in edge.nodes if v >= n)
            raise ValueError(f"edge {i}: nodes must be less than n = {n}, got {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def max_fee(self) -> float:
        return max((edge.fee for edge in self.edges), default=0.0)


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
        raise SchemaError(f"unknown {what} kind: {kind!r}") from None


def _unknown_key(doc: dict, allowed: frozenset, where: str) -> SchemaError:
    """The error for the keys of ``doc`` outside ``allowed``, naming them.
    Callers test ``allowed.issuperset(doc)`` first, so a valid object
    costs one subset test and no message."""
    unknown = ", ".join(sorted(repr(key) for key in doc if key not in allowed))
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
        raise SchemaError(f"unsupported document version: {version!r}")
    if not _DOCUMENT_KEYS.issuperset(doc):
        raise _unknown_key(doc, _DOCUMENT_KEYS, "instance document")
    for key in ("n", "utility", "edges"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    if not isinstance(doc["edges"], list) or not isinstance(doc["utility"], dict):
        raise SchemaError("edges must be an array and utility an object")
    edges = []
    for i, edge_doc in enumerate(doc["edges"]):
        if not isinstance(edge_doc, dict):
            raise SchemaError(f"edge {i}: must be an object")
        if not _EDGE_KEYS.issuperset(edge_doc):
            if "edge_utility" in edge_doc:
                raise SchemaError(f"edge {i}: edge utilities are not supported")
            raise _unknown_key(edge_doc, _EDGE_KEYS, f"edge {i}")
        try:
            the_set = _decode_set(edge_doc.get("kind"), edge_doc["params"])
            edges.append(Edge(the_set, edge_doc["nodes"], edge_doc.get("fee", 0.0)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"edge {i}: {_reason(exc)}") from exc
    try:
        return Instance(n=doc["n"], edges=tuple(edges),
                        utility=_decode_utility(doc["utility"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(str(exc)) from exc


def dumps(instance: Instance, meta: dict | None = None) -> str:
    """Canonical UTF-8 text form: sorted keys, minimal separators."""
    return json.dumps(to_document(instance, meta=meta), sort_keys=True,
                      separators=(",", ":"))


def _parse(text: str, what: str):
    """The JSON value of ``text``; SchemaError naming ``what`` when it is not JSON."""
    # ValueError: bad JSON or an integer too long to convert;
    # RecursionError: arrays or objects nested too deeply to decode
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{what}: not valid JSON: {exc}") from exc


def loads(text: str) -> Instance:
    return from_document(_parse(text, "instance document"))
