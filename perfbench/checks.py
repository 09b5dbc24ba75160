"""Output checks for the benchmark, made apart from convexflow.

Every check here reads an instance as a plain document (the ``n``,
``utility`` and ``edges`` fields of the instance format, plus the
benchmark's own ``minkowski_sum`` edge kind) and recomputes what it needs
with numpy from the closed forms of the edge families: support values,
membership, net flows, utilities, the dual function and subset sums.  It
never imports convexflow, so a fault in convexflow cannot hide itself by
agreeing with its own arithmetic.

A failed check raises ``CheckFailed``.  ``self_test`` feeds corrupted
copies of good outputs to the checkers and reports any that passes.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

DUAL_TOL = 1e-9        # relative agreement of recomputed and reported values
MEMBER_TOL = 1e-9      # scaled slack of a membership inequality
GAP_SLACK = 1e-4       # relative slack of the paper's (n + 1) * max fee bound
CONIC_TOL = 1e-6       # relative agreement of solve and solve_conic duals
TIE_BAND = 1e-6        # |f - q| below which an activation may go either way


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Solution:
    """One solve's output as plain numbers: the fields every check reads."""

    dual: float
    primal: float
    nu: np.ndarray
    flows: list
    activations: np.ndarray


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * (1.0 + max(abs(a), abs(b)))


def _slack(rhs: float) -> float:
    return MEMBER_TOL * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# edge families: support values and membership from their closed forms
# ---------------------------------------------------------------------------

def _gain_output(gain: dict, w: float) -> float:
    if gain["kind"] == "rational":
        return w / (1.0 + w)
    pts = np.array([[0.0, 0.0]] + [list(p) for p in gain["points"]])
    return float(np.interp(w, pts[:, 0], pts[:, 1]))


def support(edge: dict, xi: np.ndarray) -> float:
    """sup of xi @ x over the edge's flow set, for xi >= 0."""
    kind, p = edge["kind"], edge["params"]
    if kind == "product_market":
        r1, r2 = p["reserves"]
        return max(xi[0] * r1 + xi[1] * r2 - 2.0 * math.sqrt(r1 * r2 * xi[0] * xi[1]), 0.0)
    if kind == "half_line":
        return xi[0] * p["cap"]
    if kind == "linear_tick":
        return p["cap"] * max(0.0, p["price"] * xi[1] - xi[0])
    if kind == "capped_concave":
        cap, gain = p["capacity"], p["gain"]
        if gain["kind"] == "rational":
            w = cap if xi[0] == 0.0 else min(max(math.sqrt(xi[1] / xi[0]) - 1.0, 0.0), cap)
            candidates = [w]
        else:
            # a concave piecewise-linear objective peaks at a breakpoint
            candidates = [0.0, cap] + [w for w, _ in gain["points"] if w < cap]
        return max(0.0, max(-xi[0] * w + xi[1] * _gain_output(gain, w) for w in candidates))
    if kind == "minkowski_sum":
        return sum(support(part, xi) for part in p["parts"])
    raise CheckFailed(f"no independent support for edge kind {kind!r}")


# directions of the separation test for sum sets (an outer test)
_ANGLES = np.linspace(0.0, 0.5 * math.pi, 64)
_FAN = np.column_stack([np.cos(_ANGLES), np.sin(_ANGLES)])


def contains(edge: dict, x: np.ndarray) -> bool:
    kind, p = edge["kind"], edge["params"]
    if kind == "product_market":
        r1, r2 = p["reserves"]
        if x[0] > r1 + _slack(r1) or x[1] > r2 + _slack(r2):
            return False
        k = r1 * r2
        return max(r1 - x[0], 0.0) * max(r2 - x[1], 0.0) >= k - _slack(k)
    if kind == "half_line":
        return x[0] <= p["cap"] + _slack(p["cap"])
    if kind == "linear_tick":
        bound = p["price"] * min(p["cap"], max(0.0, -x[0]))
        return x[0] <= _slack(0.0) and x[1] <= bound + _slack(bound)
    if kind == "capped_concave":
        bound = _gain_output(p["gain"], min(p["capacity"], max(0.0, -x[0])))
        return x[0] <= _slack(0.0) and x[1] <= bound + _slack(bound)
    if kind == "minkowski_sum":
        for xi in _FAN:
            value = support(edge, xi)
            if xi @ x > value + _slack(value):
                return False
        return True
    raise CheckFailed(f"no independent membership for edge kind {kind!r}")


# ---------------------------------------------------------------------------
# network quantities
# ---------------------------------------------------------------------------

def net_flow(doc: dict, flows) -> np.ndarray:
    y = np.zeros(doc["n"])
    for edge, x in zip(doc["edges"], flows):
        np.add.at(y, edge["nodes"], np.asarray(x, dtype=float))
    return y


def utility_value(doc: dict, y: np.ndarray) -> float:
    u = doc["utility"]
    if u["kind"] == "linear":
        return float(np.asarray(u["c"]) @ y)
    if u["kind"] == "quadratic":
        return float(np.asarray(u["c"]) @ y - 0.5 * u["mu"] * (y @ y))
    if u["kind"] == "threshold":
        return 0.0 if y[0] >= u["b"] - _slack(u["b"]) else -math.inf
    raise CheckFailed(f"unknown utility kind {u['kind']!r}")


def edge_support_values(doc: dict, nu: np.ndarray) -> np.ndarray:
    return np.array([support(edge, nu[edge["nodes"]]) for edge in doc["edges"]])


def dual_value(doc: dict, nu: np.ndarray) -> float:
    """g(nu) = Ubar(nu) + sum_i max(f_i(nu[nodes_i]) - q_i, 0)."""
    u = doc["utility"]
    fees = np.array([edge["fee"] for edge in doc["edges"]])
    edge_terms = float(np.maximum(edge_support_values(doc, nu) - fees, 0.0).sum())
    if u["kind"] == "quadratic":
        diff = np.asarray(u["c"]) - nu
        return float(diff @ diff) / (2.0 * u["mu"]) + edge_terms
    if u["kind"] == "linear":
        _require(np.allclose(nu, u["c"], rtol=0.0, atol=1e-12), "linear dual read away from nu = c")
        return edge_terms
    if u["kind"] == "threshold":
        return -u["b"] * float(nu[0]) + edge_terms
    raise CheckFailed(f"unknown utility kind {u['kind']!r}")


def primal_value(doc: dict, flows, activations) -> float:
    fees = np.array([edge["fee"] for edge in doc["edges"]])
    return utility_value(doc, net_flow(doc, flows)) + float(fees @ np.asarray(activations))


def min_reachable_sum(weights, target: int) -> int | None:
    """Smallest subset sum of positive integer weights that is >= target."""
    reachable = np.zeros(sum(weights) + 1, dtype=bool)
    reachable[0] = True
    for w in weights:
        reachable[w:] |= reachable[:-w].copy()
    hits = np.nonzero(reachable[target:])[0]
    return None if hits.size == 0 else int(target + hits[0])


# ---------------------------------------------------------------------------
# checks of whole outputs
# ---------------------------------------------------------------------------

def check_solution(doc: dict, sol: Solution, gap_bound: float):
    """Dual recomputed at the returned prices, integral activations, feasible
    flows, primal recomputed from the flows, and p <= d <= p + gap_bound."""
    nu = np.asarray(sol.nu, dtype=float)
    _require(bool(np.all(nu >= 0.0)), "negative price")
    d = dual_value(doc, nu)
    _require(_close(d, sol.dual, DUAL_TOL), f"dual value {sol.dual!r} != recomputed {d!r}")
    acts = np.asarray(sol.activations, dtype=float)
    _require(len(acts) == len(doc["edges"]) == len(sol.flows), "one flow and activation per edge")
    for i, (edge, x, lam) in enumerate(zip(doc["edges"], sol.flows, acts)):
        x = np.asarray(x, dtype=float)
        _require(lam in (0.0, -1.0), f"edge {i}: activation {lam!r} not in {{0, -1}}")
        if lam == 0.0:
            _require(not np.any(x), f"edge {i}: inactive edge carries flow {x.tolist()}")
        else:
            _require(contains(edge, x), f"edge {i}: flow {x.tolist()} outside its set")
    p = primal_value(doc, sol.flows, acts)
    _require(_close(p, sol.primal, DUAL_TOL), f"primal value {sol.primal!r} != recomputed {p!r}")
    slack = DUAL_TOL * (1.0 + abs(sol.dual))
    _require(sol.primal <= sol.dual + slack, f"primal {sol.primal!r} above dual {sol.dual!r}")
    _require(sol.dual - sol.primal <= gap_bound, f"gap {sol.dual - sol.primal!r} above {gap_bound!r}")


def paper_gap_bound(doc: dict, dual: float) -> float:
    """(n + 1) * max fee, the Shapley-Folkman bound, plus a relative slack."""
    max_fee = max((edge["fee"] for edge in doc["edges"]), default=0.0)
    return (doc["n"] + 1) * max_fee + GAP_SLACK * (1.0 + abs(dual))


def check_routing(doc: dict, sol: Solution):
    check_solution(doc, sol, paper_gap_bound(doc, sol.dual))


def _document_solution(solution_doc: dict) -> Solution:
    edges = solution_doc["edges"]
    return Solution(dual=solution_doc["objective_dual"], primal=solution_doc["objective_primal"],
                    nu=np.asarray(solution_doc["nu"], dtype=float),
                    flows=[e["x"] for e in edges],
                    activations=np.array([e["lambda"] for e in edges], dtype=float))


def check_linear_documents(instance_doc: dict, solution_text: str):
    """Solution document of a linear-utility instance, read as plain JSON."""
    solution_doc = json.loads(solution_text)
    c = np.asarray(instance_doc["utility"]["c"], dtype=float)
    _require(len(solution_doc["edges"]) == len(instance_doc["edges"]),
             "one solution edge per instance edge")
    sol = _document_solution(solution_doc)
    _require(sol.nu.shape == c.shape and np.array_equal(sol.nu, c), "linear dual not read at nu = c")
    fees = np.array([edge["fee"] for edge in instance_doc["edges"]])
    values = edge_support_values(instance_doc, c)
    for i, (f, q, lam) in enumerate(zip(values, fees, sol.activations)):
        if abs(f - q) > TIE_BAND * max(1.0, abs(f), q):
            _require((lam == -1.0) == (f > q), f"edge {i}: activation {lam} against f - q = {f - q!r}")
    check_solution(instance_doc, sol, DUAL_TOL * (1.0 + abs(sol.dual)))
    _require(_close(solution_doc["gap"], sol.dual - sol.primal, DUAL_TOL), "gap field disagrees")


@dataclass
class Certificate:
    """The four outputs of one fixed-fee certification."""

    relaxed: Solution          # solve
    conic_dual: float          # solve_conic(conic_rewrite(.))
    rounded_flows: list        # round_relaxation of the recovered points
    rounded_activations: np.ndarray
    rounded_net_flow: np.ndarray
    optimum: float             # brute_force_optimum


def check_certificate(doc: dict, cert: Certificate):
    """p_h <= p* <= d, d - p* <= (n + 1) max fee, conic and direct duals
    agree, rounding keeps net flows, and a knapsack optimum is minus the
    smallest subset sum reaching the target (so it is -b exactly when b is
    reachable and below -b otherwise)."""
    sol = cert.relaxed
    check_solution(doc, sol, paper_gap_bound(doc, sol.dual))
    slack = CONIC_TOL * (1.0 + abs(sol.dual))
    _require(sol.primal <= cert.optimum + slack, f"heuristic {sol.primal!r} above optimum {cert.optimum!r}")
    _require(cert.optimum <= sol.dual + slack, f"optimum {cert.optimum!r} above dual {sol.dual!r}")
    _require(sol.dual - cert.optimum <= paper_gap_bound(doc, sol.dual),
             f"dual {sol.dual!r} exceeds optimum {cert.optimum!r} by more than (n+1) max fee")
    _require(_close(cert.conic_dual, sol.dual, CONIC_TOL),
             f"solve_conic dual {cert.conic_dual!r} != solve dual {sol.dual!r}")
    acts = np.asarray(cert.rounded_activations, dtype=float)
    _require(bool(np.all((acts == 0.0) | (acts == -1.0))), f"rounded activations {acts.tolist()}")
    y_in = net_flow(doc, sol.flows)
    _require(np.allclose(net_flow(doc, cert.rounded_flows), y_in, rtol=0.0, atol=1e-12)
             and np.allclose(cert.rounded_net_flow, y_in, rtol=0.0, atol=1e-12),
             "rounding moved the net flow")
    if doc["utility"]["kind"] == "threshold":
        weights = [int(edge["params"]["cap"]) for edge in doc["edges"]]
        target = int(doc["utility"]["b"])
        best = min_reachable_sum(weights, target)
        expected = -math.inf if best is None else -float(best)
        _require(cert.optimum == expected, f"knapsack optimum {cert.optimum!r}, subset sums give {expected!r}")


# ---------------------------------------------------------------------------
# self-test: every corrupted output must be rejected
# ---------------------------------------------------------------------------

def _active_edge(sol: Solution) -> int:
    for i, (x, lam) in enumerate(zip(sol.flows, sol.activations)):
        if lam == -1.0 and np.any(np.asarray(x) != 0.0):
            return i
    raise CheckFailed("no active edge with flow to corrupt")


def _corrupt_solution(doc: dict, sol: Solution) -> dict:
    """The three corruptions every solve output can take.

    A moved flow or a flipped activation comes with the primal value
    recomputed for it, so that the primal check alone cannot catch it.
    """
    i = _active_edge(sol)
    perturbed = copy.deepcopy(sol)
    perturbed.dual += 1e-3 * (1.0 + abs(sol.dual))
    moved = copy.deepcopy(sol)
    x = np.asarray(moved.flows[i], dtype=float)
    moved.flows[i] = x + 0.05 * (1.0 + np.abs(x))  # past the boundary in every coordinate
    flipped = copy.deepcopy(sol)
    flipped.activations = np.array(sol.activations, dtype=float)
    flipped.activations[i] = 0.0
    for bad in (moved, flipped):
        bad.primal = primal_value(doc, bad.flows, bad.activations)
    return {"perturbed dual value": perturbed, "flow moved outside its set": moved,
            "flipped activation": flipped}


def corruptions(kind: str, doc, output) -> dict:
    """Corrupted copies of one good output, keyed by what was done to it."""
    if kind == "solution":
        return _corrupt_solution(doc, output)
    if kind == "documents":
        sol_doc = json.loads(output)
        out = {}
        for name, bad in _corrupt_solution(doc, _document_solution(sol_doc)).items():
            bad_doc = copy.deepcopy(sol_doc)
            bad_doc["objective_dual"] = float(bad.dual)
            bad_doc["objective_primal"] = float(bad.primal)
            bad_doc["gap"] = float(bad.dual - bad.primal)
            for e, x, lam in zip(bad_doc["edges"], bad.flows, bad.activations):
                e["x"] = [float(v) for v in x]
                e["lambda"] = float(lam)
            out[name] = json.dumps(bad_doc)
        return out
    if kind == "certificate":
        out = {}
        for name, bad in _corrupt_solution(doc, output.relaxed).items():
            bad_cert = copy.deepcopy(output)
            bad_cert.relaxed = bad
            out[name] = bad_cert
        if doc["utility"]["kind"] == "threshold":
            wrong = copy.deepcopy(output)
            wrong.optimum = output.optimum - 1.0
            out["wrong knapsack answer"] = wrong
        return out
    raise ValueError(f"unknown output kind {kind!r}")


def self_test(samples) -> list[str]:
    """Feed each checker corrupted outputs; return the corruptions it missed.

    ``samples`` holds (check, output kind, instance doc, good output); the
    good output must pass before its corruptions count.
    """
    missed = []
    for check, kind, doc, output in samples:
        check(doc, output)
        for name, bad in corruptions(kind, doc, output).items():
            try:
                check(doc, bad)
            except CheckFailed:
                continue
            missed.append(f"{check.__name__}: {name}")
    return missed
