"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion as it completes.
"""

import math
import time

import numpy as np
import pytest

from convexflow.bench import (BenchConfig, gen_knapsack_instance, grid_configs,
                              run_cell)
from convexflow.calculus import lift, minkowski_sum
from convexflow.conic import ClippedCone, FlowCone, conic_rewrite
from convexflow.fees import brute_force_optimum
from convexflow.model import (Edge, Instance, LinearUtility, QuadraticUtility,
                              net_flow)
from convexflow.sets import (CappedConcaveEdge, HalfLineEdge, LinearTickEdge,
                             PiecewiseLinearGain, ProductMarketEdge)
from convexflow.solver import (SolverOptions, dual_value_and_gradient, solve,
                               solve_conic)

from conftest import builtin_families
from oracles import central_difference, sample_members, subset_sum_reachable


def check(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def mixed_random_instance(rng, n_max, m_max, fee_hi, mu_range=(0.1, 0.5)):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    edges = []
    for _ in range(m):
        kind = int(rng.integers(0, 5))
        fee = float(rng.uniform(0.0, fee_hi))
        if kind == 4:
            edges.append(Edge(HalfLineEdge(float(rng.uniform(0.5, 2.0))),
                              (int(rng.integers(0, n)),), fee=fee))
            continue
        if kind == 0:
            the_set = CappedConcaveEdge(capacity=float(rng.uniform(0.5, 2.0)))
        elif kind == 1:
            cap = float(rng.uniform(0.5, 1.5))
            the_set = CappedConcaveEdge(
                gain=PiecewiseLinearGain([(0.5 * cap, 0.6 * cap), (2.0 * cap, cap)]),
                capacity=cap)
        elif kind == 2:
            the_set = LinearTickEdge(price=float(rng.uniform(0.5, 2.0)),
                                     cap=float(rng.uniform(0.5, 2.0)))
        else:
            the_set = ProductMarketEdge(rng.uniform(1.0, 5.0, size=2))
        pair = tuple(int(v) for v in rng.choice(n, size=2, replace=False))
        edges.append(Edge(the_set, pair, fee=fee))
    c = rng.uniform(0.5, 1.5, size=n)
    mu = float(rng.uniform(*mu_range))
    return Instance(n=n, edges=tuple(edges), utility=QuadraticUtility(c, mu))


# ---------------------------------------------------------------------------
# criterion 1: geometry property suites
# ---------------------------------------------------------------------------

SAMPLES = 1000


def test_criterion_1a_flow_cone_downward_closure(rng):
    started = time.perf_counter()
    violations = 0
    for name, the_set in builtin_families().items():
        cone = FlowCone(the_set)
        members = sample_members(the_set, rng, 50)
        for _ in range(SAMPLES):
            t = members[int(rng.integers(0, len(members)))]
            lam = rng.uniform(0.0, 1.5)
            point = np.append(lam * np.asarray(t), -lam)
            drop = rng.exponential(0.3, size=the_set.dim + 1)
            if not cone.contains(point - drop, 1e-9):
                violations += 1
    elapsed = time.perf_counter() - started
    check("criterion 1a: flow-cone downward closure",
          violations == 0 and elapsed < 7.5,
          f"{violations} violations, {elapsed:.1f}s of 7.5s")


def test_criterion_1b_clipped_cone_is_convex_hull(rng):
    started = time.perf_counter()
    bad_forward = bad_reverse = 0
    for name, the_set in builtin_families().items():
        clipped = ClippedCone(FlowCone(the_set))
        members = sample_members(the_set, rng, 50)
        for _ in range(SAMPLES):
            t = np.asarray(members[int(rng.integers(0, len(members)))])
            theta = rng.uniform()
            # forward: convex combinations of {0} and T x {-1} are clipped points
            if not clipped.contains(np.append(theta * t, -theta), 1e-7):
                bad_forward += 1
            # reverse: clipped points split into a scaled member plus zero
            lam = rng.uniform(1e-3, 1.0)
            beta = rng.uniform()
            x = lam * beta * t
            if not the_set.contains(x / lam, 1e-7):
                bad_reverse += 1
    elapsed = time.perf_counter() - started
    check("criterion 1b: conv(Q) equals the clipped cone",
          bad_forward == 0 and bad_reverse == 0 and elapsed < 7.5,
          f"forward {bad_forward}, reverse {bad_reverse}, {elapsed:.1f}s of 7.5s")


def test_criterion_1c_polar_consistency(rng):
    started = time.perf_counter()
    worst = -math.inf
    for name, the_set in builtin_families().items():
        members = sample_members(the_set, rng, 60)
        cone_pts = []
        for _ in range(SAMPLES):
            t = np.asarray(members[int(rng.integers(0, len(members)))])
            lam = rng.uniform(0.0, 1.5)
            point = np.append(lam * t, -lam)
            if rng.random() < 0.25:
                point[:-1] -= rng.exponential(0.2, size=the_set.dim)
            cone_pts.append(point)
        polar_pts = []
        while len(polar_pts) < SAMPLES:
            xi = rng.uniform(0.0, 2.0, size=the_set.dim)
            value = the_set.support(xi).value
            polar_pts.append(np.append(xi, value + rng.exponential(0.5)
                                       * rng.integers(0, 2)))
        products = np.array(cone_pts) @ np.array(polar_pts).T
        worst = max(worst, float(products.max()))
    elapsed = time.perf_counter() - started
    check("criterion 1c: polar epigraph test vs inner products",
          worst <= 1e-9 and elapsed < 7.5,
          f"max inner product {worst:.2e}, {elapsed:.1f}s of 7.5s")


def test_criterion_1d_support_calculus(rng):
    started = time.perf_counter()
    worst = 0.0
    first = ProductMarketEdge([1.5, 3.0])
    second = CappedConcaveEdge(capacity=2.0)
    summed = minkowski_sum(first, second)
    for _ in range(SAMPLES):
        xi = rng.uniform(0.0, 2.0, size=2)
        fa, fb = first.support(xi).value, second.support(xi).value
        fs = summed.support(xi).value
        worst = max(worst, abs(fs - fa - fb) / (1.0 + abs(fa) + abs(fb)))
    base = ProductMarketEdge([2.0, 4.0])
    lifted = lift(base, [3, 1], 5)
    for _ in range(SAMPLES):
        xi = rng.uniform(0.0, 2.0, size=5)
        pullback = base.support(xi[[3, 1]]).value
        value = lifted.support(xi).value
        worst = max(worst, abs(value - pullback) / (1.0 + abs(pullback)))
    elapsed = time.perf_counter() - started
    check("criterion 1d: support additivity and lift pullback",
          worst <= 1e-9 and elapsed < 7.5,
          f"worst relative error {worst:.2e}, {elapsed:.1f}s of 7.5s")


# ---------------------------------------------------------------------------
# criterion 2: solver numerics
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_and_weak_duality(rng):
    started = time.perf_counter()
    checked = 0
    worst_grad = 0.0
    while checked < 100:
        inst = mixed_random_instance(rng, n_max=8, m_max=16, fee_hi=1.0)
        nu = rng.uniform(0.2, 2.0, size=inst.n)
        g, grad, state = dual_value_and_gradient(inst, nu)
        if min(abs(v - e.fee) for v, e in
               zip(state.values, inst.edges)) <= 1e-4:
            continue  # tie-free points only
        numeric = central_difference(
            lambda v: dual_value_and_gradient(inst, v)[0], nu, h=1e-6)
        scale = max(1.0, float(np.abs(grad).max()))
        worst_grad = max(worst_grad, float(np.abs(grad - numeric).max()) / scale)
        # weak duality at this dual point against a feasible primal
        flows = [p if (a and p is not None)
                 else np.zeros(e.degree)
                 for a, p, e in zip(state.active, state.points, inst.edges)]
        active = [a and p is not None for a, p in zip(state.active, state.points)]
        primal = inst.utility.value(net_flow(inst, flows)) - sum(
            e.fee for e, on in zip(inst.edges, active) if on)
        assert primal <= g + 1e-9 * (1.0 + abs(g))
        checked += 1
    check("criterion 2: dual gradient vs central differences + weak duality",
          worst_grad <= 1e-5,
          f"worst rel error {worst_grad:.2e} over {checked} points, "
          f"{time.perf_counter() - started:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: oracle equivalence on small fixed-fee instances
# ---------------------------------------------------------------------------

def test_criterion_3_brute_force_bracket(rng):
    started = time.perf_counter()
    worst_lower = worst_upper = worst_sf = -math.inf
    for _ in range(50):
        inst = mixed_random_instance(rng, n_max=4, m_max=8, fee_hi=0.8)
        report = solve(inst)
        reference = brute_force_optimum(inst).value
        worst_lower = max(worst_lower, report.primal_value - reference)
        worst_upper = max(worst_upper, reference - report.dual_value)
        sf = (inst.n + 1) * inst.max_fee()
        worst_sf = max(worst_sf, report.dual_value - reference - sf)
    elapsed = time.perf_counter() - started
    ok = (worst_lower <= 1e-6 and worst_upper <= 1e-6 and worst_sf <= 1e-6
          and elapsed < 300.0)
    check("criterion 3: heuristic bracket vs brute-force optimum",
          ok, f"p_h-p*: {worst_lower:.2e}, p*-d*: {worst_upper:.2e}, "
          f"fee-bound slack: {worst_sf:.2e}, {elapsed:.1f}s of 300s")


# ---------------------------------------------------------------------------
# criterion 4: knapsack reduction soundness
# ---------------------------------------------------------------------------

def test_criterion_4_knapsack_soundness(rng):
    started = time.perf_counter()
    mismatches = 0
    for _ in range(20):
        m = int(rng.integers(1, 13))
        weights = [int(w) for w in rng.integers(1, 11, size=m)]
        b = int(rng.integers(0, sum(weights) + 1))
        value = brute_force_optimum(gen_knapsack_instance(weights, b)).value
        if subset_sum_reachable(weights, b):
            if abs(value + float(b)) > 1e-9:
                mismatches += 1
        else:
            if not (value < -float(b) or value == -math.inf):
                mismatches += 1
    elapsed = time.perf_counter() - started
    check("criterion 4: knapsack brute force vs subset-sum DP",
          mismatches == 0 and elapsed < 60.0,
          f"{mismatches} mismatches, {elapsed:.1f}s of 60s")


# ---------------------------------------------------------------------------
# criterion 5: order-routing table analog at desk scale
# ---------------------------------------------------------------------------

def test_criterion_5_routing_tables():
    started = time.perf_counter()
    expected_m = {10: 25, 17: 72, 28: 196}
    # mu = 0: the linear short circuit is exact up to tie enumeration
    exact_ok = 0
    cells = 0
    for cfg in grid_configs([10, 17, 28], [0.0], [0.01, 1.0], range(10)):
        row = run_cell(cfg)
        assert row.m == expected_m[cfg.n]
        cells += 1
        if row.rel_gap <= 1e-5 and row.tie_count <= 3:
            exact_ok += 1
    # mu = 1e-2: the bracket must mirror the fee bound
    bracket_bad = 0
    for cfg in grid_configs([10, 17, 28], [1e-2], [0.01, 1.0], range(10)):
        row = run_cell(cfg)
        bound = (cfg.n + 1) * cfg.q0 + 1e-4 * (1.0 + abs(row.dual_opt))
        if row.dual_opt - row.primal_heur > bound:
            bracket_bad += 1
    elapsed = time.perf_counter() - started
    check("criterion 5: desk-scale routing tables",
          exact_ok >= 0.9 * cells and bracket_bad == 0 and elapsed < 120.0,
          f"mu=0 exact on {exact_ok}/{cells}, mu=1e-2 bracket misses "
          f"{bracket_bad}, {elapsed:.1f}s of 120s")


# ---------------------------------------------------------------------------
# criterion 6: conic equivalence
# ---------------------------------------------------------------------------

def test_criterion_6_conic_equivalence(rng):
    started = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        inst = mixed_random_instance(rng, n_max=6, m_max=8, fee_hi=0.0)
        direct = solve(inst)
        conic = solve_conic(conic_rewrite(inst))
        worst = max(worst, abs(direct.dual_value - conic.dual_value))
        # recovered conic edge points sit in the cones at activation -1
        rewritten = conic_rewrite(inst)
        for i, (x, lam) in enumerate(zip(conic.flows, conic.activations)):
            assert rewritten.cones[i].contains(np.append(x, lam), 1e-6)
    check("criterion 6: original vs conic-form optimal values",
          worst <= 1e-7, f"worst |difference| {worst:.2e}, "
          f"{time.perf_counter() - started:.1f}s")
