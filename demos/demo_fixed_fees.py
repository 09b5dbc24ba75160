"""Fixed fees: relaxation, rounding, gap bounds, and the knapsack reduction.

Charging a fee for any nonzero use of an edge makes the problem nonconvex
(and NP-hard), but its convex relaxation over clipped cones is a plain
convex flow problem, rounding fractional activations down to -1 keeps the
net flows feasible, and the optimum is trapped between the recovered
primal value and the dual bound, within (n + 1) max fee of each other.
"""

import numpy as np

from convexflow import (Edge, Instance, ProductMarketEdge, QuadraticUtility,
                        brute_force_optimum, gap_bounds, round_relaxation,
                        solve)
from convexflow.bench import gen_knapsack_instance

rng = np.random.default_rng(3)

edges = tuple(
    Edge(ProductMarketEdge(rng.uniform(1.0, 6.0, size=2)),
         tuple(int(v) for v in rng.choice(3, size=2, replace=False)),
         fee=float(rng.uniform(0.05, 0.4)))
    for _ in range(6))
inst = Instance(n=3, edges=edges,
                utility=QuadraticUtility(rng.uniform(0.8, 1.4, size=3), 0.2))

report = solve(inst)
bounds = gap_bounds(report, inst)
reference = brute_force_optimum(inst)
print("fixed-fee instance with 6 markets on 3 assets")
print(f"  dual bound        {bounds.upper:.8f}")
print(f"  heuristic primal  {bounds.lower:.8f}")
print(f"  true optimum      {reference.value:.8f}  (pattern {reference.pattern})")
print(f"  a-priori bound    (n+1) max fee = {bounds.sf_bound:.4f}")
print()

# Rounding a fractional relaxation point: partial activations drop to -1,
# flows and net trade stay put, and only the extra fee is lost.
half = [(0.5 * x, -0.5) if lam == -1.0 else (x, lam)
        for x, lam in zip(report.flows, report.activations)]
rounded = round_relaxation(inst, half)
print(f"  rounding a half-activated point pays {rounded.fee_delta:.4f} extra fee")
print()

# The knapsack reduction: weights (3, 5, 7), target 12 = 5 + 7.
inst = gen_knapsack_instance([3, 5, 7], 12)
report = solve(inst)
reference = brute_force_optimum(inst)
print("knapsack reduction, weights (3, 5, 7), target 12")
print(f"  relaxation bound {report.dual_value:.4f}  (exactly -target)")
print(f"  recovered value  {report.primal_value:.4f}"
      f"  via pattern {reference.pattern}")
print(f"  every edge tied: {report.tie_count} of {inst.m};"
      " the ties are where the hardness lives")
