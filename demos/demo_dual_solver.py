"""Dual decomposition on a small market network.

The dual price vector decouples the network into independent per-edge
arbitrage subproblems; a projected quasi-Newton method drives the node
prices to stationarity and the edge maximizers reassemble into a feasible
primal flow whose value certifies (near-)optimality.
"""

import numpy as np

from convexflow import (Edge, Instance, ProductMarketEdge, QuadraticUtility,
                        dual_value_and_gradient, solve, verify_optimality)

rng = np.random.default_rng(7)

n = 6
pairs = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (1, 4), (2, 3)]
edges = tuple(
    Edge(ProductMarketEdge(rng.uniform(2.0, 20.0, size=2)), pair, fee=0.05)
    for pair in pairs)
utility = QuadraticUtility(rng.uniform(0.8, 1.2, size=n), mu=0.05)
inst = Instance(n=n, edges=edges, utility=utility)

g, grad, state = dual_value_and_gradient(inst, utility.c)
print(f"dual value at the starting prices: {g:.6f},"
      f" gradient norm {np.abs(grad).max():.3f}")

report = solve(inst)
print(f"converged in {report.iterations} iterations"
      f" ({report.runtime_ms:.1f} ms)")
print(f"dual optimum    {report.dual_value:.9f}")
print(f"primal value    {report.primal_value:.9f}")
print(f"relative gap    {report.rel_gap:.2e}, ties {report.tie_count}")
print("node prices     ", np.round(report.nu, 4))
print("net flows       ", np.round(report.y_hat, 4))
active = [i for i, lam in enumerate(report.activations) if lam == -1.0]
print("active edges    ", active)
print("certificate     ", verify_optimality(report, tol=1e-7).status)
