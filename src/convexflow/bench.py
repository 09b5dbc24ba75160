"""Instance generators and the order-routing benchmark harness.

The benchmark builds a market network of ``n`` assets and
``m = round(n^2 / 4)`` constant-product markets over random asset pairs,
every market charging the same fixed fee ``q0``.  The trader maximizes
``c @ y`` (mu = 0) or ``c @ y - (mu / 2) * |y|^2`` of the net trade.

Distribution conventions (not dictated anywhere, so they are recorded in
the instance document's ``meta`` block): utility weights c are uniform on
[0.5, 1.5), reserves are log-uniform on [1, 100).

Randomness comes from the counter-based Philox 4x64 bit generator keyed
by the cell seed, so documents are reproducible bit for bit across runs
and platforms.  The stream is drawn in this order: the n weights c; for
each attempt at a pair list that covers every node, 2m bounded integers
(a in [0, n), then b in [0, n - 1), market by market); then 2m reserve
uniforms (r1, r2 market by market).  Each is one array draw, and it is
the stream of drawing market by market with scalar calls: numpy's
bounded draw over an array of bounds takes the bit stream element by
element, as its scalar calls do, and ``random(2m)`` gives the doubles of
m calls of ``random(2)``.  So the documents of every seed are those of
the per-edge generator (``tests/oracles.py::bench_instance_reference``).
"""

from __future__ import annotations

import csv
import math
import sys
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import solver
from .model import (Edge, Instance, LinearUtility, QuadraticUtility,
                    ThresholdUtility)
from .sets import HalfLineEdge, ProductMarketEdge

RESERVE_RANGE = (1.0, 100.0)
WEIGHT_RANGE = (0.5, 1.5)
# draws of a pair list at most before giving up on covering every node
MAX_ATTEMPTS = 1000

CSV_COLUMNS = ("n", "m", "mu", "q0", "seed", "dual_opt", "primal_heur",
               "rel_gap", "tie_count", "runtime_ms", "status")


@dataclass(frozen=True)
class BenchConfig:
    n: int
    mu: float = 0.0
    q0: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two assets")
        if self.q0 < 0.0 or self.mu < 0.0:
            raise ValueError("mu and q0 must be nonnegative")

    @property
    def m(self) -> int:
        return max(1, round(self.n * self.n / 4))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _draw_pairs(rng: np.random.Generator, n: int, m: int) -> list[list[int]]:
    """m random node pairs [a, b] with a < b that together touch every node."""
    bounds = np.tile([n, n - 1], m)
    for _ in range(MAX_ATTEMPTS):
        pairs = rng.integers(0, bounds).reshape(m, 2)
        a, b = pairs[:, 0], pairs[:, 1]
        b += b >= a  # b is drawn from the n - 1 nodes other than a
        touched = np.zeros(n, dtype=bool)
        touched[a] = True
        touched[b] = True
        if touched.all():
            return np.stack((np.minimum(a, b), np.maximum(a, b)), axis=1).tolist()
    raise RuntimeError("could not cover every node; raise m or n")


def gen_bench_instance(config: BenchConfig) -> Instance:
    """Random routing instance; identical seeds give identical documents."""
    rng = _rng(config.seed)
    c = (WEIGHT_RANGE[0] + rng.random(config.n) * (WEIGHT_RANGE[1] - WEIGHT_RANGE[0])).tolist()
    pairs = _draw_pairs(rng, config.n, config.m)
    log_hi = math.log(RESERVE_RANGE[1] / RESERVE_RANGE[0])
    reserves = (RESERVE_RANGE[0] * np.exp(rng.random(2 * config.m) * log_hi)).tolist()
    # Python floats and ints take both constructors' exact-type paths
    q0 = config.q0
    edges = tuple([Edge(ProductMarketEdge((r1, r2)), (a, b), q0)
                   for (a, b), r1, r2 in zip(pairs, reserves[0::2], reserves[1::2])])
    if config.mu == 0.0:
        utility = LinearUtility(c)
    else:
        utility = QuadraticUtility(c, config.mu)
    return Instance(n=config.n, edges=edges, utility=utility)


def bench_meta(config: BenchConfig) -> dict:
    return {"generator": "routing_bench", "seed": config.seed, "n": config.n,
            "m": config.m, "mu": config.mu, "q0": config.q0,
            "weight_range": list(WEIGHT_RANGE), "reserve_range": list(RESERVE_RANGE),
            "rng": "philox4x64"}


def gen_knapsack_instance(weights: Sequence[int], target: int) -> Instance:
    """Single-node fixed-fee instance encoding subset sum.

    One half-line edge per item with supply and fee both equal to the
    item weight; the utility demands net flow at least the target, so the
    optimum is exactly -target when some subset of weights sums to it.
    """
    ws = [int(w) for w in weights]
    if any(w < 1 for w in ws):
        raise ValueError("weights must be positive integers")
    if int(target) < 0:
        raise ValueError("target must be nonnegative")
    # beyond the largest float, float() would raise OverflowError
    if any(w > sys.float_info.max for w in ws):
        raise ValueError(f"weights must be at most {sys.float_info.max:g}")
    if int(target) > sys.float_info.max:
        raise ValueError(f"target must be at most {sys.float_info.max:g}")
    edges = tuple(Edge(flow_set=HalfLineEdge(float(w)), nodes=(0,), fee=float(w))
                  for w in ws)
    return Instance(n=1, edges=edges, utility=ThresholdUtility(float(int(target))))


@dataclass
class ReportRow:
    n: int
    m: int
    mu: float
    q0: float
    seed: int
    dual_opt: float
    primal_heur: float
    rel_gap: float
    tie_count: int
    runtime_ms: float
    status: str = "ok"

    def as_csv(self) -> list[str]:
        def fmt(v: float) -> str:
            return "nan" if not math.isfinite(v) else f"{v:.10g}"

        return [str(self.n), str(self.m), fmt(self.mu), fmt(self.q0),
                str(self.seed), fmt(self.dual_opt), fmt(self.primal_heur),
                fmt(self.rel_gap), str(self.tie_count), fmt(self.runtime_ms),
                self.status]


def grid_configs(ns: Iterable[int], mus: Iterable[float], q0s: Iterable[float],
                 seeds: Iterable[int]) -> list[BenchConfig]:
    """All grid cells in sweep order: n, then mu, then q0, then seed."""
    return [BenchConfig(n=n, mu=mu, q0=q0, seed=seed)
            for n in ns for mu in mus for q0 in q0s for seed in seeds]


def run_cell(config: BenchConfig, opts: solver.SolverOptions | None = None) -> ReportRow:
    instance = gen_bench_instance(config)
    started = time.perf_counter()
    try:
        report = solver.solve(instance, opts)
    except Exception as exc:  # keep the sweep alive; the row records the failure
        return ReportRow(n=config.n, m=config.m, mu=config.mu, q0=config.q0,
                         seed=config.seed, dual_opt=math.nan, primal_heur=math.nan,
                         rel_gap=math.nan, tie_count=0,
                         runtime_ms=(time.perf_counter() - started) * 1e3,
                         status=f"failed:{type(exc).__name__}")
    if not report.converged:
        status = f"nonconverged:{report.stop}"
    elif solver.verify_optimality(report).status == "optimal":
        status = "ok"
    else:  # converged, but the integral bracket is still open
        status = f"uncertified:{report.stop}"
    return ReportRow(n=config.n, m=config.m, mu=config.mu, q0=config.q0,
                     seed=config.seed, dual_opt=report.dual_value,
                     primal_heur=report.primal_value, rel_gap=report.rel_gap,
                     tie_count=report.tie_count, runtime_ms=report.runtime_ms,
                     status=status)


def run_bench(configs: Sequence[BenchConfig], csv_path: str | None = None,
              opts: solver.SolverOptions | None = None) -> list[ReportRow]:
    """Run every grid cell in grid order, one after another."""
    rows = [run_cell(cfg, opts) for cfg in configs]
    if csv_path is not None:
        write_csv(rows, csv_path)
    return rows


def write_csv(rows: Sequence[ReportRow], path: str):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.as_csv())


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))
