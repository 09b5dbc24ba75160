"""Command-line front end.

Commands: ``generate`` and ``knapsack`` write instance documents,
``solve`` runs the dual solver on a document, ``round`` rounds a solution
document into the fixed-fee feasible set, and ``bench`` sweeps the
order-routing grid into a CSV.

Exit codes: 0 success, 2 invalid input, 3 solver non-convergence (the
best-effort solution is still written) or, for ``bench``, a cell that is
not certified optimal (the CSV is still written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bench, fees, model, solver
from .errors import ConvexFlowError, SchemaError
from .sets import _array, _real


def _write_json(doc: dict, path: str | None):
    # NaN and infinity are not JSON; refuse them rather than write them
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _read(path: str, what: str):
    """The JSON document at ``path``; SchemaError naming ``what`` when the
    file is not JSON."""
    with open(path, encoding="utf-8") as handle:
        return model._parse(handle.read(), what)


def _load_instance(path: str) -> model.Instance:
    return model.from_document(_read(path, "instance document"))


# the keys ``solver.report_to_document`` writes
_SOLUTION_KEYS = frozenset({"objective_dual", "objective_primal", "gap", "nu", "edges"})
_SOLUTION_EDGE_KEYS = frozenset({"x", "lambda", "value", "tied"})


def _solution_points(doc) -> list[tuple[np.ndarray, float]]:
    """The (x, lambda) of each edge of a solution document: finite numbers
    only, so strings, bools, NaN and infinities are refused, and no key
    that a solution document does not have."""
    if not isinstance(doc, dict) or not isinstance(doc.get("edges"), list):
        raise SchemaError("solution document must be an object with an edges array")
    if not _SOLUTION_KEYS.issuperset(doc):
        raise model._unknown_key(doc, _SOLUTION_KEYS, "solution")
    points = []
    for i, entry in enumerate(doc["edges"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"solution edge {i}: must be an object")
        if not _SOLUTION_EDGE_KEYS.issuperset(entry):
            raise model._unknown_key(entry, _SOLUTION_EDGE_KEYS, f"solution edge {i}")
        try:
            x = [_real(v, "x") for v in _array(entry["x"], "x")]
            lam = _real(entry["lambda"], "lambda")
        except (KeyError, TypeError, OverflowError) as exc:
            raise SchemaError(f"solution edge {i}: {model._reason(exc)}") from exc
        if not all(map(math.isfinite, x)) or not math.isfinite(lam):
            raise SchemaError(f"solution edge {i}: x and lambda must be finite")
        points.append((np.array(x), lam))
    return points


def _entries(text: str, option: str) -> list[str]:
    """The comma-separated entries of ``option``; ValueError naming it
    when one is empty, as in ``3,,4``, ``4,`` or ``''``."""
    entries = text.split(",")
    if not all(map(str.strip, entries)):
        raise ValueError(f"{option} has an empty entry: {text!r}")
    return entries


def _floats(text: str, option: str) -> list[float]:
    return [float(v) for v in _entries(text, option)]


def _ints(text: str, option: str) -> list[int]:
    return [int(v) for v in _entries(text, option)]


def _cmd_generate(args) -> int:
    config = bench.BenchConfig(n=args.n, mu=args.mu, q0=args.q0, seed=args.seed)
    instance = bench.gen_bench_instance(config)
    _write_json(model.to_document(instance, meta=bench.bench_meta(config)), args.out)
    return 0


def _cmd_knapsack(args) -> int:
    weights = _ints(args.c, "--c")
    instance = bench.gen_knapsack_instance(weights, args.b)
    meta = {"generator": "knapsack", "c": weights, "b": args.b}
    _write_json(model.to_document(instance, meta=meta), args.out)
    return 0


def _solver_options(args) -> solver.SolverOptions:
    """The options of ``--tol`` and ``--max-iter``; ValueError when invalid."""
    given = {"grad_tol": args.tol, "max_iter": args.max_iter}
    return solver.SolverOptions(**{k: v for k, v in given.items() if v is not None})


def _cmd_solve(args) -> int:
    opts = _solver_options(args)
    instance = _load_instance(args.input)
    report = solver.solve(instance, opts)
    for name, value in (("objective_dual", report.dual_value),
                        ("objective_primal", report.primal_value)):
        if not math.isfinite(value):
            raise SchemaError(f"solution: its {name} is {value!r}, which JSON cannot hold")
    _write_json(solver.report_to_document(report), args.out)
    return 0 if report.converged else 3


def _cmd_round(args) -> int:
    instance = _load_instance(args.input)
    rounded = fees.round_relaxation(instance, _solution_points(_read(args.solution, "solution")))
    if rounded.objective == -math.inf:  # only a threshold utility is -inf
        raise SchemaError(f"solution: its net flow {float(rounded.y_hat[0])!r} misses "
                          f"the threshold demand b = {instance.utility.b!r}")
    _write_json({
        "objective": rounded.objective,
        "fee_delta": rounded.fee_delta,
        "y": [float(v) for v in rounded.y_hat],
        "edges": [{"x": [float(v) for v in x], "lambda": float(lam)}
                  for x, lam in zip(rounded.flows, rounded.activations)],
    }, args.out)
    return 0


def _cmd_bench(args) -> int:
    opts = _solver_options(args)
    seeds = range(args.seeds) if args.seed is None else [args.seed]
    configs = bench.grid_configs(_ints(args.n, "--n"), _floats(args.mu, "--mu"),
                                 _floats(args.q0, "--q0"), seeds)
    if not configs:
        raise ValueError("the bench grid has no cells: give at least one n, mu, q0 and seed")
    rows = bench.run_bench(configs, csv_path=args.csv, opts=opts)
    bad = [row for row in rows if row.status != "ok"]
    if bad:
        print(f"{len(bad)} of {len(rows)} cells are not certified optimal", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convexflow",
                                     description="Convex network flow toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a routing benchmark instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--mu", type=float, default=0.0)
    gen.add_argument("--q0", type=float, default=0.01)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_generate)

    knap = sub.add_parser("knapsack", help="write a knapsack reduction instance")
    knap.add_argument("--c", required=True, help="comma-separated item weights")
    knap.add_argument("--b", type=int, required=True, help="target sum")
    knap.add_argument("--out", default=None)
    knap.set_defaults(func=_cmd_knapsack)

    slv = sub.add_parser("solve", help="solve an instance document")
    slv.add_argument("--input", required=True)
    slv.add_argument("--tol", type=float, default=None)
    slv.add_argument("--max-iter", type=int, default=None)
    slv.add_argument("--out", default=None)
    slv.set_defaults(func=_cmd_solve)

    rnd = sub.add_parser("round", help="round a relaxation solution into the fee set")
    rnd.add_argument("--input", required=True, help="instance document")
    rnd.add_argument("--solution", required=True, help="solution document")
    rnd.add_argument("--out", default=None)
    rnd.set_defaults(func=_cmd_round)

    bch = sub.add_parser("bench", help="sweep the routing grid into a CSV")
    bch.add_argument("--n", default="10,17,28", help="comma-separated node counts")
    bch.add_argument("--mu", default="0,0.01", help="comma-separated risk aversions")
    bch.add_argument("--q0", default="0.01,1.0", help="comma-separated fee levels")
    bch.add_argument("--seeds", type=int, default=1, help="seeds 0..k-1 per cell")
    bch.add_argument("--seed", type=int, default=None, help="run one seed only")
    bch.add_argument("--tol", type=float, default=None)
    bch.add_argument("--max-iter", type=int, default=None)
    bch.add_argument("--csv", required=True)
    bch.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConvexFlowError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
