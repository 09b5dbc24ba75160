"""The convexflow benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fixed_fee_small --seed 0 --seconds 40 --trace 0

Run it from the root of a source checkout: convexflow is imported from
``src/`` next to this directory, never from an installed copy.  One caller
runs the workload's operations one at a time (a closed loop, no threads)
in whole rounds of the same operations, while the next round still fits
in ``--seconds``, and checks every output with ``checks``.

Times are given at a reference speed.  Right before each operation a
fixed calibration loop, which does not touch convexflow, is timed; the
operation's wall time is multiplied by the loop's reference time over
its measured time, and each operation's figure is the median of these
over the rounds.  Set-up time is wall time.  The speed of a shared machine moves by half or more for
seconds to minutes, and the calibration loop moves with it, so a run
falling in a slow stretch reads the same as one in a fast stretch.  The
wall times are printed on the line before the result.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
``tracing``).  Earlier lines describe the run and the machine.  See
README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUPS = 5  # set-ups per run; setup_s is their median
CALIBRATION_S = 1e-3   # the calibration loop's time at the reference speed
CALIBRATION_STEPS = 140


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def calibration_seconds() -> float:
    """Wall time of a fixed loop of small numpy operations and Python
    objects, the kind of work convexflow's oracles and solver do."""
    started = time.perf_counter()
    values, table = np.array([1.0, 2.0, 3.0]), {}
    for step in range(CALIBRATION_STEPS):
        values = np.maximum(values * 0.5 + 1.0, 0.0)
        table[step] = (float(values.sum()), str(step))
    return time.perf_counter() - started


def at_reference_speed(seconds: float, calibration: float) -> float:
    return seconds * CALIBRATION_S / calibration


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports the benchmark and
    convexflow, makes the workload's inputs and runs its first operation.

    It is not scaled to the reference speed: it is mostly imports, which
    the calibration loop does not follow (README.md).
    """
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
            f"wl = workloads.WORKLOADS[{workload!r}]; wl.run(wl.make({seed})[0].payload)")
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - started


class Run:
    """Counts and checks the operations of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples: list[tuple] = []   # good outputs kept for the self-test

    def operation(self, item, execute=None):
        """Run and check one operation.

        Returns the time of the calibration loop run just before it, its
        time and its time including the check, in seconds, or None when it
        raised.
        """
        wl = self.workload
        self.attempted += 1
        calibration = calibration_seconds()
        started = time.perf_counter()
        try:
            output = (execute or wl.run)(item.payload)
        except Exception as exc:  # an operation that raises is a failed operation
            self.failed += 1
            self.correct = False
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        done = time.perf_counter()
        try:
            wl.check(item.doc, output)
        except checks.CheckFailed as exc:
            self.correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        else:
            kinds = {doc["utility"]["kind"] for _, _, doc, _ in self.samples}
            if item.doc["utility"]["kind"] not in kinds:
                self.samples.append((wl.check, wl.output_kind, item.doc, output))
        return calibration, done - started, time.perf_counter() - started

    def rounds(self, items, seconds: float, execute=None, after=None) -> list[list]:
        """Whole rounds over items while the next one is expected to fit.

        Returns, per item, the times ``operation`` gave in each round.
        ``after`` is called at the end of every round, outside its time.
        """
        per_item = [[] for _ in items]
        round_times = []
        started = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for times, item in zip(per_item, items):
                timing = self.operation(item, execute)
                if timing is not None:
                    times.append(timing)
            round_times.append(time.perf_counter() - round_start)
            if after is not None:
                after()
            if time.perf_counter() - started + statistics.median(round_times) > seconds:
                return per_item


def round_seconds(per_item, wall: bool = False) -> float:
    """Time of one round, each operation with its check at its median
    over the rounds, at the reference speed or as measured.

    An operation that never ran leaves no time; its run is not correct.
    """
    return sum(statistics.median(t[2] if wall else at_reference_speed(t[2], t[0]) for t in times)
               for times in per_item if times)


def op_median_ms(per_item, wall: bool = False) -> float:
    """Median over the round's operations of each one's median time."""
    medians = [statistics.median(t[1] if wall else at_reference_speed(t[1], t[0]) for t in times)
               for times in per_item if times]
    return 1e3 * statistics.median(medians) if medians else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "convexflow" / "__init__.py").is_file():
        print(f"convexflow sources not found at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    run = Run(wl)
    if args.trace:
        metrics, rounds = traced(wl, args, run)
        wall = {}
    else:
        setup_s = statistics.median(setup_seconds(args.workload, args.seed) for _ in range(SETUPS))
        per_item = run.rounds(wl.make(args.seed), args.seconds)
        rounds = max(len(times) for times in per_item)
        metrics = {
            "run_s": round_seconds(per_item),
            "op_ms.p50": op_median_ms(per_item),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wall = {"run_s": round_seconds(per_item, wall=True),
                "op_ms.p50": op_median_ms(per_item, wall=True),
                "calibration_ms": 1e3 * statistics.median(
                    t[0] for times in per_item for t in times)}
        metrics = {k: {"value": metrics[k], "unit": unit} for k, unit in units("end_to_end").items()}
    missed = checks.self_test(run.samples)
    for name in missed:
        print(f"self-test: corrupted output accepted by {name}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "rounds": rounds, "attempted": run.attempted, "failed": run.failed,
                      "self_test_cases": len(run.samples), "wall": wall, "machine": machine()}))
    print(json.dumps({"correct": run.correct and not missed and bool(run.samples),
                      "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


def traced(wl, args, run: Run):
    """Per-layer metrics: untraced rounds, then traced rounds, for half of
    --seconds each, so that the overhead compares like with like."""
    import tracing

    tracer = tracing.Tracer()
    generate_times = []
    for _ in range(SETUPS):
        tracer.reset()
        tracer.install()
        try:
            items = wl.make(args.seed)
        finally:
            tracer.uninstall()
        generate_times.append(1e3 * sum(v for k, v in tracer.total.items() if k.startswith("bench.")))
    untraced = round_seconds(run.rounds(items, args.seconds / 2))
    per_round = []

    def close_round():
        per_round.append(tracer.round_metrics())
        tracer.reset()

    tracer.reset()
    tracer.install()
    try:
        traced_items = run.rounds(items, args.seconds / 2,
                                  lambda payload: tracer.call("operation", wl.run, payload),
                                  close_round)
    finally:
        tracer.uninstall()
    counts = ("solver.dual_evals", "solver.iterations", "solver.nonconverged", "fees.brute_force.patterns")
    for key in counts:
        if len({r[key] for r in per_round}) > 1:
            print(f"{key} differs between rounds: {[r[key] for r in per_round]}", file=sys.stderr)
    # median_low keeps a count whole: counts repeat in every round anyway
    metrics = {key: statistics.median_low(r[key] for r in per_round) for key in per_round[0]}
    metrics["bench.generate.ms"] = statistics.median(generate_times)
    metrics["trace.overhead_s"] = round_seconds(traced_items) - untraced
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
                 {"workload": args.workload, "seed": args.seed, "rounds": len(per_round),
                  "untraced_round_s": untraced, "traced_round_s": round_seconds(traced_items)})
    return ({k: {"value": metrics[k], "unit": unit} for k, unit in units("per_layer").items()},
            1 + len(per_round))


def units(group: str) -> dict:
    """Metric names and units of one group of BENCHMARK.json, in its order."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[group]}


if __name__ == "__main__":
    sys.exit(main())
