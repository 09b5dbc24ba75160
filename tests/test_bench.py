import math

import numpy as np
import pytest

import convexflow.bench as bench
import convexflow.model as model
from convexflow.bench import (BenchConfig, CSV_COLUMNS, ReportRow, bench_meta,
                              gen_bench_instance, gen_knapsack_instance,
                              grid_configs, read_csv, run_bench, run_cell,
                              write_csv)
from convexflow.model import (LinearUtility, QuadraticUtility, ThresholdUtility,
                              node_degrees)
from convexflow.sets import HalfLineEdge, ProductMarketEdge
from convexflow.solver import SolverOptions
from oracles import bench_instance_reference


class TestBenchConfig:
    def test_market_count_quarter_square(self):
        assert BenchConfig(n=10).m == 25
        assert BenchConfig(n=46).m == 529
        assert BenchConfig(n=17).m == 72
        assert BenchConfig(n=28).m == 196

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(n=1)
        with pytest.raises(ValueError):
            BenchConfig(n=4, q0=-0.1)


class TestGenerator:
    def test_deterministic_documents(self):
        cfg = BenchConfig(n=12, mu=1e-2, q0=1.0, seed=42)
        a = model.dumps(gen_bench_instance(cfg), meta=bench_meta(cfg))
        b = model.dumps(gen_bench_instance(cfg), meta=bench_meta(cfg))
        assert a == b

    def test_different_seeds_differ(self):
        a = model.dumps(gen_bench_instance(BenchConfig(n=10, seed=0)))
        b = model.dumps(gen_bench_instance(BenchConfig(n=10, seed=1)))
        assert a != b

    def test_structure(self):
        inst = gen_bench_instance(BenchConfig(n=10, mu=0.0, q0=0.25, seed=7))
        assert inst.n == 10 and inst.m == 25
        assert isinstance(inst.utility, LinearUtility)
        assert np.all((inst.utility.c >= 0.5) & (inst.utility.c <= 1.5))
        for edge in inst.edges:
            assert isinstance(edge.flow_set, ProductMarketEdge)
            assert edge.fee == 0.25
            assert np.all((edge.flow_set.upper_bound >= 1.0)
                          & (edge.flow_set.upper_bound <= 100.0))
        assert node_degrees(inst).all()

    def test_quadratic_when_mu_positive(self):
        inst = gen_bench_instance(BenchConfig(n=6, mu=1e-2, seed=0))
        assert isinstance(inst.utility, QuadraticUtility)
        assert inst.utility.mu == 1e-2

    def test_every_node_touched_small_n(self):
        # small n has few edges, exercising the coverage retry loop
        for seed in range(20):
            inst = gen_bench_instance(BenchConfig(n=3, seed=seed))
            assert node_degrees(inst).all()

    def test_document_round_trip(self):
        cfg = BenchConfig(n=8, mu=1e-2, q0=0.01, seed=5)
        text = model.dumps(gen_bench_instance(cfg))
        assert model.dumps(model.loads(text)) == text


class CountingGenerator:
    """A Philox generator that counts its bounded-integer draws."""

    def __init__(self, rng):
        self.rng, self.integer_draws = rng, 0

    def integers(self, *args):
        self.integer_draws += 1
        return self.rng.integers(*args)

    def random(self, *args):
        return self.rng.random(*args)


class TestGeneratorStream:
    """The array draws consume the Philox stream as the per-edge generator
    does, so every document is the reference's byte for byte."""

    SIZES = (2, 3, 4, 5, 6, 10, 17, 28, 46)
    SEEDS = (0, 1, 2, 1000, 1001, 2000, 2001)
    # n = 3 seeds whose first pair lists leave a node untouched
    RETRY_SEEDS = {3: 4, 6: 4, 5: 2}

    @pytest.mark.parametrize("mu,q0", [(0.0, 0.0), (0.01, 0.01), (0.0, 1.0)])
    def test_documents_match_the_per_edge_generator(self, mu, q0):
        configs = [BenchConfig(n=n, mu=mu, q0=q0, seed=seed)
                   for n in self.SIZES for seed in self.SEEDS]
        configs += [BenchConfig(n=3, mu=mu, q0=q0, seed=seed) for seed in self.RETRY_SEEDS]
        for cfg in configs:
            text = model.dumps(gen_bench_instance(cfg), meta=bench_meta(cfg))
            assert text == model.dumps(bench_instance_reference(cfg), meta=bench_meta(cfg)), cfg

    def test_retry_seeds_take_several_attempts(self, monkeypatch):
        made, rng = [], bench._rng

        def counting_rng(seed):
            made.append(CountingGenerator(rng(seed)))
            return made[-1]

        monkeypatch.setattr(bench, "_rng", counting_rng)
        for seed, attempts in self.RETRY_SEEDS.items():
            gen_bench_instance(BenchConfig(n=3, seed=seed))
            assert made[-1].integer_draws == attempts, seed


class TestKnapsackGenerator:
    def test_structure(self):
        inst = gen_knapsack_instance([2, 3], 5)
        assert inst.n == 1
        assert isinstance(inst.utility, ThresholdUtility)
        assert [e.fee for e in inst.edges] == [2.0, 3.0]
        assert all(isinstance(e.flow_set, HalfLineEdge) for e in inst.edges)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_knapsack_instance([0, 2], 1)
        with pytest.raises(ValueError):
            gen_knapsack_instance([2], -1)
        # integers beyond float range are refused by name, not by OverflowError
        with pytest.raises(ValueError, match="weights must be at most"):
            gen_knapsack_instance([2, 10 ** 400], 1)
        with pytest.raises(ValueError, match="target must be at most"):
            gen_knapsack_instance([2], 10 ** 400)


class TestSweep:
    def test_grid_order(self):
        configs = grid_configs([4, 6], [0.0], [0.01, 1.0], [0, 1])
        assert [(c.n, c.q0, c.seed) for c in configs[:4]] == [
            (4, 0.01, 0), (4, 0.01, 1), (4, 1.0, 0), (4, 1.0, 1)]

    def test_rows_and_csv_round_trip(self, tmp_path):
        configs = grid_configs([4], [0.0, 1e-2], [0.01], [0, 1])
        path = tmp_path / "rows.csv"
        rows = run_bench(configs, csv_path=str(path))
        assert len(rows) == 4
        parsed = read_csv(str(path))
        assert list(parsed[0].keys()) == list(CSV_COLUMNS)
        for row, raw in zip(rows, parsed):
            assert int(raw["n"]) == row.n and int(raw["m"]) == row.m
            # 10 significant digits survive the text round trip
            if math.isfinite(row.dual_opt):
                assert float(raw["dual_opt"]) == pytest.approx(
                    row.dual_opt, rel=1e-9)
            assert raw["status"] == row.status

    def test_same_seed_same_row_values(self):
        cfg = BenchConfig(n=6, mu=0.0, q0=0.01, seed=9)
        a, b = run_cell(cfg), run_cell(cfg)
        assert (a.dual_opt, a.primal_heur, a.rel_gap, a.tie_count) == \
            (b.dual_opt, b.primal_heur, b.rel_gap, b.tie_count)

    def test_rel_gap_never_meaningfully_negative(self):
        for cfg in grid_configs([5, 8], [0.0, 1e-2], [0.01, 1.0], [0]):
            row = run_cell(cfg)
            assert row.rel_gap >= -1e-9
            assert row.tie_count <= row.m

    def test_linear_rows_are_exact(self):
        for seed in range(4):
            row = run_cell(BenchConfig(n=10, mu=0.0, q0=0.01, seed=seed))
            assert row.status == "ok"
            assert row.rel_gap <= 1e-6

    def test_open_bracket_is_uncertified(self):
        # the solve converges on its gap test, but the rounded primal leaves
        # the integral bracket open at rel_gap 1.1e-5, so the row is not ok
        row = run_cell(BenchConfig(n=10, mu=1e-2, q0=0.01, seed=0))
        assert row.status == "uncertified:gap"
        assert 1e-5 < row.rel_gap < 1.2e-5

    def test_nonconverged_rows_name_their_stop(self):
        row = run_cell(BenchConfig(n=6, mu=1e-2, q0=0.01, seed=0), SolverOptions(max_iter=1))
        assert row.status == "nonconverged:max_iter"
