import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import convexflow.model as model
import convexflow.solver as solver
from convexflow.bench import BenchConfig, gen_bench_instance, gen_knapsack_instance
from convexflow.cli import main
from convexflow.solver import report_to_document, solve

from conftest import invalid_document_edits


# a zero-fee half line of cap 2 and a threshold demand of 1: the dual is
# minimized at price 0
ZERO_FEE_HALF_LINE = ('{"version": 1, "n": 1, "utility": {"kind": "threshold", "b": 1.0}, '
                      '"edges": [{"kind": "half_line", "params": {"cap": 2.0}, '
                      '"nodes": [0], "fee": 0.0}]}')


def run(args):
    return main(args)


class TestGenerate:
    def test_writes_instance_document(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run(["generate", "--n", "6", "--mu", "0.01", "--q0", "0.1",
                    "--seed", "3", "--out", str(out)]) == 0
        inst = model.loads(out.read_text())
        assert inst.n == 6 and inst.m == 9

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(["generate", "--n", "5", "--seed", "11", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()


class TestSolveCommand:
    def test_solve_and_document(self, tmp_path):
        inst, sol = tmp_path / "i.json", tmp_path / "s.json"
        run(["generate", "--n", "4", "--seed", "0", "--out", str(inst)])
        assert run(["solve", "--input", str(inst), "--out", str(sol)]) == 0
        doc = json.loads(sol.read_text())
        assert {"objective_dual", "objective_primal", "gap", "nu", "edges"} <= set(doc)
        assert len(doc["edges"]) == 4

    def test_missing_file_is_exit_2(self, capsys):
        assert run(["solve", "--input", "/does/not/exist.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_directory_input_is_exit_2(self, tmp_path, capsys):
        assert run(["solve", "--input", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_schema_error_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 9}')
        assert run(["solve", "--input", str(bad)]) == 2

    def test_nonfinite_report_is_exit_2_and_not_written(self, tmp_path, capsys, monkeypatch):
        # a report whose recovered point misses the demand: primal objective -inf
        def missed_demand(instance, opts=None):
            report = solve(instance, opts)
            report.primal_value = -math.inf
            return report

        monkeypatch.setattr(solver, "solve", missed_demand)
        inst, out = tmp_path / "i.json", tmp_path / "s.json"
        inst.write_text(model.dumps(gen_knapsack_instance([3, 5], 5)))
        assert run(["solve", "--input", str(inst), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: solution: its objective_primal is -inf")
        assert not out.exists()

    def test_threshold_minimized_at_price_zero(self, tmp_path):
        # the half line supplies its cap at price 0, which meets the demand
        inst, out = tmp_path / "i.json", tmp_path / "s.json"
        inst.write_text(ZERO_FEE_HALF_LINE)
        assert run(["solve", "--input", str(inst), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["objective_primal"] == doc["objective_dual"] == doc["gap"] == 0.0
        assert doc["edges"][0]["x"] == [2.0] and doc["edges"][0]["lambda"] == -1.0

    @pytest.mark.parametrize("name", sorted(invalid_document_edits()))
    def test_invalid_value_is_exit_2(self, tmp_path, capsys, name):
        # on 4 markets, and on 196, a document that the market columns'
        # bulk tests send back to the per-edge loader
        inst = tmp_path / "i.json"
        for n in ("4", "28"):
            run(["generate", "--n", n, "--seed", "0", "--out", str(inst)])
            doc = json.loads(inst.read_text())
            edit, message = invalid_document_edits()[name]
            edit(doc)
            inst.write_text(json.dumps(doc))
            assert run(["solve", "--input", str(inst)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err, n

    @pytest.mark.parametrize("text,start", [
        (ZERO_FEE_HALF_LINE.replace('"fee": 0.0', '"fee": "%s"' % ("9" * 5_000)),
         "error: edge 0: fee must be a real number, got '9999"),
        ('{"version": 1, "n": 2, "utility": {"kind": "linear", "c": [1.0, 1.0]}, '
         '"edges": [{"kind": "product_market", "params": {"reserves": [%s, 2.0]}, '
         '"nodes": [0, 1], "fee": 0.0}]}' % ("[" * 900 + "]" * 900),
         "error: edge 0: bad parameters for set kind 'product_market': "
         "reserves must be a real number, got [[[["),
        (ZERO_FEE_HALF_LINE.replace('"fee": 0.0', '"fee": 0.0, "%s": 1' % ("k" * 5_000)),
         "error: edge 0: unknown key 'kkkk"),
    ], ids=["long_string_fee", "deep_reserve", "long_key"])
    def test_refused_value_is_shown_by_its_start(self, tmp_path, capsys, text, start):
        # the echo of a refused value stops after sets.SHOWN_CHARS characters
        inst = tmp_path / "i.json"
        inst.write_text(text)
        assert run(["solve", "--input", str(inst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(start) and err.endswith("...\n") and err.count("\n") == 1
        assert len(err) <= len(start) + 100

    def test_node_beyond_64_bits_is_exit_2(self, tmp_path, capsys):
        # orjson reads an integer at or beyond 2**64 as a float, so the node
        # is refused as not an integer rather than as out of range
        inst = tmp_path / "i.json"
        inst.write_text(ZERO_FEE_HALF_LINE.replace('"nodes": [0]', f'"nodes": [{2 ** 64}]'))
        assert run(["solve", "--input", str(inst)]) == 2
        assert capsys.readouterr().err == (
            "error: edge 0: edge node must be an integer, got 1.8446744073709552e+19\n")


class TestRoundCommand:
    def test_round_solution(self, tmp_path):
        inst, sol, rounded = (tmp_path / name for name in
                              ("i.json", "s.json", "r.json"))
        run(["generate", "--n", "4", "--q0", "0.5", "--seed", "2",
             "--out", str(inst)])
        run(["solve", "--input", str(inst), "--out", str(sol)])
        assert run(["round", "--input", str(inst), "--solution", str(sol),
                    "--out", str(rounded)]) == 0
        doc = json.loads(rounded.read_text())
        assert doc["fee_delta"] >= 0.0
        assert set(np.unique([e["lambda"] for e in doc["edges"]])) <= {-1.0, 0.0}

    @pytest.mark.parametrize("text", [
        "[1, 2]", '{"edges": 5}', '{"edges": [1, 2, 3]}',
        '{"edges": [{"x": [0, 0], "lambda": [1]}]}',
        '{"edges": [{"x": [0], "lambda": "-1"}, {"x": [0], "lambda": 0}]}',
        '{"edges": [{"x": [0], "lambda": NaN}, {"x": [0], "lambda": 0}]}',
        '{"edges": [{"x": [0], "lambda": true}, {"x": [0], "lambda": 0}]}',
        '{"edges": [{"x": ["1.0"], "lambda": -1}, {"x": [0], "lambda": 0}]}',
        '{"edges": [{"x": [true], "lambda": -1}, {"x": [0], "lambda": 0}]}',
        '{"edges": [{"x": [NaN], "lambda": -1}, {"x": [0], "lambda": 0}]}',
        '{"edges": [{"x": [Infinity], "lambda": -1}, {"x": [0], "lambda": 0}]}',
        '{"edges": [{"x": ["inf"], "lambda": -1}, {"x": [0], "lambda": 0}]}',
        '{"edges": [{"x": ["-Infinity"], "lambda": -1}, {"x": [0], "lambda": 0}]}',
        '{"edges": [{"x": ["nan"], "lambda": -1}, {"x": [0], "lambda": 0}]}',
        '{"edges": [{"x": [0], "lambda": "inf"}, {"x": [0], "lambda": 0}]}',
        '{"edges": [{"x": [0], "lambda": "-Infinity"}, {"x": [0], "lambda": 0}]}',
        '{"edges": [{"x": [0], "lambda": "nan"}, {"x": [0], "lambda": 0}]}',
        # a solution that meets the demand, with one key too many
        '{"edges": [{"x": [2], "lambda": -1}, {"x": [3], "lambda": -1}], "extra": 1}',
        '{"edges": [{"x": [2], "lambda": -1, "lamda": 0}, {"x": [3], "lambda": -1}]}',
        "[" * 100000 + "]" * 100000,
    ], ids=["not_an_object", "edges_not_a_list", "entry_not_an_object",
            "lambda_not_a_number", "string_lambda", "nan_lambda", "bool_lambda",
            "string_x", "bool_x", "nan_x", "inf_x", "inf_string_x",
            "minus_infinity_string_x", "nan_string_x", "inf_string_lambda",
            "minus_infinity_string_lambda", "nan_string_lambda", "unknown_key",
            "unknown_edge_key", "nested_too_deeply"])
    def test_malformed_solution_is_exit_2(self, tmp_path, capsys, text):
        inst, sol = tmp_path / "i.json", tmp_path / "s.json"
        run(["knapsack", "--c", "2,3", "--b", "5", "--out", str(inst)])
        sol.write_text(text)
        assert run(["round", "--input", str(inst), "--solution", str(sol)]) == 2
        # refused as it is read, not later on the way out
        assert capsys.readouterr().err.startswith("error: solution")

    @pytest.mark.parametrize("entry,message", [
        ('{"lambda": -1}', "solution edge 0: missing field 'x'"),
        ('{"x": [2]}', "solution edge 0: missing field 'lambda'"),
        ('{"x": 3, "lambda": -1}', "solution edge 0: x must be an array, got 3"),
    ], ids=["missing_x", "missing_lambda", "scalar_x"])
    def test_refused_solution_field_is_named(self, tmp_path, capsys, entry, message):
        inst, sol = tmp_path / "i.json", tmp_path / "s.json"
        run(["knapsack", "--c", "2,3", "--b", "5", "--out", str(inst)])
        sol.write_text('{"edges": [%s, {"x": [3], "lambda": -1}]}' % entry)
        assert run(["round", "--input", str(inst), "--solution", str(sol)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}\n")

    def test_nonfinite_output_is_exit_2_and_not_written(self, tmp_path, capsys):
        # no flow meets the demand, so the rounded objective is -inf, which
        # strict JSON cannot hold
        inst, sol, out = tmp_path / "i.json", tmp_path / "s.json", tmp_path / "r.json"
        run(["knapsack", "--c", "2,3", "--b", "5", "--out", str(inst)])
        sol.write_text('{"edges": [{"x": [0], "lambda": 0}, {"x": [0], "lambda": 0}]}')
        assert run(["round", "--input", str(inst), "--solution", str(sol),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


    def test_unmet_threshold_demand_is_refused(self, tmp_path, capsys):
        # every x at 0 and lambda 0 leaves the demand b = 5 unmet: the
        # solution is refused by name instead of as a non-finite objective
        inst, sol, out = tmp_path / "i.json", tmp_path / "s.json", tmp_path / "r.json"
        run(["knapsack", "--c", "2,3", "--b", "5", "--out", str(inst)])
        sol.write_text('{"edges": [{"x": [0], "lambda": 0}, {"x": [0], "lambda": 0}]}')
        assert run(["round", "--input", str(inst), "--solution", str(sol),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: solution") and "threshold demand b = 5.0" in err
        assert "0.0" in err and not out.exists()


    def test_fractional_point_rounds_to_full_activation(self, tmp_path):
        # an active edge at lambda -1/2 with its flow halved is outside the
        # fee set: it meets the clipped cone and rounds to lambda -1
        inst, sol, out = tmp_path / "i.json", tmp_path / "s.json", tmp_path / "r.json"
        run(["generate", "--n", "4", "--q0", "0.1", "--seed", "1", "--out", str(inst)])
        run(["solve", "--input", str(inst), "--out", str(sol)])
        doc = json.loads(sol.read_text())
        k, edge = next((k, e) for k, e in enumerate(doc["edges"]) if e["lambda"] == -1.0)
        edge["x"] = [0.5 * v for v in edge["x"]]
        edge["lambda"] = -0.5
        sol.write_text(json.dumps(doc))
        assert run(["round", "--input", str(inst), "--solution", str(sol),
                    "--out", str(out)]) == 0
        rounded = json.loads(out.read_text())
        assert rounded["edges"][k] == {"x": edge["x"], "lambda": -1.0}
        assert rounded["fee_delta"] > 0.0

    def test_point_outside_the_cone_is_exit_2(self, tmp_path, capsys):
        inst, sol, out = tmp_path / "i.json", tmp_path / "s.json", tmp_path / "r.json"
        run(["knapsack", "--c", "3,5,7", "--b", "12", "--out", str(inst)])
        run(["solve", "--input", str(inst), "--out", str(sol)])
        doc = json.loads(sol.read_text())
        k, edge = next((k, e) for k, e in enumerate(doc["edges"]) if e["lambda"] == -1.0)
        edge["x"] = [2.0 * v for v in edge["x"]]
        sol.write_text(json.dumps(doc))
        assert run(["round", "--input", str(inst), "--solution", str(sol),
                    "--out", str(out)]) == 2
        assert f"edge {k}: point is not in the clipped cone" in capsys.readouterr().err
        assert not out.exists()


class TestKnapsackCommand:
    def test_generates_and_solves(self, tmp_path):
        inst = tmp_path / "k.json"
        assert run(["knapsack", "--c", "2,3", "--b", "5", "--out", str(inst)]) == 0
        sol = tmp_path / "ks.json"
        assert run(["solve", "--input", str(inst), "--out", str(sol)]) == 0
        doc = json.loads(sol.read_text())
        assert doc["objective_dual"] == pytest.approx(-5.0)
        assert doc["objective_primal"] == pytest.approx(-5.0)

    @pytest.mark.filterwarnings("error")
    def test_weights_near_the_float_maximum_solve_quietly(self, tmp_path, capsys):
        # the tie enumeration's flow and fee sums overflow to inf; the answer
        # is still right, and no numpy warning reaches stderr
        big = str(10 ** 308)
        inst, sol = tmp_path / "k.json", tmp_path / "ks.json"
        assert run(["knapsack", "--c", f"{big},{big}", "--b", big, "--out", str(inst)]) == 0
        assert run(["solve", "--input", str(inst), "--out", str(sol)]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads(sol.read_text())
        assert (doc["objective_dual"], doc["objective_primal"], doc["gap"]) == (-1e308, -1e308, 0.0)


class TestEdgeUtilityRefused:
    """An instance whose edges carry edge utilities is refused by every
    command that reads it: exit 2, the edge named, no output written."""

    def documents(self, tmp_path):
        """A knapsack instance, and the same with an edge utility on every edge."""
        plain, inst = tmp_path / "plain.json", tmp_path / "i.json"
        run(["knapsack", "--c", "3,5,7", "--b", "8", "--out", str(plain)])
        doc = json.loads(plain.read_text())
        for edge in doc["edges"]:
            edge["edge_utility"] = [5.0]
        inst.write_text(json.dumps(doc))
        return plain, inst

    def assert_refused(self, capsys, out):
        err = capsys.readouterr().err
        assert err.startswith("error:") and "edge 0: edge utilities are not supported" in err
        assert not out.exists()

    def test_solve(self, tmp_path, capsys):
        _, inst = self.documents(tmp_path)
        out = tmp_path / "s.json"
        assert run(["solve", "--input", str(inst), "--out", str(out)]) == 2
        self.assert_refused(capsys, out)

    def test_round(self, tmp_path, capsys):
        # a solution of the plain instance, rounded against the one with edge
        # utilities, which would otherwise leave the edge utilities out
        plain, inst = self.documents(tmp_path)
        sol, out = tmp_path / "s.json", tmp_path / "r.json"
        assert run(["solve", "--input", str(plain), "--out", str(sol)]) == 0
        capsys.readouterr()
        assert run(["round", "--input", str(inst), "--solution", str(sol),
                    "--out", str(out)]) == 2
        self.assert_refused(capsys, out)


class TestBenchCommand:
    def test_small_sweep(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code = run(["bench", "--n", "4,6", "--mu", "0", "--q0", "0.01",
                    "--seeds", "2", "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,m,mu,q0,seed,dual_opt,primal_heur,rel_gap,tie_count,runtime_ms,status"
        assert len(lines) == 1 + 4

    def test_nonconvergence_is_exit_3(self, tmp_path):
        # one iteration cannot reach stationarity on a quadratic dual;
        # the CSV is still written with a nonconverged status row
        csv_path = tmp_path / "rows.csv"
        code = run(["bench", "--n", "6", "--mu", "0.01", "--q0", "0.01",
                    "--seeds", "1", "--max-iter", "1", "--csv", str(csv_path)])
        assert code == 3
        assert "nonconverged" in csv_path.read_text()


# out of range: --tol takes a finite number >= 0, --max-iter an integer >= 1
INVALID_OPTIONS = {"tol_inf": ["--tol", "inf"], "tol_nan": ["--tol", "nan"],
                   "tol_negative": ["--tol", "-1"], "max_iter_zero": ["--max-iter", "0"],
                   "max_iter_negative": ["--max-iter", "-3"]}
# bench grids without a cell
EMPTY_GRIDS = {"no_seeds": ["--n", "6", "--seeds", "0"],
               "negative_seeds": ["--n", "6", "--seeds", "-1"],
               "no_n": ["--n", "", "--seeds", "1"]}
# comma-separated lists with an empty entry, each with the option it names
EMPTY_ENTRIES = {"knapsack_inner": (["knapsack", "--c", "3,,4", "--b", "1"], "--c"),
                 "knapsack_no_weight": (["knapsack", "--c", "", "--b", "1"], "--c"),
                 "knapsack_comma": (["knapsack", "--c", ",", "--b", "1"], "--c"),
                 "bench_inner_n": (["bench", "--n", "10,,17"], "--n"),
                 "bench_trailing_mu": (["bench", "--n", "6", "--mu", "0,"], "--mu"),
                 "bench_leading_q0": (["bench", "--n", "6", "--q0", ",0.01"], "--q0")}


class TestInvalidOptions:
    """Refused with exit 2 before any output is written."""

    @pytest.mark.parametrize("name", sorted(INVALID_OPTIONS))
    def test_solve(self, tmp_path, capsys, name):
        inst, sol = tmp_path / "i.json", tmp_path / "s.json"
        run(["generate", "--n", "6", "--mu", "0.01", "--q0", "0.01", "--out", str(inst)])
        assert run(["solve", "--input", str(inst), "--out", str(sol)]
                   + INVALID_OPTIONS[name]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not sol.exists()

    @pytest.mark.parametrize("name", sorted(INVALID_OPTIONS))
    def test_bench(self, tmp_path, capsys, name):
        csv_path = tmp_path / "rows.csv"
        assert run(["bench", "--n", "6", "--mu", "0.01", "--q0", "0.01", "--seeds", "1",
                    "--csv", str(csv_path)] + INVALID_OPTIONS[name]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not csv_path.exists()

    @pytest.mark.parametrize("name", sorted(EMPTY_GRIDS))
    def test_empty_bench_grid(self, tmp_path, capsys, name):
        csv_path = tmp_path / "rows.csv"
        assert run(["bench", "--mu", "0", "--q0", "0.01", "--csv", str(csv_path)]
                   + EMPTY_GRIDS[name]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not csv_path.exists()

    @pytest.mark.parametrize("name", sorted(EMPTY_ENTRIES))
    def test_empty_list_entry(self, tmp_path, capsys, name):
        argv, option = EMPTY_ENTRIES[name]
        out = tmp_path / "out"
        assert run(argv + (["--csv", str(out)] if argv[0] == "bench" else ["--out", str(out)])) == 2
        assert capsys.readouterr().err.startswith(f"error: {option} has an empty entry")
        assert not out.exists()


# ---------------------------------------------------------------------------
# property: whatever the arguments and documents, the exit code is 0, 2 or 3
# ---------------------------------------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_numbers = st.sampled_from(["0", "1", "-1", "2.5", "nan", "inf", "1e309", "x", ""])
_beyond_float = "1" + "0" * 400  # an integer that float() cannot hold


@st.composite
def _edited(draw, doc):
    """``doc`` as it is, or with one value somewhere in it replaced."""
    if draw(st.booleans()):
        return doc
    doc = json.loads(json.dumps(doc))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    value = draw(_json_values)
    if parent is None:
        return value
    parent[key] = value
    return doc


@st.composite
def _argv(draw, folder: Path):
    instance, solution = folder / "instance.json", folder / "solution.json"
    command = draw(st.sampled_from(["generate", "knapsack", "solve", "round", "bench"]))
    if command == "generate":
        argv = ["generate", "--n", draw(st.sampled_from(["-1", "1", "2", "5", "x"])),
                "--mu", draw(_numbers), "--q0", draw(_numbers), "--seed", draw(_numbers)]
    elif command == "knapsack":
        argv = ["knapsack", "--c", draw(st.sampled_from(["2,3", "", "0,4", "-1", "1,x", "7",
                                                         "2," + _beyond_float])),
                "--b", draw(_numbers | st.just(_beyond_float))]
    elif command == "bench":
        argv = ["bench", "--n", draw(st.sampled_from(["3", "4,5", "1", "", "x"])),
                "--mu", draw(st.sampled_from(["0", "0.01", "-1", "nan"])),
                "--q0", draw(st.sampled_from(["0", "0.1", "-1", "inf"])),
                "--seeds", "1", "--csv", str(folder / draw(st.sampled_from(["rows.csv", "no/rows.csv"])))]
    else:
        argv = [command, "--input", str(draw(st.sampled_from([instance, folder / "missing.json", folder])))]
        if command == "round":
            argv += ["--solution", str(solution)]
        if command == "solve" and draw(st.booleans()):
            argv += ["--tol", draw(_numbers), "--max-iter", draw(st.sampled_from(["0", "3", "-1", "x"]))]
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--bogus", "extra"])))
    return argv


def _exit_code(argv) -> int:
    """main's return value, or the code of an argparse exit; the streams
    are swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.mark.parametrize("argv", [["knapsack", "--c", "2," + _beyond_float, "--b", "1"],
                                  ["knapsack", "--c", "2,3", "--b", _beyond_float]],
                         ids=["weight", "target"])
def test_knapsack_beyond_float_range_is_exit_2(argv):
    # the property's knapsack samples hold these; checked here on every run
    assert _exit_code(argv) == 2


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exit_code_is_0_2_or_3(data):
    base = data.draw(st.sampled_from([
        gen_knapsack_instance([2, 3, 4], 5),
        gen_bench_instance(BenchConfig(n=4, mu=0.0, q0=0.1, seed=1)),
        gen_bench_instance(BenchConfig(n=3, mu=0.01, q0=0.1, seed=2))]))
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        doc = data.draw(_edited(model.to_document(base)))
        text = json.dumps(doc) if data.draw(st.booleans()) else data.draw(st.text(max_size=8))
        (folder / "instance.json").write_text(text)
        solution = data.draw(_edited(report_to_document(solve(base))))
        (folder / "solution.json").write_text(json.dumps(solution))
        argv = data.draw(_argv(folder))
        assert _exit_code(argv) in (0, 2, 3), argv
