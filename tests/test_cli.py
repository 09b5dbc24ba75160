import json

import numpy as np
import pytest

import convexflow.model as model
from convexflow.cli import main

from conftest import invalid_document_edits


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

    @pytest.mark.parametrize("name", sorted(invalid_document_edits()))
    def test_invalid_value_is_exit_2(self, tmp_path, capsys, name):
        inst = tmp_path / "i.json"
        run(["generate", "--n", "4", "--seed", "0", "--out", str(inst)])
        doc = json.loads(inst.read_text())
        edit, message = invalid_document_edits()[name]
        edit(doc)
        inst.write_text(json.dumps(doc))
        assert run(["solve", "--input", str(inst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


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
    ], ids=["not_an_object", "edges_not_a_list", "entry_not_an_object",
            "lambda_not_a_number", "string_lambda", "nan_lambda", "bool_lambda",
            "string_x", "bool_x", "nan_x", "inf_x"])
    def test_malformed_solution_is_exit_2(self, tmp_path, capsys, text):
        inst, sol = tmp_path / "i.json", tmp_path / "s.json"
        run(["knapsack", "--c", "2,3", "--b", "5", "--out", str(inst)])
        sol.write_text(text)
        assert run(["round", "--input", str(inst), "--solution", str(sol)]) == 2
        # refused as it is read, not later on the way out
        assert capsys.readouterr().err.startswith("error: solution")

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


class TestKnapsackCommand:
    def test_generates_and_solves(self, tmp_path):
        inst = tmp_path / "k.json"
        assert run(["knapsack", "--c", "2,3", "--b", "5", "--out", str(inst)]) == 0
        sol = tmp_path / "ks.json"
        assert run(["solve", "--input", str(inst), "--out", str(sol)]) == 0
        doc = json.loads(sol.read_text())
        assert doc["objective_dual"] == pytest.approx(-5.0)
        assert doc["objective_primal"] == pytest.approx(-5.0)


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
