import json
import math

import numpy as np
import pytest

from discinfo.bayes import BayesModel, dump_model
from discinfo.cli import main
from discinfo.dist import JointDistribution, Variable, dump_distribution
from discinfo.errors import MalformedInput
from discinfo.simulate import CSV_HEADER, load_config


@pytest.fixture
def coin_path(tmp_path):
    d = JointDistribution((Variable("X", ("0", "1")),), [0.5, 0.5])
    path = tmp_path / "coin.json"
    dump_distribution(d, path)
    return str(path)


@pytest.fixture
def three_cell_path(tmp_path):
    from discinfo import three_cell_distribution

    path = tmp_path / "three.json"
    dump_distribution(three_cell_distribution(), path)
    return str(path)


class TestEval:
    def test_fair_coin_entropy(self, coin_path, capsys):
        assert main(["eval", "--dist", coin_path, "H[X]"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("0.693147")

    def test_bits(self, coin_path, capsys):
        assert main(["--base", "bits", "eval", "--dist", coin_path, "H[X]"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_observe_binding(self, three_cell_path, capsys):
        code = main(
            ["eval", "--dist", three_cell_path, "--observe", "Y=1", "H[X|y]"]
        )
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.0, abs=1e-12)

    def test_comparison_prints_true(self, three_cell_path, capsys):
        code = main(["eval", "--dist", three_cell_path, "H[X,Y] == H[X] + H[Y|X]"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    @pytest.mark.parametrize("expression,word,code", [
        ("E_{p(x)}[H[x]] == H[X]", "true", 0),
        ("E_{p(x)}[H[x]] == 0", "false", 1),
    ])
    def test_expectation_comparison(self, coin_path, capsys, expression, word, code):
        assert main(["eval", "--dist", coin_path, expression]) == code
        assert capsys.readouterr().out.strip() == word

    def test_malformed_expression_is_usage_error(self, coin_path, capsys):
        assert main(["eval", "--dist", coin_path, "H[X"]) == 2
        assert "offset" in capsys.readouterr().err

    @pytest.mark.parametrize("expression", ["IC[1e400]", "1e400 * H[X]", "H[X] == 1e999"])
    def test_literal_too_large_is_usage_error(self, coin_path, capsys, expression):
        assert main(["eval", "--dist", coin_path, expression]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of range" in captured.err

    @pytest.mark.parametrize("name", ["_y", "\u00c9", "x y"])
    def test_unwritable_variable_name_is_usage_error(self, tmp_path, capsys, name):
        doc = {"variables": [{"name": "X", "support": ["0", "1"]},
                             {"name": name, "support": ["0", "1"]}], "probs": [0.25] * 4}
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["eval", "--dist", str(path), "H[X]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["eval", "--dist", missing, "H[X]"]) == 2

    def test_q_file(self, coin_path, tmp_path, capsys):
        q = JointDistribution((Variable("X", ("0", "1")),), [0.25, 0.75])
        q_path = tmp_path / "q.json"
        dump_distribution(q, q_path)
        code = main(["eval", "--dist", coin_path, "--q", str(q_path),
                     "KL[p(X) || q(X)]"])
        assert code == 0
        value = float(capsys.readouterr().out)
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert value == pytest.approx(expected, abs=1e-9)


class TestDiagram:
    def test_eight_labeled_rows(self, three_cell_path, capsys):
        assert main(["diagram", "--dist", three_cell_path, "--observe", "Y=1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        assert any(line.startswith("H[X,y]") for line in lines)

    @pytest.mark.parametrize("names", [("a", "b"), ("X", "Y1", "Yy")])
    def test_each_row_evaluates_to_its_value(self, tmp_path, capsys, names):
        rng = np.random.default_rng(3)
        variables = tuple(Variable(n, ("0", "1", "2")) for n in names)
        cells = rng.exponential(1.0, size=(3,) * len(names))
        path = str(tmp_path / "d.json")
        dump_distribution(JointDistribution(variables, cells / cells.sum()), path)
        for y in names:
            for outcome in ("0", "1", "2"):
                observe = f"{y}={outcome}"
                assert main(["diagram", "--dist", path, "--observe", observe]) == 0
                lines = capsys.readouterr().out.strip().splitlines()
                assert len(lines) == 8
                for line in lines:
                    label, value = line.rsplit(None, 1)
                    assert main(["eval", "--dist", path, "--observe", observe, label]) == 0
                    assert capsys.readouterr().out.strip() == value

    @pytest.mark.parametrize("names,observe", [
        (("X", "_y"), "_y=1"), (("A", "a"), "a=1"), (("X", "Y"), "X=0,Y=1"), (("X", "Y"), ""),
    ])
    def test_unprintable_table_is_usage_error(self, tmp_path, capsys, names, observe):
        # written by hand: a name such as _y cannot be made into a Variable
        doc = {"variables": [{"name": n, "support": ["0", "1"]} for n in names],
               "probs": [0.25] * 4}
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["diagram", "--dist", str(path), "--observe", observe]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


class TestVerifyPaper:
    def test_exit_zero_and_golden_values(self, capsys):
        assert main(["verify-paper"]) == 0
        out = capsys.readouterr().out
        assert "0.405465108" in out  # ln(3/2)
        assert "0.636514168" in out  # ln(3 * 2^(1/3) / 2)
        assert "0.182321556" in out  # ln(6/5)
        assert "0.0353748905" in out  # ln(2 sqrt(3) 5^(1/4) / 5)


class TestStirling:
    def test_labeled_lines(self, capsys):
        assert main(["stirling", "--n", "10", "--r", "5"]) == 0
        out = capsys.readouterr().out
        assert "exact        5.529429" in out
        assert "bound        6.931471" in out
        assert "error        1.402042" in out
        assert "error_bound  2.302585" in out

    def test_csv(self, capsys):
        assert main(["stirling", "--n", "10", "--r", "5", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,r,rho,exact,bound,error,error_bound"
        assert lines[1].startswith("10,5,0.5,")

    def test_domain_error(self, capsys):
        assert main(["stirling", "--n", "5", "--r", "9"]) == 2


class TestCheckAndSearch:
    def test_check_suite_file(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text(
            "H[X,Y] == H[X] + H[Y|X] # expect: always\n"
            "I[X;y] >= 0 # expect: violation\n"
        )
        code = main(["check", "--suite", str(suite), "--seeds", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2/2 entries passed" in out

    def test_check_failure_exit_code(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text("H[X] <= 0 # expect: always\n")
        assert main(["check", "--suite", str(suite), "--seeds", "10"]) == 1

    def test_identifier_starting_with_underscore_is_usage_error(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text("H[_x] >= 0 # expect: always\n")
        assert main(["check", "--suite", str(suite)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at offset 2" in err and "Traceback" not in err

    def test_search_help_shows_the_default_seeds(self, capsys):
        with pytest.raises(SystemExit):
            main(["search", "--help"])
        assert "(default: 500)" in capsys.readouterr().out

    def test_search_writes_json(self, tmp_path, capsys):
        out_path = tmp_path / "reports.json"
        code = main(["search", "--seeds", "8", "--json", str(out_path)])
        assert code == 0
        reports = json.loads(out_path.read_text())
        assert len(reports) >= 18
        assert all(r["passed"] for r in reports)


class TestSim:
    def test_runs_config_to_csv(self, tmp_path, capsys):
        lik = np.array(
            [
                [[0.5, 0.5], [1.0, 0.0]],
                [[0.5, 0.5], [0.0, 1.0]],
            ]
        )
        model = BayesModel(("A", "B"), [0.5, 0.5], ("x0", "x1"), ("0", "1"), lik)
        model_path = tmp_path / "model.json"
        dump_model(model, model_path)
        cfg = {
            "model": str(model_path),
            "pool": [["x0", "0"], ["x1", "0"]],
            "eval": [["x1", "0"]],
            "acquisition": "csd",
            "steps": 2,
            "seed": 0,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "trace.csv"
        assert main(["sim", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3

    def test_byte_identical_reruns(self, tmp_path):
        model, pool, eval_set = __import__("discinfo").threshold_task(12, 4)
        dump_model(model, tmp_path / "m.json")
        for acquisition in ("uniform", "bald", "csd", "batch_bald", "batch_csd"):
            cfg = {
                "model": str(tmp_path / "m.json"),
                "pool": [[model.inputs[x], model.labels[y]] for x, y in pool],
                "eval": [[model.inputs[x], model.labels[y]] for x, y in eval_set],
                "acquisition": acquisition,
                "batch_size": 2,
                "steps": 6,
                "seed": 9,
                "noise_rate": 0.25,
            }
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            a, b = tmp_path / "a.csv", tmp_path / "b.csv"
            assert main(["sim", "--config", str(cfg_path), "--out", str(a)]) == 0
            assert main(["sim", "--config", str(cfg_path), "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("entry", [[-1, 0], [99, 0], ["x1", "7"], [0, 2]])
    def test_bad_pool_entry_is_usage_error(self, tmp_path, capsys, entry):
        model, pool, eval_set = __import__("discinfo").threshold_task(8, 4)
        cfg = {
            "model": model.to_json_dict(),
            "pool": [list(pool[0]), entry],
            "eval": [list(p) for p in eval_set],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sim", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


_MALFORMED_DIST = [
    {"variables": 5, "probs": [1.0]},
    [1, 2],
    {"variables": [5], "probs": [1.0]},
    {"variables": [{"name": "X", "support": 3}], "probs": [0.5, 0.5]},
    {"probs": [1.0]},
]


class TestMalformedJson:
    @pytest.mark.parametrize("doc", _MALFORMED_DIST)
    @pytest.mark.parametrize("command", [["eval", "H[X]"], ["diagram", "--observe", "X=0"]])
    def test_distribution(self, tmp_path, capsys, doc, command):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        argv = command[:1] + ["--dist", str(path)] + command[1:]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed distribution JSON")

    @pytest.mark.parametrize("change", [
        {"pool": [1, 2]},
        {"model": [1]},
        {"model": {"likelihood": {"t0": 3}}},
        {"model": {"hypotheses": 7}},
        {"steps": [1]},
        {"eval": None},
    ])
    def test_sim_config(self, tmp_path, capsys, change):
        model, pool, eval_set = __import__("discinfo").threshold_task(4, 2)
        cfg = {
            "model": model.to_json_dict(),
            "pool": [list(p) for p in pool],
            "eval": [list(p) for p in eval_set],
        }
        for key, value in change.items():
            if key == "model" and isinstance(value, dict):
                cfg["model"].update(value)
            else:
                cfg[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["sim", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed") and "Traceback" not in err


    @pytest.mark.parametrize("row", [0.5, [0.5], [0.5, 0.5, 0.0], [[0.5], [0.5]]])
    def test_short_or_ragged_likelihood_row(self, tmp_path, capsys, row):
        model, pool, eval_set = __import__("discinfo").threshold_task(4, 2)
        doc = model.to_json_dict()
        doc["likelihood"][model.hypotheses[1]][model.inputs[2]] = row
        cfg = {"model": doc, "pool": [list(p) for p in pool],
               "eval": [list(p) for p in eval_set]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(MalformedInput, match="malformed model JSON"):
            load_config(path)
        assert main(["sim", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed model JSON") and "Traceback" not in err


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["eval", "H[X]"])
        assert err.value.code == 2
