import io
import json
import logging
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from discinfo import cli, evaluate, three_cell_distribution
from discinfo.bayes import BayesModel, dump_model, load_model
from discinfo.cli import build_parser, main
from discinfo.dist import JointDistribution, Variable, dump_distribution, load_distribution
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

    @pytest.mark.parametrize("expression, value", [("CE[p(X) || q(X)]", "0.69314718056"),
                                                   ("KL[p(X) || q(X)]", "0.130812035941")])
    def test_q_file_spelling_a_variable_in_lower_case(self, tmp_path, capsys, expression, value):
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        dump_distribution(JointDistribution((Variable("X", ("0", "1")),), [0.25, 0.75]), p)
        dump_distribution(JointDistribution((Variable("x", ("0", "1")),), [0.5, 0.5]), q)
        assert main(["eval", "--dist", str(p), "--q", str(q), expression]) == 0
        assert capsys.readouterr() == (f"{value}\n", "")


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


@pytest.mark.parametrize("command", [["eval", "H[X|q]"], ["diagram"]])
def test_unknown_observed_variable_is_usage_error(three_cell_path, capsys, command):
    argv = [command[0], "--dist", three_cell_path, "--observe", "Q=1", *command[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: no variable matches identifier 'Q'\n"


@pytest.mark.parametrize("command", [["eval", "H[X|y]"], ["diagram"]])
def test_observed_entry_without_an_outcome_is_usage_error(three_cell_path, capsys, command):
    argv = [command[0], "--dist", three_cell_path, "--observe", "X=0, Y", *command[1:]]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: --observe entries look like NAME=OUTCOME, got 'Y'\n")


@pytest.mark.parametrize("observe", ["Y=0,Y=1", "Y=0,y=1", "y=1, Y=1"])
@pytest.mark.parametrize("command", [["eval", "H[X|y]"], ["diagram"]])
def test_repeated_observed_variable_is_usage_error(three_cell_path, capsys, command, observe):
    # a repeat must not let the last binding win silently
    argv = [command[0], "--dist", three_cell_path, "--observe", observe, *command[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bindings name variable 'Y' more than once\n"


def test_observed_names_resolve_in_q_as_bindings_do(tmp_path, three_cell_path, capsys):
    # --observe hands its pairs to evaluate, which resolves a name p lacks in q
    q = JointDistribution((Variable("X", ("0", "1")), Variable("Z", ("0", "1"))),
                          [[0.1, 0.2], [0.3, 0.4]])
    q_path = str(tmp_path / "q.json")
    dump_distribution(q, q_path)
    argv = ["eval", "--dist", three_cell_path, "--q", q_path, "--observe", "z=0,Y=1",
            "CE[p(X|y) || q(X|z)]"]
    assert main(argv) == 0
    want = evaluate("CE[p(X|y) || q(X|z)]", three_cell_distribution(), q=q,
                    bindings={"Z": 0, "Y": 1})
    assert capsys.readouterr() == (f"{want:.12g}\n", "")


@pytest.mark.parametrize("command", [["eval", "H[X|y]"], ["diagram"]])
def test_observed_names_resolve_as_the_notation_does(three_cell_path, capsys, command):
    outputs = []
    for observe in ("Y=1", "y=1"):
        argv = [command[0], "--dist", three_cell_path, "--observe", observe, *command[1:]]
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].out and not outputs[0].err


def test_names_equal_up_to_case_are_usage_error(tmp_path, capsys):
    # Y and y would name one variable, so the file is refused before a name is resolved
    doc = {"variables": [{"name": n, "support": ["0", "1"]} for n in ("X", "Y", "y")],
           "probs": [1 / 8] * 8}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["eval", "--dist", str(path), "--observe", "Y=1", "H[X]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: duplicate variable names (equal up to case): "
                            "['X', 'Y', 'y']\n")


class TestVerifyPaper:
    def test_exit_zero_and_golden_values(self, capsys):
        assert main(["verify-paper"]) == 0
        out = capsys.readouterr().out
        assert "0.405465108" in out  # ln(3/2)
        assert "0.636514168" in out  # ln(3 * 2^(1/3) / 2)
        assert "0.182321556" in out  # ln(6/5)
        assert "0.0353748905" in out  # ln(2 sqrt(3) 5^(1/4) / 5)

    def test_a_value_off_its_expected_one_is_a_mismatch(self, capsys, monkeypatch):
        from discinfo.identities import WitnessReport

        monkeypatch.setattr(WitnessReport, "golden_values", lambda self: [("H[X]", 1.0, 2.0)])
        assert main(["verify-paper"]) == 1
        assert capsys.readouterr() == ("", "MISMATCH: H[X]: computed 1.0, expected 2.0\n")


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

    def test_a_line_without_a_variable_is_usage_error(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text("0.5 <= 1  # expect: always\n")
        assert main(["check", "--suite", str(suite)]) == 2
        assert capsys.readouterr() == ("", "error: entry 'L1: 0.5 <= 1' names no variable; the "
                                           "search draws distributions over the variables an "
                                           "entry names\n")

    def test_identifier_starting_with_underscore_is_usage_error(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text("H[_x] >= 0 # expect: always\n")
        assert main(["check", "--suite", str(suite)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at offset 2" in err and "Traceback" not in err

    def test_parse_error_names_its_line_and_the_expected_set_once(self, tmp_path, capsys):
        suite = tmp_path / "suite.txt"
        suite.write_text("H[X] >= 0 # expect: always\nH[X] >= # expect: always\n")
        assert main(["check", "--suite", str(suite)]) == 2
        err = capsys.readouterr().err
        expected = "['CE', 'E', 'H', 'I', 'IC', 'KL', 'NUMBER']"
        assert err == (f"error: line 2: expected one of {expected}, "
                       f"found end of input at offset 7\n")

    def test_an_outcome_other_than_0_or_1_is_refused_at_every_seed(self, tmp_path, capsys):
        # the line is refused when it is read, before any case is drawn
        suite = tmp_path / "suite.txt"
        suite.write_text("I[X;y=2] >= 0  # expect: violation\n")
        for rng_seed in ("0", "4"):
            assert main(["check", "--suite", str(suite), "--rng-seed", rng_seed]) == 2
            assert capsys.readouterr() == ("", (
                "error: entry 'L1: I[X;y=2] >= 0': '2' is not an outcome of variable 'Y'; "
                "an entry may write only the outcomes 0 and 1, which every case of the "
                "search has\n"))

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

    def test_byte_identical_reruns(self, tmp_path, capsys):
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
            assert main(["sim", "--config", str(cfg_path)]) == 0  # no --out: to stdout
            assert capsys.readouterr().out == a.read_text(encoding="utf-8")

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

    def test_a_boolean_pool_entry_is_usage_error(self, tmp_path, capsys):
        model, _, eval_set = __import__("discinfo").threshold_task(8, 4)
        cfg = {
            "model": model.to_json_dict(),
            "pool": [[True, 0], [2, True]],
            "eval": [list(p) for p in eval_set],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sim", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: outcome index True for variable 'X' is not an integer\n"

    def test_label_noise_on_a_one_label_model_is_usage_error(self, tmp_path, capsys):
        # before, the run failed inside numpy and printed "error: high <= 0"
        model = BayesModel(("a", "b"), [.5, .5], ("x0", "x1"), ("only",), np.ones((2, 2, 1)))
        cfg = {"model": model.to_json_dict(), "pool": [[0, 0], [1, 0]], "eval": [[0, 0]],
               "noise_rate": 0.5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["sim", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: noise_rate = 0.5 flips 1 pool labels, but the model has "
                                "the one label 'only': none to flip to\n")


_MALFORMED_DIST = [
    {"variables": 5, "probs": [1.0]},
    [1, 2],
    {"variables": [5], "probs": [1.0]},
    {"variables": [{"name": "X", "support": 3}], "probs": [0.5, 0.5]},
    {"probs": [1.0]},
    {"variables": [{"name": "X", "support": ["0", "1"]}, {"name": "Y", "support": ["0", "1"]}],
     "probs": [[0.25, 0.25], [0.5]]},
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
        doc["likelihood"][1][2] = row
        cfg = {"model": doc, "pool": [list(p) for p in pool],
               "eval": [list(p) for p in eval_set]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(MalformedInput, match="malformed model JSON"):
            load_config(path)
        assert main(["sim", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed model JSON") and "Traceback" not in err


    @pytest.mark.parametrize("change", [
        {"steps": 2.7},
        {"steps": True},
        {"seed": True},
        {"seed": 1.5},
        {"batch_size": False},
        {"batch_size": "2"},
        {"noise_rate": True},
        {"noise_rate": "0.1"},
        {"pool": [[0, 1, 2]]},
        # a pair is a JSON list of two: not a string of two characters, nor an object's two keys
        {"pool": ["01", "31"]},
        {"eval": ["01"]},
        {"initial": [{"0": 1, "1": 0}]},
    ])
    def test_sim_config_scalar_or_pair(self, tmp_path, capsys, change):
        model, pool, eval_set = __import__("discinfo").threshold_task(4, 2)
        cfg = {"model": model.to_json_dict(), "pool": [list(p) for p in pool],
               "eval": [list(p) for p in eval_set], **change}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(MalformedInput, match="malformed simulation config JSON"):
            load_config(path)
        assert main(["sim", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed simulation config JSON")

    @pytest.mark.parametrize("key,value,kind", [
        ("prior", ["0.5", "0.25", "0.25"], "str"),
        ("prior", [True, False, False], "bool"),
        ("prior", [0.5, None, 0.5], "object"),
        ("likelihood", [True, False], "bool"),
        ("likelihood", ["0.5", "0.5"], "str"),
    ])
    def test_model_tables_must_hold_numbers(self, tmp_path, capsys, key, value, kind):
        model, pool, eval_set = __import__("discinfo").threshold_task(2)
        doc = model.to_json_dict()
        if key == "prior":
            doc["prior"] = value
        else:
            doc["likelihood"][1][0] = value
        cfg = {"model": doc, "pool": [list(p) for p in pool],
               "eval": [list(p) for p in eval_set]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(MalformedInput, match=f"malformed model JSON: {key} must hold "
                                                 f"numbers, not {kind}"):
            load_config(path)
        assert main(["sim", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed model JSON: {key}")

    def test_model_integer_tables_load(self):
        model = __import__("discinfo").threshold_task(2)[0]
        doc = model.to_json_dict()
        doc["prior"] = [1, 0, 0]
        doc["likelihood"][0][0] = [1, 0]
        loaded = BayesModel.from_json_dict(doc)
        assert loaded.prior.tolist() == [1.0, 0.0, 0.0]
        assert loaded.likelihood[0, 0].tolist() == [1.0, 0.0]

    def test_sim_config_integral_float_is_an_integer(self, tmp_path):
        model, pool, eval_set = __import__("discinfo").threshold_task(4, 2)
        cfg = {"model": model.to_json_dict(), "pool": [list(p) for p in pool],
               "eval": [list(p) for p in eval_set], "steps": 2.0, "noise_rate": 0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        loaded = load_config(path)
        assert (loaded.steps, loaded.noise_rate) == (2, 0.0)
        assert type(loaded.steps) is int and type(loaded.noise_rate) is float

    @pytest.mark.parametrize("doc", [
        {"variables": [{"name": "X", "support": "01"}], "probs": [0.5, 0.5]},
        {"variables": [{"name": "X", "support": ["0", "1"]}], "probs": ["0.5", "0.5"]},
        {"variables": [{"name": "X", "support": ["0", "1"]}], "probs": [True, False]},
        {"variables": [{"name": "X", "support": ["0", "1"]}], "probs": [None, 1.0]},
        {"variables": [{"name": "X", "support": ["0", "1"]}], "probs": [True, 0.0]},
        {"variables": [{"name": "X", "support": ["0", "1"]}], "probs": [[0.5, 0.5], [0.0]]},
    ])
    def test_distribution_support_or_probs(self, tmp_path, capsys, doc):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedInput, match="malformed distribution JSON"):
            load_distribution(path)
        assert main(["eval", "--dist", str(path), "H[X]"]) == 2
        assert capsys.readouterr().err.startswith("error: malformed distribution JSON")

    @pytest.mark.parametrize("part,key,what", [
        ("config", "stepz", "simulation config"),
        ("model", "priors", "model"),
        ("dist", "prob", "distribution"),
        ("variable", "sup", "distribution"),
    ])
    def test_unknown_key_is_named(self, tmp_path, capsys, part, key, what):
        # a misspelt key must not fall back to a default: "stepz" would run 10 steps
        model, pool, eval_set = __import__("discinfo").threshold_task(4, 2)
        cfg = {"model": model.to_json_dict(), "pool": [list(p) for p in pool],
               "eval": [list(p) for p in eval_set]}
        dist = {"variables": [{"name": "X", "support": ["0", "1"]}], "probs": [0.5, 0.5]}
        parts = {"config": cfg, "model": cfg["model"], "dist": dist, "variable": dist["variables"][0]}
        parts[part][key] = 3
        path = tmp_path / "doc.json"
        if what == "distribution":
            path.write_text(json.dumps(dist))
            argv = ["eval", "--dist", str(path), "H[X]"]
        else:
            path.write_text(json.dumps(cfg))
            argv = ["sim", "--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed {what} JSON: unknown key {key!r}")

    def test_distribution_integer_probs_load(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(
            {"variables": [{"name": "X", "support": ["0", "1"]}], "probs": [[1], [0]]}))
        assert load_distribution(path).probs.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("extra", ["hypothesis", "input"])
    def test_a_surplus_likelihood_list(self, tmp_path, capsys, extra):
        # a table with one list more than the names declare must not load as the model without it
        model, pool, eval_set = __import__("discinfo").threshold_task(2)
        doc = model.to_json_dict()
        for table in [doc["likelihood"]] if extra == "hypothesis" else doc["likelihood"]:
            table.append(table[-1])
        message = "malformed model JSON: likelihood must be 3 lists (one per hypothesis)"
        with pytest.raises(MalformedInput, match=re.escape(message)):
            BayesModel.from_json_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": doc, "pool": [list(p) for p in pool],
                                    "eval": [list(p) for p in eval_set]}))
        assert main(["sim", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    def test_ragged_likelihood_names_the_layout(self, tmp_path, capsys):
        model, pool, eval_set = __import__("discinfo").threshold_task(2)
        doc = model.to_json_dict()
        doc["likelihood"][1][0] = [0.5]
        message = ("malformed model JSON: likelihood must be 3 lists (one per hypothesis) of 2 "
                   "rows (one per input) of 2 numbers (one per label), in declared order; got "
                   "ragged lists")
        model_path, cfg_path = tmp_path / "model.json", tmp_path / "cfg.json"
        model_path.write_text(json.dumps(doc))
        with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
            load_model(model_path)
        cfg_path.write_text(json.dumps({"model": str(model_path), "pool": [list(p) for p in pool],
                                        "eval": [list(p) for p in eval_set]}))
        assert main(["sim", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_mapping_likelihood_names_the_new_layout(self, tmp_path, capsys):
        # the layout keyed by hypothesis and input name, written by earlier versions
        model, pool, eval_set = __import__("discinfo").threshold_task(2)
        doc = model.to_json_dict()
        doc["likelihood"] = {h: dict(zip(model.inputs, rows))
                             for h, rows in zip(model.hypotheses, doc["likelihood"])}
        layout = ("likelihood must be 3 lists (one per hypothesis) of 2 rows (one per input) of 2 "
                  "numbers (one per label), in declared order; the layout changed, and a mapping "
                  "keyed by name is no longer read")
        model_path, cfg_path = tmp_path / "model.json", tmp_path / "cfg.json"
        model_path.write_text(json.dumps(doc))
        with pytest.raises(MalformedInput, match=re.escape(f"malformed model JSON: {layout}")):
            load_model(model_path)
        for spec in (doc, str(model_path)):
            cfg_path.write_text(json.dumps({"model": spec, "pool": [list(p) for p in pool],
                                            "eval": [list(p) for p in eval_set]}))
            assert main(["sim", "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: malformed model JSON: {layout}\n"


def _dist_bytes(support=b'"0", "1"', probs=b"0.5, 0.5"):
    return (b'{"variables": [{"name": "X", "support": [' + support + b']}], "probs": ['
            + probs + b"]}")


class TestReaderRejections:
    """Documents the reader refuses although stdlib ``json`` gives them a
    value or a bare decode error: each is MalformedInput naming the file
    kind, and the CLI exits 2."""

    @pytest.mark.parametrize("text", [
        _dist_bytes(probs=b"NaN, 1.0"),
        _dist_bytes(probs=b"Infinity, 0.5"),
        _dist_bytes(probs=b"1e400, 0.5"),
        _dist_bytes(support=b'"0", 1.5'),
        _dist_bytes(support=b'"0", 123456789012345678901234567890'),
        _dist_bytes(support=b'"0", "\xff"'),
        b"\xef\xbb\xbf" + _dist_bytes(),
        _dist_bytes(support=b'"0", "\\ud800"'),
        _dist_bytes(support=b"true, null"),
        _dist_bytes(support=b'["0"], "1"'),
        _dist_bytes(support=b'"0", {"1": 1}'),
        _dist_bytes().replace(b'["0", "1"]', b'"01"'),
    ], ids=["nan", "infinity", "beyond-float-range", "float-label", "label-beyond-64-bits",
            "invalid-utf8", "bom", "lone-surrogate", "boolean-and-null-labels", "nested-label",
            "object-label", "string-support"])
    def test_distribution(self, tmp_path, capsys, text):
        path = tmp_path / "d.json"
        path.write_bytes(text)
        with pytest.raises(MalformedInput, match="^malformed distribution JSON: "):
            load_distribution(path)
        for command in (["eval", "--dist", str(path), "H[X]"],
                        ["diagram", "--dist", str(path), "--observe", "X=0"]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: malformed distribution JSON: ") and "Traceback" not in err

    @pytest.mark.parametrize("key,text,what", [
        ("seed", b"18446744073709551616", "simulation config"),
        ("seed", b"-9223372036854775809", "simulation config"),
        ("steps", b"1e19", "simulation config"),
        ("noise_rate", b"NaN", "simulation config"),
        ("labels", b"1.0", "model"),
        ("inputs", b"1e30", "model"),
        ("hypotheses", b"36893488147419103232", "model"),
        ("prior", b"Infinity", "simulation config"),  # an inline model is part of the config
    ], ids=["seed-2**64", "seed-below--2**63", "steps-1e19", "nan-noise-rate", "float-label",
            "float-input", "hypothesis-beyond-64-bits", "infinite-prior"])
    def test_sim_config(self, tmp_path, capsys, key, text, what):
        model, pool, eval_set = __import__("discinfo").threshold_task(2)
        cfg = {"model": model.to_json_dict(), "pool": [list(p) for p in pool],
               "eval": [list(p) for p in eval_set]}
        doc = cfg["model"]
        if key in doc:  # the last entry of the list is the one written as ``text``
            doc[key] = [*doc[key][:-1], "@"]
        else:
            cfg[key] = "@"
        path = tmp_path / "cfg.json"
        path.write_bytes(json.dumps(cfg).encode().replace(b'"@"', text))
        with pytest.raises(MalformedInput, match=f"^malformed {what} JSON: "):
            load_config(path)
        assert main(["sim", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed {what} JSON: ") and "Traceback" not in err

    @pytest.mark.parametrize("key,value,message", [
        ("inputs", "01", "inputs must be a list, not a string '01'"),
        ("labels", [False, True], "labels holds false; a name is a string or an integer"),
        ("hypotheses", ["t0", None, "t2"], "hypotheses holds null; a name is a string"),
        ("inputs", [["0"], "1"], "inputs holds a list ['0']; a name is a string or an integer"),
        ("labels", {"0": 0, "1": 1}, "labels must be a list, not an object {'0': 0, '1': 1}"),
    ], ids=["string-inputs", "boolean-labels", "null-hypothesis", "nested-input",
            "object-labels"])
    def test_name_lists(self, tmp_path, capsys, key, value, message):
        # a name list holds strings and integers only: nothing else is read through str()
        model, pool, eval_set = __import__("discinfo").threshold_task(2)
        doc = model.to_json_dict()
        doc[key] = value
        with pytest.raises(MalformedInput, match=re.escape(f"malformed model JSON: {message}")):
            BayesModel.from_json_dict(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": doc, "pool": [list(p) for p in pool],
                                    "eval": [list(p) for p in eval_set]}))
        assert main(["sim", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed model JSON: {message}") and "Traceback" not in err

    def test_name_list_message_shows_only_the_start_of_a_large_value(self, tmp_path, capsys):
        # a likelihood mapping put under inputs by mistake: megabytes, not one long line
        model, pool, eval_set = __import__("discinfo").threshold_task(2)
        doc = model.to_json_dict()
        doc["inputs"] = {"x" * 1000: [0.5] * 100_000}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": doc, "pool": [list(p) for p in pool],
                                    "eval": [list(p) for p in eval_set]}))
        assert path.stat().st_size > 500_000
        assert main(["sim", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed model JSON: inputs must be a list, not an object {")
        assert len(err) < 200 and "Traceback" not in err

    def test_name_list_of_a_programmatic_document_with_non_string_keys(self):
        # json.dumps refuses non-string keys; the message must not depend on it
        model, _, _ = __import__("discinfo").threshold_task(2)
        doc = model.to_json_dict()
        doc["labels"] = {0: "0", 1: "1"}
        with pytest.raises(MalformedInput, match=re.escape(
                "malformed model JSON: labels must be a list, not an object {0: '0', 1: '1'}")):
            BayesModel.from_json_dict(doc)
        doc["labels"] = [{0: "0"}, "1"]
        with pytest.raises(MalformedInput, match=re.escape("labels holds an object {0: '0'};")):
            BayesModel.from_json_dict(doc)

    def test_model_file_by_path(self, tmp_path, capsys):
        model, pool, eval_set = __import__("discinfo").threshold_task(2)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model.to_json_dict()).replace("0.98", "NaN", 1))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": str(model_path), "pool": [list(p) for p in pool],
                                    "eval": [list(p) for p in eval_set]}))
        with pytest.raises(MalformedInput, match="^malformed model JSON: "):
            load_config(path)
        assert main(["sim", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed model JSON: ")

    def test_integers_up_to_64_bits_still_load(self, tmp_path):
        model, pool, eval_set = __import__("discinfo").threshold_task(2)
        doc = model.to_json_dict()
        doc["labels"] = [0, 18446744073709551615]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": doc, "pool": [[0, 0]], "eval": [[0, 0]],
                                    "seed": 2**64 - 1, "batch_size": 2**63}))
        cfg = load_config(path)
        assert (cfg.seed, cfg.batch_size) == (2**64 - 1, 2**63)
        assert cfg.model.labels == ("0", "18446744073709551615")


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["eval", "H[X]"])
        assert err.value.code == 2


class TestRepeatedMain:
    """``main`` reuses one parser within a process; nothing else carries over."""

    @staticmethod
    def _run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return captured.out, captured.err, code

    def test_back_to_back_commands_match_a_new_parser(self, three_cell_path, tmp_path,
                                                      capsys, monkeypatch):
        q = JointDistribution((Variable("X", ("0", "1")), Variable("Y", ("0", "1"))),
                              [0.25] * 4)
        q_path = str(tmp_path / "q.json")
        dump_distribution(q, q_path)
        p = ["--dist", three_cell_path]
        sequence = [
            ["eval", *p, "--q", q_path, "KL[p(X,Y) || q(X,Y)]"],
            ["eval", *p, "KL[p(X,Y) || q(X,Y)]"],  # no --q this time: exit 2
            ["eval", *p, "H[X,Y]"],
            ["--base", "bits", "eval", *p, "H[X,Y]"],
            ["eval", *p, "H[X,Y]"],
            ["diagram", *p, "--observe", "Y=1"],
            ["eval", *p, "--observe", "Y=0", "H[X|y]"],
            ["eval", *p, "H[X|y]"],  # no --observe this time: exit 2
            ["eval", "H[X]"],  # no --dist: SystemExit 2
            ["search", "--help"],
        ]
        main(["stirling", "--n", "4", "--r", "2"])  # the parser exists before the sequence
        capsys.readouterr()

        def no_new_parser():
            raise AssertionError("main built a second parser")

        monkeypatch.setattr(cli, "build_parser", no_new_parser)
        reused = [self._run(argv, capsys) for argv in sequence]
        monkeypatch.undo()
        monkeypatch.setattr(cli, "_parser", build_parser)  # a new parser on every call
        fresh = [self._run(argv, capsys) for argv in sequence]
        assert reused == fresh
        assert [code for _, _, code in fresh] == [0, 2, 0, 0, 0, 0, 0, 2, 2, 0]
        assert fresh[3][0] == "1.58496250072\n" != fresh[4][0]

    def test_a_built_parser_is_the_callers_own(self, coin_path, capsys):
        argv = ["eval", "--dist", coin_path, "H[X]"]
        assert main(argv) == 0
        before = capsys.readouterr().out
        parser = build_parser()
        assert parser is not build_parser()
        parser.set_defaults(base="bits")
        assert parser.parse_args(argv).base == "bits"
        assert main(argv) == 0
        assert capsys.readouterr().out == before == "0.69314718056\n"

    def test_log_level_and_stderr_belong_to_each_call(self, tmp_path):
        suite = tmp_path / "suite.txt"
        suite.write_text("H[X] >= 0 # expect: always\n"
                         "H[X,Y] == H[X] + H[Y|X] # expect: always\n")
        argv = ["check", "--suite", str(suite), "--seeds", "3"]
        root, package = logging.getLogger(), logging.getLogger("discinfo")

        def state():
            return ([*root.handlers], root.level,
                    [*package.handlers], package.level, package.propagate)

        streams = []
        for flags in ([], ["--log-level", "INFO"], []):
            before = state()
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                assert main(flags + argv) == 0
            assert state() == before
            streams.append(err.getvalue())
        first, info, last = streams
        assert first == last == ""
        lines = info.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("INFO discinfo.identities: ") for line in lines)
        assert "3 cases evaluated" in lines[0]
