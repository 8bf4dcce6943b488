import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import discinfo


def test_import_loads_no_scipy():
    """scipy is a test-only dependency (an oracle); the package must not load it."""
    src = str(Path(discinfo.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import discinfo; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def _run(code):
    src = str(Path(discinfo.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); {code}"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return done.stdout.strip()


def _loaded(code, modules):
    return _run(f"{code}; print([m for m in {modules!r} if m in sys.modules])")


def test_import_loads_only_dist_errors_and_quantities():
    code = "import discinfo; print(sorted(m for m in sys.modules if m.startswith('discinfo.')))"
    assert _run(code) == "['discinfo.dist', 'discinfo.errors', 'discinfo.quantities']"


def test_cli_import_leaves_the_notation_and_the_search_unloaded():
    # each command imports what it uses, so `discinfo sim` never loads them
    assert _loaded("import discinfo.cli", ("discinfo.expr", "discinfo.identities")) == "[]"


def test_sim_command_loads_neither_the_notation_nor_the_search(tmp_path):
    path = tmp_path / "cfg.json"
    out = tmp_path / "o.csv"
    code = (f"import json, discinfo.cli; m, p, e = discinfo.threshold_task(4, 2); "
            f"open({str(path)!r}, 'w').write(json.dumps({{'model': m.to_json_dict(), "
            "'pool': [list(x) for x in p], 'eval': [list(x) for x in e]})); "
            f"discinfo.cli.main(['sim', '--config', {str(path)!r}, '--out', {str(out)!r}])")
    assert _loaded(code, ("discinfo.expr", "discinfo.identities")) == "[]"


LAZY = ("discinfo.bayes", "discinfo.simulate", "discinfo.stirling")


def test_import_leaves_bayes_simulate_and_stirling_unloaded():
    assert _loaded("import discinfo, discinfo.cli", LAZY) == "[]"


def test_first_use_binds_all_of_a_modules_names():
    # so a tracer that wraps the names the package binds finds them all
    code = ("import discinfo; discinfo.run_sim; "
            "print(sorted(n for n in ('SimConfig', 'SimResult', 'threshold_task', 'bald') "
            "if n in vars(discinfo)))")
    assert _run(code) == "['SimConfig', 'SimResult', 'threshold_task']"


@pytest.mark.parametrize("use,module,names", [
    ("parse", "expr", ("DiagramTable", "diagram", "evaluate", "format_expression")),
    ("check_suite", "identities", ("IdentitySuite", "default_suite", "parse_suite_file",
                                   "verify_reference_witnesses")),
])
def test_first_use_of_the_notation_or_the_search_binds_all_its_names(use, module, names):
    code = (f"import discinfo; discinfo.{use}; "
            f"print(all(getattr(discinfo.{module}, n) is vars(discinfo)[n] for n in {names!r}), "
            "'run_sim' in vars(discinfo))")
    assert _run(code) == "True False"


def test_every_exported_name_resolves():
    for name in discinfo.__all__:
        assert getattr(discinfo, name) is not None
    from discinfo import bayes, simulate, stirling

    assert discinfo.bald is bayes.bald
    assert discinfo.run_sim is simulate.run_sim
    assert discinfo.stirling_bound is stirling.stirling_bound
    assert discinfo.ParseError is discinfo.expr.ParseError
    with pytest.raises(AttributeError):
        discinfo.no_such_name  # noqa: B018


def test_only_reading_a_file_loads_orjson(tmp_path):
    # the JSON reader imports orjson on its first call, so the search and an
    # in-memory simulation pay neither its import nor its memory
    path = tmp_path / "coin.json"
    path.write_text('{"variables": [{"name": "X", "support": ["0", "1"]}], "probs": [0.5, 0.5]}')
    steps = [
        "import discinfo",
        "import discinfo.cli",
        "discinfo.check_suite(discinfo.default_suite(), seeds=5)",
        "m, p, e = discinfo.threshold_task(4, 2); discinfo.run_sim(discinfo.SimConfig(m, p, e))",
        f"discinfo.load_distribution({str(path)!r})",
    ]
    code = "; ".join(f"{step}; print('orjson' in sys.modules)" for step in steps)
    assert _run(code).split() == ["False"] * 4 + ["True"]


REMOVED = ("cross_entropy", "kl_divergence", "triple_mi", "expected_marginal_ic", "marginalize",
           "prob_of", "power", "scale", "product", "Assignment", "Dataset", "expr.EntropyNode",
           "expr.MINode", "bayes.LabelConfigs", "dist.JointDistribution.max_cells",
           "dist.DEFAULT_MAX_CELLS",
           "identities.random_distribution", "identities.grid_distributions")


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    # each quantity is an expression for evaluate, bindings are a plain dict, data is a list
    # of pairs, H and I are one node, a greedy batch is a list of inputs, there is no cell cap
    # and the search draws its own cases; a dotted name is gone from its module or class
    owner, _, name = name.rpartition(".")
    module, _, cls = owner.partition(".")
    assert name not in discinfo.__all__
    owner = importlib.import_module(f"discinfo.{module}") if module else discinfo
    with pytest.raises(AttributeError):
        getattr(getattr(owner, cls) if cls else owner, name)
