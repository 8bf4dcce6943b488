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


LAZY = ("discinfo.bayes", "discinfo.simulate", "discinfo.stirling")


def test_import_leaves_bayes_simulate_and_stirling_unloaded():
    code = f"import discinfo, discinfo.cli; print([m for m in {LAZY!r} if m in sys.modules])"
    assert _run(code) == "[]"


def test_first_use_binds_all_of_a_modules_names():
    # so a tracer that wraps the names the package binds finds them all
    code = ("import discinfo; discinfo.run_sim; "
            "print(sorted(n for n in ('SimConfig', 'SimResult', 'threshold_task', 'bald') "
            "if n in vars(discinfo)))")
    assert _run(code) == "['SimConfig', 'SimResult', 'threshold_task']"


def test_every_exported_name_resolves():
    for name in discinfo.__all__:
        assert getattr(discinfo, name) is not None
    from discinfo import bayes, simulate, stirling

    assert discinfo.bald is bayes.bald
    assert discinfo.run_sim is simulate.run_sim
    assert discinfo.stirling_bound is stirling.stirling_bound
    with pytest.raises(AttributeError):
        discinfo.no_such_name  # noqa: B018
