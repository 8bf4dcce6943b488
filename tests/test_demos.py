"""Every demo runs with warnings as errors and prints exactly its ``.expected``
file: each runs as a reader would run it, as a fresh Python process on the
checked-out ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_checked():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_expected_output(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], capture_output=True,
                         text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert run.stdout == demo.with_suffix(".expected").read_text(encoding="utf-8")
