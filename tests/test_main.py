"""``python -m discinfo`` runs the command line: once in this process through
runpy, and as a fresh process reading simulator configs, whose CSV must be the
in-process ``run_sim(load_config(...))`` byte for byte."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import orjson
import pytest

from discinfo import cli, threshold_task
from discinfo.simulate import CSV_HEADER, load_config, run_sim

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv,code", [
    (["stirling", "--n", "10", "--r", "3"], 0),
    (["eval", "--dist", "no_such_file.json", "H[X]"], 2),
])
def test_python_m_discinfo_is_cli_main(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "argv", ["discinfo", *argv])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("discinfo", run_name="__main__")
    assert exited.value.code == code
    printed = capsys.readouterr()
    assert cli.main(argv) == code
    assert capsys.readouterr() == printed


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """threshold_task's model, pool and evaluation set at 128 and 512 points, each
    model written once to a file that every config of its size names."""
    out = {}
    for points in (128, 512):
        model, pool, eval_set = threshold_task(points)
        path = tmp_path_factory.mktemp("models") / f"model_{points}.json"
        # orjson: an indented json dump of the 512-point model takes about 1.5 s
        path.write_bytes(orjson.dumps(model.to_json_dict()))
        out[points] = (str(path), [list(p) for p in pool], [list(e) for e in eval_set])
    return out


# every acquisition at batch size 3 and 128 points, once more with label noise, and at 512
# points, where the score table spans several blocks of hypotheses, once more for bald with
# label noise: each run reads its pool and evaluation set as the position arrays the config
# checked
@pytest.mark.parametrize("acquisition,noise_rate,points", [
    ("uniform", 0.0, 128), ("bald", 0.0, 128), ("csd", 0.0, 128), ("batch_bald", 0.0, 128),
    ("batch_csd", 0.0, 128), ("batch_csd", 0.1, 128), ("uniform", 0.0, 512), ("bald", 0.0, 512),
    ("bald", 0.1, 512), ("csd", 0.0, 512), ("batch_bald", 0.0, 512), ("batch_csd", 0.0, 512),
])
def test_fresh_sim_process_prints_the_in_process_csv(models, tmp_path, acquisition, noise_rate,
                                                      points):
    model, pool, eval_set = models[points]
    config, csv = tmp_path / "config.json", tmp_path / "run.csv"
    config.write_text(json.dumps({"model": model, "pool": pool, "eval": eval_set,
                                  "acquisition": acquisition, "batch_size": 3,
                                  "noise_rate": noise_rate}))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    fresh = subprocess.Popen([sys.executable, "-m", "discinfo", "sim", "--config", str(config),
                              "--out", str(csv)], env={**os.environ, "PYTHONPATH": path},
                             stderr=subprocess.PIPE, text=True)
    in_process = run_sim(load_config(config)).to_csv()  # while the fresh process runs
    _, err = fresh.communicate()
    assert fresh.returncode == 0, err
    assert csv.read_bytes() == in_process.encode()
    assert in_process.startswith(f"{CSV_HEADER}\n") and in_process.count("\n") > 1
