"""The README's examples hold as written: every ```python block runs, in
order, in one namespace, as a reader would paste them, and every ```json
block of a file-format section loads through that format's reader."""

import json
import re
from pathlib import Path

import pytest

from discinfo import BayesModel, JointDistribution, SimConfig

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
JSON_BLOCK = re.compile(r"^```json\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_order():
    blocks = PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md, python block {i}", "exec"), namespace)


def json_blocks(section: str) -> list:
    """The documents in the ```json blocks under the heading ``### section``,
    up to the next heading."""
    text = README.read_text(encoding="utf-8")
    body = re.split(r"^#+ ", text.split(f"\n### {section}\n", 1)[1], maxsplit=1, flags=re.M)[0]
    blocks = [json.loads(block) for block in JSON_BLOCK.findall(body)]
    assert blocks, f"no json block under {section!r}"
    return blocks


READERS = {
    "Distribution files": JointDistribution.from_json_dict,
    "Model files": BayesModel.from_json_dict,
    # a config's "model" here names a file: the README's model stands in for it
    "Simulation configs": lambda doc: SimConfig.from_json_dict(
        doc, model=BayesModel.from_json_dict(json_blocks("Model files")[0])),
}


@pytest.mark.parametrize("section", list(READERS))
def test_readme_file_formats_load(section):
    for doc in json_blocks(section):
        READERS[section](doc)
