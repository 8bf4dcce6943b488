"""The document readers: the numbers of ``probs``, ``prior`` and ``likelihood``
read back bit for bit, each malformed table is refused with its message, and
a malformed document of any of the three file formats (a distribution, a
model, a simulation config) ends ``discinfo`` with exit 2 and one error line."""

import copy
import functools
import io
import json
import operator
import random
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import orjson
import pytest

from discinfo import cli, threshold_task
from discinfo.bayes import load_model
from discinfo.dist import load_distribution, number_array
from discinfo.errors import MalformedInput

DIST = '{"variables": [{"name": "X", "support": ["0", "1"]}], "probs": %s}'
MODEL = ('{"hypotheses": ["A", "B"], "prior": %s, "inputs": ["x"], "labels": ["0", "1"], '
         '"likelihood": %s}')
PRIOR, LIKELIHOOD = "[0.5, 0.5]", "[[[0.5, 0.5]], [[0.25, 0.75]]]"
LAYOUT = ("likelihood must be 2 lists (one per hypothesis) of 1 rows (one per input) of 2 "
          "numbers (one per label), in declared order")


def _load(tmp_path, key, value):
    """The document that holds ``value`` (JSON text) under ``key``, read from a file."""
    path = tmp_path / "doc.json"
    if key == "probs":
        path.write_text(DIST % value)
        return load_distribution(path).probs
    path.write_text(MODEL % ((value, LIKELIHOOD) if key == "prior" else (PRIOR, value)))
    model = load_model(path)
    return model.prior if key == "prior" else model.likelihood


class TestNumbers:
    """An integer literal (read as an integer, and above 2**53 and 2**63 rounded to
    the nearest double), the least subnormal, the largest double and -0.0 keep
    their bits, whatever the nesting."""

    BITS = [1.0, 9007199254740992.0, 18446744073709551616.0, 5e-324, 1.7976931348623157e308, -0.0]
    TEXT = "[1, 9007199254740993, 18446744073709551615, 5e-324, 1.7976931348623157e308, -0.0]"

    @pytest.mark.parametrize("key,text,shape", [
        ("probs", TEXT, (6,)), ("prior", TEXT, (6,)), ("likelihood", f"[[{TEXT}]]", (1, 1, 6)),
        ("probs", f"[{TEXT}, {TEXT}]", (2, 6)),
    ])
    def test_reader(self, key, text, shape):
        cells = np.asarray(number_array(orjson.loads(text), "model", key, "layout"), dtype=float)
        assert cells.shape == shape
        assert cells.tobytes() == np.tile(self.BITS, 2 if shape == (2, 6) else 1).tobytes()

    @pytest.mark.parametrize("key", ["probs", "prior"])
    @pytest.mark.parametrize("text,bits", [
        ("[1, 0]", [1.0, 0.0]), ("[-0.0, 1]", [-0.0, 1.0]), ("[1, 5e-324]", [1.0, 5e-324]),
    ])
    def test_document(self, tmp_path, key, text, bits):
        assert _load(tmp_path, key, text).tobytes() == np.array(bits).tobytes()

    def test_likelihood_document(self, tmp_path):
        table = _load(tmp_path, "likelihood", "[[[1, 5e-324]], [[-0.0, 1]]]")
        assert table.tobytes() == np.array([1.0, 5e-324, -0.0, 1.0]).tobytes()


def _inhomogeneous(what, key):
    return (f"malformed {what} JSON: {key}: setting an array element with a sequence. The "
            f"requested array has an inhomogeneous shape after 1 dimensions. The detected shape "
            f"was (2,) + inhomogeneous part.")


def _not_numbers(what, key, kind):
    return f"malformed {what} JSON: {key} must hold numbers, not {kind} values"


@pytest.mark.parametrize("key,text,message", [
    ("probs", "[[0.5, 0.5], [0.5]]", _inhomogeneous("distribution", "probs")),
    ("probs", "[[0.5, 0.5], 0.5]", _inhomogeneous("distribution", "probs")),
    ("probs", '[0.5, "0.5"]', _not_numbers("distribution", "probs", "str")),
    ("probs", "[0.5, null]", _not_numbers("distribution", "probs", "object")),
    ("probs", "[true, 0]", _not_numbers("distribution", "probs", "bool")),
    ("probs", "true", _not_numbers("distribution", "probs", "bool")),
    ("prior", "[[0.5, 0.5], [0.5]]", _inhomogeneous("model", "prior")),
    ("prior", "[[0.5], 0.5]", _inhomogeneous("model", "prior")),
    ("prior", '[0.5, "0.5"]', _not_numbers("model", "prior", "str")),
    ("prior", "[0.5, null]", _not_numbers("model", "prior", "object")),
    ("prior", "[true, 0]", _not_numbers("model", "prior", "bool")),
    ("prior", "true", _not_numbers("model", "prior", "bool")),
    ("likelihood", "[[[0.5, 0.5]], [[0.5]]]", f"malformed model JSON: {LAYOUT}; got ragged lists"),
    ("likelihood", "[[[0.5, 0.5]], [0.5]]", f"malformed model JSON: {LAYOUT}; got ragged lists"),
    ("likelihood", '[[[0.5, "0.5"]], [[0.5, 0.5]]]', _not_numbers("model", "likelihood", "str")),
    ("likelihood", "[[[0.5, null]], [[0.5, 0.5]]]", _not_numbers("model", "likelihood", "object")),
    ("likelihood", "[[[true, 0]], [[0.5, 0.5]]]", _not_numbers("model", "likelihood", "bool")),
    ("likelihood", "true", f"malformed model JSON: {LAYOUT}; the layout changed, and a mapping "
                           f"keyed by name is no longer read"),
], ids=[f"{key}-{case}" for key in ("probs", "prior", "likelihood")
        for case in ("ragged", "number-for-row", "string", "null", "true-among-0-1", "true")])
def test_refusal(tmp_path, key, text, message):
    with pytest.raises(MalformedInput) as refused:
        _load(tmp_path, key, text)
    assert str(refused.value) == message


# --- malformed documents at the command line -----------------------------------------------

OPTIONAL = {"initial", "acquisition", "batch_size", "steps", "seed", "noise_rate"}
WRONG_TYPES = (True, False, None, {"k": 1})  # no slot of any of the formats reads one of these
DROP = object()


def _slots(value, path=()):
    """(path, value) of the document ``value`` and of every value in it."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _slots(item, (*path, key))


def _set(doc, path, value=DROP):
    """A copy of ``doc`` with the value at ``path`` replaced by ``value``, or dropped."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _mutant(doc, rng: random.Random) -> tuple[str, bytes]:
    """One malformed variant of the JSON document ``doc`` and the mutation made: a
    required key dropped, a list entry or a key written twice (the second copy of
    another type), a value of another type, a list written as a string or a string
    as a list, a value nested in a list, or the bytes cut short."""
    slots = list(_slots(doc))
    op = rng.choice(["drop", "duplicate-entry", "duplicate-key", "retype", "list-to-string",
                     "string-to-list", "nest", "truncate"])
    if op == "drop":
        path = rng.choice([p for p, _ in slots if p and isinstance(p[-1], str)
                           and p[-1] not in OPTIONAL])
        mutant = _set(doc, path)
    elif op == "duplicate-entry":  # a pool of the same pair twice is a pool
        path, entries = rng.choice([(p, v) for p, v in slots if isinstance(v, list) and v
                                    and p not in {("pool",), ("eval",)}])
        i = rng.randrange(len(entries))
        mutant = _set(doc, path, entries[:i + 1] + entries[i:])
    elif op == "duplicate-key":  # orjson keeps the last copy of a key
        key, value = rng.choice(list(doc)), json.dumps(rng.choice(WRONG_TYPES))
        return f"{op} {key}", f'{json.dumps(doc)[:-1]}, "{key}": {value}}}'.encode()
    elif op == "retype":
        path, value = rng.choice(slots)
        mutant = _set(doc, path, rng.choice([t for t in WRONG_TYPES if type(t) is not type(value)]))
    elif op == "list-to-string":
        path = rng.choice([p for p, v in slots if isinstance(v, list)])
        mutant = _set(doc, path, "01")
    elif op == "string-to-list":
        path, value = rng.choice([(p, v) for p, v in slots if isinstance(v, str)])
        mutant = _set(doc, path, [value])
    elif op == "nest":  # probs may be written nested, so nesting probs whole is no fault
        path, value = rng.choice([(p, v) for p, v in slots if p != ("probs",)])
        mutant = _set(doc, path, [value])
    else:
        text = json.dumps(doc).encode()
        cut = rng.randrange(1, len(text))
        return f"{op} at {cut}", text[:cut]
    return f"{op} {list(path)}", json.dumps(mutant).encode()


def _documents(tmp_path):
    """For each file format, a valid document, the file its mutants are written to,
    and the command that reads that file."""
    model, pool, eval_set = threshold_task(4, 2)
    pairs = {"pool": [list(p) for p in pool], "eval": [list(p) for p in eval_set]}
    dist = {"variables": [{"name": "X", "support": ["0", "1"]},
                          {"name": "Y", "support": ["0", "1", "2"]}],
            "probs": [0.125, 0.125, 0.25, 0.25, 0.125, 0.125]}
    config = {"model": model.to_json_dict(), **pairs, "acquisition": "csd", "steps": 1}
    model_path, named = tmp_path / "model.json", tmp_path / "named.json"
    named.write_text(json.dumps({"model": str(model_path), **pairs, "steps": 1}))
    return [
        (dist, tmp_path / "dist.json", ["eval", "--dist", str(tmp_path / "dist.json"), "H[X|Y]"]),
        (model.to_json_dict(), model_path, ["sim", "--config", str(named)]),
        (config, tmp_path / "config.json", ["sim", "--config", str(tmp_path / "config.json")]),
    ]


def test_every_malformed_document_exits_2_with_one_error_line(tmp_path):
    rng = random.Random(37)
    escaped = []
    for doc, path, argv in _documents(tmp_path):
        path.write_text(json.dumps(doc))
        assert cli.main(argv) == 0  # the documents before mutation are valid
        for _ in range(80):
            mutation, text = _mutant(doc, rng)
            path.write_bytes(text)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # noqa: BLE001 - the escape is what is reported
                    code = f"{type(exc).__name__}: {exc}"
            lines = err.getvalue().splitlines()
            if not (code == 2 and out.getvalue() == "" and len(lines) == 1
                    and lines[0].startswith("error: ")):
                escaped.append(f"{path.name}, {mutation}: exit {code}, stderr {lines}")
    assert not escaped, "\n".join(escaped)
