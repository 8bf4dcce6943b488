"""One rule reads a position or a label at every entry point.

Each key of ``KEYS`` is given to each entry point of ``ENTRY_POINTS`` on a
support labelled ("1", "0"), where the label "1" is the position 0 and the
integer 1 the position 1.  An entry point must give the position that
``Variable.index_of`` gives, or raise the same type with the same message.
"""

import numpy as np
import pytest

from discinfo import quantities as qt
from discinfo.bayes import BayesModel, bald_scores, csd_table, label_entropy_table, posterior
from discinfo.dist import JointDistribution, Variable
from discinfo.errors import InvalidIndex
from discinfo.expr import evaluate, evaluate_stack
from discinfo.simulate import SimConfig

SUPPORT = ("1", "0")

KEYS = {
    "int": 1,
    "np.int64": np.int64(1),
    "0-d array": np.array(1),
    "label": "1",
    "bool": True,
    "float": 1.5,
    "out of range": 2,
    "unknown label": "7",
}

# every H[X|y] and H[Y|x] differs between the two outcomes, and so does every
# posterior, BALD score and csd column below between the two inputs or labels
D = JointDistribution((Variable("X", SUPPORT), Variable("Y", SUPPORT)), [[0.1, 0.2], [0.3, 0.4]])
M = BayesModel(("a", "b"), [0.5, 0.5], SUPPORT, SUPPORT,
               [[[0.9, 0.1], [0.3, 0.7]], [[0.2, 0.8], [0.6, 0.4]]])
POST = posterior(M, [])
TABLE = label_entropy_table(M)


def _stack_array(k):
    # one position per stack element: an array holds integers only
    key = k if isinstance(k, (str, bool, float)) else np.array([k])
    return evaluate_stack("H[X|y]", qt.Stack.of(D), bindings={"Y": key})[0]


# the variable each entry point reads the key as, and a call whose result tells the position
ENTRY_POINTS = {
    "Variable.index_of": ("Y", Variable("Y", SUPPORT).index_of),
    "evaluate bindings": ("Y", lambda k: evaluate("H[X|y]", D, bindings={"Y": k})),
    "evaluate bindings of X": ("X", lambda k: evaluate("H[Y|x]", D, bindings={"x": k})),
    "input_index": ("X", M.input_index),
    "label_index": ("Y", M.label_index),
    "posterior data, input": ("X", lambda k: posterior(M, [(k, "1")]).probs),
    "posterior data, label": ("Y", lambda k: posterior(M, [("1", k)]).probs),
    "SimConfig pool, input": ("X", lambda k: SimConfig(M, [(k, 0)], [(0, 0)]).pool),
    "SimConfig pool, label": ("Y", lambda k: SimConfig(M, [(0, k)], [(0, 0)]).pool),
    "bald_scores chosen": ("X", lambda k: bald_scores(M, POST, TABLE, chosen=[k])),
    "csd_table xs": ("X", lambda k: csd_table(M, [k], ["1"]).lik),
    "csd_table ys": ("Y", lambda k: csd_table(M, ["1"], [k]).lik),
    "evaluate_stack bindings": ("Y", lambda k: evaluate_stack("H[X|y]", qt.Stack.of(D),
                                                              bindings={"Y": k})[0]),
    "evaluate_stack array bindings": ("Y", _stack_array),
}


def _outcome(call, key):
    """The position in 0..1 whose result equals the key's, or the key's
    refusal as (type, message)."""
    try:
        got = call(key)
    except (ValueError, TypeError) as exc:  # the refusal is the outcome compared
        return type(exc), str(exc)
    positions = [p for p in range(len(SUPPORT)) if np.array_equal(call(p), got)]
    assert len(positions) == 1, positions
    return positions[0]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("key", KEYS)
def test_one_key_gives_one_outcome_everywhere(key, entry):
    variable, call = ENTRY_POINTS[entry]
    assert _outcome(call, KEYS[key]) == _outcome(Variable(variable, SUPPORT).index_of, KEYS[key])


def test_the_table_reads_as_written():
    # the label "1" is the first outcome and the integer 1 the second; the rest are refused
    want = {"int": 1, "np.int64": 1, "0-d array": 1, "label": 0}
    index_of = Variable("Y", SUPPORT).index_of
    got = {name: _outcome(index_of, key) for name, key in KEYS.items()}
    assert {name: got[name] for name in want} == want
    assert {name: got[name] for name in KEYS.keys() - want.keys()} == {
        "bool": (InvalidIndex, "outcome index True for variable 'Y' is not an integer"),
        "float": (InvalidIndex, "outcome index 1.5 for variable 'Y' is not an integer"),
        "out of range": (InvalidIndex, "outcome index 2 out of range for variable 'Y'"),
        "unknown label": (InvalidIndex, "'7' is not an outcome of variable 'Y'"),
    }
