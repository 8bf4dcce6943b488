"""Finite discrete joint distributions over named variables.

A :class:`JointDistribution` stores a dense probability tensor with one axis
per variable, in the order the variables were declared (row-major: the last
variable varies fastest in the flattened view).  Values are immutable after
construction -- each holds its own read-only copy of the cells it was given,
and every operation returns a new value -- so instances can be shared
between threads without locking.

Outcome labels are strings; all arithmetic is done on outcome indices, and
tied outcomes are a plain dict from variable name to outcome index.  Two
resolvers decide what a name and an outcome mean, and every entry point
calls them: :meth:`JointDistribution.index_of` matches a name without
regard to case, and :meth:`Variable.index_of` reads an integer as a
position and a string as a label.  Beyond
conditioning, the tensor algebra (a marginal, a product) is numpy on
``probs``, and a quantity beyond H and I an expression of :mod:`discinfo.expr`.
"""

from __future__ import annotations

import gc
import json
import math
import operator
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (InvalidIndex, MalformedInput, UnknownVariable, ZeroProbabilityEvent,
                     malformed_input)

DEFAULT_SEEDS = 500  # random cases per identity-search entry, also the CLI's --seeds default

# Every numerical threshold of the package, one name per decision.
SUM_TOLERANCE = 1e-9  # a total this close to 1 is accepted as normalized
RENORM_TOLERANCE = 1e-6  # a total this close to 1 is renormalized; further off is an error
ZERO_MASS = 1e-12  # conditioning on an event of at most this mass is an error
ZERO_CELL = 1e-15  # a cell at or below this is an exact zero for 0 * log 0
EQ_TOLERANCE = 1e-9  # slack of "==", "<=" and ">=", and of an identity that always holds
NEQ_GAP = 1e-6  # "!=" needs a larger gap, and so does a counterexample
CELL_FLOOR = 1e-3  # per-cell floor of the identity search's random distributions
WITNESS_SEPARATION = 1e-3  # the chaining witness's two sides differ by more than this
TIE_TOLERANCE = 1e-13  # acquisition scores this close (nats, absolute) to the best tie
MARGIN_SLACK = 1e-12  # stacked search margins this far below a threshold are re-checked alone


def _check_identifier(name: str) -> None:
    """A variable name must be one the notation can write: an ASCII letter,
    then ASCII letters, digits or ``_``."""
    if not isinstance(name, str) or not name:
        raise ValueError("variable name must be a non-empty string")
    if not (name.isascii() and name[0].isalpha() and name.replace("_", "a").isalnum()):
        raise ValueError(f"variable name {name!r}: not an ASCII letter, then letters, digits or _")


def name_key(name: str) -> str:
    """The key two names share when they name one variable: names match
    without regard to case."""
    return name.lower()


@dataclass(frozen=True)
class Variable:
    """A named finite random variable with an ordered outcome support.

    The support is a list (any iterable but a string) of labels; a label is
    a string, or an integer (Python or numpy, not a boolean), which is kept
    as its digits, so ``Variable("X", range(3))`` has the labels ``"0"``,
    ``"1"`` and ``"2"``."""

    name: str
    support: tuple[str, ...]

    def __post_init__(self):
        _check_identifier(self.name)
        if isinstance(self.support, str):
            raise ValueError(f"variable {self.name!r}: support {self.support!r} is a string, "
                             f"not a list of outcome labels")
        support = _labels(self.support, lambda label: ValueError(
            f"variable {self.name!r}: outcome label {label!r} is neither a string nor an integer"))
        if not support:
            raise ValueError(f"variable {self.name!r} needs at least one outcome")
        if len(set(support)) != len(support):
            raise ValueError(f"variable {self.name!r} has duplicate outcome labels")
        object.__setattr__(self, "support", support)

    @property
    def size(self) -> int:
        return len(self.support)

    def index_of(self, outcome) -> int:
        """The index of ``outcome``: the one resolver for one outcome, input
        or label.  An integer (Python or numpy, or a 0-d integer array; not
        a boolean) is a position, checked against the support; a string is
        a label, matched exactly.  Anything else, an array of outcomes
        included, is not an integer.  Each refusal is :class:`InvalidIndex`."""
        if isinstance(outcome, str):
            try:
                return self.support.index(outcome)
            except ValueError:
                raise InvalidIndex(f"{outcome!r} is not an outcome of variable "
                                   f"{self.name!r}") from None
        try:
            idx = integer(outcome, "outcome index")
        except ValueError:
            raise InvalidIndex(f"outcome index {outcome!r} for variable {self.name!r} "
                               f"is not an integer") from None
        if not 0 <= idx < len(self.support):
            raise InvalidIndex(f"outcome index {idx} out of range for variable {self.name!r}")
        return idx

    def positions(self, array: np.ndarray) -> np.ndarray:
        """The 1-D integer ``array``, checked in one pass: its first entry out
        of range is refused as :meth:`index_of` refuses it."""
        if len(array) and not (np.minimum.reduce(array) >= 0
                               and np.maximum.reduce(array) < len(self.support)):
            self.index_of(array[((array < 0) | (array >= len(self.support))).argmax()])
        return array


def _validated_variables(variables) -> tuple[Variable, ...]:
    variables = tuple(v if isinstance(v, Variable) else Variable(*v) for v in variables)
    if not variables:
        raise ValueError("a distribution needs at least one variable")
    names = [v.name for v in variables]
    if len(set(map(name_key, names))) != len(names):  # one identifier would name two
        raise ValueError(f"duplicate variable names (equal up to case): {names}")
    return variables


class _Axes:
    """A value with one axis per variable of ``variables``, each variable
    named once up to case.  :meth:`index_of` is the one resolver for a
    variable name."""

    __slots__ = ()

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def index_of(self, name: str) -> int:
        """The axis of the variable ``name`` names, matched without regard
        to case (see :func:`name_key`), else :class:`UnknownVariable`."""
        if isinstance(name, str):
            key = name_key(name)
            for i, v in enumerate(self.variables):
                if name_key(v.name) == key:
                    return i
        raise UnknownVariable(f"no variable matches identifier {name!r}")

    def variable(self, name: str) -> Variable:
        return self.variables[self.index_of(name)]


def _own_cells(obj, values, what: str) -> np.ndarray:
    """Set ``obj``'s validated variables on it and return its cells: a float
    copy of ``values`` with one axis per variable, each cell finite and
    non-negative, so no later write to ``values`` reaches ``obj``."""
    variables = _validated_variables(obj.variables)
    object.__setattr__(obj, "variables", variables)
    shape = tuple(v.size for v in variables)
    cells, n_cells = np.array(values, dtype=float, order="C"), math.prod(shape)
    if cells.size != n_cells:
        raise ValueError(f"expected {n_cells} cells for shape {shape}, got {cells.size}")
    cells = cells.reshape(shape)
    if not (cells.min() >= 0 and cells.max() < math.inf):  # a NaN fails too
        raise ValueError(f"{what} must be finite and non-negative")
    return cells


@dataclass(frozen=True, eq=False)
class JointDistribution(_Axes):
    """A normalized dense joint distribution.

    ``probs`` may be passed flat or shaped; it is copied, validated
    (non-negative, sums to one within ``SUM_TOLERANCE``) and stored read-only
    with one axis per variable.  Inputs within ``RENORM_TOLERANCE`` of
    normalized are divided by their sum and the value is flagged
    ``renormalized``.
    """

    variables: tuple[Variable, ...]
    probs: np.ndarray
    renormalized: bool = field(init=False)

    def __post_init__(self):
        probs = _own_cells(self, self.probs, "probabilities")
        total = float(probs.sum())
        renormalized = abs(total - 1.0) > SUM_TOLERANCE
        if renormalized:
            if abs(total - 1.0) > RENORM_TOLERANCE:
                raise ValueError(f"probabilities sum to {total!r}, not 1")
            probs /= total
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "renormalized", renormalized)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probs.shape

    def to_json_dict(self) -> dict:
        return {
            "variables": [
                {"name": v.name, "support": list(v.support)} for v in self.variables
            ],
            "probs": [float(x) for x in self.probs.ravel()],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "JointDistribution":
        with malformed_input("distribution"):
            known_keys(doc, ("variables", "probs"), "distribution")
            for v in doc["variables"]:
                known_keys(v, ("name", "support"), "distribution", " in a variable entry")
            variables = [Variable(v["name"], names_of(v["support"], "distribution", "support"))
                         for v in doc["variables"]]
            probs = number_array(doc["probs"], "distribution", "probs")
        return cls(tuple(variables), probs)


@dataclass(frozen=True, eq=False)
class UnnormalizedWeight(_Axes):
    """A non-negative weight tensor with the same layout as a distribution
    and a positive total mass.  As the q side of a cross-entropy its mass
    counts: doubling every weight lowers ``CE[p(X) || q(X)]`` by log 2."""

    variables: tuple[Variable, ...]
    weights: np.ndarray

    def __post_init__(self):
        weights = _own_cells(self, self.weights, "weights")
        if float(weights.sum()) <= 0:
            raise ValueError("total mass must be positive")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)


def checked_bindings(d, bindings, q=None, read=Variable.index_of) -> dict:
    """``bindings``, a mapping or a list of (name, outcome) pairs, as a dict
    keyed by the name of the variable of ``d`` (or, for a name ``d`` lacks,
    of ``q``) that each name names, each outcome read by ``read``:
    :meth:`Variable.index_of`, or evaluate_stack's reader of arrays.  A
    variable bound twice, however its names are spelled, is a ValueError,
    and so is an entry of the list that is not a pair."""
    out = {}
    for pair in bindings.items() if isinstance(bindings, Mapping) else bindings:
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            raise ValueError(f"bindings must be a mapping or a list of (name, outcome) pairs, "
                             f"not hold {pair!r}")
        name, outcome = pair
        try:
            var = d.variable(name)
        except UnknownVariable:
            if q is None:
                raise
            var = q.variable(name)
        if var.name in out:
            raise ValueError(f"bindings name variable {var.name!r} more than once")
        out[var.name] = read(var, outcome)
    return out


def integer(value, what: str) -> int:
    """``value`` as an int: a float is refused, not truncated, and a boolean
    (Python or numpy) is refused, not read as 0 or 1, with a ValueError
    saying that ``what`` is not an integer."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} is not an integer")


def condition(d: JointDistribution, bindings) -> JointDistribution:
    """Condition on tied outcomes, ``bindings`` mapping variable names to
    outcomes (see :func:`checked_bindings`); returns a distribution over the
    unbound variables.

    Raises :class:`ZeroProbabilityEvent` if the assigned slice has mass at or
    below ``ZERO_MASS``.
    """
    bound = checked_bindings(d, bindings)
    if len(bound) >= len(d.variables):
        raise ValueError("conditioning must leave at least one variable free")
    ix = tuple(bound.get(v.name, slice(None)) for v in d.variables)
    slice_probs = d.probs[ix]
    mass = float(slice_probs.sum())
    if mass <= ZERO_MASS:
        raise ZeroProbabilityEvent(
            f"conditioning event {bound} has probability {mass!r}"
        )
    kept = tuple(v for v in d.variables if v.name not in bound)
    return JointDistribution(kept, slice_probs / mass)


def known_keys(doc: dict, keys, what: str, where: str = "") -> None:
    """Raise :class:`MalformedInput` naming the first key of the ``what``
    document (or of its part ``where``) that is not one of ``keys``."""
    for key in doc.keys():
        if key not in keys:
            raise MalformedInput(f"malformed {what} JSON: unknown key {key!r}{where}")


def names_of(values, what: str, key: str) -> tuple[str, ...]:
    """The names or outcome labels ``values``, the list under ``key`` of the
    ``what`` document, as strings, an integer as its digits.  Anything else
    is :class:`MalformedInput`: a string or any other non-list in place of
    the list, and an entry that is neither a string nor an integer (a
    boolean, null, a list, an object, or a float, as which :func:`read_json`
    hands over an integer outside [-2**63, 2**64), its digits lost)."""
    if not isinstance(values, (list, tuple)):
        raise MalformedInput(f"malformed {what} JSON: {key} must be a list, not "
                             f"{_json_shown(values)}")
    return _labels(values, lambda value: MalformedInput(
        f"malformed {what} JSON: {key} holds {_json_shown(value)}; "
        f"a name is a string or an integer in [-2**63, 2**64)"))


def _labels(values, refusal) -> tuple[str, ...]:
    """The labels ``values`` as strings, an integer (Python or numpy, not a boolean) as
    its digits, read once; the first that is neither raises ``refusal(value)``."""
    values = tuple(values)
    if set(map(type, values)) <= {str}:
        return values
    for value in values:
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, (str, int, np.integer)):
            raise refusal(value)
    return tuple(map(str, values))


_JSON_KINDS = {str: "a string", int: "an integer", float: "a number", dict: "an object",
               list: "a list", tuple: "a list"}


def _json_shown(value) -> str:
    """``value`` for an error message: null, true or false, else its JSON type
    and the start of its repr, at most 60 characters of it, so that a large
    document put in the wrong place is not written out whole."""
    import reprlib

    if value is None or isinstance(value, bool):
        return json.dumps(value)
    text = reprlib.repr(value)
    kind = _JSON_KINDS.get(type(value), f"a {type(value).__name__}")
    return f"{kind} {text if len(text) <= 60 else text[:57] + '...'}"


def number_array(value, what: str, key: str, layout: str = "") -> np.ndarray:
    """``value`` (a JSON number or nested lists) as one float array, read in
    one pass: each level of lists is checked where it is met (every entry a
    list, all of one length) and flattened, then the numbers are converted in
    one call.  Raises :class:`MalformedInput` naming the ``what`` document and
    its ``key`` when the lists are ragged (stating ``layout`` instead, if
    given) or hold strings, booleans or None."""
    entries, shape = (value, [len(value)]) if isinstance(value, (list, tuple)) else ([value], [])
    try:
        while entries and isinstance(entries[0], (list, tuple)):
            n = len(entries[0])
            if not (set(map(type, entries)) <= {list, tuple}
                    and list(map(len, entries)).count(n) == len(entries)):
                raise TypeError("ragged lists")
            shape.append(n)
            entries = list(chain.from_iterable(entries))
        cells = np.frombuffer(struct.pack(f"{len(entries)}d", *entries)).reshape(shape)
    except (TypeError, struct.error):
        kinds = set(map(type, entries))
        if kinds & {list, tuple}:  # a list of another length, or where a number belongs
            detail = (f"{layout}; got ragged lists" if layout else
                      f"{key}: setting an array element with a sequence. The requested array "
                      f"has an inhomogeneous shape after {len(shape)} dimensions. The detected "
                      f"shape was {tuple(shape)} + inhomogeneous part.")
        else:
            kind = "str" if str in kinds and kinds <= {str, int, float, bool} else "object"
            detail = f"{key} must hold numbers, not {kind} values"
        raise MalformedInput(f"malformed {what} JSON: {detail}") from None
    # beside numbers, true and false become 1 and 0, so only then look at each entry
    if ((cells == 0) | (cells == 1)).any() and bool in set(map(type, entries)):
        raise MalformedInput(f"malformed {what} JSON: {key} must hold numbers, not bool values")
    return cells


def read_json(path, what: str, build):
    """``build(document)`` for the JSON document in the file at ``path``;
    ``what`` names its kind (a distribution, a model, a simulation config)
    in errors.

    orjson parses the file's bytes to the values :mod:`json` gives, with two
    differences.  A ``NaN`` or ``Infinity`` literal, a number beyond the
    float range, invalid UTF-8, a byte order mark or a lone surrogate escape
    is :class:`MalformedInput`.  An integer outside [-2**63, 2**64) arrives
    as a float, so the readers refuse a float wherever they would use its
    digits.  orjson is imported on the first call: a run that reads no file
    never loads it.

    The cyclic garbage collector is paused while orjson decodes and
    ``build`` runs: a model holds one list per likelihood row, and the
    collector's passes over them would cost more than the decode.  Built
    under the pause, the document is freed before any pass sees it.  The
    pause is process-wide; the collector is switched back on afterwards
    only if it was on before.
    """
    import orjson

    with open(path, "rb") as fh:
        data = fh.read()
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = orjson.loads(data)
        except orjson.JSONDecodeError as exc:
            raise MalformedInput(f"malformed {what} JSON: {exc}") from None
        return build(doc)
    finally:
        if collecting:
            gc.enable()


def load_distribution(path) -> JointDistribution:
    return read_json(path, "distribution", JointDistribution.from_json_dict)


def write_json(path, doc) -> None:
    """Write ``doc`` to the file at ``path`` as JSON, indented by 2, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def dump_distribution(d: JointDistribution, path) -> None:
    write_json(path, d.to_json_dict())
