"""Finite discrete joint distributions over named variables.

A :class:`JointDistribution` stores a dense probability tensor with one axis
per variable, in the order the variables were declared (row-major: the last
variable varies fastest in the flattened view).  Values are immutable after
construction -- tensors are marked read-only and every operation returns a
new value -- so instances can be shared between threads without locking.

Outcome labels are strings; all arithmetic is done on outcome indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroProbabilityEvent, malformed_input

DEFAULT_MAX_CELLS = 2**22
DEFAULT_SEEDS = 500  # random cases per identity-search entry, also the CLI's --seeds default

# Every numerical threshold of the package, one name per decision.
SUM_TOLERANCE = 1e-9  # a total this close to 1 is accepted as normalized
RENORM_TOLERANCE = 1e-6  # a total this close to 1 is renormalized; further off is an error
Z_RELATIVE_TOLERANCE = 1e-9  # declared total mass vs. actual cell sum, relative
ZERO_MASS = 1e-12  # conditioning on an event of at most this mass is an error
ZERO_CELL = 1e-15  # a cell at or below this is an exact zero for 0 * log 0
EQ_TOLERANCE = 1e-9  # slack of "==", "<=" and ">=", and of an identity that always holds
NEQ_GAP = 1e-6  # "!=" needs a larger gap, and so does a counterexample
CELL_FLOOR = 1e-3  # per-cell floor of the identity search's random distributions
WITNESS_SEPARATION = 1e-3  # the chaining witness's two sides differ by more than this
TIE_TOLERANCE = 1e-13  # acquisition scores this close (nats, absolute) to the best tie


def _check_identifier(name: str) -> None:
    """A variable name must be one the notation can write: an ASCII letter,
    then ASCII letters, digits or ``_``."""
    if not isinstance(name, str) or not name:
        raise ValueError("variable name must be a non-empty string")
    if not (name.isascii() and name[0].isalpha() and name.replace("_", "a").isalnum()):
        raise ValueError(f"variable name {name!r}: not an ASCII letter, then letters, digits or _")


@dataclass(frozen=True)
class Variable:
    """A named finite random variable with an ordered outcome support."""

    name: str
    support: tuple[str, ...]

    def __post_init__(self):
        _check_identifier(self.name)
        support = tuple(str(s) for s in self.support)
        if not support:
            raise ValueError(f"variable {self.name!r} needs at least one outcome")
        if len(set(support)) != len(support):
            raise ValueError(f"variable {self.name!r} has duplicate outcome labels")
        object.__setattr__(self, "support", support)

    @property
    def size(self) -> int:
        return len(self.support)

    def index_of(self, label: str) -> int:
        """Resolve an outcome label (or a decimal index string) to an index."""
        label = str(label)
        if label in self.support:
            return self.support.index(label)
        if label.lstrip("-").isdigit():
            idx = int(label)
            if 0 <= idx < self.size:
                return idx
        raise ValueError(f"{label!r} is not an outcome of variable {self.name!r}")


def _validated_variables(variables) -> tuple[Variable, ...]:
    variables = tuple(
        v if isinstance(v, Variable) else Variable(v[0], tuple(v[1])) for v in variables
    )
    if not variables:
        raise ValueError("a distribution needs at least one variable")
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names: {names}")
    return variables


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A normalized dense joint distribution.

    ``probs`` may be passed flat or shaped; it is validated (non-negative,
    sums to one within ``SUM_TOLERANCE``) and stored read-only with one axis
    per variable.  Inputs within ``RENORM_TOLERANCE`` of normalized are
    divided by their sum and the value is flagged ``renormalized``.
    """

    variables: tuple[Variable, ...]
    probs: np.ndarray
    renormalized: bool = False
    max_cells: int = field(default=DEFAULT_MAX_CELLS, repr=False, compare=False)

    def __post_init__(self):
        variables = _validated_variables(self.variables)
        object.__setattr__(self, "variables", variables)
        shape = tuple(v.size for v in variables)
        n_cells = int(np.prod(shape))
        if n_cells > self.max_cells:
            raise ValueError(
                f"distribution has {n_cells} cells, more than the cap of "
                f"{self.max_cells}; raise max_cells explicitly if intended"
            )
        probs = np.asarray(self.probs, dtype=float)
        if probs.size != n_cells:
            raise ValueError(
                f"expected {n_cells} cells for shape {shape}, got {probs.size}"
            )
        probs = probs.reshape(shape)
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite and non-negative")
        total = float(probs.sum())
        renormalized = self.renormalized
        if abs(total - 1.0) > SUM_TOLERANCE:
            if abs(total - 1.0) <= RENORM_TOLERANCE:
                probs = probs / total
                renormalized = True
            else:
                raise ValueError(f"probabilities sum to {total!r}, not 1")
        probs = np.ascontiguousarray(probs)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "renormalized", renormalized)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probs.shape

    def index_of(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise KeyError(f"no variable named {name!r}")

    def variable(self, name: str) -> Variable:
        return self.variables[self.index_of(name)]

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
            variables = [Variable(v["name"], tuple(v["support"])) for v in doc["variables"]]
            probs = np.asarray(doc["probs"], dtype=float)
        return cls(tuple(variables), probs)


@dataclass(frozen=True, eq=False)
class UnnormalizedWeight:
    """A non-negative weight tensor with the same layout as a distribution.

    ``z`` is the total mass; if supplied it must match the cell sum to
    ``Z_RELATIVE_TOLERANCE`` relative.
    """

    variables: tuple[Variable, ...]
    weights: np.ndarray
    z: float | None = None

    def __post_init__(self):
        variables = _validated_variables(self.variables)
        object.__setattr__(self, "variables", variables)
        shape = tuple(v.size for v in variables)
        weights = np.asarray(self.weights, dtype=float).reshape(shape)
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("total mass must be positive")
        if self.z is not None:
            declared = float(self.z)
            if abs(declared - total) > Z_RELATIVE_TOLERANCE * max(abs(declared), total):
                raise ValueError(
                    f"declared total mass {declared!r} does not match cell sum {total!r}"
                )
        weights = np.ascontiguousarray(weights)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "z", total)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def normalize(self) -> JointDistribution:
        return JointDistribution(self.variables, self.weights / self.z)


@dataclass(frozen=True)
class Assignment:
    """A mapping from variable names to outcome indices (tied outcomes)."""

    bindings: tuple[tuple[str, int], ...]

    def __post_init__(self):
        items = self.bindings
        if isinstance(items, dict):
            items = items.items()
        pairs = tuple(sorted((str(n), int(i)) for n, i in items))
        names = [n for n, _ in pairs]
        if len(set(names)) != len(names):
            raise ValueError("a variable may be bound at most once")
        object.__setattr__(self, "bindings", pairs)

    @classmethod
    def from_labels(cls, d: JointDistribution, labels: dict) -> "Assignment":
        """Build an assignment from outcome labels against a distribution."""
        pairs = {}
        for name, label in labels.items():
            v = d.variable(name)
            pairs[name] = v.index_of(label)
        return cls(tuple(pairs.items()))

    def as_dict(self) -> dict[str, int]:
        return dict(self.bindings)

    def validate_against(self, d: JointDistribution) -> None:
        for name, idx in self.bindings:
            v = d.variable(name)  # raises KeyError for unknown names
            if not 0 <= idx < v.size:
                raise ValueError(
                    f"outcome index {idx} out of range for variable {name!r}"
                )


def _coerce_assignment(a) -> Assignment:
    if isinstance(a, Assignment):
        return a
    return Assignment(tuple(dict(a).items()))


def marginalize(d: JointDistribution, keep) -> JointDistribution:
    """Sum out every variable not in ``keep``; variable order is preserved."""
    keep = set(keep)
    if not keep:
        raise ValueError("keep must name at least one variable")
    names = set(d.names)
    unknown = keep - names
    if unknown:
        raise KeyError(f"unknown variable(s): {sorted(unknown)}")
    drop = tuple(i for i, v in enumerate(d.variables) if v.name not in keep)
    kept = tuple(v for v in d.variables if v.name in keep)
    probs = d.probs.sum(axis=drop) if drop else d.probs
    return JointDistribution(kept, probs)


def condition(d: JointDistribution, assignment) -> JointDistribution:
    """Condition on tied outcomes; returns a distribution over unbound variables.

    Raises :class:`ZeroProbabilityEvent` if the assigned slice has mass at or
    below ``ZERO_MASS``.
    """
    a = _coerce_assignment(assignment)
    a.validate_against(d)
    bound = a.as_dict()
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


def product(d1: JointDistribution, d2: JointDistribution) -> JointDistribution:
    """Independent product; variable names must be disjoint."""
    overlap = set(d1.names) & set(d2.names)
    if overlap:
        raise ValueError(f"variable name collision: {sorted(overlap)}")
    probs = np.multiply.outer(d1.probs, d2.probs)
    return JointDistribution(d1.variables + d2.variables, probs)


def prob_of(d: JointDistribution, assignment) -> float:
    """Marginal probability of a (possibly partial) assignment."""
    a = _coerce_assignment(assignment)
    a.validate_against(d)
    bound = a.as_dict()
    ix = tuple(bound.get(v.name, slice(None)) for v in d.variables)
    return float(np.sum(d.probs[ix]))


def scale(q, alpha: float) -> UnnormalizedWeight:
    """Multiply every cell of a distribution or weight by ``alpha`` > 0."""
    if alpha <= 0:
        raise ValueError("scale factor must be positive")
    return UnnormalizedWeight(q.variables, _tensor_of(q) * float(alpha))


def power(q, alpha: float) -> UnnormalizedWeight:
    """Raise every cell of a distribution or weight to the power ``alpha``."""
    return UnnormalizedWeight(q.variables, _tensor_of(q) ** float(alpha))


def _tensor_of(obj) -> np.ndarray:
    if isinstance(obj, JointDistribution):
        return obj.probs
    if isinstance(obj, UnnormalizedWeight):
        return obj.weights
    raise TypeError(f"expected a JointDistribution or UnnormalizedWeight, got {type(obj)!r}")


def load_distribution(path) -> JointDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        return JointDistribution.from_json_dict(json.load(fh))


def dump_distribution(d: JointDistribution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d.to_json_dict(), fh, indent=2)
        fh.write("\n")
