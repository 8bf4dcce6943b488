"""Exact information functionals on finite joint distributions.

Every functional here is an expectation of an information content, with
support for *tied* variables (fixed to an observed outcome) next to
*untied* ones (averaged over).  The semantics are uniform:

* the expectation runs over the untied variables, conditioned on **all**
  tied outcomes (head side and conditioning side alike);
* the information content argument is the head given the conditioning side,
  evaluated at the sampled / tied outcomes.

For example, with head ``(X, y)`` and conditioning side ``(Z, w)``::

    sum_{x,z} p(x, z | y, w) * IC( p(x, y | z, w) )

Terms contribute zero whenever their expectation weight is zero (the
``0 * log 0 == 0`` convention; cells at or below ``ZERO_CELL`` count as
exact zeros).  Tying to an outcome combination of zero probability raises
:class:`~discinfo.errors.ZeroProbabilityEvent`.

The one kernel, :func:`_expected_ic_nats`, evaluates a whole
:class:`Stack` of same-shape distributions at once, with tied outcomes
that may differ per element, and marks the elements it cannot evaluate
instead of raising.  The two term-list functions, :func:`entropy` and
:func:`mutual_info`, are its calls on a stack of one, and raise the error
the mark names.  Every other quantity -- cross-entropy, KL divergence,
triple mutual information, expectations -- is written in the notation and
evaluated on the same kernel by :func:`discinfo.expr.evaluate`:
``CE[p(X|Y) || q(X|Y)]``, ``KL[p(X) || q(X)]``, ``I[X; Y; Z]``,
``E_{p(x|y)}[H[x]]``.

All functions are pure and operate on immutable values, so concurrent use
needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dist import (ZERO_CELL, ZERO_MASS, JointDistribution, UnnormalizedWeight, _Axes,
                   _validated_variables)
from .errors import NonPositiveProbability, SupportMismatch, UnknownVariable, ZeroProbabilityEvent

_LN2 = math.log(2.0)


class LogBase(Enum):
    """Logarithm base for reported values; everything internal is in nats."""

    NATS = "nats"
    BITS = "bits"

    def from_nats(self, value: float) -> float:
        return value if self is LogBase.NATS else value / _LN2


@dataclass(frozen=True)
class Term:
    """One variable reference in a query: untied, or tied to an outcome index
    (or, over a stack, to an array of one outcome index per element)."""

    name: str
    outcome: int | np.ndarray | None = None

    @property
    def tied(self) -> bool:
        return self.outcome is not None


def _term(spec) -> Term:
    """A name, a (name, outcome) pair or a Term, as a Term, unresolved."""
    return spec if isinstance(spec, Term) else Term(spec) if isinstance(spec, str) else Term(*spec)


def as_terms(s: "Stack", specs) -> tuple[Term, ...]:
    """``specs`` (names, (name, outcome) pairs or Terms) as Terms of the
    stack ``s``: each name resolved by :meth:`Stack.index_of`, each outcome
    by :meth:`~discinfo.dist.Variable.index_of`."""
    out = []
    for t in map(_term, specs):
        var = s.variable(t.name)
        out.append(Term(var.name, None if t.outcome is None else var.index_of(t.outcome)))
    return tuple(out)


def information_content(rho: float, base: LogBase = LogBase.NATS) -> float:
    """The code length -log(rho) of an event with probability (or mass) rho."""
    rho = float(rho)
    if rho <= 0:
        raise NonPositiveProbability(f"information content undefined for {rho!r}")
    return base.from_nats(-math.log(rho))


def _plogq(p: np.ndarray, q=None, floor=ZERO_CELL, *, positive=False, out=None):
    """The terms of :func:`plogq`, into ``out`` (p's shape) if given, and the
    mask of the cells where q is not positive under p's mass (None when there
    is no such cell); those cells' terms are 0.  A cell of p at or below
    ``floor`` (at most ``ZERO_CELL``, broadcasting against p) is a 0 * log 0
    cell.  ``positive`` tells that p has no such cell, sparing the scan."""
    # no 0 * log 0 cell
    if positive or np.minimum.reduce(p, axis=None, initial=np.inf) > ZERO_CELL:
        if q is None:
            out = np.log(p, out=out)
            out *= p
            return out, None
        if np.minimum.reduce(q, axis=None, initial=np.inf) > 0:  # a NaN fails too
            if out is None:
                return np.log(q) * p, None
            return np.multiply(np.log(q, out=out), p, out=out), None
    if out is None:
        out = np.where(p > floor, p if q is None else q, 1.0)
    else:  # putmask runs several times faster than a copyto with where=
        np.copyto(out, p if q is None else q)
        np.putmask(out, ~(p > floor), 1.0)
    bad = None
    if q is not None:
        ok = out > 0  # a NaN fails too
        if not np.logical_and.reduce(ok, axis=None):
            bad = ~ok
            out[bad] = 1.0
    np.log(out, out=out)
    out *= p
    return out, bad


def plogq(p: np.ndarray, q=None) -> np.ndarray:
    """The terms p * log q elementwise, whose negated sum is a cross-entropy;
    ``q`` defaults to ``p`` (the terms of an entropy) and broadcasts
    against it.

    A cell of ``p`` at or below ``ZERO_CELL`` contributes an exact zero
    (0 * log 0 == 0), whatever q is there.  Elsewhere q must be positive,
    or :class:`SupportMismatch` is raised.
    """
    out, bad = _plogq(p, q)
    if bad is not None:
        raise SupportMismatch(_SUPPORT_MESSAGE)
    return out


# Why an element of a stack has no value: the error a one-case call raises.
ZERO_PROBABILITY = 1
SUPPORT_MISMATCH = 2
DEFINED = np.zeros(1, dtype=np.int8)
DEFINED.setflags(write=False)
_ALL = slice(None)
# the ufuncs' own reductions: an array's sum() and any() go through numpy's Python wrappers
_sum = np.add.reduce
_any = np.logical_or.reduce
_SUPPORT_MESSAGE = "q is zero (or undefined) at an outcome where p has positive mass"


class Stack(_Axes):
    """Same-shape tensors over one set of variables, with a leading batch axis.

    ``tensor`` has shape ``(rows, *shape)``.  Element ``i`` of the stack is
    ``tensor[rows[i]]``, or ``tensor[i]`` when ``rows`` is None.  A stack of
    one broadcasts against stacks of any length.  ``weight`` marks
    unnormalized weights.  Names equal up to case are refused, as for a
    distribution, and :meth:`index_of` resolves a name.
    """

    __slots__ = ("variables", "names", "tensor", "rows", "weight")

    def __init__(self, variables, tensor, rows=None, weight=False):
        self.variables = _validated_variables(variables)
        self.names = tuple([v.name for v in self.variables])
        self.tensor = tensor
        self.rows = rows
        self.weight = weight

    @classmethod
    def of(cls, d) -> "Stack":
        """The stack of one holding a distribution or weight."""
        if isinstance(d, JointDistribution):
            return cls(d.variables, d.probs[None])
        if isinstance(d, UnnormalizedWeight):
            return cls(d.variables, d.weights[None], weight=True)
        raise TypeError(f"expected a JointDistribution or UnnormalizedWeight, got {type(d)!r}")

    def __len__(self) -> int:
        return len(self.tensor) if self.rows is None else len(self.rows)

    def take(self, elements) -> "Stack":
        """The stack of the given elements, on this stack's checked variables."""
        if self.rows is not None:
            rows = self.rows[elements]
        elif len(self.tensor) > 1:
            rows = elements
        else:
            return self
        taken = object.__new__(Stack)
        taken.variables, taken.names, taken.tensor = self.variables, self.names, self.tensor
        taken.rows, taken.weight = rows, self.weight
        return taken


def first_undefined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise, the first of two undefined codes that is set (0 if none):
    an evaluation reports the error it meets first."""
    if a is DEFINED or not _any(a, axis=None):
        return b
    if b is DEFINED or not _any(b, axis=None):
        return a
    return np.where(a != 0, a, b)


def one_value(values: np.ndarray, undefined: np.ndarray, *term_lists):
    """The value of a stack of one, or the error that leaves it undefined;
    the terms name the tied outcomes in the error message."""
    if undefined is DEFINED:
        return values.item()
    if undefined[0] == ZERO_PROBABILITY:
        tied = {t.name: t.outcome for terms in term_lists for t in map(_term, terms) if t.tied}
        what = f"tied outcomes {tied}" if tied else "the tied outcomes"
        raise ZeroProbabilityEvent(f"{what} have probability at most {ZERO_MASS!r}")
    raise SupportMismatch(_SUPPORT_MESSAGE)


def _subtensor(names, tensor, wanted):
    """Marginal of ``tensor`` (a batch axis, then one axis per entry of
    ``names``) onto the ``wanted`` names, keeping the axis order of ``names``."""
    wanted = set(wanted)
    drop = tuple(1 + i for i, n in enumerate(names) if n not in wanted)
    kept = [n for n in names if n in wanted]
    return (_sum(tensor, axis=drop) if drop else tensor), kept


def gather(tensor, names, at: dict, rows=None):
    """``tensor`` (a batch axis, then one axis per name) at the outcomes
    ``at`` (name -> outcome index, or one index per stack element), for each
    element; ``rows`` picks each element's batch row.  The named axes in
    ``at`` are indexed away; the others keep their order."""
    if rows is None and not at:
        return tensor
    ix = [at.get(n, _ALL) for n in names]
    if rows is None and any(type(o) is np.ndarray for o in at.values()):
        rows = np.arange(len(tensor)) if len(tensor) > 1 else 0
    return tensor[(_ALL if rows is None else rows, *ix)]


def _check_terms(terms) -> None:
    """Each name once; the public calls resolved each name, and checked each
    tie's range or made it from the stack's own outcomes."""
    names = [t.name for t in terms]
    if len(set(names)) != len(names):
        raise ValueError(f"a variable may appear only once per query: {names}")


def _expected_ic_nats(p: Stack, q: Stack, p_head, p_given, q_head=None, q_given=None):
    """E over p(p_head, p_given) of -log q(q_head | q_given), in nats, for
    every element of the stacks at once.

    The one information kernel: every quantity of this module is this
    expectation or a difference of two.  The expectation runs over the
    untied p-side variables conditioned on every p-side tie.  A tie is an
    outcome index, or an array with one index per element.  The q sides
    default to the p sides; a q-side term takes its own tie, else a p-side
    tie of that name, else the expectation point.  With ``q is p`` and the
    default q sides it is the entropy of p_head given p_given.

    Returns ``(values, undefined)``, arrays of the stack length (1 when
    nothing varies per element).  ``undefined`` is 0 where the value is
    defined, ``ZERO_PROBABILITY`` where the p-side ties have mass at most
    ``ZERO_MASS``, and else ``SUPPORT_MISMATCH`` where q is not positive
    under p's mass; the value is NaN there.
    """
    p_head, p_given = tuple(map(_term, p_head)), tuple(map(_term, p_given))
    same_sides = q_head is None and q_given is None
    q_head = p_head if q_head is None else tuple(map(_term, q_head))
    q_given = p_given if q_given is None else tuple(map(_term, q_given))
    if not p_head or not q_head:
        raise ValueError("an information query needs head terms on both sides")
    p_terms, q_terms = p_head + p_given, q_head + q_given
    _check_terms(p_terms)
    tensor, kept = _subtensor(p.names, p.tensor, [t.name for t in p_terms])
    tied = {t.name: t.outcome for t in p_terms if t.outcome is not None}
    if same_sides and q is p:
        fixed = tied
    else:
        _check_terms(q_terms)
        fixed = {}
        for t in q_terms:
            if t.outcome is not None:
                fixed[t.name] = t.outcome
            elif t.name in tied:
                fixed[t.name] = tied[t.name]
            elif t.name not in kept:
                raise UnknownVariable(
                    f"q-side variable {t.name!r} is neither tied nor part of the "
                    f"left-hand measure"
                )

    joint = gather(tensor, kept, tied, p.rows)
    untied = [n for n in kept if n not in tied]
    mass = _sum(joint.reshape(len(joint), -1), axis=1)
    from_p = q is p and all(t.name in kept for t in q_terms)

    def q_marginal(names):
        """q's marginal on ``names`` at the expectation points, one axis per
        untied p-side name (a unit axis where q has none); when q is p, it
        is summed from the p-side subtensor in hand."""
        if from_p:
            drop = tuple(1 + i for i, n in enumerate(kept) if n not in names)
            arr = _sum(tensor, axis=drop) if drop else tensor
            arr_names, rows = [n for n in kept if n in names], p.rows
        else:
            arr, arr_names = _subtensor(q.names, q.tensor, names)
            rows = q.rows
        arr = gather(arr, arr_names, {n: fixed[n] for n in arr_names if n in fixed}, rows)
        left = [n for n in arr_names if n not in fixed]
        order = [n for n in untied if n in left]
        if order != left:
            arr = arr.transpose([0] + [1 + left.index(n) for n in order])
        if len(order) != len(untied):
            arr = arr.reshape([len(arr)] + [arr.shape[1 + order.index(n)] if n in order else 1
                                            for n in untied])
        return arr

    # with q = p on the p sides, the numerator is the tied slice itself
    values = joint if same_sides and q is p else q_marginal({t.name for t in q_terms})
    if q_given:
        values = _divide(values, q_marginal({t.name for t in q_given}))
    zero = None
    if np.minimum.reduce(mass) <= ZERO_MASS:
        zero = mass <= ZERO_MASS
        mass = np.where(zero, 1.0, mass)
    # 0 * log 0 is judged on the cells of the conditioned measure, joint / mass
    terms, bad = _plogq(joint, values, ZERO_CELL * mass.reshape(-1, *(1,) * (joint.ndim - 1)))
    n = len(terms)
    out = 0.0 - _sum(terms.reshape(n, -1), axis=1) / mass  # 0.0 - makes -0.0 a 0.0
    if bad is None and zero is None:
        return out, DEFINED
    undefined = np.zeros(n, dtype=np.int8)
    if bad is not None:
        undefined[_any(bad.reshape(n, -1), axis=1)] = SUPPORT_MISMATCH
    if zero is not None:
        np.copyto(undefined, ZERO_PROBABILITY, where=zero)
    return np.where(undefined == 0, out, np.nan), undefined


def _divide(a, b):
    """``a / b`` of finite a and b, with numpy's divide and invalid warnings
    silenced only when b holds a zero, the one cell that raises them.
    count_nonzero is the cheapest test, cheaper than entering np.errstate."""
    if np.count_nonzero(b) == b.size:
        return a / b
    with np.errstate(divide="ignore", invalid="ignore"):
        return a / b


def _minus(a, b):
    """The difference of two (values, undefined) results."""
    return a[0] - b[0], first_undefined(a[1], b[1])


def entropy(d: JointDistribution, head, given=(), *, base: LogBase = LogBase.NATS) -> float:
    """Entropy of the head terms given the conditioning terms.

    ``head`` and ``given`` are sequences of variable names (untied) or
    ``(name, outcome)`` pairs (tied), resolved by :func:`as_terms`.
    Examples::

        entropy(d, ["X"])                      # H[X]
        entropy(d, ["X"], [("Y", 1)])          # H[X | Y=1]
        entropy(d, [("Y", 1)], ["X"])          # H[y | X] with y = outcome 1
    """
    s = Stack.of(d)
    head, given = as_terms(s, head), as_terms(s, given)
    return base.from_nats(one_value(*_expected_ic_nats(s, s, head, given), head, given))


def mutual_info(d: JointDistribution, groups, given=(), *,
                base: LogBase = LogBase.NATS) -> float:
    """Mutual information between two or more term groups.

    Two groups evaluate to ``H[G1 | given] - H[G1 | G2, given]``; more
    groups recurse (``I[A;B;C] = I[A;B] - I[A;B|C]``).  Group order matters
    when outcomes are tied: ``I[(X,), ((Y, 1),)]`` is the information gain
    about X from observing Y=1, while the swapped order is the surprise of
    that outcome, and the two generally differ.
    """
    if len(groups) < 2:
        raise ValueError("mutual information needs at least two groups")
    s = Stack.of(d)
    groups, given = [as_terms(s, g) for g in groups], as_terms(s, given)
    return base.from_nats(one_value(*_mi_nats(s, groups, given), *groups, given))


def _mi_nats(s: Stack, groups, given):
    """The (values, undefined) of a mutual information over a stack, its
    groups and ``given`` tuples of Terms; one group is its entropy."""
    if len(groups) == 1:
        return _expected_ic_nats(s, s, groups[0], given)
    return _minus(_mi_nats(s, groups[:-1], given), _mi_nats(s, groups[:-1], given + groups[-1]))
