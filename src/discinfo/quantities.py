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

All functions are pure and operate on immutable values, so concurrent use
needs no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dist import (
    Assignment,
    JointDistribution,
    ZERO_CELL,
    ZERO_MASS,
    _tensor_of,
)
from .errors import (
    NonPositiveProbability,
    SupportMismatch,
    UnknownVariable,
    ZeroProbabilityEvent,
)

_LN2 = math.log(2.0)


class LogBase(Enum):
    """Logarithm base for reported values; everything internal is in nats."""

    NATS = "nats"
    BITS = "bits"

    def from_nats(self, value: float) -> float:
        return value if self is LogBase.NATS else value / _LN2


@dataclass(frozen=True)
class Term:
    """One variable reference in a query: untied, or tied to an outcome index."""

    name: str
    outcome: int | None = None

    @property
    def tied(self) -> bool:
        return self.outcome is not None


def as_terms(specs) -> tuple[Term, ...]:
    """Coerce strings / (name, index) pairs / Terms into a Term tuple."""
    out = []
    for spec in specs:
        if isinstance(spec, Term):
            out.append(spec)
        elif isinstance(spec, str):
            out.append(Term(spec))
        else:
            name, idx = spec
            out.append(Term(str(name), None if idx is None else int(idx)))
    return tuple(out)


def information_content(rho: float, base: LogBase = LogBase.NATS) -> float:
    """The code length -log(rho) of an event with probability (or mass) rho."""
    rho = float(rho)
    if rho <= 0:
        raise NonPositiveProbability(f"information content undefined for {rho!r}")
    return base.from_nats(-math.log(rho))


def plogq(p: np.ndarray, q=None) -> np.ndarray:
    """The terms p * log q elementwise, whose negated sum is a cross-entropy;
    ``q`` defaults to ``p`` (the terms of an entropy) and broadcasts
    against it.

    A cell of ``p`` at or below ``ZERO_CELL`` contributes an exact zero
    (0 * log 0 == 0), whatever q is there.  Elsewhere q must be positive,
    or :class:`SupportMismatch` is raised.
    """
    out = np.where(p > ZERO_CELL, p if q is None else q, 1.0)
    if q is not None and not np.all(out > 0):  # a NaN fails too
        raise SupportMismatch(
            "q is zero (or undefined) at an outcome where p has positive mass"
        )
    np.log(out, out=out)
    out *= p
    return out


def tied_slice(tensor: np.ndarray, names, tied: dict):
    """The cells of ``tensor`` (one axis per name) at the ``tied`` outcomes,
    and their total mass; the untied axes keep their order.

    Raises :class:`ZeroProbabilityEvent` when the mass is at most
    ``ZERO_MASS``.
    """
    part = tensor[tuple(tied.get(n, slice(None)) for n in names)]
    mass = float(part.sum())
    if mass <= ZERO_MASS:
        raise ZeroProbabilityEvent(f"tied outcomes {tied} have probability {mass!r}")
    return part, mass


def _subtensor(names, tensor, wanted):
    """Marginal of ``tensor`` (one axis per entry of ``names``) onto the
    ``wanted`` names, keeping the axis order of ``names``."""
    wanted = set(wanted)
    unknown = wanted.difference(names)
    if unknown:
        raise UnknownVariable(f"unknown variable(s): {sorted(unknown)}")
    drop = tuple(i for i, n in enumerate(names) if n not in wanted)
    kept = [n for n in names if n in wanted]
    return (tensor.sum(axis=drop) if drop else tensor), kept


def _in_coords(q, q_names, fixed, kept):
    """q's marginal on ``q_names`` with one axis per ``kept`` name (unit axes
    for the names q lacks), its q-only names fixed at their ties."""
    sub, names = _subtensor(q.names, _tensor_of(q), q_names)
    shared = [n for n in names if n in kept]
    sub = sub[tuple(slice(None) if n in shared else fixed[n] for n in names)]
    pos = {n: i for i, n in enumerate(shared)}
    sub = sub.transpose([pos[n] for n in kept if n in pos])
    sizes = iter(sub.shape)
    return sub.reshape([next(sizes) if n in pos else 1 for n in kept])


def _at_points(arr, kept, tied, fixed):
    """``arr`` (one axis per ``kept`` name, unit axes where summed out) at
    the expectation points: the p-tied axes are indexed away and a q-side
    tie of a p-untied name leaves a unit axis, so the result broadcasts
    against the tied slice of p."""
    ix = []
    for n, size in zip(kept, arr.shape):
        if n in tied:
            ix.append(fixed[n] if size > 1 else 0)
        elif n in fixed and size > 1:
            ix.append(slice(fixed[n], fixed[n] + 1))
        else:
            ix.append(slice(None))
    return arr[tuple(ix)]


def _check_terms(d, terms) -> None:
    """Each name once and known to ``d``, and each tie within its
    variable's outcomes."""
    names = [t.name for t in terms]
    if len(set(names)) != len(names):
        raise ValueError(f"a variable may appear only once per query: {names}")
    for t in terms:
        try:
            size = d.variables[d.index_of(t.name)].size
        except KeyError as exc:
            raise UnknownVariable(str(exc)) from exc
        if t.outcome is not None and not 0 <= t.outcome < size:
            raise ValueError(f"outcome index {t.outcome} out of range for variable {t.name!r}")


def _expected_ic_nats(p: JointDistribution, q, p_head, p_given, q_head=None,
                      q_given=None) -> float:
    """E over p(p_head, p_given) of -log q(q_head | q_given), in nats.

    The one information kernel: every quantity of this module is this
    expectation or a difference of two.  The expectation runs over the
    untied p-side variables conditioned on every p-side tie.  The q sides
    default to the p sides; a q-side term takes its own tie, else a p-side
    tie of that name, else the expectation point.  With ``q is p`` and the
    default q sides it is the entropy of p_head given p_given.
    """
    p_head, p_given = as_terms(p_head), as_terms(p_given)
    same_sides = q_head is None and q_given is None
    q_head = p_head if q_head is None else as_terms(q_head)
    q_given = p_given if q_given is None else as_terms(q_given)
    if not p_head or not q_head:
        raise ValueError("an information query needs head terms on both sides")
    p_terms, q_terms = p_head + p_given, q_head + q_given
    _check_terms(p, p_terms)

    tensor, kept = _subtensor(p.names, p.probs, [t.name for t in p_terms])
    tied = {t.name: t.outcome for t in p_terms if t.outcome is not None}
    joint, mass = tied_slice(tensor, kept, tied)

    if same_sides and q is p:
        fixed = tied
    else:
        _check_terms(q, q_terms)
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
    from_p = q is p and all(t.name in kept for t in q_terms)

    def q_marginal(names):
        """q's marginal on ``names`` at the expectation points; when q is p,
        it is summed from the p-side subtensor in hand."""
        if from_p:
            drop = tuple(i for i, n in enumerate(kept) if n not in names)
            arr = tensor.sum(axis=drop, keepdims=True) if drop else tensor
        else:
            arr = _in_coords(q, names, fixed, kept)
        return _at_points(arr, kept, tied, fixed)

    # with q = p on the p sides, the numerator is the tied slice itself
    values = joint if same_sides and q is p else q_marginal({t.name for t in q_terms})
    if q_given:
        with np.errstate(divide="ignore", invalid="ignore"):
            values = values / q_marginal({t.name for t in q_given})
    return float(-plogq(joint, values).sum() / mass) + 0.0


def entropy(d: JointDistribution, head, given=(), *, base: LogBase = LogBase.NATS) -> float:
    """Entropy of the head terms given the conditioning terms.

    ``head`` and ``given`` are sequences of variable names (untied) or
    ``(name, outcome_index)`` pairs (tied).  Examples::

        entropy(d, ["X"])                      # H[X]
        entropy(d, ["X"], [("Y", 1)])          # H[X | Y=1]
        entropy(d, [("Y", 1)], ["X"])          # H[y | X] with y = outcome 1
    """
    return base.from_nats(_expected_ic_nats(d, d, head, given))


def cross_entropy(p: JointDistribution, q, head, given=(), *,
                  q_head=None, q_given=None, base: LogBase = LogBase.NATS) -> float:
    """Cross-entropy: expectation under p of the information content of q.

    ``q`` may be a :class:`JointDistribution` or an
    :class:`UnnormalizedWeight`; an unconditional q side uses the raw cell
    mass, so scaled weights shift the result by the log of the scale.  The
    expectation always runs over the joint of the left side's head and
    conditioning variables (conditioned on its tied outcomes), which is why
    a conditional left side and the matching joint left side give the same
    cross-entropy.
    """
    return base.from_nats(
        _expected_ic_nats(p, q, head, given, q_head=q_head, q_given=q_given)
    )


def kl_divergence(p: JointDistribution, q, head, given=(), *,
                  q_head=None, q_given=None, base: LogBase = LogBase.NATS) -> float:
    """KL divergence: cross-entropy minus the entropy of the left side.

    The left side's conditional structure matters here (unlike for the
    cross-entropy): ``kl(p, q, ["X"], ["Y"])`` subtracts H[X|Y] while a
    joint left side would subtract H[X,Y].
    """
    ce = _expected_ic_nats(p, q, head, given, q_head=q_head, q_given=q_given)
    return base.from_nats(ce - _expected_ic_nats(p, p, head, given))


def mutual_info(d: JointDistribution, groups, given=(), *,
                base: LogBase = LogBase.NATS) -> float:
    """Mutual information between two or more term groups.

    Two groups evaluate to ``H[G1 | given] - H[G1 | G2, given]``; more
    groups recurse (``I[A;B;C] = I[A;B] - I[A;B|C]``).  Group order matters
    when outcomes are tied: ``I[(X,), ((Y, 1),)]`` is the information gain
    about X from observing Y=1, while the swapped order is the surprise of
    that outcome, and the two generally differ.
    """
    return base.from_nats(_mi_nats(d, groups, given))


def _mi_nats(d, groups, given) -> float:
    groups = [as_terms(g) for g in groups]
    if len(groups) < 2:
        raise ValueError("mutual information needs at least two groups")
    given = as_terms(given)
    if len(groups) == 2:
        left, right = groups
        return (_expected_ic_nats(d, d, left, given)
                - _expected_ic_nats(d, d, left, given + right))
    return _mi_nats(d, groups[:-1], given) - _mi_nats(
        d, groups[:-1], given + groups[-1]
    )


def triple_mi(d: JointDistribution, groups, given=(), *,
              base: LogBase = LogBase.NATS) -> float:
    """Triple mutual information ``I[A;B] - I[A;B|C]``; may be negative."""
    groups = [as_terms(g) for g in groups]
    if len(groups) != 3:
        raise ValueError("triple mutual information needs exactly three groups")
    return base.from_nats(_mi_nats(d, groups, given))


def expected_marginal_ic(d: JointDistribution, x_names, observed, *,
                         base: LogBase = LogBase.NATS) -> float:
    """E over p(x | observed) of IC(p(x)): the marginal code length of the
    head group averaged under the conditioned distribution."""
    obs = observed if isinstance(observed, Assignment) else Assignment(tuple(dict(observed).items()))
    x_terms = as_terms(x_names)
    obs_terms = as_terms(obs.bindings)
    return base.from_nats(
        _expected_ic_nats(d, d, x_terms, obs_terms, q_head=x_terms, q_given=())
    )


class QueryKind(Enum):
    ENTROPY = "entropy"
    CROSS_ENTROPY = "cross_entropy"
    KL = "kl"
    MUTUAL_INFO = "mutual_info"
    TRIPLE_MI = "triple_mi"


@dataclass(frozen=True)
class Query:
    """A declarative information query: term groups, conditioning, and kind.

    ``head`` always holds groups of terms; entropy / cross-entropy / KL
    queries use exactly one group, mutual information two or more, triple
    mutual information exactly three.
    """

    kind: QueryKind
    head: tuple[tuple[Term, ...], ...]
    given: tuple[Term, ...] = ()

    def __post_init__(self):
        head = tuple(as_terms(g) for g in self.head)
        given = as_terms(self.given)
        if not head or any(not g for g in head):
            raise ValueError("head groups must be non-empty")
        names = [t.name for g in head for t in g] + [t.name for t in given]
        if len(set(names)) != len(names):
            raise ValueError("a variable may appear only once across head and given")
        if self.kind in (QueryKind.ENTROPY, QueryKind.CROSS_ENTROPY, QueryKind.KL):
            if len(head) != 1:
                raise ValueError(f"{self.kind.value} takes exactly one head group")
        elif self.kind is QueryKind.MUTUAL_INFO and len(head) < 2:
            raise ValueError("mutual information needs at least two groups")
        elif self.kind is QueryKind.TRIPLE_MI and len(head) != 3:
            raise ValueError("triple mutual information needs exactly three groups")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "given", given)


def evaluate_query(d: JointDistribution, query: Query, q=None, *,
                   base: LogBase = LogBase.NATS) -> float:
    """Evaluate a :class:`Query` against a distribution (and optional q)."""
    if query.kind is QueryKind.ENTROPY:
        return entropy(d, query.head[0], query.given, base=base)
    if query.kind is QueryKind.CROSS_ENTROPY:
        if q is None:
            raise ValueError("cross-entropy query needs a second distribution")
        return cross_entropy(d, q, query.head[0], query.given, base=base)
    if query.kind is QueryKind.KL:
        if q is None:
            raise ValueError("KL query needs a second distribution")
        return kl_divergence(d, q, query.head[0], query.given, base=base)
    if query.kind is QueryKind.TRIPLE_MI:
        return triple_mi(d, query.head, query.given, base=base)
    return mutual_info(d, query.head, query.given, base=base)


@dataclass(frozen=True)
class DiagramTable:
    """The eight quantities relating X and an observed outcome Y=y.

    The additive structure: ``joint = cond_head + outcome``, ``joint =
    cond_outcome + expected_marginal_ic``, ``gain = marginal - cond_head``,
    ``surprise = outcome - cond_outcome = expected_marginal_ic - cond_head``.
    """

    x_names: tuple[str, ...]
    observed_name: str
    observed_index: int
    joint: float  # H[X, y]
    outcome: float  # H[y]
    marginal: float  # H[X]
    gain: float  # I[X; y]
    surprise: float  # I[y; X]
    cond_head: float  # H[X | y]
    cond_outcome: float  # H[y | X]
    expected_marginal_ic: float  # E_{p(x|y)} H[x]

    def rows(self):
        xs = ",".join(self.x_names)
        y = self.observed_name.lower()
        return [
            (f"H[{xs},{y}]", self.joint),
            (f"H[{y}]", self.outcome),
            (f"H[{xs}]", self.marginal),
            (f"I[{xs};{y}]", self.gain),
            (f"I[{y};{xs}]", self.surprise),
            (f"H[{xs}|{y}]", self.cond_head),
            (f"H[{y}|{xs}]", self.cond_outcome),
            (f"E_{{p({xs.lower()}|{y})}}[H[{xs.lower()}]]", self.expected_marginal_ic),
        ]


def diagram(d: JointDistribution, observed, *, base: LogBase = LogBase.NATS) -> DiagramTable:
    """Compute the eight-quantity decomposition for one observed variable.

    ``observed`` binds exactly one variable of ``d``; every other variable
    forms the (joint) X group.
    """
    obs = observed if isinstance(observed, Assignment) else Assignment(tuple(dict(observed).items()))
    if len(obs.bindings) != 1:
        raise ValueError("diagram needs exactly one observed variable")
    (y_name, y_idx), = obs.bindings
    obs.validate_against(d)
    x_names = tuple(n for n in d.names if n != y_name)
    if not x_names:
        raise ValueError("diagram needs at least one unobserved variable")
    y = (y_name, y_idx)
    xs = list(x_names)
    return DiagramTable(
        x_names=x_names,
        observed_name=y_name,
        observed_index=y_idx,
        joint=entropy(d, xs + [y], base=base),
        outcome=entropy(d, [y], base=base),
        marginal=entropy(d, xs, base=base),
        gain=mutual_info(d, [xs, [y]], base=base),
        surprise=mutual_info(d, [[y], xs], base=base),
        cond_head=entropy(d, xs, [y], base=base),
        cond_outcome=entropy(d, [y], xs, base=base),
        expected_marginal_ic=expected_marginal_ic(d, xs, {y_name: y_idx}, base=base),
    )
