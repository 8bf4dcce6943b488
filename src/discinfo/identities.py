"""Identity verification and counterexample search.

A suite entry pairs a comparison with an expectation: ``ALWAYS_TRUE``
entries must hold on every sampled distribution; ``EXISTS_VIOLATION``
entries must be *refuted* by some witness within the search budget (for a
``!=`` entry the witness violates the corresponding equality).  Witness
declarations require a gap above ``NEQ_GAP`` so float noise can never
masquerade as a counterexample, and every witness is re-checked after a
serialization round-trip before it is reported.

The search draws Dirichlet-like positive tensors (with a small per-cell
floor so conditioning stays well-defined) and additionally walks small
deterministic grids, including grids with exact zeros; grid points whose
preconditions fail (zero-probability conditioning) are skipped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import expr as ex
from . import quantities as qt
from .dist import (
    CELL_FLOOR,
    EQ_TOLERANCE,
    NEQ_GAP,
    WITNESS_SEPARATION,
    JointDistribution,
    UnnormalizedWeight,
    Variable,
    mixture,
    multiply,
    power,
    scale,
)
from .errors import (
    CounterexampleMismatch,
    SupportMismatch,
    ZeroProbabilityEvent,
)

DEFAULT_SEEDS = 500


class Expectation(Enum):
    ALWAYS_TRUE = "always"
    EXISTS_VIOLATION = "violation"


class Status(Enum):
    HELD = "HELD"
    VIOLATED = "VIOLATED"


@dataclass(frozen=True)
class CaseOutcome:
    """One evaluated comparison: both sides and the violation margin."""

    lhs: float
    rhs: float
    margin: float  # > 0 means the comparison is violated by that much


@dataclass(frozen=True)
class SuiteEntry:
    """A named comparison, either an expression or a programmatic check.

    Expression entries are comparison expressions in the surface notation;
    bare lowercase identifiers are searched over all their outcomes.
    Programmatic entries supply ``check(rng) -> (CaseOutcome, witness_dist)``
    for comparisons the notation cannot express (mixtures, unnormalized
    weights).
    """

    name: str
    expect: Expectation
    expression: str | None = None
    check: object = None
    needs_q: bool = field(init=False, default=False)

    def __post_init__(self):
        if (self.expression is None) == (self.check is None):
            raise ValueError("an entry needs exactly one of expression / check")
        if self.expression is not None:
            node = ex.parse(self.expression)
            if not isinstance(node, ex.ComparisonNode):
                raise ValueError(f"entry {self.name!r} is not a comparison")
            idents = ex.collect_identifiers(node)
            object.__setattr__(self, "_node", node)
            object.__setattr__(self, "_identifiers", idents)
            object.__setattr__(self, "needs_q", any(
                letter == "q" for letter, _, _ in ex.scoped_termlists(node)))

    @property
    def node(self):
        return getattr(self, "_node", None)

    def variable_names(self) -> tuple[str, ...]:
        """Canonical distribution variable names for the identifiers used."""
        seen = []
        for ident in getattr(self, "_identifiers", ()):
            canon = ident[0].upper() + ident[1:]
            if canon not in seen:
                seen.append(canon)
        return tuple(seen)


@dataclass(frozen=True)
class IdentitySuite:
    entries: tuple[SuiteEntry, ...]

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("entry names must be unique")


@dataclass(frozen=True)
class SearchReport:
    """The verdict for one entry, with the witness if one was found.

    For ``ALWAYS_TRUE`` entries HELD is the passing status.  For
    ``EXISTS_VIOLATION`` entries VIOLATED means a confirmed witness was
    found (the passing status); HELD means the budget ran out without one,
    which callers should treat as a failure.
    """

    name: str
    expect: Expectation
    status: Status
    seeds_tried: int
    lhs: float | None = None
    rhs: float | None = None
    gap: float | None = None
    witness: dict | None = None  # distribution / bindings / q, JSON-ready

    @property
    def passed(self) -> bool:
        wanted = Status.HELD if self.expect is Expectation.ALWAYS_TRUE else Status.VIOLATED
        return self.status is wanted

    def format_line(self) -> str:
        flag = "ok  " if self.passed else "FAIL"
        detail = f"{self.status.value} after {self.seeds_tried} samples"
        if self.gap is not None:
            detail += f"; lhs={self.lhs:.9g} rhs={self.rhs:.9g} gap={self.gap:.3g}"
        return f"{flag} [{self.expect.value:9s}] {self.name}: {detail}"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "expect": self.expect.value,
            "status": self.status.value,
            "passed": self.passed,
            "seeds_tried": self.seeds_tried,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "witness": self.witness,
        }


def random_distribution(rng, names, support_range=(2, 4), floor=CELL_FLOOR) -> JointDistribution:
    """A positive random joint: normalized exponentials, floored per cell."""
    lo, hi = support_range
    variables = tuple(
        Variable(n, tuple(str(i) for i in range(int(rng.integers(lo, hi + 1)))))
        for n in names
    )
    shape = tuple(v.size for v in variables)
    cells = rng.exponential(1.0, size=shape)
    cells /= cells.sum()
    if floor > 0:
        cells = np.maximum(cells, floor)
        cells /= cells.sum()
    return JointDistribution(variables, cells)


def _grid_tensors(shape, values):
    """All normalized tensors with cells drawn from ``values`` (zero-sum
    combinations skipped)."""
    k = int(np.prod(shape))
    for combo in itertools.product(values, repeat=k):
        total = sum(combo)
        if total <= 0:
            continue
        yield np.asarray(combo, dtype=float).reshape(shape) / total


def grid_distributions(names, values):
    """Deterministic grid of binary-support distributions over ``names``."""
    variables = tuple(Variable(n, ("0", "1")) for n in names)
    shape = tuple(v.size for v in variables)
    for cells in _grid_tensors(shape, values):
        yield JointDistribution(variables, cells)


FULL_GRID_VALUES = {
    2: tuple(round(0.1 * i, 1) for i in range(1, 10)),  # 9^4 positive tensors
    3: (0.1, 0.5, 0.9),  # 3^8 positive tensors
}
ZERO_GRID_VALUES = {
    2: (0.0, 0.5, 1.0),
    3: (0.0, 1.0),
}


def _margin(lhs: float, op: str, rhs: float) -> float:
    """How badly the comparison fails (<= 0 means it holds exactly)."""
    if op == "==":
        return abs(lhs - rhs)
    if op == "<=":
        return lhs - rhs
    if op == ">=":
        return rhs - lhs
    if op == "!=":
        return NEQ_GAP - abs(lhs - rhs)
    raise ValueError(f"unknown comparison operator {op!r}")


def _all_bindings(d, free_idents):
    if not free_idents:
        yield {}
        return
    sizes = []
    names = []
    for ident in free_idents:
        canon = ident[0].upper() + ident[1:]
        names.append(canon)
        sizes.append(d.variable(canon).size)
    for combo in itertools.product(*(range(s) for s in sizes)):
        yield dict(zip(names, combo))


def _random_binding(rng, d, free_idents):
    out = {}
    for ident in free_idents:
        canon = ident[0].upper() + ident[1:]
        out[canon] = int(rng.integers(d.variable(canon).size))
    return out


def _search_op(entry) -> str:
    # a violation search for "a != b" hunts for the equality being broken
    op = entry.node.op
    if entry.expect is Expectation.EXISTS_VIOLATION and op == "!=":
        return "=="
    return op


def check_entry(entry: SuiteEntry, seeds: int, rng) -> SearchReport:
    """Run one entry: sample, walk the grids, and produce its report."""
    if entry.check is not None:
        return _check_programmatic(entry, seeds, rng)
    node = entry.node
    op = _search_op(entry)
    free = ex.free_tied_identifiers(node)
    names = entry.variable_names()
    tried = 0

    def cases():
        nonlocal tried
        for _ in range(seeds):
            d = random_distribution(rng, names)
            # q, when referenced, shares d's variables and support sizes
            q = JointDistribution(d.variables, _floored(rng, d.shape)) if entry.needs_q else None
            tried += 1
            if entry.expect is Expectation.ALWAYS_TRUE:
                bindings_iter = [_random_binding(rng, d, free)]
            else:
                bindings_iter = _all_bindings(d, free)
            for bindings, case in _expression_cases_for(node, op, d, q, bindings_iter):
                yield d, q, bindings, case
        include_full = entry.expect is Expectation.EXISTS_VIOLATION
        for d in _entry_grid(names, include_full):
            q = _uniform_like(d) if entry.needs_q else None
            tried += 1
            for bindings, case in _expression_cases_for(node, op, d, q, _all_bindings(d, free)):
                yield d, q, bindings, case

    if entry.expect is Expectation.ALWAYS_TRUE:
        for d, q, bindings, case in cases():
            if case.margin > EQ_TOLERANCE:
                return _violated_report(entry, d, q, bindings, case, tried)
        return SearchReport(entry.name, entry.expect, Status.HELD, tried)

    for d, q, bindings, case in cases():
        if case.margin > NEQ_GAP:
            report = _violated_report(entry, d, q, bindings, case, tried)
            if _reconfirm(entry, op, report):
                return report
    return SearchReport(entry.name, entry.expect, Status.HELD, tried)


def _expression_cases_for(node, op, d, q, bindings_iter):
    for bindings in bindings_iter:
        try:
            lhs = ex.evaluate(node.lhs, d, q=q, bindings=bindings)
            rhs = ex.evaluate(node.rhs, d, q=q, bindings=bindings)
        except (ZeroProbabilityEvent, SupportMismatch):
            continue
        yield bindings, CaseOutcome(lhs, rhs, _margin(lhs, op, rhs))


def _floored(rng, shape, floor=CELL_FLOOR):
    cells = rng.exponential(1.0, size=shape)
    cells /= cells.sum()
    cells = np.maximum(cells, floor)
    return cells / cells.sum()


def _uniform_like(d: JointDistribution) -> JointDistribution:
    return JointDistribution(d.variables, np.full(d.shape, 1.0 / d.probs.size))


def _entry_grid(names, include_full: bool):
    """Deterministic grids for 2- and 3-variable entries.  Zero-including
    grids cover degenerate cases for everyone; the dense positive grids are
    reserved for witness searches (they are the discovery guarantee)."""
    n = len(names)
    if n not in FULL_GRID_VALUES:
        return
    yield from grid_distributions(names, ZERO_GRID_VALUES[n])
    if include_full:
        yield from grid_distributions(names, FULL_GRID_VALUES[n])


def _violated_report(entry, d, q, bindings, case, tried) -> SearchReport:
    witness = {
        "distribution": d.to_json_dict(),
        "bindings": dict(bindings),
    }
    if q is not None:
        witness["q"] = q.to_json_dict()
    return SearchReport(
        entry.name,
        entry.expect,
        Status.VIOLATED,
        tried,
        lhs=case.lhs,
        rhs=case.rhs,
        gap=case.margin,
        witness=witness,
    )


def _reconfirm(entry, op, report) -> bool:
    """Reload the witness from its serialized form and re-check the verdict."""
    w = report.witness
    d = JointDistribution.from_json_dict(w["distribution"])
    q = JointDistribution.from_json_dict(w["q"]) if "q" in w else None
    node = entry.node
    lhs = ex.evaluate(node.lhs, d, q=q, bindings=w["bindings"])
    rhs = ex.evaluate(node.rhs, d, q=q, bindings=w["bindings"])
    return _margin(lhs, op, rhs) > NEQ_GAP


def _check_programmatic(entry, seeds, rng) -> SearchReport:
    tried = 0
    for _ in range(seeds):
        tried += 1
        outcome, witness_dist = entry.check(rng)
        if entry.expect is Expectation.ALWAYS_TRUE:
            if outcome.margin > EQ_TOLERANCE:
                witness = {"distribution": witness_dist.to_json_dict(), "bindings": {}}
                return SearchReport(
                    entry.name, entry.expect, Status.VIOLATED, tried,
                    lhs=outcome.lhs, rhs=outcome.rhs, gap=outcome.margin,
                    witness=witness,
                )
        elif outcome.margin > NEQ_GAP:
            witness = {"distribution": witness_dist.to_json_dict(), "bindings": {}}
            return SearchReport(
                entry.name, entry.expect, Status.VIOLATED, tried,
                lhs=outcome.lhs, rhs=outcome.rhs, gap=outcome.margin,
                witness=witness,
            )
    return SearchReport(entry.name, entry.expect, Status.HELD, tried)


def check_suite(suite: IdentitySuite, seeds: int = DEFAULT_SEEDS,
                rng_seed: int = 0) -> list[SearchReport]:
    """Check every entry; reports come back in entry order and are fully
    deterministic for a given ``rng_seed``."""
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    reports = []
    for i, entry in enumerate(suite.entries):
        rng = np.random.default_rng([rng_seed, i])
        reports.append(check_entry(entry, seeds, rng))
    return reports


# ---------------------------------------------------------------------------
# Programmatic entries: mixture / weight algebra the notation cannot express


def _random_pair_shape(rng):
    n_vars = int(rng.integers(1, 3))
    names = ["X", "Y"][:n_vars]
    variables = tuple(
        Variable(n, tuple(str(i) for i in range(int(rng.integers(2, 5)))))
        for n in names
    )
    return variables


def _random_dist_for(rng, variables) -> JointDistribution:
    shape = tuple(v.size for v in variables)
    return JointDistribution(variables, _floored(rng, shape))


def _random_weight_for(rng, variables) -> UnnormalizedWeight:
    shape = tuple(v.size for v in variables)
    cells = rng.exponential(1.0, size=shape) + CELL_FLOOR
    return UnnormalizedWeight(variables, cells * float(rng.uniform(0.2, 5.0)))


def _head_terms(variables):
    return [v.name for v in variables]


def _ce(p, q, heads):
    return qt.cross_entropy(p, q, heads)


def _make_ce_scale_check():
    def check(rng):
        variables = _random_pair_shape(rng)
        p = _random_dist_for(rng, variables)
        q = _random_weight_for(rng, variables)
        alpha = float(rng.uniform(0.1, 3.0))
        heads = _head_terms(variables)
        lhs = _ce(p, scale(q, alpha), heads)
        rhs = _ce(p, q, heads) + qt.information_content(alpha)
        return CaseOutcome(lhs, rhs, abs(lhs - rhs)), p

    return check


def _make_ce_power_check():
    def check(rng):
        variables = _random_pair_shape(rng)
        p = _random_dist_for(rng, variables)
        q = _random_weight_for(rng, variables)
        alpha = float(rng.uniform(0.2, 2.5))
        heads = _head_terms(variables)
        lhs = _ce(p, power(q, alpha), heads)
        rhs = alpha * _ce(p, q, heads)
        return CaseOutcome(lhs, rhs, abs(lhs - rhs)), p

    return check


def _make_ce_product_check():
    def check(rng):
        variables = _random_pair_shape(rng)
        p = _random_dist_for(rng, variables)
        q1 = _random_weight_for(rng, variables)
        q2 = _random_weight_for(rng, variables)
        heads = _head_terms(variables)
        lhs = _ce(p, multiply(q1, q2), heads)
        rhs = _ce(p, q1, heads) + _ce(p, q2, heads)
        return CaseOutcome(lhs, rhs, abs(lhs - rhs)), p

    return check


def _make_ce_mixture_linear_check():
    def check(rng):
        variables = _random_pair_shape(rng)
        p1 = _random_dist_for(rng, variables)
        p2 = _random_dist_for(rng, variables)
        q = _random_weight_for(rng, variables)
        alpha = float(rng.uniform(0.0, 1.0))
        heads = _head_terms(variables)
        mixed = mixture(p1, p2, alpha)
        lhs = _ce(mixed, q, heads)
        rhs = alpha * _ce(p1, q, heads) + (1.0 - alpha) * _ce(p2, q, heads)
        return CaseOutcome(lhs, rhs, abs(lhs - rhs)), mixed

    return check


def _make_ce_mixture_exponent_check():
    def check(rng):
        variables = _random_pair_shape(rng)
        p1 = _random_dist_for(rng, variables)
        p2 = _random_dist_for(rng, variables)
        q = _random_weight_for(rng, variables)
        alpha = float(rng.uniform(0.05, 0.95))
        heads = _head_terms(variables)
        lhs = _ce(mixture(p1, p2, alpha), q, heads)
        rhs = _ce(p1, power(q, alpha), heads) + _ce(p2, power(q, 1.0 - alpha), heads)
        return CaseOutcome(lhs, rhs, abs(lhs - rhs)), p1

    return check


def _make_ce_mass_bound_check():
    def check(rng):
        variables = _random_pair_shape(rng)
        p = _random_dist_for(rng, variables)
        q = _random_weight_for(rng, variables)
        heads = _head_terms(variables)
        lhs = _ce(p, q, heads)
        rhs = qt.entropy(p, heads) + qt.information_content(q.z)
        return CaseOutcome(lhs, rhs, _margin(lhs, ">=", rhs)), p

    return check


def _make_kl_mass_bound_check():
    def check(rng):
        variables = _random_pair_shape(rng)
        p = _random_dist_for(rng, variables)
        q = _random_weight_for(rng, variables)
        heads = _head_terms(variables)
        lhs = qt.kl_divergence(p, q, heads)
        rhs = qt.information_content(q.z)
        return CaseOutcome(lhs, rhs, _margin(lhs, ">=", rhs)), p

    return check


def _make_kl_mass_equality_check():
    def check(rng):
        variables = _random_pair_shape(rng)
        p = _random_dist_for(rng, variables)
        c = float(rng.uniform(0.25, 4.0))
        heads = _head_terms(variables)
        lhs = qt.kl_divergence(p, scale(p, c), heads)
        rhs = qt.information_content(c)
        return CaseOutcome(lhs, rhs, abs(lhs - rhs)), p

    return check


_EXPRESSION_ALWAYS = [
    ("chain_rule_joint", "H[X,Y] == H[X] + H[Y|X]"),
    ("mi_symmetry", "I[X;Y] == I[Y;X]"),
    ("pointwise_mi_symmetry", "I[x;y] == I[y;x]"),
    ("mi_is_expected_gain", "I[X;Y] == E_{p(y)}[I[X;y]]"),
    ("mi_is_expected_surprise", "I[X;Y] == E_{p(y)}[I[y;X]]"),
    ("mi_is_expected_pointwise", "I[X;Y] == E_{p(x,y)}[I[x;y]]"),
    ("joint_entropy_expectation_left", "H[X,Y] == E_{p(x)}[H[x,Y]]"),
    ("joint_entropy_expectation_right", "H[X,Y] == E_{p(y)}[H[X,y]]"),
    ("observed_conditional_head", "H[X|y] == H[X,y] - H[y]"),
    ("observed_conditional_outcome", "H[y|X] == H[X,y] - E_{p(x|y)}[H[x]]"),
    ("gain_chains_over_outcomes", "I[X;y1,y2] == I[X;y1] + I[X;y2|y1]"),
    ("gain_chains_over_variables", "I[X1,X2;y] == I[X1;y] + I[X2;y|X1]"),
    ("surprise_chains_over_variables", "I[y;X1,X2] == I[y;X1] + I[y;X2|X1]"),
    ("pointwise_chaining", "I[x;y1,y2] == I[x;y1] + I[x;y2|y1]"),
    ("triple_mi_expectation", "I[X;Y;Z] == E_{p(z)}[I[X;Y;z]]"),
    ("mi_nonnegative", "I[X;Y] >= 0"),
    ("conditioning_reduces_entropy", "H[X] >= H[X|Y]"),
    ("entropy_nonnegative", "H[X] >= 0"),
    ("mi_bounded_by_entropy", "I[X;Y] <= H[X]"),
    ("surprise_nonnegative", "I[y;X] >= 0"),
    ("outcome_conditioning_reduces_ic", "H[y] >= H[y|X]"),
    ("expected_ic_dominates_conditional", "E_{p(x|y)}[H[x]] >= H[X|y]"),
    ("observed_conditional_nonnegative", "H[y|X] >= 0"),
    ("surprise_bounded_by_outcome_ic", "I[y;X] <= H[y]"),
    ("surprise_bounded_by_expected_ic", "I[y;X] <= E_{p(x|y)}[H[x]]"),
    ("surprise_as_kl", "I[y;X] == KL[p(X|y) || p(X)]"),
    ("self_cross_entropy_is_entropy", "CE[p(X) || p(X)] == H[X]"),
    ("self_kl_is_zero", "KL[p(X) || p(X)] == 0"),
    ("kl_nonnegative_for_distributions", "KL[p(X) || q(X)] >= 0"),
    ("cross_entropy_dominates_entropy", "CE[p(X) || q(X)] >= H[X]"),
    ("conditional_ce_left_insensitive", "CE[p(X|Y) || q(X|Y)] == CE[p(X,Y) || q(X|Y)]"),
]

_EXPRESSION_VIOLATIONS = [
    ("observed_outcome_decomposition_fails", "H[y|X] != H[X,y] - H[X]"),
    ("surprise_chaining_fails", "I[y1,y2;X] != I[y1;X] + I[y2;X|y1]"),
    ("information_gain_can_be_negative", "I[X;y] >= 0"),
    ("kl_left_structure_matters", "KL[p(X,Y) || q(X|Y)] != KL[p(X|Y) || q(X|Y)]"),
]

_PROGRAMMATIC_ALWAYS = [
    ("ce_scaling_shifts_by_ic", _make_ce_scale_check),
    ("ce_power_scales_linearly", _make_ce_power_check),
    ("ce_product_splits", _make_ce_product_check),
    ("ce_linear_in_left_mixture", _make_ce_mixture_linear_check),
    ("ce_mixture_exponent_form", _make_ce_mixture_exponent_check),
    ("ce_lower_bound_with_mass", _make_ce_mass_bound_check),
    ("kl_lower_bound_with_mass", _make_kl_mass_bound_check),
    ("kl_mass_bound_equality_case", _make_kl_mass_equality_check),
]


def default_suite() -> IdentitySuite:
    """Every shipped identity plus the counterexample searches."""
    entries = [
        SuiteEntry(name, Expectation.ALWAYS_TRUE, expression=text)
        for name, text in _EXPRESSION_ALWAYS
    ]
    entries += [
        SuiteEntry(name, Expectation.ALWAYS_TRUE, check=make())
        for name, make in _PROGRAMMATIC_ALWAYS
    ]
    entries += [
        SuiteEntry(name, Expectation.EXISTS_VIOLATION, expression=text)
        for name, text in _EXPRESSION_VIOLATIONS
    ]
    return IdentitySuite(tuple(entries))


def parse_suite_file(text: str) -> IdentitySuite:
    """One comparison per line with a trailing ``# expect: always|violation``
    directive; blank lines and pure ``#`` comment lines are skipped."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "#" not in line:
            raise ValueError(
                f"line {lineno}: missing '# expect: always|violation' directive"
            )
        expr_text, directive = line.split("#", 1)
        directive = directive.strip()
        if not directive.startswith("expect:"):
            raise ValueError(f"line {lineno}: 'expect:' directive not found")
        expect_word = directive[len("expect:"):].strip()
        try:
            expect = Expectation(expect_word)
        except ValueError:
            raise ValueError(
                f"line {lineno}: expect must be 'always' or 'violation', got "
                f"{expect_word!r}"
            ) from None
        entries.append(
            SuiteEntry(f"L{lineno}: {expr_text.strip()}", expect, expression=expr_text.strip())
        )
    if not entries:
        raise ValueError("the suite file contains no entries")
    return IdentitySuite(tuple(entries))


# ---------------------------------------------------------------------------
# Reference witnesses


def three_cell_distribution(order=("X", "Y")) -> JointDistribution:
    """Uniform mass on the cells (x,y) in {(0,0), (1,0), (1,1)} of two binary
    variables: the smallest distribution where conditioning on y=1 pins X
    down while the marginal of X stays uncertain."""
    x_name, y_name = order
    cells = {
        (0, 0): 1.0 / 3.0,
        (1, 0): 1.0 / 3.0,
        (1, 1): 1.0 / 3.0,
        (0, 1): 0.0,
    }
    variables = (Variable(x_name, ("0", "1")), Variable(y_name, ("0", "1")))
    tensor = np.zeros((2, 2))
    for (xi, yi), p in cells.items():
        if order == ("X", "Y"):
            tensor[xi, yi] = p
        else:
            tensor[yi, xi] = p
    if order not in (("X", "Y"), ("Y", "X")):
        raise ValueError("order must be a permutation of ('X', 'Y')")
    return JointDistribution(variables, tensor)


def chaining_distribution() -> JointDistribution:
    """Three binary variables X, Y1, Y2 where conditioning on (y1, y2)
    shifts X away from its y1-only conditional:

    * p(y1) uniform,
    * given y1 = 0: (x, y2) uniform over the four cells,
    * given y1 = 1: y2 uniform; x uniform when y2 = 0, but x = 0 surely
      when y2 = 1.
    """
    variables = (
        Variable("X", ("0", "1")),
        Variable("Y1", ("0", "1")),
        Variable("Y2", ("0", "1")),
    )
    t = np.zeros((2, 2, 2))  # axes: x, y1, y2
    for x in (0, 1):
        for y2 in (0, 1):
            t[x, 0, y2] = 0.5 * 0.25  # p(y1=0) * p(x, y2 | y1=0)
    for x in (0, 1):
        t[x, 1, 0] = 0.5 * 0.5 * 0.5  # p(y1=1) p(y2=0|y1) p(x|y1, y2=0)
    t[0, 1, 1] = 0.5 * 0.5 * 1.0
    return JointDistribution(variables, t)


# golden values, in nats
THREE_CELL_EXPECTED_MARGINAL_IC = math.log(1.5)
THREE_CELL_MARGINAL_ENTROPY = math.log(3.0 * 2.0 ** (1.0 / 3.0) / 2.0)
THREE_CELL_DECOMPOSITION_GAP = math.log(2.0) / 3.0
CHAINING_POINTWISE_EXPECTATION = math.log(6.0 / 5.0)
CHAINING_SURPRISE = math.log(2.0 * math.sqrt(3.0) * 5.0**0.25 / 5.0)


@dataclass(frozen=True)
class WitnessReport:
    """Computed values for the two built-in reference counterexamples."""

    three_cell_expected_marginal_ic: float  # E_{p(x|y=1)} H[x]
    three_cell_marginal_entropy: float  # H[X]
    three_cell_cond_outcome: float  # H[y|X]
    three_cell_wrong_decomposition: float  # H[X,y] - H[X]
    chaining_pointwise_expectation: float  # E_{p(x|y1,y2)} I[y1; x]
    chaining_surprise: float  # I[y1; X]
    chaining_lhs: float  # I[y1,y2; X]
    chaining_rhs: float  # I[y1; X] + I[y2; X | y1]

    def golden_values(self):
        """(label, computed, expected) triples checked against ``EQ_TOLERANCE``."""
        return [
            ("E_{p(x|y=1)}[H[x]]", self.three_cell_expected_marginal_ic,
             THREE_CELL_EXPECTED_MARGINAL_IC),
            ("H[X]", self.three_cell_marginal_entropy, THREE_CELL_MARGINAL_ENTROPY),
            ("H[y|X] - (H[X,y] - H[X])",
             self.three_cell_cond_outcome - self.three_cell_wrong_decomposition,
             THREE_CELL_DECOMPOSITION_GAP),
            ("E_{p(x|y1=1,y2=1)}[I[y1=1;x]]", self.chaining_pointwise_expectation,
             CHAINING_POINTWISE_EXPECTATION),
            ("I[y1=1;X]", self.chaining_surprise, CHAINING_SURPRISE),
        ]


def verify_reference_witnesses(tolerance: float = EQ_TOLERANCE) -> WitnessReport:
    """Evaluate the two built-in counterexample distributions and confirm
    their values; raises :class:`CounterexampleMismatch` on any deviation.

    The three-cell witness refutes H[y|X] == H[X,y] - H[X]; the chaining
    witness refutes chaining of the surprise over tied outcomes.  The two
    published chaining values are checked as an unordered pair of the two
    unequal terms (the expectation of the pointwise value under the doubly
    conditioned measure vs. the singly tied surprise).
    """
    for order in (("X", "Y"), ("Y", "X")):  # value must not depend on axis order
        d3 = three_cell_distribution(order)
        y = ("Y", 1)
        report3 = {
            "expected_marginal_ic": qt.expected_marginal_ic(d3, ["X"], {"Y": 1}),
            "marginal_entropy": qt.entropy(d3, ["X"]),
            "cond_outcome": qt.entropy(d3, [y], ["X"]),
            "wrong": qt.entropy(d3, ["X", y]) - qt.entropy(d3, ["X"]),
        }
        if order == ("X", "Y"):
            base3 = report3
        elif any(abs(report3[k] - base3[k]) > tolerance for k in report3):
            raise CounterexampleMismatch("axis order changed the three-cell values")

    dc = chaining_distribution()
    y1, y2 = ("Y1", 1), ("Y2", 1)
    pointwise_expectation = ex.evaluate(
        "E_{p(x | y1=1, y2=1)}[I[y1=1; x]]", dc
    )
    surprise_term = qt.mutual_info(dc, [[y1], ["X"]])
    chaining_lhs = qt.mutual_info(dc, [[y1, y2], ["X"]])
    chaining_rhs = surprise_term + qt.mutual_info(dc, [[y2], ["X"]], [y1])

    report = WitnessReport(
        three_cell_expected_marginal_ic=base3["expected_marginal_ic"],
        three_cell_marginal_entropy=base3["marginal_entropy"],
        three_cell_cond_outcome=base3["cond_outcome"],
        three_cell_wrong_decomposition=base3["wrong"],
        chaining_pointwise_expectation=pointwise_expectation,
        chaining_surprise=surprise_term,
        chaining_lhs=chaining_lhs,
        chaining_rhs=chaining_rhs,
    )

    failures = [
        f"{label}: computed {got!r}, expected {want!r}"
        for label, got, want in report.golden_values()
        if abs(got - want) > tolerance
    ]
    if abs(report.chaining_lhs - report.chaining_rhs) <= WITNESS_SEPARATION:
        failures.append("the chaining equation sides do not differ")
    if failures:
        raise CounterexampleMismatch("; ".join(failures))
    return report
