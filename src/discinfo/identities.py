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
deterministic grids, including grids with exact zeros; cases whose
preconditions fail (zero-probability conditioning, q zero under p's mass)
are skipped and counted.

The cases are evaluated as stacks: the random draws grouped by support
shape, each grid as one array, and every binding of the free tied
outcomes as further stack elements.  The first case in draw order whose
stacked margin crosses the threshold is re-evaluated on its own before it
is reported, so reports do not depend on how the cases were stacked.

The weight-algebra entries (scaled, powered, multiplied and mixed
weights, which the notation cannot express) are rows of one table whose
sides are written over stacks and evaluated by the same kernel.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from collections.abc import Callable
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
    Variable,
)
from .errors import (
    CounterexampleMismatch,
    DiscinfoError,
    SupportMismatch,
    ZeroProbabilityEvent,
)

DEFAULT_SEEDS = 500
GRID_CHUNK = 1024  # grid tensors per stack, so a full grid is never held at once
MARGIN_SLACK = 1e-12  # stacked margins this far below a threshold are re-checked alone

logger = logging.getLogger(__name__)


class Expectation(Enum):
    ALWAYS_TRUE = "always"
    EXISTS_VIOLATION = "violation"


class Status(Enum):
    HELD = "HELD"
    VIOLATED = "VIOLATED"
    UNTESTED = "UNTESTED"  # no case could be evaluated


@dataclass(frozen=True)
class WeightRow:
    """A comparison over weights that the notation cannot express.

    One case draws ``dists`` floored distributions (at least one; the
    first is the witness of a violation), then ``weights`` positive
    weights, then (unless ``factor`` is None) a factor uniform on the
    ``factor`` interval.  ``sides(ce, *drawn)`` returns the two sides
    compared with ``op``; it is written once over stacks, so each drawn
    tensor has a leading axis of cases, the factor has a unit axis per
    variable to broadcast against them, and ``ce(p, q)`` is the
    cross-entropy of p against q over all variables, shaped like the factor.
    """

    dists: int
    weights: int
    factor: tuple[float, float] | None
    op: str
    sides: Callable


@dataclass(frozen=True)
class SuiteEntry:
    """A named comparison: an expression, or a :class:`WeightRow`.

    Expression entries are comparison expressions in the surface notation;
    bare lowercase identifiers are searched over all their outcomes.
    ``check`` entries are weight-algebra rows for the comparisons the
    notation cannot express (mixtures, scaled and powered weights).
    """

    name: str
    expect: Expectation
    expression: str | None = None
    check: object = None
    needs_q: bool = field(init=False, default=False)

    def __post_init__(self):
        if (self.expression is None) == (self.check is None):
            raise ValueError("an entry needs exactly one of expression / check")
        if self.check is not None and not isinstance(self.check, WeightRow):
            raise TypeError("an entry's check must be a WeightRow")
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
        return tuple(dict.fromkeys(map(_canonical, getattr(self, "_identifiers", ()))))


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
    which callers should treat as a failure.  UNTESTED means no case could
    be evaluated, and fails either way.

    ``seeds_tried`` counts the distributions drawn (random and grid) up to
    the verdict; ``cases_evaluated`` and ``cases_skipped`` count the cases
    (a distribution with one binding of the free tied outcomes) evaluated
    and skipped as undefined up to it.  ``worst_margin`` is, for an
    ``ALWAYS_TRUE`` entry, the largest violation margin among the evaluated
    cases: how close the entry came to failing.
    """

    name: str
    expect: Expectation
    status: Status
    seeds_tried: int
    lhs: float | None = None
    rhs: float | None = None
    gap: float | None = None
    witness: dict | None = None  # distribution / bindings / q, JSON-ready
    cases_evaluated: int = 0
    cases_skipped: int = 0
    worst_margin: float | None = None

    @property
    def passed(self) -> bool:
        wanted = Status.HELD if self.expect is Expectation.ALWAYS_TRUE else Status.VIOLATED
        return self.status is wanted

    def format_line(self) -> str:
        flag = "ok  " if self.passed else "FAIL"
        detail = (f"{self.status.value} after {self.seeds_tried} samples, "
                  f"{self.cases_evaluated} cases evaluated, {self.cases_skipped} skipped")
        if self.worst_margin is not None:
            detail += f", worst margin {self.worst_margin:.3g}"
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
            "cases_evaluated": self.cases_evaluated,
            "cases_skipped": self.cases_skipped,
            "worst_margin": self.worst_margin,
        }


def _floored(rng, shape, floor=CELL_FLOOR) -> np.ndarray:
    """Normalized exponentials of the given shape, floored per cell."""
    cells = rng.exponential(1.0, size=shape)
    cells /= cells.sum()
    if floor > 0:
        cells = np.maximum(cells, floor)
        cells /= cells.sum()
    return cells


def _random_cells(rng, n_vars, support_range=(2, 4), floor=CELL_FLOOR) -> np.ndarray:
    """The cells of :func:`random_distribution`, drawn in the same order."""
    lo, hi = support_range
    return _floored(rng, tuple(int(rng.integers(lo, hi + 1)) for _ in range(n_vars)), floor)


def _variables(names, shape) -> tuple[Variable, ...]:
    return tuple(Variable(n, tuple(str(i) for i in range(s))) for n, s in zip(names, shape))


def random_distribution(rng, names, support_range=(2, 4), floor=CELL_FLOOR) -> JointDistribution:
    """A positive random joint: normalized exponentials, floored per cell."""
    cells = _random_cells(rng, len(names), support_range, floor)
    return JointDistribution(_variables(names, cells.shape), cells)


def _grid_chunks(shape, values):
    """All normalized tensors with cells drawn from ``values`` (zero-sum
    combinations skipped), as stacks of at most ``GRID_CHUNK``."""
    combos = itertools.product(values, repeat=math.prod(shape))
    while chunk := list(itertools.islice(combos, GRID_CHUNK)):
        cells = np.array(chunk, dtype=float)
        total = cells[:, 0].copy()
        for column in cells.T[1:]:  # left to right, so each tensor is combo / sum(combo)
            total += column
        keep = total > 0
        yield (cells[keep] / total[keep, None]).reshape((-1, *shape))


def grid_distributions(names, values):
    """Deterministic grid of binary-support distributions over ``names``."""
    variables = _variables(names, (2,) * len(names))
    for chunk in _grid_chunks(tuple(v.size for v in variables), values):
        for cells in chunk:
            yield JointDistribution(variables, cells)


FULL_GRID_VALUES = {
    2: tuple(round(0.1 * i, 1) for i in range(1, 10)),  # 9^4 positive tensors
    3: (0.1, 0.5, 0.9),  # 3^8 positive tensors
}
ZERO_GRID_VALUES = {
    2: (0.0, 0.5, 1.0),
    3: (0.0, 1.0),
}


def _margin(lhs, op: str, rhs):
    """How badly the comparison fails (<= 0 means it holds exactly);
    elementwise on arrays."""
    if op == "==":
        return abs(lhs - rhs)
    if op == "<=":
        return lhs - rhs
    if op == ">=":
        return rhs - lhs
    if op == "!=":
        return NEQ_GAP - abs(lhs - rhs)
    raise ValueError(f"unknown comparison operator {op!r}")


def _canonical(ident: str) -> str:
    return ident[0].upper() + ident[1:]


def _search_op(entry) -> str:
    # a violation search for "a != b" hunts for the equality being broken
    op = entry.node.op if entry.check is None else entry.check.op
    if entry.expect is Expectation.EXISTS_VIOLATION and op == "!=":
        return "=="
    return op


def check_entry(entry: SuiteEntry, seeds: int, rng) -> SearchReport:
    """Run one entry: sample, walk the grids, and produce its report."""
    start = time.perf_counter()
    if entry.check is not None:
        report = _check_weights(entry, seeds, rng)
    else:
        report = _Search(entry, seeds).run(rng)
    logger.info("%s: %s, %d cases evaluated, %d skipped, %.3f s", entry.name,
                report.status.value, report.cases_evaluated, report.cases_skipped,
                time.perf_counter() - start)
    return report


@dataclass(frozen=True)
class _Block:
    """One evaluated stack of cases; per case: its distribution's row in
    ``p`` (and ``q``), its ordinal in draw order, the index and values of
    its binding, its margin and whether it is defined."""

    variables: tuple
    p: np.ndarray
    q: np.ndarray | None
    rows: np.ndarray
    ordinal: np.ndarray
    binding: np.ndarray
    bindings: np.ndarray
    margin: np.ndarray
    defined: np.ndarray


class _Search:
    """The random draws, then the zero grid, then (for a witness search)
    the full grid, each evaluated as stacks until a case is confirmed."""

    def __init__(self, entry, seeds):
        self.entry, self.seeds = entry, seeds
        self.node, self.op = entry.node, _search_op(entry)
        self.always = entry.expect is Expectation.ALWAYS_TRUE
        self.threshold = EQ_TOLERANCE if self.always else NEQ_GAP
        self.names = entry.variable_names()
        self.free = [_canonical(i) for i in ex.free_tied_identifiers(self.node)]
        self.blocks = []

    def run(self, rng) -> SearchReport:
        draws = []  # per sample, in this order: sizes, cells, q, binding
        for _ in range(self.seeds):
            cells = _random_cells(rng, len(self.names))
            q = _floored(rng, cells.shape) if self.entry.needs_q else None
            binding = None
            if self.always:
                binding = [int(rng.integers(cells.shape[self.names.index(n)])) for n in self.free]
            draws.append((cells, q, binding))
        # a witness search looks at the first draw alone first: most stop there
        cut = self.seeds if self.always else min(1, self.seeds)
        for part in (range(cut), range(cut, self.seeds)):
            report = self.stage(self.random_batches(draws, part))
            if report is not None:
                return report
        tried = self.seeds
        n = len(self.names)
        shape = (2,) * n
        variables = _variables(self.names, shape)
        q = np.full((1, *shape), 1.0 / 2**n) if self.entry.needs_q else None  # uniform
        # the dense positive grids are the discovery guarantee of witness searches
        grids = (ZERO_GRID_VALUES,) if self.always else (ZERO_GRID_VALUES, FULL_GRID_VALUES)
        for values in (grid[n] for grid in grids if n in grid):
            for cells in _grid_chunks(shape, values):
                ordinals = np.arange(tried, tried + len(cells))
                tried += len(cells)
                report = self.stage([(variables, cells, q, ordinals, None)])
                if report is not None:
                    return report
        return self.report(Status.HELD, tried)

    def random_batches(self, draws, part):
        groups = {}
        for i in part:
            groups.setdefault(draws[i][0].shape, []).append(i)
        for shape, idx in groups.items():
            q = np.stack([draws[i][1] for i in idx]) if self.entry.needs_q else None
            bindings = None
            if self.always:
                bindings = np.array([draws[i][2] for i in idx], dtype=np.intp)
                bindings = bindings.reshape(len(idx), len(self.free))
            yield (_variables(self.names, shape), np.stack([draws[i][0] for i in idx]), q,
                   np.array(idx), bindings)

    def evaluate(self, variables, p, q, ordinals, bindings) -> _Block:
        """Stack the cases of one batch: each distribution with its own
        binding, or (``bindings`` None) with every binding in turn."""
        if bindings is None:
            sizes = [p.shape[1 + self.names.index(n)] for n in self.free]
            combos = list(itertools.product(*map(range, sizes)))
            combos = np.array(combos, dtype=np.intp).reshape(len(combos), len(self.free))
            rows = np.repeat(np.arange(len(p)), len(combos))
            binding = np.tile(np.arange(len(combos)), len(p))
            bindings = combos[binding]
        else:
            rows = np.arange(len(p))
            binding = np.zeros(len(p), dtype=np.intp)
        stack_rows = None if len(rows) == len(p) else rows
        ps = qt.Stack(variables, p, stack_rows)
        qs = None if q is None else qt.Stack(variables, q, stack_rows if len(q) > 1 else None)
        env = {n: bindings[:, j] for j, n in enumerate(self.free)}
        lhs, lhs_defined = ex.evaluate_stack(self.node.lhs, ps, qs, env)
        rhs, rhs_defined = ex.evaluate_stack(self.node.rhs, ps, qs, env)
        return _Block(variables, p, q, rows, ordinals[rows], binding, bindings,
                      _margin(lhs, self.op, rhs), lhs_defined & rhs_defined)

    def stage(self, batches) -> SearchReport | None:
        """Evaluate the batches, then report the first case in draw order
        that is confirmed on its own; None when there is none.  A batch that
        raises raises here too, unless a case before its first is reported."""
        first_block, errors = len(self.blocks), []
        for batch in batches:
            try:
                self.blocks.append(self.evaluate(*batch))
            except (DiscinfoError, ValueError) as exc:
                errors.append((int(batch[3][0]), exc))
        candidates = sorted(
            (int(b.ordinal[i]), int(b.binding[i]), b, int(i))
            for b in self.blocks[first_block:]
            for i in np.flatnonzero(b.defined & (b.margin > self.threshold - MARGIN_SLACK))
        )
        error = min(errors, key=lambda e: e[0], default=None)
        for ordinal, binding, block, i in candidates:
            if error is not None and error[0] <= ordinal:
                break
            found = self.confirm(block, i)
            if found is not None:
                return self.report(Status.VIOLATED, ordinal + 1, (ordinal, binding), found)
        if error is not None:
            raise error[1]
        return None

    def confirm(self, block, i):
        """Case ``i`` of ``block`` evaluated on its own, as (lhs, rhs,
        margin, witness), if it violates the entry (and, for a witness
        search, still does after a JSON round trip); else None."""
        row = block.rows[i]
        d = JointDistribution(block.variables, block.p[row])
        q = None
        if block.q is not None:
            q = JointDistribution(block.variables, block.q[row if len(block.q) > 1 else 0])
        bindings = {n: int(block.bindings[i, j]) for j, n in enumerate(self.free)}
        try:
            lhs = ex.evaluate(self.node.lhs, d, q=q, bindings=bindings)
            rhs = ex.evaluate(self.node.rhs, d, q=q, bindings=bindings)
        except (ZeroProbabilityEvent, SupportMismatch):
            return None
        margin = _margin(lhs, self.op, rhs)
        if margin <= self.threshold:
            return None
        witness = _witness(d, q, bindings)
        if not self.always and not _reconfirm(self.entry, self.op, witness):
            return None
        return lhs, rhs, margin, witness

    def report(self, status, tried, verdict=None, found=None) -> SearchReport:
        """The report, with the cases counted up to the verdict, the
        (ordinal, binding) of the reported case."""
        evaluated = skipped = 0
        worst = None
        for b in self.blocks:
            counted = True
            if verdict is not None:
                ordinal, binding = verdict
                counted = (b.ordinal < ordinal) | ((b.ordinal == ordinal) & (b.binding <= binding))
            defined = b.defined & counted
            evaluated += int(defined.sum())
            skipped += int((~b.defined & counted).sum())
            if self.always and defined.any():
                margin = float(b.margin[defined].max())
                worst = margin if worst is None else max(worst, margin)
        return _report(self.entry, status, tried, evaluated, skipped, worst, found)


def _report(entry, status, tried, evaluated, skipped, worst, found=None) -> SearchReport:
    """The report of an entry; ``found`` is the reported case's (lhs, rhs,
    margin, witness).  With no case evaluated the entry is UNTESTED."""
    if evaluated == 0:
        status = Status.UNTESTED
    lhs, rhs, gap, witness = found or (None,) * 4
    return SearchReport(entry.name, entry.expect, status, tried, lhs=lhs, rhs=rhs, gap=gap,
                        witness=witness, cases_evaluated=evaluated, cases_skipped=skipped,
                        worst_margin=worst)


def _witness(d, q, bindings) -> dict:
    witness = {
        "distribution": d.to_json_dict(),
        "bindings": dict(bindings),
    }
    if q is not None:
        witness["q"] = q.to_json_dict()
    return witness


def _reconfirm(entry, op, w) -> bool:
    """Reload the witness from its serialized form and re-check the verdict."""
    d = JointDistribution.from_json_dict(w["distribution"])
    q = JointDistribution.from_json_dict(w["q"]) if "q" in w else None
    node = entry.node
    lhs = ex.evaluate(node.lhs, d, q=q, bindings=w["bindings"])
    rhs = ex.evaluate(node.rhs, d, q=q, bindings=w["bindings"])
    return _margin(lhs, op, rhs) > NEQ_GAP


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
# Weight-algebra entries: the cross-entropy of unnormalized q under scaling,
# powers, products and mixtures


def _draw_case(rng, row) -> list:
    """One case of a :class:`WeightRow`, drawn in this order: the variable
    count and sizes, each distribution, each weight's cells and then its
    scale, and the factor."""
    drawn = [_random_cells(rng, int(rng.integers(1, 3)))]
    shape = drawn[0].shape
    drawn += [_floored(rng, shape) for _ in range(row.dists - 1)]
    drawn += [(rng.exponential(1.0, size=shape) + CELL_FLOOR) * float(rng.uniform(0.2, 5.0))
              for _ in range(row.weights)]
    if row.factor is not None:
        drawn.append(np.full((1,) * len(shape), float(rng.uniform(*row.factor))))
    return drawn


def _check_weights(entry, seeds, rng) -> SearchReport:
    """Draw every case of a :class:`WeightRow`, evaluate its sides once per
    support shape, and report the first violating case in draw order."""
    row = entry.check
    draws = [_draw_case(rng, row) for _ in range(seeds)]
    groups = {}
    for i, drawn in enumerate(draws):
        groups.setdefault(drawn[0].shape, []).append(i)
    lhs, rhs, defined = np.empty(seeds), np.empty(seeds), np.empty(seeds, dtype=bool)
    for shape, idx in groups.items():
        variables = _variables(("X", "Y"), shape)
        codes = []

        def ce(p, q):
            ps = qt.Stack(variables, p)
            qs = ps if q is p else qt.Stack(variables, q)
            values, undefined = qt._expected_ic_nats(ps, qs, ps.names, ())
            codes.append(undefined)
            return values.reshape(-1, *(1,) * len(shape))

        left, right = row.sides(ce, *map(np.stack, zip(*(draws[i] for i in idx))))
        lhs[idx], rhs[idx], defined[idx] = left.ravel(), right.ravel(), True
        for undefined in codes:
            defined[idx] &= undefined == 0
    always = entry.expect is Expectation.ALWAYS_TRUE
    margin = _margin(lhs, _search_op(entry), rhs)
    bad = np.flatnonzero(defined & (margin > (EQ_TOLERANCE if always else NEQ_GAP)))
    tried = int(bad[0]) + 1 if len(bad) else seeds
    counted = defined[:tried]
    worst = float(margin[:tried][counted].max()) if always and counted.any() else None
    found = None
    if len(bad):
        i = bad[0]
        d = JointDistribution(_variables(("X", "Y"), draws[i][0].shape), draws[i][0])
        found = (float(lhs[i]), float(rhs[i]), float(margin[i]), _witness(d, None, {}))
    return _report(entry, Status.VIOLATED if found else Status.HELD, tried,
                   int(counted.sum()), int(tried - counted.sum()), worst, found)


def _mass(w):
    """The total mass of each weight, shaped like a factor."""
    return w.sum(axis=tuple(range(1, w.ndim)), keepdims=True)


def _mix(a, p1, p2):
    return a * p1 + (1.0 - a) * p2


# name, distributions, weights, factor interval, operator, sides(ce, *drawn)
_WEIGHT_ALGEBRA = [
    ("ce_scaling_shifts_by_ic", 1, 1, (0.1, 3.0), "==",
     lambda ce, p, q, a: (ce(p, q * a), ce(p, q) - np.log(a))),
    ("ce_power_scales_linearly", 1, 1, (0.2, 2.5), "==",
     lambda ce, p, q, a: (ce(p, q ** a), a * ce(p, q))),
    ("ce_product_splits", 1, 2, None, "==",
     lambda ce, p, q1, q2: (ce(p, q1 * q2), ce(p, q1) + ce(p, q2))),
    ("ce_linear_in_left_mixture", 2, 1, (0.0, 1.0), "==",
     lambda ce, p1, p2, q, a: (ce(_mix(a, p1, p2), q), _mix(a, ce(p1, q), ce(p2, q)))),
    ("ce_mixture_exponent_form", 2, 1, (0.05, 0.95), "==",
     lambda ce, p1, p2, q, a: (ce(_mix(a, p1, p2), q), ce(p1, q ** a) + ce(p2, q ** (1.0 - a)))),
    ("ce_lower_bound_with_mass", 1, 1, None, ">=",
     lambda ce, p, q: (ce(p, q), ce(p, p) - np.log(_mass(q)))),
    ("kl_lower_bound_with_mass", 1, 1, None, ">=",
     lambda ce, p, q: (ce(p, q) - ce(p, p), -np.log(_mass(q)))),
    ("kl_mass_bound_equality_case", 1, 0, (0.25, 4.0), "==",
     lambda ce, p, c: (ce(p, p * c) - ce(p, p), -np.log(c))),
]


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

def default_suite() -> IdentitySuite:
    """Every shipped identity plus the counterexample searches."""
    entries = [
        SuiteEntry(name, Expectation.ALWAYS_TRUE, expression=text)
        for name, text in _EXPRESSION_ALWAYS
    ]
    entries += [
        SuiteEntry(name, Expectation.ALWAYS_TRUE, check=WeightRow(*row))
        for name, *row in _WEIGHT_ALGEBRA
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
