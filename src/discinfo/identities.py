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

The cases are evaluated as stacks: all random draws as one stack, each
padded with exact zeros to the largest drawn size of every variable (exact
zeros are 0 * log 0 and carry no expectation weight), each grid as one
array, and every binding of the free tied outcomes inside a case's own
support as further stack elements; an "always" entry over two variables
pads its zero grid into its random stack, so both are one evaluation.  The
first case in draw order whose stacked margin crosses the threshold is cut
to its own support and re-evaluated on its own before it is reported, so
verdicts and witnesses do not depend on how the cases were stacked: padding
changes no value in exact arithmetic, but a padded sum runs in another order
and can move its last bit, which a worst margin may show.  An expression
writes only the outcomes 0 and 1, which every case has (checked when its
entry is built), so an error it meets is the same at every case and is
raised where the search meets it.

The weight-algebra entries (scaled, powered, multiplied and mixed
weights, which the notation cannot express) are rows of one table whose
sides are written over stacks and evaluated by the same kernel.  A row is
one more source of cases for the same search, staged, counted and
reported as an expression is; it has no tied outcome and walks no grid,
its draws form one stack per variable count, and its witness is not
re-checked after a round trip, since its weights have no serialized form.
"""

from __future__ import annotations

import functools
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
    DEFAULT_SEEDS,
    EQ_TOLERANCE,
    MARGIN_SLACK,
    NEQ_GAP,
    WITNESS_SEPARATION,
    JointDistribution,
    Variable,
    integer,
)
from .errors import CounterexampleMismatch, InvalidIndex, ParseError, UnknownVariable

SUPPORT_SIZES = range(2, 5)  # the support sizes a random variable is drawn with

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

    Expression entries are comparison expressions in the surface notation
    that name at least one variable, the variables whose distributions the
    search draws; bare lowercase identifiers are searched over all their
    outcomes.  An outcome written in the expression (``y=1``) must be 0 or
    1, the outcomes every case of the search has, else
    :class:`UnknownVariable` names the entry.
    ``check`` entries are weight-algebra rows for the comparisons the
    notation cannot express (mixtures, scaled and powered weights).
    """

    name: str
    expect: Expectation
    expression: str | None = None
    check: object = None
    needs_q: bool = field(init=False, default=False)

    def __post_init__(self):
        if not isinstance(self.expect, Expectation):
            raise TypeError(f"entry {self.name!r}: expect {self.expect!r} is not an Expectation")
        if (self.expression is None) == (self.check is None):
            raise ValueError("an entry needs exactly one of expression / check")
        if self.check is not None and not isinstance(self.check, WeightRow):
            raise TypeError("an entry's check must be a WeightRow")
        if self.expression is not None:
            node = ex.parse(self.expression)
            if not ex._is_comparison(node):
                raise ValueError(f"entry {self.name!r} is not a comparison")
            names, free, letters, written = ex.read_terms(node)
            if not names:
                raise ValueError(f"entry {self.name!r} names no variable; the search draws "
                                 "distributions over the variables an entry names")
            for t in written:
                try:
                    Variable(*_canonical([t.name]), ("0", "1")).index_of(t.outcome)
                except InvalidIndex as exc:
                    raise UnknownVariable(
                        f"entry {self.name!r}: {exc}; an entry may write only the "
                        "outcomes 0 and 1, which every case of the search has") from None
            object.__setattr__(self, "_node", node)
            object.__setattr__(self, "_names", _canonical(names))
            object.__setattr__(self, "_free", _canonical(free))
            object.__setattr__(self, "needs_q", "q" in letters)

    @property
    def node(self):
        return getattr(self, "_node", None)

    def variable_names(self) -> tuple[str, ...]:
        """Canonical distribution variable names for the identifiers used."""
        return getattr(self, "_names", ())


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


@functools.cache
def _indices(shape) -> np.ndarray:
    """``np.indices(shape)``, read-only, built once per process."""
    indices = np.indices(shape)
    indices.flags.writeable = False
    return indices


def _inside(sizes) -> np.ndarray:
    """Per case, which cells of the padded shape (each variable's largest
    drawn size) lie inside the case's own support ``sizes[i]``."""
    full = tuple(np.maximum.reduce(sizes, axis=0, initial=1).tolist())
    return np.logical_and.reduce(_indices(full) < sizes.reshape(*sizes.shape, *(1,) * len(full)),
                                 axis=1)


def _floored(rng, inside, floor=CELL_FLOOR) -> np.ndarray:
    """Normalized exponentials inside each case's support, floored per cell
    there and renormalized; the cells outside are exact zeros."""
    axes = tuple(range(1, inside.ndim))
    cells = np.where(inside, rng.exponential(1.0, size=inside.shape), 0.0)
    cells /= np.add.reduce(cells, axis=axes, keepdims=True)
    if floor > 0:
        cells = np.where(inside, np.maximum(cells, floor), 0.0)
        cells /= np.add.reduce(cells, axis=axes, keepdims=True)
    return cells


def _crop(variables, arrays, row, own):
    """One case of a padded stack: its variables and arrays cut to its support ``own``."""
    cut = tuple(slice(s) for s in own)
    return (tuple(Variable(v.name, v.support[:s]) for v, s in zip(variables, own)),
            [a[row if len(a) > 1 else 0][cut] for a in arrays])


@functools.cache  # built once per process: a Variable is frozen
def _variables(names, shape) -> tuple[Variable, ...]:
    return tuple(Variable(n, tuple(str(i) for i in range(s))) for n, s in zip(names, shape))


@functools.cache
def _grid(shape, values):
    """All normalized tensors with cells drawn from ``values`` (zero-sum
    combinations skipped), as one read-only stack built once per process."""
    cells = np.array(list(itertools.product(values, repeat=math.prod(shape))), dtype=float)
    total = functools.reduce(np.add, cells.T)  # left to right: each tensor is combo / sum(combo)
    grid = (cells[total > 0] / total[total > 0, None]).reshape((-1, *shape))
    grid.flags.writeable = False
    return grid


FULL_GRID_VALUES = {
    2: tuple(round(0.1 * i, 1) for i in range(1, 10)),  # 9^4 positive tensors
    3: (0.1, 0.5, 0.9),  # 3^8 positive tensors
}
ZERO_GRID_VALUES = {
    2: (0.0, 0.5, 1.0),
    3: (0.0, 1.0),
}


def _canonical(identifiers) -> tuple[str, ...]:
    """The names of the variables the identifiers name, once each, as the
    search's cases print them; identifiers equal up to case name one variable."""
    return tuple(dict.fromkeys(ident.capitalize() for ident in identifiers))


def _search_op(entry) -> str:
    # a violation search for "a != b" hunts for the equality being broken
    op = entry.node.op if entry.check is None else entry.check.op
    if entry.expect is Expectation.EXISTS_VIOLATION and op == "!=":
        return "=="
    return op


def check_entry(entry: SuiteEntry, seeds: int, rng) -> SearchReport:
    """Run one entry: sample, walk the grids, and produce its report."""
    start = time.perf_counter()
    report = _Search(entry, seeds).run(rng)
    logger.info("%s: %s, %d cases evaluated, %d skipped, %.3f s", entry.name,
                report.status.value, report.cases_evaluated, report.cases_skipped,
                time.perf_counter() - start)
    return report


@dataclass(frozen=True)
class _Block:
    """One evaluated stack of cases: the stacked arrays of its draws (the
    first holds the distributions) and their own support sizes, and per case:
    its distribution's row in them, its ordinal in draw order, the index and
    values of its binding, its margin and whether it is defined."""

    variables: tuple
    arrays: list
    sizes: np.ndarray
    rows: np.ndarray
    ordinal: np.ndarray
    binding: np.ndarray
    bindings: np.ndarray
    margin: np.ndarray
    defined: np.ndarray


def _padded_into(stack, grid):
    """The grid's batch appended to the random stack's, each of its arrays
    padded with exact zeros to the stack's padded shape."""
    variables, arrays, sizes, rows, *cases = stack
    _, grid_arrays, grid_sizes, grid_rows, *grid_cases = grid
    merged = []
    for a, g in zip(arrays, grid_arrays):
        out = np.zeros((len(a) + len(grid_sizes), *a.shape[1:]))
        out[:len(a)] = a
        out[(slice(len(a), None), *map(slice, g.shape[1:]))] = g  # a grid's q is one tensor
        merged.append(out)
    return (variables, merged, np.concatenate((sizes, grid_sizes)),
            np.concatenate((rows, grid_rows + len(sizes))),
            *map(np.concatenate, zip(cases, grid_cases)))


class _Search:
    """The random draws, then for an expression the zero grid and (for a
    witness search) the full grid, each evaluated as stacks until a case is
    confirmed.  An "always" search over two variables pads its zero grid
    into its random stack and evaluates both as one stage; over three, the
    padding would cost a grid case 8 times its cells, so its grid is a stage
    of its own.  A weight row's cases are its random draws alone.  An error
    raised by a stack propagates where the search meets it."""

    def __init__(self, entry, seeds):
        self.entry, self.seeds = entry, seeds
        self.row, self.node, self.op = entry.check, entry.node, _search_op(entry)
        self.always = entry.expect is Expectation.ALWAYS_TRUE
        self.threshold = EQ_TOLERANCE if self.always else NEQ_GAP
        if self.row is None:
            self.names, self.free = entry.variable_names(), entry._free
            # the dense positive grids are the discovery guarantee of witness searches
            self.grids = (ZERO_GRID_VALUES,) if self.always else (ZERO_GRID_VALUES,
                                                                  FULL_GRID_VALUES)
        else:  # one or two variables per case, no tied outcome and no grid
            self.names, self.free, self.grids = ("X", "Y"), (), ()
        self.free_axes = [self.names.index(n) for n in self.free]
        self.blocks = []

    def run(self, rng) -> SearchReport:
        stacks = self.draw(rng)
        grids = self.grid_batches()
        if not self.always:  # a witness search looks at its first draw alone: most stop there
            stages = (self.random_batches(stacks, part)
                      for part in (range(1), range(1, self.seeds)))
        elif len(self.names) == 2 and stacks and self.grids:
            stages = [[_padded_into(self.batch(*stacks[0]), next(grids))]]
        else:
            stages = [[self.batch(*stack) for stack in stacks]]
        for batches in itertools.chain(stages, ([grid] for grid in grids)):
            if (report := self.stage(batches)) is not None:
                return report
        return self.report(Status.HELD, sum(len(b.sizes) for b in self.blocks))

    def draw(self, rng):
        """Every random case at once, as padded stacks, one per variable count,
        each (variables, arrays, ordinals, bindings, own sizes).  Drawn in this
        order: a row's variable counts, the sizes, each distribution's (or q's)
        cells, each weight's cells then scales, the factors, and an "always"
        search's bindings, inside each case's support."""
        n, width = self.seeds, len(self.names)
        counts = rng.integers(1, 3, size=n) if self.row else np.full(n, width)
        sizes = rng.integers(SUPPORT_SIZES.start, SUPPORT_SIZES.stop, size=(n, width))
        sizes[np.arange(width) >= counts[:, None]] = 1  # a row's one-variable cases
        inside = _inside(sizes)
        unit = (n,) + (1,) * width
        arrays = [_floored(rng, inside)
                  for _ in range(self.row.dists if self.row else 1 + self.entry.needs_q)]
        for _ in range(self.row.weights if self.row else 0):
            cells = np.where(inside, rng.exponential(1.0, size=inside.shape) + CELL_FLOOR, 0.0)
            arrays.append(cells * rng.uniform(0.2, 5.0, size=unit))
        if self.row and self.row.factor is not None:
            arrays.append(rng.uniform(*self.row.factor, size=unit))
        bindings = rng.integers(0, sizes[:, self.free_axes]) if self.always else None
        stacks = []
        for count in sorted(set(counts.tolist())):  # np.unique would import numpy.ma
            idx = (counts == count).nonzero()[0]
            cut = (idx,) + (slice(None),) * count + (0,) * (width - count)
            stacks.append((_variables(self.names, inside.shape[1:1 + count]),
                           [a[cut] for a in arrays], idx,
                           None if bindings is None else bindings[idx], sizes[idx, :count]))
        return stacks

    def grid_batches(self):
        """Each grid the entry walks as one batch, numbered on after the random
        draws, each built when the search reaches it."""
        n = len(self.names)
        shape = (2,) * n
        variables = _variables(self.names, shape)
        q = [np.full((1, *shape), 1.0 / 2**n)] if self.entry.needs_q else []  # uniform
        tried = self.seeds
        for values in (grid[n] for grid in self.grids if n in grid):
            cells = _grid(shape, values)
            yield self.batch(variables, [cells, *q], np.arange(tried, tried + len(cells)), None,
                             np.broadcast_to(shape, (len(cells), n)))
            tried += len(cells)

    def random_batches(self, stacks, part):
        """The batch of the cases of each stack whose ordinals are in ``part``.
        A stack's ordinals ascend, so the cases in ``part`` are one slice of it."""
        for variables, arrays, ordinals, bindings, sizes in stacks:
            start, stop = ordinals.searchsorted((part.start, part.stop))
            if start < stop:
                cut = slice(start, stop)
                yield self.batch(variables, [a[cut] for a in arrays], ordinals[cut],
                                 None if bindings is None else bindings[cut], sizes[cut])

    def batch(self, variables, arrays, ordinals, bindings, sizes):
        """The cases of a stack, as (variables, arrays, own sizes) and per case
        (row, ordinal, binding index, binding): each distribution with its own
        binding, or (``bindings`` None) with every binding inside its own
        support in turn."""
        if bindings is None:
            combos = list(itertools.product(*(range(variables[j].size) for j in self.free_axes)))
            combos = np.array(combos, dtype=np.intp).reshape(len(combos), len(self.free))
            rows, binding = np.divmod(np.arange(len(sizes) * len(combos)), len(combos))
            bindings = combos[binding]
            own = np.logical_and.reduce(bindings < sizes[rows][:, self.free_axes], axis=1)
            rows, binding, bindings = rows[own], binding[own], bindings[own]
        else:
            rows = np.arange(len(sizes))
            binding = np.zeros(len(sizes), dtype=np.intp)
        return variables, arrays, sizes, rows, ordinals[rows], binding, bindings

    def evaluate(self, variables, arrays, sizes, rows, ordinals, binding, bindings) -> _Block:
        """One batch's cases, evaluated as one stack."""
        lhs, rhs, defined = self.sides(variables, arrays, rows, bindings)
        return _Block(variables, arrays, sizes, rows, ordinals, binding, bindings,
                      ex.margin(lhs, self.op, rhs), defined)

    def sides(self, variables, arrays, rows, bindings):
        """Both sides of every case, and whether each case is defined."""
        if self.row is not None:
            codes = []
            head = tuple(qt.Term(v.name) for v in variables)

            def ce(p, q):
                ps = qt.Stack(variables, p)
                qs = ps if q is p else qt.Stack(variables, q)
                values, undefined = qt._expected_ic_nats(ps, qs, head, ())
                codes.append(undefined)
                return values.reshape(-1, *(1,) * len(variables))

            left, right = self.row.sides(ce, *arrays)
            defined = np.ones(len(rows), dtype=bool)
            for undefined in codes:
                defined &= undefined == 0
            return left.ravel(), right.ravel(), defined
        stack_rows = None if len(rows) == len(arrays[0]) else rows
        ps = qt.Stack(variables, arrays[0], stack_rows)
        qs = None
        if self.entry.needs_q:
            q = arrays[1]
            qs = qt.Stack(variables, q, stack_rows if len(q) > 1 else None)
        env = {n: bindings[:, j] for j, n in enumerate(self.free)}
        node, scope = ex._stack_scope(self.node, ps, qs, env)  # one checked read, both sides
        (lhs, lhs_code), (rhs, rhs_code) = (ex._eval(s, scope) for s in (node.lhs, node.rhs))
        lhs, rhs = (a if len(a) == scope.n else np.broadcast_to(a, scope.n) for a in (lhs, rhs))
        # confirm writes into the stage's defined
        defined = np.logical_and(lhs_code == 0, rhs_code == 0, out=np.empty(scope.n, dtype=bool))
        return lhs, rhs, defined

    def stage(self, batches) -> SearchReport | None:
        """Evaluate the batches, then report the first case in draw order
        that is confirmed on its own; None when there is none."""
        first_block = len(self.blocks)
        self.blocks += (self.evaluate(*batch) for batch in batches)
        candidates = sorted(
            (int(b.ordinal[i]), int(b.binding[i]), b, int(i))
            for b in self.blocks[first_block:]
            for i in (b.defined & (b.margin > self.threshold - MARGIN_SLACK)).nonzero()[0]
        )
        for ordinal, binding, block, i in candidates:
            found = self.confirm(block, i)
            if found is not None:
                return self.report(Status.VIOLATED, ordinal + 1, (ordinal, binding), found)
        return None

    def confirm(self, block, i):
        """Case ``i`` of ``block`` as (lhs, rhs, margin, witness) if it
        violates the entry, else None.  The case is cut to its own support
        and evaluated by its sides on a stack of one; an expression's witness
        of a violation is evaluated so again after a JSON round trip."""
        row, bindings = block.rows[i], block.bindings[[i]]
        variables, cells = _crop(block.variables, block.arrays, row, block.sizes[row])
        (lhs,), (rhs,), (defined,) = self.sides(variables, [c[None] for c in cells], [0], bindings)
        margin = float(ex.margin(lhs, self.op, rhs))
        # the case counts as it is on its own, not padded: skipped if undefined, else its margin
        block.defined[i], block.margin[i] = defined, margin
        if not defined or margin <= self.threshold:
            return None
        witness = {"distribution": JointDistribution(variables, cells[0]).to_json_dict(),
                   "bindings": {n: int(b) for n, b in zip(self.free, bindings[0])}}
        if self.entry.needs_q:
            witness["q"] = JointDistribution(variables, cells[1]).to_json_dict()
        if self.row is None and not self.always:  # reload the witness and re-check it
            dists = [JointDistribution.from_json_dict(witness[k]) for k in ("distribution", "q")
                     if k in witness]
            (again_lhs,), (again_rhs,), (defined,) = self.sides(
                dists[0].variables, [d.probs[None] for d in dists], [0], bindings)
            if not defined or ex.margin(again_lhs, self.op, again_rhs) <= self.threshold:
                return None
        return float(lhs), float(rhs), margin, witness

    def report(self, status, tried, verdict=None, found=None) -> SearchReport:
        """The report, with the cases counted up to the verdict, the
        (ordinal, binding) of the reported case; ``found`` is that case's
        (lhs, rhs, margin, witness).  With no case evaluated the entry is
        UNTESTED."""
        evaluated = skipped = 0
        worst = None
        for b in self.blocks:
            defined, cases = b.defined, len(b.defined)
            if verdict is not None:
                ordinal, binding = verdict
                counted = (b.ordinal < ordinal) | ((b.ordinal == ordinal) & (b.binding <= binding))
                defined, cases = defined & counted, int(np.count_nonzero(counted))
            n = int(np.count_nonzero(defined))
            evaluated, skipped = evaluated + n, skipped + cases - n
            if self.always and n:
                margin = float(np.maximum.reduce(b.margin[defined]))
                worst = margin if worst is None else max(worst, margin)
        if evaluated == 0:
            status = Status.UNTESTED
        lhs, rhs, gap, witness = found or (None,) * 4
        return SearchReport(self.entry.name, self.entry.expect, status, tried, lhs=lhs, rhs=rhs,
                            gap=gap, witness=witness, cases_evaluated=evaluated,
                            cases_skipped=skipped, worst_margin=worst)


def check_suite(suite: IdentitySuite, seeds: int = DEFAULT_SEEDS,
                rng_seed: int = 0) -> list[SearchReport]:
    """Check every entry; reports come back in entry order and are fully
    deterministic for a given ``rng_seed``.  Both are integers (see
    :func:`~discinfo.dist.integer`), ``seeds`` at least 1 and ``rng_seed``
    at least 0."""
    seeds = integer(seeds, f"seeds = {seeds!r}")
    rng_seed = integer(rng_seed, f"rng_seed = {rng_seed!r}")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if rng_seed < 0:
        raise ValueError("rng_seed must be >= 0")
    reports = []
    for i, entry in enumerate(suite.entries):
        rng = np.random.default_rng([rng_seed, i])
        reports.append(check_entry(entry, seeds, rng))
    return reports


# ---------------------------------------------------------------------------
# Weight-algebra entries: the cross-entropy of unnormalized q under scaling,
# powers, products and mixtures


def _mass(w):
    """The total mass of each weight, shaped like a factor."""
    return np.add.reduce(w, axis=tuple(range(1, w.ndim)), keepdims=True)


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
        try:
            entries.append(SuiteEntry(f"L{lineno}: {expr_text.strip()}", expect,
                                      expression=expr_text.strip()))
        except ParseError as exc:
            exc.args = (f"line {lineno}: {exc}",)
            raise
    if not entries:
        raise ValueError("the suite file contains no entries")
    return IdentitySuite(tuple(entries))


# ---------------------------------------------------------------------------
# Reference witnesses


def three_cell_distribution(order=("X", "Y")) -> JointDistribution:
    """Uniform mass on the cells (x,y) in {(0,0), (1,0), (1,1)} of two binary
    variables: the smallest distribution where conditioning on y=1 pins X
    down while the marginal of X stays uncertain."""
    if order not in (("X", "Y"), ("Y", "X")):
        raise ValueError("order must be a permutation of ('X', 'Y')")
    cells = np.array([[1.0, 0.0], [1.0, 1.0]]) / 3.0  # axes: x, y
    return JointDistribution(tuple(Variable(n, ("0", "1")) for n in order),
                             cells if order == ("X", "Y") else cells.T)


def chaining_distribution() -> JointDistribution:
    """Three binary variables X, Y1, Y2 where conditioning on (y1, y2)
    shifts X away from its y1-only conditional:

    * p(y1) uniform,
    * given y1 = 0: (x, y2) uniform over the four cells,
    * given y1 = 1: y2 uniform; x uniform when y2 = 0, but x = 0 surely
      when y2 = 1.
    """
    variables = tuple(Variable(n, ("0", "1")) for n in ("X", "Y1", "Y2"))
    return JointDistribution(variables, [[[0.125, 0.125], [0.125, 0.25]],  # axes: x, y1, y2
                                         [[0.125, 0.125], [0.125, 0.0]]])


# the expression whose value on its witness is each WitnessReport field
_THREE_CELL_EXPRESSIONS = {
    "three_cell_expected_marginal_ic": "E_{p(x|y=1)}[H[x]]",
    "three_cell_marginal_entropy": "H[X]",
    "three_cell_cond_outcome": "H[y=1|X]",
    "three_cell_wrong_decomposition": "H[X,y=1] - H[X]",
}
_CHAINING_EXPRESSIONS = {
    "chaining_pointwise_expectation": "E_{p(x|y1=1,y2=1)}[I[y1=1;x]]",
    "chaining_surprise": "I[y1=1;X]",
    "chaining_lhs": "I[y1=1,y2=1;X]",
    "chaining_rhs": "I[y1=1;X] + I[y2=1;X|y1=1]",
}


@dataclass(frozen=True)
class WitnessReport:
    """Computed values for the two built-in reference counterexamples, each
    the value of an expression on the three-cell or the chaining witness."""

    three_cell_expected_marginal_ic: float
    three_cell_marginal_entropy: float
    three_cell_cond_outcome: float
    three_cell_wrong_decomposition: float
    chaining_pointwise_expectation: float
    chaining_surprise: float
    chaining_lhs: float
    chaining_rhs: float

    def golden_values(self):
        """(label, computed, expected) triples checked against ``EQ_TOLERANCE``,
        in nats; each label evaluates to its computed value on its witness."""
        return [
            ("E_{p(x|y=1)}[H[x]]", self.three_cell_expected_marginal_ic, math.log(1.5)),
            ("H[X]", self.three_cell_marginal_entropy, math.log(3.0 * 2.0 ** (1.0 / 3.0) / 2.0)),
            ("H[y=1|X] - H[X,y=1] + H[X]",
             self.three_cell_cond_outcome - self.three_cell_wrong_decomposition,
             math.log(2.0) / 3.0),
            ("E_{p(x|y1=1,y2=1)}[I[y1=1;x]]", self.chaining_pointwise_expectation,
             math.log(6.0 / 5.0)),
            ("I[y1=1;X]", self.chaining_surprise,
             math.log(2.0 * math.sqrt(3.0) * 5.0**0.25 / 5.0)),
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
        values = {field: ex.evaluate(e, d3) for field, e in _THREE_CELL_EXPRESSIONS.items()}
        if order == ("X", "Y"):
            base3 = values
        elif any(abs(values[k] - base3[k]) > tolerance for k in values):
            raise CounterexampleMismatch("axis order changed the three-cell values")
    dc = chaining_distribution()
    report = WitnessReport(
        **base3, **{field: ex.evaluate(e, dc) for field, e in _CHAINING_EXPRESSIONS.items()}
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
