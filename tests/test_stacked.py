"""The stacked kernel, the stacked evaluator and the batched identity search.

``data/golden_search.json`` holds search reports recorded from the
one-case-at-a-time search that the batched one replaced: the default suite
and a suite file, both at 25 random samples with ``rng_seed`` 7.  The
batched search must reproduce their verdicts, sample counts and witnesses
exactly, and their values to 1e-12.

``data/golden_weight_algebra.json`` holds the full reports of the eight
weight-algebra entries of the default suite, recorded from their
one-case-at-a-time checks at 1, 25 and 500 random samples with ``rng_seed``
0 and 7; the stacked rows must reproduce them the same way.

``data/golden_search_counts.json`` holds the full reports of the default
suite at 500 random samples with ``rng_seed`` 0 and at 50 with ``rng_seed``
1, recorded from the search that read a stage's stacks and bindings once per
side of the comparison.  The search must reproduce their verdicts, sample
and case counts and witnesses exactly, and their values and worst margins to
1e-12.
"""

import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from discinfo import (
    Expectation,
    JointDistribution,
    SuiteEntry,
    SupportMismatch,
    UnnormalizedWeight,
    Variable,
    ZeroProbabilityEvent,
    check_suite,
    condition,
    default_suite,
    diagram,
    entropy,
    evaluate,
    mutual_info,
    parse_suite_file,
    three_cell_distribution,
)
from discinfo import quantities as qt
from discinfo.expr import evaluate_stack, read_terms
from discinfo.identities import (
    Status,
    WeightRow,
    _grid,
    _Search,
    check_entry,
)

from notation import divergence
from oracle import oracle_cross_entropy

DATA = Path(__file__).resolve().parent / "data" / "golden_search.json"
WEIGHT_DATA = DATA.with_name("golden_weight_algebra.json")
COUNTS_DATA = DATA.with_name("golden_search_counts.json")
LN2 = math.log(2.0)


def _same_report(got, want):
    assert (got["name"], got["status"], got["seeds_tried"]) == (
        want["name"], want["status"], want["seeds_tried"])
    assert got["witness"] == want["witness"]
    for key in ("lhs", "rhs", "gap"):
        if want[key] is None:
            assert got[key] is None
        else:
            assert got[key] == pytest.approx(want[key], abs=1e-12)


class TestGoldenReports:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(DATA.read_text(encoding="utf-8"))

    def test_default_suite(self, golden):
        run = golden["recorded_with"]
        reports = check_suite(default_suite(), seeds=run["seeds"], rng_seed=run["rng_seed"])
        assert len(reports) == len(golden["default_suite"])
        for got, want in zip(reports, golden["default_suite"]):
            _same_report(got.to_json_dict(), want)

    def test_suite_file(self, golden):
        run = golden["recorded_with"]
        suite = parse_suite_file(golden["suite_file"])
        reports = check_suite(suite, seeds=run["seeds"], rng_seed=run["rng_seed"])
        assert len(reports) == len(golden["suite_file_reports"])
        for got, want in zip(reports, golden["suite_file_reports"]):
            _same_report(got.to_json_dict(), want)

    def test_false_identities_are_pinned(self, golden):
        # the first violating draw of each false identity is in the record
        wanted = {r["name"]: r for r in golden["suite_file_reports"]}
        for name in ("L2: H[X] == H[X|Y]", "L3: I[X;Y] >= H[X]"):
            assert wanted[name]["status"] == "VIOLATED"
            assert wanted[name]["witness"]["distribution"]["probs"]


class TestGoldenCounts:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(COUNTS_DATA.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("run", [0, 1], ids=["500_samples_rng_seed_0", "50_samples_rng_seed_1"])
    def test_recorded_reports(self, golden, run):
        run = golden["runs"][run]
        reports = check_suite(default_suite(), seeds=run["seeds"], rng_seed=run["rng_seed"])
        assert len(reports) == len(run["reports"]) == len(default_suite().entries)
        for got, want in zip(reports, run["reports"]):
            got = got.to_json_dict()
            for key in ("name", "status", "seeds_tried", "cases_evaluated", "cases_skipped",
                        "witness"):
                assert got[key] == want[key], (want["name"], key)
            for key in ("lhs", "rhs", "gap", "worst_margin"):
                if want[key] is None:
                    assert got[key] is None, (want["name"], key)
                else:
                    assert got[key] == pytest.approx(want[key], abs=1e-12), (want["name"], key)


class TestWeightAlgebraReports:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(WEIGHT_DATA.read_text(encoding="utf-8"))

    def test_recorded_reports(self, golden):
        entries = default_suite().entries
        index = {e.name: i for i, e in enumerate(entries)}
        assert [e.name for e in entries if e.check is not None] == golden["entries"]
        assert len(golden["runs"]) == 6
        for run in golden["runs"]:
            for want in run["reports"]:
                i = index[want["name"]]
                rng = np.random.default_rng([run["rng_seed"], i])
                got = check_entry(entries[i], run["seeds"], rng).to_json_dict()
                _same_report(got, want)
                for key in ("expect", "passed", "cases_evaluated", "cases_skipped"):
                    assert got[key] == want[key]
                assert got["worst_margin"] == pytest.approx(want["worst_margin"], abs=1e-12)


def _padded(rng, sizes, floor=1e-3):
    """The documented bulk draw of one tensor per case: exponentials over
    the padded shape, normalized, floored and renormalized inside each
    case's support, exact zeros outside; returns (cells, inside)."""
    full = sizes.max(axis=0)
    inside = np.ones((len(sizes), *full), dtype=bool)
    for j, k in enumerate(full):
        axis = np.arange(k).reshape((k,) + (1,) * (len(full) - 1 - j))
        inside &= axis < sizes[:, j].reshape((-1,) + (1,) * len(full))
    cells = np.where(inside, rng.exponential(1.0, size=inside.shape), 0.0)
    axes = tuple(range(1, cells.ndim))
    cells /= cells.sum(axis=axes, keepdims=True)
    cells = np.where(inside, np.maximum(cells, floor), 0.0)
    return cells / cells.sum(axis=axes, keepdims=True), inside


def _own(names, cells, size):
    """A case of a padded draw as a distribution cut to its own support."""
    variables = tuple(Variable(n, [str(k) for k in range(s)]) for n, s in zip(names, size))
    return variables, cells[tuple(slice(s) for s in size)]


def _replay_weight_cases(rng, seeds):
    """The (p, q, a) of a one-distribution, one-weight row with a factor on
    (0.1, 3.0), drawn in bulk in the documented order: the variable counts,
    the sizes, p's cells, the weight's cells, its scales, the factors."""
    counts = rng.integers(1, 3, size=seeds)
    sizes = rng.integers(2, 5, size=(seeds, 2))
    sizes[counts == 1, 1] = 1
    p_cells, inside = _padded(rng, sizes)
    weights = np.where(inside, rng.exponential(1.0, size=inside.shape) + 1e-3, 0.0)
    scales = rng.uniform(0.2, 5.0, size=seeds)
    factors = rng.uniform(0.1, 3.0, size=seeds)
    cases = []
    for i in range(seeds):
        own = tuple(sizes[i, :counts[i]]) + (1,) * (2 - counts[i])
        variables, cells = _own("XY", p_cells[i], own)
        _, w = _own("XY", weights[i] * scales[i], own)
        shape = own[:counts[i]]
        p = JointDistribution(variables[:counts[i]], cells.reshape(shape))
        q = UnnormalizedWeight(variables[:counts[i]], w.reshape(shape))
        cases.append((p, q, float(factors[i])))
    return cases


class TestWeightRows:
    @pytest.mark.parametrize("rng_seed", range(4))
    @pytest.mark.parametrize("above", [0.0, 2.7])
    def test_a_false_row_is_violated_at_its_first_violating_draw(self, rng_seed, above):
        # scaling q by a shifts the cross-entropy by -log a (here only for
        # a > above): the first draw where that is not ~0 fails
        row = WeightRow(1, 1, (0.1, 3.0), "==",
                        lambda ce, p, q, a: (ce(p, q * np.where(a > above, a, 1.0)), ce(p, q)))
        entry = SuiteEntry("scaling_is_free", Expectation.ALWAYS_TRUE, check=row)
        report = check_entry(entry, 40, np.random.default_rng(rng_seed))
        cases = _replay_weight_cases(np.random.default_rng(rng_seed), 40)
        first = next(i for i, (_, _, a) in enumerate(cases)
                     if a > above and abs(math.log(a)) > 1e-9)
        p, q, a = cases[first]
        assert report.status is Status.VIOLATED and not report.passed
        assert report.seeds_tried == report.cases_evaluated == first + 1
        assert report.cases_skipped == 0
        text = divergence("CE", p.names)
        assert report.lhs == evaluate(text, p, q=UnnormalizedWeight(q.variables, q.weights * a))
        assert report.rhs == evaluate(text, p, q=q)
        assert report.gap == pytest.approx(abs(math.log(a)), abs=1e-12)
        assert report.worst_margin == report.gap
        witness = JointDistribution.from_json_dict(report.witness["distribution"])
        assert witness.names == p.names
        assert np.array_equal(witness.probs, p.probs)
        assert report.witness["bindings"] == {}

    def test_undefined_cases_are_skipped_and_counted(self):
        # q * 0 is zero under p's mass: those cases have no cross-entropy
        row = WeightRow(1, 1, (0.1, 3.0), "==",
                        lambda ce, p, q, a: (ce(p, q * (a > 1)), ce(p, q * (a > 1))))
        entry = SuiteEntry("masked", Expectation.ALWAYS_TRUE, check=row)
        report = check_entry(entry, 40, np.random.default_rng(3))
        masked = sum(a <= 1 for _, _, a in _replay_weight_cases(np.random.default_rng(3), 40))
        assert report.status is Status.HELD
        assert (report.cases_evaluated, report.cases_skipped) == (40 - masked, masked)
        assert 0 < masked < 40
        assert report.worst_margin == 0.0

    def test_a_witness_search_over_a_row(self):
        # as for expressions, "!=" hunts for a case where the equality breaks
        row = WeightRow(1, 1, (0.1, 3.0), "!=", lambda ce, p, q, a: (ce(p, q * a), ce(p, q)))
        entry = SuiteEntry("scaling_matters", Expectation.EXISTS_VIOLATION, check=row)
        report = check_entry(entry, 40, np.random.default_rng(0))
        a = _replay_weight_cases(np.random.default_rng(0), 40)[0][2]
        assert report.passed and report.seeds_tried == 1
        assert report.gap == pytest.approx(abs(math.log(a)), abs=1e-12)
        assert report.worst_margin is None

    def test_a_stack_that_raises_raises_at_every_seed(self):
        # a row's one-variable cases raise and its two-variable cases all
        # violate: the error propagates even where the first draw violates
        def sides(ce, p, q):
            if p.ndim == 2:
                raise ValueError("a one-variable case")
            return ce(p, q), ce(p, q) + 1.0

        entry = SuiteEntry("two_variables_only", Expectation.ALWAYS_TRUE,
                           check=WeightRow(1, 1, None, "==", sides))
        first_counts = set()
        for rng_seed in range(4):
            first_counts.add(int(np.random.default_rng(rng_seed).integers(1, 3, size=20)[0]))
            with pytest.raises(ValueError, match="^a one-variable case$"):
                check_entry(entry, 20, np.random.default_rng(rng_seed))
        assert first_counts == {1, 2}

    def test_a_check_is_a_row(self):
        with pytest.raises(TypeError):
            SuiteEntry("e", Expectation.ALWAYS_TRUE, check=lambda rng: None)

    def test_no_defined_case_is_untested(self):
        row = WeightRow(1, 1, None, ">=", lambda ce, p, q: (ce(p, 0 * q), ce(p, p)))
        entry = SuiteEntry("never", Expectation.ALWAYS_TRUE, check=row)
        report = check_entry(entry, 10, np.random.default_rng(0))
        assert report.status is Status.UNTESTED
        assert (report.seeds_tried, report.cases_evaluated, report.cases_skipped) == (10, 0, 10)
        assert report.worst_margin is None


def _two_binary(cells):
    variables = (Variable("X", ("0", "1")), Variable("Y", ("0", "1")))
    return JointDistribution(variables, cells)


class TestExpectationFloor:
    """A measure cell at or below ZERO_MASS is skipped, as conditioning on
    it would be refused."""

    CELLS = [0.5, 1e-13, 0.5 - 1e-13, 0.0]

    def test_one_case(self):
        d = _two_binary(self.CELLS)
        assert entropy(d, ["X"], ["Y"]) == pytest.approx(LN2, abs=1e-12)
        assert evaluate("E_{p(y)}[H[X|y]]", d) == pytest.approx(LN2, abs=1e-12)
        assert evaluate("E_{p(y)}[H[X|y]] == H[X|Y]", d) is True

    def test_stacked(self):
        d = _two_binary(self.CELLS)
        stack = qt.Stack(d.variables, np.stack([d.probs, np.full((2, 2), 0.25)]))
        values, defined = evaluate_stack("E_{p(y)}[H[X|y]]", stack)
        assert defined.tolist() == [True, True]
        np.testing.assert_allclose(values, [LN2, LN2], atol=1e-12)
        # conditioning on the light cell itself stays undefined
        values, defined = evaluate_stack("H[X|y]", stack, bindings={"Y": np.array([1, 1])})
        assert defined.tolist() == [False, True]
        with pytest.raises(ZeroProbabilityEvent):
            evaluate("H[X|y]", d, bindings={"Y": 1})


# ---------------------------------------------------------------------------
# The stacked kernel against its stack-of-one calls and the oracle

NAMES = ("X", "Y", "Z")
CELL_VALUES = (0.0, 0.0, 0.1, 0.5, 1.0, 2.0)


def _cells(tensor):
    return {idx: float(v) for idx, v in np.ndenumerate(tensor)}


@st.composite
def kernel_cases(draw):
    n_vars = draw(st.integers(1, 3))
    names = NAMES[:n_vars]
    shape = tuple(draw(st.integers(2, 4)) for _ in names)
    n = draw(st.integers(1, 4))
    size = math.prod(shape)

    def tensors(normalized):
        out = []
        for _ in range(n):
            cells = np.array(draw(st.lists(st.sampled_from(CELL_VALUES), min_size=size,
                                           max_size=size)), dtype=float)
            if cells.sum() == 0:
                cells[draw(st.integers(0, size - 1))] = 1.0
            out.append((cells / cells.sum() if normalized else cells).reshape(shape))
        return np.stack(out)

    def outcome(name):
        """None (untied), one index, or one index per element."""
        kind = draw(st.sampled_from(["untied", "tied", "per_element"]))
        k = shape[names.index(name)]
        if kind == "untied":
            return None
        if kind == "tied":
            return draw(st.integers(0, k - 1))
        return np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))

    order = list(draw(st.permutations(names)))
    n_head = draw(st.integers(1, n_vars))
    n_given = draw(st.integers(0, n_vars - n_head))
    p_head = tuple(qt.Term(m, outcome(m)) for m in order[:n_head])
    p_given = tuple(qt.Term(m, outcome(m)) for m in order[n_head:n_head + n_given])
    p_side = {t.name for t in p_head + p_given}

    q_kind = draw(st.sampled_from(["entropy", "p_other_sides", "distribution", "weight"]))
    q = None if q_kind in ("entropy", "p_other_sides") else tensors(q_kind == "distribution")
    q_head = q_given = None
    if q_kind != "entropy" and draw(st.booleans()):
        q_order = list(draw(st.permutations(names)))
        n_qh = draw(st.integers(1, n_vars))
        n_qg = draw(st.integers(0, n_vars - n_qh))

        def q_term(m):
            # a q-only name must be tied
            tie = outcome(m)
            if tie is None and m not in p_side:
                tie = draw(st.integers(0, shape[names.index(m)] - 1))
            return qt.Term(m, tie)

        q_head = tuple(q_term(m) for m in q_order[:n_qh])
        q_given = tuple(q_term(m) for m in q_order[n_qh:n_qh + n_qg])
    return names, shape, tensors(True), q_kind, q, p_head, p_given, q_head, q_given


def _at(terms, i):
    """Element ``i``'s terms as the (name, outcome) pairs of the term-list API."""
    if terms is None:
        return None
    return [(t.name, t.outcome[i] if isinstance(t.outcome, np.ndarray) else t.outcome)
            for t in terms]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kernel_cases())
def test_stacked_kernel_matches_one_case_and_oracle(case):
    names, shape, p, q_kind, q, p_head, p_given, q_head, q_given = case
    variables = tuple(Variable(m, tuple(str(i) for i in range(k))) for m, k in zip(names, shape))
    ps = qt.Stack(variables, p)
    qs = ps if q is None else qt.Stack(variables, q, weight=q_kind == "weight")
    values, undefined = qt._expected_ic_nats(ps, qs, p_head, p_given, q_head, q_given)
    n = len(p)
    values, undefined = np.broadcast_to(values, n), np.broadcast_to(undefined, n)
    event(f"q: {q_kind}")
    ties = [t.outcome for t in p_head + p_given + (q_head or ()) + (q_given or ()) if t.tied]
    event(f"per-element ties: {any(isinstance(o, np.ndarray) for o in ties)}")
    for i in range(n):
        d = JointDistribution(variables, p[i])
        if q is None:
            qi = d
        elif q_kind == "weight":
            qi = UnnormalizedWeight(variables, q[i])
        else:
            qi = JointDistribution(variables, q[i])
        head, cond = _at(p_head, i), _at(p_given, i)
        try:
            if q_kind == "entropy":
                one = entropy(d, head, cond)
            else:
                text = divergence("CE", head, cond, _at(q_head, i), _at(q_given, i),
                                  q="p" if q is None else "q")
                one = evaluate(text, d, q=qi)
        except ZeroProbabilityEvent:
            one = ZeroProbabilityEvent
        except SupportMismatch:
            one = SupportMismatch
        reference = oracle_cross_entropy(
            list(names), list(shape), _cells(d.probs), _cells(q[i] if q is not None else d.probs),
            head, cond, q_head=_at(q_head, i), q_given=_at(q_given, i))
        event(f"outcome: {getattr(one, '__name__', 'value')}")
        if one is ZeroProbabilityEvent:
            assert undefined[i] == qt.ZERO_PROBABILITY
            assert reference is None
        elif one is SupportMismatch:
            assert undefined[i] == qt.SUPPORT_MISMATCH
            assert reference == math.inf
        else:
            assert undefined[i] == 0
            assert values[i] == pytest.approx(one, abs=1e-12)
            assert values[i] == pytest.approx(reference, abs=1e-9)


# ---------------------------------------------------------------------------
# The stacked evaluator against one-case evaluation

STACKED_EXPRESSIONS = [
    "H[X,Y] - H[X] - H[Y|X]",
    "I[x;y] - I[y;x]",
    "E_{p(y)}[I[X;y]]",
    "E_{p(x,y)}[I[x;y]]",
    "H[y|X] - E_{p(x|y)}[H[x]]",
    "E_{p(x)}[E_{p(y|x)}[H[x, y]]] + IC[0.5]",
    "2 * KL[p(X|y) || q(X|y)] - CE[p(X) || q(X)]",
    "E_{q(x)}[H[Y|x]]",
    "H[X|y] >= 0.3",
]


@pytest.mark.parametrize("expression", STACKED_EXPRESSIONS)
def test_stacked_evaluation_matches_one_case(expression):
    rng = np.random.default_rng(5)
    variables = (Variable("X", ("0", "1", "2")), Variable("Y", ("0", "1")))
    n = 40
    p = rng.exponential(1.0, size=(n, 3, 2)) * (rng.random((n, 3, 2)) < 0.7)
    p[p.reshape(n, -1).sum(axis=1) == 0, 0, 0] = 1.0
    p /= p.sum(axis=(1, 2), keepdims=True)
    q = rng.exponential(1.0, size=(n, 3, 2)) * (rng.random((n, 3, 2)) < 0.8)
    q[q.reshape(n, -1).sum(axis=1) == 0, 1, 1] = 1.0
    q /= q.sum(axis=(1, 2), keepdims=True)
    bindings = {"X": rng.integers(0, 3, n), "Y": rng.integers(0, 2, n)}
    values, defined = evaluate_stack(expression, qt.Stack(variables, p),
                                     qt.Stack(variables, q), bindings)
    undefined = 0
    for i in range(n):
        try:
            one = evaluate(expression, JointDistribution(variables, p[i]),
                           q=JointDistribution(variables, q[i]),
                           bindings={k: int(v[i]) for k, v in bindings.items()})
        except (ZeroProbabilityEvent, SupportMismatch):
            assert not defined[i]
            undefined += 1
            continue
        assert defined[i]
        assert values[i] == pytest.approx(one, abs=1e-12)
    assert undefined < n


def test_a_measure_of_one_broadcasts_to_the_stack():
    # the measure q is a stack of one under a body over p, a stack of three
    rng = np.random.default_rng(2)
    variables = (Variable("X", ("0", "1", "2")),)
    p, q = rng.dirichlet(np.ones(3), size=3), rng.dirichlet(np.ones(3))
    values, defined = evaluate_stack("E_{q(x)}[H[x]]", qt.Stack(variables, p),
                                     qt.Stack(variables, q[None]))
    assert defined.tolist() == [True] * 3
    expected = [evaluate("E_{q(x)}[H[x]]", JointDistribution(variables, cells),
                         q=JointDistribution(variables, q)) for cells in p]
    assert values.tolist() == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("expression, constant", [("E_{p(x)}[IC[0.5]]", math.log(2.0)),
                                                   ("E_{p(x|y=1)}[0.5]", 0.5)])
def test_a_constant_body_is_its_constant_on_every_element(expression, constant):
    # the body is one value for the whole stack, weighted by each element's measure
    rng = np.random.default_rng(5)
    variables = (Variable("X", ("0", "1", "2")), Variable("Y", ("0", "1")))
    cells = rng.exponential(size=(5, 3, 2))
    cells /= cells.sum(axis=(1, 2), keepdims=True)
    values, defined = evaluate_stack(expression, qt.Stack(variables, cells))
    assert values.shape == defined.shape == (5,)
    assert defined.tolist() == [True] * 5
    assert values.tolist() == pytest.approx([constant] * 5, abs=1e-15)
    assert values.tolist() == [evaluate(expression, JointDistribution(variables, c))
                               for c in cells]


def test_a_constant_side_is_held_with_margin_zero():
    entry = SuiteEntry("e", Expectation.ALWAYS_TRUE, expression="E_{p(x)}[0.5] == 0.5")
    report = check_entry(entry, 50, np.random.default_rng(0))
    assert report.status is Status.HELD and report.cases_evaluated > 0
    assert report.worst_margin == 0.0


def test_a_stage_builds_writable_blocks_of_its_length():
    # confirm writes a case's own margin and defined into its stage's block
    entry = next(e for e in default_suite().entries if e.name == "entropy_nonnegative")
    search = _Search(entry, 30)
    assert search.run(np.random.default_rng(0)).status is Status.HELD
    assert [len(b.rows) for b in search.blocks] == [30]  # one variable walks no grid
    for block in search.blocks:
        for array in (block.defined, block.margin):
            assert array.shape == block.rows.shape and array.flags.writeable


@pytest.mark.parametrize("name, seeds, evaluations", [
    ("chain_rule_joint", 50, 1),  # the zero grid is padded into the random stack
    ("conditional_ce_left_insensitive", 50, 1),  # and so is its uniform q
    ("triple_mi_expectation", 50, 2),  # three variables: the grid is a stage of its own
    ("entropy_nonnegative", 50, 1),  # one variable walks no grid
    ("ce_scaling_shifts_by_ic", 50, 2),  # a row: one stack per variable count
    ("information_gain_can_be_negative", 500, 2),  # a witness search: the first draw alone
])
def test_stage_evaluations_per_entry(monkeypatch, name, seeds, evaluations):
    entries = default_suite().entries
    i = next(k for k, e in enumerate(entries) if e.name == name)
    evaluate, batches = _Search.evaluate, []

    def counted(self, *batch):
        batches.append(batch)
        return evaluate(self, *batch)

    monkeypatch.setattr(_Search, "evaluate", counted)
    report = check_entry(entries[i], seeds, np.random.default_rng([0, i]))
    assert report.passed
    assert len(batches) == evaluations
    if entries[i].expect is Expectation.ALWAYS_TRUE:
        assert sum(len(sizes) for _, _, sizes, *_ in batches) == report.seeds_tried


def test_the_merged_stage_pads_the_grid_with_exact_zeros():
    # a two-variable "always" entry: 40 random draws, then the 80 zero-grid tensors
    # with every binding of y, all on the random stack's padded shape
    entry = SuiteEntry("e", Expectation.ALWAYS_TRUE, expression="I[X;y] <= H[X]")
    search = _Search(entry, 40)
    assert search.run(np.random.default_rng(3)).status is Status.HELD
    (block,) = search.blocks
    grid = _grid((2, 2), (0.0, 0.5, 1.0))
    p = block.arrays[0]
    assert p.shape == (40 + 80, *block.sizes[:40].max(axis=0)) == (120, 4, 4)
    assert np.array_equal(p[40:, :2, :2], grid)
    assert not p[40:, 2:].any() and not p[40:, :, 2:].any()
    grid_cases = block.ordinal >= 40
    assert block.ordinal[grid_cases].tolist() == np.repeat(np.arange(40, 120), 2).tolist()
    assert block.binding[grid_cases].tolist() == block.bindings[grid_cases, 0].tolist() == [
        0, 1] * 80
    assert (block.rows[grid_cases] == block.ordinal[grid_cases]).all()


@pytest.mark.parametrize("line, seeds, rng_seed, tried, probs, q", [
    ("H[X|Y] >= 0.05", 500, 0, 501, [0.0, 0.0, 0.0, 1.0], None),
    ("KL[p(X|Y) || q(X|Y)] >= 0.01", 50, 1, 60, [0.0, 0.5, 0.0, 0.5], [0.25] * 4),
])
def test_a_violation_only_the_zero_grid_has_is_found_in_the_merged_stage(
        line, seeds, rng_seed, tried, probs, q):
    # the random draws are floored, so only a grid tensor with exact zeros violates
    (report,) = check_suite(parse_suite_file(f"{line}  # expect: always"), seeds=seeds,
                            rng_seed=rng_seed)
    assert (report.status, report.seeds_tried) == (Status.VIOLATED, tried)
    assert (report.cases_evaluated, report.cases_skipped) == (tried, 0)
    assert report.lhs == 0.0 and report.gap == report.worst_margin == report.rhs
    witness = report.witness
    assert witness["distribution"]["probs"] == probs and witness["bindings"] == {}
    assert (witness["q"]["probs"] if q else witness.get("q")) == q


@pytest.mark.parametrize("index", [1.9, np.float32(1.0), np.array([0.7, 1.0]),
                                   np.array([False, True])])
def test_stacked_binding_indices_must_be_integers(index):
    # a float is refused, never truncated to the outcome below it
    d = three_cell_distribution()
    message = f"outcome index {index!r} for variable 'Y' is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate_stack("H[X|y]", qt.Stack.of(d), bindings={"y": index})
    values, defined = evaluate_stack("H[X|y]", qt.Stack.of(d), bindings={"y": np.array([0, 1])})
    assert defined.all()
    assert values.tolist() == [evaluate("H[X|y]", d, bindings={"Y": i}) for i in (0, 1)]


def test_stacked_bindings_of_one_variable_are_refused():
    # as in evaluate: two keys that name Y are an error, not the last one winning
    stack = qt.Stack.of(three_cell_distribution())
    with pytest.raises(ValueError, match="^bindings name variable 'Y' more than once$"):
        evaluate_stack("H[X|y]", stack, bindings={"y": np.array([0, 1]), "Y": 0})


@pytest.mark.parametrize("call", [
    lambda d, b: evaluate("H[X|y]", d, bindings=b),
    lambda d, b: entropy(d, ["X"], list(b.items())),
    lambda d, b: mutual_info(d, [["X"], list(b.items())]),
    lambda d, b: diagram(d, b),
    lambda d, b: condition(d, b),
], ids=["evaluate", "entropy", "mutual_info", "diagram", "condition"])
@pytest.mark.parametrize("index", [np.array([0, 1]), np.array([1], dtype=np.uint8)])
def test_an_array_of_outcomes_is_evaluate_stack_s_alone(call, index):
    # one outcome per stack element means nothing on one distribution, even for one element
    message = f"outcome index {index!r} for variable 'Y' is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(three_cell_distribution(), {"Y": index})


def test_evaluate_no_longer_answers_an_array_with_element_0():
    # Y=1 has no mass, so the stacked form is defined for element 0 alone; evaluate
    # returned element 0's ln 2
    d = _two_binary([0.5, 0.0, 0.5, 0.0])
    values, defined = evaluate_stack("H[X|y]", qt.Stack.of(d), bindings={"Y": np.array([0, 1])})
    assert defined.tolist() == [True, False] and values[0] == pytest.approx(LN2, abs=1e-12)
    message = "outcome index array([0, 1]) for variable 'Y' is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate("H[X|y]", d, bindings={"Y": np.array([0, 1])})


@pytest.mark.parametrize("bindings, n, message", [
    ({"Y": np.array([[0, 1]])}, 1, "outcome positions array([[0, 1]]) for variable 'Y': not one "
                                   "position in 0..1 per stack element"),
    ({"Y": np.array([0, 2])}, 1, "outcome index 2 out of range for variable 'Y'"),
    ({"Y": np.array([-1, 0, 1])}, 3, "outcome index -1 out of range for variable 'Y'"),
    ({"Y": np.array([0, 1])}, 3,
     "lengths {'p': 3, 'Y': 2}: each must be 1 or the stack's length n"),
    ({"Y": np.array([0, 1]), "X": np.array([0, 1, 1])}, 1,
     "lengths {'p': 1, 'Y': 2, 'X': 3}: each must be 1 or the stack's length n"),
], ids=["2-D", "above", "below", "stack", "two arrays"])
def test_stacked_array_bindings_are_checked(bindings, n, message):
    d = three_cell_distribution()
    stack = qt.Stack(d.variables, np.broadcast_to(d.probs, (n, 2, 2)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate_stack("H[X|y]", stack, bindings=bindings)


def test_stack_lengths_are_1_or_n():
    d = three_cell_distribution()
    p = qt.Stack(d.variables, np.broadcast_to(d.probs, (3, 2, 2)))
    q = qt.Stack(d.variables, np.broadcast_to(d.probs, (2, 2, 2)))
    message = "lengths {'p': 3, 'q': 2}: each must be 1 or the stack's length n"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate_stack("CE[p(X) || q(X)]", p, q)
    # a length-1 array, a 0-d array and an integer are one outcome for every element
    want = evaluate("H[X|y]", d, bindings={"Y": 1})
    for outcome in (np.array([1]), np.array(1), 1):
        values, defined = evaluate_stack("H[X|y]", p, bindings={"Y": outcome})
        assert defined.all() and values.tolist() == [want] * 3


@pytest.mark.parametrize("n, bindings, message", [
    (0, None, "lengths {'p': 0}: each must be 1 or the stack's length n"),
    (0, {"Y": np.zeros(0, int)},
     "lengths {'p': 0, 'Y': 0}: each must be 1 or the stack's length n"),
    (1, {"Y": np.zeros(0, int)},
     "lengths {'p': 1, 'Y': 0}: each must be 1 or the stack's length n"),
], ids=["empty stack", "empty stack and array", "empty array"])
def test_an_empty_stack_or_array_is_refused(n, bindings, message):
    # an empty stack failed in the kernel with numpy's "cannot reshape array of size 0"
    d = three_cell_distribution()
    stack = qt.Stack(d.variables, np.zeros((n, 2, 2)) + d.probs)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evaluate_stack("H[X|y]" if bindings else "H[X]", stack, bindings=bindings)


def _turn_down_first(monkeypatch, verdict):
    """Patch the search so that its first check of a case on its own returns
    ``verdict(lhs, rhs, defined)`` in place of the evaluated sides."""
    sides, calls = _Search.sides, []

    def patched(self, variables, arrays, rows, bindings):
        result = sides(self, variables, arrays, rows, bindings)
        if isinstance(rows, list):  # a case alone; a stacked batch passes an array
            calls.append(rows)
            if len(calls) == 1:
                return verdict(*result)
        return result

    monkeypatch.setattr(_Search, "sides", patched)


@pytest.mark.parametrize("verdict, counts", [
    (lambda lhs, rhs, defined: (lhs, rhs, ~defined), (1, 1)),  # undefined alone: skipped
    (lambda lhs, rhs, defined: (rhs, rhs, defined), (2, 0)),  # holds alone: margin 0
], ids=["undefined", "holds"])
def test_a_stacked_candidate_turned_down_alone_is_not_reported(monkeypatch, verdict, counts):
    # every case violates "H[X] >= 5"; the first is turned down when checked on its
    # own, so the second is reported, and the first counts as it is on its own
    entry = SuiteEntry("e", Expectation.ALWAYS_TRUE, expression="H[X] >= 5")
    expected = check_entry(entry, 20, np.random.default_rng(0))
    assert (expected.status, expected.seeds_tried) == (Status.VIOLATED, 1)
    _turn_down_first(monkeypatch, verdict)
    report = check_entry(entry, 20, np.random.default_rng(0))
    assert (report.status, report.seeds_tried) == (Status.VIOLATED, 2)
    assert report.gap != expected.gap
    assert report.worst_margin == report.gap
    assert (report.cases_evaluated, report.cases_skipped) == counts


def test_a_witness_that_fails_after_its_round_trip_is_not_reported(monkeypatch):
    # if the reloaded witness no longer violates (here: it reloads as uniform,
    # where I[X;y] is 0), no case is confirmed and the search runs out
    entry = SuiteEntry("e", Expectation.EXISTS_VIOLATION, expression="I[X;y] >= 0")
    assert check_entry(entry, 5, np.random.default_rng(0)).status is Status.VIOLATED

    def uniform(cls, doc):
        variables = tuple(Variable(v["name"], v["support"]) for v in doc["variables"])
        return cls(variables, np.full(len(doc["probs"]), 1 / len(doc["probs"])))

    monkeypatch.setattr(JointDistribution, "from_json_dict", classmethod(uniform))
    report = check_entry(entry, 5, np.random.default_rng(0))
    assert (report.status, report.witness) == (Status.HELD, None)
    assert report.seeds_tried == 5 + 80 + 9**4


# ---------------------------------------------------------------------------
# Padded stacks: every case of an entry in one stack, padded with exact zeros


def _one_side(node, d, q, bindings):
    try:
        return evaluate(node, d, q=q, bindings=bindings)
    except (ZeroProbabilityEvent, SupportMismatch):
        return None


def _padded_entry_cases(entry, zeros, n=60):
    """``n`` padded cases of an entry and one binding of its free tied
    outcomes per case, inside its support: (sizes, tensors, free, bindings,
    variables of the padded shape).  With ``zeros``, exact zeros inside the
    supports too make undefined cases."""
    rng = np.random.default_rng(len(entry.name))
    names = entry.variable_names()
    free = [t[0].upper() + t[1:] for t in read_terms(entry.node)[1]]
    sizes = rng.integers(2, 5, size=(n, len(names)))
    tensors = []
    for _ in range(1 + entry.needs_q):
        cells, inside = _padded(rng, sizes)
        if zeros:
            cells = cells * (rng.random(cells.shape) < 0.7)
            cells[(cells.reshape(n, -1).sum(axis=1) == 0,) + (0,) * len(names)] = 1.0
            cells /= cells.sum(axis=tuple(range(1, cells.ndim)), keepdims=True)
        tensors.append(cells)
    axes = [names.index(f) for f in free]
    bindings = rng.integers(0, sizes[:, axes]) if axes else np.zeros((n, 0), dtype=np.intp)
    full = tuple(Variable(m, [str(k) for k in range(s)])
                 for m, s in zip(names, tensors[0].shape[1:]))
    return sizes, tensors, free, bindings, full


_EXPRESSION_ENTRIES = [e for e in default_suite().entries if e.check is None]


@pytest.mark.parametrize("entry", _EXPRESSION_ENTRIES, ids=lambda e: e.name)
@pytest.mark.parametrize("zeros", [False, True])
def test_padded_stack_matches_each_cropped_case(entry, zeros):
    names, n = entry.variable_names(), 60
    sizes, tensors, free, bindings, full = _padded_entry_cases(entry, zeros, n)
    ps = qt.Stack(full, tensors[0])
    qs = qt.Stack(full, tensors[1]) if entry.needs_q else None
    env = {f: bindings[:, j] for j, f in enumerate(free)}
    undefined = 0
    for side in (entry.node.lhs, entry.node.rhs):
        values, defined = evaluate_stack(side, ps, qs, env)
        for i in range(n):
            variables, p_cells = _own(names, tensors[0][i], sizes[i])
            d = JointDistribution(variables, p_cells)
            q = JointDistribution(*_own(names, tensors[1][i], sizes[i])) if qs else None
            one = _one_side(side, d, q, {f: int(b) for f, b in zip(free, bindings[i])})
            assert defined[i] == (one is not None)
            if one is None:
                undefined += 1
            else:
                assert values[i] == pytest.approx(one, abs=1e-12)
    if not zeros:
        assert undefined == 0


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("entry", _EXPRESSION_ENTRIES, ids=lambda e: e.name)
@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("repeat", [1, 2])
def test_one_read_sides_equal_two_evaluate_stack_calls(entry, zeros, repeat):
    # the search reads a stage's stacks and bindings once and evaluates both
    # sides on them; each side must equal its own evaluate_stack call bit for
    # bit, defined or not, with each distribution stacked once per binding
    # (repeat=2 adds a second binding of each inside its own support)
    sizes, tensors, free, bindings, full = _padded_entry_cases(entry, zeros)
    rows = np.repeat(np.arange(len(sizes)), repeat)
    axes = [entry.variable_names().index(f) for f in free]
    bindings = np.repeat(bindings, repeat, axis=0)
    bindings[1::repeat] = (bindings[1::repeat] + 1) % sizes[rows[1::repeat]][:, axes]
    stack_rows = None if repeat == 1 else rows
    ps = qt.Stack(full, tensors[0], stack_rows)
    qs = qt.Stack(full, tensors[1], stack_rows) if entry.needs_q else None
    env = {f: bindings[:, j] for j, f in enumerate(free)}
    lhs, rhs, defined = _Search(entry, 1).sides(full, tensors, rows, bindings)
    want_lhs, lhs_defined = evaluate_stack(entry.node.lhs, ps, qs, env)
    want_rhs, rhs_defined = evaluate_stack(entry.node.rhs, ps, qs, env)
    assert _bits(lhs) == _bits(want_lhs) and _bits(rhs) == _bits(want_rhs)
    assert _bits(defined) == _bits(lhs_defined & rhs_defined)
    assert defined.flags.writeable  # the search marks a case it cut and re-evaluated
    assert zeros or defined.all()
    if zeros and entry.name in ("pointwise_chaining", "surprise_as_kl",
                                "kl_nonnegative_for_distributions"):
        assert not defined.all()  # undefined elements are compared too


def test_a_witness_search_binds_only_inside_each_case_support():
    # never violated; the random draws and the full grid are floored or
    # positive, so only the zero grid's 16 undefined cases are skipped
    entry = SuiteEntry("e", Expectation.EXISTS_VIOLATION, expression="H[y|X] != H[y|X] + 0")
    report = check_entry(entry, 10, np.random.default_rng(5))
    y = entry.variable_names().index("Y")
    own = np.random.default_rng(5).integers(2, 5, size=(10, 2))[:, y]
    assert report.status is Status.HELD
    assert report.seeds_tried == 10 + 80 + 9**4
    assert report.cases_skipped == 16
    assert report.cases_evaluated == own.sum() + 2 * 80 - 16 + 2 * 9**4


# ---------------------------------------------------------------------------
# Search observability


def _scalar_count(expression, names, seeds, rng_seed):
    """(evaluated, skipped) of an always entry, one case at a time in the
    search's order: each random draw (drawn in bulk in the documented
    order: the sizes, the cells, then a binding of y inside each case's
    support), then every binding of y on every zero-grid distribution."""
    rng = np.random.default_rng(rng_seed)
    sizes = rng.integers(2, 5, size=(seeds, len(names)))
    cells, _ = _padded(rng, sizes)
    ys = rng.integers(0, sizes[:, [names.index("Y")]])
    cases = []
    for i in range(seeds):
        d = JointDistribution(*_own(names, cells[i], sizes[i]))
        cases.append((d, {"Y": int(ys[i, 0])}))
    for cells in _grid((2,) * len(names), (0.0, 0.5, 1.0)):
        d = JointDistribution(*_own(names, cells, cells.shape))
        cases += [(d, {"Y": y}) for y in (0, 1)]
    skipped = 0
    for d, b in cases:
        try:
            evaluate(expression, d, bindings=b)
        except ZeroProbabilityEvent:
            skipped += 1
    return len(cases) - skipped, skipped


class TestSearchObservability:
    def test_counts_match_one_case_evaluation(self):
        text = "H[X|y] <= H[X] + 1"
        entry = SuiteEntry("e", Expectation.ALWAYS_TRUE, expression=text)
        report = check_entry(entry, 30, np.random.default_rng(4))
        assert report.status is Status.HELD
        assert report.seeds_tried == 30 + 80
        evaluated, skipped = _scalar_count(text, ["X", "Y"], 30, 4)
        assert (report.cases_evaluated, report.cases_skipped) == (evaluated, skipped)
        assert skipped > 0

    def test_worst_margin_of_an_always_entry(self):
        entry = SuiteEntry("e", Expectation.ALWAYS_TRUE, expression="H[X] >= H[X|Y]")
        report = check_entry(entry, 20, np.random.default_rng(0))
        assert report.passed
        # equality holds on the independent grid points, so the worst case is ~0
        assert -1e-9 < report.worst_margin <= 1e-9
        violation = SuiteEntry("v", Expectation.EXISTS_VIOLATION, expression="I[X;y] >= 0")
        assert check_entry(violation, 20, np.random.default_rng(0)).worst_margin is None

    def test_counts_stop_at_the_witness(self):
        entry = SuiteEntry("e", Expectation.ALWAYS_TRUE, expression="H[X] == H[X|Y]")
        report = check_entry(entry, 20, np.random.default_rng(0))
        assert report.status is Status.VIOLATED
        assert report.seeds_tried == 1
        assert (report.cases_evaluated, report.cases_skipped) == (1, 0)
        assert report.worst_margin == pytest.approx(report.gap, abs=1e-12)

    @pytest.mark.parametrize("offset,status", [("2e-9", Status.VIOLATED), ("5e-10", Status.HELD)])
    def test_margins_at_the_tolerance(self, offset, status):
        # always entries fail on a margin above EQ_TOLERANCE = 1e-9, however small
        entry = SuiteEntry("e", Expectation.ALWAYS_TRUE, expression=f"H[X] + {offset} == H[X]")
        report = check_entry(entry, 5, np.random.default_rng(0))
        assert report.status is status
        assert report.worst_margin == pytest.approx(float(offset), rel=1e-6)

    def test_no_evaluated_case_fails(self):
        for expect in Expectation:
            entry = SuiteEntry("e", expect, expression="H[X] >= 0")
            report = check_entry(entry, 0, np.random.default_rng(0))
            assert report.status is Status.UNTESTED
            assert report.cases_evaluated == 0
            assert not report.passed
            assert report.format_line().startswith("FAIL")

    def test_report_fields(self):
        reports = check_suite(default_suite(), seeds=5, rng_seed=0)
        for r in reports:
            doc = r.to_json_dict()
            assert doc["cases_evaluated"] == r.cases_evaluated > 0
            assert doc["cases_skipped"] == r.cases_skipped >= 0
            if r.expect is Expectation.ALWAYS_TRUE:
                assert isinstance(doc["worst_margin"], float)
            else:
                assert doc["worst_margin"] is None
            assert f"{r.cases_evaluated} cases evaluated, {r.cases_skipped} skipped" in (
                r.format_line())

    def test_info_line_per_entry(self, caplog):
        entry = SuiteEntry("logged", Expectation.ALWAYS_TRUE, expression="H[X] >= 0")
        with caplog.at_level(logging.INFO, logger="discinfo.identities"):
            check_entry(entry, 7, np.random.default_rng(0))
        assert any("logged" in m and "7 cases evaluated, 0 skipped" in m
                   for m in caplog.messages)


# ---------------------------------------------------------------------------
# CLI log level


def test_cli_log_level_debug_keeps_stdout(tmp_path):
    model = {
        "hypotheses": ["A", "B"],
        "prior": [0.5, 0.5],
        "inputs": ["x0", "x1"],
        "labels": ["0", "1"],
        "likelihood": [
            [[0.5, 0.5], [0.9, 0.1]],
            [[0.5, 0.5], [0.2, 0.8]],
        ],
    }
    config = {
        "model": model,
        "pool": [["x0", "0"], ["x1", "1"], ["x1", "0"]],
        "eval": [["x0", "0"], ["x1", "1"]],
        "acquisition": "bald",
        "steps": 2,
        "seed": 0,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(*flags):
        return subprocess.run(
            [sys.executable, "-m", "discinfo.cli", *flags, "sim", "--config", str(path)],
            capture_output=True, text=True, env=env, check=True, timeout=120)

    quiet, debug = run(), run("--log-level", "DEBUG")
    assert quiet.stdout == debug.stdout
    assert quiet.stderr == ""
    assert "DEBUG" in debug.stderr and "step" in debug.stderr
