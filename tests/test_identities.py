import math
import re

import numpy as np
import pytest

from discinfo import (
    CounterexampleMismatch,
    Expectation,
    JointDistribution,
    SuiteEntry,
    UnknownVariable,
    chaining_distribution,
    check_suite,
    default_suite,
    evaluate,
    parse_suite_file,
    three_cell_distribution,
    verify_reference_witnesses,
)
from discinfo.expr import collect_identifiers, free_tied_identifiers, parse
from discinfo.identities import (
    Status,
    _floored,
    _grid,
    _inside,
    _Search,
    check_entry,
)

from oracle import dist_to_cells, oracle_entropy, oracle_mutual_info

LN2 = math.log(2.0)


class TestReferenceWitnesses:
    def test_three_cell_golden_values(self):
        report = verify_reference_witnesses()
        assert report.three_cell_expected_marginal_ic == pytest.approx(
            math.log(1.5), abs=1e-9
        )
        assert report.three_cell_marginal_entropy == pytest.approx(
            math.log(3 * 2 ** (1 / 3) / 2), abs=1e-9
        )

    def test_decomposition_gap_is_third_of_ln2(self):
        report = verify_reference_witnesses()
        gap = report.three_cell_cond_outcome - report.three_cell_wrong_decomposition
        assert gap == pytest.approx(LN2 / 3, abs=1e-9)

    def test_chaining_pair_unordered(self):
        report = verify_reference_witnesses()
        got = sorted(
            [report.chaining_pointwise_expectation, report.chaining_surprise]
        )
        want = sorted([math.log(6 / 5), math.log(2 * math.sqrt(3) * 5**0.25 / 5)])
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)
        assert abs(got[1] - got[0]) > 1e-3

    def test_chaining_equation_sides_differ(self):
        report = verify_reference_witnesses()
        assert abs(report.chaining_lhs - report.chaining_rhs) > 1e-3

    def test_against_oracle(self):
        # the loop-based reference implementation agrees on both witnesses
        d3 = three_cell_distribution()
        names, sizes, cells = dist_to_cells(d3)
        assert oracle_entropy(names, sizes, cells, [("X", None)]) == pytest.approx(
            math.log(3 * 2 ** (1 / 3) / 2), abs=1e-12
        )
        dc = chaining_distribution()
        names, sizes, cells = dist_to_cells(dc)
        surprise = oracle_mutual_info(
            names, sizes, cells, [[("Y1", 1)], [("X", None)]]
        )
        assert surprise == pytest.approx(
            math.log(2 * math.sqrt(3) * 5**0.25 / 5), abs=1e-12
        )

    def test_golden_labels_evaluate_to_their_values(self):
        rows = verify_reference_witnesses().golden_values()
        witnesses = [three_cell_distribution()] * 3 + [chaining_distribution()] * 2
        assert len(rows) == len(witnesses)
        for (label, got, _), d in zip(rows, witnesses):
            parse(label)
            assert evaluate(label, d) == pytest.approx(got, abs=1e-12)

    def test_mismatch_raises(self):
        with pytest.raises(CounterexampleMismatch):
            verify_reference_witnesses(tolerance=1e-30)


class TestSuiteMechanics:
    def test_default_suite_shape(self):
        suite = default_suite()
        always = [e for e in suite.entries if e.expect is Expectation.ALWAYS_TRUE]
        violations = [e for e in suite.entries if e.expect is Expectation.EXISTS_VIOLATION]
        assert len(always) >= 15
        assert len(violations) >= 3
        names = {e.name for e in suite.entries}
        assert {
            "observed_outcome_decomposition_fails",
            "surprise_chaining_fails",
            "information_gain_can_be_negative",
        } <= names

    def test_determinism(self):
        suite = default_suite()
        a = check_suite(suite, seeds=25, rng_seed=7)
        b = check_suite(suite, seeds=25, rng_seed=7)
        assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]

    def test_different_seed_changes_samples(self):
        entry = SuiteEntry(
            "gain_negative", Expectation.EXISTS_VIOLATION, expression="I[X;y] >= 0"
        )
        a = check_entry(entry, 50, np.random.default_rng(1))
        b = check_entry(entry, 50, np.random.default_rng(2))
        assert a.status is Status.VIOLATED and b.status is Status.VIOLATED
        assert a.witness != b.witness

    def test_witness_reloads_to_same_verdict(self):
        suite = default_suite()
        reports = check_suite(suite, seeds=40, rng_seed=3)
        for report in reports:
            if report.expect is Expectation.EXISTS_VIOLATION:
                assert report.status is Status.VIOLATED
                w = report.witness
                d = JointDistribution.from_json_dict(w["distribution"])
                q = JointDistribution.from_json_dict(w["q"]) if "q" in w else None
                entry = next(e for e in suite.entries if e.name == report.name)
                node = entry.node
                lhs = evaluate(node.lhs, d, q=q, bindings=w["bindings"])
                rhs = evaluate(node.rhs, d, q=q, bindings=w["bindings"])
                assert abs(lhs - report.lhs) <= 1e-12
                assert abs(rhs - report.rhs) <= 1e-12

    def test_budget_exhaustion_reports_held_not_crash(self):
        # a 'violation' that cannot exist: symmetry of untied MI
        entry = SuiteEntry(
            "impossible", Expectation.EXISTS_VIOLATION, expression="I[X;Y] == I[Y;X]"
        )
        report = check_entry(entry, 10, np.random.default_rng(0))
        assert report.status is Status.HELD
        assert not report.passed

    def test_always_entry_failure_carries_witness(self):
        entry = SuiteEntry(
            "false_identity", Expectation.ALWAYS_TRUE, expression="H[X] == H[X|Y]"
        )
        report = check_entry(entry, 20, np.random.default_rng(0))
        assert report.status is Status.VIOLATED
        assert not report.passed
        assert report.witness is not None

    def test_entry_must_be_comparison(self):
        with pytest.raises(ValueError):
            SuiteEntry("not_cmp", Expectation.ALWAYS_TRUE, expression="H[X]")

    @pytest.mark.parametrize("seeds, rng_seed, message", [
        (True, 0, "seeds = True is not an integer"),
        (2.5, 0, "seeds = 2.5 is not an integer"),
        (np.True_, 0, f"seeds = {np.True_!r} is not an integer"),
        (0, 0, "seeds must be >= 1"),
        (5, True, "rng_seed = True is not an integer"),
        (5, 1.0, "rng_seed = 1.0 is not an integer"),
        (5, -1, "rng_seed must be >= 0"),
    ])
    def test_check_suite_refuses_what_is_not_a_count(self, seeds, rng_seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_suite(default_suite(), seeds=seeds, rng_seed=rng_seed)

    def test_duplicate_names_rejected(self):
        from discinfo import IdentitySuite

        e = SuiteEntry("same", Expectation.ALWAYS_TRUE, expression="H[X] >= 0")
        f = SuiteEntry("same", Expectation.ALWAYS_TRUE, expression="H[Y] >= 0")
        with pytest.raises(ValueError):
            IdentitySuite((e, f))


# every built-in expression entry: (identifiers in order of first mention,
# bare tied identifiers left free, whether it mentions q)
BUILT_IN_TRAVERSALS = [
    ("H[X,Y] == H[X] + H[Y|X]", ["X", "Y"], [], False),
    ("I[X;Y] == I[Y;X]", ["X", "Y"], [], False),
    ("I[x;y] == I[y;x]", ["x", "y"], ["x", "y"], False),
    ("I[X;Y] == E_{p(y)}[I[X;y]]", ["X", "Y", "y"], [], False),
    ("I[X;Y] == E_{p(y)}[I[y;X]]", ["X", "Y", "y"], [], False),
    ("I[X;Y] == E_{p(x,y)}[I[x;y]]", ["X", "Y", "x", "y"], [], False),
    ("H[X,Y] == E_{p(x)}[H[x,Y]]", ["X", "Y", "x"], [], False),
    ("H[X,Y] == E_{p(y)}[H[X,y]]", ["X", "Y", "y"], [], False),
    ("H[X|y] == H[X,y] - H[y]", ["X", "y"], ["y"], False),
    ("H[y|X] == H[X,y] - E_{p(x|y)}[H[x]]", ["y", "X", "x"], ["y"], False),
    ("I[X;y1,y2] == I[X;y1] + I[X;y2|y1]", ["X", "y1", "y2"], ["y1", "y2"], False),
    ("I[X1,X2;y] == I[X1;y] + I[X2;y|X1]", ["X1", "X2", "y"], ["y"], False),
    ("I[y;X1,X2] == I[y;X1] + I[y;X2|X1]", ["y", "X1", "X2"], ["y"], False),
    ("I[x;y1,y2] == I[x;y1] + I[x;y2|y1]", ["x", "y1", "y2"], ["x", "y1", "y2"], False),
    ("I[X;Y;Z] == E_{p(z)}[I[X;Y;z]]", ["X", "Y", "Z", "z"], [], False),
    ("I[X;Y] >= 0", ["X", "Y"], [], False),
    ("H[X] >= H[X|Y]", ["X", "Y"], [], False),
    ("H[X] >= 0", ["X"], [], False),
    ("I[X;Y] <= H[X]", ["X", "Y"], [], False),
    ("I[y;X] >= 0", ["y", "X"], ["y"], False),
    ("H[y] >= H[y|X]", ["y", "X"], ["y"], False),
    ("E_{p(x|y)}[H[x]] >= H[X|y]", ["x", "y", "X"], ["y"], False),
    ("H[y|X] >= 0", ["y", "X"], ["y"], False),
    ("I[y;X] <= H[y]", ["y", "X"], ["y"], False),
    ("I[y;X] <= E_{p(x|y)}[H[x]]", ["y", "X", "x"], ["y"], False),
    ("I[y;X] == KL[p(X|y) || p(X)]", ["y", "X"], ["y"], False),
    ("CE[p(X) || p(X)] == H[X]", ["X"], [], False),
    ("KL[p(X) || p(X)] == 0", ["X"], [], False),
    ("KL[p(X) || q(X)] >= 0", ["X"], [], True),
    ("CE[p(X) || q(X)] >= H[X]", ["X"], [], True),
    ("CE[p(X|Y) || q(X|Y)] == CE[p(X,Y) || q(X|Y)]", ["X", "Y"], [], True),
    ("H[y|X] != H[X,y] - H[X]", ["y", "X"], ["y"], False),
    ("I[y1,y2;X] != I[y1;X] + I[y2;X|y1]", ["y1", "y2", "X"], ["y1", "y2"], False),
    ("I[X;y] >= 0", ["X", "y"], ["y"], False),
    ("KL[p(X,Y) || q(X|Y)] != KL[p(X|Y) || q(X|Y)]", ["X", "Y"], [], True),
]


class TestTraversal:
    def test_covers_every_built_in_expression(self):
        texts = [e.expression for e in default_suite().entries if e.expression is not None]
        assert sorted(texts) == sorted(t for t, *_ in BUILT_IN_TRAVERSALS)

    @pytest.mark.parametrize("text,identifiers,free,needs_q", BUILT_IN_TRAVERSALS)
    def test_built_in_expression(self, text, identifiers, free, needs_q):
        node = parse(text)
        assert collect_identifiers(node) == identifiers
        assert free_tied_identifiers(node) == free
        assert SuiteEntry("e", Expectation.ALWAYS_TRUE, expression=text).needs_q is needs_q

    @pytest.mark.parametrize("text,needs_q", [
        ("E_{q(x)}[H[x]] >= 0", True),
        ("2 * CE[q(X) || p(X)] - H[X] >= 0", True),
        ("E_{p(x)}[H[x] + KL[p(Y|x) || q(Y)]] >= 0", True),
        ("E_{p(x)}[E_{p(y|x)}[H[x, y]]] >= IC[0.5]", False),
    ])
    def test_needs_q_looks_through_every_node(self, text, needs_q):
        assert SuiteEntry("e", Expectation.ALWAYS_TRUE, expression=text).needs_q is needs_q


class TestGenerators:
    def test_random_draws_respect_floor(self):
        entry = SuiteEntry("e", Expectation.ALWAYS_TRUE, expression="H[X,Y] >= 0")
        ((_, (cells,), _, _, sizes),) = _Search(entry, 20).draw(np.random.default_rng(0))
        for case, size in zip(cells, sizes):
            own = case[tuple(slice(s) for s in size)]
            assert own.min() >= 1e-3 / (1 + 1e-3 * own.size) - 1e-12
            assert own.sum() == pytest.approx(1.0) and 2 <= size[0] <= 4

    def test_random_draw_without_floor_is_normalized_exponentials(self):
        rng = np.random.default_rng(3)
        cells = _floored(rng, _inside(rng.integers(2, 5, size=(1, 2))), floor=0)[0]
        rng = np.random.default_rng(3)
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        expected = rng.exponential(1.0, size=shape)
        assert np.array_equal(cells, expected / expected.sum())

    def test_grid_includes_zeros_and_skips_zero_sum(self):
        cells = _grid((2, 2), (0.0, 1.0))
        assert len(cells) == 15  # 2^4 - 1 all-zero
        assert any((c == 0).sum() == 3 for c in cells)
        assert np.array_equal(cells.sum(axis=(1, 2)), np.ones(15))

    def test_grid_is_built_once_and_read_only(self):
        cells = _grid((2, 2), (0.0, 0.5, 1.0))
        assert _grid((2, 2), (0.0, 0.5, 1.0)) is cells
        assert not cells.flags.writeable
        with pytest.raises(ValueError):
            cells[0, 0, 0] = 1.0


class TestWrittenOutcomes:
    """An entry may write only the outcomes 0 and 1, which every case of the
    search has (each variable is drawn with at least two outcomes, named by
    index, and every grid is binary): any other is refused when the entry
    is built, so the verdict never depends on the cases drawn."""

    @pytest.mark.parametrize("expect", list(Expectation))
    @pytest.mark.parametrize("text, outcome", [
        ("I[X;y=2] >= 0", "2"),
        ("H[X|y=a] >= 0", "a"),
        ("E_{p(x|y=2)}[H[x]] >= H[X|y]", "2"),
        ("KL[p(X) || q(X|y=2)] >= 0", "2"),
    ])
    def test_another_outcome_is_refused_when_built(self, text, outcome, expect):
        message = (f"entry 'e': {outcome!r} is not an outcome of variable 'Y'; an entry may "
                   "write only the outcomes 0 and 1, which every case of the search has")
        with pytest.raises(UnknownVariable, match=f"^{re.escape(message)}$"):
            SuiteEntry("e", expect, expression=text)

    @pytest.mark.parametrize("text", [
        "H[X|y=0] >= 0",
        "I[y=1;X] <= H[y=1]",
        "E_{p(x|y=1)}[H[x]] >= H[X|y=1]",
        "KL[p(X|y=0) || q(X|y=0)] >= 0",
    ])
    def test_outcomes_0_and_1_are_accepted(self, text):
        entry = SuiteEntry("e", Expectation.ALWAYS_TRUE, expression=text)
        report = check_entry(entry, 20, np.random.default_rng(0))
        assert report.passed and report.cases_evaluated > 0

    def test_a_suite_file_line_is_refused_by_its_name(self):
        text = "H[X] >= 0  # expect: always\n\nI[X;y=2] >= 0  # expect: violation\n"
        with pytest.raises(UnknownVariable, match=re.escape("entry 'L3: I[X;y=2] >= 0': '2' is")):
            parse_suite_file(text)


class TestSuiteFiles:
    def test_parse_and_run(self, tmp_path):
        text = """
# a comment line
H[X,Y] == H[X] + H[Y|X]   # expect: always
I[X;y] >= 0               # expect: violation
"""
        suite = parse_suite_file(text)
        assert len(suite.entries) == 2
        reports = check_suite(suite, seeds=60, rng_seed=0)
        assert all(r.passed for r in reports)

    def test_identifiers_equal_up_to_case_name_one_variable(self):
        # XY and Xy, and the tied xY, are one variable of each case, never two
        suite = parse_suite_file("H[XY] == H[Xy]  # expect: always\n"
                                 "H[X|xY] <= H[X]  # expect: violation\n")
        assert [e.variable_names() for e in suite.entries] == [("Xy",), ("X", "Xy")]
        reports = check_suite(suite, seeds=20, rng_seed=0)
        assert [r.passed for r in reports] == [True, True]

    def test_missing_directive(self):
        with pytest.raises(ValueError, match="directive"):
            parse_suite_file("H[X] >= 0\n")

    def test_bad_expectation_word(self):
        with pytest.raises(ValueError, match="always"):
            parse_suite_file("H[X] >= 0 # expect: sometimes\n")

    def test_empty_file(self):
        with pytest.raises(ValueError):
            parse_suite_file("# nothing here\n")


class TestDefaultSuitePasses:
    def test_modest_budget_run(self):
        # the acceptance suite runs the full 500-seed budget
        reports = check_suite(default_suite(), seeds=120, rng_seed=0)
        failed = [r.format_line() for r in reports if not r.passed]
        assert not failed, failed

    def test_negative_gain_witness_found_from_grid_alone(self):
        # even with a tiny random budget the dense grid guarantees discovery
        entry = SuiteEntry(
            "gain_negative", Expectation.EXISTS_VIOLATION, expression="I[X;y] >= 0"
        )
        report = check_entry(entry, 1, np.random.default_rng(12345))
        assert report.status is Status.VIOLATED
