import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discinfo import (
    JointDistribution,
    LogBase,
    NonPositiveProbability,
    ParseError,
    SupportMismatch,
    UnknownVariable,
    UnnormalizedWeight,
    Variable,
    ZeroProbabilityEvent,
    condition,
    diagram,
    entropy,
    evaluate,
    information_content,
    mutual_info,
    three_cell_distribution,
)

from discinfo.dist import ZERO_CELL
from discinfo.expr import evaluate_stack
from discinfo.quantities import Stack, _plogq, plogq
from notation import divergence
from oracle import dist_to_cells, oracle_cross_entropy, oracle_entropy, oracle_mutual_info

LN2 = math.log(2.0)


def fair_coin(name="X"):
    return JointDistribution((Variable(name, ("0", "1")),), [0.5, 0.5])


def two_fair_coins():
    return JointDistribution((Variable("X", ("0", "1")), Variable("Y", ("0", "1"))),
                             np.full((2, 2), 0.25))


def weight(q, factor):
    """The weight of q's cells times ``factor``."""
    return UnnormalizedWeight(q.variables, q.probs * factor)


def xor_triple():
    # Z = X xor Y with X, Y independent fair coins
    t = np.zeros((2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            t[x, y, x ^ y] = 0.25
    return JointDistribution(
        (Variable("X", ("0", "1")), Variable("Y", ("0", "1")), Variable("Z", ("0", "1"))),
        t,
    )


def random_dist(rng, n_vars, max_support=3):
    variables = tuple(
        Variable(f"V{i}", tuple(str(k) for k in range(rng.integers(2, max_support + 1))))
        for i in range(n_vars)
    )
    cells = rng.exponential(1.0, size=tuple(v.size for v in variables))
    return JointDistribution(variables, cells / cells.sum())


class TestInformationContent:
    def test_certainty(self):
        assert information_content(1.0) == 0.0

    def test_half(self):
        assert information_content(0.5) == pytest.approx(LN2, abs=1e-15)

    def test_inverse_e(self):
        assert information_content(1.0 / math.e) == pytest.approx(1.0, abs=1e-12)

    def test_bits(self):
        assert information_content(0.5, LogBase.BITS) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveProbability):
            information_content(0.0)

    def test_mass_above_one_is_negative(self):
        assert information_content(2.0) == pytest.approx(-LN2)


class TestEntropy:
    def test_fair_coin(self):
        assert entropy(fair_coin(), ["X"]) == pytest.approx(LN2, abs=1e-12)

    def test_fair_coin_bits(self):
        assert entropy(fair_coin(), ["X"], base=LogBase.BITS) == pytest.approx(1.0)

    def test_three_cell_conditional_on_y1(self):
        d = three_cell_distribution()
        assert entropy(d, ["X"], [("Y", 1)]) == pytest.approx(0.0, abs=1e-12)

    def test_three_cell_golden_pair(self):
        d = three_cell_distribution()
        assert evaluate("E_{p(x|y)}[H[x]]", d, bindings={"Y": 1}) == pytest.approx(
            math.log(1.5), abs=1e-9
        )
        assert entropy(d, ["X"]) == pytest.approx(
            math.log(3 * 2 ** (1 / 3) / 2), abs=1e-9
        )

    def test_zero_cell_rule_applies_to_the_conditioned_measure(self):
        # given y=1, Omega's cells are 5e-16 and 2e-12 before conditioning but
        # about 2.5e-4 and 1 after it: neither is a 0 * log 0 cell
        d = JointDistribution(
            (Variable("Omega", ("0", "1")), Variable("Y", ("0", "1"))),
            [[0.5 - 2e-12 - 5e-16, 5e-16], [0.5, 2e-12]],
        )
        conditioned = entropy(condition(d, {"Y": 1}), ["Omega"])
        assert conditioned == pytest.approx(2.3229629166923e-3, rel=1e-9)
        assert entropy(d, ["Omega"], [("Y", 1)]) == pytest.approx(conditioned, abs=1e-15)
        assert evaluate("H[Omega|y=1]", d) == pytest.approx(conditioned, abs=1e-15)

    def test_zero_probability_tie(self):
        d = JointDistribution(
            (Variable("X", ("0", "1")), Variable("Y", ("0", "1"))),
            [0.5, 0.0, 0.5, 0.0],
        )
        with pytest.raises(ZeroProbabilityEvent):
            entropy(d, ["X"], [("Y", 1)])

    def test_variable_repeated(self):
        with pytest.raises(ValueError):
            entropy(fair_coin(), ["X"], ["X"])

    def test_unmentioned_variables_are_marginalized(self):
        d = two_fair_coins()
        assert entropy(d, ["X"]) == pytest.approx(LN2, abs=1e-12)

    @pytest.mark.parametrize("index", [1.9, 0.7, np.float64(1.0), np.array([0.7]),
                                       np.array([True])])
    def test_term_indices_must_be_integers(self, index):
        # a float is refused, never truncated to the outcome below it
        d = three_cell_distribution()
        message = f"outcome index {index!r} for variable 'Y' is not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entropy(d, ["X"], [("Y", index)])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mutual_info(d, [["X"], [("Y", index)]])

    @pytest.mark.parametrize("index", [np.int8(1), np.array(1), np.array(1, dtype=np.uint8)])
    def test_integer_term_indices(self, index):
        d = three_cell_distribution()
        assert entropy(d, ["X"], [("Y", index)]) == entropy(d, ["X"], [("Y", 1)])
        assert mutual_info(d, [["X"], [("Y", index)]]) == mutual_info(d, [["X"], [("Y", 1)]])

    @pytest.mark.parametrize("terms, shown", [
        ("XY", "'XY'"), ([5], "hold 5"), ([None], "hold None"),
        ([("X", 0, 1)], "hold ('X', 0, 1)"), ([("X",)], "hold ('X',)")])
    def test_a_term_list_holds_names_and_pairs(self, terms, shown):
        # a bare string is not read as one name per character, nor a 1-tuple as an untied name
        d = three_cell_distribution()
        message = f"terms must be a list of names and (name, outcome) pairs, not {shown}"
        calls = [lambda: entropy(d, terms), lambda: entropy(d, ["X"], terms),
                 lambda: mutual_info(d, [terms, ["Y"]]), lambda: mutual_info(d, [["X"], terms]),
                 lambda: mutual_info(d, [["X"], ["Y"]], terms)]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    def test_groups_given_as_a_string_are_refused(self):
        message = "terms must be a list of names and (name, outcome) pairs, not 'X'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mutual_info(three_cell_distribution(), "XY")


class TestCrossEntropyAndKL:
    def test_ce_self_is_entropy(self):
        rng = np.random.default_rng(1)
        d = random_dist(rng, 2)
        heads = list(d.names)
        assert evaluate(divergence("CE", heads, q="p"), d) == pytest.approx(
            entropy(d, heads), abs=1e-12)

    def test_ce_scale_rule(self):
        rng = np.random.default_rng(2)
        p, q = random_dist(rng, 1), random_dist(rng, 1)
        q = JointDistribution(p.variables, np.resize(q.probs, p.shape) / np.resize(q.probs, p.shape).sum())
        half_q = weight(q, 0.5)
        assert evaluate("CE[p(V0) || q(V0)]", p, q=half_q) == pytest.approx(
            evaluate("CE[p(V0) || q(V0)]", p, q=q) + LN2, abs=1e-12
        )

    def test_ce_power_rule(self):
        rng = np.random.default_rng(3)
        variables = (Variable("X", ("0", "1", "2")),)
        p = JointDistribution(variables, rng.dirichlet(np.ones(3)))
        q = JointDistribution(variables, rng.dirichlet(np.ones(3)))
        squared = UnnormalizedWeight(variables, q.probs ** 2.0)
        assert evaluate("CE[p(X) || q(X)]", p, q=squared) == pytest.approx(
            2.0 * evaluate("CE[p(X) || q(X)]", p, q=q), abs=1e-12
        )

    def test_kl_self_zero(self):
        rng = np.random.default_rng(4)
        d = random_dist(rng, 2)
        assert evaluate("KL[p(V0, V1) || p(V0, V1)]", d) == pytest.approx(0.0, abs=1e-12)

    def test_kl_nonnegative_for_distributions(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            variables = (Variable("X", ("0", "1", "2")),)
            p = JointDistribution(variables, rng.dirichlet(np.ones(3)))
            raw = rng.dirichlet(np.ones(3)) + 1e-3
            q = JointDistribution(variables, raw / raw.sum())
            assert evaluate("KL[p(X) || q(X)]", p, q=q) >= -1e-12

    def test_kl_against_doubled_p_meets_mass_bound(self):
        rng = np.random.default_rng(6)
        d = random_dist(rng, 2)
        doubled = weight(d, 2.0)
        value = evaluate("KL[p(V0, V1) || q(V0, V1)]", d, q=doubled)
        assert value == pytest.approx(-LN2, abs=1e-12)
        assert value == pytest.approx(information_content(2.0), abs=1e-12)

    def test_support_mismatch(self):
        variables = (Variable("X", ("0", "1")),)
        p = JointDistribution(variables, [0.5, 0.5])
        q = JointDistribution(variables, [1.0, 0.0])
        with pytest.raises(SupportMismatch):
            evaluate("CE[p(X) || q(X)]", p, q=q)

    @pytest.mark.parametrize("q_name", ["X", "x"])
    def test_q_spelling_of_a_p_variable_is_one_variable(self, q_name):
        # X and x name one variable, so q over x is q over X
        p = JointDistribution((Variable("X", ("0", "1")),), [0.25, 0.75])
        q = JointDistribution((Variable(q_name, ("0", "1")),), [0.5, 0.5])
        ce, kl = LN2, 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert evaluate("CE[p(X) || q(X)]", p, q=q) == pytest.approx(ce, abs=1e-15)
        assert evaluate("KL[p(X) || q(X)]", p, q=q) == pytest.approx(kl, abs=1e-15)
        assert kl == pytest.approx(0.130812035941137, abs=1e-15)
        values, defined = evaluate_stack("KL[p(x) || q(x)]", Stack.of(p), Stack.of(q),
                                         bindings={"X": np.array([0, 1])})
        assert defined.all()
        assert values.tolist() == pytest.approx([math.log(0.5), math.log(1.5)], abs=1e-15)

    def test_q_variable_of_other_outcomes_is_refused(self):
        # outcomes pair by position, so a variable of p and q must have the same ones
        p = JointDistribution((Variable("X", ("0", "1", "2")),), [0.25, 0.25, 0.5])
        q = JointDistribution((Variable("x", ("0", "1")),), [0.5, 0.5])
        message = "q's variable 'x' has the outcomes ['0', '1'], p's ['0', '1', '2']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate("E_{p(x)}[CE[p(X|x) || q(x)]]", p, q=q)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_stack("CE[p(X) || q(X)]", Stack.of(p), Stack.of(q))

    def test_q_side_terms_are_checked(self):
        d = three_cell_distribution()
        with pytest.raises(ValueError, match="out of range"):
            evaluate("CE[p(X) || p(x)]", d, bindings={"X": 5})
        with pytest.raises(ValueError, match="only once"):
            evaluate("CE[p(X) || p(X | X)]", d)

    def test_conditional_ce_left_insensitivity(self):
        rng = np.random.default_rng(7)
        d = random_dist(rng, 2)
        q = JointDistribution(d.variables, rng.dirichlet(np.ones(d.probs.size)).reshape(d.shape))
        x, y = d.names
        conditional_left = evaluate(f"CE[p({x} | {y}) || q({x} | {y})]", d, q=q)
        joint_left = evaluate(f"CE[p({x}, {y}) || q({x} | {y})]", d, q=q)
        assert conditional_left == pytest.approx(joint_left, abs=1e-12)

    def test_kl_left_structure_differs(self):
        rng = np.random.default_rng(8)
        d = random_dist(rng, 2)
        q = JointDistribution(d.variables, rng.dirichlet(np.ones(d.probs.size)).reshape(d.shape))
        x, y = d.names
        conditional_left = evaluate(f"KL[p({x} | {y}) || q({x} | {y})]", d, q=q)
        joint_left = evaluate(f"KL[p({x}, {y}) || q({x} | {y})]", d, q=q)
        # they differ exactly by the entropy of the conditioning variable
        assert conditional_left - joint_left == pytest.approx(
            entropy(d, [y]), abs=1e-9
        )

    @pytest.mark.parametrize("text", ["CE[p(X,Y,Z) || q(X,Y,Z)]", "KL[p(X|Y) || q(X|Y)]",
                                      "CE[p(X,Y|z) || q(Y|X,z)]"])
    def test_q_declared_in_another_order(self, text):
        # q's marginal is read by name, so the order q declares its variables in does not matter
        rng = np.random.default_rng(11)
        sizes = {"X": 2, "Y": 3, "Z": 2}
        variables = tuple(Variable(n, tuple(map(str, range(k)))) for n, k in sizes.items())
        p = JointDistribution(variables, rng.dirichlet(np.ones(12)))
        q = JointDistribution(variables, rng.dirichlet(np.ones(12)))
        reordered = JointDistribution(tuple(variables[i] for i in (2, 0, 1)),
                                      q.probs.transpose(2, 0, 1))
        assert evaluate(text, p, q, {"z": 1}) == pytest.approx(
            evaluate(text, p, reordered, {"z": 1}), abs=1e-12)

    def test_q_side_variable_outside_the_measure(self):
        with pytest.raises(UnknownVariable, match="^q-side variable 'Y' is neither tied nor "
                                                  "part of the left-hand measure$"):
            evaluate("CE[p(X) || q(Y)]", two_fair_coins(), two_fair_coins())

    def test_binding_found_only_in_q(self):
        # w names no variable of p, so the binding resolves in q, whose slice w=1 is q(X|w)
        p = JointDistribution((Variable("X", ("0", "1")),), [0.3, 0.7])
        q = JointDistribution((Variable("X", ("0", "1")), Variable("W", ("0", "1"))),
                              [[0.1, 0.2], [0.3, 0.4]])
        expected = -(0.3 * math.log(0.2 / 0.6) + 0.7 * math.log(0.4 / 0.6))
        assert evaluate("CE[p(X) || q(X|w)]", p, q, {"w": 1}) == pytest.approx(expected, abs=1e-12)
        with pytest.raises(UnknownVariable):
            evaluate("CE[p(X) || q(X|w)]", p, q, {"v": 1})
        with pytest.raises(UnknownVariable):  # without q, p is the only place to look
            evaluate("H[X]", p, bindings={"w": 1})


class TestMutualInfo:
    def test_independence_gives_zero(self):
        d = two_fair_coins()
        assert mutual_info(d, [["X"], ["Y"]]) == pytest.approx(0.0, abs=1e-12)

    def test_surprise_equals_kl_of_conditional(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = random_dist(rng, 2)
            x, y = d.names
            for yi in range(d.variable(y).size):
                lhs = mutual_info(d, [[(y, yi)], [x]])
                post = condition(d, {y: yi})
                prior = JointDistribution(post.variables, d.probs.sum(axis=1))
                rhs = evaluate(f"KL[p({x}) || q({x})]", post, q=prior)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_one_group_is_refused(self):
        # the notation's one-group node is H[...]; mutual_info itself needs two groups
        with pytest.raises(ValueError, match="^mutual information needs at least two groups"):
            mutual_info(two_fair_coins(), [["X"]])

    def test_group_order_matters_when_tied(self):
        d = three_cell_distribution()
        gain = mutual_info(d, [["X"], [("Y", 1)]])
        surprise = mutual_info(d, [[("Y", 1)], ["X"]])
        assert abs(gain - surprise) > 1e-3

    def test_zero_surprise_iff_independence(self):
        # independence => zero surprise for every outcome
        d_ind = JointDistribution(
            (Variable("X", ("0", "1")), Variable("Y", ("0", "1"))),
            np.multiply.outer([0.3, 0.7], [0.6, 0.4]),
        )
        for yi in (0, 1):
            assert mutual_info(d_ind, [[("Y", yi)], ["X"]]) == pytest.approx(
                0.0, abs=1e-12
            )
        # dependence (p(x|y) != p(x)) => strictly positive surprise
        d_dep = three_cell_distribution()
        assert mutual_info(d_dep, [[("Y", 1)], ["X"]]) > 1e-3

    def test_mi_as_kl_from_product_of_marginals(self):
        rng = np.random.default_rng(10)
        d = random_dist(rng, 2)
        x, y = d.names
        independent = JointDistribution(
            d.variables, np.multiply.outer(d.probs.sum(axis=1), d.probs.sum(axis=0)))
        assert mutual_info(d, [[x], [y]]) == pytest.approx(
            evaluate(f"KL[p({x}, {y}) || q({x}, {y})]", d, q=independent), abs=1e-9
        )


class TestTripleMI:
    def test_independent_triple_is_zero(self):
        d = JointDistribution(xor_triple().variables, np.full((2, 2, 2), 0.125))
        assert evaluate("I[X; Y; Z]", d) == pytest.approx(0.0, abs=1e-12)

    def test_xor_triple_is_minus_ln2(self):
        assert evaluate("I[X; Y; Z]", xor_triple()) == pytest.approx(
            -LN2, abs=1e-12
        )

    def test_tied_triple_averages_to_untied(self):
        rng = np.random.default_rng(11)
        d = random_dist(rng, 3)
        x, y, z = d.names
        sizes = d.variable(z).size
        weighted = sum(
            prob * evaluate(f"I[{x}; {y}; {z.lower()}={zi}]", d)
            for zi in range(sizes)
            if (prob := float(d.probs.sum(axis=(0, 1))[zi])) > 0
        )
        assert weighted == pytest.approx(evaluate(f"I[{x}; {y}; {z}]", d), abs=1e-9)

    def test_needs_three_groups(self):
        with pytest.raises(ParseError):
            evaluate("I[X; Y; ]", xor_triple())


class TestDiagram:
    def test_independent_table(self):
        d = two_fair_coins()
        table = diagram(d, {"Y": 1})
        assert table.gain == pytest.approx(0.0, abs=1e-12)
        assert table.surprise == pytest.approx(0.0, abs=1e-12)
        assert table.cond_head == pytest.approx(table.marginal, abs=1e-12)

    def test_three_cell_table(self):
        table = diagram(three_cell_distribution(), {"Y": 1})
        assert table.expected_marginal_ic == pytest.approx(math.log(1.5), abs=1e-9)
        assert table.marginal == pytest.approx(math.log(3 * 2 ** (1 / 3) / 2), abs=1e-9)

    def test_additive_relationships(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            d = random_dist(rng, 2)
            y = d.names[1]
            for yi in range(d.variable(y).size):
                t = diagram(d, {y: yi})
                assert t.joint == pytest.approx(t.cond_head + t.outcome, abs=1e-9)
                assert t.joint == pytest.approx(
                    t.cond_outcome + t.expected_marginal_ic, abs=1e-9
                )
                assert t.gain == pytest.approx(t.marginal - t.cond_head, abs=1e-9)
                assert t.surprise == pytest.approx(t.outcome - t.cond_outcome, abs=1e-9)

    def test_eight_rows(self):
        rows = diagram(three_cell_distribution(), {"Y": 1}).rows()
        assert len(rows) == 8

    def test_observed_name_resolves_as_in_evaluate(self):
        d = three_cell_distribution()
        assert diagram(d, {"y": 1}) == diagram(d, {"Y": 1})
        assert evaluate("H[X|y]", d, bindings={"y": 1}) == diagram(d, {"y": 1}).cond_head
        with pytest.raises(UnknownVariable, match="no variable matches identifier 'z'"):
            diagram(d, {"z": 1})
        assert diagram(d, [("y", 1)]) == diagram(d, {"Y": 1})
        for observed in ({"y": 1, "Y": 1}, [("Y", 1), ("Y", 0)], [("Y", 1), ("y", 0)]):
            # the last pair must not win, as dict() would let it
            with pytest.raises(ValueError, match="^bindings name variable 'Y' more than once$"):
                diagram(d, observed)
        for observed in ({"X": 0, "y": 1}, [], [("x", 0), ("Y", 1)]):
            with pytest.raises(ValueError, match="^diagram needs exactly one observed variable$"):
                diagram(d, observed)

    @pytest.mark.parametrize("names", [
        ("a", "b"), ("X", "Y1", "Yy"), ("Yy", "b", "C1", "d"), ("A", "b", "Cc", "dD", "E_2"),
    ])
    def test_rows_are_the_expressions_they_print(self, names):
        rng = np.random.default_rng(len(names))
        variables = tuple(
            Variable(n, tuple(str(k) for k in range(rng.integers(2, 4)))) for n in names
        )
        cells = rng.exponential(1.0, size=tuple(v.size for v in variables))
        d = JointDistribution(variables, cells / cells.sum())
        for y in names:
            xs = [n for n in names if n != y]
            for yi in range(d.variable(y).size):
                t = diagram(d, {y: yi})
                for label, value in t.rows():
                    assert evaluate(label, d, bindings={y: yi}) == pytest.approx(value, abs=1e-12)
                obs = [(y, yi)]
                direct = [
                    entropy(d, xs + obs), entropy(d, obs), entropy(d, xs),
                    mutual_info(d, [xs, obs]), mutual_info(d, [obs, xs]),
                    entropy(d, xs, obs), entropy(d, obs, xs),
                    # the kernel's route for E_{p(x|y)}[H[x]], without the expectation
                    evaluate(divergence("CE", xs, obs, q_given=[], q="p"), d),
                ]
                assert [v for _, v in t.rows()] == pytest.approx(direct, abs=1e-12)

    # a name outside the notation's rule is refused when its Variable is
    # made, and names equal up to case when the distribution is made
    @pytest.mark.parametrize("names,observed,error", [
        pytest.param(("X", "_y"), "_y", ValueError, id="names0-_y"),
        pytest.param(("_x", "Y"), "Y", ValueError, id="names1-Y"),
        pytest.param(("\u00c9", "Y"), "Y", ValueError, id="names2-Y"),
        pytest.param(("A", "a", "B"), "B", ValueError, id="names3-B"),
        pytest.param(("A", "a"), "a", ValueError, id="names4-a"),
    ])
    def test_names_the_notation_cannot_write(self, names, observed, error):
        with pytest.raises(error):
            d = JointDistribution(tuple(Variable(n, ("0", "1")) for n in names),
                                  np.full((2,) * len(names), 0.5 ** len(names)))
            diagram(d, {observed: 1})


class TestAgainstOracle:
    """Randomized comparison with the loop-based reference implementation."""

    def test_entropy_patterns(self):
        rng = np.random.default_rng(100)
        for _ in range(60):
            d = random_dist(rng, int(rng.integers(2, 4)))
            names, sizes, cells = dist_to_cells(d)
            mentioned = list(rng.permutation(names))[: int(rng.integers(1, len(names) + 1))]
            split = int(rng.integers(1, len(mentioned) + 1))
            def spec(ns):
                return [
                    (n, int(rng.integers(d.variable(n).size)) if rng.random() < 0.5 else None)
                    for n in ns
                ]
            head, given = spec(mentioned[:split]), spec(mentioned[split:])
            expected = oracle_entropy(names, sizes, cells, head, given)
            if expected is None:
                with pytest.raises(ZeroProbabilityEvent):
                    entropy(d, head, given)
            else:
                assert entropy(d, head, given) == pytest.approx(expected, abs=1e-10)

    def test_mutual_info_patterns(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            d = random_dist(rng, 3)
            names, sizes, cells = dist_to_cells(d)
            perm = list(rng.permutation(names))
            def spec(ns):
                return [
                    (n, int(rng.integers(d.variable(n).size)) if rng.random() < 0.5 else None)
                    for n in ns
                ]
            groups = [spec(perm[:1]), spec(perm[1:2])]
            given = spec(perm[2:]) if rng.random() < 0.5 else []
            expected = oracle_mutual_info(names, sizes, cells, groups, given)
            assert expected is not None
            assert mutual_info(d, groups, given) == pytest.approx(expected, abs=1e-10)

    def test_cross_entropy_patterns(self):
        rng = np.random.default_rng(102)
        for _ in range(40):
            d = random_dist(rng, 2)
            q = JointDistribution(
                d.variables, rng.dirichlet(np.ones(d.probs.size)).reshape(d.shape) + 0.0
            )
            names, sizes, p_cells = dist_to_cells(d)
            _, _, q_cells = dist_to_cells(q)
            head = [(names[0], None)]
            given = [(names[1], None)] if rng.random() < 0.5 else []
            expected = oracle_cross_entropy(names, sizes, p_cells, q_cells, head, given)
            got = evaluate(divergence("CE", head, given), d, q=q)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_cross_entropy_three_variable_patterns(self):
        """Tied terms on either side, q sides that differ from p's or reorder
        them, exact zeros in p and q, and unnormalized q weights."""
        rng = np.random.default_rng(104)
        outcomes = {"value": 0, "zero_event": 0, "mismatch": 0}
        for _ in range(150):
            d = random_dist(rng, 3)
            if rng.random() < 0.4:
                cells = np.where(rng.random(d.shape) < 0.4, 0.0, d.probs)
                if cells.sum() > 0:
                    d = JointDistribution(d.variables, cells / cells.sum())
            q_cells = rng.exponential(1.0, size=d.shape) + 1e-3
            if rng.random() < 0.3:
                q_cells = np.where(rng.random(d.shape) < 0.5, 0.0, q_cells)
            if q_cells.sum() == 0:
                q_cells[(0,) * 3] = 1.0
            if rng.random() < 0.5:
                q = UnnormalizedWeight(d.variables, q_cells * rng.uniform(0.2, 5.0))
            else:
                q = JointDistribution(d.variables, q_cells / q_cells.sum())
            names, sizes, p_cells = dist_to_cells(d)
            q_tensor = q.weights if isinstance(q, UnnormalizedWeight) else q.probs
            q_map = dict(np.ndenumerate(q_tensor))

            def tie(n):
                return int(rng.integers(d.variable(n).size)) if rng.random() < 0.4 else None

            p_names = list(rng.permutation(names))[: int(rng.integers(1, 4))]
            split = int(rng.integers(1, len(p_names) + 1))
            head = [(n, tie(n)) for n in p_names[:split]]
            given = [(n, tie(n)) for n in p_names[split:]]
            if rng.random() < 0.25:
                q_head = q_given = None
            else:
                # any p-side names in a fresh order and split, with fresh ties,
                # plus names the p side lacks, which must then be tied on q
                q_names = list(rng.permutation(p_names))[: int(rng.integers(1, len(p_names) + 1))]
                q_terms = [(n, tie(n)) for n in q_names]
                q_terms += [(n, int(rng.integers(d.variable(n).size)))
                            for n in names if n not in p_names and rng.random() < 0.5]
                order = rng.permutation(len(q_terms))
                q_terms = [q_terms[i] for i in order]
                q_split = int(rng.integers(1, len(q_terms) + 1))
                q_head, q_given = q_terms[:q_split], q_terms[q_split:]
            expected = oracle_cross_entropy(names, sizes, p_cells, q_map, head, given,
                                            q_head=q_head, q_given=q_given)
            text = divergence("CE", head, given, q_head, q_given)
            if expected is None:
                outcomes["zero_event"] += 1
                with pytest.raises(ZeroProbabilityEvent):
                    evaluate(text, d, q=q)
            elif expected == math.inf:
                outcomes["mismatch"] += 1
                with pytest.raises(SupportMismatch):
                    evaluate(text, d, q=q)
            else:
                outcomes["value"] += 1
                got = evaluate(text, d, q=q)
                assert got == pytest.approx(expected, abs=1e-10)
        assert all(count > 0 for count in outcomes.values()), outcomes

    def test_unnormalized_weight_cross_entropy(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            d = random_dist(rng, 1)
            w_cells = rng.exponential(1.0, size=d.shape) + 1e-3
            w = UnnormalizedWeight(d.variables, w_cells)
            names, sizes, p_cells = dist_to_cells(d)
            q_cells = {idx: float(w.weights[idx]) for idx in np.ndindex(*d.shape)}
            expected = oracle_cross_entropy(
                names, sizes, p_cells, q_cells, [(names[0], None)], []
            )
            got = evaluate(f"CE[p({names[0]}) || q({names[0]})]", d, q=w)
            assert got == pytest.approx(expected, abs=1e-10)


def masked_plogq(p, q=None):
    """The kernel's masked branch as it runs whatever the cells hold: the
    reference the mask-free branch must match bit for bit."""
    out = np.where(p > ZERO_CELL, p if q is None else q, 1.0)
    bad = None
    if q is not None:
        ok = out > 0
        if not ok.all():
            bad = ~ok
            out[bad] = 1.0
    np.log(out, out=out)
    out *= p
    return out, bad


# ZERO_CELL itself is a zero, so a tensor holding it takes the masked branch
P_CELLS = st.sampled_from([0.0, ZERO_CELL, 2 * ZERO_CELL, 1e-9, 0.1, 0.25, 0.5, 1.0, 3.0])
Q_CELLS = st.sampled_from([0.0, np.nan, np.inf, -0.5, 1e-300, 1e-9, 0.2, 0.5, 1.0, 7.0])


@st.composite
def kernel_inputs(draw):
    """p of 0 to 3 axes (empty axes included), and q None or a tensor that
    broadcasts against p through unit axes, as q_marginal returns it."""
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    size = int(np.prod(shape))
    positive = draw(st.booleans())
    cells = P_CELLS.filter(lambda c: c > ZERO_CELL) if positive else P_CELLS
    p = np.array(draw(st.lists(cells, min_size=size, max_size=size)), dtype=float).reshape(shape)
    if draw(st.booleans()):
        return p, None
    q_shape = tuple(draw(st.sampled_from([n, 1])) for n in shape)
    q_size = int(np.prod(q_shape))
    q_cells = Q_CELLS.filter(lambda c: c > 0) if draw(st.booleans()) else Q_CELLS
    q = np.array(draw(st.lists(q_cells, min_size=q_size, max_size=q_size)),
                 dtype=float).reshape(q_shape)
    return p, q


class TestKernelBranches:
    """plogq skips the 0 * log 0 mask when no cell needs it; both branches
    give the same terms, the same mismatch mask and the same errors."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(kernel_inputs())
    # a cell exactly at ZERO_CELL is a zero, whatever q holds there
    @example((np.array([[0.5, ZERO_CELL], [0.25, 0.25]]), None))
    @example((np.array([[0.5, ZERO_CELL], [0.25, 0.25]]), np.array([[0.5, np.nan], [1.0, 1.0]])))
    # q through a unit axis, with 0, NaN, inf and a negative under p's mass
    @example((np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([[0.5], [0.0]])))
    @example((np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([[np.nan], [1.0]])))
    @example((np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([[np.inf, 1.0]])))
    @example((np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([[-1.0, 1.0]])))
    # empty and 0-d inputs
    @example((np.empty(0), None))
    @example((np.empty((0, 3)), np.zeros((1, 3))))
    @example((np.array(0.5), None))
    @example((np.array(0.5), np.array(0.0)))
    @example((np.array(0.0), np.array(np.nan)))
    def test_mask_free_branch_equals_masked_branch(self, case):
        p, q = case
        expected, expected_bad = masked_plogq(p, q)
        buf = np.empty(expected.shape)
        into, into_bad = _plogq(p, q, out=buf)
        assert into is buf and buf.tobytes() == expected.tobytes()
        assert (into_bad is None) == (expected_bad is None)
        assert into_bad is None or np.array_equal(into_bad, expected_bad)
        out, bad = _plogq(p, q)
        assert np.shape(out) == expected.shape
        assert np.array_equal(out, expected, equal_nan=True)
        assert (bad is None) == (expected_bad is None)
        if bad is not None:
            assert np.array_equal(bad, expected_bad)
            with pytest.raises(SupportMismatch):
                plogq(p, q)
        else:
            assert np.array_equal(plogq(p, q), expected, equal_nan=True)
