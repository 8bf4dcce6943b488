import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discinfo import (
    JointDistribution,
    MissingQDistribution,
    ParseError,
    UnknownVariable,
    Variable,
    ZeroProbabilityEvent,
    diagram,
    entropy,
    evaluate,
    format_expression,
    mutual_info,
    parse,
    three_cell_distribution,
)
from discinfo.expr import (
    BinaryNode,
    DistSpec,
    DivergenceNode,
    ExpectationNode,
    ICNode,
    InfoNode,
    ScalarNode,
    ScaledNode,
    TermSpec,
    collect_identifiers,
    free_tied_identifiers,
    margin,
)
from discinfo.dist import EQ_TOLERANCE, NEQ_GAP

LN2 = math.log(2.0)


def fair_coin(name="X"):
    return JointDistribution((Variable(name, ("0", "1")),), [0.5, 0.5])


def random_dist(rng, names=("X", "Y"), max_support=3):
    variables = tuple(
        Variable(n, tuple(str(k) for k in range(rng.integers(2, max_support + 1))))
        for n in names
    )
    cells = rng.exponential(1.0, size=tuple(v.size for v in variables))
    return JointDistribution(variables, cells / cells.sum())


class TestParse:
    def test_entropy_with_tied_term(self):
        node = parse("H[X, y=1 | Z]")
        assert node == InfoNode(
            ((TermSpec("X"), TermSpec("y", "1")),), (TermSpec("Z"),)
        )

    def test_mi_with_tied_given(self):
        node = parse("I[Omega ; Y | x=0]")
        assert node == InfoNode(
            ((TermSpec("Omega"),), (TermSpec("Y"),)), (TermSpec("x", "0"),)
        )

    def test_missing_bracket(self):
        with pytest.raises(ParseError) as err:
            parse("H[X | Y")
        assert err.value.offset == 7
        assert {",", "]"} <= set(err.value.expected)

    def test_mi_needs_second_group(self):
        with pytest.raises(ParseError) as err:
            parse("I[X]")
        assert ";" in err.value.expected

    def test_uppercase_binding_rejected(self):
        with pytest.raises(ParseError):
            parse("H[X=1]")

    def test_divergence(self):
        node = parse("KL[p(X,Y) || q(X|Y)]")
        assert node == DivergenceNode(
            "KL",
            DistSpec("p", (TermSpec("X"), TermSpec("Y"))),
            DistSpec("q", (TermSpec("X"),), (TermSpec("Y"),)),
        )

    def test_expectation(self):
        node = parse("E_{p(x|y=1)}[H[x]]")
        assert node == ExpectationNode(
            DistSpec("p", (TermSpec("x"),), (TermSpec("y", "1"),)),
            InfoNode(((TermSpec("x"),),)),
        )

    def test_expectation_requires_lowercase_head(self):
        with pytest.raises(ParseError):
            parse("E_{p(X)}[H[X]]")

    def test_arithmetic_and_comparison(self):
        node = parse("H[X,Y] == H[X] + H[Y|X]")
        assert isinstance(node, BinaryNode)
        assert node.op == "=="
        assert isinstance(node.rhs, BinaryNode) and node.rhs.op == "+"

    def test_scaled_term(self):
        node = parse("0.5 * H[X]")
        assert node == ScaledNode(0.5, InfoNode(((TermSpec("X"),),)))

    def test_bare_number(self):
        assert parse("I[X;Y] >= 0") == BinaryNode(
            InfoNode(((TermSpec("X"),), (TermSpec("Y"),))), ">=", ScalarNode(0.0)
        )

    def test_ic_literal(self):
        assert parse("IC[0.5]") == ICNode(0.5)

    @pytest.mark.parametrize("text,offset", [
        ("IC[1e400]", 3),
        ("1e400 * H[X]", 0),
        ("H[X] == 1e999", 8),
    ])
    def test_literal_too_large_for_a_float(self, text, offset):
        # it would read as inf, which does not print back as written
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert "NUMBER" in err.value.expected

    def test_large_finite_literal_round_trips(self):
        node = parse("H[X] + 1e300")
        assert parse(format_expression(node)) == node

    def test_whitespace_insensitive(self):
        assert parse("H[ X ,y=1|Z ]") == parse("H[X, y=1 | Z]")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse("H[X] H[Y]")
        assert err.value.offset == 5

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("H[X] @ 2")
        assert err.value.offset == 5

    def test_identifier_must_start_with_a_letter(self):
        # the rule dist applies to variable names, so no parsed name is unwritable
        with pytest.raises(ParseError) as err:
            parse("H[_x] >= 0")
        assert err.value.offset == 2

    def test_expectation_underscore_may_stand_apart(self):
        assert parse("E _ {p(x)}[H[x]]") == parse("E_{p(x)}[H[x]]")


class TestParseTotality:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.text(alphabet="HIEKLC[]|;,=_{}()pq XYZxyz0123456789.*+-", max_size=40))
    def test_never_crashes(self, text):
        try:
            parse(text)
        except ParseError as err:
            assert 0 <= err.offset <= len(text)

    def test_truncations_of_valid_input(self):
        full = "E_{p(x|y=1)}[KL[p(X|y) || q(X)] + 2.5 * I[X; Y; z | w=0]]"
        assert parse(full) is not None
        for cut in range(len(full)):
            prefix = full[:cut]
            try:
                parse(prefix)
            except ParseError as err:
                assert 0 <= err.offset <= len(prefix)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse("1 * " * 100_000 + "H[X]")


# ---------------------------------------------------------------------------
# Random AST generation for the round-trip property


def _rng_name(rng, upper):
    pool = ["X", "Y", "Z", "W", "Omega"] if upper else ["x", "y", "z", "w", "omega"]
    base = pool[rng.integers(len(pool))]
    if rng.random() < 0.3:
        base += str(rng.integers(1, 4))
    return base


def _rng_termspec(rng):
    if rng.random() < 0.5:
        return TermSpec(_rng_name(rng, upper=True))
    name = _rng_name(rng, upper=False)
    if rng.random() < 0.5:
        return TermSpec(name, str(rng.integers(0, 4)))
    return TermSpec(name)


def _rng_termlist(rng, max_len=3):
    return tuple(_rng_termspec(rng) for _ in range(rng.integers(1, max_len + 1)))


def _rng_distspec(rng):
    letter = "p" if rng.random() < 0.7 else "q"
    given = _rng_termlist(rng) if rng.random() < 0.5 else ()
    return DistSpec(letter, _rng_termlist(rng), given)


def _rng_number(rng):
    return float(round(rng.uniform(0, 8), rng.integers(0, 4)))


def _rng_quantity(rng, depth):
    kind = rng.integers(6)
    if kind == 0:
        given = _rng_termlist(rng) if rng.random() < 0.5 else ()
        return InfoNode((_rng_termlist(rng),), given)
    if kind == 1:
        groups = tuple(_rng_termlist(rng) for _ in range(rng.integers(2, 4)))
        given = _rng_termlist(rng) if rng.random() < 0.4 else ()
        return InfoNode(groups, given)
    if kind == 2:
        return DivergenceNode("CE", _rng_distspec(rng), _rng_distspec(rng))
    if kind == 3:
        return DivergenceNode("KL", _rng_distspec(rng), _rng_distspec(rng))
    if kind == 4:
        return ICNode(_rng_number(rng))
    if depth > 2:
        return ScalarNode(_rng_number(rng))
    measure_head = tuple(
        TermSpec(_rng_name(rng, upper=False)) for _ in range(rng.integers(1, 3))
    )
    measure_given = (
        tuple(
            TermSpec(_rng_name(rng, upper=False), str(rng.integers(0, 4)))
            for _ in range(rng.integers(1, 3))
        )
        if rng.random() < 0.5
        else ()
    )
    letter = "p" if rng.random() < 0.8 else "q"
    return ExpectationNode(
        DistSpec(letter, measure_head, measure_given), _rng_additive(rng, depth + 1)
    )


def _rng_term(rng, depth):
    if rng.random() < 0.2:
        if rng.random() < 0.5:
            return ScalarNode(_rng_number(rng))
        return ScaledNode(_rng_number(rng), _rng_term(rng, depth + 1))
    return _rng_quantity(rng, depth)


def _rng_additive(rng, depth):
    node = _rng_term(rng, depth)
    for _ in range(rng.integers(0, 3)):
        rhs = _rng_term(rng, depth)
        node = BinaryNode(node, "+" if rng.random() < 0.5 else "-", rhs)
    return node


def random_ast(rng):
    node = _rng_additive(rng, 0)
    if rng.random() < 0.4:
        ops = ["==", "<=", ">=", "!="]
        return BinaryNode(node, ops[rng.integers(4)], _rng_additive(rng, 0))
    return node


class TestRoundTrip:
    def test_500_random_asts(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            ast = random_ast(rng)
            text = format_expression(ast)
            assert parse(text) == ast, text

    def test_right_nested_additive_has_no_surface_form(self):
        bad = BinaryNode(ScalarNode(1.0), "+", BinaryNode(ScalarNode(2.0), "+", ScalarNode(3.0)))
        with pytest.raises(ValueError):
            format_expression(bad)

    @pytest.mark.parametrize("op", ["+", "-", "==", "<="])
    def test_a_comparison_operand_has_no_surface_form(self, op):
        # 1.0 + 2.0 == 3.0 would parse back as (1.0 + 2.0) == 3.0
        comparison = BinaryNode(ScalarNode(2.0), "==", ScalarNode(3.0))
        for bad in (BinaryNode(ScalarNode(1.0), op, comparison),
                    BinaryNode(comparison, op, ScalarNode(1.0))):
            with pytest.raises(ValueError, match="a comparison cannot be an operand"):
                format_expression(bad)

    def test_a_node_refuses_an_unknown_tag(self):
        # none prints a form that parses back, and _eval would read JS as CE
        spec = DistSpec("p", (TermSpec("X"),))
        with pytest.raises(ValueError, match="^divergence kind must be 'CE' or 'KL', got 'JS'"):
            DivergenceNode("JS", spec, spec)
        with pytest.raises(ValueError, match=r"^operator must be one of \+ - == <= >= !=, got '\*'"):
            BinaryNode(ScalarNode(1.0), "*", ScalarNode(2.0))
        with pytest.raises(ValueError, match="^an information node needs at least one term group"):
            InfoNode((), ())

    def test_a_comparison_inside_an_expectation_prints(self):
        text = "E_{p(x)}[H[x] >= 0.0] == 1.0"
        assert format_expression(parse(text)) == text


class TestEvaluate:
    @pytest.mark.parametrize("key", ["Y", "y"])
    def test_a_massless_tie_names_its_bindings(self, key):
        d = JointDistribution((Variable("X", ("0", "1")), Variable("Y", ("0", "1"))),
                              [0.5, 0.0, 0.5, 0.0])
        message = r"^tied outcomes \{'Y': 1\} have probability at most 1e-12$"
        with pytest.raises(ZeroProbabilityEvent, match=message):
            evaluate("H[X|y]", d, bindings={key: 1})
        with pytest.raises(ZeroProbabilityEvent, match=message):
            diagram(d, {"Y": 1})

    @pytest.mark.parametrize("op", ["==", "<=", ">=", "!="])
    def test_one_verdict_at_the_tolerance(self, op):
        # lhs - rhs just inside and just outside the slack, on both sides: evaluate gives the
        # verdict of expr.margin, which the identity search ranks and confirms cases by
        slack = NEQ_GAP if op == "!=" else EQ_TOLERANCE
        for factor in (0.99, 1.01):
            for delta in (factor * slack, -factor * slack):
                lhs, rhs = 0.5 + delta, 0.5
                inside = factor < 1
                held = {"==": inside, "<=": delta < 0 or inside, ">=": delta > 0 or inside,
                        "!=": not inside}[op]
                gap = margin(lhs, op, rhs)
                assert (gap < 0 if op == "!=" else gap <= EQ_TOLERANCE) is held
                assert evaluate(f"{lhs!r} {op} {rhs!r}", fair_coin()) is held

    def test_product_mi_is_zero(self):
        d = JointDistribution(fair_coin("X").variables + fair_coin("Y").variables,
                              np.full((2, 2), 0.25))
        assert evaluate("I[X;Y]", d) == pytest.approx(0.0, abs=1e-12)

    def test_chain_rule_comparison_is_true(self):
        rng = np.random.default_rng(0)
        d = random_dist(rng)
        assert evaluate("H[X,Y] == H[X] + H[Y|X]", d) is True

    def test_three_cell_expectation(self):
        d = three_cell_distribution()
        assert evaluate("E_{p(x|y=1)}[H[x]]", d) == pytest.approx(
            math.log(1.5), abs=1e-9
        )

    def test_case_insensitive_resolution(self):
        d = three_cell_distribution()
        assert evaluate("H[x=1]", d) == pytest.approx(-math.log(2 / 3), abs=1e-12)

    def test_bare_lowercase_needs_binding(self):
        d = three_cell_distribution()
        with pytest.raises(UnknownVariable):
            evaluate("H[X|y]", d)
        bound = evaluate("H[X|y]", d, bindings={"Y": 1})
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_binding_indices_must_be_integers(self):
        # a float index is refused: y=1.9 must not evaluate at y=1
        d = three_cell_distribution()
        for key, index in (("Y", 1.9), ("y", 0.0), ("Y", np.float32(1.0))):
            message = f"outcome index {index!r} for variable 'Y' is not an integer"
            with pytest.raises(ValueError, match=re.escape(message)):
                evaluate("H[X|y]", d, bindings={key: index})
        for index in (np.int64(1), np.uint8(1)):
            assert evaluate("H[X|y]", d, bindings={"y": index}) == evaluate(
                "H[X|y]", d, bindings={"Y": 1})

    def test_missing_q(self):
        d = fair_coin()
        with pytest.raises(MissingQDistribution):
            evaluate("KL[p(X) || q(X)]", d)

    def test_arithmetic(self):
        d = fair_coin()
        assert evaluate("2 * H[X] + IC[0.5] - H[X]", d) == pytest.approx(
            2 * LN2, abs=1e-12
        )

    def test_comparison_tolerances(self):
        d = fair_coin()
        assert evaluate("H[X] == 0.6931471805599453", d) is True
        assert evaluate("H[X] != 0.6931471805599453", d) is False
        assert evaluate("H[X] != 0.69", d) is True

    @pytest.mark.parametrize("text,kind", [
        ("E_{p(x)}[H[x]]", float),
        ("E_{p(x)}[E_{p(y|x)}[H[x, y]]]", float),
        ("2.0 * E_{p(y)}[I[X;y]] - H[X]", float),
        ("E_{p(x)}[H[x]] == H[X]", bool),
        ("E_{p(x)}[H[x]] != 0", bool),
        ("H[X] >= E_{p(y)}[H[X|y]]", bool),
    ])
    def test_returns_python_types(self, text, kind):
        value = evaluate(text, random_dist(np.random.default_rng(5)))
        assert type(value) is kind

    def test_nested_expectation(self):
        rng = np.random.default_rng(1)
        d = random_dist(rng)
        value = evaluate("E_{p(x)}[E_{p(y|x)}[H[x, y]]]", d)
        assert value == pytest.approx(entropy(d, ["X", "Y"]), abs=1e-9)

    def test_surprise_kl_form(self):
        rng = np.random.default_rng(2)
        d = random_dist(rng)
        assert evaluate("I[y;X] == KL[p(X|y) || p(X)]", d, bindings={"Y": 0}) is True


class TestTraversal:
    @pytest.mark.parametrize("text,identifiers,free", [
        # the inner expectation binds y, the outer one x; z stays free
        ("E_{p(x)}[E_{p(y|x)}[I[x;y]] + H[x]] == H[z]", ["x", "y", "z"], ["z"]),
        # a name bound inside an expectation is free again outside it
        ("E_{p(y)}[H[y]] + H[y] == 0", ["y"], ["y"]),
        # a measure's conditioning side is read in the enclosing scope
        ("E_{q(x|y)}[E_{p(x)}[H[x,y]]] >= KL[p(X|w) || q(X|w)]",
         ["x", "y", "X", "w"], ["y", "w"]),
        # a literal outcome binds only its own mention
        ("H[x=1, y] == E_{p(y)}[I[y; x] - 2 * H[Z|y]]", ["x", "y", "Z"], ["y", "x"]),
        ("IC[0.5] + 3.0 >= 0", [], []),
    ])
    def test_nested_expectations(self, text, identifiers, free):
        node = parse(text)
        assert collect_identifiers(node) == identifiers
        assert free_tied_identifiers(node) == free


class TestEvaluatorAgainstDirectCalls:
    def test_200_randomized_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = random_dist(rng, names=("X", "Y", "Z"))
            yi = int(rng.integers(d.variable("Y").size))
            zi = int(rng.integers(d.variable("Z").size))
            pick = rng.integers(4)
            if pick == 0:
                text = f"H[X, y={yi} | Z]"
                direct = entropy(d, ["X", ("Y", yi)], ["Z"])
            elif pick == 1:
                text = f"I[X; Y | z={zi}]"
                direct = mutual_info(d, [["X"], ["Y"]], [("Z", zi)])
            elif pick == 2:
                # the KL of the conditioned from the marginal is the surprise
                text = f"KL[p(X|y={yi}) || p(X)]"
                direct = mutual_info(d, [[("Y", yi)], ["X"]])
            else:
                text = "I[X; Y; Z]"
                direct = mutual_info(d, [["X"], ["Y"], ["Z"]])
            assert evaluate(text, d) == pytest.approx(direct, abs=1e-12)
