import gc
import json
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discinfo import (
    JointDistribution,
    MalformedInput,
    ParseError,
    UnknownVariable,
    UnnormalizedWeight,
    Variable,
    ZeroProbabilityEvent,
    condition,
    diagram,
    entropy,
    evaluate,
    mutual_info,
)
from discinfo.cli import main
from discinfo.dist import dump_distribution, load_distribution, read_json
from discinfo.expr import evaluate_stack
from discinfo.quantities import Stack


def three_cell():
    # uniform mass on (x, y) in {(0,0), (1,0), (1,1)}
    return JointDistribution(
        (Variable("X", ("0", "1")), Variable("Y", ("0", "1"))),
        [1 / 3, 0.0, 1 / 3, 1 / 3],
    )


def fair_coin(name="X"):
    return JointDistribution((Variable(name, ("0", "1")),), [0.5, 0.5])


def independent(*factors):
    """The independent joint of the factors, an outer product in numpy."""
    probs = factors[0].probs
    for f in factors[1:]:
        probs = np.multiply.outer(probs, f.probs)
    return JointDistribution(sum((f.variables for f in factors), ()), probs)


def ic_at(d, **outcomes):
    """H[x, y, ...] with every named variable tied: the information content
    of the marginal probability of those outcomes."""
    text = "H[" + ", ".join(n.lower() for n in outcomes) + "]"
    return evaluate(text, d, bindings=outcomes)


class TestConstruction:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            JointDistribution((Variable("X", ("0", "1")),), [0.7, 0.7])

    def test_renormalizes_near_one(self):
        d = JointDistribution((Variable("X", ("0", "1")),), [0.5 + 2e-7, 0.5])
        assert d.renormalized
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_exact_sum_not_flagged(self):
        assert not fair_coin().renormalized

    def test_renormalized_is_not_an_argument(self):
        # the flag says what the constructor did, so a caller cannot set it on an exact sum
        with pytest.raises(TypeError, match="renormalized"):
            JointDistribution((Variable("X", ("0", "1")),), [0.5, 0.5], renormalized=True)
        with pytest.raises(TypeError):  # nor pass a third positional argument
            JointDistribution((Variable("X", ("0", "1")),), [0.5, 0.5], True)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointDistribution((Variable("X", ("0", "1")),), [1.5, -0.5])

    def test_rejects_bad_cell_count(self):
        with pytest.raises(ValueError, match="cells"):
            JointDistribution((Variable("X", ("0", "1")),), [1.0])

    @pytest.mark.parametrize("name", ["_y", "\u00c9", "X\u00e9", "1X", "x-y", "x y", ""])
    def test_rejects_names_the_notation_cannot_write(self, name):
        with pytest.raises(ValueError):
            Variable(name, ("0", "1"))

    @pytest.mark.parametrize("name", ["X", "y", "Y1", "x_2", "Omega"])
    def test_accepts_names_the_notation_can_write(self, name):
        assert Variable(name, ("0", "1")).name == name

    @pytest.mark.parametrize("build", [
        JointDistribution, UnnormalizedWeight,
        lambda variables, cells: Stack(variables, np.reshape(cells, (1, 2, 2, 2))),
    ], ids=["distribution", "weight", "stack"])
    def test_rejects_names_equal_up_to_case(self, build):
        # A and a would both be named by the identifier a, so no value holds both
        message = "duplicate variable names (equal up to case): ['A', 'B', 'a']"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(tuple(Variable(n, ("0", "1")) for n in ("A", "B", "a")), [0.125] * 8)

    @pytest.mark.parametrize("support, message", [
        ("ab", "variable 'X': support 'ab' is a string, not a list of outcome labels"),
        ((True, "1"), "variable 'X': outcome label True is neither a string nor an integer"),
        (("0", 1.5), "variable 'X': outcome label 1.5 is neither a string nor an integer"),
        ((np.False_,), "variable 'X': outcome label np.False_ is neither a string nor an integer"),
    ])
    def test_support_follows_the_json_readers_rule(self, support, message):
        # a string is not split into its characters, and a boolean or a float is no label
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Variable("X", support)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            JointDistribution((("X", support),), [1.0])

    def test_integer_labels_are_their_digits(self):
        assert Variable("X", range(3)).support == ("0", "1", "2")
        assert Variable("X", (np.int64(7), "a", -1)).support == ("7", "a", "-1")
        assert JointDistribution((("X", range(2)),), [0.5, 0.5]).variables == (
            Variable("X", ("0", "1")),)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            JointDistribution(
                (Variable("X", ("0", "1")), Variable("X", ("0", "1"))),
                [0.25] * 4,
            )

    def test_holds_its_own_copy(self):
        # a write to the caller's array after construction reaches neither tensor
        variables = (Variable("X", ("0", "1")), Variable("Y", ("0", "1")))
        cells = np.full((2, 2), 0.25)
        d = JointDistribution(variables, cells)
        cells[0, 0], cells[0, 1] = 0.7, -0.2
        assert d.probs.tolist() == [[0.25, 0.25], [0.25, 0.25]]
        weights = np.array([0.5, 1.5])
        w = UnnormalizedWeight(variables[:1], weights)
        weights[:] = -1
        assert w.weights.tolist() == [0.5, 1.5]

    def test_cell_count_does_not_overflow(self):
        variables = tuple(Variable(f"X{i}", tuple("0123456789")) for i in range(20))
        with pytest.raises(ValueError, match=f"^expected {10**20} cells for shape"):
            JointDistribution(variables, [1.0])

    @pytest.mark.parametrize("cells", [[math.nan, 1.0], [math.inf, 0.0]])
    def test_rejects_cells_that_are_not_finite(self, cells):
        with pytest.raises(ValueError, match="^probabilities must be finite and non-negative$"):
            JointDistribution((Variable("X", ("0", "1")),), cells)

    def test_probs_are_read_only(self):
        d = fair_coin()
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestMarginalize:
    """The marginals the notation reads: H[x] at a tied outcome is minus the
    log of its marginal probability."""

    def test_uniform_square_to_x(self):
        d = independent(fair_coin("X"), fair_coin("Y"))
        np.testing.assert_allclose([ic_at(d, X=x) for x in (0, 1)], -np.log([0.5, 0.5]))

    def test_three_cell_to_x(self):
        d = three_cell()
        np.testing.assert_allclose([ic_at(d, X=x) for x in (0, 1)], -np.log([1 / 3, 2 / 3]))

    def test_identity(self):
        d = three_cell()
        for (x, y), p in np.ndenumerate(d.probs):
            if p == 0:
                with pytest.raises(ZeroProbabilityEvent):
                    ic_at(d, X=x, Y=y)
            else:
                assert ic_at(d, X=x, Y=y) == pytest.approx(-math.log(p))

    def test_unknown_name(self):
        with pytest.raises(UnknownVariable):
            evaluate("H[Z]", three_cell())

    def test_empty_keep(self):
        with pytest.raises(ValueError):
            entropy(three_cell(), [])
        with pytest.raises(ParseError):
            evaluate("H[]", three_cell())


class TestCondition:
    def test_three_cell_on_y1_is_point_mass(self):
        c = condition(three_cell(), {"Y": 1})
        np.testing.assert_allclose(c.probs, [0.0, 1.0], atol=1e-15)

    def test_product_conditioning_is_noop(self):
        d = independent(fair_coin("X"), fair_coin("Y"))
        c = condition(d, {"Y": 0})
        np.testing.assert_allclose(c.probs, [0.5, 0.5])

    def test_zero_mass_event(self):
        d = JointDistribution(
            (Variable("X", ("0", "1")), Variable("Y", ("0", "1"))),
            [0.5, 0.0, 0.5, 0.0],
        )
        with pytest.raises(ZeroProbabilityEvent):
            condition(d, {"Y": 1})

    def test_must_leave_a_variable(self):
        with pytest.raises(ValueError):
            condition(three_cell(), {"X": 0, "Y": 0})


class TestProduct:
    """Independent joints, built in numpy, as the notation reads them."""

    def test_two_fair_coins(self):
        d = independent(fair_coin("X"), fair_coin("Y"))
        assert evaluate("I[X; Y]", d) == pytest.approx(0.0, abs=1e-12)
        for x, y in np.ndindex(2, 2):
            assert ic_at(d, X=x, Y=y) == pytest.approx(-math.log(0.25))

    def test_point_mass_extension(self):
        point = JointDistribution((Variable("Z", ("a",)),), [1.0])
        d = independent(three_cell(), point)
        assert evaluate("H[Z]", d) == 0.0
        assert evaluate("H[X, Y, Z]", d) == pytest.approx(evaluate("H[X, Y]", three_cell()))

    def test_direct_multiplication(self):
        px = JointDistribution((Variable("X", ("0", "1")),), [1 / 3, 2 / 3])
        py = fair_coin("Y")
        d = independent(px, py)
        np.testing.assert_allclose([ic_at(d, X=x, Y=y) for x, y in np.ndindex(2, 2)],
                                   -np.log([1 / 6, 1 / 6, 1 / 3, 1 / 3]))

    def test_name_collision(self):
        with pytest.raises(ValueError, match="duplicate"):
            independent(fair_coin("X"), fair_coin("X"))


positive_cells = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=8, max_size=8
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(positive_cells)
def test_marginalize_composes(cells):
    arr = np.asarray(cells).reshape(2, 2, 2)
    d = JointDistribution(
        (Variable("X", ("0", "1")), Variable("Y", ("0", "1")), Variable("Z", ("0", "1"))),
        arr / arr.sum(),
    )
    # the notation marginalizes Y and Z at once; numpy sums out Z, then Y
    xy = JointDistribution(d.variables[:2], d.probs.sum(axis=2))
    x = JointDistribution(d.variables[:1], xy.probs.sum(axis=1))
    for i in (0, 1):
        assert np.exp(-ic_at(d, X=i)) == pytest.approx(x.probs[i], abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(positive_cells, st.integers(min_value=0, max_value=1))
def test_condition_normalizes(cells, y):
    arr = np.asarray(cells).reshape(2, 2, 2)
    d = JointDistribution(
        (Variable("X", ("0", "1")), Variable("Y", ("0", "1")), Variable("Z", ("0", "1"))),
        arr / arr.sum(),
    )
    c = condition(d, {"Y": y})
    assert abs(c.probs.sum() - 1.0) <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=1),
)
def test_product_then_condition_recovers_factor(cells, y):
    arr = np.asarray(cells)
    d1 = JointDistribution((Variable("X", ("a", "b", "c")),), arr / arr.sum())
    d2 = fair_coin("Y")
    c = condition(independent(d1, d2), {"Y": y})
    np.testing.assert_allclose(c.probs, d1.probs, atol=1e-12)


class TestAssignment:
    """Tied outcomes are a plain dict from variable name to outcome index."""

    def test_from_labels(self):
        d = three_cell()
        bindings = {"Y": d.variable("Y").index_of("1")}
        assert bindings == {"Y": 1}
        assert evaluate("H[X|y]", d, bindings=bindings) == pytest.approx(0.0, abs=1e-12)

    def test_validate_range(self):
        with pytest.raises(ValueError, match="out of range"):
            condition(three_cell(), {"Y": 7})
        with pytest.raises(ValueError, match="out of range"):
            diagram(three_cell(), {"Y": 7})
        with pytest.raises(UnknownVariable, match="^no variable matches identifier 'Q'$"):
            condition(three_cell(), {"Q": 0})

    @pytest.mark.parametrize("index", [0.7, 1.0, np.float64(1.0), None])
    def test_indices_must_be_integers(self, index):
        # a float is refused, never truncated to the outcome below it
        message = f"outcome index {index!r} for variable 'Y' is not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            condition(three_cell(), {"Y": index})
        with pytest.raises(ValueError, match=re.escape(message)):
            diagram(three_cell(), {"Y": index})

    @pytest.mark.parametrize("index", [True, False, np.True_])
    @pytest.mark.parametrize("call", [
        lambda d, b: evaluate("H[X|y]", d, bindings=b),
        lambda d, b: entropy(d, ["X"], list(b.items())),
        lambda d, b: diagram(d, b),
        lambda d, b: condition(d, b),
    ], ids=["evaluate", "entropy", "diagram", "condition"])
    def test_booleans_are_not_outcome_indices(self, call, index):
        message = f"outcome index {index!r} for variable 'Y' is not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(three_cell(), {"Y": index})

    @pytest.mark.parametrize("index", [np.array([1]), np.array([5]), np.array([0, 1])])
    def test_condition_takes_no_array(self, index):
        # an array of one outcome per stack element is evaluate_stack's; here it is refused
        message = "condition takes one outcome per variable, not an array of them"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            condition(three_cell(), {"Y": index})

    @pytest.mark.parametrize("index", [np.int64(1), np.int8(1), np.uint32(1)])
    def test_numpy_integer_indices(self, index):
        assert condition(three_cell(), {"Y": index}).probs.tolist() == [0.0, 1.0]
        assert diagram(three_cell(), {"Y": index}) == diagram(three_cell(), {"Y": 1})

    def test_prob_of_partial(self):
        assert np.exp(-ic_at(three_cell(), Y=0)) == pytest.approx(2 / 3)


def one_zero():
    # Y's first outcome is labelled "1": H[X|Y=label "1"] = H(1/4, 3/4) and
    # H[X|Y=position 1] = H(1/3, 2/3)
    return JointDistribution((Variable("X", ("0", "1")), Variable("Y", ("1", "0"))),
                             [[1 / 7, 1 / 7], [3 / 7, 2 / 7]])


H_LABEL_1 = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))  # 0.562335...
H_POSITION_1 = -(math.log(1 / 3) / 3 + 2 / 3 * math.log(2 / 3))  # 0.636514...


class TestOneRule:
    """A name matches without regard to case, an integer outcome is a
    position and a string outcome a label, at every entry point."""

    @pytest.mark.parametrize("name", ["y", "Y"])
    @pytest.mark.parametrize("key, index", [(1, 1), ("1", 0), (np.int64(1), 1), ("0", 1)])
    def test_every_entry_point_resolves_one_outcome(self, tmp_path, capsys, name, key, index):
        d = one_zero()
        want = H_LABEL_1 if index == 0 else H_POSITION_1
        assert evaluate("H[X|y]", d, bindings={name: key}) == pytest.approx(want, abs=1e-12)
        values, defined = evaluate_stack("H[X|y]", Stack.of(d), bindings={name: key})
        assert defined.all() and values.tolist() == [evaluate("H[X|y]", d, bindings={"Y": index})]
        assert entropy(d, ["x"], [(name, key)]) == entropy(d, ["X"], [("Y", index)])
        assert mutual_info(d, [["x"], [(name, key)]]) == mutual_info(d, [["X"], [("Y", index)]])
        assert condition(d, {name: key}).probs.tolist() == condition(d, {"Y": index}).probs.tolist()
        assert diagram(d, {name: key}) == diagram(d, {"Y": index})
        assert diagram(d, {name: key}).cond_head == evaluate("H[X|y]", d, bindings={"Y": index})
        if isinstance(key, str):  # the notation and --observe write a label
            written = "1" if index == 0 else "0"
            assert evaluate(f"H[X|y={written}]", d) == evaluate("H[X|y]", d, bindings={"Y": index})
            path = tmp_path / "d.json"
            dump_distribution(d, path)
            assert main(["eval", "--dist", str(path), "--observe", f"{name}={key}", "H[X|y]"]) == 0
            assert capsys.readouterr().out == f"{want:.12g}\n"

    def test_the_label_1_and_the_position_1_differ(self):
        d = one_zero()
        assert evaluate("H[X|y=1]", d) == evaluate("H[X|y]", d, bindings={"Y": "1"})
        assert evaluate("H[X|y=1]", d) == pytest.approx(H_LABEL_1, abs=1e-12)
        assert evaluate("H[X|y]", d, bindings={"Y": 1}) == pytest.approx(H_POSITION_1, abs=1e-12)

    def test_a_written_outcome_is_a_label_only(self):
        # a decimal is no longer read as a position where no label matches
        d = JointDistribution((Variable("X", ("0", "1")), Variable("Y", ("a", "b"))),
                              [0.25] * 4)
        with pytest.raises(UnknownVariable, match="^'1' is not an outcome of variable 'Y'$"):
            evaluate("H[X|y=1]", d)
        for call in (lambda: evaluate("H[X|y]", d, bindings={"y": "1"}),
                     lambda: condition(d, {"Y": "1"}),
                     lambda: entropy(d, ["X"], [("Y", "1")])):
            with pytest.raises(ValueError, match="^'1' is not an outcome of variable 'Y'$"):
                call()
        assert evaluate("H[X|y=b]", d) == evaluate("H[X|y]", d, bindings={"Y": 1})

    def test_library_names_match_without_regard_to_case(self):
        d = three_cell()
        assert entropy(d, ["x"]) == entropy(d, ["X"])
        assert mutual_info(d, [["x"], ["y"]]) == mutual_info(d, [["X"], ["Y"]])
        assert condition(d, {"y": 1}).probs.tolist() == condition(d, {"Y": 1}).probs.tolist()
        assert d.variable("x") is d.variable("X") and d.index_of("y") == 1
        with pytest.raises(ValueError, match="^bindings name variable 'Y' more than once$"):
            condition(d, {"y": 1, "Y": 0})
        with pytest.raises(ValueError, match="^a variable may appear only once per query"):
            entropy(d, ["X", "x"])


class TestWeights:
    """A weight's total mass is its cell sum, and it shows as a shift of
    log(mass) in every cross-entropy against the weight."""

    def test_z_is_cell_sum(self):
        w = UnnormalizedWeight((Variable("X", ("0", "1")),), [0.5, 1.5])
        p = JointDistribution(w.variables, [0.25, 0.75])
        assert evaluate("KL[p(X) || q(X)]", p, q=w) == pytest.approx(-math.log(2.0))

    def test_normalize(self):
        w = UnnormalizedWeight((Variable("X", ("0", "1")),), [1.0, 3.0])
        p = JointDistribution(w.variables, [0.5, 0.5])
        normalized = JointDistribution(w.variables, [0.25, 0.75])
        assert evaluate("CE[p(X) || q(X)]", p, q=w) == pytest.approx(
            evaluate("CE[p(X) || q(X)]", p, q=normalized) - math.log(4.0))
        with pytest.raises(ValueError, match="total mass"):
            UnnormalizedWeight(w.variables, [0.0, 0.0])

    @pytest.mark.parametrize("cells, message", [
        ([1.0, 2.0, 3.0], "expected 2 cells for shape (2,), got 3"),
        ([1.0, -1.0], "weights must be finite and non-negative"),
        ([1.0, math.nan], "weights must be finite and non-negative"),
    ])
    def test_rejects_malformed_weights(self, cells, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            UnnormalizedWeight((Variable("X", ("0", "1")),), cells)

    def test_q_must_be_a_distribution_or_a_weight(self):
        with pytest.raises(TypeError, match="expected a JointDistribution or UnnormalizedWeight"):
            evaluate("CE[p(X) || q(X)]", fair_coin(), q=[0.5, 0.5])


class TestJsonFormat:
    def test_round_trip(self, tmp_path):
        d = three_cell()
        path = tmp_path / "d.json"
        dump_distribution(d, path)
        loaded = load_distribution(path)
        assert loaded.names == d.names
        np.testing.assert_allclose(loaded.probs, d.probs)

    def test_row_major_layout(self, tmp_path):
        # last-listed variable varies fastest in the flat array
        doc = {
            "variables": [
                {"name": "X", "support": ["0", "1"]},
                {"name": "Y", "support": ["0", "1"]},
            ],
            "probs": [0.1, 0.2, 0.3, 0.4],
        }
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        d = load_distribution(path)
        assert d.probs[0, 1] == pytest.approx(0.2)
        assert d.probs[1, 0] == pytest.approx(0.3)

    def test_normalization_checked_on_load(self, tmp_path):
        doc = {
            "variables": [{"name": "X", "support": ["0", "1"]}],
            "probs": [0.9, 0.4],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_distribution(path)


def _hard_decimals(rng, n, exponents, signed):
    """``n`` decimal strings that are hard to round to the nearest double, each
    of a finite value: mantissas of 1 to 25 digits with exponents in the
    closed range ``exponents``, the exact halfway points between adjacent
    doubles of that range or of the subnormals, and those points cut to 16 to
    25 digits."""
    lo, hi = exponents
    out = []
    with localcontext() as ctx:
        ctx.prec = 800  # a double, and the halfway point between two, is exact
        while len(out) < n:
            digits = "".join(map(str, rng.integers(0, 10, size=rng.integers(1, 26))))
            text = f"{rng.integers(1, 10)}.{digits}e{rng.integers(lo, hi + 1)}"
            kind = rng.integers(4)
            if kind == 3:  # between two subnormals
                x = float(rng.integers(0, 2**52)) * 2.0**-1074
            else:
                x = float(text)
            if kind and math.isfinite(x):
                y = math.nextafter(x, math.inf)
                text = format((Decimal(x) + Decimal(y)) / 2, "e")
                if rng.integers(2):
                    mantissa, exponent = text.split("e")
                    text = f"{mantissa[:rng.integers(17, 27)]}e{exponent}"
            if math.isfinite(float(text)):
                out.append(("-" if signed and rng.integers(2) else "") + text)
    return out


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


class TestReader:
    """The reader parses with orjson; every float must be the one the stdlib
    ``json`` module gives, to the last bit."""

    def test_floats_of_the_whole_range_match_the_stdlib(self, tmp_path):
        strings = _hard_decimals(np.random.default_rng(0), 8_000, (-330, 310), signed=True)
        text = '{"variables": [{"name": "X", "support": ["0"]}], "probs": [%s]}' % ",".join(strings)
        path = tmp_path / "d.json"
        path.write_text(text, encoding="utf-8")
        got = read_json(path, "distribution", lambda doc: doc["probs"])
        np.testing.assert_array_equal(_bits(got), _bits(json.loads(text)["probs"]))

    def test_loaded_probabilities_match_the_stdlib(self, tmp_path):
        strings = _hard_decimals(np.random.default_rng(1), 8_000, (-330, -5), signed=False)
        strings.append(repr(1.0 - math.fsum(map(float, strings))))
        text = json.dumps({"variables": [{"name": "X", "support": list(range(len(strings)))}],
                           "probs": []}).replace("[]", "[%s]" % ",".join(strings))
        path = tmp_path / "d.json"
        path.write_text(text, encoding="utf-8")
        doc = json.loads(text)
        want = JointDistribution((Variable("X", doc["variables"][0]["support"]),),
                                 np.array(doc["probs"]))
        got = load_distribution(path)
        assert not got.renormalized and got.variables == want.variables
        np.testing.assert_array_equal(_bits(got.probs), _bits(want.probs))

    def test_integer_labels_are_read_as_their_digits(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"variables": [{"name": "X", "support": [-9223372036854775808, '
                        '18446744073709551615]}], "probs": [1, 0]}')
        assert load_distribution(path).variables[0].support == (
            "-9223372036854775808", "18446744073709551615")

    @pytest.mark.parametrize("collecting", [True, False])
    def test_the_collector_is_restored(self, tmp_path, collecting):
        # after a good document and after a malformed one the collector is back on,
        # unless the caller had turned it off
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text('{"probs": [[0.5, 0.5], [1, 0]]}')
        bad.write_text('{"probs": [NaN]}')
        was_on = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            assert read_json(good, "distribution", len) == 1
            assert gc.isenabled() is collecting
            with pytest.raises(MalformedInput):
                read_json(bad, "distribution", len)
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was_on else gc.disable)()

    def test_the_collector_is_paused_while_decoding_and_building(self, tmp_path, monkeypatch):
        import orjson

        path = tmp_path / "d.json"
        path.write_text("{}")
        assert read_json(path, "distribution", lambda doc: gc.isenabled()) is False
        monkeypatch.setattr(orjson, "loads", lambda data: gc.isenabled())
        assert read_json(path, "distribution", lambda enabled: enabled) is False
