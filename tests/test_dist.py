import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discinfo import (
    Assignment,
    JointDistribution,
    UnnormalizedWeight,
    Variable,
    ZeroProbabilityEvent,
    condition,
    marginalize,
    prob_of,
    product,
)
from discinfo.dist import dump_distribution, load_distribution, read_json


def three_cell():
    # uniform mass on (x, y) in {(0,0), (1,0), (1,1)}
    return JointDistribution(
        (Variable("X", ("0", "1")), Variable("Y", ("0", "1"))),
        [1 / 3, 0.0, 1 / 3, 1 / 3],
    )


def fair_coin(name="X"):
    return JointDistribution((Variable(name, ("0", "1")),), [0.5, 0.5])


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

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            JointDistribution(
                (Variable("X", ("0", "1")), Variable("X", ("0", "1"))),
                [0.25] * 4,
            )

    def test_cell_cap(self):
        v = Variable("X", tuple(str(i) for i in range(8)))
        with pytest.raises(ValueError, match="cap"):
            JointDistribution((v,), np.full(8, 1 / 8), max_cells=4)

    def test_probs_are_read_only(self):
        d = fair_coin()
        with pytest.raises(ValueError):
            d.probs[0] = 0.9


class TestMarginalize:
    def test_uniform_square_to_x(self):
        d = product(fair_coin("X"), fair_coin("Y"))
        m = marginalize(d, {"X"})
        np.testing.assert_allclose(m.probs, [0.5, 0.5])

    def test_three_cell_to_x(self):
        m = marginalize(three_cell(), {"X"})
        np.testing.assert_allclose(m.probs, [1 / 3, 2 / 3])

    def test_identity(self):
        d = three_cell()
        m = marginalize(d, {"X", "Y"})
        np.testing.assert_allclose(m.probs, d.probs)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            marginalize(three_cell(), {"Z"})

    def test_empty_keep(self):
        with pytest.raises(ValueError):
            marginalize(three_cell(), set())


class TestCondition:
    def test_three_cell_on_y1_is_point_mass(self):
        c = condition(three_cell(), {"Y": 1})
        np.testing.assert_allclose(c.probs, [0.0, 1.0], atol=1e-15)

    def test_product_conditioning_is_noop(self):
        d = product(fair_coin("X"), fair_coin("Y"))
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
    def test_two_fair_coins(self):
        d = product(fair_coin("X"), fair_coin("Y"))
        np.testing.assert_allclose(d.probs, np.full((2, 2), 0.25))

    def test_point_mass_extension(self):
        point = JointDistribution((Variable("Z", ("a",)),), [1.0])
        d = product(three_cell(), point)
        np.testing.assert_allclose(d.probs.reshape(2, 2), three_cell().probs)

    def test_direct_multiplication(self):
        px = JointDistribution((Variable("X", ("0", "1")),), [1 / 3, 2 / 3])
        py = fair_coin("Y")
        d = product(px, py)
        np.testing.assert_allclose(d.probs.ravel(), [1 / 6, 1 / 6, 1 / 3, 1 / 3])

    def test_name_collision(self):
        with pytest.raises(ValueError, match="collision"):
            product(fair_coin("X"), fair_coin("X"))


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
    via_two_steps = marginalize(marginalize(d, {"X", "Y"}), {"X"})
    direct = marginalize(d, {"X"})
    np.testing.assert_allclose(via_two_steps.probs, direct.probs, atol=1e-12)


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
    c = condition(product(d1, d2), {"Y": y})
    np.testing.assert_allclose(c.probs, d1.probs, atol=1e-12)


class TestAssignment:
    def test_from_labels(self):
        a = Assignment.from_labels(three_cell(), {"Y": "1"})
        assert a.as_dict() == {"Y": 1}

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Assignment((("Y", 0), ("Y", 1)))

    def test_validate_range(self):
        a = Assignment((("Y", 7),))
        with pytest.raises(ValueError):
            a.validate_against(three_cell())

    def test_prob_of_partial(self):
        assert prob_of(three_cell(), {"Y": 0}) == pytest.approx(2 / 3)


class TestWeights:
    def test_z_is_cell_sum(self):
        w = UnnormalizedWeight((Variable("X", ("0", "1")),), [0.5, 1.5])
        assert w.z == pytest.approx(2.0)

    def test_declared_z_checked(self):
        with pytest.raises(ValueError, match="total mass"):
            UnnormalizedWeight((Variable("X", ("0", "1")),), [0.5, 1.5], z=3.0)

    def test_normalize(self):
        w = UnnormalizedWeight((Variable("X", ("0", "1")),), [1.0, 3.0])
        np.testing.assert_allclose(w.normalize().probs, [0.25, 0.75])


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
        got = read_json(path, "distribution")["probs"]
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
