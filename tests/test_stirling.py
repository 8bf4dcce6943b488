import math
import re

import numpy as np
import pytest
from scipy.stats import binom

from discinfo import LogBase, log_binomial_exact, log_binomial_sweep, stirling_bound
from discinfo.stirling import report_sweep


class TestLogBinomialExact:
    def test_ten_choose_five(self):
        assert log_binomial_exact(10, 5) == pytest.approx(math.log(252), abs=1e-12)

    def test_boundaries(self):
        assert log_binomial_exact(7, 0) == 0.0
        assert log_binomial_exact(7, 7) == 0.0

    def test_against_integer_binomials(self):
        for n in range(21):
            for r in range(n + 1):
                assert log_binomial_exact(n, r) == pytest.approx(
                    math.log(math.comb(n, r)), rel=1e-12, abs=1e-12
                )

    def test_large_n_relative_accuracy(self):
        # lgamma is an independent route at this scale
        n, r = 10**6, 123_456
        expected = (
            math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
        )
        assert log_binomial_exact(n, r) == pytest.approx(expected, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_binomial_exact(5, 6)
        with pytest.raises(ValueError):
            log_binomial_exact(5, -1)

    def test_refuses_non_integers(self):
        with pytest.raises(ValueError, match="^n = 10.9 is not an integer$"):
            log_binomial_exact(10.9, 3)
        with pytest.raises(ValueError, match="^r = 3.2 is not an integer$"):
            log_binomial_exact(10, 3.2)
        with pytest.raises(ValueError, match="^r = True is not an integer$"):
            log_binomial_exact(10, True)
        assert log_binomial_exact(np.int64(10), np.uint8(3)) == log_binomial_exact(10, 3)

    def test_sweep_refuses_non_integers(self):
        for n in (5.5, 5.0, True, np.True_, "5"):
            with pytest.raises(ValueError, match="^n = .* is not an integer$"):
                log_binomial_sweep(n)
        assert len(log_binomial_sweep(np.int32(5))) == 6

    def test_sweep_domain(self):
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            log_binomial_sweep(-1)
        assert log_binomial_sweep(0).tolist() == [0.0]

    def test_sweep_matches_scalar(self):
        for n in (1, 2, 17, 100):
            sweep = log_binomial_sweep(n)
            for r in range(n + 1):
                assert sweep[r] == pytest.approx(log_binomial_exact(n, r), abs=1e-10)


class TestStirlingBound:
    def test_spot_value(self):
        report = stirling_bound(10, 5)
        assert report.exact == pytest.approx(math.log(252), abs=1e-9)
        assert report.bound == pytest.approx(10 * math.log(2), abs=1e-9)
        assert report.error == pytest.approx(math.log(1024 / 252), abs=1e-9)
        assert report.error_bound == pytest.approx(math.log(10), abs=1e-12)

    def test_boundary_r_zero(self):
        report = stirling_bound(7, 0)
        assert report.exact == 0.0
        assert report.bound == 0.0
        assert report.error == 0.0

    def test_bits(self):
        report = stirling_bound(10, 5, base=LogBase.BITS)
        assert report.bound == pytest.approx(10.0, abs=1e-12)
        assert report.error_bound == pytest.approx(math.log2(10), abs=1e-12)

    @pytest.mark.parametrize("args, message", [
        ((-1, 0), "n must be non-negative"),
        ((4, 2, 1.5), "rho must lie in [0, 1]"),
        ((4, 2, -0.5), "rho must lie in [0, 1]"),
    ])
    def test_refuses_values_outside_the_domain(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stirling_bound(*args)

    def test_refuses_non_integers(self):
        with pytest.raises(ValueError, match="^n = 10.9 is not an integer$"):
            stirling_bound(10.9, 3.7)
        with pytest.raises(ValueError, match="^n = True is not an integer$"):
            stirling_bound(True, False)
        with pytest.raises(ValueError, match="^r = False is not an integer$"):
            stirling_bound(1, False)
        report = stirling_bound(np.int64(10), np.int64(5))
        assert (type(report.n), type(report.r)) == (int, int)
        assert report == stirling_bound(10, 5)

    def test_rho_sweep_minimized_at_maximum_likelihood(self):
        n, r = 24, 7
        best = stirling_bound(n, r).bound
        for rho in np.linspace(0.05, 0.95, 19):
            assert stirling_bound(n, r, float(rho)).bound >= best - 1e-12

    def test_general_rho_error_is_binomial_ic(self):
        n, r, rho = 30, 11, 0.62
        report = stirling_bound(n, r, rho)
        assert report.error == pytest.approx(-binom.logpmf(r, n, rho), rel=1e-10)

    def test_incompatible_rho(self):
        with pytest.raises(ValueError):
            stirling_bound(5, 2, 0.0)
        with pytest.raises(ValueError):
            stirling_bound(5, 2, 1.0)

    def test_symmetry(self):
        for n in (2, 9, 40):
            for r in range(n + 1):
                a = stirling_bound(n, r)
                b = stirling_bound(n, n - r)
                assert a.exact == pytest.approx(b.exact, abs=1e-9)
                assert a.bound == pytest.approx(b.bound, abs=1e-9)
                assert a.error == pytest.approx(b.error, abs=1e-9)
                assert a.error_bound == b.error_bound


class TestSweepInvariants:
    def test_bound_dominates_and_error_is_count_ic(self):
        # the acceptance suite covers n <= 2000; keep a lighter sweep here
        for n in (1, 2, 3, 10, 37, 128, 300):
            exact, bound, error = report_sweep(n)
            assert np.all(exact <= bound + 1e-9)
            assert np.all(error <= math.log(n) + 1e-9)
            r = np.arange(n + 1)
            ic = -binom.logpmf(r, n, r / n) if n else None
            inner = slice(1, n)
            np.testing.assert_allclose(error[inner], ic[inner], rtol=1e-8)
            assert error[0] == pytest.approx(0.0, abs=1e-12)
            assert error[n] == pytest.approx(0.0, abs=1e-12)

    def test_report_sweep_refuses_no_trials(self):
        with pytest.raises(ValueError, match="^n must be positive$"):
            report_sweep(0)

    def test_report_sweep_refuses_non_integers(self):
        for n in (5.5, True, np.True_):
            with pytest.raises(ValueError, match="^n = .* is not an integer$"):
                report_sweep(n)

    def test_relative_error_shrinks_with_n(self):
        ratios = []
        for n in (10, 100, 1000):
            report = stirling_bound(n, n // 2)
            ratios.append(report.error / report.exact)
        assert ratios[0] > ratios[1] > ratios[2]
