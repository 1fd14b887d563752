"""The expected-rounds bound and the log-log slope fitter (the word laws
are checked against runs in test_word_laws.py)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.complexity import WORD_LAWS, expected_rounds_bound, fit_loglog_slope
from repro.core.params import ProtocolParams
from tests.analysis.test_word_laws import expected_round_words


class TestExpectedRounds:
    def test_inverse_of_success_rate(self):
        assert expected_rounds_bound(0.25) == 4.0
        assert expected_rounds_bound(1.0) == 1.0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            expected_rounds_bound(0.0)
        with pytest.raises(ValueError):
            expected_rounds_bound(1.5)


class TestLogLogFit:
    def test_exact_power_law(self):
        xs = [10.0, 20.0, 40.0, 80.0]
        ys = [x**2 for x in xs]
        assert fit_loglog_slope(xs, ys) == pytest.approx(2.0)

    @given(st.floats(0.5, 3.0), st.floats(0.1, 10.0))
    def test_recovers_arbitrary_exponents(self, exponent, scale):
        xs = [10.0, 30.0, 100.0, 300.0]
        ys = [scale * x**exponent for x in xs]
        assert fit_loglog_slope(xs, ys) == pytest.approx(exponent, rel=1e-6)

    def test_model_slopes_match_table1(self):
        # At a fixed round count a baseline's law is quadratic in n; ours,
        # with the paper's λ = 8 ln n members per committee, n log² n.
        ns = [100, 300, 1000, 3000, 10000]
        cachin = WORD_LAWS["cachin"]
        slope_cachin = fit_loglog_slope(ns, [cachin(n, 2, 3, True) for n in ns])
        slope_ours = fit_loglog_slope(
            ns, [expected_round_words(ProtocolParams.from_paper(n)) for n in ns]
        )
        assert slope_cachin == pytest.approx(2.0, abs=0.01)
        assert 1.0 < slope_ours < 1.4  # n log^2 n

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            fit_loglog_slope([1.0, -2.0], [1.0, 1.0])

    def test_constant_series_has_no_slope(self):
        with pytest.raises(ValueError, match="two distinct x values"):
            fit_loglog_slope([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])

    def test_nan_hole_rejected_with_finite_message(self):
        with pytest.raises(ValueError, match="finite"):
            fit_loglog_slope([1.0, 2.0, 3.0], [1.0, float("nan"), 3.0])
        with pytest.raises(ValueError, match="finite"):
            fit_loglog_slope([1.0, float("inf")], [1.0, 2.0])
