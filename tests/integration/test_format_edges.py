"""Formatting/reporting edge paths of the experiment modules."""

from __future__ import annotations

import math

from repro.experiments.fig1 import CommitteeStats, format_fig1
from repro.experiments.rounds import RoundsPoint, format_rounds
from repro.experiments.scaling import ScalingCurve, format_scaling
from repro.experiments.table1 import Table1Row, format_table1
from repro.experiments.whp_coin_sweep import WhpCoinPoint, format_whp_coin
from repro.analysis.stats import BernoulliEstimate
from repro.core.params import ProtocolParams

NAN = float("nan")


class TestTable1Formatting:
    def test_nan_rows_render(self):
        row = Table1Row(
            protocol="whp_ba", n=40, f=3, trials=3, terminated=0, agreed=0,
            mean_words=NAN, mean_duration=NAN, mean_rounds=NAN,
        )
        text = format_table1([row])
        assert "whp_ba" in text
        assert "0/3" in text
        assert "-" in text  # the agreement column placeholder


class TestScalingFormatting:
    def test_partial_nan_curve_renders_with_plot(self):
        curve = ScalingCurve(
            protocol="whp_ba",
            n_values=(30, 60),
            mean_words=(100.0, NAN),       # n=60 runs all failed
            mean_messages=(50.0, NAN),
            mean_rounds=(2.0, NAN),
            words_per_round=(50.0, NAN),
            slope_words=NAN,
            slope_words_per_round=NAN,
            law_words=(100.0, NAN),
        )
        text = format_scaling([curve])
        assert "whp_ba" in text
        assert "legend" in text  # the ASCII plot still renders the finite point


class TestRoundsFormatting:
    def test_empty_histogram(self):
        point = RoundsPoint(
            n=40, f=3, trials=2, completed=0,
            mean_rounds=NAN, max_rounds=0, histogram={},
        )
        text = format_rounds([point])
        assert "0/2" in text


class TestWhpCoinFormatting:
    def test_zero_live_runs(self):
        params = ProtocolParams(n=20, f=1, lam=10.0, d=0.05)
        point = WhpCoinPoint(
            params=params, live=0, trials=5,
            agreement=BernoulliEstimate(successes=0, trials=1),
            paper_bound=-0.1,
        )
        text = format_whp_coin([point])
        assert "0/5" in text
        assert "0" in text  # negative bound clamps to 0


class TestFig1Formatting:
    def test_roles_render_with_counts(self):
        params = ProtocolParams(n=100, f=5, lam=20.0, d=0.05)
        stat = CommitteeStats(
            role="init", mean_size=20.0, min_size=15, max_size=25,
            mean_correct=19.0, min_correct=14, mean_byzantine=1.0,
            max_byzantine=3, s1_violations=1, s2_violations=2,
            s3_violations=0, s4_violations=0, trials=10,
        )
        text = format_fig1(params, [stat])
        assert "1/10" in text and "2/10" in text
        assert "band" in text


class TestNanSafety:
    def test_render_cell_handles_special_floats(self):
        from repro.experiments.tables import _render_cell

        assert _render_cell(NAN) == "nan"
        assert _render_cell(math.inf) == "inf"
        assert _render_cell(0.0) == "0"
        assert _render_cell(-12345.6) == "-12,346"
