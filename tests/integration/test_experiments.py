"""Smoke tests for the experiment harness (tiny configurations).

The benchmarks drive these modules at publication scale; here we pin that
every experiment runs, returns structured rows, formats, and satisfies
its headline property at smoke scale.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import ablation as e6
from repro.experiments import coin_success as e1
from repro.experiments import committee_bounds as e2
from repro.experiments import fig1
from repro.experiments import mmr_ourcoin as e7
from repro.experiments import rounds as e5
from repro.experiments import safety as e8
from repro.experiments import scaling as e4
from repro.experiments import table1
from repro.experiments import whp_coin_sweep as e3
from repro.experiments.protocols import PROTOCOLS, default_f, make_runner
from repro.experiments.tables import format_table


class TestTables:
    def test_alignment_and_content(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 10_000]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(map(len, lines))) == 1  # fully aligned
        assert "10,000" in text
        assert "2.50" in text

    def test_empty_rows(self):
        text = format_table(["h1", "h2"], [])
        assert "h1" in text


class TestProtocolRegistry:
    def test_all_protocols_constructible(self):
        for name in PROTOCOLS:
            factory, params, f = make_runner(name, 16, seed=0)
            assert callable(factory)
            assert params.n == 16
            assert 0 < f < 16

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            make_runner("pbft", 16)

    def test_default_f_respects_resilience(self):
        assert default_f("benor", 30) <= 30 / 5
        assert default_f("rabin", 33) <= 33 / 10
        assert default_f("bracha", 30) < 10


class TestT1:
    def test_smoke(self):
        rows = table1.run(
            n=16, seeds=range(2), safety_sigmas=None, protocols=("mmr", "cachin")
        )
        assert len(rows) == 2
        for row in rows:
            assert row.terminated == row.trials
            assert row.agreed == row.terminated
            assert row.mean_words > 0
        text = table1.format_table1(rows)
        assert "O(n^2)" in text


class TestF1:
    def test_smoke(self):
        params, stats = fig1.run(n=80, seeds=range(4), safety_sigmas=3.0)
        assert len(stats) == 4
        for stat in stats:
            assert stat.trials == 4
            assert stat.mean_size == pytest.approx(params.lam, rel=0.5)
        assert "committee" in fig1.format_fig1(params, stats)


class TestE1:
    def test_measured_rate_above_bound(self):
        points = e1.run(n=12, f_values=(0, 2), seeds=range(8))
        for point in points:
            assert point.estimate.mean >= max(0.0, 2 * point.paper_bound) - 1e-9
        assert "epsilon" in e1.format_coin_success(points)

    def test_perfect_coin_without_faults_has_full_ci(self):
        (point,) = e1.run(n=10, f_values=(0,), seeds=range(6))
        assert point.estimate.mean == 1.0


class TestE1b:
    def test_common_values_above_lemma_bound(self):
        from repro.experiments import common_values

        points = common_values.run(n=12, f_values=(0, 2), seeds=range(4))
        for point in points:
            assert point.min_c >= point.paper_bound_c - 1e-9
            assert 0 <= point.min_common_rate <= 1
        assert "Lemma 4.2" in common_values.format_common_values(points)

    def test_f_zero_everything_common(self):
        from repro.experiments import common_values

        (point,) = common_values.run(n=10, f_values=(0,), seeds=range(3))
        # With f = 0 every process's value reaches everyone in phase 1.
        assert point.mean_c == 10
        assert point.min_common_rate == 1.0


class TestE2:
    def test_smoke(self):
        points = e2.run(
            n_values=(60,), f_fraction=0.1, seeds=range(15), safety_sigmas=None
        )
        (point,) = points
        assert point.trials == 15
        assert set(point.violations) == {"S1", "S2", "S3", "S4"}
        assert "Chernoff" in e2.format_committee_bounds(points)

    def test_simulation_params_have_low_s3(self):
        points = e2.run(
            n_values=(80,), f_fraction=0.05, seeds=range(20), safety_sigmas=3.0
        )
        (point,) = points
        # 3-sigma margins: S3/S4 violations rare.
        assert point.violations["S3"] <= 2
        assert point.violations["S4"] <= 2


class TestE3:
    def test_smoke(self):
        points = e3.run(n=60, f=2, d_values=(0.02,), seeds=range(5), safety_sigmas=3.0)
        (point,) = points
        assert point.live >= 4
        assert point.agreement.mean >= 0.6
        assert "lam" in e3.format_whp_coin(points)


class TestE4:
    def test_smoke_slopes(self):
        curves = e4.run(
            n_values=(16, 32), seeds=range(2), protocols=("cachin",), safety_sigmas=None
        )
        (curve,) = curves
        assert curve.mean_words[1] > curve.mean_words[0]
        assert 1.0 < curve.slope_words < 3.0
        assert "slope" in e4.format_scaling(curves)

    def test_delivery_cap_scales_with_n_squared(self):
        # Every tracked point (n <= 400) keeps the 8M cap its table was
        # made with; from n = 800 the cap covers eight ~5n²-delivery
        # MMR rounds instead of stopping the baselines mid-run.
        for n in (16, 50, 100, 200, 400):
            assert e4._delivery_cap(n) == 8_000_000
        for n in (800, 1600, 3200):
            assert e4._delivery_cap(n) >= 8 * 5 * n * n
        assert e4._delivery_cap(1600) > e4._delivery_cap(800) > 8_000_000


class TestE5:
    def test_rounds_constant_ish(self):
        points = e5.run(n_values=(24, 48), seeds=range(3), safety_sigmas=4.0)
        for point in points:
            assert point.completed == point.trials
            assert point.mean_rounds <= 5
        assert "histogram" in e5.format_rounds(points)


class TestE6:
    def test_content_aware_below_legal(self):
        rows = e6.run(n=12, f=2, seeds=range(15))
        by_name = {row.scheduler: row for row in rows}
        assert by_name["random"].agreement.mean >= 0.9
        assert (
            by_name["content-aware"].agreement.mean
            <= by_name["random"].agreement.mean
        )
        assert "NO" in e6.format_ablation(rows)


class TestE7:
    def test_shared_coin_beats_local_on_rounds(self):
        rows = e7.run(n=16, seeds=range(6), variants=("mmr", "mmr+alg1"))
        by_name = {row.variant: row for row in rows}
        assert by_name["mmr+alg1"].mean_rounds <= by_name["mmr"].mean_rounds + 1
        assert by_name["mmr+alg1"].max_rounds <= 6
        assert "Algorithm 1" in e7.format_mmr_ourcoin(rows)


class TestX1:
    def test_hybrid_fallback_smoke(self):
        from repro.experiments import hybrid_fallback

        points = hybrid_fallback.run(
            n=40, f=2, committee_round_values=(0, 2), seeds=range(2), safety_sigmas=4.0
        )
        by_rounds = {point.committee_rounds: point for point in points}
        assert by_rounds[0].committee_deciders == 0
        assert by_rounds[0].fallback_runs == by_rounds[0].terminated
        assert by_rounds[2].committee_deciders > 0
        assert "fallback runs" in hybrid_fallback.format_hybrid(points)


class TestX2:
    def test_justification_is_load_bearing(self):
        from repro.experiments import justification_ablation as x2

        points = x2.run(n=40, f=2, seeds=range(2), safety_sigmas=4.0)
        by_key = {(p.justify, p.attack): p for p in points}
        assert by_key[(True, True)].validity_violations == 0
        assert (
            by_key[(False, True)].validity_violations
            == by_key[(False, True)].live
        )
        assert (
            by_key[(True, False)].mean_words
            > by_key[(False, False)].mean_words
        )
        assert "ablation" in x2.format_justification(points)


class TestE8:
    def test_no_safety_violations(self):
        cells = e8.run(
            protocols=("mmr",), strategies=("silent-static",), n=13, seeds=range(2),
            safety_sigmas=None,
        )
        for cell in cells:
            assert cell.agreement_violations == 0
            assert cell.validity_violations == 0
        assert "strategy" in e8.format_safety(cells)
