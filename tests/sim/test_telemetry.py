"""The telemetry probe: bounded sampling, determinism, replay from a recording."""

from __future__ import annotations

import pytest

from repro.experiments.protocols import make_runner
from repro.sim.flightrecorder import FlightRecorder, load_recording, save_recording
from repro.sim.runner import run_protocol, stop_when_all_decided
from repro.sim.telemetry import (
    SeriesBank,
    StreamingQuantiles,
    TelemetryProbe,
    telemetry_from_events,
)


class TestSeriesBank:
    def test_under_budget_keeps_every_row(self):
        bank = SeriesBank(("a", "b"), budget=16)
        for step in range(10):
            assert bank.record(step, (step, step * 2)) is False
        assert bank.stride == 1
        assert bank.steps == list(range(10))
        assert bank.columns["b"] == [step * 2 for step in range(10)]

    def test_overflow_halves_and_signals_caller(self):
        bank = SeriesBank(("a",), budget=8)
        coarsened = [bank.record(step, (step,)) for step in range(20)]
        # Every overflow drops every other retained row and doubles the
        # recorded stride; the caller widens its grid on each True.
        assert any(coarsened)
        assert bank.stride == 2 ** sum(coarsened)
        assert len(bank.steps) <= 8

    def test_always_spans_run_within_budget_bounds(self):
        budget = 16
        bank = SeriesBank(("gauge",), budget=budget)
        for step in range(1000):
            bank.record(step, (float(step),))
        assert budget // 2 <= len(bank.steps) <= budget
        assert bank.steps[0] == 0  # oldest sample survives decimation
        assert bank.steps == sorted(bank.steps)
        assert len(bank.columns["gauge"]) == len(bank.steps)

    def test_to_dict_shares_stride_and_steps(self):
        bank = SeriesBank(("a", "b"), budget=8)
        for step in range(5):
            bank.record(step, (step, -step))
        doc = bank.to_dict()
        assert set(doc) == {"a", "b"}
        assert doc["a"]["steps"] == doc["b"]["steps"]
        assert doc["a"]["stride"] == bank.stride

    def test_tiny_budget_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            SeriesBank(("a",), budget=4)


class TestStreamingQuantiles:
    def test_exact_stats_without_overflow(self):
        sketch = StreamingQuantiles(budget=64)
        for value in range(50):
            sketch.record(value)
        doc = sketch.to_dict()
        assert doc["count"] == 50
        assert doc["min"] == 0 and doc["max"] == 49
        assert doc["p50"] == round(0.5 * 49)

    def test_count_min_max_exact_under_decimation(self):
        sketch = StreamingQuantiles(budget=8)
        for value in range(1000):
            sketch.record(value)
        assert sketch.count == 1000
        assert sketch.vmin == 0 and sketch.vmax == 999
        assert len(sketch.sample) <= 8
        assert sketch.stride > 1

    def test_decimated_quantiles_stay_representative(self):
        sketch = StreamingQuantiles(budget=32)
        for value in range(10_000):
            sketch.record(value)
        # Systematic sampling of a uniform ramp: nearest-rank p50 must
        # land well inside the middle half.
        assert 2_500 < sketch.quantile(0.5) < 7_500

    def test_empty_sketch(self):
        sketch = StreamingQuantiles()
        assert sketch.quantile(0.5) is None
        assert sketch.to_dict()["count"] == 0

    def test_tiny_budget_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            StreamingQuantiles(budget=2)


def _ba_run(*observers, seed=7, n=16):
    factory, params, f = make_runner("whp_ba", n, seed=seed)
    return run_protocol(
        n, f, factory, corrupt=set(range(f)), params=params,
        stop_condition=stop_when_all_decided, seed=seed,
        observers=observers,
    )


@pytest.fixture(scope="module")
def probed_run():
    """One whp_ba run with a probe and a recorder attached."""
    probe = TelemetryProbe(sample_budget=64)
    recorder = FlightRecorder()
    result = _ba_run(probe, recorder)
    return probe, recorder, result


class TestTelemetryProbe:
    def test_identical_seeds_produce_identical_snapshots(self):
        first = TelemetryProbe(sample_budget=64)
        second = TelemetryProbe(sample_budget=64)
        _ba_run(first)
        _ba_run(second)
        assert first.snapshot() == second.snapshot()

    def test_snapshot_is_pure_function_of_event_log(self, probed_run):
        probe, recorder, _ = probed_run
        replayed = telemetry_from_events(recorder.events, sample_budget=64)
        assert replayed == probe.snapshot()

    def test_saved_recording_replays_the_live_snapshot(self, probed_run, tmp_path):
        # What lets `repro record` write the recording alone: the file
        # holds everything the attached probe saw.
        probe, recorder, result = probed_run
        path = save_recording(tmp_path / "run.jsonl", recorder, result, protocol="whp_ba")
        replayed = telemetry_from_events(load_recording(path).events, sample_budget=64)
        assert replayed == probe.snapshot()

    def test_snapshot_idempotent(self, probed_run):
        probe, _, _ = probed_run
        assert probe.snapshot() == probe.snapshot()

    def test_counters_match_run_result(self, probed_run):
        probe, _, result = probed_run
        snap = probe.snapshot()
        assert snap["counters"]["delivers"] == result.deliveries
        # Cumulative words (correct senders only) match the kernel's
        # word-complexity accounting exactly.
        assert snap["words_total"] == result.words

    def test_series_respect_sample_budget(self, probed_run):
        probe, _, result = probed_run
        snap = probe.snapshot()
        series = snap["series"]
        in_flight = series["in_flight"]
        assert result.deliveries > 64  # the budget was actually exercised
        assert 32 <= len(in_flight["steps"]) <= 64
        assert in_flight["steps"] == sorted(in_flight["steps"])
        layers = series["words_by_layer"]
        assert set(layers) == {"approver", "coin", "other"}
        for entry in (*layers.values(), series["blocked"], series["backlog_max"]):
            assert len(entry["values"]) == len(in_flight["steps"])
            assert entry["stride"] == in_flight["stride"]

    def test_words_by_layer_is_cumulative_and_complete(self, probed_run):
        probe, _, result = probed_run
        layers = probe.snapshot()["series"]["words_by_layer"]
        for entry in layers.values():
            assert entry["values"] == sorted(entry["values"])
        final_sum = sum(entry["values"][-1] for entry in layers.values())
        # The last grid sample may predate the final deliveries, so the
        # layered sum is bounded by (and close to) the exact total.
        assert final_sum <= result.words

    def test_latency_quantiles_sampled_and_sane(self, probed_run):
        probe, _, _ = probed_run
        quantiles = probe.snapshot()["quantiles"]
        latency = quantiles["link_latency_steps"]
        assert latency["source_stride"] == 8
        assert latency["count"] > 0
        assert 0 <= latency["min"] <= latency["p50"] <= latency["p99"]
        waits = quantiles["wait_steps"]
        assert waits["count"] > 0 and waits["min"] >= 0
        assert quantiles["wait_depth"]["min"] >= 0

    def test_depth_profile_covers_run(self, probed_run):
        probe, _, result = probed_run
        profile = probe.snapshot()["depth_profile"]
        assert profile and profile == sorted(profile, key=lambda r: r["depth"])
        assert sum(row["messages"] for row in profile) == result.deliveries
        decisions = sum(row["decisions"] for row in profile)
        assert decisions >= result.n - result.f
