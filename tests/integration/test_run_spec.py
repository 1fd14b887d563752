"""One run spec under the tools: resolve a name once, execute it once.

``resolve_run`` turns every name ``repro record --protocol`` accepts (a
Table 1 protocol or a zoo scenario, optionally ``@rate``-suffixed) into a
``RunSpec``, and ``RunSpec.run`` is the executor ``record``, ``explain``,
``fuzz``, ``degrade`` and ``check`` share.  The round trip below is the
contract between them: what one records, the other rebuilds from the
recording's header and replays event for event.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.forensics import replay_recording
from repro.experiments.protocols import PROTOCOLS
from repro.experiments.report import record_run
from repro.experiments.scenarios import SCENARIOS, resolve_run
from repro.experiments.store import to_jsonable
from repro.sim.adversary import StaticCorruption
from repro.sim.flightrecorder import FlightRecorder, load_recording, save_recording
from repro.sim.runner import run_protocol, stop_when_all_decided

N = 8  # smallest n with feasible whp_ba committee parameters


class TestRoundTrip:
    @pytest.mark.parametrize("name", [*PROTOCOLS, *SCENARIOS])
    def test_recorded_run_replays_event_for_event(self, name, tmp_path):
        path, result = record_run(
            tmp_path / "flight.jsonl", name=name, n=N, seed=0,
            profile=False,
        )
        recording = load_recording(path)
        assert recording.header["protocol"] == name
        recorder = FlightRecorder()
        replayed = replay_recording(recording, observers=[recorder])
        assert tuple(recorder.events) == recording.events
        assert replayed.decisions == result.decisions
        assert replayed.words == result.words

    def test_replay_honours_the_headers_corrupted_set(self, tmp_path):
        """A recording of a run that did not corrupt ``range(f)`` (the
        perf adapter and several tests make those) replays as it ran."""
        spec = replace(
            resolve_run("whp_ba", N, seed=2), corruption=StaticCorruption({N - 1})
        )
        recorder = FlightRecorder()
        result = spec.run(observers=[recorder])
        assert result.corrupted == {N - 1}
        path = save_recording(
            tmp_path / "odd.jsonl", recorder, result, protocol="whp_ba"
        )
        twin = FlightRecorder()
        replay_recording(load_recording(path), observers=[twin])
        assert twin.events == recorder.events


class TestBenignSpec:
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_is_the_run_run_protocol_makes_by_default(self, name):
        spec = resolve_run(name, N, seed=4)
        assert (spec.name, spec.n, spec.seed) == (name, N, 4)
        assert spec.lossy is None and spec.behavior_factory is None
        by_hand = run_protocol(
            N, spec.f, spec.factory, corrupt=set(range(spec.f)),
            params=spec.params, stop_condition=stop_when_all_decided, seed=4,
            max_deliveries=20_000,
        )
        assert to_jsonable(spec.run(max_deliveries=20_000)) == to_jsonable(by_hand)

    def test_a_protocol_takes_no_rate(self):
        with pytest.raises(ValueError, match="unknown protocol or scenario"):
            resolve_run("whp_ba@0.1", N)
        with pytest.raises(ValueError, match="unknown protocol or scenario"):
            resolve_run("whp_ba", N, rate=0.1)


class TestNamesRoundTripTheirRate:
    def test_the_nine_digit_rate_that_g_formatting_lost(self):
        spec = resolve_run("lossy_uniform", N, rate=0.123456789)
        assert spec.name == "lossy_uniform@0.123456789"
        again = resolve_run(spec.name, N)
        assert again.rate == spec.rate
        assert again.lossy == spec.lossy

    def test_short_rates_print_as_before(self):
        for rate, text in ((0.1, "0.1"), (0.05, "0.05"), (0.02, "0.02"), (0.3, "0.3")):
            assert resolve_run("dup_storm", N, rate=rate).name == f"dup_storm@{text}"

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(SCENARIOS),
        rate=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_every_zoo_name_resolves_back_to_its_rate(self, name, rate):
        spec = resolve_run(name, N, rate=rate)
        again = resolve_run(spec.name, N)
        assert again.rate == spec.rate
        assert again.lossy == spec.lossy
        assert again.name == spec.name
