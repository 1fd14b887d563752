"""Chrome trace-event export: structure, pairing, and flow integrity."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.experiments.protocols import make_runner
from repro.sim.flightrecorder import FlightRecorder, save_recording, load_recording
from repro.sim.runner import run_protocol, stop_when_all_decided
from repro.sim.traceexport import (
    chrome_trace_events,
    export_chrome_trace,
    save_chrome_trace,
)

N, SEED = 16, 4


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    factory, params, f = make_runner("whp_ba", N, seed=SEED)
    recorder = FlightRecorder()
    result = run_protocol(
        N, f, factory, corrupt=set(range(f)), params=params,
        stop_condition=stop_when_all_decided, seed=SEED,
        observers=[recorder],
    )
    path = save_recording(
        tmp_path_factory.mktemp("trace") / "run.jsonl", recorder, result,
        protocol="whp_ba",
    )
    return load_recording(path)


class TestTraceStructure:
    def test_export_is_json_and_loadable(self, recording):
        trace = export_chrome_trace(recording)
        text = json.dumps(trace)
        again = json.loads(text)
        assert again["traceEvents"]
        assert again["otherData"]["n"] == N
        assert again["displayTimeUnit"] == "ms"

    def test_metadata_names_every_process(self, recording):
        events = chrome_trace_events(recording.events, recording.header)
        thread_meta = [
            e for e in events if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert {e["tid"] for e in thread_meta} == set(range(N))
        corrupted = set(recording.header["corrupted"])
        for meta in thread_meta:
            labelled = "(corrupted)" in meta["args"]["name"]
            assert labelled == (meta["tid"] in corrupted)

    def test_timestamps_are_monotonic(self, recording):
        events = chrome_trace_events(recording.events, recording.header)
        stamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert stamps == sorted(stamps)

    def test_phase_spans_nest_validly_per_process(self, recording):
        """Never more closes than opens; unclosed spans only from the
        harness stopping the (forever-looping) BA mid-round -- at most
        one in-flight span per nesting level per process."""
        events = chrome_trace_events(recording.events, recording.header)
        opens = Counter(
            (e["tid"], e["name"]) for e in events
            if e["ph"] == "B" and e["cat"] == "phase"
        )
        closes = Counter(
            (e["tid"], e["name"]) for e in events
            if e["ph"] == "E" and e["cat"] == "phase"
        )
        assert opens  # spans actually exported
        for key, count in opens.items():
            assert closes[key] <= count
            assert count - closes[key] <= 1  # one cut-short span at most
        assert sum(closes.values()) > 0

    def test_flow_arrows_pair_sends_with_deliveries(self, recording):
        events = chrome_trace_events(recording.events, recording.header)
        starts = {e["id"] for e in events if e["ph"] == "s"}
        finishes = [e["id"] for e in events if e["ph"] == "f"]
        # Every delivery's flow arrow originates at a recorded send.
        assert finishes
        assert set(finishes) <= starts
        # seq ids are unique per send.
        sends = [e["id"] for e in events if e["ph"] == "s"]
        assert len(sends) == len(set(sends))

    def test_decides_exported_as_instants(self, recording):
        events = chrome_trace_events(recording.events, recording.header)
        decides = [e for e in events if e.get("cat") == "decision"]
        assert decides
        assert all(e["ph"] == "i" for e in decides)
        corrupted = set(recording.header["corrupted"])
        assert {e["tid"] for e in decides} == set(range(N)) - corrupted


class TestSaveChromeTrace:
    def test_writes_loadable_file(self, recording, tmp_path):
        path = save_chrome_trace(tmp_path / "run.trace.json", recording)
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]
        assert trace["otherData"]["deliveries"] == recording.summary["deliveries"]
