"""The observer seam: attached observers never change the run or each other.

One parameterised check stands in for the per-observer copies that used
to live beside each observer's own tests: for every subset of the four
stock observers, in either list order, the ``RunResult`` is the bare
run's and each observer's own output is what it produces alone.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.experiments.protocols import make_runner
from repro.experiments.store import to_jsonable
from repro.sim.coverage import CoverageProbe
from repro.sim.events import ChunkedObserver, CorruptEvent, EventBus
from repro.sim.flightrecorder import FlightRecorder
from repro.sim.monitors import MonitorSuite
from repro.sim.runner import run_protocol, stop_when_all_decided
from repro.sim.telemetry import TelemetryProbe

N, SEED = 16, 5

# name -> (factory, what the observer reports after the run)
OBSERVERS = {
    "recorder": (FlightRecorder, lambda recorder: to_jsonable(recorder.events)),
    "suite": (MonitorSuite, lambda suite: suite.report()),
    "telemetry": (TelemetryProbe, lambda probe: probe.snapshot()),
    "coverage": (CoverageProbe, lambda probe: probe.snapshot()),
}
SUBSETS = [
    subset
    for size in range(len(OBSERVERS) + 1)
    for subset in combinations(OBSERVERS, size)
]


def observed_ba(names):
    """Run whp_ba with fresh observers ``names``; (result, name -> output)."""
    observers = {name: OBSERVERS[name][0]() for name in names}
    factory, params, f = make_runner("whp_ba", N, seed=SEED)
    result = run_protocol(
        N, f, factory, corrupt=set(range(f)), params=params,
        stop_condition=stop_when_all_decided, seed=SEED,
        observers=list(observers.values()),
    )
    outputs = {name: OBSERVERS[name][1](observers[name]) for name in names}
    return to_jsonable(result), outputs


@pytest.fixture(scope="module")
def alone():
    """The bare run, and each observer's output when attached alone."""
    bare, _ = observed_ba(())
    outputs = {}
    for name in OBSERVERS:
        result, solo = observed_ba((name,))
        assert result == bare
        outputs.update(solo)
    return bare, outputs


@pytest.mark.parametrize("subset", SUBSETS, ids=lambda names: "+".join(names) or "none")
def test_observers_change_neither_the_run_nor_each_other(subset, alone):
    bare, solo = alone
    for names in {subset, subset[::-1]}:
        result, outputs = observed_ba(names)
        assert result == bare
        for name in names:
            assert outputs[name] == solo[name], (name, names)


class TestAttach:
    def test_attach_begins_the_run_then_subscribes(self):
        bus = EventBus()
        suite = MonitorSuite()
        assert bus.attach(suite) is suite
        assert suite.runs == 1
        assert bus.subscribers == [suite.on_event]

    def test_attach_reads_on_event_from_the_instance(self):
        """The perf tracer wraps ``on_event`` per instance before the run."""
        bus = EventBus()
        recorder = FlightRecorder()
        seen = []
        recorder.on_event = seen.append
        bus.attach(recorder)
        event = CorruptEvent(step=0, pid=1)
        bus.emit(event)
        assert seen == [event] and recorder.events == []


class TestChunkedObserver:
    def test_folds_full_chunks_online_and_the_rest_on_flush(self):
        class Counter(ChunkedObserver):
            _CHUNK = 4
            chunks: list

            def _fold(self, chunk):
                self.chunks.append(len(chunk))

        counter = Counter()
        counter.chunks = []
        for step in range(10):
            counter.on_event(CorruptEvent(step=step, pid=0))
        assert counter.chunks == [4, 4]
        counter._flush()
        counter._flush()  # nothing pending: no empty fold
        assert counter.chunks == [4, 4, 2]
