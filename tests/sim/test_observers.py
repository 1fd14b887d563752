"""The observer seam: attached observers never change the run or each other.

One parameterised check stands in for the per-observer copies that used
to live beside each observer's own tests: for every subset of the four
stock observers, in either list order, the ``RunResult`` is the bare
run's and each observer's own output is what it produces alone.  And
none of them keeps the run's events: what each retains is bounded.
"""

from __future__ import annotations

import gc
from itertools import combinations

import pytest

from repro.experiments.protocols import make_runner
from repro.experiments.scenarios import resolve_run
from repro.experiments.store import to_jsonable
from repro.sim.coverage import CoverageProbe
from repro.sim.events import (
    ChunkedObserver,
    CorruptEvent,
    DeliverEvent,
    EventBus,
    SendEvent,
)
from repro.sim.flightrecorder import FlightRecorder
from repro.sim.monitors import MonitorSuite
from repro.sim.runner import run_protocol, stop_when_all_decided
from repro.sim.telemetry import TelemetryProbe

N, SEED = 16, 5

# name -> (factory, what the observer reports after the run)
OBSERVERS = {
    "recorder": (
        FlightRecorder,
        lambda recorder: (recorder.stream, recorder.event_count, recorder.schedule()),
    ),
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
        assert seen == [event] and recorder.event_count == 0


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


def live_events() -> list:
    gc.collect()
    return [obj for obj in gc.get_objects() if type(obj) in (SendEvent, DeliverEvent)]


class TestRetention:
    def test_the_stock_observers_keep_no_event_log(self):
        """After a run, the four stock observers hold no send and at most
        one delivery per (process, depth) -- the suite's causal index,
        which keeps none of the event objects themselves."""

        class DepthPairs:  # the distinct (dest, depth) pairs, as ints only
            def __init__(self):
                self.pairs = set()

            def on_event(self, event):
                if type(event) is DeliverEvent:
                    self.pairs.add((event.dest, event.depth))

        earlier = live_events()  # other tests' logs, still referenced
        known = {id(event) for event in earlier}
        depth_pairs = DepthPairs()
        observers = [FlightRecorder(), MonitorSuite(), TelemetryProbe(), CoverageProbe()]
        result = resolve_run("whp_ba", 32, seed=0).run(observers=[*observers, depth_pairs])
        assert result.deliveries > 10_000
        live = [event for event in live_events() if id(event) not in known]
        assert not [event for event in live if type(event) is SendEvent]
        assert len(live) <= len(depth_pairs.pairs)
        first = observers[1].index.first
        assert {(dest, depth) for dest in first for depth in first[dest]} == (
            depth_pairs.pairs
        )
        assert not hasattr(observers[0], "events")
        del earlier
