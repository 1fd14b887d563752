"""Flight recordings: persistence, replay fidelity, critical path,
one-run-per-recorder, and observability under mid-run corruption.
(Observer-effect freedom is ``test_observers.py``'s; ordering facts read
off the event log are ``test_trace.py``'s.)"""

from __future__ import annotations

import random

import pytest

from repro.core.agreement import byzantine_agreement
from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.crypto.pki import PKI
from repro.experiments.store import to_jsonable
from repro.sim.adversary import (
    Adversary,
    CommitteeTargetingCorruption,
    RandomScheduler,
    StaticCorruption,
)
from repro.sim.events import CorruptEvent, DeliverEvent
from repro.sim.flightrecorder import (
    FlightRecorder,
    critical_path,
    load_recording,
    save_recording,
)
from repro.sim.network import Simulation
from repro.sim.runner import RunResult, run_protocol, stop_when_all_decided

N, F = 12, 2


def ba_args(n=N, f=F):
    params = ProtocolParams.simulation_scale(n=n, f=f)
    return dict(
        corrupt=set(range(f)),
        params=params,
        stop_condition=stop_when_all_decided,
        max_deliveries=200_000,
    )


def ba_factory(ctx):
    return byzantine_agreement(ctx, ctx.pid % 2)


class TestObserverEffect:
    def test_profiled_run_differs_only_in_timings(self):
        bare = run_protocol(N, F, ba_factory, seed=5, **ba_args())
        profiled = run_protocol(N, F, ba_factory, seed=5, profile=True, **ba_args())
        assert profiled.metrics.phase_timings
        assert not bare.metrics.phase_timings
        assert bare.metrics.to_dict(include_timings=False) == (
            profiled.metrics.to_dict(include_timings=False)
        )
        assert bare.decisions == profiled.decisions
        assert bare.deliveries == profiled.deliveries


class TestRoundTrip:
    def test_save_load_preserves_events_and_summary(self, tmp_path):
        recorder = FlightRecorder()
        result = run_protocol(
            N, F, ba_factory, seed=3,
            observers=[recorder], **ba_args(),
        )
        path = save_recording(tmp_path / "run.jsonl", recorder, result)
        recording = load_recording(path)
        assert list(recording.events) == recorder.events
        assert recording.header["n"] == N
        assert recording.header["f"] == F
        assert recording.header["seed"] == 3
        assert recording.summary["deliveries"] == result.deliveries
        assert recording.summary["words"] == result.words
        assert recording.summary["protocol"]["rounds"] == to_jsonable(
            result.metrics.rounds()
        )

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"k": "header", "schema": "repro.flight", "version": 99}\n')
        with pytest.raises(ValueError, match="version"):
            load_recording(path)
        path.write_text('{"k": "send"}\n')
        with pytest.raises(ValueError, match="no header"):
            load_recording(path)


class TestReplayFidelity:
    def run_recorded(self, scheduler_or_seed, pki, corruption):
        if isinstance(scheduler_or_seed, int):
            scheduler = RandomScheduler(random.Random(scheduler_or_seed))
        else:
            scheduler = scheduler_or_seed
        sim = Simulation(
            n=N, f=F, pki=pki,
            adversary=Adversary(scheduler=scheduler, corruption=corruption),
            seed=7, params=ProtocolParams.simulation_scale(n=N, f=F),
            stop_condition=stop_when_all_decided,
            max_deliveries=200_000,
        )
        recorder = sim.events.attach(FlightRecorder())
        sim.set_protocol_all(ba_factory)
        sim.run()
        return sim, recorder

    def test_replay_reproduces_event_log_and_round_metrics(self):
        pki = PKI.create(N, rng=random.Random(7))
        original, recorded = self.run_recorded(7, pki, StaticCorruption({0, 1}))
        replayed, replay_log = self.run_recorded(
            recorded.replay_scheduler(), pki, StaticCorruption({0, 1}),
        )
        assert replay_log.events == recorded.events
        assert replayed.metrics.rounds() == original.metrics.rounds()
        assert replayed.metrics.protocol_summary() == (
            original.metrics.protocol_summary()
        )
        assert RunResult.of(replayed).decisions == RunResult.of(original).decisions

    def test_replay_reproduces_adaptive_corruptions(self):
        """Mid-run corruption is schedule-determined, so a replay re-corrupts
        the same processes at the same steps."""
        pki = PKI.create(N, rng=random.Random(7))
        corruption = CommitteeTargetingCorruption(message_kinds=("FirstMsg",))
        original, recorded = self.run_recorded(7, pki, corruption)
        corrupt_events = [
            e for e in recorded.events if isinstance(e, CorruptEvent)
        ]
        assert corrupt_events, "the targeting adversary corrupted nobody"
        assert {e.pid for e in corrupt_events} == original.corrupted
        # Corruptions happen mid-run (after deliveries started), not at setup.
        assert any(e.step > 0 for e in corrupt_events)
        replayed, replay_log = self.run_recorded(
            recorded.replay_scheduler(), pki,
            CommitteeTargetingCorruption(message_kinds=("FirstMsg",)),
        )
        assert replayed.corrupted == original.corrupted
        assert replay_log.events == recorded.events


class TestCriticalPath:
    def coin_events(self, protocol, seed=3):
        pki = PKI.create(N, rng=random.Random(seed))
        sim = Simulation(
            n=N, f=F, pki=pki,
            adversary=Adversary(
                scheduler=RandomScheduler(random.Random(seed)),
                corruption=StaticCorruption({0, 1}),
            ),
            seed=seed, params=ProtocolParams.simulation_scale(n=N, f=F),
        )
        recorder = sim.events.attach(FlightRecorder())
        sim.set_protocol_all(protocol)
        sim.run()
        return sim, recorder.events

    def test_empty_without_decisions(self):
        _, events = self.coin_events(lambda ctx: shared_coin(ctx, 0))
        assert critical_path(events) == []

    def test_chain_spans_every_depth(self):
        recorder = FlightRecorder()
        result = run_protocol(
            N, F, ba_factory, seed=3,
            observers=[recorder], **ba_args(),
        )
        chain = critical_path(recorder.events)
        assert chain, "a decided run must have a critical path"
        decide = chain[-1]
        assert decide["kind"] == "decide"
        assert decide["depth"] == result.duration
        hops = [entry for entry in chain if entry["kind"] == "deliver"]
        assert [hop["depth"] for hop in hops] == list(
            range(1, result.duration + 1)
        )
        # Chain is causally consistent: sender of each hop is the
        # destination of the previous one.
        for earlier, later in zip(hops, hops[1:]):
            assert later["sender"] == earlier["dest"]
        assert decide["pid"] == hops[-1]["dest"]
        # Steps never decrease along the chain.
        steps = [entry["step"] for entry in chain]
        assert steps == sorted(steps)

    def test_survives_json_round_trip(self, tmp_path):
        recorder = FlightRecorder()
        result = run_protocol(
            N, F, ba_factory, seed=3,
            observers=[recorder], **ba_args(),
        )
        path = save_recording(tmp_path / "run.jsonl", recorder, result)
        recording = load_recording(path)
        assert critical_path(recording.events) == critical_path(recorder.events)


def coin_simulation(n=10, f=2, seed=3):
    pki = PKI.create(n, rng=random.Random(seed))
    return Simulation(
        n=n, f=f, pki=pki,
        adversary=Adversary(
            scheduler=RandomScheduler(random.Random(seed)),
            corruption=StaticCorruption(set(range(f))),
        ),
        seed=seed, params=ProtocolParams(n=n, f=f),
    )


class TestOneRunPerRecorder:
    def test_reused_recorder_holds_only_the_latest_run(self, tmp_path):
        recorder = FlightRecorder()
        first = run_protocol(N, F, ba_factory, seed=1, observers=[recorder], **ba_args())
        first_events = recorder.events
        second = run_protocol(N, F, ba_factory, seed=2, observers=[recorder], **ba_args())
        # The first run's list is left alone for whoever still holds it ...
        assert recorder.events is not first_events
        assert len([e for e in first_events if type(e) is DeliverEvent]) == first.deliveries
        # ... and the recorder now holds exactly the second run.
        assert len(recorder.of_kind("deliver")) == second.deliveries
        path = save_recording(tmp_path / "run.jsonl", recorder, second)
        assert len(load_recording(path).delivery_seqs()) == second.deliveries

    def test_save_rejects_a_log_that_is_not_this_run(self, tmp_path):
        """Raw ``subscribe`` bypasses ``begin_run``, so a recorder left
        subscribed across two hand-built simulations holds both."""
        recorder = FlightRecorder()
        for _ in range(2):
            sim = coin_simulation()
            sim.events.subscribe(recorder.on_event)
            sim.set_protocol_all(lambda ctx: shared_coin(ctx, 0))
            sim.run()
        result = RunResult.of(sim)
        assert len(recorder.of_kind("deliver")) == 2 * result.deliveries
        path = tmp_path / "two_runs.jsonl"
        with pytest.raises(ValueError, match="did not record exactly this run"):
            save_recording(path, recorder, result)
        assert not path.exists()
