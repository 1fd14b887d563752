"""The kernel event bus: typed events, serialisation, emission semantics."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.crypto.pki import PKI
from repro.experiments.store import to_jsonable
from repro.sim.adversary import Adversary, RandomScheduler, StaticCorruption
from repro.sim.events import (
    CorruptEvent,
    DecideEvent,
    DeliverEvent,
    EventBus,
    PayloadSummary,
    PhaseEvent,
    SendEvent,
    WaitBlockEvent,
    WaitWakeEvent,
    event_from_record,
    event_to_record,
)
from repro.sim.network import Simulation


def make_coin_sim(n=10, f=2, seed=3, **kwargs):
    pki = PKI.create(n, rng=random.Random(seed))
    sim = Simulation(
        n=n, f=f, pki=pki,
        adversary=Adversary(
            scheduler=RandomScheduler(random.Random(seed)),
            corruption=StaticCorruption(set(range(f))),
        ),
        seed=seed, params=ProtocolParams(n=n, f=f), **kwargs,
    )
    sim.set_protocol_all(lambda ctx: shared_coin(ctx, 0))
    return sim


class TestEventBus:
    def test_subscribe_emit_unsubscribe(self):
        bus = EventBus()
        seen = []
        assert not bus
        bus.subscribe(seen.append)
        assert bus
        event = CorruptEvent(step=0, pid=3)
        bus.emit(event)
        assert seen == [event]
        bus.unsubscribe(seen.append)
        bus.emit(event)
        assert seen == [event]

    def test_duplicate_subscribe_is_noop(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.subscribe(seen.append)
        bus.emit(CorruptEvent(step=0, pid=1))
        assert len(seen) == 1

    def test_subscribers_called_in_order(self):
        bus = EventBus()
        calls = []
        bus.subscribe(lambda event: calls.append("a"))
        bus.subscribe(lambda event: calls.append("b"))
        bus.emit(CorruptEvent(step=0, pid=1))
        assert calls == ["a", "b"]


SAMPLE_EVENTS = [
    SendEvent(step=1, seq=5, sender=2, dest=3, instance=("shared_coin", 0),
              message_kind="FirstMsg", words=4, depth=1, sender_correct=True),
    DeliverEvent(step=2, seq=5, sender=2, dest=3, instance=("shared_coin", 0),
                 message_kind="FirstMsg", words=4, depth=1, sent_step=1,
                 summary=PayloadSummary(kind="FirstMsg",
                                        instance=("shared_coin", 0),
                                        words=4, text="FirstMsg(...)")),
    CorruptEvent(step=3, pid=7),
    DecideEvent(step=9, pid=1, value=0, depth=12),
    WaitBlockEvent(step=4, pid=2, description="shared_coin(0,)", subscribed=True,
                   depth=3),
    WaitWakeEvent(step=5, pid=2, description="shared_coin(0,)", depth=4),
    PhaseEvent(step=6, pid=0, phase="ba-round", instance=("ba", 1), action="enter"),
]


class TestSerialization:
    @pytest.mark.parametrize("event", SAMPLE_EVENTS, ids=lambda e: e.kind)
    def test_json_round_trip(self, event):
        # The exact persistence path: record -> jsonable -> JSON -> back.
        wire = json.loads(json.dumps(to_jsonable(event_to_record(event))))
        assert event_from_record(wire) == event

    def test_deliver_round_trip_keeps_only_the_summary(self):
        event = SAMPLE_EVENTS[1]
        assert "payload" not in {spec.name for spec in dataclasses.fields(event)}
        rebuilt = event_from_record(event_to_record(event))
        assert rebuilt == event
        assert rebuilt.summary == event.summary

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_record({"k": "warp", "step": 0})

    def test_records_are_flat_json_objects(self):
        for event in SAMPLE_EVENTS:
            record = event_to_record(event)
            assert record["k"] == event.kind
            json.dumps(to_jsonable(record))  # must not raise


class TestKernelEmission:
    def test_no_subscriber_run_has_empty_bus(self):
        sim = make_coin_sim()
        sim.run()
        assert not sim.events.subscribers

    def test_event_counts_match_metrics(self):
        sim = make_coin_sim()
        events = []
        sim.events.subscribe(events.append)
        sim.run()
        sends = [e for e in events if isinstance(e, SendEvent)]
        delivers = [e for e in events if isinstance(e, DeliverEvent)]
        assert len(sends) == sim.metrics.messages_sent_total
        assert len(delivers) == sim.metrics.messages_delivered
        corrupts = {e.pid for e in events if isinstance(e, CorruptEvent)}
        assert corrupts == sim.corrupted

    def test_deliver_steps_are_pre_increment(self):
        sim = make_coin_sim()
        events = []
        sim.events.subscribe(events.append)
        sim.run()
        deliver_steps = [e.step for e in events if isinstance(e, DeliverEvent)]
        assert deliver_steps == list(range(len(deliver_steps)))

    def test_phase_events_balance(self):
        sim = make_coin_sim()
        events = []
        sim.events.subscribe(events.append)
        sim.run()
        phases = [e for e in events if isinstance(e, PhaseEvent)]
        enters = [e for e in phases if e.action == "enter"]
        exits = [e for e in phases if e.action == "exit"]
        # Every correct process opens one shared_coin span and closes it.
        assert len(enters) == len(exits) == sim.n - sim.f
        assert {e.phase for e in phases} == {"shared_coin"}

    def test_wait_block_and_wake_recorded(self):
        sim = make_coin_sim()
        events = []
        sim.events.subscribe(events.append)
        sim.run()
        blocks = [e for e in events if isinstance(e, WaitBlockEvent)]
        wakes = [e for e in events if isinstance(e, WaitWakeEvent)]
        assert blocks and wakes
        # A wake can only follow a block of the same process.
        blocked_pids = {e.pid for e in blocks}
        assert {e.pid for e in wakes} <= blocked_pids

    def test_wait_events_carry_monotone_causal_depth(self):
        sim = make_coin_sim()
        events = []
        sim.events.subscribe(events.append)
        sim.run()
        # Causal depth never decreases across a park: the wake's depth is
        # at least the depth the process blocked at (deliveries only raise
        # ctx.depth), so wake.depth - block.depth is a valid wait latency.
        latest_block: dict[int, int] = {}
        wakes_checked = 0
        for event in events:
            if isinstance(event, WaitBlockEvent):
                assert event.depth >= 0
                latest_block[event.pid] = event.depth
            elif isinstance(event, WaitWakeEvent):
                assert event.depth >= latest_block[event.pid]
                wakes_checked += 1
        assert wakes_checked > 0
