"""One ``PayloadSummary`` per message *object* (``EventBus.summary_of``).

The kernel summarises a message the first time it is delivered and hands
the same summary to every later delivery of that object.  That is sound
only under the contract "a message is immutable once submitted", so the
first test *is* that contract: a subscriber recomputes ``repr`` and
``words()`` at every delivery of every protocol and hostile scenario and
compares them with what the memo answered.  The rest pins the memo's
scope: identity (a bit-corrupted clone is another message), one run, and
no ``id`` reuse while an entry lives.
"""

from __future__ import annotations

import gc
import json
import weakref
from dataclasses import replace

import pytest

import repro.sim.events as events_module
from repro.experiments.protocols import PROTOCOLS
from repro.experiments.scenarios import SCENARIOS, Nudge, resolve_run, split_decider
from repro.sim.adversary import Adversary, StaticCorruption
from repro.sim.byzantine import ScriptedBehavior
from repro.sim.events import DeliverEvent
from repro.sim.flightrecorder import FlightRecorder, save_recording
from repro.sim.lossy import LossyLinkConfig
from repro.sim.runner import run_protocol

from tests.sim.test_lossy_link import make_sim, tagged_gossip_protocol

MAX_DELIVERIES = 60_000


class SummaryAudit:
    """Recompute every delivered payload's summary and hold it against
    the one the event carries."""

    def __init__(self) -> None:
        self.deliveries = 0
        self.by_object: dict[int, list] = {}  # id -> [payload, summary], pinned
        self.stale: list[str] = []

    def on_event(self, event) -> None:
        if type(event) is not DeliverEvent:
            return
        self.deliveries += 1
        payload, summary = event.payload, event.summary
        fresh = (type(payload).__name__, payload.instance, payload.words(), repr(payload))
        held = (summary.kind, summary.instance, summary.words, summary.text)
        if fresh != held or event.words != fresh[2] or event.message_kind != fresh[0]:
            self.stale.append(f"seq {event.seq}: {held} is now {fresh}")
        known = self.by_object.setdefault(id(payload), [payload, summary])
        assert known[0] is payload and known[1] is summary

    @property
    def shared(self) -> int:
        """Deliveries that reused a summary taken at an earlier one."""
        return self.deliveries - len(self.by_object)


def run_named(name: str, n: int, seed: int, observers, lossy=None):
    """One registry protocol or scenario run, as ``repro record`` builds it."""
    spec = resolve_run(name, n, seed=seed)
    if lossy is not None:
        spec = replace(spec, lossy=lossy)
    return spec.run(observers=observers, max_deliveries=MAX_DELIVERIES)


class TestMessagesAreImmutableOnceSubmitted:
    @pytest.mark.parametrize("name", [*PROTOCOLS, *SCENARIOS])
    def test_memoised_summary_equals_a_fresh_one_at_every_delivery(self, name):
        audit = SummaryAudit()
        run_named(name, 10, 5, [audit])
        assert audit.deliveries > 0
        assert audit.stale == []
        # The memo did something: broadcasts share one summary.
        assert audit.shared > 0

    def test_under_bit_corruption_and_duplication(self):
        audit = SummaryAudit()
        lossy = LossyLinkConfig(duplicate_rate=0.2, corrupt_rate=0.3)
        result = run_named("whp_ba", 10, 5, [audit], lossy=lossy)
        assert result.lossy_counters["corruptions"] > 0
        assert result.lossy_counters["duplicates"] > 0
        assert audit.stale == []

    def test_under_byzantine_per_destination_sends(self):
        """A Byzantine sender hands each destination its own object (and
        one destination the same object twice)."""
        n = 6

        def equivocate(ctx):
            for dest in range(n - 1):
                ctx.send(dest, Nudge("nudge", payload=dest))
            again = Nudge("nudge", payload=99)
            ctx.send(0, again)
            ctx.send(0, again)

        audit = SummaryAudit()
        run_protocol(
            n, 1, split_decider,
            adversary=Adversary(
                corruption=StaticCorruption({n - 1}),
                behavior_factory=lambda pid: ScriptedBehavior(on_start=equivocate),
            ),
            stop_condition=None, observers=[audit],
        )
        assert audit.deliveries == n + 1
        assert audit.stale == []
        assert len(audit.by_object) == n  # n - 1 unicasts + the one sent twice
        texts = {summary.text for _, summary in audit.by_object.values()}
        assert len(texts) == n


class TestMemoScope:
    def test_a_bit_corrupted_clone_gets_its_own_summary(self):
        """``copy.copy`` keeps every attribute, so a summary cached *on*
        the message would follow the clone; the identity memo cannot."""
        lossy = LossyLinkConfig(per_link={(0, 1): LossyLinkConfig(corrupt_rate=1.0)})
        sim = make_sim(n=3, seed=4, lossy=lossy)
        from_zero = {}
        sim.events.subscribe(
            lambda event: type(event) is DeliverEvent
            and event.sender == 0
            and from_zero.setdefault(event.dest, event)
        )
        sim.set_protocol_all(tagged_gossip_protocol)
        sim.run()
        assert sim.lossy_counters["corruptions"] == 1
        original, clone = from_zero[0], from_zero[1]
        # The intact link delivers the broadcast object, summarised once ...
        assert from_zero[2].payload is original.payload
        assert from_zero[2].summary is original.summary
        # ... and the corrupting link a clone of it, with a text of its own.
        assert clone.payload is not original.payload
        assert clone.summary.text == repr(clone.payload)
        assert clone.summary.text != original.summary.text

    def test_two_runs_share_no_memo(self):
        first, second = make_sim(seed=1), make_sim(seed=1)
        for sim in (first, second):
            sim.events.subscribe(lambda event: None)
            sim.set_protocol_all(tagged_gossip_protocol)
            sim.run()
        assert first.events._summaries is not second.events._summaries
        assert first.events._summaries and second.events._summaries
        # ... and a run nobody observed never built one.
        bare = make_sim(seed=1)
        bare.set_protocol_all(tagged_gossip_protocol)
        bare.run()
        assert not hasattr(bare.events, "_summaries")

    def test_an_entry_keeps_its_message_alive(self):
        """Were the memo to hold only ``id(message)``, a freed message's
        id could come back on a new object and inherit a stale text."""
        sim = make_sim()
        message = Nudge("nudge", payload=1)
        summary = sim.events.summary_of(message)
        probe = weakref.ref(message)
        key = id(message)
        del message
        gc.collect()
        assert probe() is not None
        assert sim.events._summaries[key] == (summary, probe())
        # A different object is a different entry, whatever it says.
        twin = Nudge("nudge", payload=1)
        assert sim.events.summary_of(twin) is not summary
        assert sim.events.summary_of(twin) == summary

    def test_a_held_recording_pins_no_protocol_object(self):
        recorder = FlightRecorder()
        probes = []

        class Watcher:
            def on_event(self, event):
                if type(event) is DeliverEvent and len(probes) < 50:
                    probes.append(weakref.ref(event.payload))

        run_named("whp_ba", 8, 1, [recorder, Watcher()])
        gc.collect()
        assert probes and all(probe() is None for probe in probes)
        assert recorder.of_kind("deliver")[0].summary.text  # the log is intact


class TestOneSummaryPerMessageObject:
    def test_calls_equal_distinct_objects_equal_payload_ids(self, tmp_path, monkeypatch):
        calls = []
        real = events_module.summarize_payload

        def counting(message):
            calls.append(type(message).__name__)
            return real(message)

        monkeypatch.setattr(events_module, "summarize_payload", counting)
        recorder, audit = FlightRecorder(), SummaryAudit()
        result = run_named("whp_ba", 16, 3, [recorder, audit])
        path = save_recording(tmp_path / "run.jsonl", recorder, result)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        payload_ids = [line["id"] for line in lines if line["k"] == "payload"]
        cited = {line["payload_id"] for line in lines if line["k"] == "deliver"}
        assert len(calls) == len(audit.by_object) == len(payload_ids)
        assert payload_ids == list(range(len(payload_ids))) and cited == set(payload_ids)
        # An order of magnitude fewer summaries than deliveries.
        assert result.deliveries > 10 * len(calls)
