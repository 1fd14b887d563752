"""One ``PayloadSummary`` per flight, and events that hold no message.

The fast loop summarises a send's message at its flight's first observed
delivery and hands the same summary to every later copy of that send.
That is sound only under the contract "a message is immutable once
submitted", so the first tests *are* that contract: after the run, every
deliver event's summary is held against a fresh summary of the object its
destination's mailbox holds, for every protocol and hostile scenario.  The
rest pins the summary's scope (a bit-flipped copy is another flight, an
unobserved run takes none) and the invariant it buys: no event is, or
holds, a protocol message, so a kept event log pins none.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from dataclasses import fields, is_dataclass, replace

import pytest

import repro.sim.network as network_module
from repro.experiments.protocols import PROTOCOLS
from repro.experiments.scenarios import SCENARIOS, Nudge, resolve_run, split_decider
from repro.sim.adversary import Adversary, StaticCorruption
from repro.sim.byzantine import ScriptedBehavior
from repro.sim.events import DeliverEvent, summarize_payload
from repro.sim.flightrecorder import EventLog
from repro.sim.lossy import LossyLinkConfig
from repro.sim.mailbox import Mailbox
from repro.sim.messages import Message
from repro.sim.runner import run_protocol

from tests.sim.test_lossy_link import make_sim, tagged_gossip_protocol

MAX_DELIVERIES = 60_000


class SummaryAudit:
    """After the run, hold every deliver event's summary against a fresh
    summary of the object its destination received.

    A correct destination's ``mailbox.stream(instance)`` holds the
    delivered objects in delivery order, so the k-th deliver event of an
    instance to a process is that stream's k-th entry.  Auditing at run
    end checks "immutable once submitted" up to the end of the run, not
    only up to the delivery.  A finished instance drops its stream, so
    the audited runs keep every stream (``keep_every_stream``); that
    changes no delivery (``tests/sim/test_instance_lifetime.py``).
    """

    def __init__(self) -> None:
        self.delivers: list[DeliverEvent] = []
        self.audited = 0
        self.by_object: dict[int, list] = {}  # id -> [message, summary], pinned
        self.summaries: dict[int, object] = {}  # id -> summary, pinned
        self.stale: list[str] = []

    def on_event(self, event) -> None:
        if type(event) is DeliverEvent:
            self.delivers.append(event)

    def finalize(self, result, simulation) -> None:
        correct = set(simulation.correct_pids)
        taken: Counter = Counter()
        for event in self.delivers:
            if event.dest not in correct:
                continue
            key = (event.dest, event.instance)
            mailbox = simulation.contexts[event.dest].mailbox
            sender, message = mailbox.stream(event.instance)[taken[key]]
            taken[key] += 1
            assert sender == event.sender
            self.audited += 1
            summary, fresh = event.summary, summarize_payload(message)
            if (
                fresh != summary
                or event.words != fresh.words
                or event.message_kind != fresh.kind
            ):
                self.stale.append(f"seq {event.seq}: {summary} is now {fresh}")
            known = self.by_object.setdefault(id(message), [message, summary])
            assert known[0] is message and known[1] == summary
            self.summaries[id(summary)] = summary
        # Every delivery to a correct process was audited, none twice.
        assert self.audited == sum(
            len(mailbox.stream(instance))
            for pid in correct
            for mailbox in [simulation.contexts[pid].mailbox]
            for instance in mailbox.instances()
        )

    @property
    def shared(self) -> int:
        """Deliveries that reused a summary taken at an earlier one."""
        return self.audited - len(self.summaries)


@pytest.fixture
def keep_every_stream(monkeypatch):
    """Retiring an instance keeps its stream: every delivery stays auditable."""
    monkeypatch.setattr(Mailbox, "retire", lambda self, instance: None)


def run_named(name: str, n: int, seed: int, observers, lossy=None):
    """One registry protocol or scenario run, as ``repro record`` builds it."""
    spec = resolve_run(name, n, seed=seed)
    if lossy is not None:
        spec = replace(spec, lossy=lossy)
    return spec.run(observers=observers, max_deliveries=MAX_DELIVERIES)


def holds_message(value) -> bool:
    """Is ``value`` a :class:`Message`, or does any part of it hold one?"""
    if isinstance(value, Message):
        return True
    if isinstance(value, (tuple, list, set, frozenset)):
        return any(holds_message(item) for item in value)
    if isinstance(value, dict):
        return any(holds_message(item) for pair in value.items() for item in pair)
    if is_dataclass(value):
        return any(
            holds_message(getattr(value, spec.name)) for spec in fields(value)
        )
    return False


@pytest.mark.usefixtures("keep_every_stream")
class TestMessagesAreImmutableOnceSubmitted:
    @pytest.mark.parametrize("name", [*PROTOCOLS, *SCENARIOS])
    def test_memoised_summary_equals_a_fresh_one_at_every_delivery(self, name):
        audit = SummaryAudit()
        run_named(name, 10, 5, [audit])
        assert audit.audited > 0
        assert audit.stale == []
        # The flight's summary did something: broadcasts share one.
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
        one destination the same object twice, in two sends)."""
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
        assert audit.audited == n + 1
        assert audit.stale == []
        assert len(audit.by_object) == n  # n - 1 unicasts + the one sent twice
        assert len(audit.summaries) == n + 1  # one per send
        texts = {summary.text for _, summary in audit.by_object.values()}
        assert len(texts) == n


class TestMemoScope:
    def test_a_bit_corrupted_clone_gets_its_own_summary(self):
        """The lossy link ``copy.copy``s a bit-flipped message into a
        flight of its own, so the clone gets a text of its own."""
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
        received = {
            dest: next(
                message
                for sender, message in sim.contexts[dest].mailbox.stream("gossip")
                if sender == 0
            )
            for dest in range(3)
        }
        original, clone = from_zero[0], from_zero[1]
        # The intact links deliver the broadcast object, summarised once ...
        assert received[2] is received[0]
        assert from_zero[2].summary is original.summary
        # ... and the corrupting link a clone of it, with a text of its own.
        assert received[1] is not received[0]
        assert clone.summary.text == repr(received[1])
        assert clone.summary.text != original.summary.text

    def test_a_held_recording_pins_no_protocol_object(self, monkeypatch):
        recorder = EventLog()
        probes = []
        real = network_module.summarize_payload

        def watching(message):
            if len(probes) < 50:
                probes.append(weakref.ref(message))
            return real(message)

        monkeypatch.setattr(network_module, "summarize_payload", watching)
        run_named("whp_ba", 8, 1, [recorder])
        gc.collect()
        assert probes and all(probe() is None for probe in probes)
        assert recorder.of_kind("deliver")[0].summary.text  # the log is intact


@pytest.mark.usefixtures("keep_every_stream")
class TestOneSummaryPerMessageObject:
    def test_calls_equal_distinct_objects_equal_payload_ids(self, monkeypatch):
        """One summary per flight; here every flight sends its own object."""
        calls = []
        real = network_module.summarize_payload

        def counting(message):
            calls.append(type(message).__name__)
            return real(message)

        monkeypatch.setattr(network_module, "summarize_payload", counting)
        recorder, audit = EventLog(), SummaryAudit()
        result = run_named("whp_ba", 16, 3, [recorder, audit])
        # The log's distinct summary objects (what the stream digest
        # hashes once each) are the kernel's summarize calls.
        summaries = {
            id(event.summary) for event in recorder.events if type(event) is DeliverEvent
        }
        assert len(calls) == len(audit.by_object) == len(summaries)
        # An order of magnitude fewer summaries than deliveries.
        assert result.deliveries > 10 * len(calls)


class TestEventsHoldNoMessage:
    @pytest.mark.parametrize("name", [*PROTOCOLS, *SCENARIOS])
    def test_no_event_field_is_or_holds_a_message(self, name):
        emitted = []

        class Emitted:
            on_event = staticmethod(emitted.append)

        run_named(name, 10, 5, [Emitted()])
        assert any(type(event) is DeliverEvent for event in emitted)
        assert [event for event in emitted if holds_message(event)] == []

    def test_an_unobserved_run_summarises_nothing(self, monkeypatch):
        calls = []
        real = network_module.summarize_payload

        def counting(message):
            calls.append(message)
            return real(message)

        monkeypatch.setattr(network_module, "summarize_payload", counting)
        bare = make_sim(seed=1)
        bare.set_protocol_all(tagged_gossip_protocol)
        bare.run()
        assert bare.deliveries > 0 and calls == []
        # The same run observed does summarise: the patch is on the kernel's path.
        observed = make_sim(seed=1)
        observed.events.subscribe(lambda event: None)
        observed.set_protocol_all(tagged_gossip_protocol)
        observed.run()
        assert calls
