"""Word-complexity accounting (the paper's Section 2 definitions)."""

from __future__ import annotations

import dataclasses
import pickle
import random
from dataclasses import dataclass

import pytest

from repro.crypto.pki import PKI
from repro.sim.adversary import Adversary, RandomScheduler
from repro.sim.events import SendEvent
from repro.sim.flightrecorder import EventLog
from repro.sim.lossy import LossyLinkConfig
from repro.sim.messages import Message
from repro.sim.metrics import MetricsRecorder, ProtocolRecord
from repro.sim.network import Simulation
from repro.sim.process import Wait


@dataclass
class ThreeWord(Message):
    def words(self) -> int:
        return 3


def kernel(n=4, corrupted=(), lossy=None):
    """A simulation to send from before any run: sends go through the
    kernel's one send path (``ctx.send`` / ``ctx.broadcast``), which does
    the counting."""
    simulation = Simulation(
        n=n, f=len(corrupted), pki=PKI.create(n, rng=random.Random(0)),
        adversary=Adversary(RandomScheduler(random.Random(0))), lossy=lossy,
    )
    for pid in corrupted:
        simulation.corrupt(pid)
    return simulation


class TestWordAccounting:
    """The kernel counts every copy a process sends, at send time."""

    def test_correct_senders_counted(self):
        sim = kernel()
        sim.contexts[0].send(1, ThreeWord("i"))
        metrics = sim.metrics
        assert metrics.words_correct == metrics.words_total == 3
        assert metrics.messages_sent_correct == metrics.messages_sent_total == 1
        sim.contexts[0].broadcast(ThreeWord("i"))  # one copy per process
        assert metrics.words_correct == metrics.words_total == 3 + 4 * 3
        assert metrics.messages_sent_correct == metrics.messages_sent_total == 1 + 4
        assert dict(metrics.words_by_sender) == {0: 15}
        assert dict(metrics.messages_by_sender) == {0: 5}

    def test_byzantine_senders_excluded_from_word_complexity(self):
        # The paper counts words sent by *correct* processes only.
        sim = kernel(corrupted={2})
        sim.contexts[2].send(1, ThreeWord("i"))
        sim.contexts[2].broadcast(ThreeWord("i"))
        metrics = sim.metrics
        assert metrics.words_correct == 0
        assert metrics.words_total == 5 * 3
        assert metrics.messages_sent_total == 5
        assert metrics.messages_sent_correct == 0
        assert not metrics.words_by_sender and not metrics.messages_by_sender

    def test_per_kind_breakdown(self):
        sim = kernel()
        sim.contexts[0].send(1, ThreeWord("i"))
        sim.contexts[1].broadcast(Message("i"))
        metrics = sim.metrics
        assert metrics.words_by_kind == {"ThreeWord": 3, "Message": 4}
        assert metrics.messages_by_kind == {"ThreeWord": 1, "Message": 4}

    def test_byzantine_sends_not_in_kind_breakdown(self):
        sim = kernel(corrupted={2})
        sim.contexts[2].send(0, ThreeWord("i"))
        sim.contexts[2].broadcast(ThreeWord("i"))
        assert "ThreeWord" not in sim.metrics.words_by_kind
        assert "ThreeWord" not in sim.metrics.messages_by_kind

    def test_lossy_duplicate_twin_is_no_protocol_send(self):
        """The twin takes a seq and a SendEvent of its own, but the network
        made it: the counters hold the copies the sender sent."""
        sim = kernel(lossy=LossyLinkConfig(duplicate_rate=1.0))
        recorder = sim.events.attach(EventLog())
        sim.contexts[0].send(1, ThreeWord("i"))
        sim.contexts[0].broadcast(ThreeWord("i"))
        metrics = sim.metrics
        sends = [event for event in recorder.events if type(event) is SendEvent]
        assert len(sends) == len(sim._in_flight) == 2 * 5
        assert metrics.messages_sent_total == metrics.messages_sent_correct == 5
        assert metrics.words_total == metrics.words_correct == 5 * 3
        assert dict(metrics.messages_by_sender) == {0: 5}

    def test_delivery_counter(self):
        """A run counts every delivery, and its payload's words."""
        sim = kernel()
        sim.contexts[0].broadcast(ThreeWord("i"))
        sim.contexts[1].send(2, Message("i"))
        sim.contexts[3].broadcast(ThreeWord("j"))

        def idle(ctx):
            yield Wait(lambda mailbox: None, instances={"never"})

        sim.set_protocol_all(idle)
        sim.run()
        delivered = [
            message
            for ctx in sim.contexts
            for instance in ctx.mailbox.instances()
            for _, message in ctx.mailbox.stream(instance)
        ]
        metrics = sim.metrics
        assert metrics.messages_delivered == sim.deliveries == len(delivered) == 9
        assert metrics.words_delivered == sum(message.words() for message in delivered)
        assert metrics.words_delivered == 4 * 3 + 1 + 4 * 3


class TestPerProcessWords:
    """The 'no hot node' accounting behind the repro report table."""

    def _loaded(self):
        sim = kernel(n=10, corrupted={9})
        for sender, sends in ((0, 1), (1, 2), (2, 4)):
            for _ in range(sends):
                sim.contexts[sender].send(1, ThreeWord("i"))
        sim.contexts[9].send(1, ThreeWord("i"))
        return sim.metrics

    def test_per_sender_counters_track_correct_sends_only(self):
        metrics = self._loaded()
        assert dict(metrics.words_by_sender) == {0: 3, 1: 6, 2: 12}
        assert dict(metrics.messages_by_sender) == {0: 1, 1: 2, 2: 4}
        assert 9 not in metrics.words_by_sender

    def test_to_dict_round_trips_with_string_keys(self):
        payload = self._loaded().to_dict()
        assert payload["words_by_sender"] == {"0": 3, "1": 6, "2": 12}
        assert payload["messages_by_sender"] == {"0": 1, "1": 2, "2": 4}

    def test_rollup_stats_and_top_senders(self):
        rollup = self._loaded().per_process_words()
        assert rollup["senders"] == 3
        assert rollup["words"] == 21
        assert rollup["max_words"] == 12
        assert rollup["min_words"] == 3
        assert rollup["mean_words"] == 7.0
        assert rollup["top_senders"][0] == [2, 12]

    def test_committee_split_uses_sampled_membership(self):
        metrics = self._loaded()
        metrics.protocol_records.append(
            ProtocolRecord(
                step=0, pid=2, kind="sampled",
                keys=("instance", "role", "member"), values=("i", "approve", True),
            )
        )
        metrics.protocol_records.append(
            ProtocolRecord(
                step=0, pid=0, kind="sampled",
                keys=("instance", "role", "member"), values=("i", "approve", False),
            )
        )
        rollup = metrics.per_process_words()
        assert rollup["committee"] == {
            "senders": 1, "words": 12, "max_words": 12,
            "mean_words": 12.0, "min_words": 12,
        }
        assert rollup["non_committee"]["senders"] == 2
        assert rollup["non_committee"]["words"] == 9

    def test_empty_recorder_degrades(self):
        assert MetricsRecorder().per_process_words() == {"senders": 0}

    def test_rollup_reaches_protocol_summary(self):
        summary = self._loaded().protocol_summary()
        assert summary["per_process_words"]["max_words"] == 12


class TestProtocolRecord:
    RECORD = ProtocolRecord(
        step=7, pid=3, kind="committee",
        keys=("instance", "role", "size"), values=(("ba", 0), ("echo", 1), 5),
    )

    def test_slotted_and_frozen(self):
        assert not hasattr(self.RECORD, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.RECORD.step = 8  # type: ignore[misc]

    def test_pickle_and_equality_round_trip(self):
        copy = pickle.loads(pickle.dumps(self.RECORD))
        assert copy == self.RECORD
        assert hash(copy) == hash(self.RECORD)
        assert copy.get("size") == 5
        assert copy.get("missing", "default") == "default"
        assert copy != dataclasses.replace(self.RECORD, step=8)

    def test_records_of_one_shape_share_their_keys(self):
        """``annotate`` interns each key shape: every ``sampled`` record of
        a run holds the same ``keys`` tuple, and pickling keeps it shared."""
        from repro.experiments.scenarios import resolve_run

        metrics = resolve_run("whp_ba", 10, seed=1).run().metrics
        sampled = metrics.records_of("sampled")
        assert len(sampled) >= 2
        assert sampled[0].keys == ("instance", "role", "member")
        assert all(record.keys is sampled[0].keys for record in sampled)
        copies = pickle.loads(pickle.dumps(sampled))
        assert copies == sampled
        assert all(copy.keys is copies[0].keys for copy in copies)
