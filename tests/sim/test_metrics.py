"""Word-complexity accounting (the paper's Section 2 definitions)."""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass

import pytest

from repro.sim.messages import Envelope, Message
from repro.sim.metrics import MetricsRecorder, ProtocolRecord


@dataclass
class ThreeWord(Message):
    def words(self) -> int:
        return 3


def envelope(sender=0, correct=True, message=None, seq=0):
    return Envelope(
        seq=seq,
        sender=sender,
        dest=1,
        payload=message or ThreeWord("i"),
        depth=1,
        sender_correct=correct,
        sent_step=0,
    )


class TestWordAccounting:
    def test_correct_senders_counted(self):
        metrics = MetricsRecorder()
        metrics.record_send(envelope(correct=True))
        assert metrics.words_correct == 3
        assert metrics.words_total == 3
        assert metrics.messages_sent_correct == 1

    def test_byzantine_senders_excluded_from_word_complexity(self):
        # The paper counts words sent by *correct* processes only.
        metrics = MetricsRecorder()
        metrics.record_send(envelope(correct=False))
        assert metrics.words_correct == 0
        assert metrics.words_total == 3
        assert metrics.messages_sent_total == 1
        assert metrics.messages_sent_correct == 0

    def test_per_kind_breakdown(self):
        metrics = MetricsRecorder()
        metrics.record_send(envelope(message=ThreeWord("i")))
        metrics.record_send(envelope(message=Message("i")))
        assert metrics.words_by_kind["ThreeWord"] == 3
        assert metrics.words_by_kind["Message"] == 1
        assert metrics.messages_by_kind["ThreeWord"] == 1

    def test_byzantine_sends_not_in_kind_breakdown(self):
        metrics = MetricsRecorder()
        metrics.record_send(envelope(correct=False))
        assert "ThreeWord" not in metrics.words_by_kind

    def test_delivery_counter(self):
        metrics = MetricsRecorder()
        env = envelope()
        metrics.record_send(env)
        metrics.record_delivery(env)
        metrics.record_delivery(env)
        assert metrics.messages_delivered == 2


class TestPerProcessWords:
    """The 'no hot node' accounting behind the repro report table."""

    def _loaded(self):
        metrics = MetricsRecorder()
        for sender, sends in ((0, 1), (1, 2), (2, 4)):
            for seq in range(sends):
                metrics.record_send(envelope(sender=sender, seq=seq))
        metrics.record_send(envelope(sender=9, correct=False))
        return metrics

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
                data=(("instance", "i"), ("role", "approve"), ("member", True)),
            )
        )
        metrics.protocol_records.append(
            ProtocolRecord(
                step=0, pid=0, kind="sampled",
                data=(("instance", "i"), ("role", "approve"), ("member", False)),
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
        data=(("instance", ("ba", 0)), ("role", ("echo", 1)), ("size", 5)),
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
