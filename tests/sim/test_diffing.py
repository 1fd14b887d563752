"""Unit tests for the divergence differ on synthetic event logs.

The integration story (real recordings from real runs) lives in
tests/integration/test_forensics.py; here the logs are hand-built so
every branch of the localizer -- field delta, early truncation,
schedule-vs-content divergence, header identity, slice bounding -- is
pinned on a minimal example.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.sim.diffing import (
    DEFAULT_MAX_SLICE,
    causal_slice,
    diff_events,
    diff_recordings,
    divergence_hint,
    format_divergence,
    save_divergence,
)
from repro.sim.events import (
    DecideEvent,
    DeliverEvent,
    PayloadSummary,
    SendEvent,
)
from repro.sim.flightrecorder import Recording, stream_digest


def send(step, seq, sender, dest, depth, words=3):
    return SendEvent(
        step=step, seq=seq, sender=sender, dest=dest, instance="i",
        message_kind="Echo", words=words, depth=depth, sender_correct=True,
    )


def deliver(step, seq, sender, dest, depth, words=3, sent_step=0):
    return DeliverEvent(
        step=step, seq=seq, sender=sender, dest=dest, instance="i",
        message_kind="Echo", words=words, depth=depth, sent_step=sent_step,
        summary=PayloadSummary("Echo", "i", words, "Echo"),
    )


def chain_log():
    """0 sends to 1, 1 relays to 2, 2 decides: one clean causal chain."""
    return [
        send(0, 0, sender=0, dest=1, depth=1),
        deliver(1, 0, sender=0, dest=1, depth=1),
        send(1, 1, sender=1, dest=2, depth=2),
        deliver(2, 1, sender=1, dest=2, depth=2, sent_step=1),
        DecideEvent(step=2, pid=2, value=1, depth=2),
    ]


class TestDiffEvents:
    def test_identical_logs(self):
        report = diff_events(chain_log(), chain_log())
        assert report.identical
        assert report.index is None
        assert "identical" in report.describe()

    def test_content_mutation_localized_to_exact_seq(self):
        mutated = chain_log()
        mutated[3] = dataclasses.replace(mutated[3], words=10)
        report = diff_events(chain_log(), mutated)
        assert not report.identical
        assert report.index == 3
        assert report.seq == 1
        assert report.kind == "deliver"
        assert report.changed == ("words: 3 -> 10",)
        # Same (sender, dest, seq) schedule on both sides: the schedules
        # agree, only the event content differs.
        assert report.delivery_index is None
        assert "seq 1" in report.describe()

    def test_schedule_divergence_reports_delivery_index(self):
        reordered = chain_log()
        reordered[1], reordered[3] = (
            dataclasses.replace(reordered[3], step=1),
            dataclasses.replace(reordered[1], step=2),
        )
        report = diff_events(chain_log(), reordered)
        assert not report.identical
        assert report.delivery_index == 0

    def test_truncated_log_ends_early(self):
        report = diff_events(chain_log(), chain_log()[:3])
        assert not report.identical
        assert report.index == 3
        assert report.a_event is not None and report.b_event is None
        assert "ends early" in report.describe()
        # The slice is built from the side that still has the event.
        assert report.slice[-1]["divergent"] is True

    def test_slice_walks_the_causal_chain(self):
        mutated = chain_log()
        mutated[4] = dataclasses.replace(mutated[4], value=0)
        report = diff_events(chain_log(), mutated)
        kinds = [entry["kind"] for entry in report.slice]
        # Causal order: the chain into the decide, then the decide itself.
        assert kinds == ["send", "deliver", "send", "deliver", "decide"]
        assert report.slice[-1]["divergent"] is True
        assert sum(1 for e in report.slice if e.get("divergent")) == 1

    def test_max_slice_bounds_the_chain(self):
        mutated = chain_log()
        mutated[4] = dataclasses.replace(mutated[4], value=0)
        report = diff_events(chain_log(), mutated, max_slice=2)
        assert len(report.slice) <= 2
        assert report.slice[-1]["divergent"] is True

    def test_default_slice_bound_is_twenty(self):
        assert DEFAULT_MAX_SLICE == 20

    def test_causal_slice_empty_log(self):
        assert causal_slice([], 0) == []


class TestDiffRecordings:
    def _recording(self, events, header=None, summary=None):
        base = {"schema": "repro.flight", "version": 2, "n": 3, "f": 0,
                "seed": 7, "corrupted": [], "protocol": "whp_ba"}
        base.update(header or {})
        events = tuple(events)
        base["stream"] = stream_digest(events)
        recording = Recording(
            header=base,
            summary={"deliveries": 2, "decisions": {"2": 1}, **(summary or {})},
            schedule=tuple(
                (e.seq, e.sender, e.dest) for e in events if type(e) is DeliverEvent
            ),
        )
        recording.events = events  # a hand-made log: nothing to replay
        return recording

    def test_identical_recordings(self):
        report = diff_recordings(
            self._recording(chain_log()), self._recording(chain_log())
        )
        assert report.identical

    def test_header_mismatch_means_different_runs(self):
        report = diff_recordings(
            self._recording(chain_log()),
            self._recording(chain_log(), header={"seed": 8}),
        )
        assert not report.identical
        assert report.header_mismatches == ("seed: 7 vs 8",)
        assert "different runs" in report.describe()

    def test_summary_drift_with_identical_events(self):
        report = diff_recordings(
            self._recording(chain_log()),
            self._recording(chain_log(), summary={"decisions": {"2": 0}}),
        )
        assert not report.identical
        assert report.index is None
        assert any("decisions" in drift for drift in report.summary_drifts)
        assert "summaries drift" in report.describe()


class TestRenderingAndPersistence:
    def test_format_divergence_marks_the_divergent_line(self):
        mutated = chain_log()
        mutated[3] = dataclasses.replace(mutated[3], words=10)
        text = format_divergence(
            diff_events(chain_log(), mutated), "a.jsonl", "b.jsonl"
        )
        assert "a: a.jsonl" in text
        assert "<-- DIVERGES" in text
        assert "divergence is in event content" in text

    def test_save_divergence_round_trips(self, tmp_path):
        mutated = chain_log()
        mutated[3] = dataclasses.replace(mutated[3], words=10)
        report = diff_events(chain_log(), mutated)
        path = save_divergence(tmp_path / "x.divergence.json", report)
        payload = json.loads(path.read_text())
        assert payload["seq"] == 1
        assert payload["changed"] == ["words: 3 -> 10"]
        assert payload["slice"][-1]["divergent"] is True
        assert payload["describe"] == report.describe()

    def test_hint_names_both_commands(self):
        hint = divergence_hint("batched != classic")
        assert hint.startswith("batched != classic: ")
        assert "repro diff" in hint and "repro explain" in hint
