"""Divergence forensics: localize where two flight recordings part ways.

Every correctness check in this repository ends in "these two runs must
be identical" -- drained vs one-choose dispatch, cached vs uncached
verification, replay fidelity, trend gates.  When one trips, the raw
verdict is a boolean.  This module turns it into an explanation:

* :func:`diff_events` walks two kernel-event logs in lockstep (events
  are totally ordered, and sends/deliveries are anchored by their
  envelope ``seq``), localizes the **first divergent event**, and names
  the fields that changed.
* The divergence is explained by a bounded **causal slice**: starting
  from the divergent event's causal anchor (its process and depth), the
  walk reuses :func:`repro.sim.flightrecorder.causal_chain` -- the same
  machinery behind the monitors' critical-path slices -- so the report
  shows the message chain that *led into* the divergence, not just its
  position.
* :func:`diff_recordings` adds header identity and summary-drift checks
  on top, and :func:`save_divergence` persists the report as
  ``*.divergence.json`` (rendered by the dashboard, uploaded by CI on
  red runs).

Everything here is post-hoc: it operates on recorded logs only and adds
zero work to the kernel hot path (the observability-overhead envelopes
are untouched).

Surfaced as ``python -m repro diff <a> <b>``; the schedule-shrinking
sibling is :mod:`repro.sim.minimize` / ``python -m repro explain``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.sim.events import (
    DecideEvent,
    DeliverEvent,
    KernelEvent,
    SendEvent,
    WaitBlockEvent,
    WaitWakeEvent,
    event_to_record,
)
from repro.sim.flightrecorder import Recording, causal_chain

__all__ = [
    "DEFAULT_MAX_SLICE",
    "DivergenceReport",
    "causal_slice",
    "diff_events",
    "diff_recordings",
    "divergence_hint",
    "format_divergence",
    "format_slice",
    "save_divergence",
]

# The acceptance bound for rendered slices: enough hops to see the
# message chain into a divergence, small enough to read in a terminal.
DEFAULT_MAX_SLICE = 20

# Header keys that define run identity; a mismatch means the two
# recordings are not even attempts at the same run.
_IDENTITY_KEYS = (
    "schema", "version", "n", "f", "seed", "corrupted", "corrupt_after",
    "protocol", "lossy",
)

# Summary keys worth diffing one by one (the rest live under metrics).
_SUMMARY_KEYS = (
    "deliveries",
    "duration",
    "words",
    "live",
    "all_correct_decided",
    "decisions",
)


@dataclass(frozen=True)
class DivergenceReport:
    """Where two event logs first part ways, and the causal path there.

    ``identical`` is the differ's verdict over events *and* (for
    recording-level diffs) headers and summaries.  ``index`` is the
    position of the first divergent event in the interleaved log,
    ``seq`` the envelope sequence number anchoring it (``None`` for
    non-message events), ``changed`` the field-level delta when both
    logs still have an event at that position.  ``slice`` is the bounded
    causal chain ending at the divergent event (causal order, the
    divergent entry last, marked ``divergent: True``).
    """

    identical: bool
    a_events: int
    b_events: int
    index: int | None = None
    seq: int | None = None
    step: int | None = None
    kind: str | None = None
    a_event: dict[str, Any] | None = None
    b_event: dict[str, Any] | None = None
    changed: tuple[str, ...] = ()
    slice: tuple[dict[str, Any], ...] = ()
    delivery_index: int | None = None
    header_mismatches: tuple[str, ...] = ()
    summary_drifts: tuple[str, ...] = ()

    def describe(self) -> str:
        """The one-line verdict (`repro diff` prints this first)."""
        if self.identical:
            return f"recordings identical ({self.a_events} events)"
        if self.header_mismatches and self.index is None:
            return (
                "recordings are different runs: "
                + "; ".join(self.header_mismatches)
            )
        if self.index is None:
            return "events identical; summaries drift: " + "; ".join(
                self.summary_drifts
            )
        seq = f" seq {self.seq}" if self.seq is not None else ""
        if self.a_event is None or self.b_event is None:
            side = "a" if self.b_event is None else "b"
            return (
                f"first divergence at event #{self.index}{seq}: "
                f"log {side} ends early "
                f"({self.a_events} vs {self.b_events} events)"
            )
        return (
            f"first divergence at event #{self.index}{seq} "
            f"(kind {self.kind}, step {self.step}): "
            + ("; ".join(self.changed) or "event kinds differ")
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "identical": self.identical,
            "a_events": self.a_events,
            "b_events": self.b_events,
            "index": self.index,
            "seq": self.seq,
            "step": self.step,
            "event_kind": self.kind,
            "a_event": self.a_event,
            "b_event": self.b_event,
            "changed": list(self.changed),
            "delivery_index": self.delivery_index,
            "header_mismatches": list(self.header_mismatches),
            "summary_drifts": list(self.summary_drifts),
            "slice": [dict(entry) for entry in self.slice],
            "describe": self.describe(),
        }


def _causal_anchor(
    events: Sequence[KernelEvent], index: int
) -> tuple[int, int, int] | None:
    """The ``(pid, depth, step)`` the causal walk starts from.

    Scans backwards from ``index`` for the nearest event that carries a
    causal depth (corrupt/phase events do not); a send anchors at its
    *sender's* depth (``depth - 1``), everything else at the depth the
    event left its process at.
    """
    for position in range(min(index, len(events) - 1), -1, -1):
        event = events[position]
        kind = type(event)
        if kind is DeliverEvent:
            return event.dest, event.depth, event.step
        if kind is SendEvent:
            return event.sender, event.depth - 1, event.step
        if kind is DecideEvent:
            return event.pid, event.depth, event.step
        if kind in (WaitBlockEvent, WaitWakeEvent):
            return event.pid, event.depth, event.step
    return None


def causal_slice(
    events: Sequence[KernelEvent],
    index: int,
    max_slice: int = DEFAULT_MAX_SLICE,
) -> list[dict[str, Any]]:
    """The bounded causal chain explaining ``events[index]``.

    Causal order, at most ``max_slice`` entries, ending with the event
    at ``index`` itself (marked ``divergent: True``).  Reuses the
    critical-path hop rule: find the delivery that put the process at
    its current depth, jump to that message's send, repeat.
    """
    if not events:
        return []
    index = min(index, len(events) - 1)
    target = events[index]
    record = event_to_record(target)
    marker = {"kind": record.pop("k"), **record, "divergent": True}
    anchor = _causal_anchor(events, index)
    if anchor is None or max_slice <= 1:
        return [marker]
    pid, depth, step = anchor
    chain = causal_chain(events, pid, depth, step, limit=max_slice - 1)
    # The walk starts at the divergent event's own anchor, so its first
    # hop may be the divergent delivery itself -- drop the duplicate.
    if (
        chain
        and type(target) is DeliverEvent
        and chain[0]["kind"] == "deliver"
        and chain[0]["seq"] == target.seq
    ):
        chain = chain[1:]
    chain.reverse()
    chain.append(marker)
    return chain


def _field_delta(a_record: dict[str, Any], b_record: dict[str, Any]) -> tuple[str, ...]:
    keys = [key for key in a_record if key in b_record]
    keys += [key for key in b_record if key not in a_record]
    return tuple(
        f"{key}: {a_record.get(key)!r} -> {b_record.get(key)!r}"
        for key in keys
        if a_record.get(key) != b_record.get(key)
    )


def _first_delivery_divergence(
    a_events: Sequence[KernelEvent], b_events: Sequence[KernelEvent]
) -> int | None:
    """Index into the delivery stream where the schedules first differ.

    Deliveries are the scheduler's choices; aligning their envelope-seq
    streams separates "the adversary scheduled differently" from "the
    same schedule produced a different event".
    """
    a_seqs = [e.seq for e in a_events if type(e) is DeliverEvent]
    b_seqs = [e.seq for e in b_events if type(e) is DeliverEvent]
    for position, (a_seq, b_seq) in enumerate(zip(a_seqs, b_seqs)):
        if a_seq != b_seq:
            return position
    if len(a_seqs) != len(b_seqs):
        return min(len(a_seqs), len(b_seqs))
    return None


def diff_events(
    a_events: Sequence[KernelEvent],
    b_events: Sequence[KernelEvent],
    max_slice: int = DEFAULT_MAX_SLICE,
    header_mismatches: tuple[str, ...] = (),
    summary_drifts: tuple[str, ...] = (),
) -> DivergenceReport:
    """Localize the first divergent event between two kernel-event logs."""
    a_records = [event_to_record(event) for event in a_events]
    b_records = [event_to_record(event) for event in b_events]
    index = None
    for position, (a_record, b_record) in enumerate(zip(a_records, b_records)):
        if a_record != b_record:
            index = position
            break
    if index is None and len(a_records) != len(b_records):
        index = min(len(a_records), len(b_records))
    if index is None:
        return DivergenceReport(
            identical=not header_mismatches and not summary_drifts,
            a_events=len(a_records),
            b_events=len(b_records),
            header_mismatches=header_mismatches,
            summary_drifts=summary_drifts,
        )
    a_record = a_records[index] if index < len(a_records) else None
    b_record = b_records[index] if index < len(b_records) else None
    witness = a_record or b_record
    slice_source = a_events if a_record is not None else b_events
    return DivergenceReport(
        identical=False,
        a_events=len(a_records),
        b_events=len(b_records),
        index=index,
        seq=witness.get("seq"),
        step=witness.get("step"),
        kind=witness.get("k"),
        a_event=a_record,
        b_event=b_record,
        changed=(
            _field_delta(a_record, b_record)
            if a_record is not None and b_record is not None
            else ()
        ),
        slice=tuple(causal_slice(slice_source, index, max_slice=max_slice)),
        delivery_index=_first_delivery_divergence(a_events, b_events),
        header_mismatches=header_mismatches,
        summary_drifts=summary_drifts,
    )


def _summary_drifts(a: dict[str, Any], b: dict[str, Any]) -> tuple[str, ...]:
    return tuple(
        f"{key}: {a.get(key)!r} -> {b.get(key)!r}"
        for key in _SUMMARY_KEYS
        if a.get(key) != b.get(key)
    )


def diff_recordings(
    a: Recording, b: Recording, max_slice: int = DEFAULT_MAX_SLICE
) -> DivergenceReport:
    """Diff two loaded flight recordings: identity, events, summaries."""
    header_mismatches = tuple(
        f"{key}: {a.header.get(key)!r} vs {b.header.get(key)!r}"
        for key in _IDENTITY_KEYS
        if a.header.get(key) != b.header.get(key)
    )
    summary_drifts = _summary_drifts(a.summary, b.summary)
    return diff_events(
        a.events,
        b.events,
        max_slice=max_slice,
        header_mismatches=header_mismatches,
        summary_drifts=summary_drifts,
    )


# -- rendering and persistence -------------------------------------------------


def format_slice(entries: Sequence[dict[str, Any]]) -> list[str]:
    """Render causal-slice entries (shared by `repro diff` / `explain`)."""
    lines = []
    for entry in entries:
        marker = " <-- DIVERGES" if entry.get("divergent") else ""
        kind = entry.get("kind")
        step = entry.get("step")
        if kind == "send":
            body = (
                f"{entry.get('sender')} -> {entry.get('dest')} sends "
                f"{entry.get('message_kind')} (seq {entry.get('seq')}, "
                f"depth {entry.get('depth')})"
            )
        elif kind == "deliver":
            body = (
                f"{entry.get('sender')} -> {entry.get('dest')} delivers "
                f"{entry.get('message_kind')} (seq {entry.get('seq')}, "
                f"depth {entry.get('depth')})"
            )
        elif kind == "decide":
            body = (
                f"process {entry.get('pid')} DECIDES {entry.get('value')!r} "
                f"at depth {entry.get('depth')}"
            )
        else:
            fields = {
                key: value
                for key, value in entry.items()
                if key not in ("kind", "step", "divergent")
            }
            body = f"{kind} {fields}"
        lines.append(f"  step {step!s:>6}: {body}{marker}")
    return lines


def format_divergence(
    report: DivergenceReport,
    a_path: str | Path | None = None,
    b_path: str | Path | None = None,
) -> str:
    """Human rendering of a :class:`DivergenceReport` (`repro diff`)."""
    lines = []
    if a_path is not None:
        lines.append(f"a: {a_path}")
    if b_path is not None:
        lines.append(f"b: {b_path}")
    lines.append(report.describe())
    for mismatch in report.header_mismatches:
        lines.append(f"  header: {mismatch}")
    for drift in report.summary_drifts:
        lines.append(f"  summary: {drift}")
    if report.identical:
        return "\n".join(lines)
    if report.delivery_index is not None:
        lines.append(
            f"delivery schedules part ways at delivery "
            f"#{report.delivery_index}"
        )
    elif report.index is not None:
        lines.append(
            "delivery schedules agree; the divergence is in event content"
        )
    if report.slice:
        lines.append(f"causal slice ({len(report.slice)} events):")
        lines += format_slice(report.slice)
    return "\n".join(lines)


def save_divergence(
    path: str | Path, report: DivergenceReport | dict[str, Any]
) -> Path:
    """Persist a divergence report (or explain payload) as JSON.

    The ``*.divergence.json`` naming convention is load-bearing: the
    dashboard renders the newest such file and CI uploads them from red
    test runs.
    """
    import json

    from repro.experiments.store import to_jsonable

    payload = report.to_dict() if isinstance(report, DivergenceReport) else report
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(payload), indent=2) + "\n")
    return path


def divergence_hint(context: str) -> str:
    """The repo-standard one-line pointer into the differ.

    Printed by equivalence-test helpers and the trend gate when an
    identity check fails, so every red boolean comes with the command
    that explains it.
    """
    return (
        f"{context}: record both runs and localize the first divergent "
        "event with `python -m repro diff <a.jsonl> <b.jsonl>`; "
        "`python -m repro explain <recording.jsonl>` minimizes the "
        "schedule behind a reproducible failure (DESIGN.md section 12)"
    )
