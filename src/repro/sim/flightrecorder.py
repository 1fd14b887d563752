"""The flight recorder: persistable kernel-event logs and their analyses.

A :class:`FlightRecorder` is an event-bus subscriber that keeps every
kernel event of a run (events hold no live message, so the log stays
valid after the run).  :func:`save_recording` /
:func:`load_recording` move a recording through the schema-versioned
JSONL format -- one header line, the event lines of
:func:`encode_events` (a payload table and broadcast send-runs instead
of one full line per event), one summary footer -- via
:mod:`repro.experiments.store`.  :func:`critical_path` walks a
recorded event log back from the deepest decision along the causal
depth chain, recovering the message sequence whose length *is* the run's
running time (paper Section 2's longest causally-related chain).

The recorder is also the replay bridge: :meth:`FlightRecorder.schedule`
is the run's ``(seq, sender, dest)`` deliveries, which
:class:`repro.sim.adversary.ReplayScheduler` re-executes
delivery-for-delivery.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.sim.events import (
    EVENT_SCHEMA,
    EVENT_SCHEMA_VERSION,
    DecideEvent,
    DeliverEvent,
    KernelEvent,
    PayloadSummary,
    SendEvent,
    event_from_record,
    event_to_record,
    instance_from_json,
    require_schema_version,
)

if TYPE_CHECKING:
    from repro.sim.adversary import Schedule
    from repro.sim.runner import RunResult

__all__ = [
    "FlightRecorder",
    "Recording",
    "causal_chain",
    "critical_path",
    "decode_events",
    "encode_events",
    "load_recording",
    "save_recording",
]


class FlightRecorder:
    """Collects every kernel event of a run, ready to persist or analyse.

    Attach via ``run_protocol(..., observers=[recorder])`` (or
    ``simulation.events.attach(recorder)``).  It keeps the kernel's own
    event objects; a deliver event carries only the immutable
    :class:`~repro.sim.events.PayloadSummary` of its message, so holding
    a recording never pins or aliases protocol message objects.

    One recorder holds one run: attaching it again starts a fresh
    :attr:`events` list (the previous run's list is left intact for
    whoever still holds it).
    """

    def __init__(self) -> None:
        self.events: list[KernelEvent] = []

    def begin_run(self) -> None:
        self.events = []

    def on_event(self, event: KernelEvent) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> list[KernelEvent]:
        """Events whose ``kind`` tag is ``kind`` (``"send"``, ``"deliver"``, ...)."""
        return [event for event in self.events if event.kind == kind]

    def sends_by(self, pid: int, message_kind: str | None = None) -> list[SendEvent]:
        """``pid``'s sends, optionally only those of one message kind."""
        return [
            event
            for event in self.events
            if type(event) is SendEvent
            and event.sender == pid
            and (message_kind is None or event.message_kind == message_kind)
        ]

    def schedule(self) -> Schedule:
        """The run's ``(seq, sender, dest)`` deliveries, in order: what
        :class:`~repro.sim.adversary.ReplayScheduler` replays."""
        return _schedule(self.events)


@dataclass(frozen=True)
class Recording:
    """A loaded flight recording: run header, typed events, summary."""

    header: dict[str, Any]
    events: tuple[KernelEvent, ...]
    summary: dict[str, Any]

    def schedule(self) -> Schedule:
        """The recorded run's ``(seq, sender, dest)`` deliveries, in order."""
        return _schedule(self.events)


def _schedule(events) -> Schedule:
    return tuple(
        (event.seq, event.sender, event.dest)
        for event in events
        if type(event) is DeliverEvent
    )


# What the sends of one broadcast share: every field but the two that
# step by one.
_SEND_RUN_KEY = attrgetter(
    *(spec.name for spec in fields(SendEvent) if spec.name not in ("seq", "dest"))
)


def encode_events(events: Iterable[KernelEvent]) -> Iterator[dict[str, Any]]:
    """The JSON-native event lines of a recording, from an event stream.

    Each line is the event's :func:`~repro.sim.events.event_to_record`
    with two savings, both a pure function of the stream (the kernel is
    not involved) and both undone by :func:`decode_events`:

    * **Payload table.**  A deliver line cites its summary as
      ``payload_id``; the summary itself (kind, instance, words, text) is
      one ``{"k": "payload", "id": ...}`` line written immediately before
      the first deliver that cites it.  Equal summaries share an id, so
      the n deliveries of a broadcast write its text once.
    * **Send-runs.**  Consecutive send events that differ only
      by ``seq`` and ``dest`` both stepping by one are a single send line
      with a ``count`` (omitted when 1).  A broadcast is one line;
      unicasts, Byzantine per-destination sends and a lossy link's
      duplicate twins simply do not group.

    Lazy, so a recorder that streams can feed it as events arrive.
    """
    from repro.experiments.store import to_jsonable

    instances: dict[Any, Any] = {}

    def jsonable(instance: Any) -> Any:
        # One to_jsonable walk per distinct instance label, not per event.
        try:
            return instances[instance]
        except KeyError:
            value = instances[instance] = to_jsonable(instance)
            return value

    def send_line(head: SendEvent, count: int) -> dict[str, Any]:
        record = event_to_record(head)
        record["instance"] = jsonable(head.instance)
        if count > 1:
            record["count"] = count
        return record

    payload_ids: dict[PayloadSummary, int] = {}
    head: SendEvent | None = None
    head_key: tuple = ()
    count = 0
    for event in events:
        cls = type(event)
        if cls is SendEvent:
            if head is not None:
                if (
                    event.seq == head.seq + count
                    and event.dest == head.dest + count
                    and _SEND_RUN_KEY(event) == head_key
                ):
                    count += 1
                    continue
                yield send_line(head, count)
            head, head_key, count = event, _SEND_RUN_KEY(event), 1
            continue
        if head is not None:
            yield send_line(head, count)
            head = None
        record = event_to_record(event)
        if cls is DeliverEvent:
            summary = event.summary
            payload_id = payload_ids.get(summary)
            if payload_id is None:
                payload_id = payload_ids[summary] = len(payload_ids)
                yield {
                    "k": "payload",
                    "id": payload_id,
                    "kind": summary.kind,
                    "instance": jsonable(summary.instance),
                    "words": summary.words,
                    "text": summary.text,
                }
            del record["payload_words"], record["payload_text"]
            record["payload_id"] = payload_id
        if "instance" in record:
            record["instance"] = jsonable(record["instance"])
        if "value" in record:
            record["value"] = to_jsonable(record["value"])
        yield record
    if head is not None:
        yield send_line(head, count)


def _decode_line(
    record: dict[str, Any], payloads: dict[Any, PayloadSummary]
) -> tuple[KernelEvent, ...]:
    """The events one :func:`encode_events` line stands for (none for a
    payload line, which extends ``payloads`` instead)."""
    kind = record["k"]
    if kind == "payload":
        payload_id = record["id"]
        if payload_id in payloads:
            raise ValueError(f"duplicate payload id {payload_id!r}")
        payloads[payload_id] = PayloadSummary(
            kind=record["kind"],
            instance=instance_from_json(record["instance"]),
            words=record["words"],
            text=record["text"],
        )
        return ()
    record = dict(record)
    if kind == "deliver":
        payload_id = record.pop("payload_id")
        if payload_id not in payloads:
            raise ValueError(
                f"deliver seq {record.get('seq')!r} cites payload id "
                f"{payload_id!r}, which no earlier payload line defines"
            )
        return (event_from_record(record, summary=payloads[payload_id]),)
    if kind == "send":
        count = record.pop("count", 1)
        if type(count) is not int or count < 1:
            raise ValueError(f"send count {count!r} is not a positive integer")
        first = event_from_record(record)
        return (first,) + tuple(
            replace(first, seq=first.seq + step, dest=first.dest + step)
            for step in range(1, count)
        )
    return (event_from_record(record),)


def decode_events(
    numbered: Iterable[tuple[int, dict[str, Any]]], source: Any = "<records>"
) -> Iterator[KernelEvent]:
    """The event stream behind ``(line number, record)`` pairs of
    :func:`encode_events` lines: its exact inverse.

    Send-runs expand to one :class:`SendEvent` per destination and every
    deliver gets the (shared) summary its ``payload_id`` names; a payload
    line nothing cites is fine.  A malformed line -- a deliver citing an
    id no earlier payload line defines, a duplicate payload id, a send
    ``count`` below one, an unknown kind, a missing or surplus field --
    raises a one-line ``ValueError`` naming ``source`` and the line.
    """
    payloads: dict[Any, PayloadSummary] = {}
    for lineno, record in numbered:
        try:
            decoded = _decode_line(record, payloads)
        except KeyError as exc:
            raise ValueError(f"{source}: line {lineno}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{source}: line {lineno}: {exc}") from None
        yield from decoded


def save_recording(
    path: str | Path,
    recorder: FlightRecorder,
    result: "RunResult",
    protocol: str | None = None,
) -> Path:
    """Write a run's flight recording to ``path`` as schema-versioned JSONL.

    Line 1 is the header (schema name/version, run identity and the
    SHA-256 ``digest`` that seals the whole file), then the
    :func:`encode_events` lines, then a ``summary`` footer carrying the
    persisted metrics (timings included -- a recording documents one
    concrete run) and the protocol rollups, so reports render without
    re-execution.

    ``protocol`` names the run (a ``repro.experiments.scenarios.resolve_run``
    name: Table 1 protocol or zoo scenario); recordings that carry it
    can be re-executed by ``python -m repro explain`` without the caller
    remembering how the run was built.

    Raises ``ValueError`` when the log's delivery count is not the
    result's: the recorder watched a different run, or more than one.
    The count is taken while writing, and the store only moves a
    completed file to ``path``, so nothing is left there.
    """
    from repro.experiments.store import save_jsonl, to_jsonable

    header = {
        "k": "header",
        "schema": EVENT_SCHEMA,
        "version": EVENT_SCHEMA_VERSION,
        "digest": _UNSEALED.decode(),
        "n": result.n,
        "f": result.f,
        "seed": result.seed,
        "corrupted": sorted(result.corrupted),
    }
    if protocol is not None:
        header["protocol"] = protocol
    summary = {
        "k": "summary",
        "deliveries": result.deliveries,
        "duration": result.duration,
        "words": result.words,
        "live": result.live,
        "all_correct_decided": result.all_correct_decided,
        "decisions": {str(pid): result.decisions[pid] for pid in sorted(result.decisions)},
        "metrics": result.metrics.to_dict(),
        "protocol": result.metrics.protocol_summary(),
    }

    def lines() -> Iterator[dict[str, Any]]:
        yield to_jsonable(header)
        delivered = 0
        for record in encode_events(recorder.events):
            delivered += record["k"] == "deliver"
            yield record
        if delivered != result.deliveries:
            raise ValueError(
                f"{path}: recorder holds {delivered} deliveries but the result "
                f"reports {result.deliveries}; it did not record exactly this run"
            )
        yield to_jsonable(summary)

    return save_jsonl(path, lines(), finish=_seal)


# The header's ``digest`` is the SHA-256 of every other byte of the file:
# the header's own fields, the event lines and the footer, with the 64
# hex digits of the digest itself read as zeros.  The writer puts zeros
# there and overwrites them in place once the file is complete.
_DIGEST_KEY = b'"digest":"'
_UNSEALED = b"0" * 64


def _digest(path: str | Path) -> tuple[int, bytes, str]:
    """Where ``path``'s header keeps its digest, what it says there
    (nothing if the header was rewritten without it), and what the file's
    bytes hash to."""
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        head = handle.readline()
        offset = head.find(_DIGEST_KEY)
        sealed = b""
        if offset >= 0:
            offset += len(_DIGEST_KEY)
            end = offset + len(_UNSEALED)
            sealed = head[offset:end]
            head = head[:offset] + _UNSEALED + head[end:]
        hasher.update(head)
        while chunk := handle.read(1 << 16):
            hasher.update(chunk)
    return offset, sealed, hasher.hexdigest()


def _seal(path: str | Path) -> None:
    """Write the digest of ``path`` into its header, in place."""
    offset, _, digest = _digest(path)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(digest.encode())


def load_recording(path: str | Path) -> Recording:
    """Load a :func:`save_recording` file back into typed events.

    Raises a one-line ``ValueError`` on anything that is not a complete
    recording of this build's schema -- empty file, missing header,
    unknown schema or version, a truncated line (diagnosed with its line
    number by the store), an event line :func:`decode_events` rejects,
    anything after the summary footer (a second footer included), a
    missing footer (the writer always ends with one, so its absence means
    the recording was cut short), or, last, bytes that no longer hash to
    the header's digest (a changed seq or ``n`` that still parses) -- so
    stale, damaged or edited recordings fail loudly rather than misrender
    or replay into a misleading diagnosis.
    """
    from repro.experiments.store import iter_jsonl

    numbered = iter_jsonl(path)
    _, header = next(numbered, (0, None))
    if header is None:
        raise ValueError(f"{path}: empty file (not a flight recording)")
    if not isinstance(header, dict) or header.get("k") != "header":
        raise ValueError(f"{path}: not a flight recording (no header line)")
    if header.get("schema") != EVENT_SCHEMA:
        raise ValueError(f"{path}: unknown schema {header.get('schema')!r}")
    require_schema_version(header.get("version"), path)
    summary: dict[str, Any] | None = None

    def event_lines() -> Iterator[tuple[int, dict[str, Any]]]:
        nonlocal summary
        for lineno, record in numbered:
            if summary is not None:
                raise ValueError(
                    f"{path}: line {lineno}: a {record.get('k')!r} line follows "
                    "the summary footer, which ends a recording"
                )
            if record.get("k") == "summary":
                summary = record
            else:
                yield lineno, record

    events = tuple(decode_events(event_lines(), path))
    if summary is None:
        raise ValueError(
            f"{path}: no summary footer after {len(events)} events; "
            "the recording is truncated"
        )
    _, sealed, digest = _digest(path)
    if sealed != digest.encode():
        raise ValueError(
            f"{path}: digest mismatch: the file is not the one that was "
            "recorded (edited or damaged); re-record the run"
        )
    return Recording(header=header, events=events, summary=summary)


def critical_path(events, target: DecideEvent | None = None) -> list[dict[str, Any]]:
    """Recover the causal chain behind a decision in ``events``.

    The kernel threads a causal depth through every envelope (depth =
    sender's depth + 1; a receiver's depth is the max over its
    deliveries), so the deepest decision sits at the end of at least one
    send->deliver chain touching every depth.  This walks that chain
    backwards: from the deciding process, find the first delivery that
    brought it to its decision depth, jump to that message's sender via
    the matching send, and repeat until depth 0.

    By default the chain ends at the deepest decision in the log (the
    run's running time); pass ``target`` to explain a specific
    :class:`DecideEvent` instead -- the conformance monitors use this to
    attach the causal slice behind a violating decision.

    Returns the chain in causal order: a ``send``/``deliver`` entry per
    hop and a final ``decide`` entry.  Empty if nothing decided.
    """
    if target is None:
        decides = [event for event in events if type(event) is DecideEvent]
        if not decides:
            return []
        deepest = max(decides, key=lambda event: (event.depth, -event.step))
    else:
        deepest = target
    chain: list[dict[str, Any]] = [
        {
            "kind": "decide",
            "step": deepest.step,
            "pid": deepest.pid,
            "value": deepest.value,
            "depth": deepest.depth,
        }
    ]
    chain += causal_chain(events, deepest.pid, deepest.depth, deepest.step)
    chain.reverse()
    return chain


def causal_chain(
    events,
    pid: int,
    depth: int,
    step: int,
    limit: int | None = None,
) -> list[dict[str, Any]]:
    """Walk the causal-depth chain backwards from ``(pid, depth, step)``.

    The hop rule of :func:`critical_path`, exposed for any anchor -- the
    divergence differ (:mod:`repro.sim.diffing`) walks back from the
    first divergent event the same way the monitors walk back from a
    violating decision.  Returns alternating ``deliver``/``send``
    entries in *reverse-causal* order (the delivery that put ``pid`` at
    ``depth`` first); ``limit`` bounds the entry count so slices over
    deep runs stay readable.  Stops early on an incomplete log (e.g. a
    recording attached mid-run).
    """
    sends_by_seq: dict[int, SendEvent] = {
        event.seq: event for event in events if type(event) is SendEvent
    }
    delivers_by_dest: dict[int, list[DeliverEvent]] = {}
    for event in events:
        if type(event) is DeliverEvent:
            delivers_by_dest.setdefault(event.dest, []).append(event)

    chain: list[dict[str, Any]] = []
    while depth > 0 and (limit is None or len(chain) < limit):
        hop = next(
            (
                event
                for event in delivers_by_dest.get(pid, ())
                if event.depth == depth and event.step <= step
            ),
            None,
        )
        if hop is None:
            break  # incomplete log (e.g. recording attached mid-run)
        send = sends_by_seq.get(hop.seq)
        chain.append(
            {
                "kind": "deliver",
                "step": hop.step,
                "seq": hop.seq,
                "sender": hop.sender,
                "dest": hop.dest,
                "message_kind": hop.message_kind,
                "instance": hop.instance,
                "words": hop.words,
                "depth": hop.depth,
            }
        )
        if send is not None and (limit is None or len(chain) < limit):
            chain.append(
                {
                    "kind": "send",
                    "step": send.step,
                    "seq": send.seq,
                    "sender": send.sender,
                    "dest": send.dest,
                    "message_kind": send.message_kind,
                    "instance": send.instance,
                    "depth": send.depth,
                }
            )
        pid, depth, step = hop.sender, depth - 1, (send.step if send else hop.step)
    return chain
