"""The flight recorder: kernel-event logs, their recordings and analyses.

A :class:`FlightRecorder` is an event-bus subscriber that folds a run's
kernel events, as they arrive, into what a recording keeps: the stream
digest, the packed schedule and the corruptions; it keeps no event.  An
:class:`EventLog` keeps them all, for code that reads them.
:func:`critical_path` walks back along the causal depth chain from the
deepest decision (through a :class:`CausalIndex`, one delivery per
process and depth), recovering the message sequence whose length *is*
the run's running time (paper Section 2's longest causally-related
chain).

A run replays seq-exactly from its spec and its schedule, so a recording
(:func:`save_recording`, schema-versioned JSONL) keeps those, not the
events: a header naming the run (``n``, ``f``, ``seed``, the corrupted
set, and the fields :mod:`repro.experiments.forensics` writes and reads
to rebuild its spec) with the ``code`` digest of the sources that ran
it, the ``stream`` digest of its events (:func:`stream_digest`) and a
``digest`` sealing every other byte; ``schedule`` lines of
base64-packed ``(seq, sender, dest)`` triples; and the summary footer.
:func:`load_recording` checks the file; the :class:`Recording`'s events
are replayed under :class:`~repro.sim.adversary.ReplayScheduler` on
first read, only under the sources that made it, and checked against
the stream digest.
"""

from __future__ import annotations

import base64
import hashlib
import marshal
import sys
from array import array
from dataclasses import fields
from functools import cache, cached_property
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from repro.sim.events import (
    EVENT_SCHEMA,
    EVENT_SCHEMA_VERSION,
    ChunkedObserver,
    CorruptEvent,
    DecideEvent,
    DeliverEvent,
    KernelEvent,
    PayloadSummary,
    SendEvent,
    require_schema_version,
)

if TYPE_CHECKING:
    from repro.sim.adversary import Schedule
    from repro.sim.runner import RunResult

__all__ = [
    "SCHEDULE_LINE",
    "CausalIndex",
    "EventLog",
    "FlightRecorder",
    "Recording",
    "causal_chain",
    "code_digest",
    "critical_path",
    "load_recording",
    "save_recording",
    "stream_digest",
]


# -- the stream digest ---------------------------------------------------------------

# Per event class, its ``kind`` tag and fields as one tuple (a deliver's
# summary left out: it goes in as its own digest).
_ROW = {
    cls: attrgetter("kind", *(f.name for f in fields(cls) if f.name != "summary"))
    for cls in KernelEvent.__args__
}
_DIGEST_CHUNK = 64  # events per marshalled block (larger blocks raise peak RSS)
# Summary digests a recorder keeps, by summary id, oldest dropped first.
# An entry holds its summary, so the id is that summary's while the entry
# lives; the bound keeps the recorder from pinning every message's repr
# (~3 MiB at n = 64).  The copies of one send arrive close together: at
# n = 64, 256 entries hash 1,011 times for 954 summaries.
_SUMMARY_CACHE = 256


def stream_digest(events: Iterable[KernelEvent]) -> str:
    """The SHA-256 of an event stream, read once, in blocks: what a
    :class:`FlightRecorder` fed ``events`` reads as its :attr:`~FlightRecorder.stream`.

    Each event is the tuple of its ``kind`` and its fields; a deliver's
    :class:`~repro.sim.events.PayloadSummary` is the SHA-256 of its own
    fields.  Blocks of ``_DIGEST_CHUNK`` tuples are ``marshal``-ed
    (format 2, no object references), which is type-exact: ``1``,
    ``True`` and ``1.0`` differ, as do a tuple and a list, so two
    streams share a digest only if their events are equal field by
    field with equal types.  A value ``marshal`` cannot write (an object
    of a class) raises ``ValueError``.
    """
    recorder = FlightRecorder()
    fold = recorder.on_event
    for event in events:
        fold(event)
    return recorder.stream


class EventLog:
    """Keeps every kernel event of a run, in order, for code that reads
    them: tests, examples, benchmarks and :attr:`Recording.events`.

    Attach via ``run_protocol(..., observers=[log])`` (or
    ``simulation.events.attach(log)``).  It keeps the kernel's own event
    objects; a deliver event carries only the immutable
    :class:`~repro.sim.events.PayloadSummary` of its message, so holding
    the log never pins or aliases protocol message objects.  A log grows
    with the run (~200 bytes per event); a recording needs only a
    :class:`FlightRecorder`.

    One log holds one run: attaching it again starts a fresh
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
        return tuple(
            (event.seq, event.sender, event.dest)
            for event in self.events
            if type(event) is DeliverEvent
        )


class FlightRecorder(ChunkedObserver):
    """Folds a run's kernel events, as they arrive, into what its
    recording keeps: the :attr:`stream` digest, the packed schedule
    (12 bytes per delivery), the :attr:`corruptions` and the
    :attr:`event_count`.  It keeps no event past its chunk.

    Attach via ``run_protocol(..., observers=[recorder])`` (or
    ``simulation.events.attach(recorder)``), then hand it to
    :func:`save_recording`.  The online path is
    :class:`~repro.sim.events.ChunkedObserver`'s: every chunk of
    ``_DIGEST_CHUNK`` events becomes its digest rows, and every
    ``_DIGEST_CHUNK`` rows are hashed as one block, so the digest is
    :func:`stream_digest`'s, block for block (an event value ``marshal``
    cannot write raises ``ValueError`` when its block is hashed).

    One recorder holds one run: attaching it again starts afresh.  Code
    that reads the events themselves attaches an :class:`EventLog`.
    """

    _CHUNK = _DIGEST_CHUNK

    def __init__(self) -> None:
        super().__init__()
        self.begin_run()

    def begin_run(self) -> None:
        del self._pending[:]
        self._hasher = hashlib.sha256()
        self._rows: list[tuple] = []  # the open block
        self._hashed = 0  # events in the hashed blocks
        self._summaries: dict[int, tuple[PayloadSummary, bytes]] = {}
        self._triples = array("I")
        self._corruptions: list[list[int]] = []

    def _fold(self, chunk: list[KernelEvent]) -> None:
        rows, append = self._rows, self._rows.append
        extend, corrupted = self._triples.extend, self._corruptions.append
        summaries, sha256 = self._summaries, hashlib.sha256
        deliver, corrupt, row_of = DeliverEvent, CorruptEvent, _ROW
        for event in chunk:
            cls = type(event)
            row = row_of[cls](event)
            if cls is deliver:
                extend(row[2:5])  # seq, sender, dest
                summary = event.summary
                known = summaries.get(id(summary))
                if known is None or known[0] is not summary:
                    if len(summaries) >= _SUMMARY_CACHE:
                        del summaries[next(iter(summaries))]
                    parts = [summary.kind, summary.instance, summary.words, summary.text]
                    known = summaries[id(summary)] = (
                        summary, sha256(marshal.dumps(parts, 2)).digest()
                    )
                row += (known[1],)
            elif cls is corrupt:
                corrupted([event.pid, event.step])
            append(row)
        # A read mid-chunk folds a short chunk, so a block may straddle two.
        while len(rows) >= _DIGEST_CHUNK:
            self._hasher.update(marshal.dumps(rows[:_DIGEST_CHUNK], 2))
            del rows[:_DIGEST_CHUNK]
            self._hashed += _DIGEST_CHUNK

    def finalize(self, result: "RunResult", simulation: Any) -> None:
        """Fold the last chunk; no summary is seen again, so drop the cache."""
        super().finalize(result, simulation)
        self._summaries = {}

    @property
    def stream(self) -> str:
        """The :func:`stream_digest` of the events seen so far."""
        self._flush()
        hasher = self._hasher.copy()
        hasher.update(marshal.dumps(self._rows, 2))
        return hasher.hexdigest()

    @property
    def event_count(self) -> int:
        """How many events the recorder has seen."""
        return self._hashed + len(self._rows) + len(self._pending)

    @property
    def corruptions(self) -> list[list[int]]:
        """Every corruption so far, as ``[pid, step]`` pairs, in order."""
        self._flush()
        return self._corruptions

    def packed_schedule(self) -> array:
        """The schedule as one flat ``array("I")`` of ``seq, sender, dest``."""
        self._flush()
        return self._triples

    def schedule(self) -> Schedule:
        """The run's ``(seq, sender, dest)`` deliveries, in order: what
        :class:`~repro.sim.adversary.ReplayScheduler` replays."""
        triples = iter(self.packed_schedule())
        return tuple(zip(triples, triples, triples))


class Recording:
    """A flight recording: header, schedule, summary and, on first read,
    the events, replayed under the run the header names
    (:func:`repro.experiments.forensics.spec_of`).
    """

    def __init__(
        self,
        header: dict[str, Any],
        summary: dict[str, Any],
        schedule: Schedule,
        source: Any = "<recording>",
    ) -> None:
        self.header = header
        self.summary = summary
        self.source = source
        self._schedule = schedule

    def schedule(self) -> Schedule:
        """The recorded run's ``(seq, sender, dest)`` deliveries, in order."""
        return self._schedule

    @cached_property
    def events(self) -> tuple[KernelEvent, ...]:
        """The run's kernel events, replayed from the schedule once.

        Raises a one-line ``ValueError`` when other sources than these
        recorded the run, the header names no run, the replay leaves the
        schedule, or its events do not hash to the recorded stream digest.
        """
        from repro.experiments.forensics import replay_recording

        if self.header.get("code") != code_digest():
            raise ValueError(
                f"{self.source}: code digest mismatch: recorded by other repro "
                f"sources ({self.header.get('code')}, these are {code_digest()}), "
                "which alone replay its events; re-record the run"
            )
        if not self.header.get("protocol"):
            raise ValueError(f"{self.source}: the header names no run to replay")
        log = EventLog()
        try:
            replay_recording(self, observers=[log])
        except RuntimeError as exc:
            raise ValueError(f"{self.source}: replay failed: {exc}") from None
        replayed, recorded = stream_digest(log.events), self.header.get("stream")
        if replayed != recorded:
            raise ValueError(
                f"{self.source}: stream digest mismatch: the replay hashes to "
                f"{replayed}, the recording to {recorded}; re-record the run"
            )
        return tuple(log.events)


@cache
def code_digest() -> str:
    """The SHA-256 of every ``.py`` file of the ``repro`` package (path
    and bytes, in path order), computed once per process."""
    root = Path(__file__).resolve().parent.parent
    hasher = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        hasher.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        hasher.update(data)
    return hasher.hexdigest()


# -- the file --------------------------------------------------------------------

SCHEDULE_LINE = 1024  # deliveries per ``schedule`` line
_TRIPLE_BYTES = 12  # three little-endian uint32


def _packed(ints: array) -> str:
    if sys.byteorder != "little":
        ints.byteswap()
    return base64.b64encode(ints.tobytes()).decode("ascii")


def _unpacked(text: str) -> Schedule:
    data = base64.b64decode(text, validate=True)
    if len(data) % _TRIPLE_BYTES:
        raise ValueError(f"{len(data)} bytes are not a whole number of deliveries")
    ints = array("I")
    ints.frombytes(data)
    if sys.byteorder != "little":
        ints.byteswap()
    triples = iter(ints)
    return tuple(zip(triples, triples, triples))


def save_recording(
    path: str | Path,
    recorder: FlightRecorder,
    result: "RunResult",
    protocol: str | Mapping[str, Any] | None = None,
) -> Path:
    """Write a run's flight recording to ``path`` as schema-versioned JSONL.

    The header, the ``schedule`` lines, then a ``summary`` footer with
    the persisted metrics (timings included -- a recording documents one
    concrete run) and the protocol rollups.  ``protocol`` names the run:
    a ``repro.experiments.scenarios.resolve_run`` name, or the header
    fields :func:`repro.experiments.forensics.run_header` makes of a
    ``RunSpec`` (a perturbed spec's lossy links and mid-run corruptions
    too), which go into the header as they are.  Only a named recording
    replays its events.

    Raises ``ValueError``, and writes nothing, when the recorder's
    delivery count is not the result's: it watched a different run, or
    more than one.
    """
    from repro.experiments.store import save_jsonl, to_jsonable

    triples = recorder.packed_schedule()
    if len(triples) // 3 != result.deliveries:
        raise ValueError(
            f"{path}: recorder holds {len(triples) // 3} deliveries but the result "
            f"reports {result.deliveries}; it did not record exactly this run"
        )
    header: dict[str, Any] = {
        "k": "header",
        "schema": EVENT_SCHEMA,
        "version": EVENT_SCHEMA_VERSION,
        "digest": _UNSEALED.decode(),
        "code": code_digest(),
        "stream": recorder.stream,
        "events": recorder.event_count,
        "n": result.n,
        "f": result.f,
        "seed": result.seed,
        "corrupted": sorted(result.corrupted),
    }
    if isinstance(protocol, str):
        header["protocol"] = protocol
    elif protocol is not None:
        header.update(protocol)
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
        width = 3 * SCHEDULE_LINE
        for start in range(0, len(triples), width):
            yield {"k": "schedule", "packed": _packed(triples[start:start + width])}
        yield to_jsonable(summary)

    return save_jsonl(path, lines(), finish=_seal)


# The header's ``digest`` is the SHA-256 of every other byte of the file:
# the header's own fields, the schedule lines and the footer, with the 64
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
    """Load a :func:`save_recording` file: header, schedule and summary.

    Raises a one-line ``ValueError`` on anything that is not a complete
    recording of this build -- empty file, missing header, unknown schema
    or version, a truncated line (diagnosed with its line number by the
    store), a schedule line that does not unpack, a line of another kind
    or after the summary footer, a missing footer (the recording was cut
    short), bytes that no longer hash to the header's digest (an edit
    that still parses), or a schedule that is not the footer's delivery
    count.  The events are replayed later, by :attr:`Recording.events`,
    which alone needs this build's sources: ``explain`` and ``fuzz``
    replay the schedule under any build and report where it diverges.
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
    schedule: list[tuple[int, int, int]] = []
    summary: dict[str, Any] | None = None
    for lineno, record in numbered:
        kind = record.get("k") if isinstance(record, dict) else None
        if summary is not None:
            raise ValueError(
                f"{path}: line {lineno}: a {kind!r} line follows "
                "the summary footer, which ends a recording"
            )
        if kind == "summary":
            summary = record
        elif kind == "schedule" and set(record) == {"k", "packed"}:
            try:
                schedule += _unpacked(record["packed"])
            except (TypeError, ValueError) as exc:  # binascii.Error is one
                raise ValueError(f"{path}: line {lineno}: schedule: {exc}") from None
        else:
            raise ValueError(
                f"{path}: line {lineno}: neither a schedule line nor the "
                f"summary footer: {str(record)[:80]}"
            )
    if summary is None:
        raise ValueError(
            f"{path}: no summary footer after {len(schedule)} deliveries; "
            "the recording is truncated"
        )
    _, sealed, digest = _digest(path)
    if sealed != digest.encode():
        raise ValueError(
            f"{path}: digest mismatch: the file is not the one that was "
            "recorded (edited or damaged); re-record the run"
        )
    if len(schedule) != summary.get("deliveries"):
        raise ValueError(
            f"{path}: the schedule holds {len(schedule)} deliveries but the "
            f"footer reports {summary.get('deliveries')!r}"
        )
    return Recording(header, summary, tuple(schedule), source=path)


class CausalIndex:
    """The first delivery to each process at each causal depth: all a
    causal-chain walk reads (:func:`causal_chain`).

    A process's depth only grows, and the walk from ``(pid, depth,
    step)`` takes the earliest delivery that put ``pid`` at ``depth`` if
    it came at or before ``step``, so one delivery per ``(dest, depth)``
    answers every walk a full log would.  :attr:`first` maps ``(dest,
    depth)`` to that delivery's ``(step, seq, sender, sent_step,
    message_kind, instance, words)``: its event less the payload
    summary, which would pin the message's ``repr``.  The
    :class:`~repro.sim.monitors.MonitorSuite` keeps one online; the
    event-list forms of :func:`causal_chain` and :func:`critical_path`
    build one from the list.
    """

    __slots__ = ("first",)

    def __init__(self, events: Iterable[KernelEvent] = ()) -> None:
        self.first: dict[tuple[int, int], tuple] = {}
        for event in events:
            if type(event) is DeliverEvent:
                self.add(event)

    def add(self, event: DeliverEvent) -> None:
        key, first = (event.dest, event.depth), self.first
        if key not in first:
            first[key] = (
                event.step,
                event.seq,
                event.sender,
                event.sent_step,
                event.message_kind,
                event.instance,
                event.words,
            )


def critical_path(events, target: DecideEvent | None = None) -> list[dict[str, Any]]:
    """Recover the causal chain behind a decision in ``events``.

    The kernel threads a causal depth through every envelope (depth =
    sender's depth + 1; a receiver's depth is the max over its
    deliveries), so the deepest decision sits at the end of at least one
    send->deliver chain touching every depth.  This walks that chain
    backwards: from the deciding process, take the first delivery that
    brought it to its decision depth, jump to that message's sender at
    the step it was sent, and repeat until depth 0.

    ``events`` is an event list or a :class:`CausalIndex`.  By default
    the chain ends at the deepest decision in the list (the run's
    running time); pass ``target`` to explain a specific
    :class:`DecideEvent` instead (an index needs one) -- the conformance
    monitors use this to attach the causal slice behind a violating
    decision.

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
    violating decision.  ``events`` is an event list or a
    :class:`CausalIndex`.  Returns alternating ``deliver``/``send``
    entries in *reverse-causal* order (the delivery that put ``pid`` at
    ``depth`` first); a send entry is read off its delivery (``seq``,
    ``sender``, ``sent_step``).  ``limit`` bounds the entry count so
    slices over deep runs stay readable.  Stops early on an incomplete
    log (e.g. a recording attached mid-run).
    """
    first = (events if type(events) is CausalIndex else CausalIndex(events)).first
    chain: list[dict[str, Any]] = []
    while depth > 0 and (limit is None or len(chain) < limit):
        hop = first.get((pid, depth))
        if hop is None or hop[0] > step:
            break  # incomplete log (e.g. recording attached mid-run)
        delivered, seq, sender, sent_step, message_kind, instance, words = hop
        chain.append(
            {
                "kind": "deliver",
                "step": delivered,
                "seq": seq,
                "sender": sender,
                "dest": pid,
                "message_kind": message_kind,
                "instance": instance,
                "words": words,
                "depth": depth,
            }
        )
        if limit is None or len(chain) < limit:
            chain.append(
                {
                    "kind": "send",
                    "step": sent_step,
                    "seq": seq,
                    "sender": sender,
                    "dest": pid,
                    "message_kind": message_kind,
                    "instance": instance,
                    "depth": depth,
                }
            )
        pid, depth, step = sender, depth - 1, sent_step
    return chain
