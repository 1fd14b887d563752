"""The kernel event bus: typed run events for zero-or-more subscribers.

The flight-recorder observability layer rests on this module.  The
:class:`~repro.sim.network.Simulation` kernel emits one frozen event
object per observable occurrence -- sends, deliveries, corruptions,
decisions, wait blocking/waking, protocol-phase entry and exit -- to an
:class:`EventBus`.  Subscribers are plain callables; the kernel guards
every emission site with a truthiness check on the subscriber list, so a
run with nothing attached pays one attribute read and one branch per
site (measured by ``benchmarks/bench_observability_overhead.py``).

Events are plain immutable values that hold no live kernel object: a
:class:`DeliverEvent` carries a :class:`PayloadSummary` of its message,
never the message, so any observer may keep the kernel's own event
object for as long as it likes.  The kernel takes one summary per
flight (every copy of one send shares it), at the flight's first
observed delivery.

``step`` on every event is the kernel's global delivery counter at
emission time, so events are totally ordered by (step, index-in-log).

The JSONL flight-recording schema is versioned here
(:data:`EVENT_SCHEMA`, :data:`EVENT_SCHEMA_VERSION`); bump the version
whenever an event gains, loses or renames a field, or the file layout
:mod:`repro.sim.flightrecorder` writes around the events changes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Hashable, Union

if TYPE_CHECKING:
    from repro.sim.messages import Message

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_SCHEMA_VERSION",
    "ChunkedObserver",
    "CorruptEvent",
    "DecideEvent",
    "DeliverEvent",
    "EventBus",
    "KernelEvent",
    "PayloadSummary",
    "PhaseEvent",
    "SendEvent",
    "WaitBlockEvent",
    "WaitWakeEvent",
    "event_from_record",
    "event_to_record",
    "instance_from_json",
    "require_schema_version",
    "summarize_payload",
]

EVENT_SCHEMA = "repro.flight"
# v2: WaitBlockEvent/WaitWakeEvent carry the parked process's causal
# depth, so wait latency is measurable in causal time, not just steps;
# DeliverEvent carries ``sent_step`` so link latency (how long the
# adversary held a message) is a per-event subtraction instead of a
# send/deliver join.
# v3: the events are unchanged, the *file* stops repeating itself.  A
# message's summary is written once, as a ``payload`` line, and every
# deliver line cites it by id; consecutive sends that differ only by
# ``seq`` and ``dest`` both stepping by one (a broadcast) are one send
# line with a ``count``.  Both expand on load.  There is no v2 reader:
# no recording is tracked, all are regenerated artefacts, so an old file
# gets the re-record diagnostic below.
# v4: the header carries a ``digest``, the SHA-256 of every other byte of
# the file, so an edited or damaged recording that still parses (a
# changed seq, a flipped ``n``) fails to load instead of replaying into a
# misleading diagnosis.  As with v2, there is no v3 reader.
# v5: no events in the file.  The header (plus a ``code`` digest of the
# sources, a ``stream`` digest of the events, a perturbed spec's ``lossy``
# config), the packed schedule and the footer; events come back by
# replay under the same code.  There is no v4 reader.
EVENT_SCHEMA_VERSION = 5


def require_schema_version(version: Any, source: Any = None) -> None:
    """Raise the one unknown-schema-version ``ValueError`` unless
    ``version`` is this build's; ``source`` (a path) prefixes it."""
    if version != EVENT_SCHEMA_VERSION:
        prefix = f"{source}: " if source is not None else ""
        raise ValueError(
            f"{prefix}unknown {EVENT_SCHEMA} schema version {version!r}: this "
            f"build reads version {EVENT_SCHEMA_VERSION}; re-record the run or "
            "load it with a matching build"
        )


@dataclass(frozen=True, slots=True)
class PayloadSummary:
    """Immutable snapshot of a protocol message, safe to persist.

    Captures the complexity-relevant facts (kind, instance, size in
    paper-words) plus the payload's ``repr`` at snapshot time.  Events
    carry this instead of the live object, so an event stays valid, and
    pins nothing, after the run.
    """

    kind: str
    instance: Hashable
    words: int
    text: str


def summarize_payload(message: "Message") -> PayloadSummary:
    """Snapshot ``message`` into an immutable :class:`PayloadSummary`."""
    return PayloadSummary(
        kind=type(message).__name__,
        instance=message.instance,
        words=message.words(),
        text=repr(message),
    )


@dataclass(frozen=True, slots=True)
class SendEvent:
    """A message entered the network (``Simulation.submit``)."""

    kind = "send"

    step: int
    seq: int
    sender: int
    dest: int
    instance: Hashable
    message_kind: str
    words: int
    depth: int
    sender_correct: bool


@dataclass(frozen=True, slots=True)
class DeliverEvent:
    """A message left the network and reached its destination.

    ``sent_step`` is the delivery counter when the message entered the
    network (the matching :class:`SendEvent`'s ``step``), so
    ``step - sent_step`` is the link latency without a send/deliver
    join.  ``summary`` is the message's snapshot, shared by every copy
    of one send; the event holds no reference to the message itself.
    """

    kind = "deliver"

    step: int
    seq: int
    sender: int
    dest: int
    instance: Hashable
    message_kind: str
    words: int
    depth: int
    sent_step: int
    summary: PayloadSummary


@dataclass(frozen=True, slots=True)
class CorruptEvent:
    """A process fell to the adversary (budget-permitting corruption)."""

    kind = "corrupt"

    step: int
    pid: int


@dataclass(frozen=True, slots=True)
class DecideEvent:
    """A correct process recorded its irrevocable decision."""

    kind = "decide"

    step: int
    pid: int
    value: Any
    depth: int


@dataclass(frozen=True, slots=True)
class WaitBlockEvent:
    """A protocol coroutine parked on an unsatisfied wait-condition.

    ``depth`` is the process's causal depth at the moment it parked;
    paired with the matching :class:`WaitWakeEvent`'s depth it gives the
    wait's latency in causal time (how many message hops elapsed while
    the process was blocked), the unit the paper's running-time claims
    are stated in.
    """

    kind = "wait_block"

    step: int
    pid: int
    description: str
    subscribed: bool
    depth: int


@dataclass(frozen=True, slots=True)
class WaitWakeEvent:
    """A parked wait-condition fired and its coroutine resumed.

    ``depth`` is the process's causal depth at wake time (already
    advanced by the delivery that satisfied the condition).
    """

    kind = "wait_wake"

    step: int
    pid: int
    description: str
    depth: int


@dataclass(frozen=True, slots=True)
class PhaseEvent:
    """A protocol span opened (``enter``) or closed (``exit``).

    Emitted by :meth:`repro.sim.process.ProcessContext.span`; ``phase``
    is the span label (e.g. ``"ba-round"``, ``"whp_coin"``), ``instance``
    the protocol instance it covers.  Round starts and ends are phase
    events with phase ``"ba-round"``.
    """

    kind = "phase"

    step: int
    pid: int
    phase: str
    instance: Hashable
    action: str  # "enter" | "exit"


KernelEvent = Union[
    SendEvent,
    DeliverEvent,
    CorruptEvent,
    DecideEvent,
    WaitBlockEvent,
    WaitWakeEvent,
    PhaseEvent,
]

_EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        SendEvent,
        DeliverEvent,
        CorruptEvent,
        DecideEvent,
        WaitBlockEvent,
        WaitWakeEvent,
        PhaseEvent,
    )
}


# Per class, the fields a record copies as they are -- computed once, so
# no per-event ``fields()`` introspection.
_RECORD_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(spec.name for spec in fields(cls) if spec.name != "summary")
    for cls in _EVENT_TYPES.values()
}


class EventBus:
    """Dispatches kernel events to zero or more subscriber callables.

    The kernel holds a reference to :attr:`subscribers` and checks its
    truthiness before *constructing* an event, so the no-subscriber cost
    per emission site is one attribute read plus one branch.  Subscribers
    are invoked synchronously in subscription order and must not mutate
    the kernel.

    An *observer* is any object with ``on_event(event)`` and, optionally,
    ``begin_run()`` and ``finalize(result, simulation)`` -- the flight
    recorder, the monitor suite and the telemetry/coverage probes all
    are.  :meth:`attach` is the one way observers reach the bus
    (``run_protocol(observers=[...])`` calls it per entry); bare
    callables keep the raw :meth:`subscribe`.
    """

    __slots__ = ("subscribers",)

    def __init__(self) -> None:
        self.subscribers: list[Callable[[KernelEvent], None]] = []

    def subscribe(self, callback: Callable[[KernelEvent], None]) -> Callable:
        """Register ``callback``; returns it (handy for unsubscribe)."""
        if callback not in self.subscribers:
            self.subscribers.append(callback)
        return callback

    def attach(self, observer: Any) -> Any:
        """Start ``observer``'s run and subscribe it; returns the observer.

        ``begin_run`` (if the observer has one) resets its per-run state;
        ``on_event`` is read from the instance here, so a caller that
        rebinds it beforehand (the perf tracer does) is honoured.
        """
        begin_run = getattr(observer, "begin_run", None)
        if begin_run is not None:
            begin_run()
        self.subscribe(observer.on_event)
        return observer

    def unsubscribe(self, callback: Callable[[KernelEvent], None]) -> None:
        if callback in self.subscribers:
            self.subscribers.remove(callback)

    def emit(self, event: KernelEvent) -> None:
        for callback in self.subscribers:
            callback(event)

    def __bool__(self) -> bool:
        return bool(self.subscribers)


class ChunkedObserver:
    """Base for observers that buffer events and fold them in chunks.

    The online path is one list append and one length check per event,
    bound as a closure with default-argument locals so it costs no
    attribute lookups; every ``_CHUNK`` events (and before any read, via
    :meth:`_flush`, and when the run ends, via :meth:`finalize`) the
    buffer goes through the subclass's :meth:`_fold` and is emptied.
    Memory stays O(chunk), never O(events), and no event outlives the
    run.  No ``__slots__``: callers may rebind ``on_event`` on the
    instance.
    """

    _CHUNK = 1024

    def __init__(self) -> None:
        pending: list[KernelEvent] = []
        self._pending = pending

        def on_event(
            event: KernelEvent,
            _append=pending.append,
            _pending=pending,
            _chunk=self._CHUNK,
            _flush=self._flush,
        ) -> None:
            _append(event)
            if len(_pending) >= _chunk:
                _flush()

        self.on_event = on_event

    def _flush(self) -> None:
        """Fold whatever is pending (subclasses call this before reading)."""
        pending = self._pending
        if pending:
            self._fold(pending)
            del pending[:]

    def _fold(self, chunk: list[KernelEvent]) -> None:
        raise NotImplementedError

    def finalize(self, result: Any, simulation: Any) -> None:
        """Fold the last chunk: the run is over."""
        self._flush()


# -- serialization -------------------------------------------------------------


def event_to_record(event: KernelEvent) -> dict[str, Any]:
    """Flatten ``event`` into a JSON-friendly dict (``k`` = event kind).

    Deliver events inline the summary's fields; everything else
    serialises field-for-field.  The inverse is
    :func:`event_from_record`.  This is the one flat
    definition of an event's fields: diff and violation reports show it.
    """
    record: dict[str, Any] = {"k": event.kind}
    for name in _RECORD_FIELDS[type(event)]:
        record[name] = getattr(event, name)
    if type(event) is DeliverEvent:
        record["payload_words"] = event.summary.words
        record["payload_text"] = event.summary.text
    return record


def instance_from_json(value: Any) -> Hashable:
    """Recover hashable instance labels from JSON round-trips (list->tuple)."""
    if isinstance(value, list):
        return tuple(instance_from_json(item) for item in value)
    return value


def event_from_record(
    record: dict[str, Any], version: int = EVENT_SCHEMA_VERSION
) -> KernelEvent:
    """Rebuild a typed event from :func:`event_to_record` output.

    Tolerates JSON round-trips: instance tuples come back from lists.
    Raises ``ValueError`` on unknown kinds, and on a ``version`` other
    than this build's for callers that hand over records of another
    provenance.
    """
    require_schema_version(version)
    data = dict(record)
    kind = data.pop("k", None)
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r} in record {record!r}")
    if "instance" in data:
        data["instance"] = instance_from_json(data["instance"])
    if "value" in data:
        data["value"] = instance_from_json(data["value"])
    if cls is DeliverEvent:
        data["summary"] = PayloadSummary(
            kind=data["message_kind"],
            instance=data["instance"],
            words=data.pop("payload_words"),
            text=data.pop("payload_text"),
        )
    return cls(**data)
