"""Protocol message base class and the network envelope that carries it.

Every protocol message declares its size in *words* using the paper's
complexity convention (Section 2): a word holds a signature, a VRF output,
or a constant-size value.  The envelope adds the routing metadata the
kernel and the adversary work with -- crucially, schedulers receive the
envelope's *metadata view* only, never the payload, unless they are
explicitly content-aware (ablation E6).  A message class also declares the
kind of each field (``field_kinds``), which :func:`admit` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Hashable, Mapping

from repro.crypto.hashing import is_canonical

__all__ = [
    "Envelope", "Flight", "Kind", "Message", "admit", "bit", "canonical",
    "exactly", "integer", "optional", "pid", "row", "tuple_of",
]

# A field kind: ``kind(value, n)`` is true when ``value`` is of the kind
# in a network of ``n`` processes.
Kind = Callable[[object, int], bool]


def pid(value: object, n: int) -> bool:
    """A process id: an ``int`` in ``[0, n)``."""
    return type(value) is int and 0 <= value < n


def bit(value: object, n: int = 0) -> bool:
    """The ``int`` 0 or 1 (``True`` and ``1.0`` equal 1 but are no bit)."""
    return type(value) is int and 0 <= value <= 1


def integer(value: object, n: int) -> bool:
    """An ``int`` that is not a ``bool``."""
    return type(value) is int


def canonical(value: object, n: int) -> bool:
    """A value of the domain :func:`~repro.crypto.hashing.is_canonical` defines."""
    return is_canonical(value)


def optional(kind: Kind) -> Kind:
    """``None`` or a ``kind``."""
    return lambda value, n: value is None or kind(value, n)


def tuple_of(kind: Kind) -> Kind:
    """A tuple, of any length, of ``kind``s."""
    return lambda value, n: type(value) is tuple and all(kind(v, n) for v in value)


def row(*kinds: Kind) -> Kind:
    """A tuple of exactly ``kinds``, in order."""
    return lambda value, n: (
        type(value) is tuple and len(value) == len(kinds)
        and all(kind(item, n) for kind, item in zip(kinds, value))
    )


def exactly(cls: type, **kinds: Kind) -> Kind:
    """An object of exactly ``cls`` whose named attributes are of ``kinds``."""
    return lambda value, n: type(value) is cls and all(
        kind(getattr(value, name), n) for name, kind in kinds.items()
    )


@dataclass
class Message:
    """Base class for protocol messages.

    ``instance`` names the protocol instance the message belongs to (for
    example ``("coin", 3)`` or ``("ba", 2, "approve-est")``); mailboxes
    index on it so that messages for instances a slow process has not yet
    reached are buffered, not lost.
    """

    instance: Hashable
    # The kind of every other field; ``instance`` is canonical.
    field_kinds: ClassVar[Mapping[str, Kind]] = {}

    def words(self) -> int:
        """Size in paper-words.  Subclasses of more than one word override."""
        return 1


def admit(message: object, n: int) -> bool:
    """May ``message``, which correct code did not make (a corrupted
    process's send, a copy a lossy link flipped a bit in), enter a network
    of ``n`` processes?  Only a :class:`Message` whose fields all have
    their declared kinds may (DESIGN.md §15).  Every class of its MRO
    that declares ``field_kinds`` is checked, so a subclass can add kinds
    but not drop its parent's."""
    return (
        isinstance(message, Message)
        and is_canonical(message.instance)
        and all(
            kind(getattr(message, name), n)
            for cls in type(message).__mro__
            for name, kind in vars(cls).get("field_kinds", {}).items()
        )
    )


@dataclass(slots=True)
class Envelope:
    """One message on one link: payload plus routing and causality metadata.

    A value the kernel materialises on demand -- for a Byzantine
    behaviour's ``on_deliver``, a scheduler's pool view, a reacting
    corruption strategy -- and never stores: what is in flight is a :class:`Flight` per
    send call plus the per-copy ``seq`` and ``dest``.

    ``sent_step`` is the kernel's delivery counter when the message was
    submitted; the delivery event surfaces it so subscribers can read
    link latency off a single event.
    """

    seq: int
    sender: int
    dest: int
    payload: Message
    depth: int
    sender_correct: bool
    sent_step: int

    @property
    def instance(self) -> Hashable:
        return self.payload.instance


class Flight:
    """What every copy made by one ``submit`` / ``submit_broadcast`` call shares.

    A broadcast hands one message object, one depth and one ``sent_step``
    to n destinations; the only per-copy facts are ``seq`` and ``dest``,
    which the kernel keeps beside the flight in its pool columns.
    ``words`` and ``instance`` are the payload's, read once per send
    instead of once per delivery; ``entry`` is the one
    ``(sender, payload)`` tuple every receiver's mailbox stream appends.
    ``summary`` is the payload's
    :class:`~repro.sim.events.PayloadSummary`, which the kernel takes at
    the flight's first observed delivery and every later copy's
    ``DeliverEvent`` shares; it stays ``None`` in a run nobody observes.
    """

    __slots__ = ("sender", "payload", "depth", "sender_correct", "sent_step",
                 "words", "instance", "entry", "summary")

    def __init__(self, sender: int, payload: Message, depth: int,
                 sender_correct: bool, sent_step: int) -> None:
        self.sender = sender
        self.payload = payload
        self.depth = depth
        self.sender_correct = sender_correct
        self.sent_step = sent_step
        self.words = payload.words()
        self.instance = payload.instance
        self.entry = (sender, payload)
        self.summary = None


@dataclass(frozen=True)
class EnvelopeView:
    """The metadata a content-oblivious scheduler is allowed to see.

    Exposes routing information and the instance/kind labels (which the
    adversary could infer from traffic analysis anyway) but *not* the
    payload values -- this is how the delayed-adaptive restriction is
    enforced mechanically.
    """

    seq: int
    sender: int
    dest: int
    instance: Hashable
    kind: str
    depth: int

    @staticmethod
    def of(envelope: Envelope) -> "EnvelopeView":
        return EnvelopeView(
            seq=envelope.seq,
            sender=envelope.sender,
            dest=envelope.dest,
            instance=envelope.instance,
            kind=type(envelope.payload).__name__,
            depth=envelope.depth,
        )
