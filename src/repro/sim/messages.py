"""Protocol message base class and the network envelope that carries it.

Every protocol message declares its size in *words* using the paper's
complexity convention (Section 2): a word holds a signature, a VRF output,
or a constant-size value.  The envelope adds the routing metadata the
kernel and the adversary work with -- crucially, schedulers receive the
envelope's *metadata view* only, never the payload, unless they are
explicitly content-aware (ablation E6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

__all__ = ["Envelope", "Flight", "Message"]


@dataclass
class Message:
    """Base class for protocol messages.

    ``instance`` names the protocol instance the message belongs to (for
    example ``("coin", 3)`` or ``("ba", 2, "approve-est")``); mailboxes
    index on it so that messages for instances a slow process has not yet
    reached are buffered, not lost.
    """

    instance: Hashable

    def words(self) -> int:
        """Size in paper-words.  Subclasses override; default is one word."""
        return 1


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
