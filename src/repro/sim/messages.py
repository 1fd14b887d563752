"""Protocol message base class and the network envelope that carries it.

Every protocol message declares its size in *words* using the paper's
complexity convention (Section 2): a word holds a signature, a VRF output,
or a constant-size value.  The envelope adds the routing metadata the
kernel and the adversary work with -- crucially, schedulers receive the
envelope's *metadata view* only, never the payload, unless they are
explicitly content-aware (ablation E6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

__all__ = ["Envelope", "Message"]


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
    """One in-flight message: payload plus routing and causality metadata.

    ``sent_step`` is the kernel's delivery counter when the message was
    submitted; the delivery event surfaces it so subscribers can read
    link latency off a single event.  Slotted but not frozen: the kernel
    creates one per (message, destination) pair -- the single hottest
    allocation site -- and a frozen dataclass pays one
    ``object.__setattr__`` call per field per construction.

    ``pos`` is the envelope's index in the kernel's dense in-flight list
    and the one field the kernel mutates after submission (a swap-remove
    rewrites the moved envelope's ``pos``).  It is kernel-owned: kept up
    only while the envelope is in flight and the kernel addresses the
    pool by seq, and excluded from equality and ``repr``.  Everything
    else is fixed at submission.  The default keeps seven-argument
    constructions valid.
    """

    seq: int
    sender: int
    dest: int
    payload: Message
    depth: int
    sender_correct: bool
    sent_step: int
    pos: int = field(default=0, compare=False, repr=False)

    @property
    def instance(self) -> Hashable:
        return self.payload.instance


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
