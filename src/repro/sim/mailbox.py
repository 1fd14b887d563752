"""Per-process mailbox, indexed by protocol instance.

Asynchrony means messages for a future round (or a sub-protocol the
process has not entered yet) can arrive arbitrarily early; the mailbox
buffers every instance's stream until the instance is retired, and lets
each wait-condition consume its stream incrementally via a cursor, so
re-evaluation after every delivery stays O(new messages).

Reading never allocates: probing an instance that has no messages yet
returns a cheap live *view* instead of materialising (and permanently
storing) an empty buffer.  Long BA runs probe thousands of future-round
instances that may never receive a message; inserting a list per probe --
the old ``setdefault`` behaviour -- grew the mailbox without bound.  The
view honours the cursor contract: it reflects messages that arrive after
it was handed out, exactly like the underlying list.

An instance whose last reader has returned is *retired*
(:meth:`Mailbox.retire`): its buffer is swapped for one shared discarding
sink, so a late delivery is dropped rather than buffered, and peak
memory follows the live instances rather than the run's history.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterator

from repro.sim.messages import Message

__all__ = ["Mailbox"]

# Shared immutable target for views of instances with no messages yet.
_EMPTY: list = []

# The one buffer every retired instance of every mailbox points at: the
# kernel's delivery and ``Mailbox.add`` call ``.append`` on an instance's
# buffer, and a ``maxlen=0`` deque drops the entry in C, so a late
# delivery costs no branch on the hot path and is never held.
_RETIRED: deque = deque(maxlen=0)


class _InstanceStream:
    """Live read-only view of one instance's stream before any message exists.

    Delegates every access to the mailbox's current buffer for the
    instance, so a view obtained before the first delivery 'grows in
    place' once messages arrive -- identical observable behaviour to
    holding the underlying list, without creating that list on read.
    """

    __slots__ = ("_buffers", "_instance")

    def __init__(self, buffers: dict, instance: Hashable) -> None:
        self._buffers = buffers
        self._instance = instance

    def _target(self) -> list:
        return self._buffers.get(self._instance, _EMPTY)

    def __len__(self) -> int:
        return len(self._target())

    def __getitem__(self, index):
        return self._target()[index]

    def __iter__(self):
        return iter(self._target())

    def __bool__(self) -> bool:
        return bool(self._target())

    def __eq__(self, other) -> bool:
        if isinstance(other, _InstanceStream):
            other = other._target()
        return self._target() == other

    def __repr__(self) -> str:
        return repr(self._target())


class Mailbox:
    """All messages delivered to one process, grouped by instance."""

    def __init__(self) -> None:
        self._by_instance: dict[Hashable, list[tuple[int, Message]]] = {}

    def add(self, sender: int, message: Message) -> None:
        """Record a delivered message: the body the kernel's delivery loop
        inlines, and how a test fills a mailbox without a run."""
        self._by_instance.setdefault(message.instance, []).append((sender, message))

    def stream(self, instance: Hashable) -> list[tuple[int, Message]]:
        """The (growing) list of ``(sender, message)`` for ``instance``.

        The kernel only appends to it until the instance is retired;
        callers read it with their own cursor and never mutate it.
        Probing an instance with no messages yet returns a live view (see
        module docstring) rather than allocating a buffer.  Reading a
        retired instance raises: its messages are gone, and a reader
        that waited on the empty sink would block forever.
        """
        existing = self._by_instance.get(instance)
        if existing is not None:
            if existing is _RETIRED:
                raise RuntimeError(f"mailbox instance {instance!r} was retired")
            return existing
        return _InstanceStream(self._by_instance, instance)  # type: ignore[return-value]

    def retire(self, instance: Hashable) -> None:
        """Drop ``instance``'s stream: later deliveries are discarded.

        Call it once the instance's last reader has returned (DESIGN.md
        §6, "Instance lifetime").  Idempotent, and harmless for an
        instance that never received a message.
        """
        self._by_instance[instance] = _RETIRED

    def instances(self) -> Iterator[Hashable]:
        return iter(self._by_instance)
