"""Lossy links: the link-fault layer beside the kernel.

:mod:`repro.sim.network` is the paper's reliable-link model; everything
about the lossy *extension* is here -- :class:`LossyLinkConfig`, the
deterministic fate of every seq, and what a fate does to a sent copy
(drop, hold and release, bit flip, counters).  The kernel asks
:meth:`_LossyState.fate`, :meth:`~_LossyState.route` and
:meth:`~_LossyState.due`; seqs, ``SendEvent`` s and pool insertion stay
its own.  Nothing here imports the kernel: a held copy's flight and
destination ride in the heap as opaque values.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import Any, Iterable, Mapping, Sequence

from repro.crypto.hashing import derive_seed
from repro.sim.messages import Message

__all__ = ["LossyLinkConfig", "zero_counters"]

_FATE_RATE_FIELDS = ("drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate")


def zero_counters() -> dict[str, int]:
    """The fate counters of a run in which no fate fired."""
    return {"drops": 0, "duplicates": 0, "reorders": 0, "corruptions": 0}


@dataclass(frozen=True)
class LossyLinkConfig:
    """Lossy-link fault model: a documented *extension* of the paper's model.

    The paper assumes reliable asynchronous links -- the adversary may
    reorder arbitrarily but never loses a message.  This config relaxes
    that per link.  Every submitted message is assigned at most one
    *fate*, decided deterministically from the run seed and the message
    seq (so lossy runs replay bit-for-bit):

    ``drop``
        The message never enters the scheduler pool.  The sender still
        pays for it (metrics + SendEvent) -- the link ate it.  Drops can
        legitimately deadlock a protocol that the reliable model keeps
        live; that degradation is the experiment.
    ``duplicate``
        A second envelope with a fresh seq and the same payload is
        injected.  Injected duplicates do not re-roll fates and are not
        counted as protocol sends (the *network* pays, not the process).
    ``reorder``
        The message is held outside the pool until the delivery counter
        advances by a bounded amount (``reorder_hold``), then released.
        A lossy link may delay but cannot withhold forever: if the pool
        empties while messages are held, the earliest is released early.
    ``corrupt``
        The destination receives a shallow copy of the payload with one
        bit flipped in an integer field (never ``instance``).  Messages
        with no eligible field are delivered intact.

    All rates default to zero; an all-zero config leaves the kernel
    byte-identical to a run without one.  ``per_link`` maps
    ``(sender, dest)`` pairs to override configs (one level deep).
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    corrupt_rate: float = 0.0
    reorder_hold: int = 16
    # Compared but not hashed: a dict is unhashable, and equal configs
    # still hash equal on the scalar fields.
    per_link: Mapping[tuple[int, int], "LossyLinkConfig"] | None = field(
        default=None, hash=False
    )

    def __post_init__(self) -> None:
        total = 0.0
        for name in _FATE_RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
            total += rate
        if total > 1.0 + 1e-9:
            raise ValueError(
                "fates are mutually exclusive: drop_rate + duplicate_rate + "
                f"reorder_rate + corrupt_rate must be <= 1, got {total}"
            )
        if self.reorder_hold < 1:
            raise ValueError(f"reorder_hold must be >= 1, got {self.reorder_hold}")
        if self.per_link:
            for link, config in self.per_link.items():
                if config.per_link:
                    raise ValueError(
                        f"per_link override for {link} cannot itself carry "
                        "per_link overrides"
                    )

    @property
    def active(self) -> bool:
        """True when any fate can actually fire (here or in an override)."""
        if any(getattr(self, name) > 0.0 for name in _FATE_RATE_FIELDS):
            return True
        if self.per_link:
            return any(config.active for config in self.per_link.values())
        return False

    def rates_for(self, sender: int, dest: int) -> "LossyLinkConfig":
        """The effective config on the ``sender -> dest`` link."""
        if self.per_link:
            override = self.per_link.get((sender, dest))
            if override is not None:
                return override
        return self

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            name: getattr(self, name) for name in _FATE_RATE_FIELDS
        }
        payload["reorder_hold"] = self.reorder_hold
        if self.per_link:
            payload["per_link"] = {
                f"{sender}->{dest}": config.to_dict()
                for (sender, dest), config in sorted(self.per_link.items())
            }
        return payload

    @classmethod
    def targeted(
        cls,
        n: int,
        senders: Iterable[int] = (),
        dests: Iterable[int] = (),
        base: "LossyLinkConfig | None" = None,
        **rates: Any,
    ) -> "LossyLinkConfig":
        """Aim ``rates`` at specific processes via per-link overrides.

        Builds a config whose ``per_link`` overrides apply
        ``cls(**rates)`` to every link *out of* a pid in ``senders`` and
        every link *into* a pid in ``dests`` (self-links included: the
        kernel routes loopback sends through the same link model).  All
        other links follow ``base`` (default: lossless).  Overrides from
        ``base.per_link`` are kept but lose to the targeted ones.

        This is how committee-targeted scenarios are built: compute the
        committee membership from the trusted setup
        (:func:`repro.core.committees.sample_committee`) and starve
        exactly those links, e.g.
        ``LossyLinkConfig.targeted(n, senders=members, drop_rate=0.4)``.
        """
        override = cls(**rates)
        base = base if base is not None else cls()
        links: dict[tuple[int, int], "LossyLinkConfig"] = (
            dict(base.per_link) if base.per_link else {}
        )
        for sender in senders:
            for dest in range(n):
                links[(sender, dest)] = override
        for dest in dests:
            for sender in range(n):
                links[(sender, dest)] = override
        return replace(base, per_link=links)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LossyLinkConfig":
        """Inverse of :meth:`to_dict`; unknown or malformed keys are errors.

        A misspelt rate would otherwise load as a *reliable* link and a
        hand-edited recipe would replay the wrong model.
        """
        scalars = (*_FATE_RATE_FIELDS, "reorder_hold")
        for key in data:
            if key not in scalars and key != "per_link":
                raise ValueError(
                    f"unknown LossyLinkConfig key {key!r} (expected one of "
                    f"{', '.join(scalars)}, per_link)"
                )
        per_link = {}
        for key, sub in (data.get("per_link") or {}).items():
            sender, _, dest = str(key).partition("->")
            try:
                link = (int(sender), int(dest))
            except ValueError:
                raise ValueError(
                    f"malformed per_link key {key!r}: expected 'sender->dest' "
                    "with integer process ids"
                ) from None
            per_link[link] = cls.from_dict(sub)
        return cls(
            per_link=per_link or None,
            **{name: data[name] for name in scalars if name in data},
        )


def _bit_corrupt(message: Message, rng: random.Random) -> Message | None:
    """A shallow copy of ``message`` with one integer bit flipped.

    Returns ``None`` when the message has no eligible field (no plain
    ``int`` besides ``instance``, or the dataclass is frozen/slotted) --
    the caller then delivers the original intact.
    """
    try:
        fields = vars(message)
    except TypeError:
        return None
    names = sorted(
        name
        for name, value in fields.items()
        if name != "instance" and type(value) is int
    )
    if not names:
        return None
    name = names[rng.randrange(len(names))]
    value = fields[name]
    clone = copy.copy(message)
    try:
        setattr(clone, name, value ^ (1 << rng.randrange(max(value.bit_length(), 8))))
    except AttributeError:
        return None
    return clone


_FATE_BLOCK = 256  # consecutive seqs covered by one fate table


def _fate_thresholds(config: LossyLinkConfig) -> tuple[float, float, float, float, int]:
    """Cumulative drop/duplicate/reorder/corrupt thresholds + ``reorder_hold``.

    A roll in [0, 1) below the first threshold it meets takes that fate.
    A zero rate repeats the previous threshold exactly (``x + 0.0 == x``),
    so a zero-rate fate can never fire.
    """
    drop = config.drop_rate
    duplicate = drop + config.duplicate_rate
    reorder = duplicate + config.reorder_rate
    return drop, duplicate, reorder, reorder + config.corrupt_rate, config.reorder_hold


class _LossyState:
    """Per-run lossy-link machinery: fate tables, the reorder heap, counters."""

    __slots__ = ("_root", "_base", "_links", "_block", "_table", "counters",
                 "held", "by_kind")

    def __init__(self, config: LossyLinkConfig, seed: int) -> None:
        self._root = derive_seed(seed, "lossy")
        self._base = _fate_thresholds(config)
        self._links = {
            link: _fate_thresholds(override)
            for link, override in (config.per_link or {}).items()
        }
        self._block = -1
        self._table: list[float] = []
        # How often each fate fired, and the same split by message kind
        # (class name) -- the per-kind accounting `repro report` renders.
        self.counters = zero_counters()
        self.by_kind: dict[str, dict[str, int]] = {key: {} for key in self.counters}
        # Min-heap of (release_at_deliveries, seq, flight, dest): reordered
        # copies waiting outside the scheduler pool.  Seqs are unique, so
        # the flight is never compared.
        self.held: list[tuple[int, int, Any, int]] = []

    @classmethod
    def for_run(cls, config: Any, seed: int, n: int) -> "_LossyState | None":
        """The state a run over ``n`` processes needs; ``None`` if reliable."""
        if config is None:
            return None
        if not isinstance(config, LossyLinkConfig):
            raise TypeError(
                f"lossy must be a LossyLinkConfig or None, got {type(config).__name__}"
            )
        for link in config.per_link or ():
            if not (0 <= link[0] < n and 0 <= link[1] < n):
                # Such an override never matches: the run would silently
                # follow the base rates.
                raise ValueError(
                    f"lossy per_link override {link} names a process "
                    f"outside [0, {n})"
                )
        return cls(config, seed) if config.active else None

    def _count(self, fate_key: str, kind: str) -> None:
        self.counters[fate_key] += 1
        kinds = self.by_kind[fate_key]
        kinds[kind] = kinds.get(kind, 0) + 1

    def kinds_hit(self) -> dict[str, dict[str, int]]:
        """The fate counters split by message kind, fates that fired only."""
        return {
            fate: dict(sorted(kinds.items()))
            for fate, kinds in self.by_kind.items()
            if kinds
        }

    def fate(self, seq: int, sender: int, dest: int) -> tuple[str, float, int]:
        """``(fate, aux, reorder_hold)`` of seq on the ``sender -> dest`` link.

        A pure function of (run seed, seq, link config): block
        ``seq // 256`` seeds one generator that draws a roll and an
        auxiliary float per seq.  Seqs are allocated monotonically, so
        only the current block is kept; any other is recomputed on demand.
        ``aux`` places a reorder's release and seeds a corruption's bit
        choice.
        """
        block, slot = divmod(seq, _FATE_BLOCK)
        if block != self._block:
            rng = random.Random(derive_seed(self._root, block)).random
            self._table = [rng() for _ in range(2 * _FATE_BLOCK)]
            self._block = block
        links = self._links
        drop, duplicate, reorder, corrupt, hold = (
            links.get((sender, dest), self._base) if links else self._base
        )
        index = 2 * slot
        roll = self._table[index]
        if roll >= corrupt:
            fate = "deliver"
        elif roll < drop:
            fate = "drop"
        elif roll < duplicate:
            fate = "duplicate"
        elif roll < reorder:
            fate = "reorder"
        else:
            fate = "corrupt"
        return fate, self._table[index + 1], hold

    def route(self, seq: int, flight: Any, dest: int, fate: str, aux: float,
              hold: int, deliveries: int) -> tuple[int, Message | None]:
        """Apply ``fate`` to the copy of ``flight`` sent to ``dest`` as ``seq``.

        Returns how many copies enter the pool now, and the payload the
        destination receives instead if the link flipped a bit.  0:
        dropped (nothing is kept), or held with its flight and
        destination until ``deliveries`` advances by at most ``hold``.
        1: the copy (corrupted if it has an eligible field).  2: the copy
        and a twin the caller enters under the next seq, which rolls no
        fate of its own.
        """
        payload = flight.payload
        kind = type(payload).__name__
        if fate == "drop":
            self._count("drops", kind)
            return 0, None
        if fate == "reorder":
            self._count("reorders", kind)
            heappush(self.held, (deliveries + 1 + int(aux * hold), seq, flight, dest))
            return 0, None
        if fate == "corrupt":
            corrupted = _bit_corrupt(payload, random.Random(int(aux * (1 << 53))))
            if corrupted is not None:
                self._count("corruptions", kind)
            return 1, corrupted
        if fate == "duplicate":
            self._count("duplicates", kind)
            return 2, None
        return 1, None

    def due(
        self, deliveries: int, pool_empty: bool
    ) -> Sequence[tuple[int, int, Any, int]]:
        """Pop the held entries whose hold expired (call while any is held).

        With an empty pool and nothing due the earliest is released at
        once: a lossy link may delay but cannot withhold forever -- only
        genuine drops can deadlock a run.
        """
        held = self.held
        if held[0][0] > deliveries and not pool_empty:
            return ()
        released = []
        while held and held[0][0] <= deliveries:
            released.append(heappop(held))
        if pool_empty and not released:
            released.append(heappop(held))
        return released
