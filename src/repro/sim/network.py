"""The simulation kernel: reliable links, adversarial delivery, corruption.

One :class:`Simulation` models one run.  The event loop is::

    while in-flight messages remain and the stop condition is unmet:
        seq  <- adversary.scheduler.choose(pool)   # all asynchrony is here
        deliver envelope(seq) to its destination
        let the corruption strategy react (budget f, no message removal)

Correct processes are generator coroutines (see
:mod:`repro.sim.process`); corrupted ones are driven by
:class:`~repro.sim.byzantine.ByzantineBehavior` hooks.  Reliable links:
nothing is ever dropped -- the adversary only reorders.

:class:`LossyLinkConfig` relaxes the reliable-link assumption as a
documented *model extension* (per-link drop/duplicate/reorder/corrupt
rates, off by default, deterministic from the run seed).  With no config
-- or an all-zero one -- the kernel is byte-identical to the reliable
model.
"""

from __future__ import annotations

import copy
import random
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Mapping

from repro.crypto.hashing import derive_seed
from repro.crypto.pki import PKI
from repro.sim.adversary import Adversary, CorruptionStrategy, Scheduler
from repro.sim.events import (
    CorruptEvent,
    DeliverEvent,
    EventBus,
    SendEvent,
    WaitBlockEvent,
    WaitWakeEvent,
    summarize_payload,
)
from repro.sim.messages import Envelope, EnvelopeView, Message
from repro.sim.metrics import MetricsRecorder
from repro.sim.process import ProcessContext, ProtocolFactory, Wait

__all__ = [
    "EmptySchedulerPoolError",
    "LossyLinkConfig",
    "SchedulerPool",
    "Simulation",
]

DEFAULT_MAX_DELIVERIES = 2_000_000

_FATE_RATE_FIELDS = ("drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate")

# What the fast loop iterates when the scheduler committed no batch: one
# delivery, its envelope already picked (drained batches hold seqs).
_BATCH_OF_ONE = (None,)


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
        return cls(
            drop_rate=base.drop_rate,
            duplicate_rate=base.duplicate_rate,
            reorder_rate=base.reorder_rate,
            corrupt_rate=base.corrupt_rate,
            reorder_hold=base.reorder_hold,
            per_link=links,
        )

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
        self.counters = {"drops": 0, "duplicates": 0, "reorders": 0, "corruptions": 0}
        self.by_kind: dict[str, dict[str, int]] = {key: {} for key in self.counters}
        # Min-heap of (release_at_deliveries, seq, envelope): reordered
        # messages waiting outside the scheduler pool.
        self.held: list[tuple[int, int, Envelope]] = []

    def count(self, fate_key: str, kind: str) -> None:
        self.counters[fate_key] += 1
        kinds = self.by_kind[fate_key]
        kinds[kind] = kinds.get(kind, 0) + 1

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


class EmptySchedulerPoolError(RuntimeError):
    """A scheduler asked the pool for a message while nothing is in flight.

    The kernel never calls ``choose`` on an empty pool, so this means an
    adversary implementation indexed the pool outside ``choose`` (or a
    test drove the pool directly).  Named so adversary authors get a
    diagnosable failure instead of a bare ``randrange(0)`` traceback.
    """


class SchedulerPool:
    """The scheduler's window onto the in-flight message set.

    Payload access is refused unless the scheduler declared itself
    ``content_aware`` -- the mechanical enforcement of delayed adaptivity.
    """

    def __init__(self, simulation: "Simulation") -> None:
        self._simulation = simulation

    def __len__(self) -> int:
        return len(self._simulation._in_flight)

    def _require_messages(self) -> None:
        if not self._simulation._in_flight:
            scheduler = type(self._simulation.adversary.scheduler).__name__
            raise EmptySchedulerPoolError(
                f"scheduler {scheduler} requested a message from an empty "
                "pool: no messages are in flight"
            )

    def seq_at(self, index: int) -> int:
        self._require_messages()
        return self._simulation._in_flight[index].seq

    def random_seq(self, rng: random.Random) -> int:
        self._require_messages()
        in_flight = self._simulation._in_flight
        return in_flight[rng.randrange(len(in_flight))].seq

    def _envelope(self, seq: int) -> Envelope:
        by_seq = self._simulation._by_seq
        if by_seq is not None:
            return by_seq[seq]
        # Positional run: the kernel keeps no seq index, and no positional
        # scheduler looks a seq up during a run -- scan.
        for envelope in self._simulation._in_flight:
            if envelope.seq == seq:
                return envelope
        raise KeyError(seq)

    def view(self, seq: int) -> EnvelopeView:
        return EnvelopeView.of(self._envelope(seq))

    def payload(self, seq: int) -> Message:
        if not self._simulation.adversary.scheduler.content_aware:
            raise PermissionError(
                "content-oblivious scheduler attempted to read a payload; "
                "this would violate the delayed-adaptive adversary model"
            )
        return self._envelope(seq).payload


def _picks_by_position(scheduler: Scheduler) -> bool:
    """May the kernel call ``scheduler.choose_index`` instead of ``choose``?

    A scheduler that defines ``choose_index(size)`` promises that its
    ``choose`` -- the one defined in the same class -- returns
    ``pool.seq_at(self.choose_index(len(pool)))``.  The kernel can then
    pick by position and keep no seq index at all.  The promise says
    nothing about a ``choose`` overridden further down the MRO (or on the
    instance), so then the override decides every delivery; and a
    scheduler that drains or listens to ``on_delivered`` deals in seqs,
    so it keeps the seq-addressed path too.
    """
    cls = type(scheduler)
    owner = next((c for c in cls.__mro__ if "choose_index" in vars(c)), None)
    return (
        owner is not None
        and vars(owner).get("choose") is cls.choose
        and "choose" not in getattr(scheduler, "__dict__", ())
        and cls.drain is Scheduler.drain
        and cls.on_delivered is Scheduler.on_delivered
    )


class Simulation:
    """One run of a protocol under one adversary.

    Parameters
    ----------
    n, f:
        System size and corruption budget.  ``f`` bounds the *total* number
        of corruptions (initial plus adaptive).
    pki:
        Trusted setup (generated before the run, as the paper assumes).
    adversary:
        Scheduler + corruption strategy + Byzantine behaviour factory.
    seed:
        Root of all per-process deterministic randomness.
    params:
        Arbitrary protocol parameter object exposed as ``ctx.params``.
    stop_condition:
        ``callable(sim) -> bool`` evaluated after every delivery; lets BA
        runs halt once every correct process decided even though the
        protocol itself loops forever.
    eager_wakeups:
        When True, ignore ``Wait.instances`` subscriptions and re-evaluate
        every pending condition after every delivery (the pre-subscription
        behaviour).  Exists so equivalence tests can diff the keyed and
        eager paths.
    profile:
        When True, wall-clock timers wrap the kernel sections (scheduler
        choice, delivery/stepping, signature+VRF verification) and every
        :meth:`~repro.sim.process.ProcessContext.span`; totals land in
        ``metrics.phase_timings``.  Off by default: timing every delivery
        is not free and wall-clock is the one observable that legitimately
        differs between identical runs.
    delivery_mode:
        ``"batched"`` (default) runs the fast loop: it delivers a whole
        committed batch when the scheduler's
        :meth:`~repro.sim.adversary.Scheduler.drain` returns one, and
        otherwise a batch of one -- picked by pool position when the
        scheduler declares ``choose_index``, else by ``choose``.
        ``"classic"`` runs the reference loop: one ``choose`` per
        delivery through the readable ``_remove_in_flight`` +
        ``_deliver`` step.  The two are observably identical (same
        delivery order, RNG stream, events and metrics; the equivalence
        tests compare them), so ``"classic"`` exists for those tests;
        ``profile=True`` also selects it, so the ``kernel.schedule``/
        ``kernel.step`` timers keep their per-delivery meaning.
    lossy:
        Optional :class:`LossyLinkConfig` enabling the lossy-link model
        extension.  ``None`` (default) or an all-zero config keeps the
        kernel byte-identical to the reliable model.  While a config is
        active both loops release held (reordered) envelopes before each
        choice, and the fast loop commits no drained batch (a hold breaks
        the drain contract's commitment), so every delivery is a batch of
        one.
    """

    def __init__(
        self,
        n: int,
        f: int,
        pki: PKI,
        adversary: Adversary,
        seed: int = 0,
        params: Any = None,
        max_deliveries: int = DEFAULT_MAX_DELIVERIES,
        stop_condition: Callable[["Simulation"], bool] | None = None,
        eager_wakeups: bool = False,
        profile: bool = False,
        delivery_mode: str = "batched",
        lossy: LossyLinkConfig | None = None,
    ) -> None:
        if pki.n != n:
            raise ValueError("PKI size does not match n")
        if not 0 <= f < n:
            raise ValueError("need 0 <= f < n")
        if delivery_mode not in ("classic", "batched"):
            raise ValueError(
                f"unknown delivery_mode {delivery_mode!r}; "
                "expected 'classic' or 'batched'"
            )
        if lossy is not None:
            if not isinstance(lossy, LossyLinkConfig):
                raise TypeError(
                    f"lossy must be a LossyLinkConfig or None, got {type(lossy).__name__}"
                )
            for link in lossy.per_link or ():
                if not (0 <= link[0] < n and 0 <= link[1] < n):
                    # Such an override never matches: the run would
                    # silently follow the base rates.
                    raise ValueError(
                        f"lossy per_link override {link} names a process "
                        f"outside [0, {n})"
                    )
        self.n = n
        self.f = f
        self.pki = pki
        self.adversary = adversary
        self.seed = seed
        self.params = params
        self.max_deliveries = max_deliveries
        self.stop_condition = stop_condition
        self.eager_wakeups = eager_wakeups
        self.profile = profile
        self.delivery_mode = delivery_mode
        self.lossy = lossy
        # Inactive configs compile to the exact reliable-model code paths:
        # `self._lossy is None` is the only check the hot paths make.
        self._lossy = (
            _LossyState(lossy, seed) if lossy is not None and lossy.active else None
        )
        self.metrics = MetricsRecorder()
        # The kernel event bus.  Emission sites read this list reference
        # directly: `if subscribers:` is the whole no-subscriber cost.
        self.events = EventBus()
        self._subscribers = self.events.subscribers
        self.deliveries = 0
        # Batch accounting (kernel-side, deliberately *not* in metrics so
        # classic and batched runs stay byte-identical): deliveries that
        # arrived via a drained batch, and the number of batches.
        self.batched_deliveries = 0
        self.drain_batches = 0

        self.contexts = [ProcessContext(pid, self) for pid in range(n)]
        self.corrupted: set[int] = set()
        self.decided: set[int] = set()
        self.finished: set[int] = set()
        self.returns: dict[int, Any] = {}

        self._behaviors: dict[int, Any] = {}
        self._generators: dict[int, Any] = {}
        self._pending: dict[int, Wait | None] = {}
        # Incremental-quorum countdown per blocked pid: subscribed
        # deliveries still needed before the pending wait's min_count
        # floor is reached (0 = evaluate normally).
        self._pending_remaining: dict[int, int] = {}
        self._factories: dict[int, ProtocolFactory] = {}

        # The in-flight set is one dense list, removal a swap with its last
        # element.  Schedulers name messages by seq, so `_by_seq` maps seq
        # to envelope and each envelope carries its list index (`pos`) --
        # except on the fast loop under a scheduler that picks by position:
        # nothing looks a seq up then, `_by_seq` is None and `pos` unused.
        scheduler = adversary.scheduler
        self._in_flight: list[Envelope] = []
        self._reference_loop = profile or delivery_mode == "classic"
        positional = not self._reference_loop and _picks_by_position(scheduler)
        self._by_seq: dict[int, Envelope] | None = None if positional else {}
        self._next_seq = 0
        self._pool = SchedulerPool(self)
        self._stopped = False
        self._started = False
        # Set again by run(); initialised here so a never-run simulation
        # answers `exhausted`/`deadlocked` instead of raising.
        self.exhausted = False
        # Submission fast path: skip the per-envelope EnvelopeView (and
        # the call itself) when the scheduler's on_submit is the base
        # no-op or declares it ignores the view.
        if type(scheduler).on_submit is Scheduler.on_submit:
            self._submit_hook = None
        else:
            self._submit_hook = scheduler.on_submit
        self._submit_wants_view = bool(getattr(scheduler, "wants_view", True))
        # Corruption fast path: a strategy that keeps the base no-op
        # on_delivery never reacts, so the per-delivery view/frozenset
        # construction can be skipped entirely.
        self._corruption_reacts = (
            type(adversary.corruption).on_delivery
            is not CorruptionStrategy.on_delivery
        )

    # -- configuration ---------------------------------------------------------

    def set_protocol(self, pid: int, factory: ProtocolFactory) -> None:
        """Install the protocol a (correct) process will run."""
        self._factories[pid] = factory

    def set_protocol_all(self, factory: ProtocolFactory) -> None:
        for pid in range(self.n):
            self.set_protocol(pid, factory)

    # -- kernel services used by ProcessContext ---------------------------------

    def submit(self, sender: int, dest: int, message: Message) -> None:
        """Place a message on the link from ``sender`` to ``dest``.

        Links are reliable (the paper's model) unless an active
        :class:`LossyLinkConfig` was installed; then the link applies the
        envelope's fate -- a deterministic function of (run seed, seq,
        link config) -- after the sender has paid for the send.
        """
        if not 0 <= dest < self.n:
            raise ValueError(f"invalid destination {dest}")
        if not 0 <= sender < self.n:
            # A negative sender would silently index contexts[-1] and stamp
            # the wrong depth/sender_correct; fail like an invalid dest.
            raise ValueError(f"invalid sender {sender}")
        seq = self._next_seq
        # Positional: keyword construction measurably slows this path.
        envelope = Envelope(
            seq,
            sender,
            dest,
            message,
            self.contexts[sender].depth + 1,
            sender not in self.corrupted,
            self.deliveries,
        )
        self._next_seq = seq + 1
        self.metrics.record_send(envelope)
        self._emit_send(envelope)
        if self._lossy is None:
            self._insert_in_flight(envelope)
        else:
            self._route_lossy(envelope, *self._lossy.fate(seq, sender, dest))

    def _emit_send(self, envelope: Envelope) -> None:
        if self._subscribers:
            message = envelope.payload
            self.events.emit(
                SendEvent(
                    step=envelope.sent_step,
                    seq=envelope.seq,
                    sender=envelope.sender,
                    dest=envelope.dest,
                    instance=message.instance,
                    message_kind=type(message).__name__,
                    words=message.words(),
                    depth=envelope.depth,
                    sender_correct=envelope.sender_correct,
                )
            )

    def _route_lossy(self, envelope: Envelope, fate: str, aux: float, hold: int) -> None:
        """Apply a lossy link's ``fate`` to an envelope its sender just sent.

        The per-envelope routing :meth:`submit` and
        :meth:`submit_broadcast` share; ``self._next_seq`` must already be
        past ``envelope.seq``, because a duplicate's second copy takes the
        next seq.  That copy is the network's, not the process's: it emits
        a ``SendEvent`` but is not counted as a protocol send, and it
        rolls no fate of its own (no recursive duplication).
        """
        lossy = self._lossy
        kind = type(envelope.payload).__name__
        if fate == "drop":
            lossy.count("drops", kind)
            return
        if fate == "reorder":
            lossy.count("reorders", kind)
            release_at = self.deliveries + 1 + int(aux * hold)
            heappush(lossy.held, (release_at, envelope.seq, envelope))
            return
        if fate == "corrupt":
            corrupted = _bit_corrupt(envelope.payload, random.Random(int(aux * (1 << 53))))
            if corrupted is not None:
                lossy.count("corruptions", kind)
                envelope.payload = corrupted
        self._insert_in_flight(envelope)
        if fate == "duplicate":
            lossy.count("duplicates", kind)
            twin = Envelope(
                self._next_seq, envelope.sender, envelope.dest, envelope.payload,
                envelope.depth, envelope.sender_correct, envelope.sent_step,
            )
            self._next_seq += 1
            self._emit_send(twin)
            self._insert_in_flight(twin)

    def submit_broadcast(self, sender: int, message: Message) -> None:
        """Submit ``message`` from ``sender`` to every process (self included).

        Observably identical to ``n`` consecutive :meth:`submit` calls in
        destination order -- same seqs, envelopes, events, metrics, link
        fates and scheduler callbacks -- with the per-message work (word
        count, kind, depth, the metrics increments) hoisted out of the
        destination loop.  Broadcast is the protocols' only send
        primitive, so this is the kernel's hottest submission path.
        """
        n = self.n
        if not 0 <= sender < n:
            raise ValueError(f"invalid sender {sender}")
        ctx = self.contexts[sender]
        depth = ctx.depth + 1
        sender_correct = sender not in self.corrupted
        sent_step = self.deliveries
        metrics = self.metrics
        words = message.words()
        kind = type(message).__name__
        # record_send x n, batched: identical final counter values.
        metrics.words_total += words * n
        metrics.messages_sent_total += n
        if sender_correct:
            metrics.words_correct += words * n
            metrics.messages_sent_correct += n
            metrics.words_by_kind[kind] += words * n
            metrics.messages_by_kind[kind] += n
            metrics.words_by_sender[sender] += words * n
            metrics.messages_by_sender[sender] += n
        emit = self.events.emit if self._subscribers else None
        instance = message.instance
        in_flight = self._in_flight
        by_seq = self._by_seq
        lossy = self._lossy
        on_submit = self._submit_hook
        wants_view = self._submit_wants_view
        # Seq-only bookkeeping takes one bulk call per broadcast -- unless
        # a lossy link may keep seqs of the range out of the pool.
        per_seq = on_submit is not None and (wants_view or lossy is not None)
        scheduler = self.adversary.scheduler
        inspect = (
            getattr(scheduler, "inspect_payload", None)
            if scheduler.content_aware
            else None
        )
        seq = self._next_seq
        first_seq = seq
        pos = len(in_flight)
        for dest in range(n):
            # Positional: keyword construction measurably slows this loop.
            envelope = Envelope(
                seq, sender, dest, message, depth, sender_correct, sent_step
            )
            if emit is not None:
                emit(
                    SendEvent(
                        step=sent_step,
                        seq=seq,
                        sender=sender,
                        dest=dest,
                        instance=instance,
                        message_kind=kind,
                        words=words,
                        depth=depth,
                        sender_correct=sender_correct,
                    )
                )
            if lossy is not None:
                fate, aux, hold = lossy.fate(seq, sender, dest)
                if fate != "deliver":
                    self._next_seq = seq + 1
                    self._route_lossy(envelope, fate, aux, hold)
                    seq = self._next_seq
                    pos = len(in_flight)
                    continue
            in_flight.append(envelope)
            if by_seq is not None:
                envelope.pos = pos
                by_seq[seq] = envelope
            if per_seq:
                on_submit(seq, EnvelopeView.of(envelope) if wants_view else None)
            if inspect is not None:
                inspect(seq, message, sender)
            seq += 1
            pos += 1
        self._next_seq = seq
        if on_submit is not None and not per_seq:
            # Deferring the bulk call past the destination loop is
            # invisible -- the kernel only consults the scheduler between
            # deliveries, never mid-submit.
            scheduler.on_submit_range(first_seq, seq)

    def _insert_in_flight(self, envelope: Envelope) -> None:
        """Enter ``envelope`` into the scheduler pool.

        The pool bookkeeping + scheduler callbacks of one unicast
        (:meth:`submit_broadcast` inlines the same); a reordered envelope
        joins the pool through here at release time, not submit time.
        """
        seq = envelope.seq
        if self._by_seq is not None:
            envelope.pos = len(self._in_flight)
            self._by_seq[seq] = envelope
        self._in_flight.append(envelope)
        on_submit = self._submit_hook
        if on_submit is not None:
            on_submit(
                seq,
                EnvelopeView.of(envelope) if self._submit_wants_view else None,
            )
        scheduler = self.adversary.scheduler
        if scheduler.content_aware:
            inspect = getattr(scheduler, "inspect_payload", None)
            if inspect is not None:
                inspect(seq, envelope.payload, envelope.sender)

    def note_decision(self, pid: int) -> None:
        self.decided.add(pid)

    # -- corruption ---------------------------------------------------------------

    def corrupt(self, pid: int) -> bool:
        """Corrupt ``pid`` if the budget allows; returns True on success.

        Messages the process already submitted stay in flight untouched
        (no after-the-fact removal, no front-running).
        """
        if pid in self.corrupted or len(self.corrupted) >= self.f:
            return False
        self.corrupted.add(pid)
        if self._subscribers:
            self.events.emit(CorruptEvent(step=self.deliveries, pid=pid))
        self._generators.pop(pid, None)
        self._pending.pop(pid, None)
        self._pending_remaining.pop(pid, None)
        behavior = self.adversary.behavior_factory(pid)
        self._behaviors[pid] = behavior
        ctx = self.contexts[pid]
        if self._started:
            behavior.on_corrupt(ctx)
        return True

    # -- correct-process stepping ----------------------------------------------

    def _advance(self, pid: int, value: Any, first: bool) -> None:
        """Run ``pid``'s generator until it blocks or returns."""
        generator = self._generators[pid]
        send = generator.send
        ctx = self.contexts[pid]
        mailbox = ctx.mailbox
        spins = 0
        wait: Wait | None = None
        while True:
            spins += 1
            if spins > 100_000:
                # A condition that is immediately true on every yield would
                # otherwise livelock the kernel inside a single delivery.
                # `wait` is the previous iteration's Wait -- the one whose
                # condition keeps returning non-None.
                if wait is None:
                    detail = ""
                elif wait.instances is None:
                    detail = (
                        f" (wait {wait.description!r}, subscribed to all "
                        "instances)"
                    )
                else:
                    subscribed = ", ".join(
                        sorted(repr(instance) for instance in wait.instances)
                    )
                    detail = (
                        f" (wait {wait.description!r}, subscribed instances: "
                        f"{subscribed})"
                    )
                raise RuntimeError(
                    f"process {pid} resumed 100000 times without blocking; "
                    "its wait condition is probably unconditionally true"
                    + detail
                )
            try:
                wait = next(generator) if first else send(value)
            except StopIteration as stop:
                self.returns[pid] = stop.value
                self.finished.add(pid)
                self._pending[pid] = None
                del self._generators[pid]
                return
            first = False
            # A condition may already be satisfiable from buffered messages.
            result = wait.condition(mailbox)
            if result is None:
                self._pending[pid] = wait
                min_count = wait.min_count
                if (
                    min_count > 0
                    and wait.instances is not None
                    and not self.eager_wakeups
                ):
                    need = min_count - mailbox.total_for(wait.instances)
                    self._pending_remaining[pid] = need if need > 0 else 0
                else:
                    self._pending_remaining[pid] = 0
                if self._subscribers:
                    self.events.emit(
                        WaitBlockEvent(
                            step=self.deliveries,
                            pid=pid,
                            description=wait.description,
                            subscribed=wait.instances is not None,
                            depth=ctx.depth,
                        )
                    )
                return
            value = result

    def _deliver(self, envelope: Envelope) -> None:
        self.metrics.record_delivery(envelope)
        if self._subscribers:
            payload = envelope.payload
            self.events.emit(
                DeliverEvent(
                    step=self.deliveries,
                    seq=envelope.seq,
                    sender=envelope.sender,
                    dest=envelope.dest,
                    instance=payload.instance,
                    message_kind=type(payload).__name__,
                    words=payload.words(),
                    depth=envelope.depth,
                    sent_step=envelope.sent_step,
                    summary=summarize_payload(payload),
                    payload=payload,
                )
            )
        # The delivery counter advances before the delivery's effects, so
        # sends and decisions triggered by this delivery are stamped with
        # the post-delivery step (events above carry the pre-delivery one).
        self.deliveries += 1
        pid = envelope.dest
        ctx = self.contexts[pid]
        ctx.depth = max(ctx.depth, envelope.depth)
        if pid in self.corrupted:
            self._behaviors[pid].on_deliver(ctx, envelope)
            return
        ctx.mailbox.add(envelope.sender, envelope.payload)
        if ctx.background_handlers:
            for handler in list(ctx.background_handlers):
                handler(ctx.mailbox)
        if pid in self._generators:
            wait = self._pending.get(pid)
            if wait is not None:
                # Instance-keyed wakeup: a condition subscribed to a set of
                # instances provably cannot change its answer on a delivery
                # for any other instance, so skip the re-evaluation.  Below
                # the wait's min_count floor the condition provably cannot
                # fire either (see Wait.min_count); count down instead of
                # evaluating.
                if self.eager_wakeups or wait.instances is None:
                    evaluate = True
                elif envelope.payload.instance in wait.instances:
                    remaining = self._pending_remaining.get(pid, 0)
                    if remaining > 1:
                        self._pending_remaining[pid] = remaining - 1
                        evaluate = False
                    else:
                        if remaining:
                            self._pending_remaining[pid] = 0
                        evaluate = True
                else:
                    evaluate = False
                if evaluate:
                    self.metrics.wait_evaluations += 1
                    result = wait.condition(ctx.mailbox)
                    if result is not None:
                        self._pending[pid] = None
                        if self._subscribers:
                            self.events.emit(
                                WaitWakeEvent(
                                    step=self.deliveries,
                                    pid=pid,
                                    description=wait.description,
                                    depth=ctx.depth,
                                )
                            )
                        self._advance(pid, result, first=False)
                else:
                    self.metrics.wait_skips += 1

    def _remove_in_flight(self, seq: int) -> Envelope:
        """Swap-remove: the last envelope takes the removed one's place."""
        envelope = self._by_seq.pop(seq)
        last = self._in_flight.pop()
        if last is not envelope:
            self._in_flight[envelope.pos] = last
            last.pos = envelope.pos
        return envelope

    def _release_held(self) -> None:
        """Move reordered envelopes whose hold expired into the pool.

        If the pool is empty while messages are still held, the earliest
        is released immediately: a lossy link may delay but cannot
        withhold forever -- only genuine drops can deadlock a run.
        """
        held = self._lossy.held
        while held and held[0][0] <= self.deliveries:
            self._insert_in_flight(heappop(held)[2])
        if not self._in_flight:
            self._insert_in_flight(heappop(held)[2])

    # -- main loop -----------------------------------------------------------------

    def _should_stop(self) -> bool:
        if self.stop_condition is None:
            return False
        return bool(self.stop_condition(self))

    def run(self) -> "Simulation":
        """Execute the run to completion; returns ``self`` for chaining."""
        if self._started:
            raise RuntimeError("a Simulation object runs at most once")
        self._started = True
        verify_base = self.pki.verification_counters()

        for pid in self.adversary.corruption.initial_corruptions(self.n, self.f):
            self.corrupt(pid)

        # Start Byzantine behaviours first: their initial messages being
        # already in flight when correct processes start only strengthens
        # the adversary.
        for pid in sorted(self.corrupted):
            self._behaviors[pid].on_start(self.contexts[pid])
        for pid in range(self.n):
            if pid in self.corrupted:
                continue
            factory = self._factories.get(pid)
            if factory is None:
                raise RuntimeError(f"no protocol installed for process {pid}")
            self._generators[pid] = factory(self.contexts[pid])
            self._pending[pid] = None
        for pid in range(self.n):
            if pid not in self.corrupted:
                self._advance(pid, None, first=True)

        restore_verify = self._install_verify_timers() if self.profile else None
        try:
            if self._reference_loop:
                self._run_reference()
            else:
                self._run_fast()
        finally:
            if restore_verify is not None:
                restore_verify()

        # A run that hits its stop condition on exactly the last permitted
        # delivery terminated normally; only report exhaustion when the
        # budget ran out *without* the condition holding.
        self.exhausted = self.deliveries >= self.max_deliveries and not self._stopped
        self.metrics.record_verification_counters(
            verify_base, self.pki.verification_counters()
        )
        if self._lossy is not None:
            # Surface the link-fault accounting into the run's metrics so
            # RunResult/recordings/reports carry it without reaching back
            # into the simulation object.
            self.metrics.lossy_link = self.lossy_counters
            self.metrics.lossy_by_kind = self.lossy_by_kind
        return self

    def _run_reference(self) -> None:
        """The reference loop: one readable ``choose`` + step per delivery.

        ``delivery_mode="classic"`` selects it so the equivalence tests
        can hold :meth:`_run_fast` against it, and ``profile=True`` uses
        it for the per-delivery ``kernel.schedule``/``kernel.step``
        timers.  Every scheduler is asked through ``choose``, so the
        kernel keeps the seq index here.
        """
        scheduler = self.adversary.scheduler
        corruption = self.adversary.corruption
        corruption_reacts = self._corruption_reacts
        held = self._lossy.held if self._lossy is not None else ()
        profile = self.profile
        perf = time.perf_counter
        while (self._in_flight or held) and self.deliveries < self.max_deliveries:
            if self._should_stop():
                self._stopped = True
                return
            if held:
                self._release_held()
            start = perf()
            seq = scheduler.choose(self._pool)
            chosen = perf()
            if profile:
                self.metrics.add_timing("kernel.schedule", chosen - start)
            envelope = self._remove_in_flight(seq)
            scheduler.on_delivered(seq)
            self._deliver(envelope)
            if profile:
                self.metrics.add_timing("kernel.step", perf() - chosen)
            if corruption_reacts and len(self.corrupted) < self.f:
                view = EnvelopeView.of(envelope)
                for pid in corruption.on_delivery(view, frozenset(self.corrupted)):
                    self.corrupt(pid)
        self._stopped = self._should_stop()

    def _run_fast(self) -> None:
        """The production loop (``delivery_mode="batched"``, the default).

        Per-envelope semantics are identical to :meth:`_run_reference`:
        the stop condition is checked before every delivery, the
        corruption strategy observes every delivery, held (reordered)
        envelopes are released before every choice, and the pending-wait
        gates (instance subscription, min_count countdown) fire per
        envelope -- so event streams, metrics and results are
        byte-identical.  What changes is dispatch.  The next envelope is
        the next seq of a batch the scheduler committed through
        :meth:`~repro.sim.adversary.Scheduler.drain`, or else a batch of
        one: the envelope at ``choose_index(len(pool))`` when the
        scheduler picks by position (no seq index exists then), otherwise
        ``choose(pool)``.  ``_remove_in_flight``/``_deliver``/
        ``Mailbox.add`` are inlined and the kernel's per-delivery
        attribute traffic is hoisted into locals.
        """
        scheduler = self.adversary.scheduler
        corruption = self.adversary.corruption
        # Aliases, not copies: mutations from corrupt()/submit() during the
        # loop stay visible to it.
        in_flight = self._in_flight
        by_seq = self._by_seq
        contexts = self.contexts
        corrupted = self.corrupted
        behaviors = self._behaviors
        generators = self._generators
        pending = self._pending
        remaining_map = self._pending_remaining
        metrics = self.metrics
        subscribers = self._subscribers
        emit = self.events.emit
        eager = self.eager_wakeups
        advance = self._advance
        corruption_reacts = self._corruption_reacts
        max_deliveries = self.max_deliveries
        budget = self.f
        pool = self._pool
        choose = scheduler.choose
        choose_index = scheduler.choose_index if by_seq is None else None
        on_delivered = scheduler.on_delivered
        held = self._lossy.held if self._lossy is not None else ()
        # A hold breaks the drain contract's commitment, so an active lossy
        # config commits no batch; the base drain only ever declines.
        drain = (
            scheduler.drain
            if self._lossy is None and type(scheduler).drain is not Scheduler.drain
            else None
        )
        chosen = -1  # seq to report through on_delivered, -1 for none
        # Monotone stop conditions (see runner.stop_when_all_decided) only
        # change value when decided/finished/corrupted grow; skip the call
        # while that fingerprint is unchanged.  Same stop point, evaluated
        # once per state change instead of once per delivery.  Any other
        # condition is keyed on the delivery counter: asked every time.
        stop_condition = self.stop_condition
        stop_monotone = bool(getattr(stop_condition, "monotone_stop", False))
        decided = self.decided
        finished = self.finished
        stop_fp = -1
        stop_val = False

        while (in_flight or held) and self.deliveries < max_deliveries:
            if stop_condition is not None:
                fp = (
                    len(decided) + len(finished) + len(corrupted)
                    if stop_monotone
                    else self.deliveries
                )
                if fp != stop_fp:
                    stop_fp = fp
                    stop_val = bool(stop_condition(self))
                if stop_val:
                    self._stopped = True
                    return
            if held:
                self._release_held()
            batch = drain and drain(pool, max_deliveries - self.deliveries)
            if batch:
                # Drained seqs already left the scheduler's books: no
                # on_delivered for them.
                self.drain_batches += 1
                chosen = -1
                first_in_batch = True
            else:
                batch = _BATCH_OF_ONE
                if choose_index is not None:
                    position = choose_index(len(in_flight))
                    envelope = in_flight[position]
                else:
                    chosen = choose(pool)
                    envelope = by_seq.pop(chosen)
                    position = envelope.pos
            for seq in batch:
                if seq is not None:
                    if first_in_batch:
                        first_in_batch = False  # the outer loop just checked stop
                    elif stop_condition is not None:
                        fp = (
                            len(decided) + len(finished) + len(corrupted)
                            if stop_monotone
                            else self.deliveries
                        )
                        if fp != stop_fp:
                            stop_fp = fp
                            stop_val = bool(stop_condition(self))
                        if stop_val:
                            self._stopped = True
                            return
                    envelope = by_seq.pop(seq)
                    position = envelope.pos
                    self.batched_deliveries += 1
                # -- _remove_in_flight, inlined (positional picks never read
                # `pos`, so it is kept up only beside a seq index) --
                last = in_flight.pop()
                if last is not envelope:
                    in_flight[position] = last
                    if by_seq is not None:
                        last.pos = position
                if chosen >= 0:
                    on_delivered(chosen)
                # -- _deliver, inlined --
                payload = envelope.payload
                metrics.messages_delivered += 1
                metrics.words_delivered += payload.words()
                payload_instance = payload.instance
                if subscribers:
                    emit(
                        DeliverEvent(
                            step=self.deliveries,
                            seq=envelope.seq,
                            sender=envelope.sender,
                            dest=envelope.dest,
                            instance=payload_instance,
                            message_kind=type(payload).__name__,
                            words=payload.words(),
                            depth=envelope.depth,
                            sent_step=envelope.sent_step,
                            summary=summarize_payload(payload),
                            payload=payload,
                        )
                    )
                self.deliveries += 1
                pid = envelope.dest
                ctx = contexts[pid]
                if ctx.depth < envelope.depth:
                    ctx.depth = envelope.depth
                if pid in corrupted:
                    behaviors[pid].on_deliver(ctx, envelope)
                else:
                    mailbox = ctx.mailbox
                    # -- Mailbox.add, inlined (kernel-owned hot path) --
                    by_instance = mailbox._by_instance
                    stream_list = by_instance.get(payload_instance)
                    if stream_list is None:
                        by_instance[payload_instance] = stream_list = []
                    stream_list.append((envelope.sender, payload))
                    mailbox_counts = mailbox.counts
                    mailbox_counts[payload_instance] = (
                        mailbox_counts.get(payload_instance, 0) + 1
                    )
                    mailbox.total_delivered += 1
                    if ctx.background_handlers:
                        for handler in list(ctx.background_handlers):
                            handler(mailbox)
                    if pid in generators:
                        wait = pending.get(pid)
                        if wait is not None:
                            instances = wait.instances
                            if eager or instances is None:
                                evaluate = True
                            elif payload_instance in instances:
                                remaining = remaining_map.get(pid, 0)
                                if remaining > 1:
                                    remaining_map[pid] = remaining - 1
                                    evaluate = False
                                else:
                                    if remaining:
                                        remaining_map[pid] = 0
                                    evaluate = True
                            else:
                                evaluate = False
                            if evaluate:
                                metrics.wait_evaluations += 1
                                result = wait.condition(mailbox)
                                if result is not None:
                                    pending[pid] = None
                                    if subscribers:
                                        emit(
                                            WaitWakeEvent(
                                                step=self.deliveries,
                                                pid=pid,
                                                description=wait.description,
                                                depth=ctx.depth,
                                            )
                                        )
                                    advance(pid, result, False)
                            else:
                                metrics.wait_skips += 1
                if corruption_reacts and len(corrupted) < budget:
                    view = EnvelopeView.of(envelope)
                    for pid in corruption.on_delivery(view, frozenset(corrupted)):
                        self.corrupt(pid)
        self._stopped = self._should_stop()

    def _install_verify_timers(self) -> Callable[[], None]:
        """Wrap the PKI's verify entry points with wall-clock accumulators.

        Only active under ``profile=True``.  The wrappers are instance
        attributes shadowing the bound methods, so the (possibly shared)
        PKI object is restored by the returned callable as soon as the run
        loop exits.  Verification time is nested inside ``kernel.step``.

        Restoration reinstates the *prior* instance-attribute state (a
        shared PKI may already carry instance-level verify wrappers, e.g.
        from an outer profiled run); a bare ``del`` would destroy them and
        raise if restore ran twice.  The returned callable is idempotent.
        """
        pki = self.pki
        metrics = self.metrics
        perf = time.perf_counter
        original_vrf = pki.vrf_verify
        original_sig = pki.signature_verify
        # Prior *instance* state (distinct from the bound class methods
        # captured above): what restore() must put back.
        missing = object()
        prior_vrf = pki.__dict__.get("vrf_verify", missing)
        prior_sig = pki.__dict__.get("signature_verify", missing)

        def timed_vrf(process_id, alpha, output):
            start = perf()
            try:
                return original_vrf(process_id, alpha, output)
            finally:
                metrics.add_timing("kernel.verify", perf() - start)

        def timed_sig(process_id, message, signature):
            start = perf()
            try:
                return original_sig(process_id, message, signature)
            finally:
                metrics.add_timing("kernel.verify", perf() - start)

        pki.vrf_verify = timed_vrf  # type: ignore[method-assign]
        pki.signature_verify = timed_sig  # type: ignore[method-assign]

        def restore() -> None:
            if prior_vrf is missing:
                pki.__dict__.pop("vrf_verify", None)
            else:
                pki.vrf_verify = prior_vrf  # type: ignore[method-assign]
            if prior_sig is missing:
                pki.__dict__.pop("signature_verify", None)
            else:
                pki.signature_verify = prior_sig  # type: ignore[method-assign]

        return restore

    # -- post-run inspection ----------------------------------------------------

    @property
    def lossy_counters(self) -> dict[str, int]:
        """How often each lossy-link fate fired (all zero when disabled)."""
        if self._lossy is None:
            return {"drops": 0, "duplicates": 0, "reorders": 0, "corruptions": 0}
        return dict(self._lossy.counters)

    @property
    def lossy_by_kind(self) -> dict[str, dict[str, int]]:
        """Lossy fate counters split by message kind (empty when disabled)."""
        state = self._lossy
        if state is None:
            return {}
        return {
            fate: dict(sorted(kinds.items()))
            for fate, kinds in state.by_kind.items()
            if kinds
        }

    @property
    def correct_pids(self) -> list[int]:
        return [pid for pid in range(self.n) if pid not in self.corrupted]

    @property
    def stopped_by_condition(self) -> bool:
        return self._stopped

    @property
    def deadlocked(self) -> bool:
        """True if the run ended with a correct process still blocked."""
        if self._stopped or self.exhausted:
            return False
        return any(pid in self._generators for pid in self.correct_pids)
