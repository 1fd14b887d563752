"""The simulation kernel: reliable links, adversarial delivery, corruption.

One :class:`Simulation` models one run.  The event loop is::

    while in-flight messages remain and the stop condition is unmet:
        seq  <- adversary.scheduler.choose(pool)   # all asynchrony is here
        deliver the copy sent as seq to its destination
        let the corruption strategy react (budget f, no message removal)

Correct processes are generator coroutines (see
:mod:`repro.sim.process`); corrupted ones are driven by
:class:`~repro.sim.byzantine.ByzantineBehavior` hooks.  Reliable links:
nothing is ever dropped -- the adversary only reorders.

The lossy-link *model extension* lives beside the kernel, in
:mod:`repro.sim.lossy`; with no :class:`LossyLinkConfig` -- or an all-zero
one -- the kernel is byte-identical to the reliable model.  Under an
active one the kernel still allocates every seq, emits every
``SendEvent`` and makes every pool insertion; the link layer only says
what each sent copy's fate is and which held copies are due.
"""

from __future__ import annotations

import random
import sys
import time
from array import array
from typing import Any, Callable, Hashable, Sequence

from repro.crypto.pki import PKI
from repro.sim.adversary import Adversary, CorruptionStrategy, Scheduler
from repro.sim.byzantine import ByzantineBehavior
from repro.sim.events import (
    CorruptEvent,
    DeliverEvent,
    EventBus,
    SendEvent,
    WaitBlockEvent,
    WaitWakeEvent,
    summarize_payload,
)
from repro.sim.lossy import LossyLinkConfig, _LossyState, zero_counters
from repro.sim.messages import Envelope, EnvelopeView, Flight, Message, admit
from repro.sim.metrics import MetricsRecorder
from repro.sim.process import ProcessContext, ProtocolFactory, Wait

__all__ = [
    "EmptySchedulerPoolError",
    "LossyLinkConfig",  # re-exported: its home is repro.sim.lossy
    "SchedulerPool",
    "SeqNotInFlightError",
    "Simulation",
]

DEFAULT_MAX_DELIVERIES = 2_000_000

# What the fast loop iterates when the scheduler committed no batch: one
# delivery, its seq already picked (drained batches hold seqs).
_BATCH_OF_ONE = (None,)

# The seq index keeps slots for a window of seqs, and the loop trims its
# dead leading chunks of this many slots once per this many deliveries.
_SEQ_CHUNK = 65_536
_DEAD_CHUNK = array("i", [-1]) * _SEQ_CHUNK


class _RangeBytes:
    """Called with ``first``: the bytes of ``array(typecode, range(first, first + n))``.

    Extending an array from a range converts every value through the
    argument parser (~40 ns each).  A block of n consecutive values is the
    block ``0 .. n-1`` plus ``first`` in every word instead: one bignum
    multiply-add over the block's bytes, ~8 ns a value, and no word
    carries into the next while every value fits the typecode.
    """

    __slots__ = ("_size", "_zero", "_ones")

    def __init__(self, typecode: str, n: int) -> None:
        zero = array(typecode, range(n))
        self._size = zero.itemsize * n
        self._zero = int.from_bytes(zero.tobytes(), sys.byteorder)
        ones = array(typecode, [1]) * n
        self._ones = int.from_bytes(ones.tobytes(), sys.byteorder)

    def __call__(self, first: int) -> bytes:
        return (self._zero + first * self._ones).to_bytes(self._size, sys.byteorder)


def _envelope(seq: int, flight: Flight, dest: int) -> Envelope:
    """The envelope of the copy of ``flight`` sent to ``dest`` as ``seq``."""
    # Positional: keyword construction measurably slows this path.
    return Envelope(
        seq,
        flight.sender,
        dest,
        flight.payload,
        flight.depth,
        flight.sender_correct,
        flight.sent_step,
    )


class EmptySchedulerPoolError(RuntimeError):
    """A scheduler asked the pool for a message while nothing is in flight.

    The kernel never calls ``choose`` on an empty pool, so this means an
    adversary implementation indexed the pool outside ``choose`` (or a
    test drove the pool directly).  Named so adversary authors get a
    diagnosable failure instead of a bare ``randrange(0)`` traceback.
    """


class SeqNotInFlightError(KeyError):
    """A scheduler chose a seq the kernel cannot deliver.

    The seq index is an array: a negative or stale seq would address some
    other message's slot instead of failing, so the loop checks every
    chosen and drained seq and names the scheduler and the cause; so does
    :meth:`SchedulerPool.view`.  ``cause`` is the parenthesised reason on
    its own (``"never submitted"``, ``"already delivered"``, ...).
    """

    def __init__(self, message: str, cause: str) -> None:
        super().__init__(message)
        self.cause = cause

    def __str__(self) -> str:
        return str(self.args[0])  # KeyError would print the repr


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
        return self._simulation._in_flight[index]

    def random_seq(self, rng: random.Random) -> int:
        self._require_messages()
        in_flight = self._simulation._in_flight
        return in_flight[rng.randrange(len(in_flight))]

    def _envelope(self, seq: int) -> Envelope:
        simulation = self._simulation
        position = simulation._position(seq)
        if position < 0:
            raise simulation._not_in_flight(seq)
        return _envelope(
            seq, simulation._flights[position], simulation._dests[position]
        )

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
    scheduler that drains or listens to ``on_submit`` or ``on_delivered``
    deals in seqs, so it keeps the seq-addressed path too (a ``pool.view``
    in its ``on_submit`` would otherwise scan the pool once per seq).
    """
    cls = type(scheduler)
    owner = next((c for c in cls.__mro__ if "choose_index" in vars(c)), None)
    return (
        owner is not None
        and vars(owner).get("choose") is cls.choose
        and "choose" not in getattr(scheduler, "__dict__", ())
        and cls.drain is Scheduler.drain
        and cls.on_submit is Scheduler.on_submit
        and cls.on_delivered is Scheduler.on_delivered
    )


def _timed(call: Callable, add_timing: Callable[[str, float], None]) -> Callable:
    """``call``, with its wall-clock added to ``kernel.schedule``."""
    perf = time.perf_counter

    def timed_call(*args: Any) -> Any:
        start = perf()
        result = call(*args)
        add_timing("kernel.schedule", perf() - start)
        return result

    return timed_call


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
    profile:
        When True, wall-clock totals land in ``metrics.phase_timings``:
        ``kernel.schedule`` (the scheduler's ``choose`` / ``choose_index``
        / ``drain`` calls), ``kernel.step`` (the delivery loop minus
        scheduling), ``kernel.verify`` (scheme time on verify-cache
        misses, nested in the steps) and a ``span.<phase>`` per
        :meth:`~repro.sim.process.ProcessContext.span`.  It selects no
        loop and changes no delivery.  Off by default: wall-clock is the
        one observable that legitimately differs between identical runs.
    lossy:
        Optional :class:`~repro.sim.lossy.LossyLinkConfig` enabling the
        lossy-link model extension.  ``None`` (default) or an all-zero
        config keeps the kernel byte-identical to the reliable model.
        While a config is active the loop releases held (reordered)
        envelopes before each choice and commits no drained batch (a hold
        breaks the drain contract's commitment), so every delivery is a
        batch of one.
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
        profile: bool = False,
        lossy: LossyLinkConfig | None = None,
    ) -> None:
        if pki.n != n:
            raise ValueError("PKI size does not match n")
        if not 0 <= f < n:
            raise ValueError("need 0 <= f < n")
        self.n = n
        self.f = f
        self.pki = pki
        self.adversary = adversary
        self.seed = seed
        self.params = params
        self.max_deliveries = max_deliveries
        self.stop_condition = stop_condition
        self.profile = profile
        # Inactive configs compile to the exact reliable-model code paths:
        # `self._lossy is None` is the only check the hot paths make.
        self._lossy = _LossyState.for_run(lossy, seed, n)
        self.metrics = MetricsRecorder()
        # The kernel event bus.  Emission sites read this list reference
        # directly: `if subscribers:` is the whole no-subscriber cost.
        self.events = EventBus()
        self._subscribers = self.events.subscribers
        self.deliveries = 0
        # Batch accounting, kept out of metrics because it says how the
        # scheduler was asked, not what was delivered (a drained run's
        # metrics equal its one-choose twin's): deliveries that arrived
        # via a drained batch, and the number of batches.
        self.batched_deliveries = 0
        self.drain_batches = 0

        self.contexts = [ProcessContext(pid, self) for pid in range(n)]
        self.corrupted: set[int] = set()
        # Per instance some correct process retired: [seen-bitmap, count]
        # of its distinct correct retirers.  When the count reaches the
        # still-correct processes, the instance's validation-memo shelf
        # goes (`note_retired`); the PKI may outlive the run, so the
        # count lives here.
        self._retirers: dict[Hashable, list] = {}
        self.decided: set[int] = set()
        self.finished: set[int] = set()
        self.returns: dict[int, Any] = {}

        self._behaviors: dict[int, Any] = {}
        # Corrupted pid -> its behaviour's on_deliver, for the behaviours
        # that override the base no-op: a silent or crashed receiver gets
        # no envelope built and no call made.
        self._listeners: dict[int, Callable[[ProcessContext, Envelope], None]] = {}
        self._generators: dict[int, Any] = {}
        self._pending: dict[int, Wait | None] = {}
        # Wake-up countdown per blocked pid: subscribed deliveries still
        # needed before the pending wait can act, loaded from `Wait.need`
        # after each evaluation that returned None (0 = evaluate normally).
        self._pending_remaining = [0] * n
        self._factories: dict[int, ProtocolFactory] = {}

        # The pool is the only place a sent copy lives: three parallel
        # columns, one entry per copy in flight -- its seq (an array, so
        # no boxed int per copy), the flight it belongs to and its
        # destination (one of n shared ints) -- swap-removed together.  A delivered or dropped
        # copy leaves nothing behind; a held (reordered) one waits in
        # `_LossyState.held` with its flight and destination.  Schedulers
        # name messages by seq, so `_pos_at[seq - _pos_base]` holds each
        # seq's position, -1 while it is not in the pool; the loop trims
        # its dead leading chunks (`_compact_seq_index`).  Under a
        # scheduler that picks by position nothing looks a seq up, and
        # `_pos_at` is None: no per-seq state at all.
        scheduler = adversary.scheduler
        self._in_flight = array("q")
        self._flights: list[Flight] = []
        self._dests: list[int] = []
        self._next_seq = 0
        self._pos_at: array | None = (
            None if _picks_by_position(scheduler) else array("i")
        )
        self._pos_base = 0
        # What a broadcast appends to the columns: its runs of seqs and of
        # positions (as bytes) and its destinations, n int objects that
        # every copy shares (a list slot is read, popped and stored at a
        # quarter of an array item's cost, for 4 bytes more per copy).
        self._seq_run = _RangeBytes("q", n)
        self._pos_run = _RangeBytes("i", n)
        self._all_dests = list(range(n))
        self._pool = SchedulerPool(self)
        self._stopped = False
        self._started = False
        # Set again by run(); initialised here so a never-run simulation
        # answers `exhausted`/`deadlocked` instead of raising.
        self.exhausted = False
        # A scheduler that keeps the base no-op on_submit hears of no send.
        if type(scheduler).on_submit is Scheduler.on_submit:
            self._submit_hook = None
        else:
            self._submit_hook = scheduler.on_submit
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
        if not 0 <= pid < self.n:
            raise ValueError(f"invalid process id {pid}")
        self._factories[pid] = factory

    def set_protocol_all(self, factory: ProtocolFactory) -> None:
        for pid in range(self.n):
            self.set_protocol(pid, factory)

    # -- kernel services used by ProcessContext ---------------------------------

    def _allocate(self) -> int:
        """The next seq, for a copy that is not in the pool yet."""
        seq = self._next_seq
        self._next_seq = seq + 1
        if self._pos_at is not None:
            self._pos_at.append(-1)
        return seq

    def _position(self, seq: int) -> int:
        """``seq``'s index in the pool, or -1 if it is not in flight."""
        pos_at = self._pos_at
        if pos_at is None:
            # Positional run: the kernel keeps no seq index, and no
            # positional scheduler looks a seq up during a run -- scan.
            try:
                return self._in_flight.index(seq)
            except ValueError:
                return -1
        index = seq - self._pos_base
        return pos_at[index] if 0 <= index < len(pos_at) else -1

    def submit(self, sender: int, dest: int, message: Message) -> None:
        """Place a message on the link from ``sender`` to ``dest``.

        Links are reliable (the paper's model) unless an active
        :class:`LossyLinkConfig` was installed; then the link applies the
        copy's fate -- a deterministic function of (run seed, seq,
        link config) -- after the sender has paid for the send.
        """
        if not 0 <= dest < self.n:
            raise ValueError(f"invalid destination {dest}")
        self._send(sender, message, (dest,))

    def submit_broadcast(self, sender: int, message: Message) -> None:
        """Submit ``message`` from ``sender`` to every process (self included).

        Observably identical to ``n`` consecutive :meth:`submit` calls in
        destination order -- same seqs, events, metrics, link fates and
        scheduler state.  Broadcast is the protocols' only send primitive,
        so this is the kernel's hottest submission path.
        """
        self._send(sender, message, self._all_dests)

    def _send(self, sender: int, message: Message, dests: Sequence[int]) -> None:
        """Put one message on the links from ``sender`` to each of ``dests``.

        The one way into the network.  The copies take consecutive seqs
        in destination order and share one flight record, and the sender
        pays for all of them here, whatever the links make of them.  On
        reliable links they join the pool as one extend of each column
        and the scheduler hears of them in one ``on_submit(start, stop,
        pool)`` call; under an active lossy config each copy meets its
        fate in turn, and the scheduler hears of each copy that joins the
        pool as it joins.  A corrupted sender's message that ``admit``
        refuses is dropped before all this; a correct one is not checked.
        """
        if not 0 <= sender < self.n:
            # A negative sender would silently index contexts[-1] and stamp
            # the wrong depth/sender_correct; fail like an invalid dest.
            raise ValueError(f"invalid sender {sender}")
        sender_correct = sender not in self.corrupted
        if not sender_correct and not admit(message, self.n):
            return  # outside its kind's declared domain: never sent
        sent_step = self.deliveries
        depth = self.contexts[sender].depth + 1
        flight = Flight(sender, message, depth, sender_correct, sent_step)
        count = len(dests)
        words = flight.words
        kind = type(message).__name__
        metrics = self.metrics
        metrics.words_total += words * count
        metrics.messages_sent_total += count
        if sender_correct:
            metrics.words_correct += words * count
            metrics.messages_sent_correct += count
            metrics.words_by_kind[kind] += words * count
            metrics.messages_by_kind[kind] += count
            metrics.words_by_sender[sender] += words * count
            metrics.messages_by_sender[sender] += count
        emit = self.events.emit if self._subscribers else None
        in_flight = self._in_flight
        flights = self._flights
        dest_column = self._dests
        pos_at = self._pos_at
        on_submit = self._submit_hook
        lossy = self._lossy
        seq = first_seq = self._next_seq
        if lossy is None:
            # The copies differ only in their seq and dest: one extend of
            # each pool column, a broadcast's seqs and positions as bytes
            # (its n copies; a unicast's one copy is appended).
            if count == 1:
                if pos_at is not None:
                    pos_at.append(len(in_flight))
                in_flight.append(seq)
            else:
                if pos_at is not None:
                    pos_at.frombytes(self._pos_run(len(in_flight)))
                in_flight.frombytes(self._seq_run(seq))
            flights.extend([flight] * count)
            dest_column.extend(dests)
            self._next_seq = seq + count
            if emit is not None:
                instance = flight.instance
                for dest in dests:
                    # Positional, in field order (step, seq, sender, dest,
                    # instance, message_kind, words, depth, sender_correct):
                    # keyword arguments make each event ~40% dearer to build.
                    emit(
                        SendEvent(
                            sent_step, seq, sender, dest, instance, kind, words,
                            depth, sender_correct,
                        )
                    )
                    seq += 1
            if on_submit is not None:
                on_submit(first_seq, first_seq + count, self._pool)
            return
        pool = self._pool
        for dest in dests:
            if emit is not None:
                self._emit_send(seq, dest, flight)
            fate, aux, hold = lossy.fate(seq, sender, dest)
            if fate != "deliver":
                if pos_at is not None:
                    pos_at.append(-1)
                self._next_seq = seq + 1
                self._route_lossy(seq, dest, flight, fate, aux, hold)
                seq = self._next_seq  # past a duplicate's twin too
                continue
            if pos_at is not None:
                pos_at.append(len(in_flight))
            in_flight.append(seq)
            flights.append(flight)
            dest_column.append(dest)
            if on_submit is not None:
                on_submit(seq, seq + 1, pool)
            seq += 1
        self._next_seq = seq

    def _emit_send(self, seq: int, dest: int, flight: Flight) -> None:
        self.events.emit(
            SendEvent(
                step=flight.sent_step,
                seq=seq,
                sender=flight.sender,
                dest=dest,
                instance=flight.instance,
                message_kind=type(flight.payload).__name__,
                words=flight.words,
                depth=flight.depth,
                sender_correct=flight.sender_correct,
            )
        )

    def _route_lossy(
        self, seq: int, dest: int, flight: Flight, fate: str, aux: float, hold: int
    ) -> None:
        """Enter into the pool what a lossy link makes of a just-sent copy
        whose fate is not plain delivery.

        A duplicate's twin takes the next seq and shares the flight; it is
        the network's copy: it emits a ``SendEvent`` but is no protocol
        send.  A bit-flipped payload gets a flight of its own in the copy's
        pool slot, so the broadcast's other receivers still see the object
        that was sent; one that ``admit`` refuses is lost like a drop.  A
        dropped copy leaves nothing behind; a held one waits in the link's
        heap.
        """
        copies, corrupted = self._lossy.route(
            seq, flight, dest, fate, aux, hold, self.deliveries
        )
        if corrupted is not None and not admit(corrupted, self.n):
            return  # the flipped field left its kind: nothing arrives
        if copies:
            self._insert_in_flight(
                seq,
                flight if corrupted is None else Flight(
                    flight.sender, corrupted, flight.depth,
                    flight.sender_correct, flight.sent_step,
                ),
                dest,
            )
            if copies == 2:
                twin = self._allocate()
                if self._subscribers:
                    self._emit_send(twin, dest, flight)
                self._insert_in_flight(twin, flight, dest)

    def _insert_in_flight(self, seq: int, flight: Flight, dest: int) -> None:
        """Enter a copy a lossy link let through late or changed into the pool.

        A held copy on release, a duplicate's twin, a bit-flipped copy:
        ``seq`` was allocated when it was sent, and the scheduler hears of
        it now.
        """
        in_flight = self._in_flight
        if self._pos_at is not None:
            self._pos_at[seq - self._pos_base] = len(in_flight)
        in_flight.append(seq)
        self._flights.append(flight)
        self._dests.append(dest)
        if self._submit_hook is not None:
            self._submit_hook(seq, seq + 1, self._pool)

    def note_decision(self, pid: int) -> None:
        self.decided.add(pid)

    def note_retired(self, pid: int, instance: Hashable) -> None:
        """``pid`` retired ``instance``: once every still-correct process
        has, no correct process validates its messages again, so its
        validation-memo shelf is dropped."""
        if pid in self.corrupted:
            return
        tally = self._retirers.get(instance)
        if tally is None:
            tally = self._retirers[instance] = [bytearray(self.n), 0]
        seen = tally[0]
        if seen[pid]:
            return
        seen[pid] = 1
        tally[1] += 1
        if tally[1] == self.n - len(self.corrupted):
            del self._retirers[instance]
            self.pki.drop_validation_memo(instance)

    # -- corruption ---------------------------------------------------------------

    def corrupt(self, pid: int) -> bool:
        """Corrupt ``pid`` if the budget allows; returns True on success.

        Messages the process already submitted stay in flight untouched
        (no after-the-fact removal, no front-running).
        """
        if pid in self.corrupted or len(self.corrupted) >= self.f:
            return False
        self.corrupted.add(pid)
        # A corrupted retirer no longer counts, and one fewer correct
        # process may complete an instance's retirement.
        correct = self.n - len(self.corrupted)
        for instance, tally in list(self._retirers.items()):
            if tally[0][pid]:
                tally[0][pid] = 0
                tally[1] -= 1
            if tally[1] == correct:
                del self._retirers[instance]
                self.pki.drop_validation_memo(instance)
        if self._subscribers:
            self.events.emit(CorruptEvent(step=self.deliveries, pid=pid))
        self._generators.pop(pid, None)
        self._pending.pop(pid, None)
        behavior = self.adversary.behavior_factory(pid)
        self._behaviors[pid] = behavior
        on_deliver = behavior.on_deliver
        if getattr(on_deliver, "__func__", None) is not ByzantineBehavior.on_deliver:
            self._listeners[pid] = on_deliver
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
                self._pending_remaining[pid] = wait.need
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

    def _compact_seq_index(self) -> None:
        """Drop the seq index's chunks below the low-water mark.

        The mark is the lowest seq still in the pool or held by a lossy
        link.  Below it every slot is -1, so the dead chunks are exactly
        the leading ones equal to a chunk of -1s (below the lowest held
        seq): a memory compare each, not a scan of the pool.
        """
        pos_at = self._pos_at
        limit = self._next_seq
        if self._lossy is not None and self._lossy.held:
            limit = min(limit, min(entry[1] for entry in self._lossy.held))
        dead = 0
        while (
            self._pos_base + dead + _SEQ_CHUNK <= limit
            and pos_at[dead:dead + _SEQ_CHUNK] == _DEAD_CHUNK
        ):
            dead += _SEQ_CHUNK
        if dead:
            del pos_at[:dead]
            self._pos_base += dead

    def _not_in_flight(self, seq: int) -> SeqNotInFlightError:
        """The error for a scheduler that chose ``seq``, naming why it cannot go.

        The kernel keeps no history of delivered or dropped seqs, so under
        an active lossy config it cannot tell those two apart.
        """
        if not 0 <= seq < self._next_seq:
            cause = "never submitted"
        elif self._lossy is None:
            cause = "already delivered"
        elif any(entry[1] == seq for entry in self._lossy.held):
            cause = "held by a lossy link"
        else:
            cause = "already delivered or dropped by a lossy link"
        scheduler = type(self.adversary.scheduler).__name__
        return SeqNotInFlightError(
            f"scheduler {scheduler} chose seq {seq}, which is not in flight "
            f"({cause})",
            cause,
        )

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
        try:
            self._execute()
        finally:
            # The PKI may serve another run (a ledger reuses one): it keeps
            # no validation-memo shelf of this one.
            self.pki.clear_validation_memo()
        return self

    def _execute(self) -> None:
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

        if self.profile:
            # Scheduling and verification both accrue inside the loop, so
            # step = loop - schedule, and verify stays nested in step.
            add_timing = self.metrics.add_timing
            verify_before = self.pki.verify_seconds
            start = time.perf_counter()
            self._run_fast()
            elapsed = time.perf_counter() - start
            scheduling = self.metrics.phase_timings.get("kernel.schedule", 0.0)
            add_timing("kernel.step", elapsed - scheduling)
            add_timing("kernel.verify", self.pki.verify_seconds - verify_before)
        else:
            self._run_fast()

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
            self.metrics.lossy_by_kind = self._lossy.kinds_hit()

    def _run_fast(self) -> None:
        """The delivery loop: every run takes it, one delivery per turn.

        Before each delivery the stop condition is checked and held
        (reordered) seqs are released.  After it the corruption strategy
        observes the delivery, and the receiver's pending wait is
        re-evaluated unless its gates (instance subscription, the
        countdown its last ``Wait.need`` loaded) prove the evaluation a
        no-op.  The next delivery is the
        next seq of a batch the scheduler committed through
        :meth:`~repro.sim.adversary.Scheduler.drain`, or else a batch of
        one: the seq at ``choose_index(len(pool))`` when the scheduler
        picks by position (no ``_pos_at`` exists then), otherwise
        ``choose(pool)``.  The drain and ``choose_index`` contracts make
        all three deliver what one ``choose`` per delivery would.  The
        pool's swap-remove, the delivery and ``Mailbox.add`` are inlined,
        the per-delivery attribute traffic is hoisted into locals
        (``_pos_base`` too, refreshed after each compaction of the seq
        index), and an :class:`Envelope` is built only for a corrupted
        receiver whose behaviour overrides ``on_deliver`` or for a
        reacting corruption strategy.
        """
        scheduler = self.adversary.scheduler
        corruption = self.adversary.corruption
        # Aliases, not copies: mutations from corrupt()/submit() during the
        # loop stay visible to it.
        in_flight = self._in_flight
        flights = self._flights
        dests = self._dests
        pos_at = self._pos_at
        pos_base = self._pos_base
        contexts = self.contexts
        corrupted = self.corrupted
        listeners = self._listeners
        pending = self._pending
        remaining_map = self._pending_remaining
        metrics = self.metrics
        subscribers = self._subscribers
        emit = self.events.emit
        advance = self._advance
        corruption_reacts = self._corruption_reacts
        max_deliveries = self.max_deliveries
        # One comparison per turn guards the delivery budget and the next
        # compaction of the seq index (which a positional run never has).
        check_at = (
            max_deliveries if pos_at is None else min(_SEQ_CHUNK, max_deliveries)
        )
        budget = self.f
        pool = self._pool
        choose = scheduler.choose
        choose_index = scheduler.choose_index if pos_at is None else None
        on_delivered = scheduler.on_delivered
        lossy = self._lossy
        held = lossy.held if lossy is not None else ()
        due = lossy.due if lossy is not None else None
        insert = self._insert_in_flight
        # A hold breaks the drain contract's commitment, so an active lossy
        # config commits no batch; the base drain only ever declines.
        drain = (
            scheduler.drain
            if lossy is None and type(scheduler).drain is not Scheduler.drain
            else None
        )
        if self.profile:
            # Timed twins bound once, before the loop: an unprofiled run
            # pays for no timer, not even a branch per delivery.
            add_timing = metrics.add_timing
            add_timing("kernel.schedule", 0.0)  # present even if nothing is scheduled
            choose = _timed(choose, add_timing)
            choose_index = choose_index and _timed(choose_index, add_timing)
            drain = drain and _timed(drain, add_timing)
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

        while in_flight or held:
            if self.deliveries >= check_at:
                if self.deliveries >= max_deliveries:
                    break
                self._compact_seq_index()
                pos_base = self._pos_base
                check_at = min(self.deliveries + _SEQ_CHUNK, max_deliveries)
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
                for _, seq, flight, dest in due(self.deliveries, not in_flight):
                    insert(seq, flight, dest)
            batch = drain and drain(pool, max_deliveries - self.deliveries)
            if batch:
                # Drained seqs already left the scheduler's books: no
                # on_delivered for them.  They are counted up front, and a
                # batch the run abandons is uncounted where it stops.
                self.drain_batches += 1
                self.batched_deliveries += len(batch)
                batch_end = self.deliveries + len(batch)
                chosen = -1
            else:
                batch = _BATCH_OF_ONE
                if choose_index is not None:
                    position = choose_index(len(in_flight))
                    picked = in_flight[position]
                else:
                    picked = chosen = choose(pool)
                    index = picked - pos_base
                    try:
                        position = pos_at[index] if index >= 0 else -1
                    except IndexError:
                        position = -1
                    if position < 0:
                        raise self._not_in_flight(picked)
            for seq in batch:
                if seq is None:
                    seq = picked
                else:
                    # Before the batch's first seq this repeats the outer
                    # loop's fingerprint: no second call.
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
                            self.batched_deliveries -= batch_end - self.deliveries
                            self._stopped = True
                            return
                    index = seq - pos_base
                    try:
                        position = pos_at[index] if index >= 0 else -1
                    except IndexError:
                        position = -1
                    if position < 0:
                        self.batched_deliveries -= batch_end - self.deliveries
                        raise self._not_in_flight(seq)
                # -- swap-remove: the last copy fills the hole
                # (positional picks keep no `pos_at`) --
                last = in_flight.pop()
                if last != seq:
                    in_flight[position] = last
                    flight = flights[position]
                    flights[position] = flights.pop()
                    pid = dests[position]
                    dests[position] = dests.pop()
                    if pos_at is not None:
                        pos_at[last - pos_base] = position
                else:
                    flight = flights.pop()
                    pid = dests.pop()
                if pos_at is not None:
                    pos_at[index] = -1
                if chosen >= 0:
                    on_delivered(chosen)
                # -- the delivery --
                metrics.messages_delivered += 1
                metrics.words_delivered += flight.words
                payload_instance = flight.instance
                if subscribers:
                    summary = flight.summary
                    if summary is None:
                        summary = flight.summary = summarize_payload(
                            flight.payload
                        )
                    # Positional, in field order (step, seq, sender, dest,
                    # instance, message_kind, words, depth, sent_step,
                    # summary): keyword arguments make each event ~40%
                    # dearer to build.
                    emit(
                        DeliverEvent(
                            self.deliveries, seq, flight.sender, pid,
                            payload_instance, summary.kind, summary.words,
                            flight.depth, flight.sent_step, summary,
                        )
                    )
                self.deliveries += 1
                ctx = contexts[pid]
                depth = flight.depth
                if ctx.depth < depth:
                    ctx.depth = depth
                if pid in corrupted:
                    on_deliver = listeners.get(pid)
                    if on_deliver is not None:
                        on_deliver(ctx, _envelope(seq, flight, pid))
                else:
                    mailbox = ctx.mailbox
                    # -- Mailbox.add, inlined (kernel-owned hot path); every
                    # receiver of a send appends the flight's one tuple --
                    by_instance = mailbox._by_instance
                    stream_list = by_instance.get(payload_instance)
                    if stream_list is None:
                        by_instance[payload_instance] = stream_list = []
                    stream_list.append(flight.entry)
                    if ctx.background_handlers:
                        handler = ctx.background_handlers.get(payload_instance)
                        if handler is not None:
                            handler(mailbox)
                    wait = pending[pid]  # every correct pid has an entry
                    if wait is not None:
                        instances = wait.instances
                        if instances is None:
                            evaluate = True
                        elif payload_instance in instances:
                            remaining = remaining_map[pid]
                            if remaining > 1:
                                remaining_map[pid] = remaining - 1
                                evaluate = False
                            else:
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
                                remaining_map[pid] = wait.need
                        else:
                            metrics.wait_skips += 1
                if corruption_reacts and len(corrupted) < budget:
                    view = EnvelopeView.of(_envelope(seq, flight, pid))
                    for pid in corruption.on_delivery(view, frozenset(corrupted)):
                        self.corrupt(pid)
        self._stopped = self._should_stop()

    # -- post-run inspection ----------------------------------------------------

    @property
    def lossy_counters(self) -> dict[str, int]:
        """How often each lossy-link fate fired (all zero when disabled)."""
        return zero_counters() if self._lossy is None else dict(self._lossy.counters)

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
