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

The lossy-link *model extension* lives beside the kernel, in
:mod:`repro.sim.lossy`; with no :class:`LossyLinkConfig` -- or an all-zero
one -- the kernel is byte-identical to the reliable model.  Under an
active one the kernel still allocates every seq, emits every
``SendEvent`` and makes every pool insertion; the link layer only says
what each envelope's fate is and which held envelopes are due.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable

from repro.crypto.pki import PKI
from repro.sim.adversary import Adversary, CorruptionStrategy, Scheduler
from repro.sim.events import (
    CorruptEvent,
    DeliverEvent,
    EventBus,
    SendEvent,
    WaitBlockEvent,
    WaitWakeEvent,
)
from repro.sim.lossy import LossyLinkConfig, _LossyState, zero_counters
from repro.sim.messages import Envelope, EnvelopeView, Message
from repro.sim.metrics import MetricsRecorder
from repro.sim.process import ProcessContext, ProtocolFactory, Wait

__all__ = [
    "EmptySchedulerPoolError",
    "LossyLinkConfig",  # re-exported: its home is repro.sim.lossy
    "SchedulerPool",
    "Simulation",
]

DEFAULT_MAX_DELIVERIES = 2_000_000

# What the fast loop iterates when the scheduler committed no batch: one
# delivery, its envelope already picked (drained batches hold seqs).
_BATCH_OF_ONE = (None,)


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
        While a config is active both loops release held (reordered)
        envelopes before each choice, and the fast loop commits no
        drained batch (a hold breaks the drain contract's commitment), so
        every delivery is a batch of one.
    eager_wakeups, delivery_mode:
        Reference switches for the equivalence tests only (absent from
        :func:`~repro.sim.runner.run_protocol`).  ``eager_wakeups=True``
        ignores ``Wait.instances`` subscriptions and re-evaluates every
        pending condition after every delivery; ``delivery_mode="classic"``
        runs :meth:`_run_reference` instead of the default ``"batched"``
        :meth:`_run_fast`.  Either way the run is observably identical
        (delivery order, RNG stream, events, metrics): the tests' claim.
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
        # Inactive configs compile to the exact reliable-model code paths:
        # `self._lossy is None` is the only check the hot paths make.
        self._lossy = _LossyState.for_run(lossy, seed, n)
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
        positional = delivery_mode == "batched" and _picks_by_position(scheduler)
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
        if not 0 <= pid < self.n:
            raise ValueError(f"invalid process id {pid}")
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
        """Enter into the pool what a lossy link makes of a just-sent envelope.

        Shared by :meth:`submit` and :meth:`submit_broadcast`;
        ``self._next_seq`` must already be past ``envelope.seq``, because a
        duplicate's twin takes the next seq.  The twin is the network's
        copy: it emits a ``SendEvent`` but is no protocol send.
        """
        copies = self._lossy.route(envelope, fate, aux, hold, self.deliveries)
        if copies:
            self._insert_in_flight(envelope)
            if copies == 2:
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
            summary = self.events.summary_of(payload)
            self.events.emit(
                DeliverEvent(
                    step=self.deliveries,
                    seq=envelope.seq,
                    sender=envelope.sender,
                    dest=envelope.dest,
                    instance=payload.instance,
                    message_kind=summary.kind,
                    words=summary.words,
                    depth=envelope.depth,
                    sent_step=envelope.sent_step,
                    summary=summary,
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

        classic = self.delivery_mode == "classic"
        loop = self._run_reference if classic else self._run_fast
        if self.profile:
            # Scheduling and verification both accrue inside the loop, so
            # step = loop - schedule, and verify stays nested in step.
            add_timing = self.metrics.add_timing
            verify_before = self.pki.verify_seconds
            start = time.perf_counter()
            loop()
            elapsed = time.perf_counter() - start
            scheduling = self.metrics.phase_timings.get("kernel.schedule", 0.0)
            add_timing("kernel.step", elapsed - scheduling)
            add_timing("kernel.verify", self.pki.verify_seconds - verify_before)
        else:
            loop()

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
        return self

    def _run_reference(self) -> None:
        """The reference loop: one readable ``choose`` + step per delivery.

        ``delivery_mode="classic"`` selects it, and only the equivalence
        tests do, to hold :meth:`_run_fast` against it.  Every scheduler
        is asked through ``choose``, so the kernel keeps the seq index
        here.  It carries no timers: under ``profile=True`` its whole
        duration is ``kernel.step``.
        """
        scheduler = self.adversary.scheduler
        corruption = self.adversary.corruption
        corruption_reacts = self._corruption_reacts
        held = self._lossy.held if self._lossy is not None else ()
        while (self._in_flight or held) and self.deliveries < self.max_deliveries:
            if self._should_stop():
                self._stopped = True
                return
            if held:
                for envelope in self._lossy.due(self.deliveries, not self._in_flight):
                    self._insert_in_flight(envelope)
            seq = scheduler.choose(self._pool)
            envelope = self._remove_in_flight(seq)
            scheduler.on_delivered(seq)
            self._deliver(envelope)
            if corruption_reacts and len(self.corrupted) < self.f:
                view = EnvelopeView.of(envelope)
                for pid in corruption.on_delivery(view, frozenset(self.corrupted)):
                    self.corrupt(pid)
        self._stopped = self._should_stop()

    def _run_fast(self) -> None:
        """The loop every run takes (``delivery_mode="batched"``, the default).

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
                for envelope in due(self.deliveries, not in_flight):
                    insert(envelope)
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
                    summary = self.events.summary_of(payload)
                    emit(
                        DeliverEvent(
                            step=self.deliveries,
                            seq=envelope.seq,
                            sender=envelope.sender,
                            dest=envelope.dest,
                            instance=payload_instance,
                            message_kind=summary.kind,
                            words=summary.words,
                            depth=envelope.depth,
                            sent_step=envelope.sent_step,
                            summary=summary,
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
