"""The adversary: message scheduling plus adaptive corruption.

All asynchrony in the simulator is adversarial -- the scheduler picks which
in-flight message is delivered next.  The delayed-adaptive restriction of
Definition 2.1 (contents of a concurrent correct message may not influence
scheduling) is enforced *mechanically*: content-oblivious schedulers only
ever see :class:`~repro.sim.messages.EnvelopeView` metadata.  They are
strictly weaker than the definition allows, which preserves the paper's
guarantees; :class:`ContentAwareMinWithholdScheduler` is deliberately
*stronger* than allowed and exists solely for the E6 ablation that shows
why the restriction is necessary.

Corruption strategies decide *who* gets corrupted and *when*; the kernel
enforces the budget of ``f`` corruptions and the no-front-running rule
(messages already submitted by a process before its corruption are
delivered unchanged).
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.sim.byzantine import ByzantineBehavior, SilentBehavior
from repro.sim.messages import EnvelopeView

if TYPE_CHECKING:
    from repro.sim.network import SchedulerPool

__all__ = [
    "AdaptiveFirstSpeakersCorruption",
    "CommitteeTargetingCorruption",
    "Adversary",
    "ContentAwareMinWithholdScheduler",
    "CorruptionStrategy",
    "DelayBoundedScheduler",
    "FIFOScheduler",
    "PartitionScheduler",
    "RandomScheduler",
    "ReplayScheduler",
    "Schedule",
    "Scheduler",
    "ScriptedScheduler",
    "StaticCorruption",
    "TargetedDelayScheduler",
]


class _IndexedSet:
    """A set supporting O(1) add/discard and O(1) uniform random choice."""

    def __init__(self) -> None:
        self._items: list[int] = []
        self._positions: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: int) -> bool:
        return item in self._positions

    def add(self, item: int) -> None:
        if item not in self._positions:
            self._positions[item] = len(self._items)
            self._items.append(item)

    def discard(self, item: int) -> None:
        position = self._positions.pop(item, None)
        if position is None:
            return
        last = self._items.pop()
        if position < len(self._items):
            self._items[position] = last
            self._positions[last] = position

    def choose(self, rng: random.Random) -> int:
        return self._items[rng.randrange(len(self._items))]


class Scheduler:
    """Chooses the next message to deliver.

    Six members may be overridden: ``content_aware``, :meth:`on_submit`,
    :meth:`on_delivered`, :meth:`choose`, ``choose_index`` and
    :meth:`drain`.  A scheduler learns about a message only from the
    ``pool`` it is handed: :meth:`SchedulerPool.view` gives its metadata,
    and :meth:`SchedulerPool.payload` its contents -- refused unless the
    scheduler declared ``content_aware``, so a scheduler cannot
    *accidentally* break the delayed-adaptive model.

    A scheduler whose ``choose`` only ever picks a pool *position* may
    also define ``choose_index(size) -> int`` next to it, promising
    ``choose(pool) == pool.seq_at(self.choose_index(len(pool)))`` with
    the same side effects (RNG draws).  The kernel's fast loop then calls
    ``choose_index`` instead and builds no seq index.  A subclass that
    overrides ``choose`` without ``choose_index`` voids the promise: the
    kernel goes back to calling ``choose``.
    """

    content_aware = False

    def on_submit(self, start: int, stop: int, pool: "SchedulerPool") -> None:
        """Hook: seqs ``start..stop-1`` entered the pool, in order.

        Called once per send (a unicast's one copy, a broadcast's ``n``),
        or, while a lossy link is active, once per copy that enters the
        pool, whenever it does (a held copy on release, a duplicate's
        twin).  Every seq of the range is in ``pool`` for the call.  A
        hook must leave the scheduler as the calls for ``start..mid`` and
        ``mid..stop`` would, for any ``mid`` (RNG draws in seq order
        included), so that it does not matter how many calls announce a
        run of seqs.  The base hook does nothing, and the kernel then
        makes no call at all.
        """

    def on_delivered(self, seq: int) -> None:
        """Hook: a message left the network."""

    def choose(self, pool: "SchedulerPool") -> int:
        """Return the ``seq`` of the message to deliver next."""
        raise NotImplementedError

    def drain(self, pool: "SchedulerPool", limit: int) -> Sequence[int] | None:
        """Return a batch of seqs committed for delivery, oldest first.

        The batched-kernel contract: the batch -- any sequence of seqs
        (a list, a range, ...) -- must be **exactly** a prefix of the
        sequence of seqs that ``limit`` consecutive
        ``choose``/``on_delivered`` cycles would have produced, *no matter
        what messages are submitted between those deliveries*.  Any
        non-empty prefix will do; the kernel asks again for the next
        batch.  A scheduler can only promise that when its future choices
        are insensitive to future submissions over the batch -- FIFO (new
        seqs sort after every drained seq) and bounded-delay schedules
        (ranks of future submissions are bounded below) qualify; a
        uniformly random scheduler does not, because each submission
        reweights every subsequent draw.

        Drained seqs leave the scheduler's bookkeeping immediately: the
        kernel does **not** call :meth:`on_delivered` for them.  The kernel
        delivers the batch as a prefix -- it abandons the remainder only
        when the run terminates mid-batch (stop condition or delivery
        budget), in which case the scheduler is never consulted again.

        Return ``None`` (the default) to decline; the kernel then delivers
        a batch of one, picked through ``choose`` (or ``choose_index``).
        """
        return None


class RandomScheduler(Scheduler):
    """Uniformly random delivery order -- the baseline oblivious adversary."""

    def __init__(self, rng: random.Random | None = None) -> None:
        self.rng = rng or random.Random()

    @property
    def rng(self) -> random.Random:
        return self._rng

    @rng.setter
    def rng(self, rng: random.Random) -> None:
        self._rng = rng
        # randrange(size) is rng._randbelow(size); while that is the stock
        # getrandbits rejection loop, choose_index runs the loop itself.
        stock = (
            getattr(type(rng), "_randbelow", None) is random.Random._randbelow
            and type(rng).randrange is random.Random.randrange
        )
        self._getrandbits = rng.getrandbits if stock else None

    def __getstate__(self) -> dict:
        # A copy binds its draws to its own rng, not to the original's.
        state = self.__dict__.copy()
        del state["_getrandbits"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.rng = self._rng

    def choose(self, pool: "SchedulerPool") -> int:
        return pool.random_seq(self.rng)

    def choose_index(self, size: int) -> int:
        # The draw pool.random_seq makes: same pick, same RNG stream --
        # randrange's own loop (Random._randbelow_with_getrandbits),
        # without its argument checks and two calls per draw.
        getrandbits = self._getrandbits
        if getrandbits is None or size <= 0:
            return self._rng.randrange(size)
        bits = size.bit_length()
        index = getrandbits(bits)
        while index >= size:
            index = getrandbits(bits)
        return index


class FIFOScheduler(Scheduler):
    """Delivers messages in submission order (a synchronous-looking run).

    Useful as a best-case debugging schedule; it is of course also a legal
    asynchronous adversary.  Supports batched drain: seqs are assigned
    monotonically, so every message submitted *during* a batch sorts after
    every message drained *into* it -- consecutive ``choose`` calls would
    return exactly the drained prefix.
    """

    def __init__(self) -> None:
        # The kernel assigns seqs monotonically, so submission order IS
        # ascending seq order: a deque of non-empty seq ranges, one per
        # broadcast (or unicast), holds the queue without an int per copy.
        self._queue: deque[range] = deque()
        self._delivered: set[int] = set()

    def on_submit(self, start: int, stop: int, pool: "SchedulerPool") -> None:
        if start < stop:
            self._queue.append(range(start, stop))

    # Pre-``on_submit(start, stop, pool)`` names, kept only because
    # benchmarks/perf/test_perf_smoke.py still reads them and that
    # directory changes only with the benchmark.  The kernel reads
    # neither; delete both when that test is ported.
    wants_view = False

    def on_submit_range(self, start: int, stop: int) -> None:
        FIFOScheduler.on_submit(self, start, stop, None)

    def on_delivered(self, seq: int) -> None:
        self._delivered.add(seq)

    def choose(self, pool: "SchedulerPool") -> int:
        queue = self._queue
        delivered = self._delivered
        while queue and queue[0].start in delivered:
            head = queue.popleft()
            delivered.discard(head.start)
            if len(head) > 1:
                queue.appendleft(head[1:])
        return queue[0].start

    def drain(self, pool: "SchedulerPool", limit: int) -> list[int] | None:
        """The head range, capped at ``limit`` (delivered seqs skipped)."""
        queue = self._queue
        delivered = self._delivered
        while queue:
            head = queue.popleft()
            if not delivered:
                if len(head) > limit:
                    queue.appendleft(head[limit:])
                    head = head[:limit]
                return list(head)  # not the range: callers compare batches with lists
            batch: list[int] = []
            for index, seq in enumerate(head):
                if seq in delivered:
                    delivered.discard(seq)
                elif len(batch) < limit:
                    batch.append(seq)
                else:
                    queue.appendleft(head[index:])
                    break
            if batch:
                return batch
        return None


class DelayBoundedScheduler(Scheduler):
    """Random reordering with a bounded per-message delay.

    Each submission draws an integer jitter in ``[0, max_delay]`` and is
    delivered in order of ``rank = seq + jitter`` (ties by seq) -- every
    message overtakes at most ``max_delay`` later submissions, the classic
    bounded-asynchrony schedule.  ``max_delay=0`` degenerates to FIFO.

    Supports batched drain: a message submitted in the future has
    ``rank >= next unseen seq``, so every in-flight entry ranked below
    that bound is already committed -- no future submission can preempt
    it.  That makes this the canonical *randomised* schedule the batched
    kernel can exploit at n>=1000.
    """

    def __init__(self, max_delay: int = 64, rng: random.Random | None = None) -> None:
        if max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        self.max_delay = max_delay
        self.rng = rng or random.Random()
        self._heap: list[tuple[int, int]] = []
        self._delivered: set[int] = set()
        self._next_seq_bound = 0

    def on_submit(self, start: int, stop: int, pool: "SchedulerPool") -> None:
        # One jitter draw per seq, in seq order.
        if stop > self._next_seq_bound:
            self._next_seq_bound = stop
        heap = self._heap
        push = heapq.heappush
        randint = self.rng.randint
        max_delay = self.max_delay
        for seq in range(start, stop):
            push(heap, (seq + randint(0, max_delay), seq))

    def on_delivered(self, seq: int) -> None:
        self._delivered.add(seq)

    def choose(self, pool: "SchedulerPool") -> int:
        while self._heap and self._heap[0][1] in self._delivered:
            self._delivered.discard(heapq.heappop(self._heap)[1])
        return self._heap[0][1]

    def drain(self, pool: "SchedulerPool", limit: int) -> list[int] | None:
        heap = self._heap
        delivered = self._delivered
        bound = self._next_seq_bound
        pop = heapq.heappop
        batch: list[int] = []
        while heap and len(batch) < limit and heap[0][0] < bound:
            seq = pop(heap)[1]
            if seq in delivered:
                delivered.discard(seq)
            else:
                batch.append(seq)
        return batch or None


class TargetedDelayScheduler(Scheduler):
    """Starves a fixed set of processes: messages to or from the targets are
    delivered only when nothing else is in flight.

    Target selection is content-oblivious (by pid), so this is a legal
    delayed-adaptive adversary; it stresses quorum liveness by simulating
    very slow links around the targets.
    """

    def __init__(self, targets: Iterable[int], rng: random.Random | None = None) -> None:
        self.targets = frozenset(targets)
        self.rng = rng or random.Random()
        self._normal = _IndexedSet()
        self._delayed = _IndexedSet()

    def on_submit(self, start: int, stop: int, pool: "SchedulerPool") -> None:
        targets = self.targets
        for seq in range(start, stop):
            view = pool.view(seq)
            if view.sender in targets or view.dest in targets:
                self._delayed.add(seq)
            else:
                self._normal.add(seq)

    def on_delivered(self, seq: int) -> None:
        self._normal.discard(seq)
        self._delayed.discard(seq)

    def choose(self, pool: "SchedulerPool") -> int:
        bucket = self._normal if len(self._normal) else self._delayed
        return bucket.choose(self.rng)


class ScriptedScheduler(Scheduler):
    """Delivery order driven by an explicit choice sequence.

    ``choices[i] mod |pool|`` indexes the in-flight set at step i; when
    the script runs out, a deterministic fallback (index 0) applies.
    Content-oblivious and therefore a legal delayed-adaptive adversary.

    Built for property-based testing: hypothesis supplies the choice list
    and *shrinks it* on failure, turning "some schedule breaks the
    protocol" into a minimal counterexample schedule.  To re-execute a
    recorded run, use :class:`ReplayScheduler`.
    """

    def __init__(self, choices: Iterable[int] = ()) -> None:
        self._choices = list(choices)
        self._position = 0

    def choose(self, pool: "SchedulerPool") -> int:
        if self._position < len(self._choices):
            index = self._choices[self._position] % len(pool)
            self._position += 1
        else:
            index = 0
        return pool.seq_at(index)


# A recorded run's deliveries in order, as ``(seq, sender, dest)`` triples.
Schedule = tuple[tuple[int, int, int], ...]


class ReplayScheduler(Scheduler):
    """Re-executes a recorded schedule exactly.

    ``schedule`` is a previous run's deliveries as ``(seq, sender, dest)``
    triples, in order (:meth:`repro.sim.flightrecorder.FlightRecorder.schedule`,
    or a loaded recording's), and step i delivers the i-th seq.  Valid
    only when the replayed run is identical up to scheduling (same
    protocol code, keys and seed), and then the replay reproduces the
    original event log bit for bit.  Anything else raises
    ``RuntimeError`` naming the step, the seq and the cause: the seq is
    not in flight (never submitted, already delivered, or held by a lossy
    link), it is in flight on another link, or the schedule ran out.

    The scheduler keeps a cursor and nothing else; it asks the pool about
    the one seq it is about to deliver, so it needs no submission hook
    and replayed broadcasts take the kernel's bulk path.
    """

    def __init__(self, schedule: Iterable[tuple[int, int, int]]) -> None:
        self._schedule = list(schedule)
        self._position = 0

    def choose(self, pool: "SchedulerPool") -> int:
        step = self._position
        if step >= len(self._schedule):
            raise RuntimeError(
                "replay schedule exhausted but messages remain in flight; "
                "the run being replayed diverged from the recording"
            )
        seq, sender, dest = self._schedule[step]
        expected = f"replay step {step} expects seq {seq} on link {(sender, dest)}"
        try:
            view = pool.view(seq)
        except KeyError as exc:
            raise RuntimeError(
                f"{expected}, but it is not in flight ({exc.cause}); the run "
                "diverged from the recording"
            ) from None
        if view.sender != sender or view.dest != dest:
            raise RuntimeError(
                f"{expected}, but it is in flight on link "
                f"{(view.sender, view.dest)}; the run diverged from the recording"
            )
        self._position = step + 1
        return seq


class PartitionScheduler(Scheduler):
    """Temporarily partitions the network into two halves.

    Messages crossing the cut are withheld until ``heal_after`` intra-
    partition deliveries have happened, then everything mixes randomly.
    A legal delayed-adaptive adversary (the cut is chosen by pid, and
    nothing is ever dropped): asynchronous protocols must tolerate any
    finite partition, which is exactly what the liveness tests use this
    for.  Note a partition smaller than a quorum simply stalls until the
    heal -- that is the expected behaviour, not a bug.
    """

    def __init__(
        self,
        group_a: Iterable[int],
        heal_after: int,
        rng: random.Random | None = None,
    ) -> None:
        self.group_a = frozenset(group_a)
        self.heal_after = heal_after
        self.rng = rng or random.Random()
        self._delivered = 0
        self._intra = _IndexedSet()
        self._cross = _IndexedSet()

    @property
    def healed(self) -> bool:
        return self._delivered >= self.heal_after

    def on_submit(self, start: int, stop: int, pool: "SchedulerPool") -> None:
        group_a = self.group_a
        for seq in range(start, stop):
            view = pool.view(seq)
            crosses = (view.sender in group_a) != (view.dest in group_a)
            if crosses and not self.healed:
                self._cross.add(seq)
            else:
                self._intra.add(seq)

    def on_delivered(self, seq: int) -> None:
        self._delivered += 1
        self._intra.discard(seq)
        self._cross.discard(seq)

    def _merge_after_heal(self) -> None:
        # Messages withheld during the partition must rejoin the common
        # pool, otherwise a protocol that keeps generating traffic (BA
        # loops rounds forever) would starve them indefinitely -- a
        # reliable-link violation in effect.
        for seq in list(self._cross._items):
            self._cross.discard(seq)
            self._intra.add(seq)

    def choose(self, pool: "SchedulerPool") -> int:
        if self.healed:
            if len(self._cross):
                self._merge_after_heal()
            return self._intra.choose(self.rng)
        if not len(self._intra):
            # A side has drained: deliver a withheld message (the model
            # only lets the adversary reorder, never block forever).
            return self._cross.choose(self.rng)
        return self._intra.choose(self.rng)


class ContentAwareMinWithholdScheduler(Scheduler):
    """ABLATION ONLY -- violates the delayed-adaptive model.

    Reads coin-message payloads and withholds the messages carrying the
    smallest VRF values so that the global minimum never becomes *common*
    (received by enough correct processes), then starves the processes that
    did see it.  Against Algorithm 1 this visibly collapses the coin's
    success rate, demonstrating why the paper's adversary restriction is
    load-bearing (experiment E6).

    The attack keys on any payload exposing an integer ``value`` attribute
    above 1 (the coin's FIRST/SECOND messages do: VRF values are 256-bit).
    Every message carrying the smallest value observed so far -- the
    origin's FIRST *and* every SECOND relaying the minimum -- is delivered
    only when nothing else is in flight.  Quorums therefore fill without
    the minimum wherever the spare senders allow it, while the minimum's
    owner itself outputs the true minimum's bit: disagreement in roughly
    half the runs.

    Note the attack needs scheduling slack: if f processes are also
    *silent*, every correct sender is quorum-critical and withholding
    degenerates to reordering (the E6 bench shows both regimes).
    """

    content_aware = True

    def __init__(self, rng: random.Random | None = None) -> None:
        self.rng = rng or random.Random()
        self._normal = _IndexedSet()
        self._withheld = _IndexedSet()
        self._values: dict[int, int] = {}
        self._min_value: int | None = None

    def _classify(self, seq: int) -> None:
        withhold = (
            self._min_value is not None
            and self._values.get(seq) == self._min_value
        )
        if withhold:
            self._normal.discard(seq)
            self._withheld.add(seq)
        else:
            self._withheld.discard(seq)
            self._normal.add(seq)

    def on_submit(self, start: int, stop: int, pool: "SchedulerPool") -> None:
        for seq in range(start, stop):
            self._normal.add(seq)
            # The pool hands over the payload because we declared
            # content_aware.
            value = getattr(pool.payload(seq), "value", None)
            # Ignore tiny values: protocol-control fields (estimates, aux
            # bits) also surface a .value; the coin's 256-bit outputs never
            # collide with them.
            if not isinstance(value, int) or value <= 1:
                continue
            self._values[seq] = value
            if self._min_value is None or value < self._min_value:
                self._min_value = value
                # Reclassify everything currently believed normal.
                for known_seq in list(self._values):
                    self._classify(known_seq)
            else:
                self._classify(seq)

    def on_delivered(self, seq: int) -> None:
        self._values.pop(seq, None)
        self._normal.discard(seq)
        self._withheld.discard(seq)

    def choose(self, pool: "SchedulerPool") -> int:
        bucket = self._normal if len(self._normal) else self._withheld
        return bucket.choose(self.rng)


class CorruptionStrategy:
    """Decides which processes to corrupt and when (budget enforced by kernel)."""

    def initial_corruptions(self, n: int, f: int) -> set[int]:
        """Processes corrupted before the run starts."""
        return set()

    def on_delivery(self, view: EnvelopeView, corrupted: frozenset[int]) -> set[int]:
        """Additional corruptions requested after observing a delivery.

        Receives only the metadata view -- adaptive corruption is allowed
        by the model, predicting VRF outputs is not.
        """
        return set()


class StaticCorruption(CorruptionStrategy):
    """Corrupts a fixed pid set at time zero (the standard experiment setup)."""

    def __init__(self, pids: Iterable[int]) -> None:
        self.pids = set(pids)

    def initial_corruptions(self, n: int, f: int) -> set[int]:
        return set(self.pids)


class AdaptiveFirstSpeakersCorruption(CorruptionStrategy):
    """Corrupts the first ``f`` distinct senders it observes.

    A legal delayed-adaptive strategy: it reacts to *who spoke*, not to
    message contents.  Because corruption cannot remove messages already
    sent (no after-the-fact removal), this attack is provably weak against
    the coin -- tests use it to confirm exactly that.
    """

    def on_delivery(self, view: EnvelopeView, corrupted: frozenset[int]) -> set[int]:
        if view.sender in corrupted:
            return set()
        return {view.sender}


class CommitteeTargetingCorruption(CorruptionStrategy):
    """Corrupts committee members the moment their membership is revealed.

    A legal delayed-adaptive strategy: committee membership only becomes
    observable when a member's message appears on the wire (metadata kind
    is enough -- no payload access).  The paper's *process replaceability*
    argument says this is futile: a correct committee member broadcasts at
    most one message per role, so by the time the adversary can react, the
    contribution it wanted to suppress is already in flight and cannot be
    removed.  Tests and the E8 grid confirm protocols survive it.
    """

    def __init__(self, message_kinds: Iterable[str] = ("FirstMsg", "SecondMsg",
                                                       "InitMsg", "EchoMsg", "OkMsg")) -> None:
        self.message_kinds = frozenset(message_kinds)

    def on_delivery(self, view: EnvelopeView, corrupted: frozenset[int]) -> set[int]:
        if view.kind in self.message_kinds and view.sender not in corrupted:
            return {view.sender}
        return set()


class Adversary:
    """Scheduler + corruption strategy + behaviour for corrupted processes."""

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        corruption: CorruptionStrategy | None = None,
        behavior_factory: Callable[[int], ByzantineBehavior] | None = None,
    ) -> None:
        self.scheduler = scheduler or RandomScheduler()
        self.corruption = corruption or CorruptionStrategy()
        self.behavior_factory = behavior_factory or (lambda pid: SilentBehavior())
