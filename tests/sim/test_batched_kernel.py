"""Unit tests for the batched-delivery kernel machinery.

Covers the scheduler ``drain``/``on_submit_range`` contracts, the
mailbox's per-instance delivery counters, the ``Wait.min_count``
incremental-quorum gate, and the broadcast submission fast path --
each against its documented contract (see DESIGN.md section 10).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.pki import PKI
from repro.sim.adversary import (
    Adversary,
    DelayBoundedScheduler,
    FIFOScheduler,
    RandomScheduler,
    Scheduler,
    StaticCorruption,
)
from repro.sim.mailbox import Mailbox
from repro.sim.messages import Message
from repro.sim.network import Simulation
from repro.sim.process import Wait


@dataclass
class Note(Message):
    body: object = None

    def words(self) -> int:
        return 1


def make_sim(n=4, seed=0, scheduler=None, **kwargs):
    pki = PKI.create(n, rng=random.Random(seed))
    return Simulation(
        n=n, f=0, pki=pki,
        adversary=Adversary(
            scheduler=scheduler or RandomScheduler(random.Random(seed))
        ),
        seed=seed, **kwargs,
    )


# -- scheduler drain / on_submit_range ---------------------------------------


class DequeFIFO(FIFOScheduler):
    """The per-seq deque FIFO the range queue replaced: the reference model."""

    def __init__(self):
        self._queue = deque()
        self._delivered = set()

    def on_submit(self, seq, view):
        self._queue.append(seq)

    def on_submit_range(self, start, stop):
        self._queue.extend(range(start, stop))

    def choose(self, pool):
        queue = self._queue
        while queue and queue[0] in self._delivered:
            self._delivered.discard(queue.popleft())
        return queue[0]

    def drain(self, pool, limit):
        batch = []
        while self._queue and len(batch) < limit:
            seq = self._queue.popleft()
            if seq in self._delivered:
                self._delivered.discard(seq)
            else:
                batch.append(seq)
        return batch or None


def drained(scheduler, limit):
    """The concatenated batches of draining up to ``limit`` seqs."""
    seqs = []
    while len(seqs) < limit:
        batch = scheduler.drain(None, limit - len(seqs))
        if batch is None:
            break
        assert 1 <= len(batch) <= limit - len(seqs)
        seqs.extend(batch)
    return seqs


class TestFIFODrain:
    def test_drain_matches_choose_sequence(self):
        """Batches drained up to ``limit`` concatenate to exactly what
        ``limit`` choose/on_delivered cycles would have produced -- the
        batched-kernel contract; each batch is a prefix of it."""
        reference = FIFOScheduler()
        draining = FIFOScheduler()
        for seq in range(10):
            reference.on_submit(seq, None)
            draining.on_submit(seq, None)
        draining.on_submit_range(10, 14)
        reference.on_submit_range(10, 14)
        expected = []
        for _ in range(12):
            seq = reference.choose(None)
            reference.on_delivered(seq)
            expected.append(seq)
        assert drained(draining, 12) == expected

    def test_drain_respects_limit_and_continues(self):
        scheduler = FIFOScheduler()
        scheduler.on_submit_range(0, 8)
        scheduler.on_submit_range(8, 10)
        assert scheduler.drain(None, 3) == [0, 1, 2]
        assert scheduler.drain(None, 3) == [3, 4, 5]
        assert scheduler.drain(None, 99) == [6, 7]  # one broadcast per batch
        assert drained(scheduler, 99) == [8, 9]
        assert scheduler.drain(None, 1) is None  # empty -> decline

    def test_drain_skips_already_delivered(self):
        scheduler = FIFOScheduler()
        scheduler.on_submit_range(0, 4)
        scheduler.on_submit(4, None)
        seq = scheduler.choose(None)
        scheduler.on_delivered(seq)
        scheduler.on_delivered(2)
        scheduler.on_delivered(4)
        assert drained(scheduler, 10) == [1, 3]

    def test_on_submit_range_equals_per_seq(self):
        bulk = FIFOScheduler()
        single = FIFOScheduler()
        bulk.on_submit_range(5, 9)
        bulk.on_submit_range(9, 9)  # an empty range queues nothing
        for seq in range(5, 9):
            single.on_submit(seq, None)
        assert len(bulk._queue) == 1  # one entry per broadcast, not per copy
        assert drained(bulk, 99) == drained(single, 99) == [5, 6, 7, 8]

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("submit"), st.integers(0, 0)),
                st.tuples(st.just("submit_range"), st.integers(0, 6)),
                st.tuples(st.just("choose"), st.integers(0, 0)),
                st.tuples(st.just("deliver"), st.integers(0, 50)),
                st.tuples(st.just("drain"), st.integers(1, 8)),
            ),
            max_size=60,
        )
    )
    def test_range_queue_yields_the_deque_sequence(self, ops):
        """Over random interleavings of the five hooks, every ``choose``
        equals the deque model's and every drained batch is exactly the
        model's next ``len(batch)`` seqs."""
        queue, model = FIFOScheduler(), DequeFIFO()
        next_seq = 0
        pending = []  # submitted, not yet delivered, in seq order
        for op, arg in ops:
            if op == "submit":
                queue.on_submit(next_seq, None)
                model.on_submit(next_seq, None)
                pending.append(next_seq)
                next_seq += 1
            elif op == "submit_range":
                queue.on_submit_range(next_seq, next_seq + arg)
                model.on_submit_range(next_seq, next_seq + arg)
                pending.extend(range(next_seq, next_seq + arg))
                next_seq += arg
            elif op == "choose" and pending:
                seq = queue.choose(None)
                assert seq == model.choose(None) == pending[0]
                queue.on_delivered(seq)
                model.on_delivered(seq)
                pending.remove(seq)
            elif op == "deliver" and pending:
                # Delivered behind the queue's back, out of order.
                seq = pending.pop(arg % len(pending))
                queue.on_delivered(seq)
                model.on_delivered(seq)
            elif op == "drain":
                batch = queue.drain(None, arg)
                if batch is None:
                    assert model.drain(None, arg) is None and not pending
                else:
                    batch = list(batch)
                    assert 1 <= len(batch) <= arg
                    assert batch == model.drain(None, len(batch)) == pending[:len(batch)]
                    del pending[:len(batch)]
        assert drained(queue, next_seq + 1) == drained(model, next_seq + 1) == pending


class TestDelayBoundedDrain:
    def test_on_submit_range_matches_per_seq_including_rng(self):
        """The bulk hook must leave the scheduler -- and its RNG -- in
        exactly the state the per-seq calls would."""
        bulk = DelayBoundedScheduler(max_delay=7, rng=random.Random(42))
        single = DelayBoundedScheduler(max_delay=7, rng=random.Random(42))
        bulk.on_submit_range(0, 20)
        for seq in range(20):
            single.on_submit(seq, None)
        assert sorted(bulk._heap) == sorted(single._heap)
        assert bulk.rng.getstate() == single.rng.getstate()

    def test_drain_matches_choose_sequence(self):
        reference = DelayBoundedScheduler(max_delay=5, rng=random.Random(9))
        draining = DelayBoundedScheduler(max_delay=5, rng=random.Random(9))
        for seq in range(30):
            reference.on_submit(seq, None)
            draining.on_submit(seq, None)
        expected = []
        for _ in range(12):
            seq = reference.choose(None)
            reference.on_delivered(seq)
            expected.append(seq)
        assert draining.drain(None, 12) == expected

    def test_drain_stops_at_preemption_bound(self):
        """Entries ranked at/above the next-unseen-seq bound stay in the
        heap: a future submission could still overtake them."""
        scheduler = DelayBoundedScheduler(max_delay=1000, rng=random.Random(0))
        scheduler.on_submit_range(0, 5)
        batch = scheduler.drain(None, 100) or []
        bound = scheduler._next_seq_bound
        drained_ranks = {seq for seq in batch}
        for rank, seq in scheduler._heap:
            assert rank >= bound
            assert seq not in drained_ranks

    def test_max_delay_zero_is_fifo(self):
        scheduler = DelayBoundedScheduler(max_delay=0, rng=random.Random(3))
        scheduler.on_submit_range(0, 6)
        assert scheduler.drain(None, 10) == [0, 1, 2, 3, 4, 5]


class TestSchedulerBase:
    def test_default_on_submit_range_delegates(self):
        calls = []

        class Recorder(Scheduler):
            def on_submit(self, seq, view):
                calls.append(seq)

            def choose(self, pool):  # pragma: no cover - unused
                raise NotImplementedError

        Recorder().on_submit_range(3, 7)
        assert calls == [3, 4, 5, 6]

    def test_random_scheduler_declines_drain(self):
        """A uniformly random scheduler cannot commit a batch (each
        submission reweights every later draw), so it must decline."""
        scheduler = RandomScheduler(random.Random(0))
        scheduler.on_submit(0, None)
        assert scheduler.drain(None, 4) is None


# -- mailbox counters --------------------------------------------------------


class TestMailboxCounters:
    def test_counts_maintained_on_add(self):
        mailbox = Mailbox()
        mailbox.add(0, Note("a"))
        mailbox.add(1, Note("a"))
        mailbox.add(2, Note("b"))
        assert mailbox.counts == {"a": 2, "b": 1}
        assert mailbox.total_delivered == 3

    def test_total_for_sums_subscribed_instances(self):
        mailbox = Mailbox()
        for instance in ("a", "a", "b", "c"):
            mailbox.add(0, Note(instance))
        assert mailbox.total_for({"a", "b"}) == 3
        assert mailbox.total_for({"c"}) == 1
        assert mailbox.total_for({"missing"}) == 0


# -- Wait.min_count incremental-quorum gate ----------------------------------


class TestMinCountGate:
    def _run(self, min_count, eager=False):
        """Process 0 waits for 3 Notes on one instance; 1..3 each send one.
        Returns the mailbox totals seen at each condition evaluation."""
        observed = []

        def waiter(ctx):
            def condition(mailbox):
                observed.append(mailbox.total_for({"x"}))
                stream = mailbox.stream("x")
                return True if len(stream) >= 3 else None

            result = yield Wait(
                condition, description="3 notes",
                instances={"x"}, min_count=min_count,
            )
            return result

        def sender(ctx):
            ctx.send(0, Note("x"))
            return None
            yield

        sim = make_sim(scheduler=FIFOScheduler(), eager_wakeups=eager)
        sim.set_protocol(0, waiter)
        for pid in (1, 2, 3):
            sim.set_protocol(pid, sender)
        sim.run()
        assert sim.returns[0] is True
        return observed

    def test_gate_skips_below_floor(self):
        """After the block-time probe (always evaluated: the condition may
        already be satisfiable from buffered messages), the condition is
        never re-invoked while the subscribed instance holds fewer than
        min_count messages."""
        observed = self._run(min_count=3)
        assert observed[0] == 0  # the block-time probe
        assert observed[1:], "condition never re-evaluated"
        assert all(total >= 3 for total in observed[1:])

    def test_no_floor_evaluates_incrementally(self):
        observed = self._run(min_count=0)
        assert {1, 2} <= set(observed)  # woken below the quorum

    def test_eager_wakeups_ignore_floor(self):
        """The eager reference path bypasses gating entirely -- and the
        protocol still returns the same result."""
        observed = self._run(min_count=3, eager=True)
        assert {1, 2} <= set(observed)

    def test_batched_mode_honours_floor(self):
        observed = []

        def waiter(ctx):
            def condition(mailbox):
                observed.append(mailbox.total_for({"x"}))
                return True if len(mailbox.stream("x")) >= 3 else None

            return (yield Wait(condition, instances={"x"}, min_count=3))

        def sender(ctx):
            ctx.send(0, Note("x"))
            return None
            yield

        sim = make_sim(scheduler=FIFOScheduler(), delivery_mode="batched")
        sim.set_protocol(0, waiter)
        for pid in (1, 2, 3):
            sim.set_protocol(pid, sender)
        sim.run()
        assert sim.returns[0] is True
        assert all(total >= 3 for total in observed[1:])


# -- broadcast submission fast path ------------------------------------------


class TestSubmitBroadcast:
    def test_broadcast_delivers_one_shared_object(self):
        """ctx.broadcast hands the *same* message object to every receiver
        -- the identity the cross-receiver validation memos key on."""
        received = {}

        def talker(ctx):
            if ctx.pid == 0:
                ctx.broadcast(Note("x", body="payload"))

            def condition(mailbox):
                stream = mailbox.stream("x")
                return stream[0][1] if stream else None

            return (yield Wait(condition, instances={"x"}))

        sim = make_sim(scheduler=FIFOScheduler())
        sim.set_protocol_all(talker)
        sim.run()
        received = {id(sim.returns[pid]) for pid in range(4)}
        assert len(received) == 1  # one object, n receivers

    def test_broadcast_metrics_match_per_dest_submits(self):
        """submit_broadcast's batched accounting must equal n unicasts."""

        def broadcaster(ctx):
            ctx.broadcast(Note("x"))
            return None
            yield

        def unicaster(ctx):
            for dest in range(4):
                ctx.send(dest, Note("x"))
            return None
            yield

        def idle(ctx):
            return None
            yield

        def run_with(factory):
            sim = make_sim(scheduler=FIFOScheduler())
            sim.set_protocol(0, factory)
            for pid in (1, 2, 3):
                sim.set_protocol(pid, idle)
            sim.run()
            metrics = sim.metrics
            return (
                metrics.messages_sent_total,
                metrics.messages_delivered,
                metrics.words_total,
                dict(metrics.words_by_kind),
                dict(metrics.words_by_sender),
                dict(metrics.messages_by_sender),
            )

        broadcast_counters = run_with(broadcaster)
        assert broadcast_counters == run_with(unicaster)
        # The hoisted accounting really attributed the load to pid 0.
        assert broadcast_counters[4] == {0: 4 * Note("x").words()}

    def test_broadcast_invalid_sender_rejected(self):
        sim = make_sim()
        with pytest.raises(ValueError, match="invalid sender"):
            sim.submit_broadcast(-1, Note("x"))
        with pytest.raises(ValueError, match="invalid sender"):
            sim.submit_broadcast(4, Note("x"))


# -- delivery modes -----------------------------------------------------------


class TestDeliveryModes:
    def test_random_scheduler_fast_loop_matches_reference(self):
        """Under a drain-declining scheduler the fast loop delivers batches
        of one (by pool position here) and must agree byte-for-byte with
        the reference loop."""

        def chatter(ctx):
            ctx.broadcast(Note("x"))

            def condition(mailbox):
                return True if len(mailbox.stream("x")) >= 4 else None

            return (yield Wait(condition, instances={"x"}))

        def run_mode(mode):
            sim = make_sim(scheduler=RandomScheduler(random.Random(5)), seed=5,
                           delivery_mode=mode)
            sim.set_protocol_all(chatter)
            sim.run()
            assert sim.batched_deliveries == 0
            return sim.returns, sim.deliveries, sim.metrics.words_total

        assert run_mode("batched") == run_mode("classic")

    def test_a_batch_the_stop_condition_abandons_is_uncounted(self):
        """Drained deliveries are counted per batch; the seqs of a batch
        the run abandons mid-way are not counted as delivered."""

        def chatter(ctx):
            ctx.broadcast(Note("x"))
            yield Wait(lambda mailbox: None, instances={"never"})

        sim = make_sim(
            scheduler=FIFOScheduler(),
            stop_condition=lambda simulation: simulation.deliveries >= 6,
        )
        sim.set_protocol_all(chatter)
        sim.run()
        assert sim.stopped_by_condition and sim.deliveries == 6
        # One batch per broadcast: all of pid 0's, then two of pid 1's.
        assert sim.drain_batches == 2
        assert sim.batched_deliveries == 6

    def test_fast_loop_is_the_default(self):
        assert make_sim().delivery_mode == "batched"

    def test_invalid_delivery_mode_rejected(self):
        with pytest.raises(ValueError, match="delivery_mode"):
            make_sim(delivery_mode="turbo")
