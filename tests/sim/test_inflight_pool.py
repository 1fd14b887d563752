"""The kernel's in-flight pool: position columns, a windowed seq index.

The pool is three parallel columns swap-removed together -- seqs
(``array('q')``), flights, destinations -- one entry per copy in flight
and nothing for a delivered or dropped one.  Seq-choosing schedulers get
``_pos_at`` (slot ``seq - _pos_base`` -> pool index, -1 outside the
pool), whose dead leading chunks the loop drops; a scheduler that
declares ``choose_index`` (``RandomScheduler``) is picked by position
and gets none.  These tests pin the claims the layout rests
on: the positional path is taken only when the scheduler's own ``choose``
would have made the same pick (the bypass guard), ``SchedulerPool`` keeps
its contract with or without ``_pos_at``, ``choose_index`` is the very
draw ``pool.random_seq`` makes, every copy of a send shares one flight
record, the seq index stays a window, and a copy in flight costs what
DESIGN.md section 10 says it costs.
"""

from __future__ import annotations

import gc
import platform
import random
import sys
import tracemalloc
from array import array
from dataclasses import dataclass, fields

import pytest

from repro.crypto.pki import PKI
from repro.sim.adversary import (
    Adversary,
    ContentAwareMinWithholdScheduler,
    DelayBoundedScheduler,
    FIFOScheduler,
    RandomScheduler,
    Scheduler,
    StaticCorruption,
)
from repro.sim.byzantine import ScriptedBehavior
from repro.sim.events import DeliverEvent
from repro.sim.lossy import LossyLinkConfig
from repro.sim.messages import Envelope, Message
from repro.sim.network import (
    _SEQ_CHUNK,
    _RangeBytes,
    EmptySchedulerPoolError,
    SeqNotInFlightError,
    Simulation,
)
from repro.sim.process import Wait

from tests.kernel_reference import OneChoose, dispatched


@dataclass
class Note(Message):
    value: int = 0


def make_sim(scheduler, n=4, seed=0, **kwargs):
    pki = PKI.create(n, rng=random.Random(seed))
    return Simulation(
        n=n, f=0, pki=pki, adversary=Adversary(scheduler=scheduler),
        seed=seed, **kwargs,
    )


def chatter(ctx):
    """Everyone broadcasts twice and waits for all of it."""
    ctx.broadcast(Note("x"))
    ctx.broadcast(Note("x"))

    def condition(mailbox):
        return True if len(mailbox.stream("x")) >= 2 * ctx.n else None

    return (yield Wait(condition, instances={"x"}))


def run_chatter(scheduler, **kwargs):
    sim = make_sim(scheduler, **kwargs)
    delivered = []
    sim.events.subscribe(
        lambda event: delivered.append(event.seq)
        if isinstance(event, DeliverEvent) else None
    )
    sim.set_protocol_all(chatter)
    sim.run()
    assert sim.deliveries == 2 * sim.n * sim.n
    return sim, delivered


# -- the bypass guard ---------------------------------------------------------


class FirstInPool(RandomScheduler):
    """Inherits ``choose_index`` but decides through its own ``choose``."""

    def __init__(self):
        super().__init__(random.Random(0))
        self.picks = []

    def choose(self, pool):
        seq = pool.seq_at(0)
        self.picks.append(seq)
        return seq


class Listening(RandomScheduler):
    """A positional scheduler that also wants delivery notices."""

    def __init__(self, rng):
        super().__init__(rng)
        self.heard = []

    def on_delivered(self, seq):
        self.heard.append(seq)


class Viewing(RandomScheduler):
    """A positional scheduler that reads each new copy's view on submit."""

    def __init__(self, rng):
        super().__init__(rng)
        self.links = []

    def on_submit(self, start, stop, pool):
        for seq in range(start, stop):
            view = pool.view(seq)
            self.links.append((view.sender, view.dest))


class Halving(RandomScheduler):
    """Redefines the positional pick *and* the matching ``choose``."""

    def choose(self, pool):
        return pool.seq_at(self.choose_index(len(pool)))

    def choose_index(self, size):
        return self.rng.randrange(size) // 2


class TestBypassGuard:
    def test_random_scheduler_is_picked_by_position(self):
        sim = make_sim(RandomScheduler(random.Random(1)))
        assert sim._pos_at is None

    def test_one_choose_reference_keeps_the_seq_index(self):
        sim = make_sim(OneChoose(RandomScheduler(random.Random(1))))
        assert sim._pos_at is not None and len(sim._pos_at) == 0

    @pytest.mark.parametrize(
        "scheduler",
        [
            FIFOScheduler(),
            DelayBoundedScheduler(rng=random.Random(1)),
            ContentAwareMinWithholdScheduler(random.Random(1)),
        ],
        ids=lambda scheduler: type(scheduler).__name__,
    )
    def test_seq_choosing_schedulers_keep_the_seq_index(self, scheduler):
        sim = make_sim(scheduler)
        assert sim._pos_at is not None and len(sim._pos_at) == 0

    def test_overridden_choose_decides_every_delivery(self):
        scheduler = FirstInPool()
        sim, delivered = run_chatter(scheduler)
        assert sim._pos_at is not None
        assert scheduler.picks == delivered
        assert len(delivered) == sim.deliveries
        # ...and the inherited positional draw was never consulted.
        assert scheduler.rng.getstate() == random.Random(0).getstate()

    def test_choose_wrapped_by_a_dynamic_subclass_is_called(self):
        """``benchmarks/perf/tracing.py`` swaps ``__class__`` for a
        subclass whose ``choose`` wraps the original: the wrapper must
        see every delivery, and the run must not change."""
        calls = []
        inner = RandomScheduler.choose

        def counted(self, pool):
            calls.append(len(pool))
            return inner(self, pool)

        scheduler = RandomScheduler(random.Random(7))
        scheduler.__class__ = type("Traced", (RandomScheduler,), {"choose": counted})
        traced_sim, traced = run_chatter(scheduler, seed=7)
        plain_sim, plain = run_chatter(RandomScheduler(random.Random(7)), seed=7)
        assert plain_sim._pos_at is None and traced_sim._pos_at is not None
        assert len(calls) == traced_sim.deliveries
        assert traced == plain

    def test_on_delivered_override_hears_every_delivery(self):
        scheduler = Listening(random.Random(3))
        sim, delivered = run_chatter(scheduler, seed=3)
        assert scheduler.heard == delivered
        _, plain = run_chatter(RandomScheduler(random.Random(3)), seed=3)
        assert delivered == plain

    def test_on_submit_override_keeps_the_seq_index(self):
        """A ``pool.view`` in ``on_submit`` looks a seq up: without the
        seq index that would scan the pool once per seq."""
        scheduler = Viewing(random.Random(3))
        sim, delivered = run_chatter(scheduler, seed=3)
        assert sim._pos_at is not None
        assert len(scheduler.links) == sim.deliveries
        assert scheduler.links[:sim.n] == [(0, dest) for dest in range(sim.n)]
        _, plain = run_chatter(RandomScheduler(random.Random(3)), seed=3)
        assert delivered == plain

    def test_subclass_redefining_both_stays_positional(self):
        fast, fast_order = run_chatter(Halving(random.Random(5)), seed=5)
        _, reference_order = run_chatter(OneChoose(Halving(random.Random(5))), seed=5)
        assert fast._pos_at is None
        assert fast_order == reference_order


# -- SchedulerPool's contract, with and without `_pos_at` ---------------------


class Picking(Scheduler):
    """Picks a seeded random pool position through ``choose`` and keeps
    the positions it picked, so a model can follow the pool."""

    def __init__(self, content_aware=False):
        self.rng = random.Random(0)
        self.content_aware = content_aware
        self.picked = []

    def choose(self, pool):
        index = self.rng.randrange(len(pool))
        self.picked.append(index)
        return pool.seq_at(index)


class PickingByPosition(Picking):
    """The same picks through ``choose_index``: no seq index is kept."""

    def choose(self, pool):
        return pool.seq_at(self.choose_index(len(pool)))

    def choose_index(self, size):
        index = self.rng.randrange(size)
        self.picked.append(index)
        return index


def pool_scheduler(layout):
    if layout == "positional":
        return PickingByPosition()
    return Picking(content_aware=layout == "content-aware")


def run_trace(scheduler, n, steps, deliver_rate, submit, check=lambda sim: None):
    """A run over a randomized trace of ``steps`` steps, each one
    ``submit(sim, rng)`` or one delivery by the kernel's own loop.

    The trace is the run's stop condition, which the loop asks before
    every delivery: it submits until a draw below ``deliver_rate`` lets
    one delivery go (never from a pool of fewer than two copies, so the
    loop goes on), and stops the run after the last step.  ``check(sim)``
    runs before every step and after the last.
    """
    rng = random.Random(11)
    taken = 0

    def trace(sim):
        nonlocal taken
        while True:
            check(sim)
            if taken == steps:
                return True
            taken += 1
            if len(sim._in_flight) >= 2 and rng.random() < deliver_rate:
                return False
            submit(sim, rng)

    sim = make_sim(scheduler, n=n, stop_condition=trace)
    submit(sim, rng)  # the loop starts only with a copy in flight
    sim.set_protocol_all(idle)
    sim.run()
    assert sim.stopped_by_condition
    return sim


@pytest.mark.parametrize("layout", ["positional", "seq-addressed", "content-aware"])
class TestSchedulerPoolContract:
    def _filled(self, layout, rounds=200):
        """A pool after a randomized submit/deliver trace through the
        kernel's loop, next to a plain model of the same swap-remove
        order; the column invariants are checked after every step."""
        scheduler = pool_scheduler(layout)
        model = []  # (seq, sender, dest, value) in pool order
        followed = 0  # scheduler picks applied to the model

        def submit(sim, rng):
            seq = sim._next_seq
            sender, dest = rng.randrange(5), rng.randrange(5)
            sim.submit(sender, dest, Note("i", value=seq * 3))
            model.append((seq, sender, dest, seq * 3))

        def check(sim):
            nonlocal followed
            for index in scheduler.picked[followed:]:
                model[index] = model[-1]
                model.pop()
            followed = len(scheduler.picked)
            self._check_columns(sim, len(model) + sim.deliveries, model)

        sim = run_trace(scheduler, 5, rounds, 0.45, submit, check)
        assert sim.deliveries > 50 and len(model) > 5
        return sim, model

    @staticmethod
    def _check_columns(sim, next_seq, model):
        pool = sim._in_flight
        assert sim._next_seq == next_seq
        # One entry per copy in flight, in all three columns, and no more.
        assert len(pool) == len(sim._flights) == len(sim._dests) == len(model)
        for position, (seq, sender, dest, value) in enumerate(model):
            flight = sim._flights[position]
            assert (pool[position], sim._dests[position]) == (seq, dest)
            assert (flight.sender, flight.payload.value) == (sender, value)
        if sim._pos_at is not None:
            # Beside `_pos_at` every seq of the window knows its own
            # position, or -1.
            base = sim._pos_base
            assert len(sim._pos_at) == next_seq - base
            assert [sim._pos_at[seq - base] for seq in pool] == list(range(len(pool)))
            in_pool = set(pool)
            assert all(
                sim._pos_at[seq - base] == -1
                for seq in range(base, next_seq) if seq not in in_pool
            )

    def test_len_and_seq_at_follow_swap_remove_order(self, layout):
        sim, model = self._filled(layout)
        pool = sim._pool
        assert len(pool) == len(model)
        assert [pool.seq_at(i) for i in range(len(pool))] == [row[0] for row in model]
        assert pool.seq_at(-1) == model[-1][0]
        assert list(sim._in_flight) == [row[0] for row in model]
        for flight in sim._flights:
            assert flight.entry == (flight.sender, flight.payload)
            assert flight.entry[1] is flight.payload

    def test_random_seq_is_seq_at_a_randrange_draw(self, layout):
        sim, model = self._filled(layout)
        drawn, twin = random.Random(4), random.Random(4)
        for _ in range(50):
            assert sim._pool.random_seq(drawn) == model[twin.randrange(len(model))][0]
        assert drawn.getstate() == twin.getstate()

    def test_view_finds_every_in_flight_seq(self, layout):
        sim, model = self._filled(layout)
        for seq, sender, dest, _ in model:
            view = sim._pool.view(seq)
            assert (view.seq, view.sender, view.dest, view.kind) == (
                seq, sender, dest, "Note",
            )

    def test_unknown_or_delivered_seq_is_a_key_error(self, layout):
        sim, model = self._filled(layout)
        in_flight = {row[0] for row in model}
        gone = next(seq for seq in range(10_000) if seq not in in_flight)
        with pytest.raises(KeyError):
            sim._pool.view(gone)
        with pytest.raises(KeyError):
            sim._pool.view(10_000)

    def test_payload_wall(self, layout):
        sim, model = self._filled(layout)
        seq, _, _, value = model[0]
        if layout == "content-aware":
            assert sim._pool.payload(seq).value == value
        else:
            with pytest.raises(PermissionError, match="delayed-adaptive"):
                sim._pool.payload(seq)

    def test_empty_pool_is_named(self, layout):
        sim = make_sim(pool_scheduler(layout))
        assert len(sim._pool) == 0
        with pytest.raises(EmptySchedulerPoolError):
            sim._pool.seq_at(0)
        with pytest.raises(EmptySchedulerPoolError):
            sim._pool.random_seq(random.Random(0))


# -- choose_index is random_seq's draw ----------------------------------------


class TestChooseIndexIdentity:
    def test_same_picks_and_same_rng_state_over_a_trace(self):
        """``RandomScheduler.choose_index`` against ``pool.random_seq`` on
        twin RNGs, over a randomized submit/deliver trace: the same
        message every time, the same RNG state after every draw.  Pins any
        inlining of ``randrange`` on either side."""

        class Twins(Scheduler):
            """Asked through ``choose``: the pool keeps its seq index."""

            def __init__(self):
                self.by_index = RandomScheduler(random.Random(2020))
                self.rng_seq = random.Random(2020)
                self.picks = 0

            def choose(self, pool):
                by_index = pool.seq_at(self.by_index.choose_index(len(pool)))
                by_seq = pool.random_seq(self.rng_seq)
                assert by_index == by_seq, f"pick {self.picks}"
                assert self.by_index.rng.getstate() == self.rng_seq.getstate()
                self.picks += 1
                return by_seq

        def submit(sim, rng):
            sim.submit(rng.randrange(6), rng.randrange(6), Note("i"))

        scheduler = Twins()
        sim = run_trace(scheduler, 6, 3000, 0.5, submit)
        assert scheduler.picks == sim.deliveries > 1000

    def test_choose_is_seq_at_choose_index(self):
        """The promise the kernel's positional path rests on."""
        a, b = RandomScheduler(random.Random(8)), RandomScheduler(random.Random(8))
        sim = make_sim(FIFOScheduler(), n=6)
        for dest in range(6):
            sim.submit_broadcast(dest, Note("i"))
        pool = sim._pool
        for _ in range(100):
            assert a.choose(pool) == pool.seq_at(b.choose_index(len(pool)))
        assert a.rng.getstate() == b.rng.getstate()


# -- every copy of a send shares one flight record ------------------------------


def idle(ctx):
    """Waits for nothing that comes, so whatever is delivered stays in the
    mailbox."""
    yield Wait(lambda mailbox: None, instances={"never"})


def run_idle(sim):
    sim.set_protocol_all(idle)
    delivered = []
    sim.events.subscribe(
        lambda event: delivered.append(event)
        if isinstance(event, DeliverEvent) else None
    )
    sim.run()
    return delivered


ONE_BIT = {"drops": 0, "duplicates": 0, "reorders": 0, "corruptions": 1}
ONE_TWIN = {"drops": 0, "duplicates": 1, "reorders": 0, "corruptions": 0}


class TestFlightSharing:
    def _after_broadcasts(self, mode):
        sim = make_sim(dispatched(FIFOScheduler(), mode), n=5)
        sent = [Note("x", value=1), Note("x", value=2), Note("y", value=3)]
        for sender, note in enumerate(sent):
            sim.submit_broadcast(sender, note)
        run_idle(sim)
        assert sim.deliveries == 15
        return sim, sent

    def test_receivers_share_one_stream_entry_per_broadcast(self):
        sim, sent = self._after_broadcasts("batched")
        streams = [sim.contexts[pid].mailbox.stream("x") for pid in range(5)]
        for index in range(2):
            entry = streams[0][index]
            assert entry == (index, sent[index]) and entry[1] is sent[index]
            assert all(stream[index] is entry for stream in streams)

    def test_reference_loop_streams_equal_the_fast_loops(self):
        """Drained or asked one ``choose`` at a time, the streams agree."""
        fast, _ = self._after_broadcasts("batched")
        reference, _ = self._after_broadcasts("classic")
        for pid in range(5):
            for instance in ("x", "y"):
                assert (
                    reference.contexts[pid].mailbox.stream(instance)
                    == fast.contexts[pid].mailbox.stream(instance)
                )

    def test_a_corrupting_link_changes_one_receivers_payload_only(self):
        link = {(0, 2): LossyLinkConfig(corrupt_rate=1.0)}
        sim = make_sim(FIFOScheduler(), n=4, lossy=LossyLinkConfig(per_link=link))
        sent = Note("x", value=5)
        sim.submit_broadcast(0, sent)
        # The bit-flipped copy's own flight sits in its column slot.
        shared, _, own, _ = flights = sim._flights
        assert list(sim._in_flight) == [0, 1, 2, 3] and list(sim._dests) == [0, 1, 2, 3]
        assert [flight is shared for flight in flights] == [True, True, False, True]
        assert own.payload is not sent and (own.sender, own.depth) == (0, shared.depth)
        assert sorted(event.dest for event in run_idle(sim)) == [0, 1, 2, 3]
        delivered = {
            dest: sim.contexts[dest].mailbox.stream("x")[0][1] for dest in range(4)
        }
        for dest in (0, 1, 3):
            assert delivered[dest] is sent
        flipped = delivered[2]
        assert flipped is not sent and flipped.instance == "x"
        assert bin(flipped.value ^ 5).count("1") == 1 and sent.value == 5
        assert sim.lossy_counters == ONE_BIT
        assert sim.contexts[2].mailbox.stream("x")[0] == (0, flipped)

    def test_a_duplicates_twin_is_the_same_object_under_the_next_seq(self):
        link = {(0, 1): LossyLinkConfig(duplicate_rate=1.0)}
        sim = make_sim(FIFOScheduler(), n=4, lossy=LossyLinkConfig(per_link=link))
        sent = Note("x", value=5)
        sim.submit_broadcast(0, sent)
        assert list(sim._in_flight) == [0, 1, 2, 3, 4]
        assert list(sim._dests) == [0, 1, 1, 2, 3]
        assert all(flight is sim._flights[0] for flight in sim._flights)
        delivered = run_idle(sim)
        assert [(event.seq, event.dest) for event in delivered] == [
            (0, 0), (1, 1), (2, 1), (3, 2), (4, 3),
        ]
        received = [sim.contexts[pid].mailbox.stream("x") for pid in range(4)]
        assert [len(stream) for stream in received] == [1, 2, 1, 1]
        assert all(entry[1] is sent for stream in received for entry in stream)
        assert sim.lossy_counters == ONE_TWIN

    def test_a_corrupted_receiver_is_handed_the_whole_envelope(self):
        seen = []
        pki = PKI.create(4, rng=random.Random(0))
        sim = Simulation(
            n=4, f=1, pki=pki, seed=0,
            adversary=Adversary(
                scheduler=FIFOScheduler(),
                corruption=StaticCorruption({3}),
                behavior_factory=lambda pid: ScriptedBehavior(
                    on_deliver=lambda ctx, envelope: seen.append(envelope)
                ),
            ),
        )

        def speaker(ctx):
            if ctx.pid == 1:
                ctx.broadcast(Note("x", value=7))
                ctx.send(3, Note("y", value=8))
            yield from idle(ctx)

        sim.set_protocol_all(speaker)
        sim.run()
        assert [field.name for field in fields(Envelope)] == [
            "seq", "sender", "dest", "payload", "depth", "sender_correct", "sent_step",
        ]
        broadcast, unicast = seen
        assert broadcast == Envelope(3, 1, 3, Note("x", value=7), 1, True, 0)
        assert unicast == Envelope(4, 1, 3, Note("y", value=8), 1, True, 0)
        assert broadcast.payload is sim.contexts[0].mailbox.stream("x")[0][1]

    @pytest.mark.parametrize("layout", ["positional", "seq-addressed"])
    @pytest.mark.parametrize("fate", ["drop", "reorder"])
    def test_a_dropped_or_held_seq_has_no_view(self, layout, fate):
        link = {(0, 1): LossyLinkConfig(**{f"{fate}_rate": 1.0}, reorder_hold=50)}
        sim = make_sim(pool_scheduler(layout), n=3, lossy=LossyLinkConfig(per_link=link))
        sim.submit_broadcast(0, Note("x"))
        assert list(sim._in_flight) == [0, 2] and list(sim._dests) == [0, 2]
        assert len(sim._flights) == 2
        if fate == "drop":
            assert not sim._lossy.held  # nothing is left of a dropped copy
        else:
            # A held copy carries its flight and destination until released.
            [(_, seq, flight, dest)] = sim._lossy.held
            assert (seq, flight, dest) == (1, sim._flights[0], 1)
        assert sim._pool.view(2).dest == 2
        with pytest.raises(KeyError) as raised:
            sim._pool.view(1)
        assert raised.value.cause == (
            "already delivered or dropped by a lossy link"
            if fate == "drop"
            else "held by a lossy link"
        )


# -- the seq index is a window, and only where a seq is looked up ---------------


def gossip_rounds(rounds):
    """Everyone broadcasts round r, waits for all n of it, then moves on."""

    def protocol(ctx):
        for r in range(rounds):
            ctx.broadcast(Note(r))

            def all_in(mailbox, r=r):
                missing = ctx.n - len(mailbox.stream(r))
                if missing <= 0:
                    return True
                wait.need = missing
                return None

            wait = Wait(all_in, instances={r})
            yield wait

    return protocol


def pop_last(sim):
    """Take the pool's last copy out, as delivering it does: no hole to fill."""
    seq = sim._in_flight.pop()
    sim._flights.pop()
    sim._dests.pop()
    sim._pos_at[seq - sim._pos_base] = -1
    return seq


class TestSeqIndexWindow:
    def test_a_long_fifo_run_keeps_only_the_live_window(self):
        """Over > 4 chunks of deliveries the index ends no longer than the
        peak pool plus two chunks, where one slot per seq would be all
        of them."""
        peak = [0]

        def watch(simulation):
            peak[0] = max(peak[0], len(simulation._in_flight))
            return False

        sim = make_sim(FIFOScheduler(), n=16, stop_condition=watch)
        sim.set_protocol_all(gossip_rounds(1100))
        sim.run()
        assert sim.deliveries == sim._next_seq == 1100 * 16 * 16 > 4 * _SEQ_CHUNK
        assert sim.returns == {pid: None for pid in range(16)}
        assert sim._pos_base > 0
        assert len(sim._pos_at) == sim._next_seq - sim._pos_base
        assert len(sim._pos_at) <= peak[0] + 2 * _SEQ_CHUNK
        # A seq below the window is refused by name like any other.
        with pytest.raises(SeqNotInFlightError, match=r"seq 0, .*\(already delivered\)"):
            sim._pool.view(0)
        with pytest.raises(SeqNotInFlightError, match="never submitted"):
            sim._pool.view(sim._next_seq)

    @pytest.mark.parametrize("lossy", [None, LossyLinkConfig(reorder_rate=0.3)])
    def test_a_positional_run_keeps_no_per_seq_state(self, lossy):
        seen = []

        def watch(simulation):
            assert simulation._pos_at is None
            assert (
                len(simulation._in_flight) == len(simulation._flights)
                == len(simulation._dests) == len(simulation._pool)
            )
            seen.append(len(simulation._pool))
            return False

        sim = make_sim(RandomScheduler(random.Random(6)), n=6, lossy=lossy,
                       stop_condition=watch)
        sim.set_protocol_all(gossip_rounds(3))
        sim.run()
        assert sim.returns == {pid: None for pid in range(6)}
        assert len(seen) > sim.deliveries // 2 and max(seen) > 6

    def test_compaction_keeps_the_slots_of_held_seqs(self):
        """A chunk below the lowest held seq goes; the held seq's chunk
        stays, so its release still finds a slot."""
        link = {(0, 1): LossyLinkConfig(reorder_rate=1.0, reorder_hold=10**9)}
        sim = make_sim(FIFOScheduler(), n=8, lossy=LossyLinkConfig(per_link=link))
        note = Note("x")
        sim.submit(0, 0, note)  # seq 0: in the pool
        for _ in range(_SEQ_CHUNK // 8):
            sim.submit_broadcast(1, note)
        sim.submit(0, 1, note)  # held
        held_seq = sim._next_seq - 1
        for _ in range(_SEQ_CHUNK // 8):
            sim.submit_broadcast(1, note)
        sim._compact_seq_index()
        assert sim._pos_base == 0  # seq 0 pins the first chunk
        while sim._in_flight:
            pop_last(sim)
        sim._compact_seq_index()
        assert sim._pos_base == held_seq // _SEQ_CHUNK * _SEQ_CHUNK > 0
        [(_, seq, flight, dest)] = sim._lossy.due(2 * 10**9, False)
        sim._insert_in_flight(seq, flight, dest)
        assert sim._pool.view(held_seq).dest == 1
        assert pop_last(sim) == held_seq
        sim._compact_seq_index()
        assert sim._pos_base == sim._next_seq // _SEQ_CHUNK * _SEQ_CHUNK


@pytest.mark.parametrize("typecode", ["q", "i"])
@pytest.mark.parametrize("n", [1, 3, 48, 1000])
def test_range_bytes_is_the_ranges_array(typecode, n):
    """A broadcast's seqs and positions enter the columns as bytes."""
    run = _RangeBytes(typecode, n)
    top = 2**62 if typecode == "q" else 2**31 - n
    for first in (0, 1, 255, 65_535, 2**31 - n, top):
        assert run(first) == array(typecode, range(first, first + n)).tobytes()


# -- what a copy in flight costs -------------------------------------------------


@pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="allocation sizes are CPython's",
)
class TestMemoryGuard:
    """Exact allocation counts, not timings: deterministic on one interpreter.

    DESIGN.md section 10 has the table: a broadcast's copies differ in a
    seq and a destination, so a copy in flight is one slot in each pool
    column (plus a seq-index slot and, under FIFO, a share of one queued
    range per broadcast), and a delivery adds one list slot to the
    receiver's stream.  The per-seq tables layout paid 54 / 98 bytes.
    """

    N, BROADCASTS = 1000, 50

    def _submitted(self, scheduler):
        sim = make_sim(scheduler, n=self.N)
        notes = [Note("x", value=index) for index in range(self.BROADCASTS)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for sender, note in enumerate(notes):
                sim.submit_broadcast(sender, note)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        copies = self.N * self.BROADCASTS
        assert len(sim._in_flight) == copies
        return sim, grown / copies

    @pytest.mark.parametrize(
        "scheduler, budget",
        [(RandomScheduler(random.Random(0)), 28), (FIFOScheduler(), 34)],
        ids=["positional", "fifo"],
    )
    def test_bytes_per_in_flight_copy(self, scheduler, budget):
        _, per_copy = self._submitted(scheduler)
        assert per_copy <= budget, f"{per_copy:.1f} B per in-flight copy"

    def test_bytes_per_delivery_in_the_mailboxes(self):
        sim, _ = self._submitted(FIFOScheduler())
        run_idle(sim)
        assert sim.deliveries == self.N * self.BROADCASTS
        # Stream lists plus every distinct entry tuple they hold: what the
        # deliveries left behind (tracemalloc's delta over the deliveries
        # would net the pool's frees against it).
        entries = {}
        held = 0
        for ctx in sim.contexts:
            stream = ctx.mailbox.stream("x")
            held += sys.getsizeof(stream)
            entries.update((id(entry), sys.getsizeof(entry)) for entry in stream)
        assert len(entries) == self.BROADCASTS
        per_delivery = (held + sum(entries.values())) / sim.deliveries
        assert per_delivery <= 16, f"{per_delivery:.1f} B per delivery"
