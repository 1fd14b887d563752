"""The kernel's in-flight pool: dense envelope list, positional picks.

The pool is one ``list[Envelope]`` with swap-remove.  Seq-choosing
schedulers get a ``seq -> envelope`` index beside it; a scheduler that
declares ``choose_index`` (``RandomScheduler``) is picked by position on
the fast loop and gets none.  These tests pin the three claims the layout
rests on: the positional path is taken only when the scheduler's own
``choose`` would have made the same pick (the bypass guard),
``SchedulerPool`` keeps its contract with or without the index, and
``choose_index`` is the very draw ``pool.random_seq`` makes (DESIGN.md
section 10).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.crypto.pki import PKI
from repro.sim.adversary import (
    Adversary,
    ContentAwareMinWithholdScheduler,
    DelayBoundedScheduler,
    FIFOScheduler,
    RandomScheduler,
)
from repro.sim.events import DeliverEvent
from repro.sim.messages import Message
from repro.sim.network import EmptySchedulerPoolError, Simulation
from repro.sim.process import Wait


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


class Halving(RandomScheduler):
    """Redefines the positional pick *and* the matching ``choose``."""

    def choose(self, pool):
        return pool.seq_at(self.choose_index(len(pool)))

    def choose_index(self, size):
        return self.rng.randrange(size) // 2


class TestBypassGuard:
    def test_random_scheduler_is_picked_by_position(self):
        sim = make_sim(RandomScheduler(random.Random(1)))
        assert sim._by_seq is None

    @pytest.mark.parametrize("kwargs", [{"delivery_mode": "classic"}])
    def test_reference_loop_keeps_the_seq_index(self, kwargs):
        sim = make_sim(RandomScheduler(random.Random(1)), **kwargs)
        assert sim._by_seq == {}

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
        assert make_sim(scheduler)._by_seq == {}

    def test_overridden_choose_decides_every_delivery(self):
        scheduler = FirstInPool()
        sim, delivered = run_chatter(scheduler)
        assert sim._by_seq is not None
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
        assert plain_sim._by_seq is None and traced_sim._by_seq is not None
        assert len(calls) == traced_sim.deliveries
        assert traced == plain

    def test_on_delivered_override_hears_every_delivery(self):
        scheduler = Listening(random.Random(3))
        sim, delivered = run_chatter(scheduler, seed=3)
        assert scheduler.heard == delivered
        _, plain = run_chatter(RandomScheduler(random.Random(3)), seed=3)
        assert delivered == plain

    def test_subclass_redefining_both_stays_positional(self):
        fast, fast_order = run_chatter(Halving(random.Random(5)), seed=5)
        _, reference_order = run_chatter(
            Halving(random.Random(5)), seed=5, delivery_mode="classic"
        )
        assert fast._by_seq is None
        assert fast_order == reference_order


# -- SchedulerPool's contract, with and without the seq index -----------------


def pool_scheduler(layout):
    if layout == "positional":
        return RandomScheduler(random.Random(0))
    if layout == "content-aware":
        return ContentAwareMinWithholdScheduler(random.Random(0))
    return FIFOScheduler()


@pytest.mark.parametrize("layout", ["positional", "seq-addressed", "content-aware"])
class TestSchedulerPoolContract:
    def _filled(self, layout, rounds=200):
        """A pool after a randomized insert/remove trace, next to a plain
        model of the same swap-remove order."""
        sim = make_sim(pool_scheduler(layout), n=5)
        rng = random.Random(11)
        model = []  # (seq, sender, dest, value) in pool order
        next_seq = 0
        for _ in range(rounds):
            if model and rng.random() < 0.45:
                index = rng.randrange(len(model))
                seq = model[index][0]
                self._remove(sim, index, seq)
                model[index] = model[-1]
                model.pop()
            else:
                sender, dest = rng.randrange(5), rng.randrange(5)
                sim.submit(sender, dest, Note("i", value=next_seq * 3))
                model.append((next_seq, sender, dest, next_seq * 3))
                next_seq += 1
        assert len(model) > 5
        return sim, model

    @staticmethod
    def _remove(sim, index, seq):
        if sim._by_seq is None:
            # What the fast loop's positional pick does.
            last = sim._in_flight.pop()
            if index < len(sim._in_flight):
                sim._in_flight[index] = last
        else:
            assert sim._remove_in_flight(seq).seq == seq

    def test_len_and_seq_at_follow_swap_remove_order(self, layout):
        sim, model = self._filled(layout)
        pool = sim._pool
        assert len(pool) == len(model)
        assert [pool.seq_at(i) for i in range(len(pool))] == [row[0] for row in model]
        assert pool.seq_at(-1) == model[-1][0]
        if sim._by_seq is not None:
            # Beside a seq index every envelope knows its own position.
            assert [e.pos for e in sim._in_flight] == list(range(len(pool)))
            assert all(sim._by_seq[e.seq] is e for e in sim._in_flight)
            assert len(sim._by_seq) == len(pool)

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
        twin RNGs, over a randomized insert/remove trace: the same
        message every time, the same RNG state after every draw.  Pins any
        inlining of ``randrange`` on either side."""
        rng_index, rng_seq = random.Random(2020), random.Random(2020)
        scheduler = RandomScheduler(rng_index)
        sim = make_sim(FIFOScheduler(), n=6)  # seq-addressed: removable by seq
        pool = sim._pool
        trace = random.Random(9)
        picks = 0
        for step in range(3000):
            if len(pool) and trace.random() < 0.5:
                by_index = pool.seq_at(scheduler.choose_index(len(pool)))
                by_seq = pool.random_seq(rng_seq)
                assert by_index == by_seq, f"step {step}"
                assert rng_index.getstate() == rng_seq.getstate(), f"step {step}"
                sim._remove_in_flight(by_seq)
                picks += 1
            else:
                sim.submit(trace.randrange(6), trace.randrange(6), Note("i"))
        assert picks > 1000

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
