"""Simulation kernel: delivery, waits, corruption, stop conditions.

These tests use tiny hand-written protocols rather than the real
algorithms, so kernel behaviour is pinned independently of protocol logic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.crypto.pki import PKI
from repro.sim.adversary import (
    AdaptiveFirstSpeakersCorruption,
    Adversary,
    FIFOScheduler,
    RandomScheduler,
    StaticCorruption,
)
from repro.sim.byzantine import ScriptedBehavior, SilentBehavior
from repro.sim.messages import Message
from repro.sim.network import Simulation
from repro.sim.process import Wait
from repro.sim.runner import RunResult, run_protocol, stop_when_all_returned


@dataclass
class Ping(Message):
    payload: int = 0

    def words(self) -> int:
        return 1


def make_sim(n=4, f=0, seed=0, corrupt=(), scheduler=None, **kwargs):
    pki = PKI.create(n, rng=random.Random(seed))
    adversary = Adversary(
        scheduler=scheduler or RandomScheduler(random.Random(seed)),
        corruption=StaticCorruption(corrupt),
    )
    return Simulation(n=n, f=f, pki=pki, adversary=adversary, seed=seed, **kwargs)


def gossip_protocol(ctx):
    """Broadcast one ping; return the set of senders heard from."""
    ctx.broadcast(Ping("gossip", payload=ctx.pid))
    senders = set()
    cursor = 0

    def all_heard(mailbox):
        nonlocal cursor
        stream = mailbox.stream("gossip")
        while cursor < len(stream):
            sender, _ = stream[cursor]
            cursor += 1
            senders.add(sender)
        if len(senders) >= ctx.n:
            return frozenset(senders)
        return None

    return (yield Wait(all_heard))


class TestDelivery:
    def test_reliable_links_deliver_everything(self):
        sim = make_sim(n=5)
        sim.set_protocol_all(gossip_protocol)
        sim.run()
        assert all(sim.returns[pid] == frozenset(range(5)) for pid in range(5))
        # 5 processes broadcast to 5 destinations each.
        assert sim.metrics.messages_delivered == 25

    def test_self_delivery_counts(self):
        sim = make_sim(n=1)
        sim.set_protocol_all(gossip_protocol)
        sim.run()
        assert sim.returns[0] == frozenset({0})

    def test_same_seed_same_run(self):
        results = []
        for _ in range(2):
            sim = make_sim(n=6, seed=9)
            sim.set_protocol_all(gossip_protocol)
            sim.run()
            results.append((sim.deliveries, dict(sim.returns)))
        assert results[0] == results[1]

    def test_invalid_destination_rejected(self):
        sim = make_sim(n=3)

        def bad(ctx):
            ctx.send(7, Ping("x"))
            return None
            yield

        sim.set_protocol(0, bad)
        sim.set_protocol(1, gossip_protocol)
        sim.set_protocol(2, gossip_protocol)
        with pytest.raises(ValueError):
            sim.run()

    def test_missing_protocol_rejected(self):
        sim = make_sim(n=2)
        sim.set_protocol(0, gossip_protocol)
        with pytest.raises(RuntimeError):
            sim.run()

    def test_simulation_runs_once(self):
        sim = make_sim(n=2)
        sim.set_protocol_all(gossip_protocol)
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()


class TestWaitConditions:
    def test_immediate_condition_never_blocks(self):
        sim = make_sim(n=2)

        def instant(ctx):
            value = yield Wait(lambda mailbox: "done")
            return value

        sim.set_protocol_all(instant)
        sim.run()
        assert sim.returns == {0: "done", 1: "done"}

    def test_buffered_messages_satisfy_new_waits(self):
        # A process that yields *after* messages arrived must still see them.
        sim = make_sim(n=3, seed=3)

        def late_waiter(ctx):
            ctx.broadcast(Ping("g", payload=ctx.pid))
            # First wait: everything from pid 0 only.
            got = yield Wait(
                lambda mailbox: True if len(mailbox.stream("g")) >= 3 else None
            )
            # Second wait over the same instance, starting from scratch.
            count = yield Wait(
                lambda mailbox: (
                    len(mailbox.stream("g")) if len(mailbox.stream("g")) >= 3 else None
                )
            )
            return (got, count)

        sim.set_protocol_all(late_waiter)
        sim.run()
        assert all(value[0] is True and value[1] >= 3 for value in sim.returns.values())

    def test_deadlock_detected(self):
        sim = make_sim(n=2)

        def waits_forever(ctx):
            yield Wait(lambda mailbox: None)

        sim.set_protocol_all(waits_forever)
        sim.run()
        assert sim.deadlocked
        assert not sim.exhausted

    def test_max_deliveries_flags_exhaustion(self):
        sim = make_sim(n=3, max_deliveries=4)

        def chatter(ctx):
            ctx.broadcast(Ping("c"))
            seen = 0

            def got_new(mailbox):
                nonlocal seen
                if len(mailbox.stream("c")) > seen:
                    seen = len(mailbox.stream("c"))
                    return True
                return None

            while True:
                yield Wait(got_new)
                ctx.broadcast(Ping("c"))

        sim.set_protocol_all(chatter)
        sim.run()
        assert sim.exhausted

    def test_stop_condition_halts_early(self):
        sim = make_sim(
            n=3,
            stop_condition=lambda s: 0 in s.decided,
        )

        def decider(ctx):
            ctx.broadcast(Ping("d"))
            yield Wait(lambda mailbox: len(mailbox.stream("d")) or None)
            ctx.decide("v")
            yield Wait(lambda mailbox: None)  # never returns

        sim.set_protocol_all(decider)
        sim.run()
        assert sim.stopped_by_condition
        assert not sim.deadlocked


class TestCorruption:
    def test_static_corruption_installs_behavior(self):
        sim = make_sim(n=4, f=2, corrupt={0, 1})
        sim.set_protocol_all(gossip_protocol)
        sim.run()
        # Correct processes still hear from everyone *correct*; byzantine
        # are silent, so the gossip wait can never complete -> deadlock.
        assert sim.deadlocked
        assert sim.corrupted == {0, 1}

    def test_corruption_budget_enforced(self):
        sim = make_sim(n=4, f=1, corrupt={0, 1, 2})
        sim.set_protocol_all(gossip_protocol)
        sim.run()
        assert len(sim.corrupted) == 1

    def test_adaptive_corruption_caps_at_f(self):
        pki = PKI.create(5, rng=random.Random(0))
        adversary = Adversary(
            scheduler=RandomScheduler(random.Random(0)),
            corruption=AdaptiveFirstSpeakersCorruption(),
        )
        sim = Simulation(n=5, f=2, pki=pki, adversary=adversary, seed=0)
        sim.set_protocol_all(gossip_protocol)
        sim.run()
        assert len(sim.corrupted) == 2

    def test_no_after_the_fact_removal(self):
        # Messages sent while correct are delivered even after corruption.
        pki = PKI.create(3, rng=random.Random(0))
        adversary = Adversary(
            scheduler=FIFOScheduler(),
            corruption=AdaptiveFirstSpeakersCorruption(),
        )
        sim = Simulation(n=3, f=1, pki=pki, adversary=adversary, seed=0)
        sim.set_protocol_all(gossip_protocol)
        sim.run()
        survivors = [pid for pid in range(3) if pid not in sim.corrupted]
        # The corrupted process broadcast before being corrupted, so every
        # correct process still heard from all 3 senders.
        for pid in survivors:
            assert sim.returns[pid] == frozenset(range(3))

    def test_byzantine_behavior_can_send(self):
        flood = ScriptedBehavior(
            on_start=lambda ctx: ctx.broadcast(Ping("gossip", payload=-1))
        )
        pki = PKI.create(3, rng=random.Random(0))
        adversary = Adversary(
            scheduler=RandomScheduler(random.Random(0)),
            corruption=StaticCorruption({2}),
            behavior_factory=lambda pid: flood,
        )
        sim = Simulation(n=3, f=1, pki=pki, adversary=adversary, seed=0)
        sim.set_protocol_all(gossip_protocol)
        sim.run()
        assert sim.returns[0] == frozenset(range(3))

    def test_words_from_byzantine_not_counted(self):
        flood = ScriptedBehavior(
            on_start=lambda ctx: [ctx.broadcast(Ping("gossip")) for _ in range(10)]
        )
        pki = PKI.create(3, rng=random.Random(0))
        adversary = Adversary(
            scheduler=RandomScheduler(random.Random(0)),
            corruption=StaticCorruption({2}),
            behavior_factory=lambda pid: flood,
        )
        sim = Simulation(n=3, f=1, pki=pki, adversary=adversary, seed=0)
        sim.set_protocol_all(gossip_protocol)
        sim.run()
        # Only the two correct broadcasts count: 2 senders * 3 dests * 1 word.
        assert sim.metrics.words_correct == 6
        assert sim.metrics.words_total == 6 + 30


class TestCausalDepth:
    def test_depth_grows_along_chains(self):
        sim = make_sim(n=2, scheduler=FIFOScheduler())

        def relay(ctx):
            if ctx.pid == 0:
                ctx.send(1, Ping("hop", payload=0))
                yield Wait(lambda mailbox: True if len(mailbox.stream("hop2")) else None)
                ctx.decide("done")
                return "initiator"
            yield Wait(lambda mailbox: True if len(mailbox.stream("hop")) else None)
            ctx.send(0, Ping("hop2"))
            ctx.decide("done")
            return "responder"

        sim.set_protocol_all(relay)
        sim.run()
        # pid 1 decided at depth 1 (one hop), pid 0 at depth 2 (two hops).
        assert sim.contexts[1].decision_depth == 1
        assert sim.contexts[0].decision_depth == 2


class TestBackgroundHandlers:
    def test_handler_sees_backlog_and_future(self):
        sim = make_sim(n=3, seed=5)
        seen: dict[int, list[int]] = {}

        def protocol(ctx):
            ctx.broadcast(Ping("bg", payload=ctx.pid))
            # Wait for one message first so there is a backlog when the
            # handler is registered.
            yield Wait(lambda mailbox: True if len(mailbox.stream("bg")) >= 1 else None)
            log = seen.setdefault(ctx.pid, [])
            cursor = 0

            def handler(mailbox):
                nonlocal cursor
                stream = mailbox.stream("bg")
                while cursor < len(stream):
                    sender, _ = stream[cursor]
                    cursor += 1
                    log.append(sender)
                return "bg"

            ctx.add_background_handler(handler)
            yield Wait(lambda mailbox: True if len(mailbox.stream("bg")) >= 3 else None)
            return sorted(log)

        sim.set_protocol_all(protocol)
        sim.run()
        for pid in range(3):
            assert sim.returns[pid] == [0, 1, 2]

    def test_handler_runs_only_on_its_own_instance(self):
        sim = make_sim(n=3, seed=6)
        calls: dict[int, list[tuple[str, int]]] = {}

        def protocol(ctx):
            log = calls.setdefault(ctx.pid, [])

            def handler(mailbox):
                log.append(("bg", len(mailbox.stream("bg"))))
                return "bg"

            ctx.add_background_handler(handler)
            ctx.broadcast(Ping("bg", payload=ctx.pid))
            ctx.broadcast(Ping("other", payload=ctx.pid))
            yield Wait(
                lambda mailbox: True
                if len(mailbox.stream("bg")) + len(mailbox.stream("other")) >= 6 else None
            )
            return len(ctx.mailbox.stream("bg")) + len(ctx.mailbox.stream("other"))

        sim.set_protocol_all(protocol)
        sim.run()
        for pid in range(3):
            assert sim.returns[pid] == 6
            # The catch-up call, then one call per "bg" delivery and none
            # for the three "other" deliveries.
            assert calls[pid] == [("bg", 0), ("bg", 1), ("bg", 2), ("bg", 3)]
            assert sim.contexts[pid].background_handlers.keys() == {"bg"}

    def test_catch_up_call_on_registration(self):
        sim = make_sim(n=2, seed=7)
        seen: dict[int, list[int]] = {}

        def protocol(ctx):
            ctx.broadcast(Ping("bg", payload=ctx.pid))
            yield Wait(lambda mailbox: True if len(mailbox.stream("bg")) >= 2 else None)
            log = seen.setdefault(ctx.pid, [])

            def handler(mailbox):
                log.append(len(mailbox.stream("bg")))
                return "bg"

            # Both "bg" messages are already buffered and no more come:
            # only the registration's catch-up call can see them.
            ctx.add_background_handler(handler)
            return list(log)

        sim.set_protocol_all(protocol)
        sim.run()
        for pid in range(2):
            assert sim.returns[pid] == seen[pid] == [2]

    def test_one_handler_per_instance(self):
        sim = make_sim(n=1)

        def protocol(ctx):
            ctx.add_background_handler(lambda mailbox: "bg")
            with pytest.raises(ValueError, match="already has a background handler"):
                ctx.add_background_handler(lambda mailbox: "bg")
            return "ok"
            yield

        sim.set_protocol_all(protocol)
        sim.run()
        assert sim.returns[0] == "ok"


class TestDecisions:
    def test_decision_is_irrevocable(self):
        sim = make_sim(n=1)

        def flip_flop(ctx):
            ctx.decide(0)
            ctx.decide(0)  # idempotent re-decide is fine
            with pytest.raises(RuntimeError):
                ctx.decide(1)
            return "ok"
            yield

        sim.set_protocol_all(flip_flop)
        sim.run()
        assert sim.returns[0] == "ok"
        assert sim.contexts[0].decision == 0
