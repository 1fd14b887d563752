"""Byzantine behaviour plumbing: hooks, corruption-time semantics."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from repro.crypto.pki import PKI
from repro.sim.adversary import (
    AdaptiveFirstSpeakersCorruption,
    Adversary,
    FIFOScheduler,
    RandomScheduler,
    StaticCorruption,
)
from repro.sim.byzantine import CrashBehavior, ScriptedBehavior, SilentBehavior
from repro.sim import network
from repro.sim.messages import Message
from repro.sim.network import Simulation
from repro.sim.process import Wait


@dataclass
class Note(Message):
    body: str = ""

    def words(self) -> int:
        return 1


def collector(ctx):
    ctx.broadcast(Note("n", body=f"from-{ctx.pid}"))
    seen = {}
    cursor = 0

    def condition(mailbox):
        nonlocal cursor
        stream = mailbox.stream("n")
        while cursor < len(stream):
            sender, msg = stream[cursor]
            cursor += 1
            seen.setdefault(sender, msg.body)
        if len(seen) >= ctx.n - ctx._simulation.f:
            return dict(seen)
        return None

    return (yield Wait(condition))


def build(n, f, corrupt, behavior_factory=None, corruption=None, seed=0):
    pki = PKI.create(n, rng=random.Random(seed))
    adversary = Adversary(
        scheduler=RandomScheduler(random.Random(seed)),
        corruption=corruption or StaticCorruption(corrupt),
        behavior_factory=behavior_factory or (lambda pid: SilentBehavior()),
    )
    sim = Simulation(n=n, f=f, pki=pki, adversary=adversary, seed=seed)
    sim.set_protocol_all(collector)
    return sim


class TestSilentAndCrash:
    def test_silent_sends_nothing(self):
        sim = build(5, 1, {0}).run()
        for pid in sim.correct_pids:
            assert "from-0" not in sim.returns[pid].values()

    def test_crash_is_silent(self):
        sim = build(5, 1, {0}, behavior_factory=lambda pid: CrashBehavior()).run()
        assert sim.metrics.messages_sent_total == 4 * 5


class TestSilentReceivers:
    """The kernel builds an envelope for a corrupted receiver only when
    its behaviour overrides the base no-op ``on_deliver``."""

    def test_silent_and_crashed_receivers_build_no_envelope(self, monkeypatch):
        built: Counter = Counter()
        envelope = network._envelope

        def counted(seq, flight, dest):
            built[dest] += 1
            return envelope(seq, flight, dest)

        monkeypatch.setattr(network, "_envelope", counted)
        sim = build(
            6, 2, {0, 1},
            behavior_factory=lambda pid: SilentBehavior() if pid else CrashBehavior(),
        ).run()
        assert sim.deliveries >= 2 * 4  # each corrupted pid got copies
        assert not built

    def test_a_listening_behaviour_sees_every_delivery(self):
        seen = []
        sim = build(
            6, 2, {0, 1},
            behavior_factory=lambda pid: ScriptedBehavior(
                on_deliver=lambda ctx, env: seen.append((ctx.pid, env.seq))
            ),
        )
        delivered = []
        sim.events.subscribe(
            lambda event: delivered.append((event.dest, event.seq))
            if event.kind == "deliver" else None
        )
        sim.run()
        assert seen
        assert sorted(seen) == sorted(d for d in delivered if d[0] in {0, 1})

    def test_an_adaptively_corrupted_pid_switches_at_its_corruption(self):
        """Even pids listen once corrupted, odd ones stay silent: a
        listener hears exactly the deliveries addressed to it from its
        corruption on, and nothing before."""
        seen = []

        def factory(pid):
            if pid % 2:
                return SilentBehavior()
            return ScriptedBehavior(
                on_deliver=lambda ctx, env: seen.append((ctx.pid, env.seq))
            )

        heard = 0
        for seed in range(6):
            seen.clear()
            sim = build(
                7, 2, set(), behavior_factory=factory,
                corruption=AdaptiveFirstSpeakersCorruption(), seed=seed,
            )
            events = []
            sim.events.subscribe(events.append)
            sim.run()
            corrupted_at = {
                event.pid: event.step for event in events if event.kind == "corrupt"
            }
            assert set(corrupted_at) == sim.corrupted and len(sim.corrupted) == 2
            expected = [
                (event.dest, event.seq)
                for event in events
                if event.kind == "deliver"
                and event.dest in corrupted_at
                and event.dest % 2 == 0
                and event.step >= corrupted_at[event.dest]
            ]
            assert seen == expected
            heard += len(seen)
        assert heard, "no even pid was corrupted"


class TestScriptedHooks:
    def test_on_start_and_on_deliver_called(self):
        calls = {"start": 0, "deliver": 0}

        def factory(pid):
            return ScriptedBehavior(
                on_start=lambda ctx: calls.__setitem__("start", calls["start"] + 1),
                on_deliver=lambda ctx, env: calls.__setitem__(
                    "deliver", calls["deliver"] + 1
                ),
            )

        sim = build(4, 1, {0}, behavior_factory=factory).run()
        assert calls["start"] == 1
        # Exactly the messages addressed to pid 0: one from each of the
        # 3 correct senders (the behaviour itself sends nothing).
        assert calls["deliver"] == 3
        assert sim.corrupted == {0}

    def test_on_corrupt_called_for_adaptive(self):
        corrupted_ctx_pids = []

        def factory(pid):
            return ScriptedBehavior(
                on_corrupt=lambda ctx: corrupted_ctx_pids.append(ctx.pid)
            )

        pki = PKI.create(4, rng=random.Random(3))
        adversary = Adversary(
            scheduler=FIFOScheduler(),
            corruption=AdaptiveFirstSpeakersCorruption(),
            behavior_factory=factory,
        )
        sim = Simulation(n=4, f=1, pki=pki, adversary=adversary, seed=3)
        sim.set_protocol_all(collector)
        sim.run()
        assert corrupted_ctx_pids == sorted(sim.corrupted)

    def test_behavior_can_use_victims_keys(self):
        """After corruption the behaviour holds the process's context and
        can sign with its keys -- the adversary's 'full access'."""
        signatures = []

        def factory(pid):
            return ScriptedBehavior(
                on_start=lambda ctx: signatures.append(ctx.sign(b"stolen"))
            )

        sim = build(4, 1, {2}, behavior_factory=factory).run()
        assert signatures
        assert sim.pki.signature_verify(2, b"stolen", signatures[0])
