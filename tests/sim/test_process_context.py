"""ProcessContext unit behaviour (rng, keys, notes, broadcast fan-out)."""

from __future__ import annotations

import random

from repro.crypto.pki import PKI
from repro.sim.adversary import Adversary, RandomScheduler
from repro.sim.network import Simulation


def make_contexts(n=4, seed=5):
    pki = PKI.create(n, rng=random.Random(seed))
    sim = Simulation(
        n=n, f=0, pki=pki,
        adversary=Adversary(scheduler=RandomScheduler(random.Random(seed))),
        seed=seed,
    )
    return sim


class TestRandomness:
    def test_per_process_rngs_are_independent(self):
        sim = make_contexts()
        streams = [
            [ctx.rng.getrandbits(8) for _ in range(8)] for ctx in sim.contexts
        ]
        assert len({tuple(stream) for stream in streams}) == sim.n

    def test_rng_reproducible_across_simulations(self):
        a = make_contexts(seed=9).contexts[2].rng.getrandbits(32)
        b = make_contexts(seed=9).contexts[2].rng.getrandbits(32)
        assert a == b

    def test_rng_differs_across_seeds(self):
        a = make_contexts(seed=9).contexts[2].rng.getrandbits(32)
        b = make_contexts(seed=10).contexts[2].rng.getrandbits(32)
        assert a != b


class TestKeys:
    def test_vrf_uses_own_key(self):
        sim = make_contexts()
        output = sim.contexts[1].vrf(b"alpha")
        assert sim.contexts[0].verify_vrf(1, b"alpha", output)
        assert not sim.contexts[0].verify_vrf(2, b"alpha", output)

    def test_sign_uses_own_key(self):
        sim = make_contexts()
        signature = sim.contexts[3].sign(b"msg")
        assert sim.contexts[0].verify_signature(3, b"msg", signature)
        assert not sim.contexts[0].verify_signature(1, b"msg", signature)


class TestBroadcast:
    def test_broadcast_reaches_every_pid_including_self(self):
        sim = make_contexts()
        from repro.sim.messages import Message

        sim.contexts[0].broadcast(Message(instance="b"))
        pool = sim._pool
        dests = sorted(pool.view(pool.seq_at(i)).dest for i in range(len(pool)))
        assert dests == list(range(sim.n))

    def test_environment_properties(self):
        sim = make_contexts()
        ctx = sim.contexts[0]
        assert ctx.n == sim.n
        assert ctx.pki is sim.pki
        assert ctx.params is None  # none installed in this fixture


class TestNotes:
    def test_notes_snapshot_into_run_result(self):
        from repro.sim.process import Wait
        from repro.sim.runner import RunResult

        sim = make_contexts()

        def noter(ctx):
            ctx.notes["flavour"] = f"p{ctx.pid}"
            return None
            yield

        sim.set_protocol_all(noter)
        sim.run()
        result = RunResult.of(sim)
        assert result.notes[2]["flavour"] == "p2"
        assert len(result.notes) == sim.n
