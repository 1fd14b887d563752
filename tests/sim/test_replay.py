"""Record-and-replay: a traced run re-executes identically."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.core.whp_coin import whp_coin
from repro.crypto.pki import PKI
from repro.sim.adversary import (
    Adversary,
    RandomScheduler,
    ReplayScheduler,
    StaticCorruption,
)
from repro.sim.flightrecorder import FlightRecorder
from repro.sim.lossy import LossyLinkConfig
from repro.sim.messages import Message
from repro.sim.network import Simulation
from repro.sim.process import Wait

N, F = 12, 2


def record_run(protocol, params, seed=7):
    pki = PKI.create(N, rng=random.Random(seed))
    sim = Simulation(
        n=N, f=F, pki=pki,
        adversary=Adversary(
            scheduler=RandomScheduler(random.Random(seed)),
            corruption=StaticCorruption({0, 1}),
        ),
        seed=seed, params=params,
    )
    trace = sim.events.attach(FlightRecorder())
    sim.set_protocol_all(protocol)
    sim.run()
    return pki, sim, trace


def replay_run(protocol, params, pki, schedule, seed=7):
    sim = Simulation(
        n=N, f=F, pki=pki,
        adversary=Adversary(
            scheduler=ReplayScheduler(schedule),
            corruption=StaticCorruption({0, 1}),
        ),
        seed=seed, params=params,
    )
    sim.set_protocol_all(protocol)
    sim.run()
    return sim


class TestReplay:
    def test_shared_coin_replays_identically(self):
        params = ProtocolParams(n=N, f=F)
        protocol = lambda ctx: shared_coin(ctx, 0)
        pki, original, trace = record_run(protocol, params)
        replayed = replay_run(protocol, params, pki, trace.schedule())
        assert replayed.returns == original.returns
        assert replayed.deliveries == original.deliveries
        assert replayed.metrics.words_correct == original.metrics.words_correct

    def test_whp_coin_replays_identically(self):
        params = ProtocolParams.simulation_scale(n=N, f=F, lam=10, d=0.05)
        protocol = lambda ctx: whp_coin(ctx, 0)
        pki, original, trace = record_run(protocol, params)
        replayed = replay_run(protocol, params, pki, trace.schedule())
        assert replayed.returns == original.returns

    def test_divergent_replay_detected(self):
        params = ProtocolParams(n=N, f=F)
        protocol = lambda ctx: shared_coin(ctx, 0)
        pki, _, trace = record_run(protocol, params)
        schedule = list(trace.schedule())
        # Corrupt the schedule: demand step 5's seq on a link it is not on.
        schedule[5] = (schedule[5][0], N - 1, N - 1)
        with pytest.raises(RuntimeError, match="diverged"):
            replay_run(protocol, params, pki, schedule)

    def test_replay_scheduler_declines_batched_drain(self):
        """A replay schedule cannot promise submission-insensitive
        batches, so it must return None from ``drain`` -- that is what
        makes the fast loop ask ``choose`` for every delivery instead of
        diverging (see the batched-kernel equivalence tests)."""
        scheduler = ReplayScheduler([(0, 0, 1), (1, 1, 0)])
        assert scheduler.drain(pool=None, limit=8) is None


@dataclass
class Tick(Message):
    def words(self) -> int:
        return 1


def one_broadcast(ctx):
    """Process 0 broadcasts once (seqs 0, 1, 2 at n=3); everyone waits."""
    if ctx.pid == 0:
        ctx.broadcast(Tick("t"))
    yield Wait(lambda mailbox: None, instances={"never"})


class TestReplayDiagnostics:
    """A schedule the run cannot follow names the step, the seq, the
    recorded link and why the seq cannot go, with the cause the kernel
    knows (seqs 0, 1, 2 are on links (0, 0), (0, 1), (0, 2))."""

    def _diverge(self, schedule, lossy=None):
        sim = Simulation(
            n=3, f=0, pki=PKI.create(3, rng=random.Random(0)),
            adversary=Adversary(scheduler=ReplayScheduler(schedule)),
            seed=0, lossy=lossy,
        )
        sim.set_protocol_all(one_broadcast)
        with pytest.raises(RuntimeError) as raised:
            sim.run()
        return str(raised.value)

    def test_never_submitted(self):
        assert self._diverge([(0, 0, 0), (7, 0, 1)]) == (
            "replay step 1 expects seq 7 on link (0, 1), but it is not in "
            "flight (never submitted); the run diverged from the recording"
        )

    def test_already_delivered(self):
        assert self._diverge([(1, 0, 1), (1, 0, 1)]) == (
            "replay step 1 expects seq 1 on link (0, 1), but it is not in "
            "flight (already delivered); the run diverged from the recording"
        )

    def test_held_by_a_lossy_link(self):
        held = LossyLinkConfig(
            per_link={(0, 1): LossyLinkConfig(reorder_rate=1.0, reorder_hold=50)}
        )
        assert self._diverge([(0, 0, 0), (1, 0, 1)], lossy=held) == (
            "replay step 1 expects seq 1 on link (0, 1), but it is not in "
            "flight (held by a lossy link); the run diverged from the recording"
        )

    def test_wrong_link_names_both_links(self):
        assert self._diverge([(2, 0, 1)]) == (
            "replay step 0 expects seq 2 on link (0, 1), but it is in flight "
            "on link (0, 2); the run diverged from the recording"
        )
