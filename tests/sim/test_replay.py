"""Record-and-replay: a traced run re-executes identically."""

from __future__ import annotations

import random

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
from repro.sim.network import Simulation

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


def replay_run(protocol, params, pki, order, seed=7):
    sim = Simulation(
        n=N, f=F, pki=pki,
        adversary=Adversary(
            scheduler=ReplayScheduler(order),
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
        replayed = replay_run(protocol, params, pki, trace.delivery_order())
        assert replayed.returns == original.returns
        assert replayed.deliveries == original.deliveries
        assert replayed.metrics.words_correct == original.metrics.words_correct

    def test_whp_coin_replays_identically(self):
        params = ProtocolParams.simulation_scale(n=N, f=F, lam=10, d=0.05)
        protocol = lambda ctx: whp_coin(ctx, 0)
        pki, original, trace = record_run(protocol, params)
        replayed = replay_run(protocol, params, pki, trace.delivery_order())
        assert replayed.returns == original.returns

    def test_divergent_replay_detected(self):
        params = ProtocolParams(n=N, f=F)
        protocol = lambda ctx: shared_coin(ctx, 0)
        pki, _, trace = record_run(protocol, params)
        order = trace.delivery_order()
        # Corrupt the schedule: demand a delivery on a link that will not
        # have a message at that point.
        order[5] = (order[5][1], order[5][0])
        broken = [order[i] if i != 5 else (N - 1, N - 1) for i in range(len(order))]
        with pytest.raises(RuntimeError, match="diverged|exhausted"):
            replay_run(protocol, params, pki, broken)

    def test_replay_scheduler_declines_batched_drain(self):
        """A replay schedule cannot promise submission-insensitive
        batches, so it must return None from ``drain`` -- that is what
        makes the fast loop ask ``choose`` for every delivery instead of
        diverging (see the batched-kernel equivalence tests)."""
        scheduler = ReplayScheduler([(0, 1), (1, 0)], seqs=[0, 1])
        assert scheduler.drain(pool=None, limit=8) is None
