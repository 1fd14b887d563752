"""Lossy-link fault injection: config validation, fates, determinism.

The lossy layer is a documented *extension* of the paper's reliable-link
model (DESIGN.md section 13): every submitted message gets at most one
fate -- drop, duplicate, reorder, bit-corrupt -- decided purely from the
run seed and the envelope seq.  These tests pin the contract the fuzzer
depends on: an inactive config is byte-invisible, fates are
deterministic and replayable, and batched delivery declines to the
classic stepping loop when a lossy config is active.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.crypto.pki import PKI
from repro.sim.adversary import (
    Adversary,
    FIFOScheduler,
    RandomScheduler,
    ReplayScheduler,
    StaticCorruption,
)
from repro.sim.events import event_to_record
from repro.sim.flightrecorder import FlightRecorder
from repro.sim.messages import Message
from repro.sim.network import LossyLinkConfig, Simulation
from repro.sim.process import Wait


@dataclass
class Ping(Message):
    payload: int = 0

    def words(self) -> int:
        return 1


def make_sim(n=4, seed=0, scheduler=None, **kwargs):
    pki = PKI.create(n, rng=random.Random(seed))
    adversary = Adversary(
        scheduler=scheduler or RandomScheduler(random.Random(seed)),
        corruption=StaticCorruption(set()),
    )
    return Simulation(n=n, f=0, pki=pki, adversary=adversary, seed=seed, **kwargs)


def gossip_protocol(ctx):
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


def tagged_gossip_protocol(ctx):
    """Like gossip, but returns the (sender, payload) pairs received."""
    ctx.broadcast(Ping("gossip", payload=ctx.pid))
    seen = []
    cursor = 0

    def all_heard(mailbox):
        nonlocal cursor
        stream = mailbox.stream("gossip")
        while cursor < len(stream):
            sender, message = stream[cursor]
            cursor += 1
            seen.append((sender, message.payload))
        if len(seen) >= ctx.n:
            return tuple(sorted(seen))
        return None

    return (yield Wait(all_heard))


def run_gossip(n=4, seed=0, recorder=None, **kwargs):
    sim = make_sim(n=n, seed=seed, **kwargs)
    if recorder is not None:
        sim.events.attach(recorder)
    sim.set_protocol_all(gossip_protocol)
    sim.run()
    return sim


class TestConfigValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            LossyLinkConfig(drop_rate=-0.1)
        with pytest.raises(ValueError):
            LossyLinkConfig(duplicate_rate=1.5)

    def test_rates_must_be_mutually_exclusive(self):
        with pytest.raises(ValueError):
            LossyLinkConfig(drop_rate=0.6, duplicate_rate=0.6)

    def test_reorder_hold_positive(self):
        with pytest.raises(ValueError):
            LossyLinkConfig(reorder_hold=0)

    def test_per_link_one_level_deep(self):
        inner = LossyLinkConfig(drop_rate=0.5)
        with pytest.raises(ValueError):
            LossyLinkConfig(
                per_link={(0, 1): LossyLinkConfig(per_link={(1, 2): inner})}
            )

    def test_active_property(self):
        assert not LossyLinkConfig().active
        assert LossyLinkConfig(drop_rate=0.1).active
        assert LossyLinkConfig(
            per_link={(0, 1): LossyLinkConfig(corrupt_rate=0.2)}
        ).active

    def test_dict_round_trip(self):
        config = LossyLinkConfig(
            drop_rate=0.1,
            duplicate_rate=0.2,
            reorder_hold=8,
            per_link={(2, 3): LossyLinkConfig(corrupt_rate=0.5)},
        )
        assert LossyLinkConfig.from_dict(config.to_dict()) == config

    def test_simulation_rejects_non_config(self):
        with pytest.raises(TypeError):
            make_sim(lossy={"drop_rate": 0.5})


class TestInactiveConfigIsInvisible:
    def test_zero_rate_config_matches_no_config(self):
        recordings = []
        for lossy in (None, LossyLinkConfig()):
            recorder = FlightRecorder()
            sim = run_gossip(seed=3, lossy=lossy, recorder=recorder)
            recordings.append(
                ([event_to_record(e) for e in recorder.events], sim.returns)
            )
        assert recordings[0] == recordings[1]
        assert run_gossip(lossy=LossyLinkConfig()).lossy_counters == {
            "drops": 0, "duplicates": 0, "reorders": 0, "corruptions": 0,
        }


class TestFates:
    def test_drop_everything_deadlocks_cleanly(self):
        sim = run_gossip(n=3, lossy=LossyLinkConfig(drop_rate=1.0))
        assert sim.metrics.messages_delivered == 0
        assert sim.lossy_counters["drops"] == 9
        # Senders still paid for the eaten messages.
        assert sim.metrics.messages_sent_total == 9
        assert sim.returns == {}

    def test_duplicates_inflate_deliveries_not_sends(self):
        sim = run_gossip(n=4, seed=1, lossy=LossyLinkConfig(duplicate_rate=0.9))
        duplicates = sim.lossy_counters["duplicates"]
        assert duplicates > 0
        assert sim.metrics.messages_sent_total == 16
        assert sim.metrics.messages_delivered == 16 + duplicates
        # Gossip is idempotent: everyone still hears everyone.
        assert all(sim.returns[pid] == frozenset(range(4)) for pid in range(4))

    def test_reorder_holds_then_releases(self):
        sim = run_gossip(
            n=4, seed=2,
            lossy=LossyLinkConfig(reorder_rate=1.0, reorder_hold=4),
        )
        assert sim.lossy_counters["reorders"] == 16
        # Held messages are released, never withheld forever.
        assert sim.metrics.messages_delivered == 16
        assert all(sim.returns[pid] == frozenset(range(4)) for pid in range(4))

    def test_corruption_flips_one_bit_in_payload(self):
        sim = make_sim(n=3, seed=4, lossy=LossyLinkConfig(corrupt_rate=1.0))
        sim.set_protocol_all(tagged_gossip_protocol)
        sim.run()
        assert sim.lossy_counters["corruptions"] == 9
        # Every delivered payload differs from what its sender broadcast
        # (the sender's pid) -- exactly one flipped bit.
        for pid in range(3):
            pairs = sim.returns[pid]
            assert len(pairs) == 3
            for sender, payload in pairs:
                assert payload != sender
                assert bin(payload ^ sender).count("1") == 1

    def test_per_link_override_scopes_the_fault(self):
        lossy = LossyLinkConfig(
            per_link={(0, 1): LossyLinkConfig(drop_rate=1.0)}
        )
        sim = run_gossip(n=3, lossy=lossy)
        assert sim.lossy_counters["drops"] == 1
        # Process 1 never hears from 0 and stays blocked; the other
        # links are reliable, so 0 and 2 complete normally.
        assert set(sim.returns) == {0, 2}
        assert sim.returns[0] == frozenset(range(3))
        assert sim.returns[2] == frozenset(range(3))


class TestDeterminismAndReplay:
    LOSSY = LossyLinkConfig(
        drop_rate=0.1, duplicate_rate=0.2, reorder_rate=0.2, corrupt_rate=0.1
    )

    def _events(self, **kwargs):
        recorder = FlightRecorder()
        sim = run_gossip(
            n=5, seed=7, lossy=self.LOSSY,
            recorder=recorder, **kwargs
        )
        return [event_to_record(e) for e in recorder.events], sim, recorder

    def test_same_seed_same_fates(self):
        a, sim_a, _ = self._events()
        b, sim_b, _ = self._events()
        assert a == b
        assert sim_a.lossy_counters == sim_b.lossy_counters

    def test_lossy_run_replays_seq_exactly(self):
        original, _, recorder = self._events()
        replay = FlightRecorder()
        sim = run_gossip(
            n=5, seed=7, lossy=self.LOSSY,
            scheduler=ReplayScheduler(
                recorder.delivery_order(), seqs=recorder.delivery_seqs()
            ),
            recorder=replay,
        )
        assert [event_to_record(e) for e in replay.events] == original


class TestFastLoopUnderLossyLinks:
    def test_fast_loop_commits_no_batch_and_matches_reference(self):
        """While a lossy config is active the fast loop never consults
        ``drain`` (a hold breaks the drain contract's commitment), so a
        draining scheduler delivers batches of one -- and agrees with the
        reference loop event for event."""
        lossy = LossyLinkConfig(duplicate_rate=0.3, reorder_rate=0.3, reorder_hold=4)
        results = {}
        for mode in ("classic", "batched"):
            recorder = FlightRecorder()
            sim = run_gossip(
                n=4, seed=9, lossy=lossy,
                scheduler=FIFOScheduler(),
                delivery_mode=mode,
                recorder=recorder,
            )
            results[mode] = (
                [event_to_record(e) for e in recorder.events],
                sim.returns,
                sim.lossy_counters,
            )
            assert sim.batched_deliveries == 0 and sim.drain_batches == 0
            assert sim.lossy_counters["reorders"] > 0
        assert results["classic"] == results["batched"]
