"""Committee-targeted lossy overrides: resolution order, zero-rate wins.

The degradation observatory's ``targeted_committee_drop`` scenario
(DESIGN.md section 14) aims loss at specific links via
``LossyLinkConfig.per_link`` and the ``LossyLinkConfig.targeted``
builder.  These tests pin the override contract that scenario depends
on: a per-link override *replaces* the base rates wholesale (so an
all-zero override on a lossy base makes that one link reliable), the
targeted builder covers exactly the requested links while keeping any
base overrides it doesn't shadow, and fates under a per-link config are
deterministic and seq-exact replayable just like uniform ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.pki import PKI
from repro.sim.adversary import (
    Adversary,
    RandomScheduler,
    ReplayScheduler,
    StaticCorruption,
)
from repro.sim.events import event_to_record
from repro.sim.flightrecorder import EventLog
from repro.sim.messages import Message
from repro.sim.network import LossyLinkConfig, Simulation
from repro.sim.process import Wait


@dataclass
class Ping(Message):
    payload: int = 0

    def words(self) -> int:
        return 1


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


def run_gossip(n=4, seed=0, scheduler=None, recorder=None, lossy=None):
    pki = PKI.create(n, rng=random.Random(seed))
    adversary = Adversary(
        scheduler=scheduler or RandomScheduler(random.Random(seed)),
        corruption=StaticCorruption(set()),
    )
    sim = Simulation(n=n, f=0, pki=pki, adversary=adversary, seed=seed, lossy=lossy)
    if recorder is not None:
        sim.events.attach(recorder)
    sim.set_protocol_all(gossip_protocol)
    sim.run()
    return sim


class TestResolutionOrder:
    def test_override_replaces_base_rates_wholesale(self):
        base = LossyLinkConfig(
            drop_rate=0.5,
            per_link={(0, 1): LossyLinkConfig(duplicate_rate=0.9)},
        )
        effective = base.rates_for(0, 1)
        # The override is used as-is: the base's drop_rate does NOT bleed
        # through onto an overridden link.
        assert effective.duplicate_rate == 0.9
        assert effective.drop_rate == 0.0
        # Links without an override fall back to the base rates.
        assert base.rates_for(1, 0) is base
        assert base.rates_for(0, 2).drop_rate == 0.5

    def test_targeted_covers_exactly_the_requested_links(self):
        config = LossyLinkConfig.targeted(
            3, senders={0}, dests={2}, drop_rate=0.7
        )
        override = LossyLinkConfig(drop_rate=0.7)
        expected = {(0, dest) for dest in range(3)} | {
            (sender, 2) for sender in range(3)
        }
        assert set(config.per_link) == expected
        assert all(config.per_link[link] == override for link in expected)
        # Untargeted links stay on the (lossless) base.
        assert config.rates_for(1, 0) == config
        assert config.drop_rate == 0.0

    def test_targeted_keeps_base_overrides_but_shadows_them(self):
        base = LossyLinkConfig(
            drop_rate=0.5,
            per_link={
                (2, 0): LossyLinkConfig(corrupt_rate=1.0),
                (1, 0): LossyLinkConfig(duplicate_rate=1.0),
            },
        )
        config = LossyLinkConfig.targeted(
            3, senders={2}, base=base, drop_rate=0.9
        )
        # Base rates survive on the top level; the untouched base
        # override survives; the targeted link's base override loses.
        assert config.drop_rate == 0.5
        assert config.per_link[(1, 0)] == LossyLinkConfig(duplicate_rate=1.0)
        assert config.per_link[(2, 0)] == LossyLinkConfig(drop_rate=0.9)

    def test_targeted_round_trips_through_dict(self):
        config = LossyLinkConfig.targeted(
            4, senders={1, 3}, drop_rate=0.4,
            base=LossyLinkConfig(duplicate_rate=0.1),
        )
        assert LossyLinkConfig.from_dict(config.to_dict()) == config


class TestZeroRateOverrideHonored:
    def test_reliable_island_on_a_fully_lossy_base(self):
        # Everything drops except the one link overridden back to
        # all-zero rates: an explicit zero override must be honored, not
        # treated as "no override".
        lossy = LossyLinkConfig(
            drop_rate=1.0, per_link={(0, 1): LossyLinkConfig()}
        )
        sim = run_gossip(n=3, lossy=lossy)
        # 9 broadcasts (self-links included); only 0 -> 1 survives.
        assert sim.metrics.messages_sent_total == 9
        assert sim.metrics.messages_delivered == 1
        assert sim.lossy_counters["drops"] == 8
        assert sim.returns == {}


class TestTargetedDeterminismAndReplay:
    LOSSY = LossyLinkConfig.targeted(
        5, senders={1, 3}, drop_rate=0.3, duplicate_rate=0.3,
        base=LossyLinkConfig(reorder_rate=0.2),
    )

    def _events(self, scheduler=None):
        recorder = EventLog()
        sim = run_gossip(
            n=5, seed=11, lossy=self.LOSSY,
            scheduler=scheduler, recorder=recorder,
        )
        return [event_to_record(e) for e in recorder.events], sim, recorder

    def test_same_seed_same_fates(self):
        a, sim_a, _ = self._events()
        b, sim_b, _ = self._events()
        assert a == b
        assert sim_a.lossy_counters == sim_b.lossy_counters
        # The targeted config actually fired at least one targeted fate.
        assert sim_a.lossy_counters["drops"] + sim_a.lossy_counters["duplicates"] > 0

    def test_seq_exact_replay_reproduces_targeted_fates(self):
        original, _, recorder = self._events()
        replayed, _, _ = self._events(
            scheduler=ReplayScheduler(recorder.schedule())
        )
        assert replayed == original


class TestCommitteeTargetedScenario:
    def test_overrides_cover_exactly_the_round0_committee_outlinks(self):
        from repro.core.committees import sample_committee
        from repro.crypto.hashing import derive_seed
        from repro.experiments.scenarios import resolve_run

        n, seed = 8, 0
        spec = resolve_run("targeted_committee_drop", n, seed=seed)
        assert spec.lossy is not None and spec.lossy.active
        # Recompute the round-0 WHP-coin committees from the same trusted
        # setup the scenario builder derives.
        pki = PKI.create(n, rng=random.Random(derive_seed(seed, "setup")))
        instance = ("whp_coin", ("ba", 0))
        members = sample_committee(pki, instance, "first", spec.params) | (
            sample_committee(pki, instance, "second", spec.params)
        )
        assert members
        senders = {sender for sender, _ in spec.lossy.per_link}
        assert senders == members
        assert set(spec.lossy.per_link) == {
            (sender, dest) for sender in members for dest in range(n)
        }
        for link in spec.lossy.per_link:
            assert spec.lossy.per_link[link].drop_rate == spec.rate
        # Non-committee links stay on the lossless base.
        assert spec.lossy.drop_rate == 0.0

    def test_zero_rate_builds_a_reliable_scenario(self):
        from repro.experiments.scenarios import resolve_run

        spec = resolve_run("targeted_committee_drop", 8, rate=0.0)
        assert spec.lossy is None
        # repr(rate): the name resolves back to exactly this rate.
        assert spec.name == "targeted_committee_drop@0.0"
