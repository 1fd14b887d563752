"""Structural facts about Algorithm 2, checked against the event trace
and the trusted committee view."""

from __future__ import annotations

import random

import pytest

from repro.core.committees import sample_committee
from repro.core.params import ProtocolParams
from repro.core.whp_coin import whp_coin
from repro.crypto.pki import PKI
from repro.sim.adversary import Adversary, RandomScheduler, StaticCorruption
from repro.sim.flightrecorder import EventLog
from repro.sim.network import Simulation

N, F = 60, 4


@pytest.fixture(scope="module")
def setup():
    params = ProtocolParams.simulation_scale(n=N, f=F, lam=45)
    pki = PKI.create(N, rng=random.Random(321))
    sim = Simulation(
        n=N, f=F, pki=pki,
        adversary=Adversary(
            scheduler=RandomScheduler(random.Random(321)),
            corruption=StaticCorruption(set(range(F))),
        ),
        seed=321, params=params,
    )
    trace = sim.events.attach(EventLog())
    sim.set_protocol_all(lambda ctx: whp_coin(ctx, 0))
    sim.run()
    return params, pki, sim, trace


class TestSenderDiscipline:
    def test_only_first_committee_sends_first(self, setup):
        params, pki, sim, trace = setup
        first_committee = sample_committee(pki, ("whp_coin", 0), "first", params)
        senders = {event.sender for event in trace.of_kind("send")
                   if event.message_kind == "FirstMsg"}
        correct_senders = senders - sim.corrupted
        assert correct_senders <= first_committee

    def test_only_second_committee_sends_second(self, setup):
        params, pki, sim, trace = setup
        second_committee = sample_committee(pki, ("whp_coin", 0), "second", params)
        senders = {event.sender for event in trace.of_kind("send")
                   if event.message_kind == "SecondMsg"}
        correct_senders = senders - sim.corrupted
        assert correct_senders <= second_committee

    def test_each_member_broadcasts_once_per_role(self, setup):
        """Process replaceability: one broadcast (n sends) per role."""
        _, _, sim, trace = setup
        for kind in ("FirstMsg", "SecondMsg"):
            for pid in sim.correct_pids:
                sends = trace.sends_by(pid, kind)
                assert len(sends) in (0, N), (pid, kind, len(sends))

    def test_non_members_stay_silent(self, setup):
        params, pki, sim, trace = setup
        members = sample_committee(pki, ("whp_coin", 0), "first", params) | \
            sample_committee(pki, ("whp_coin", 0), "second", params)
        for pid in sim.correct_pids:
            if pid not in members:
                assert not trace.sends_by(pid)


class TestOutcome:
    def test_all_correct_return_the_same_bit(self, setup):
        _, _, sim, _ = setup
        values = {sim.returns[pid] for pid in sim.correct_pids}
        assert len(values) == 1
        assert values <= {0, 1}

    def test_output_is_lsb_of_a_first_committee_value(self, setup):
        from repro.core.messages import coin_value_alpha

        params, pki, sim, _ = setup
        first_committee = sample_committee(pki, ("whp_coin", 0), "first", params)
        alpha = coin_value_alpha(("whp_coin", 0))
        legit_lsbs = {
            pki.vrf_scheme.prove(pki.vrf_private(pid), alpha).value & 1
            for pid in first_committee
        }
        output = next(iter(sim.returns.values()))
        assert output in legit_lsbs
