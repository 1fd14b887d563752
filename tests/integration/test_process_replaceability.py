"""Process replaceability (paper Section 6.1): an adversary that corrupts
committee members *as soon as their membership is revealed* gains nothing,
because a correct member broadcasts at most one message per role -- the
contribution is in flight before the corruption can land, and the kernel
forbids after-the-fact removal.
"""

from __future__ import annotations

import random

import pytest

from repro.core.agreement import byzantine_agreement
from repro.core.params import ProtocolParams
from repro.core.whp_coin import whp_coin
from repro.sim.adversary import (
    Adversary,
    CommitteeTargetingCorruption,
    RandomScheduler,
)
from repro.sim.runner import run_protocol, stop_when_all_decided

N, F = 60, 4


@pytest.fixture(scope="module")
def params():
    return ProtocolParams.simulation_scale(n=N, f=F, lam=45)


def committee_hunting_adversary(seed: int) -> Adversary:
    return Adversary(
        scheduler=RandomScheduler(random.Random(seed)),
        corruption=CommitteeTargetingCorruption(),
    )


class TestWhpCoinSurvives:
    @pytest.mark.parametrize("seed", range(3))
    def test_coin_lives_and_agrees(self, params, seed):
        result = run_protocol(
            N, F, lambda ctx: whp_coin(ctx, 0),
            adversary=committee_hunting_adversary(seed), params=params, seed=seed,
        )
        assert result.live
        # The budget is fully spent on (useless) post-hoc corruptions.
        assert len(result.corrupted) == F
        assert len(result.returned_values) == 1


class TestAgreementSurvives:
    def test_ba_decides_despite_member_hunting(self, params):
        result = run_protocol(
            N, F, lambda ctx: byzantine_agreement(ctx, ctx.pid % 2),
            adversary=committee_hunting_adversary(17), params=params,
            stop_condition=stop_when_all_decided, seed=17,
        )
        assert result.live
        assert result.all_correct_decided
        assert result.agreement


class TestCorruptionTiming:
    def test_corrupted_members_already_spoke(self, params):
        """Every hunted process had its committee message submitted before
        corruption: the trace shows a send before the corrupt event."""
        from repro.crypto.pki import PKI
        from repro.sim.flightrecorder import FlightRecorder
        from repro.sim.network import Simulation

        pki = PKI.create(N, rng=random.Random(0))
        sim = Simulation(
            n=N, f=F, pki=pki, adversary=committee_hunting_adversary(5),
            seed=5, params=params,
        )
        trace = sim.events.attach(FlightRecorder())
        sim.set_protocol_all(lambda ctx: whp_coin(ctx, 0))
        sim.run()
        corrupt_events = trace.of_kind("corrupt")
        assert corrupt_events
        for event in corrupt_events:
            first_send = trace.sends_by(event.pid)[0]
            assert first_send.step <= event.step
