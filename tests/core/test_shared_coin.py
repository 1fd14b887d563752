"""Algorithm 1, the full-participation shared coin.

Covers liveness (Lemma 4.11), output validity, Byzantine value-forgery
rejection (VRF uniqueness in action), and a Monte-Carlo agreement-rate
check against Theorem 4.13's bound.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.bounds import shared_coin_success_bound
from repro.core.messages import CoinValue, FirstMsg, SecondMsg, coin_value_alpha
from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.crypto.pki import PKI
from repro.crypto.vrf import VRFOutput
from repro.sim.adversary import (
    Adversary,
    FIFOScheduler,
    RandomScheduler,
    StaticCorruption,
    TargetedDelayScheduler,
)
from repro.sim.byzantine import ScriptedBehavior, SilentBehavior
from repro.sim.runner import run_protocol

from tests.core.per_send import ReplaysFirst, replaying, same_run, unstepped


def coin_protocol(round_id=0):
    return lambda ctx: shared_coin(ctx, round_id)


def genuine_values(pki, round_id=0):
    """The legitimate VRF coin values of every process (trusted view)."""
    alpha = coin_value_alpha(("shared_coin", round_id))
    return [
        pki.vrf_scheme.prove(pki.vrf_private(pid), alpha).value
        for pid in range(pki.n)
    ]


class TestLiveness:
    def test_no_failures_all_return(self):
        result = run_protocol(10, 0, coin_protocol(), params=ProtocolParams(n=10, f=0), seed=1)
        assert result.live
        assert len(result.returns) == 10

    @pytest.mark.parametrize("seed", range(4))
    def test_f_silent_processes(self, seed):
        result = run_protocol(
            16, 5, coin_protocol(), corrupt={0, 1, 2, 3, 4},
            params=ProtocolParams(n=16, f=5), seed=seed,
        )
        assert result.live
        assert len(result.returns) == 11

    def test_under_fifo_scheduler(self):
        adversary = Adversary(scheduler=FIFOScheduler())
        result = run_protocol(
            12, 0, coin_protocol(), adversary=adversary,
            params=ProtocolParams(n=12, f=0), seed=2,
        )
        assert result.live

    def test_under_targeted_delay(self):
        adversary = Adversary(
            scheduler=TargetedDelayScheduler({0, 1}, random.Random(3)),
            corruption=StaticCorruption(set()),
        )
        result = run_protocol(
            12, 2, coin_protocol(), adversary=adversary,
            params=ProtocolParams(n=12, f=2), seed=3,
        )
        assert result.live


class TestOutput:
    def test_outputs_are_bits(self):
        result = run_protocol(10, 0, coin_protocol(), params=ProtocolParams(n=10, f=0), seed=4)
        assert result.returned_values <= {0, 1}

    def test_no_failures_output_is_global_min_lsb(self):
        # With f = 0 every process waits for everyone, so all hold the
        # global minimum and the output is its LSB deterministically.
        pki = PKI.create(10, rng=random.Random(77))
        result = run_protocol(
            10, 0, coin_protocol(), pki=pki, params=ProtocolParams(n=10, f=0), seed=5,
        )
        expected = min(genuine_values(pki)) & 1
        assert result.returned_values == {expected}

    def test_word_complexity_quadratic(self):
        # 2 phases x n broadcasts x n destinations x 2 words.
        n = 12
        result = run_protocol(n, 0, coin_protocol(), params=ProtocolParams(n=n, f=0), seed=6)
        assert result.words == 2 * n * n * 2

    def test_different_rounds_independent(self):
        outputs = {}
        pki = PKI.create(10, rng=random.Random(78))
        for round_id in range(8):
            result = run_protocol(
                10, 0, coin_protocol(round_id), pki=pki,
                params=ProtocolParams(n=10, f=0), seed=7,
            )
            outputs[round_id] = result.returned_values.pop()
        assert set(outputs.values()) == {0, 1}


class TestByzantineResistance:
    def _run_with_behavior(self, behavior_factory, pki, seed=8):
        n, f = pki.n, 3
        adversary = Adversary(
            scheduler=RandomScheduler(random.Random(seed)),
            corruption=StaticCorruption({0, 1, 2}),
            behavior_factory=behavior_factory,
        )
        return run_protocol(
            n, f, coin_protocol(), adversary=adversary, pki=pki,
            params=ProtocolParams(n=n, f=f), seed=seed,
        )

    def _find_seed_with_min_lsb_one(self, n=12):
        for key_seed in range(200):
            pki = PKI.create(n, rng=random.Random(1000 + key_seed))
            if min(genuine_values(pki)) & 1 == 1:
                return pki
        raise AssertionError("no keyset with min-LSB 1 found")

    def test_forged_zero_value_rejected(self):
        # A Byzantine floods FIRST/SECOND messages claiming value 0 with a
        # junk proof.  0 would win every minimum, so if any correct process
        # accepted it the output would be 0; we pick keys where the
        # genuine global minimum has LSB 1 and assert the output stays 1.
        pki = self._find_seed_with_min_lsb_one()
        instance = ("shared_coin", 0)

        def forge(ctx):
            fake = CoinValue(
                value=0, origin=ctx.pid, vrf=VRFOutput(value=0, proof=b"\x00" * 32)
            )
            ctx.broadcast(FirstMsg(instance, coin_value=fake))
            ctx.broadcast(SecondMsg(instance, coin_value=fake))

        result = self._run_with_behavior(
            lambda pid: ScriptedBehavior(on_start=forge), pki
        )
        assert result.live
        assert result.returned_values == {1}

    def test_stolen_value_with_wrong_origin_rejected(self):
        # Byzantine claims another process's (small) value as its own:
        # origin != sender on FIRST must be ignored.
        pki = self._find_seed_with_min_lsb_one()
        instance = ("shared_coin", 0)
        alpha = coin_value_alpha(instance)

        def steal(ctx):
            victim = (ctx.pid + 5) % ctx.n
            # The adversary cannot compute the victim's VRF, so it replays
            # a zero-output with the victim's name; validation must fail
            # on the VRF check regardless of origin labelling.
            fake = CoinValue(
                value=0, origin=victim, vrf=VRFOutput(value=0, proof=b"junk")
            )
            ctx.broadcast(SecondMsg(instance, coin_value=fake))

        result = self._run_with_behavior(
            lambda pid: ScriptedBehavior(on_start=steal), pki
        )
        assert result.live
        assert result.returned_values == {1}

    def test_byzantine_revealing_own_value_is_harmless(self):
        # A Byzantine that follows the protocol with its genuine value is
        # indistinguishable from a correct process.
        pki = PKI.create(12, rng=random.Random(55))
        instance = ("shared_coin", 0)

        def honest_ish(ctx):
            output = ctx.vrf(coin_value_alpha(instance))
            mine = CoinValue(value=output.value, origin=ctx.pid, vrf=output)
            ctx.broadcast(FirstMsg(instance, coin_value=mine))
            ctx.broadcast(SecondMsg(instance, coin_value=mine))

        result = self._run_with_behavior(
            lambda pid: ScriptedBehavior(on_start=honest_ish), pki
        )
        assert result.live
        assert len(result.returned_values) == 1

    def test_malformed_coin_value_field_discarded(self):
        pki = PKI.create(12, rng=random.Random(56))
        instance = ("shared_coin", 0)

        def malformed(ctx):
            ctx.broadcast(FirstMsg(instance, coin_value=None))
            ctx.broadcast(SecondMsg(instance, coin_value=None))
            ctx.broadcast(SecondMsg(instance, coin_value="0"))

        result = self._run_with_behavior(
            lambda pid: ScriptedBehavior(on_start=malformed), pki
        )
        assert result.live
        assert len(result.returns) == 12 - 3


class TestReplayedMessages:
    """A correct FIRST re-broadcast by a Byzantine process as its own
    names another origin, so every correct receiver rejects it.  A
    replayed SECOND is a different matter: Algorithm 1 lets anyone relay
    a valid minimum, so it counts as the replayer's own SECOND.  Either
    way the very object counts exactly as an equal copy does."""

    CORRUPT = frozenset({0, 1, 2})

    def _run(self, behavior_factory):
        n, f = 12, 3
        adversary = Adversary(
            scheduler=ReplaysFirst(self.CORRUPT),
            corruption=StaticCorruption(self.CORRUPT),
            behavior_factory=behavior_factory,
        )
        return run_protocol(
            n, f, coin_protocol(), adversary=adversary,
            pki=PKI.create(n, rng=random.Random(4800)),
            params=ProtocolParams(n=n, f=f), seed=23,
        )

    def test_replayed_first_counts_for_nobody(self):
        silent = self._run(lambda pid: SilentBehavior())
        replayed = self._run(replaying(FirstMsg, self.CORRUPT))
        copied = self._run(replaying(FirstMsg, self.CORRUPT, same_object=False))
        assert replayed.live and replayed.deliveries > silent.deliveries
        assert replayed.returns == silent.returns
        assert unstepped(replayed) == unstepped(silent)
        assert same_run(replayed, copied)

    def test_replayed_second_counts_as_the_replayers_own(self):
        replayed = self._run(replaying(SecondMsg, self.CORRUPT))
        copied = self._run(replaying(SecondMsg, self.CORRUPT, same_object=False))
        assert replayed.live
        assert same_run(replayed, copied)


class TestAgreementRate:
    def test_agreement_rate_beats_paper_bound(self):
        # Monte-Carlo over seeds with f silent Byzantine processes and
        # random scheduling.  epsilon = 1/3 - 3/16 ~ 0.146; the paper
        # bound is ~0.23, and the oblivious scheduler should do far
        # better -- we assert the (much weaker) bound itself.
        n, f = 16, 3
        params = ProtocolParams(n=n, f=f)
        agreements = 0
        trials = 30
        for seed in range(trials):
            result = run_protocol(
                n, f, coin_protocol(), corrupt={0, 1, 2}, params=params, seed=seed,
            )
            assert result.live
            if len(result.returned_values) == 1:
                agreements += 1
        bound = shared_coin_success_bound(params.epsilon)
        # Success rate >= 2 * rho (rho per outcome, two outcomes).
        assert agreements / trials >= 2 * bound
