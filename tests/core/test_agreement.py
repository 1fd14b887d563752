"""Algorithm 4, Byzantine Agreement WHP: the Definition 6.6 properties."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.agreement import byzantine_agreement
from repro.core.params import ProtocolParams
from repro.crypto.pki import PKI
from repro.experiments.scenarios import resolve_run
from repro.sim.adversary import (
    AdaptiveFirstSpeakersCorruption,
    Adversary,
    RandomScheduler,
    StaticCorruption,
    TargetedDelayScheduler,
)
from repro.sim.runner import run_protocol, stop_when_all_decided

N, F = 60, 4
CORRUPT = {0, 1, 2, 3}


@pytest.fixture(scope="module")
def params():
    return ProtocolParams.simulation_scale(n=N, f=F, lam=45)


def ba(value_fn):
    return lambda ctx: byzantine_agreement(ctx, value_fn(ctx))


def run_ba(value_fn, params, seed, adversary=None, corrupt=CORRUPT, n=N, f=F):
    kwargs = {"adversary": adversary} if adversary else {"corrupt": corrupt}
    return run_protocol(
        n, f, ba(value_fn), params=params,
        stop_condition=stop_when_all_decided, seed=seed, **kwargs,
    )


class TestValidity:
    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_inputs_decide_that_value(self, params, value):
        result = run_ba(lambda ctx: value, params, seed=value)
        assert result.live
        assert result.all_correct_decided
        assert result.decided_values == {value}


class TestAgreementAndTermination:
    @pytest.mark.parametrize("seed", range(3))
    def test_split_inputs_agree(self, params, seed):
        result = run_ba(lambda ctx: ctx.pid % 2, params, seed=seed)
        assert result.live
        assert result.all_correct_decided
        assert result.agreement
        assert result.decided_values <= {0, 1}

    def test_decision_depth_bounded(self, params):
        # O(1) expected rounds: the causal decision depth should be far
        # below what tens of rounds would produce (each round is ~10 hops).
        result = run_ba(lambda ctx: ctx.pid % 2, params, seed=5)
        assert result.live
        assert result.duration < 400

    def test_rejects_non_binary_input(self, params):
        with pytest.raises(ValueError):
            run_ba(lambda ctx: 2, params, seed=0)


class TestAdversaries:
    def test_targeted_delay_scheduler(self, params):
        adversary = Adversary(
            scheduler=TargetedDelayScheduler(set(range(10)), random.Random(21)),
            corruption=StaticCorruption(CORRUPT),
        )
        result = run_ba(lambda ctx: ctx.pid % 2, params, seed=21, adversary=adversary)
        assert result.live
        assert result.all_correct_decided
        assert result.agreement

    def test_adaptive_corruption(self, params):
        adversary = Adversary(
            scheduler=RandomScheduler(random.Random(22)),
            corruption=AdaptiveFirstSpeakersCorruption(),
        )
        result = run_ba(lambda ctx: ctx.pid % 2, params, seed=22, adversary=adversary)
        assert result.live
        assert len(result.corrupted) == F
        # Everyone still correct decided consistently.
        assert result.all_correct_decided
        assert result.agreement

    def test_no_byzantine_at_all(self, params):
        result = run_ba(lambda ctx: ctx.pid % 2, params, seed=23, corrupt=set())
        assert result.live
        assert result.all_correct_decided
        assert result.agreement


class TestMaxRounds:
    def test_bounded_rounds_returns(self, params):
        def bounded(ctx):
            return byzantine_agreement(ctx, ctx.pid % 2, max_rounds=3)

        result = run_protocol(
            N, F, bounded, corrupt=CORRUPT, params=params, seed=24,
        )
        # With 3 rounds everyone returns (decided or not); whp they decided.
        assert result.live
        assert len(result.returns) == N - F


class TestDecisionConsistencyAcrossRounds:
    def test_early_and_late_deciders_agree(self, params):
        # Run several seeds; whenever decisions happen in different rounds
        # (visible as different decision depths) they must still agree.
        saw_spread = False
        for seed in range(3):
            result = run_ba(lambda ctx: ctx.pid % 2, params, seed=130 + seed)
            assert result.agreement
            depths = set(result.decision_depths.values())
            if len(depths) > 1:
                saw_spread = True
        assert saw_spread  # asynchrony should actually spread decisions


class TestOneDirectValidationPerSend:
    """Every receive-side check is a function of the ``(sender, message)``
    send, so a run validates each send directly at most once: its first
    receiver does, the others replay the verdict without a verify call.
    The calls that reach the PKI are therefore bounded by one
    validation's calls per send (a direct check per receiver would make
    up to n times as many)."""

    @pytest.mark.parametrize("seed", [3, 4])
    def test_whp_ba_verify_calls_stay_within_one_validation_per_send(
        self, monkeypatch, seed
    ):
        calls: Counter = Counter()
        vrf_verify, signature_verify = PKI.vrf_verify, PKI.signature_verify

        def counted_vrf(pki, *args):
            calls["vrf"] += 1
            return vrf_verify(pki, *args)

        def counted_signature(pki, *args):
            calls["sig"] += 1
            return signature_verify(pki, *args)

        monkeypatch.setattr(PKI, "vrf_verify", counted_vrf)
        monkeypatch.setattr(PKI, "signature_verify", counted_signature)
        spec = resolve_run("whp_ba", 16, seed=seed)
        result = spec.run()
        assert result.live and result.all_correct_decided
        # Every send is a broadcast by a correct process (the corrupted
        # ones are silent): n copies each.
        by_kind = result.metrics.messages_by_kind
        assert all(count % spec.n == 0 for count in by_kind.values())
        sends = Counter({kind: count // spec.n for kind, count in by_kind.items()})
        w = spec.params.committee_quorum
        # init: a membership proof.  echo: a proof and a signature.  ok: a
        # proof and W signed member echoes.  FIRST and SECOND: a proof and
        # a coin value (its VRF and its origin's FIRST membership).
        assert calls["sig"] <= sends["EchoMsg"] + w * sends["OkMsg"]
        assert calls["vrf"] <= (
            sends["InitMsg"] + sends["EchoMsg"] + (1 + w) * sends["OkMsg"]
            + 3 * (sends["FirstMsg"] + sends["SecondMsg"])
        )
        assert result.metrics.verification_cache_hits > 0
