"""MMR BA with each pluggable coin, plus BV-broadcast internals."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mmr import (
    AuxMsg,
    BValMsg,
    _BVState,
    local_coin,
    make_shared_coin,
    mmr_agreement,
)
from repro.core.params import ProtocolParams
from repro.sim.adversary import Adversary, RandomScheduler, StaticCorruption
from repro.sim.byzantine import ScriptedBehavior
from repro.sim.mailbox import Mailbox
from repro.sim.messages import admit
from repro.sim.runner import run_protocol, stop_when_all_decided

N, F = 16, 3
CORRUPT = {0, 1, 2}
PARAMS = ProtocolParams(n=N, f=F)


def run_mmr(value_fn, coin, seed, **kwargs):
    return run_protocol(
        N, F, lambda ctx: mmr_agreement(ctx, value_fn(ctx), coin),
        corrupt=CORRUPT, params=PARAMS,
        stop_condition=stop_when_all_decided, seed=seed, **kwargs,
    )


class TestWithLocalCoin:
    @pytest.mark.parametrize("value", [0, 1])
    def test_validity(self, value):
        result = run_mmr(lambda ctx: value, local_coin, seed=value)
        assert result.live
        assert result.all_correct_decided
        assert result.decided_values == {value}

    @pytest.mark.parametrize("seed", range(4))
    def test_agreement_split_inputs(self, seed):
        result = run_mmr(lambda ctx: ctx.pid % 2, local_coin, seed=seed)
        assert result.live
        assert result.all_correct_decided
        assert result.agreement


class TestWithSharedCoin:
    """The paper's Section 4 closing remark: MMR + Algorithm 1."""

    @pytest.mark.parametrize("seed", range(3))
    def test_agreement_split_inputs(self, seed):
        result = run_mmr(lambda ctx: ctx.pid % 2, make_shared_coin(), seed=seed)
        assert result.live
        assert result.all_correct_decided
        assert result.agreement

    def test_word_complexity_stays_quadratic(self):
        result = run_mmr(lambda ctx: ctx.pid % 2, make_shared_coin(), seed=7)
        # O(n^2) per round with a small constant; allow ~8 rounds of slack.
        assert result.words <= 8 * 8 * N * N


class TestByzantineBVBroadcast:
    def test_bval_spam_of_both_values_is_safe(self):
        """Byzantine processes BVAL both values; bin_values may grow but
        safety (agreement) must hold."""

        def spam(ctx):
            for round_id in range(3):
                instance = ("mmr", round_id)
                ctx.broadcast(BValMsg(instance, value=0))
                ctx.broadcast(BValMsg(instance, value=1))

        adversary = Adversary(
            scheduler=RandomScheduler(random.Random(8)),
            corruption=StaticCorruption(CORRUPT),
            behavior_factory=lambda pid: ScriptedBehavior(on_start=spam),
        )
        result = run_protocol(
            N, F, lambda ctx: mmr_agreement(ctx, ctx.pid % 2, local_coin),
            adversary=adversary, params=PARAMS,
            stop_condition=stop_when_all_decided, seed=8,
        )
        assert result.live
        assert result.agreement

    def test_garbage_values_ignored(self):
        # True and 1.0 compare equal to 1: admitted by equality, they used
        # to become the value correct processes adopted and decided.
        def garbage(ctx):
            for round_id in range(3):
                instance = ("mmr", round_id)
                for value in (99, True, 1.0):
                    ctx.broadcast(BValMsg(instance, value=value))
                    ctx.broadcast(AuxMsg(instance, value=value))

        adversary = Adversary(
            scheduler=RandomScheduler(random.Random(9)),
            corruption=StaticCorruption(CORRUPT),
            behavior_factory=lambda pid: ScriptedBehavior(on_start=garbage),
        )
        result = run_protocol(
            N, F, lambda ctx: mmr_agreement(ctx, 1, local_coin),
            adversary=adversary, params=PARAMS,
            stop_condition=stop_when_all_decided, seed=9,
        )
        assert result.live
        assert result.all_correct_decided
        assert result.decided_values == {1}
        for pid in result.correct_pids:
            assert type(result.decisions[pid]) is int


class _StubContext:
    """Just enough of a ProcessContext for a free-standing ``_BVState``."""

    def __init__(self) -> None:
        self.sent = []

    def broadcast(self, message) -> None:
        self.sent.append(message)


_VOTE = st.tuples(
    st.integers(0, 6),                      # sender (repeats are the point)
    st.sampled_from((BValMsg, AuxMsg)),
    st.sampled_from((0, 1, 99, True)),
    st.booleans(),                          # pump after this delivery?
)


class TestAuxQuorumCounters:
    """The incremental AUX counters against the full rescan they replace."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_VOTE, max_size=60))
    def test_counters_match_rescan(self, votes):
        instance = ("mmr", 0)
        bv = _BVState(_StubContext(), instance, n=7, f=1)
        mailbox = Mailbox()
        first_aux: dict[int, int] = {}
        bval_senders: dict[int, set[int]] = {0: set(), 1: set()}
        for sender, kind, value, pump in votes:
            msg = kind(instance, value=value)
            if admit(msg, 7):  # the kernel delivers nothing else
                mailbox.add(sender, msg)
            if type(value) is int and value in (0, 1):
                if kind is AuxMsg:
                    first_aux.setdefault(sender, value)
                else:
                    bval_senders[value].add(sender)
            if not pump:
                continue
            assert bv.pump(mailbox) == instance
            assert bv.bval_counts == [len(bval_senders[0]), len(bval_senders[1])]
            assert bv.bin_values == {v for v in (0, 1) if len(bval_senders[v]) > 2}
            # The first-AUX map, read off the bitmap (1 + value; 0 = none).
            aux_senders = {
                pid: mark - 1 for pid, mark in enumerate(bv.aux_first) if mark
            }
            assert aux_senders == first_aux
            # The scan over the first-AUX map that valid_aux_count/aux_values
            # did before the counters existed.
            scan = [v for v in aux_senders.values() if v in bv.bin_values]
            assert bv.valid_aux_count() == len(scan)
            assert bv.aux_values() == set(scan)
            assert all(type(v) is int for v in bv.bin_values | bv.aux_values())


class TestRelayDispatchCost:
    def test_at_most_one_pump_per_delivery(self, monkeypatch):
        """Each round's relay handler runs only on its own round's
        deliveries: one pump call per delivery (plus one catch-up call per
        round per process), not one per round still armed."""
        rounds = 8
        calls = [0]
        pump = _BVState.pump

        def counted(self, mailbox):
            calls[0] += 1
            return pump(self, mailbox)

        monkeypatch.setattr(_BVState, "pump", counted)
        result = run_protocol(
            N, F,
            lambda ctx: mmr_agreement(ctx, ctx.pid % 2, local_coin, max_rounds=rounds),
            corrupt=CORRUPT, params=PARAMS, seed=11,
        )
        assert len(result.returns) == N - F
        assert calls[0] <= result.metrics.messages_delivered + rounds * (N - F)


class TestRoundStructure:
    def test_max_rounds_bounds_run(self):
        result = run_protocol(
            N, F,
            lambda ctx: mmr_agreement(ctx, ctx.pid % 2, local_coin, max_rounds=2),
            corrupt=CORRUPT, params=PARAMS, seed=10,
        )
        assert result.live
        assert len(result.returns) == N - F

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            run_mmr(lambda ctx: None, local_coin, seed=0)

    def test_laggards_terminate_after_leaders_decide(self):
        # The background BV relays keep helping laggards; every correct
        # process must decide, not just a quorum.
        for seed in range(3):
            result = run_mmr(lambda ctx: ctx.pid % 2, local_coin, seed=40 + seed)
            assert result.all_correct_decided
