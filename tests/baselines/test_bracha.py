"""Bracha RBC and BA: optimal resilience n > 3f with a local coin."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bracha import (
    RBCEchoMsg,
    RBCReadyMsg,
    RBCSendMsg,
    _RBCAllState,
    bracha_agreement,
    reliable_broadcast_all,
)
from repro.core.params import ProtocolParams
from repro.sim.adversary import Adversary, RandomScheduler, StaticCorruption
from repro.sim.byzantine import ScriptedBehavior
from repro.sim.mailbox import Mailbox
from repro.sim.messages import admit
from repro.sim.runner import run_protocol, stop_when_all_decided

N, F = 13, 2
CORRUPT = {0, 1}
PARAMS = ProtocolParams(n=N, f=F)


class TestReliableBroadcast:
    def test_all_correct_values_delivered(self):
        result = run_protocol(
            N, F,
            lambda ctx: reliable_broadcast_all(
                ctx, ("rbc",), ctx.pid % 2, quorum=N - F
            ),
            corrupt=CORRUPT, params=PARAMS, seed=1,
        )
        assert result.live
        for delivered in result.returns.values():
            assert len(delivered) >= N - F
            for origin, value in delivered.items():
                if origin not in CORRUPT:
                    assert value == origin % 2

    def test_equivocating_originator_resolved_consistently(self):
        """A Byzantine originator SENDs 0 to half the processes and 1 to
        the rest; RBC must deliver at most one of them, the same
        everywhere."""
        instance = ("rbc-equiv",)

        def equivocate(ctx):
            for dest in range(ctx.n):
                value = 0 if dest < ctx.n // 2 else 1
                ctx.send(dest, RBCSendMsg(instance, value=value))

        adversary = Adversary(
            scheduler=RandomScheduler(random.Random(2)),
            corruption=StaticCorruption(CORRUPT),
            behavior_factory=lambda pid: ScriptedBehavior(on_start=equivocate),
        )
        result = run_protocol(
            N, F,
            lambda ctx: reliable_broadcast_all(ctx, instance, 1, quorum=N - F),
            adversary=adversary, params=PARAMS, seed=2,
        )
        assert result.live
        byz_values = set()
        for delivered in result.returns.values():
            for origin in CORRUPT:
                if origin in delivered:
                    byz_values.add(delivered[origin])
        assert len(byz_values) <= 1

    @pytest.mark.parametrize(
        "forged, allowed",
        [
            (True, (0, 1)),
            (1.0, (0, 1)),
            (("d", True), (0, 1, ("d", 0), ("d", 1))),
        ],
        ids=["bool", "float", "nested-bool"],
    )
    def test_values_equal_to_an_allowed_one_are_not_admitted(self, forged, allowed):
        """A Byzantine originator RBCs a value that compares equal to an
        allowed one but is another type; an equality filter let every
        correct process echo, ready and deliver that foreign object."""
        n, f = 4, 1
        instance = ("rbc-forged",)

        def forge(ctx):
            ctx.broadcast(RBCSendMsg(instance, value=forged))
            ctx.broadcast(RBCEchoMsg(instance, origin=ctx.pid, value=forged))
            ctx.broadcast(RBCReadyMsg(instance, origin=ctx.pid, value=forged))

        adversary = Adversary(
            scheduler=RandomScheduler(random.Random(1)),
            corruption=StaticCorruption({0}),
            behavior_factory=lambda pid: ScriptedBehavior(on_start=forge),
        )
        result = run_protocol(
            n, f,
            lambda ctx: reliable_broadcast_all(ctx, instance, allowed[-1], allowed=allowed),
            adversary=adversary, params=ProtocolParams(n=n, f=f), seed=1,
        )
        assert result.live
        for delivered in result.returns.values():
            assert 0 not in delivered
            assert delivered == {pid: allowed[-1] for pid in (1, 2, 3)}
            for value in delivered.values():
                assert type(value) is type(allowed[-1])

    def test_silent_originators_do_not_block(self):
        result = run_protocol(
            N, F,
            lambda ctx: reliable_broadcast_all(ctx, ("rbc-s",), 1, quorum=N - F),
            corrupt=CORRUPT, params=PARAMS, seed=3,
        )
        assert result.live


class TestBrachaAgreement:
    @pytest.mark.parametrize("value", [0, 1])
    def test_validity(self, value):
        result = run_protocol(
            N, F, lambda ctx: bracha_agreement(ctx, value),
            corrupt=CORRUPT, params=PARAMS,
            stop_condition=stop_when_all_decided, seed=value,
        )
        assert result.live
        assert result.all_correct_decided
        assert result.decided_values == {value}

    @pytest.mark.parametrize("seed", range(3))
    def test_agreement_split_inputs(self, seed):
        result = run_protocol(
            N, F, lambda ctx: bracha_agreement(ctx, ctx.pid % 2),
            corrupt=CORRUPT, params=PARAMS,
            stop_condition=stop_when_all_decided, seed=seed,
            max_deliveries=4_000_000,
        )
        assert result.live
        assert result.all_correct_decided
        assert result.agreement

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            run_protocol(
                N, F, lambda ctx: bracha_agreement(ctx, 7),
                corrupt=CORRUPT, params=PARAMS, seed=0,
            )

    def test_optimal_resilience_holds_at_third(self):
        # n = 10, f = 3 (n > 3f exactly): still safe and live.
        n, f = 10, 3
        result = run_protocol(
            n, f, lambda ctx: bracha_agreement(ctx, 1),
            corrupt={0, 1, 2}, params=ProtocolParams(n=n, f=f),
            stop_condition=stop_when_all_decided, seed=4,
        )
        assert result.live
        assert result.decided_values == {1}


class _StubContext:
    """Just enough of a ProcessContext for a free-standing ``_RBCAllState``."""

    def __init__(self) -> None:
        self.sent = []

    def broadcast(self, message) -> None:
        self.sent.append(message)


def _rescan(stream, n, f, allowed):
    """The set-based RBC bookkeeping the bitmap tallies replace, replayed
    over the whole stream: (echo senders, ready senders, the echoes and
    readies sent, delivered).  Admission compares ``repr``s, so a value is
    admitted only if it is an allowed one in type as well as in value."""
    admitted = {repr(value) for value in allowed}
    echoed, readied = set(), set()
    echo_senders, ready_senders = {}, {}
    sent, delivered = [], {}

    def maybe_ready(origin, value):
        if origin not in readied:
            readied.add(origin)
            sent.append(("ready", origin, value))

    for sender, msg in stream:
        if isinstance(msg, RBCSendMsg):
            if sender not in echoed and repr(msg.value) in admitted:
                echoed.add(sender)
                sent.append(("echo", sender, msg.value))
            continue
        if not (type(msg.origin) is int and 0 <= msg.origin < n
                and repr(msg.value) in admitted):
            continue
        key = (msg.origin, msg.value)
        if isinstance(msg, RBCEchoMsg):
            senders = echo_senders.setdefault(key, set())
            senders.add(sender)
            if len(senders) >= (n + f) // 2 + 1:
                maybe_ready(*key)
        else:
            senders = ready_senders.setdefault(key, set())
            senders.add(sender)
            if len(senders) >= f + 1:
                maybe_ready(*key)
            if len(senders) >= 2 * f + 1:
                delivered.setdefault(msg.origin, msg.value)
    return echo_senders, ready_senders, sent, delivered


def _as_sets(tallies):
    return {
        key: {pid for pid, mark in enumerate(seen) if mark}
        for key, (seen, _) in tallies.items()
    }


def _rbc_message(kind, origin, value):
    if kind is RBCSendMsg:
        return RBCSendMsg(("rbc",), value=value)
    return kind(("rbc",), origin=origin, value=value)


# Mostly READYs for one origin and mostly admitted values, so that the
# echo, ready and delivery thresholds are crossed often; the foreign
# values and the origins that are no pid (7, -1, True) must never count.
_RBC_N, _RBC_F = 7, 2
_RBC_MSG = st.builds(
    _rbc_message,
    st.sampled_from(
        (RBCSendMsg, RBCEchoMsg, RBCEchoMsg, RBCReadyMsg, RBCReadyMsg, RBCReadyMsg)
    ),
    st.sampled_from((0, 0, 0, 0, 1, 7, -1, True)),
    st.sampled_from((1, 1, 1, 1, 0, ("d", 1), True, 1.0, ("d", True))),
)


class TestRBCBitmapTallies:
    """The bitmap tallies against the set-based rescan they replace."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, _RBC_N - 1), _RBC_MSG, st.booleans()),
            min_size=30, max_size=120,
        ),
        st.sampled_from(((0, 1), (0, 1, ("d", 0), ("d", 1)))),
    )
    def test_tallies_match_rescan(self, deliveries, allowed):
        ctx = _StubContext()
        state = _RBCAllState(
            ctx, ("rbc",), ProtocolParams(n=_RBC_N, f=_RBC_F), allowed
        )
        mailbox = Mailbox()
        stream = []
        for sender, msg, pump in deliveries:
            if admit(msg, _RBC_N):  # the kernel delivers nothing else
                mailbox.add(sender, msg)
            stream.append((sender, msg))
            if not pump:
                continue
            assert state.pump(mailbox) == ("rbc",)
            echoes, readies, sent, delivered = _rescan(stream, _RBC_N, _RBC_F, allowed)
            assert _as_sets(state.echoes) == echoes
            assert _as_sets(state.readies) == readies
            for tallies in (state.echoes, state.readies):
                assert all(count == sum(seen) for seen, count in tallies.values())
            assert [
                ("echo" if isinstance(m, RBCEchoMsg) else "ready", m.origin, m.value)
                for m in ctx.sent
            ] == sent
            assert state.delivered == delivered
            for value in delivered.values():
                assert repr(value) in {repr(a) for a in allowed}
