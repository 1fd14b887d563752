"""Algorithm 3, the approver: validity, graded agreement, termination,
and committee-forgery resistance."""

from __future__ import annotations

import random

import pytest

from repro.core.agreement import byzantine_agreement
from repro.core.approver import approve
from repro.core.committees import sample, sample_committee
from repro.core.messages import EchoMsg, InitMsg, OkMsg, echo_signing_bytes
from repro.core.params import ProtocolParams
from repro.crypto.pki import PKI
from repro.crypto.vrf import VRFOutput
from repro.sim.adversary import (
    Adversary,
    RandomScheduler,
    StaticCorruption,
    TargetedDelayScheduler,
)
from repro.sim.byzantine import ScriptedBehavior, SilentBehavior
from repro.sim.runner import run_protocol, stop_when_all_decided

from tests.core.per_send import ReplaysFirst, replaying, same_run, unstepped

N, F = 60, 4
CORRUPT = {0, 1, 2, 3}
INSTANCE = ("approver-test",)


@pytest.fixture(scope="module")
def params():
    return ProtocolParams.simulation_scale(n=N, f=F, lam=45)


def approver(value_fn):
    return lambda ctx: approve(ctx, INSTANCE, value_fn(ctx))


class TestValidity:
    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_input_returns_singleton(self, params, value):
        result = run_protocol(
            N, F, approver(lambda ctx: value), corrupt=CORRUPT, params=params, seed=value,
        )
        assert result.live
        assert result.returned_values == {frozenset({value})}

    def test_bot_input_flows_through(self, params):
        result = run_protocol(
            N, F, approver(lambda ctx: None), corrupt=CORRUPT, params=params, seed=2,
        )
        assert result.live
        assert result.returned_values == {frozenset({None})}


class TestGradedAgreementAndTermination:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_inputs_terminate_consistently(self, params, seed):
        result = run_protocol(
            N, F, approver(lambda ctx: ctx.pid % 2), corrupt=CORRUPT,
            params=params, seed=seed,
        )
        assert result.live
        returned = list(result.returned_values)
        # Non-empty sets, subsets of {0, 1}.
        assert all(rv and set(rv) <= {0, 1} for rv in returned)
        # Graded agreement: no two distinct singletons.
        singletons = {next(iter(rv)) for rv in returned if len(rv) == 1}
        assert len(singletons) <= 1

    def test_under_targeted_delay(self, params):
        adversary = Adversary(
            scheduler=TargetedDelayScheduler(set(range(8)), random.Random(7)),
            corruption=StaticCorruption(CORRUPT),
        )
        result = run_protocol(
            N, F, approver(lambda ctx: 1), adversary=adversary, params=params, seed=7,
        )
        assert result.live
        assert result.returned_values == {frozenset({1})}


class TestByzantineResistance:
    def _run(self, behavior_factory, pki, params, seed):
        adversary = Adversary(
            scheduler=RandomScheduler(random.Random(seed)),
            corruption=StaticCorruption(CORRUPT),
            behavior_factory=behavior_factory,
        )
        return run_protocol(
            N, F, approver(lambda ctx: 1), adversary=adversary, pki=pki,
            params=params, seed=seed,
        )

    def test_init_equivocator_cannot_break_validity(self, params):
        """Byzantine init members broadcast BOTH values; with f=4 corrupted
        they cannot reach B+1 init senders for the wrong value, so all
        correct processes still return {1}."""
        pki = PKI.create(N, rng=random.Random(4000))
        assert params.committee_byzantine_bound >= F  # attack cannot echo 0

        def equivocate(ctx):
            sampled, proof = sample(ctx, INSTANCE, "init", params)
            if sampled:
                ctx.broadcast(InitMsg(INSTANCE, value=0, membership=proof))
                ctx.broadcast(InitMsg(INSTANCE, value=1, membership=proof))

        result = self._run(
            lambda pid: ScriptedBehavior(on_start=equivocate), pki, params, seed=11
        )
        assert result.live
        assert result.returned_values == {frozenset({1})}

    def test_unjustified_ok_rejected(self, params):
        """A Byzantine ok-committee member broadcasts OK(0) with no echo
        justification; correct processes must ignore it."""
        pki = PKI.create(N, rng=random.Random(4100))

        def fake_ok(ctx):
            sampled, proof = sample(ctx, INSTANCE, "ok", params)
            if sampled:
                ctx.broadcast(
                    OkMsg(INSTANCE, value=0, membership=proof, justification=())
                )

        result = self._run(
            lambda pid: ScriptedBehavior(on_start=fake_ok), pki, params, seed=12
        )
        assert result.live
        assert result.returned_values == {frozenset({1})}

    def test_ok_with_forged_echo_signatures_rejected(self, params):
        """Justification entries must carry valid signatures from valid
        echo-committee members."""
        pki = PKI.create(N, rng=random.Random(4200))

        def forged_ok(ctx):
            sampled, proof = sample(ctx, INSTANCE, "ok", params)
            if not sampled:
                return
            w = params.committee_quorum
            junk = tuple((i, proof, b"\x00" * 32) for i in range(w))
            ctx.broadcast(
                OkMsg(INSTANCE, value=0, membership=proof, justification=junk)
            )

        result = self._run(
            lambda pid: ScriptedBehavior(on_start=forged_ok), pki, params, seed=13
        )
        assert result.live
        assert result.returned_values == {frozenset({1})}

    @pytest.mark.parametrize(
        "echo_sender", [[0], "x", None, 1.0], ids=["list", "str", "none", "float"]
    )
    def test_ok_naming_a_non_int_echo_sender_rejected(self, params, echo_sender):
        """A justification's echo senders are Byzantine-chosen fields: one
        that is not exactly an ``int`` rejects the ok instead of raising
        (unhashable, out of the PKI's pid range, or a float index)."""
        pki = PKI.create(N, rng=random.Random(4200))

        def odd_sender_ok(ctx):
            sampled, proof = sample(ctx, INSTANCE, "ok", params)
            if not sampled:
                return
            junk = tuple(
                (echo_sender, proof, b"\0" * 32)
                for _ in range(params.committee_quorum)
            )
            ctx.broadcast(
                OkMsg(INSTANCE, value=0, membership=proof, justification=junk)
            )

        result = self._run(
            lambda pid: ScriptedBehavior(on_start=odd_sender_ok), pki, params, seed=13
        )
        assert result.live
        assert result.returned_values == {frozenset({1})}

    def test_double_ok_counted_once(self, params):
        """A Byzantine ok member that sends several (valid-looking but
        unjustified) oks is counted at most once per sender anyway."""
        pki = PKI.create(N, rng=random.Random(4300))

        def spam(ctx):
            sampled, proof = sample(ctx, INSTANCE, "ok", params)
            if sampled:
                for _ in range(5):
                    ctx.broadcast(
                        OkMsg(INSTANCE, value=0, membership=proof, justification=())
                    )

        result = self._run(
            lambda pid: ScriptedBehavior(on_start=spam), pki, params, seed=14
        )
        assert result.live
        assert result.returned_values == {frozenset({1})}

    def test_unhashable_values_discarded(self, params):
        """An init (from an init member) or echo (from anyone) whose value
        cannot be hashed is dropped; the run is the clean run's."""
        pki = PKI.create(N, rng=random.Random(4500))

        def unhashable(ctx):
            _, proof = sample(ctx, INSTANCE, "init", params)
            ctx.broadcast(InitMsg(INSTANCE, value=[0], membership=proof))
            ctx.broadcast(EchoMsg(INSTANCE, value=[0], membership=proof))

        result = self._run(
            lambda pid: ScriptedBehavior(on_start=unhashable), pki, params, seed=1
        )
        assert result.live
        assert result.returned_values == {frozenset({1})}


    @pytest.mark.parametrize(
        "malformed",
        [
            InitMsg(["x"], value=1, membership=VRFOutput(value=1, proof=b"p")),
            OkMsg(INSTANCE, value=1, membership=VRFOutput(value=1, proof=b"p"),
                  justification=5),
        ],
        ids=["unhashable-instance", "int-justification"],
    )
    def test_a_malformed_send_is_never_sent(self, params, malformed):
        """A list instance once killed the run in the kernel's mailbox
        dict, an int justification in the flight's ``words()``; neither
        is admitted now, so the run is the silent run, counters and all."""
        pki = PKI.create(N, rng=random.Random(4700))
        result = self._run(
            lambda pid: ScriptedBehavior(on_start=lambda ctx: ctx.broadcast(malformed)),
            pki, params, 2,
        )
        silent = self._run(
            lambda pid: SilentBehavior(), PKI.create(N, rng=random.Random(4700)),
            params, 2,
        )
        assert result.live
        assert same_run(result, silent)


def relabelling_ok(params):
    """A behaviour factory: each corrupted ok-committee member
    re-broadcasts the first correct ``ok(1)`` of an instance it receives
    as its own ``ok(True)``, citing that ok's W signed echoes.  ``True ==
    1`` with equal hashes, so a receiver that keys its memos by ``==``
    accepts the relabel, and returns -- or decides -- the ``bool``."""

    def factory(pid):
        relabelled = set()

        def on_deliver(ctx, envelope):
            msg = envelope.payload
            if (
                envelope.sender in CORRUPT
                or not isinstance(msg, OkMsg)
                or msg.instance in relabelled
            ):
                return
            relabelled.add(msg.instance)
            sampled, proof = sample(ctx, msg.instance, "ok", params)
            if sampled:
                ctx.broadcast(
                    OkMsg(msg.instance, value=True, membership=proof,
                          justification=msg.justification)
                )

        return ScriptedBehavior(on_deliver=on_deliver)

    return factory


class TestRelabelledOkIsNotAValue:
    """Validity: every return and decision is a value a correct process
    proposed -- the ``int`` 1, never a Byzantine ``True``.  The relabels
    go first (:class:`ReplaysFirst`), so a receiver meets ``True`` before
    most correct oks."""

    def _run(self, params, seed, factory, **kwargs):
        adversary = Adversary(
            scheduler=ReplaysFirst(CORRUPT),
            corruption=StaticCorruption(CORRUPT),
            behavior_factory=relabelling_ok(params),
        )
        return run_protocol(
            N, F, factory, adversary=adversary,
            pki=PKI.create(N, rng=random.Random(seed)), params=params, seed=seed,
            **kwargs,
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_the_approver_returns_the_int(self, params, seed):
        result = self._run(params, seed, approver(lambda ctx: 1))
        assert result.live
        for pid in result.correct_pids:
            assert [(type(v), v) for v in result.returns[pid]] == [(int, 1)]

    @pytest.mark.parametrize("seed", range(3))
    def test_agreement_decides_the_int(self, params, seed):
        result = self._run(
            params, seed, lambda ctx: byzantine_agreement(ctx, 1, params),
            stop_condition=stop_when_all_decided,
        )
        assert result.all_correct_decided
        for pid in result.correct_pids:
            assert (type(result.decisions[pid]), result.decisions[pid]) == (int, 1)


class TestReplayedMessagesAreRejected:
    """Validity is a property of the ``(sender, message)`` pair: a
    correct process's init, echo or ok re-broadcast by a Byzantine process
    carries the original sender's membership proof, so every correct
    receiver rejects it.  A verdict shared across receivers by message
    identity alone would accept the replay."""

    def _run(self, params, behavior_factory):
        adversary = Adversary(
            scheduler=ReplaysFirst(CORRUPT),
            corruption=StaticCorruption(CORRUPT),
            behavior_factory=behavior_factory,
        )
        return run_protocol(
            N, F, approver(lambda ctx: ctx.pid % 2), adversary=adversary,
            pki=PKI.create(N, rng=random.Random(4600)), params=params, seed=21,
        )

    @pytest.mark.parametrize("kind", [InitMsg, EchoMsg, OkMsg], ids=lambda k: k.__name__)
    def test_replayed_object_counts_for_nobody(self, params, kind):
        silent = self._run(params, lambda pid: SilentBehavior())
        replayed = self._run(params, replaying(kind, CORRUPT))
        copied = self._run(params, replaying(kind, CORRUPT, same_object=False))
        assert replayed.live and replayed.deliveries > silent.deliveries
        # The correct copies arrive in FIFO order either way, and a
        # rejected replay changes no correct process's state: the same
        # returns and committee tallies as silence.
        assert replayed.returns == silent.returns
        assert unstepped(replayed) == unstepped(silent)
        # And the very object is treated exactly as an equal copy.
        assert same_run(replayed, copied)


class TestEchoCommitteesArePerValue:
    def test_value_specific_committees_differ(self, params):
        pki = PKI.create(N, rng=random.Random(4400))
        echo0 = sample_committee(pki, INSTANCE, ("echo", 0), params)
        echo1 = sample_committee(pki, INSTANCE, ("echo", 1), params)
        assert echo0 != echo1

    def test_signing_bytes_bind_instance_and_value(self):
        assert echo_signing_bytes(INSTANCE, 0) != echo_signing_bytes(INSTANCE, 1)
        assert echo_signing_bytes(("a",), 0) != echo_signing_bytes(("b",), 0)
