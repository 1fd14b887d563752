"""The value domain and its one gate, :func:`repro.sim.messages.admit`.

A field of a message correct code did not make -- a corrupted process's
send, a copy a lossy link flipped a bit in -- must have the kind its
message class declares; the kernel drops what fails before it takes a
seq, a count or an event.  Correct sends are not checked, so these tests
also pin that correct code sends only admissible messages, and that the
binary entry points let no bit of another type in.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

import pytest

from repro.baselines.benor import benor_agreement
from repro.baselines.bracha import bracha_agreement
from repro.baselines.cachin import cachin_agreement
from repro.baselines.mmr import BValMsg, mmr_agreement
from repro.baselines.rabin import rabin_agreement
from repro.core.agreement import byzantine_agreement
from repro.core.hybrid import hybrid_agreement
from repro.core.messages import OkMsg
from repro.crypto.pki import PKI
from repro.crypto.vrf import VRFOutput
from repro.experiments.protocols import PROTOCOLS
from repro.experiments.scenarios import SCENARIOS, resolve_run
from repro.sim.adversary import Adversary, FIFOScheduler, StaticCorruption
from repro.sim.byzantine import ScriptedBehavior
from repro.sim.events import DeliverEvent, SendEvent
from repro.sim.lossy import LossyLinkConfig
from repro.sim.messages import (
    Message,
    admit,
    bit,
    canonical,
    exactly,
    integer,
    optional,
    pid,
    row,
    tuple_of,
)
from repro.sim.network import Simulation
from repro.sim.process import Wait

N = 8
PROOF = VRFOutput(value=1, proof=b"p")


class TestKinds:
    @pytest.mark.parametrize(
        "value, admitted",
        [(0, True), (N - 1, True), (N, False), (-1, False), (True, False),
         (1.0, False), ("1", False), (None, False), ([0], False)],
    )
    def test_pid(self, value, admitted):
        assert pid(value, N) is admitted

    @pytest.mark.parametrize(
        "value, admitted",
        [(0, True), (1, True), (2, False), (-1, False), (True, False),
         (False, False), (1.0, False), ("1", False), (None, False)],
    )
    def test_bit(self, value, admitted):
        assert bit(value, N) is admitted

    @pytest.mark.parametrize(
        "value, admitted",
        [(None, True), (0, True), (-5, True), (2**300, True), ("x", True),
         (b"x", True), ((), True), ((1, ("a", b"b", None)), True),
         (True, False), (1.0, False), ([1], False), (bytearray(b"x"), False),
         ((1, True), False), (((1.0,),), False), ({1}, False), (object(), False)],
    )
    def test_canonical(self, value, admitted):
        assert canonical(value, N) is admitted

    def test_nesting_is_bounded(self):
        """A tuple nested deeper than any protocol value is refused, not
        a ``RecursionError`` in the kernel."""
        value = 0
        for _ in range(5000):
            value = (value,)
        assert not canonical(value, N)
        assert not admit(BValMsg(value, value=0), N)

    def test_integer(self):
        assert integer(-3, N) and integer(2**300, N)
        assert not integer(True, N) and not integer(3.0, N)

    def test_forms(self):
        assert optional(pid)(None, N) and optional(pid)(3, N)
        assert not optional(pid)(N, N)
        assert tuple_of(bit)((), N) and tuple_of(bit)((0, 1, 1), N)
        assert not tuple_of(bit)([0, 1], N) and not tuple_of(bit)((0, 2), N)
        assert row(pid, bit)((3, 1), N)
        assert not row(pid, bit)((3, 1, 1), N) and not row(pid, bit)((3,), N)
        proof = exactly(VRFOutput, value=integer, proof=canonical)
        assert proof(PROOF, N)
        assert not proof(VRFOutput(value=True, proof=b"p"), N)
        assert not proof(VRFOutput(value=1, proof=[b"p"]), N)
        assert not proof((1, b"p"), N)


def _message_kinds(cls=Message):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
        yield from _message_kinds(sub)


class TestMessages:
    def test_every_message_kind_declares_every_field(self):
        kinds = list(_message_kinds())
        assert len(kinds) >= 14
        for kind in kinds:
            fields = {field.name for field in dataclasses.fields(kind)}
            assert set(kind.field_kinds) == fields - {"instance"}, kind

    def test_the_instance_must_be_canonical(self):
        assert admit(BValMsg(("mmr", 1), value=0), N)
        assert not admit(BValMsg(("mmr", True), value=0), N)
        assert not admit(BValMsg(["mmr", 1], value=0), N)

    def test_only_messages_are_admitted(self):
        assert not admit(5, N)
        assert not admit(("mmr", 0), N)

    @pytest.mark.parametrize(
        "justification",
        [5, [(1, PROOF, b"s")], ((1, PROOF),), ((1, PROOF, b"s", 0),),
         ((N, PROOF, b"s"),), ((1, b"p", b"s"),), ((1, PROOF, [b"s"]),)],
    )
    def test_an_ok_justification_is_a_tuple_of_triples(self, justification):
        assert admit(OkMsg("i", value=0, membership=PROOF, justification=()), N)
        assert admit(
            OkMsg("i", value=0, membership=PROOF,
                  justification=((1, PROOF, b"s"),)), N
        )
        assert not admit(
            OkMsg("i", value=0, membership=PROOF, justification=justification), N
        )


@pytest.mark.parametrize("name", [*PROTOCOLS, *SCENARIOS])
def test_correct_code_sends_only_admissible_messages(name, monkeypatch):
    """Why correct sends go unchecked: over every named run, each one
    would have been admitted (``byz_split``'s correct processes send
    nothing)."""
    send = Simulation._send
    verdicts = []

    def checked(self, sender, message, dests):
        if sender not in self.corrupted:
            verdicts.append(admit(message, self.n))
        return send(self, sender, message, dests)

    monkeypatch.setattr(Simulation, "_send", checked)
    resolve_run(name, 16, seed=0).run()
    assert all(verdicts) and (verdicts or name == "byz_split")


def _simulation(behavior=None, lossy=None):
    corrupt = {0} if behavior is not None else set()
    adversary = Adversary(
        scheduler=FIFOScheduler(),
        corruption=StaticCorruption(corrupt),
        behavior_factory=lambda pid: behavior,
    )
    simulation = Simulation(
        N, len(corrupt), PKI.create(N, rng=random.Random(3)), adversary,
        seed=3, lossy=lossy,
    )
    events = []
    simulation.events.subscribe(events.append)
    simulation.set_protocol_all(_idle)
    return simulation, events


def _idle(ctx):
    """Waits for nothing that comes, so deliveries stay in the mailbox."""
    yield Wait(lambda mailbox: None, instances={"never"})


class TestTheKernelGate:
    def test_an_inadmissible_send_leaves_no_trace(self):
        """No seq, no words, no event: the send never happened."""
        valid = BValMsg(("mmr", 0), value=1)

        def start(ctx):
            ctx.broadcast(BValMsg(("mmr", 0), value=True))
            ctx.send(1, BValMsg(("mmr", 0), value=2))
            ctx.broadcast(valid)

        simulation, events = _simulation(ScriptedBehavior(on_start=start))
        simulation.run()
        sends = [event for event in events if isinstance(event, SendEvent)]
        assert [event.seq for event in sends] == list(range(N))
        assert simulation.metrics.messages_sent_total == N
        for dest in range(1, N):  # 0 is corrupted: it gets envelopes, not mail
            assert simulation.contexts[dest].mailbox.stream(("mmr", 0)) == [
                (0, valid)
            ]

    def test_a_correct_send_is_not_checked(self, monkeypatch):
        def refuse(message, n):
            raise AssertionError("a correct send was checked")

        monkeypatch.setattr("repro.sim.network.admit", refuse)
        simulation, _ = _simulation()
        simulation.submit_broadcast(1, BValMsg(("mmr", 0), value=True))
        simulation.run()
        assert len(simulation.contexts[2].mailbox.stream(("mmr", 0))) == 1

    def test_a_bit_flip_out_of_its_kind_arrives_nowhere(self):
        """A copy a lossy link corrupted is admitted like a Byzantine
        send; one that fails is lost, counted as a corruption."""

        @dataclass
        class Exact(Message):
            value: int = 5

            field_kinds = {"value": lambda value, n: value == 5}

        link = {(1, 2): LossyLinkConfig(corrupt_rate=1.0)}
        simulation, events = _simulation(lossy=LossyLinkConfig(per_link=link))
        sent = Exact("x")
        simulation.submit_broadcast(1, sent)
        simulation.run()
        delivered = [event.dest for event in events if isinstance(event, DeliverEvent)]
        assert sorted(delivered) == [0, 1, 3, 4, 5, 6, 7]
        assert simulation.lossy_counters["corruptions"] == 1
        assert simulation.contexts[2].mailbox.stream("x") == []


@pytest.mark.parametrize(
    "entry",
    [
        byzantine_agreement,
        hybrid_agreement,
        mmr_agreement,
        lambda ctx, value: cachin_agreement(ctx, value, None),
        bracha_agreement,
        benor_agreement,
        lambda ctx, value: rabin_agreement(ctx, value, None),
    ],
    ids=["whp_ba", "hybrid", "mmr", "cachin", "bracha", "benor", "rabin"],
)
@pytest.mark.parametrize("value", [True, False, 1.0, 2, None, "1"])
def test_binary_entry_points_take_only_bits(entry, value):
    """A correct process proposes an ``int`` bit or nothing: admission
    never sees a correct send, so a ``True`` must stop at the door."""
    with pytest.raises(ValueError, match="binary"):
        next(entry(None, value))
