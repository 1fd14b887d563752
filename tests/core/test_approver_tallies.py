"""The approver's sender tallies, driven one delivery at a time.

One receiver runs :func:`approve` against a hand-fed mailbox, so each test
controls exactly which init, echo and ok messages arrive and in what
order.  With λ = n every process sits on every committee, so any sender
can produce a valid message.  The tests pin what a tally counts (distinct
validated senders), the committee records the approver leaves behind, and
the ok justification it builds; they hold for any representation of the
tallies.
"""

from __future__ import annotations

import random

import pytest

from repro.core.approver import approve
from repro.core.committees import sample
from repro.core.messages import EchoMsg, InitMsg, OkMsg, echo_signing_bytes
from repro.core.params import ProtocolParams
from repro.crypto.pki import PKI
from repro.sim.adversary import Adversary, FIFOScheduler
from repro.sim.messages import admit
from repro.sim.network import Simulation

N = 12
PARAMS = ProtocolParams(n=N, f=1, lam=N, d=0.05)  # λ = n: everyone is sampled
W = PARAMS.committee_quorum
B = PARAMS.committee_byzantine_bound
INSTANCE = ("tally-test",)
RECEIVER = 0


class Receiver:
    """Process ``RECEIVER`` inside one approver instance, fed by hand."""

    def __init__(self, value: object = 1) -> None:
        pki = PKI.create(N, rng=random.Random(8))
        self.simulation = Simulation(
            N, 1, pki, Adversary(scheduler=FIFOScheduler()), seed=3, params=PARAMS
        )
        self.ctx = self.simulation.contexts[RECEIVER]
        self.sent: list = []
        self.ctx.broadcast = self.sent.append  # capture instead of submitting
        self.generator = approve(self.ctx, INSTANCE, value)
        self.wait = next(self.generator)
        self.result = None

    def _proof(self, sender: int, role: object):
        member, proof = sample(self.simulation.contexts[sender], INSTANCE, role, PARAMS)
        assert member
        return proof

    def init(self, sender: int, value: object) -> InitMsg:
        return InitMsg(INSTANCE, value=value, membership=self._proof(sender, "init"))

    def echo(self, sender: int, value: object, *, forged: bool = False) -> EchoMsg:
        signer = (sender + 1) % N if forged else sender
        signature = self.simulation.contexts[signer].sign(
            echo_signing_bytes(INSTANCE, value)
        )
        return EchoMsg(
            INSTANCE,
            value=value,
            membership=self._proof(sender, ("echo", value)),
            signature=signature,
        )

    def ok(self, sender: int, value: object, echoes: dict) -> OkMsg:
        justification = tuple(
            (echo_sender, echo.membership, echo.signature)
            for echo_sender, echo in sorted(echoes.items())[:W]
        )
        return OkMsg(
            INSTANCE,
            value=value,
            membership=self._proof(sender, "ok"),
            justification=justification,
        )

    def deliver(self, sender: int, msg) -> None:
        """Deliver ``msg`` as the kernel would a corrupted sender's: only
        if it is admissible."""
        assert self.result is None, "the instance already returned"
        if not admit(msg, N):
            return
        self.ctx.mailbox.add(sender, msg)
        outcome = self.wait.condition(self.ctx.mailbox)
        if outcome is not None:
            with pytest.raises(StopIteration) as stop:
                self.generator.send(outcome)
            self.result = stop.value.value

    def finish(self, value: object = 1) -> None:
        """Deliver W valid oks for ``value`` so the instance returns."""
        echoes = {sender: self.echo(sender, value) for sender in range(1, W + 1)}
        for sender in range(1, W + 1):
            self.deliver(sender, self.ok(sender, value, echoes))
        assert self.result is not None

    def sent_of(self, kind: type) -> list:
        return [msg for msg in self.sent if isinstance(msg, kind)]

    def committees(self) -> list[tuple[object, int]]:
        return [
            (record.get("role"), record.get("size"))
            for record in self.simulation.metrics.protocol_records
            if record.kind == "committee" and record.pid == RECEIVER
        ]

    def committee_size(self, role: object) -> int:
        sizes = [size for name, size in self.committees() if name == role]
        assert len(sizes) == 1
        return sizes[0]


class TestDuplicatesCountOnce:
    def test_duplicate_init(self):
        receiver = Receiver()
        for _ in range(B + 2):
            receiver.deliver(1, receiver.init(1, 0))
        assert receiver.sent_of(EchoMsg) == []
        for sender in range(2, B + 1):
            receiver.deliver(sender, receiver.init(sender, 0))
        assert receiver.sent_of(EchoMsg) == []  # B distinct senders so far
        receiver.deliver(B + 1, receiver.init(B + 1, 0))
        assert [msg.value for msg in receiver.sent_of(EchoMsg)] == [0]
        receiver.finish()
        assert receiver.committee_size("init") == B + 1

    def test_duplicate_echo(self):
        receiver = Receiver()
        echo = receiver.echo(1, 1)
        for _ in range(W + 1):
            receiver.deliver(1, echo)
        for sender in range(2, W):
            receiver.deliver(sender, receiver.echo(sender, 1))
        assert receiver.sent_of(OkMsg) == []  # W - 1 distinct senders so far
        receiver.deliver(W, receiver.echo(W, 1))
        (ok,) = receiver.sent_of(OkMsg)
        assert [entry[0] for entry in ok.justification] == list(range(1, W + 1))
        receiver.finish()
        assert receiver.committee_size(("echo", 1)) == W

    def test_duplicate_ok(self):
        receiver = Receiver()
        echoes = {sender: receiver.echo(sender, 1) for sender in range(1, W + 1)}
        ok = receiver.ok(1, 1, echoes)
        for _ in range(W + 1):
            receiver.deliver(1, ok)
        for sender in range(2, W):
            receiver.deliver(sender, receiver.ok(sender, 1, echoes))
        assert receiver.result is None  # W - 1 distinct senders so far
        receiver.deliver(W, receiver.ok(W, 1, echoes))
        assert receiver.result == frozenset({1})
        assert receiver.committee_size("ok") == W


def test_invalid_echo_then_valid_one_counts_once():
    receiver = Receiver()
    receiver.deliver(1, receiver.echo(1, 1, forged=True))
    receiver.deliver(1, receiver.echo(1, 1))
    receiver.deliver(1, receiver.echo(1, 1))
    for sender in range(2, W):
        receiver.deliver(sender, receiver.echo(sender, 1))
    assert receiver.sent_of(OkMsg) == []
    receiver.deliver(W, receiver.echo(W, 1))
    assert len(receiver.sent_of(OkMsg)) == 1
    receiver.finish()
    assert receiver.committee_size(("echo", 1)) == W


def test_init_committee_counts_distinct_senders_across_values():
    receiver = Receiver()
    for sender, value in [(1, 0), (1, 1), (2, 0), (3, 1), (2, 0), (3, 1)]:
        receiver.deliver(sender, receiver.init(sender, value))
    receiver.finish()
    assert receiver.committee_size("init") == 3


def test_value_with_only_invalid_echoes_keeps_its_empty_record_in_order():
    receiver = Receiver()
    receiver.deliver(5, receiver.echo(5, 0, forged=True))
    receiver.deliver(1, receiver.echo(1, 1))
    receiver.deliver(6, receiver.echo(6, None, forged=True))
    receiver.finish()
    echo_records = [
        (role, size) for role, size in receiver.committees() if role[0] == "echo"
    ]
    assert echo_records == [(("echo", 0), 0), (("echo", 1), 1), (("echo", None), 0)]


def test_justification_is_the_first_w_echo_senders_ascending():
    receiver = Receiver()
    order = [11, 3, 7, 1, 9, 2, 10, 4, 8, 6, 5]
    assert len(order) > W
    echoes = {sender: receiver.echo(sender, 1) for sender in order}
    for sender in order:
        receiver.deliver(sender, echoes[sender])
    (ok,) = receiver.sent_of(OkMsg)
    first_w = sorted(order[:W])
    assert [entry[0] for entry in ok.justification] == first_w
    for echo_sender, membership, signature in ok.justification:
        assert membership is echoes[echo_sender].membership
        assert signature is echoes[echo_sender].signature


class TestUnhashableValuesAreDiscarded:
    """A Byzantine value that cannot be hashed is dropped at admission,
    not a crash."""

    def test_echo_and_init_with_unhashable_value(self):
        receiver = Receiver()
        init_proof = receiver._proof(2, "init")
        echo_proof = receiver._proof(3, ("echo", 1))
        receiver.deliver(2, InitMsg(INSTANCE, value=[0], membership=init_proof))
        receiver.deliver(3, EchoMsg(INSTANCE, value=[0], membership=echo_proof))
        receiver.deliver(4, receiver.init(4, 1))
        receiver.finish()
        assert receiver.result == frozenset({1})
        assert receiver.committee_size("init") == 1
        assert [role for role, _ in receiver.committees()] == ["init", "ok"]
