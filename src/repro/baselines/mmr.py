"""Mostéfaoui-Moumen-Raynal (MMR) signature-free binary BA [JACM 2015].

The O(n²)-messages, O(1)-expected-time protocol the paper's Algorithm 4 is
modelled on, with the shared coin as a black box.  Structure per round:

1. **BV-broadcast** of the round estimate: broadcast ``BVAL(est)``; relay a
   value received from f+1 distinct senders (at most once per value); a
   value received from 2f+1 distinct senders enters ``bin_values``.
2. Once ``bin_values`` is non-empty, broadcast ``AUX(w)`` for the first
   value that entered; wait for n-f AUX messages whose values all lie in
   (the still-growing) ``bin_values``; call that value set ``vals``.
3. Flip the coin ``c``.  If ``vals == {v}``: adopt v and decide if v == c.
   Otherwise adopt c.

The BV relay rule must stay armed even after a process advances to later
rounds (liveness for laggards depends on it), which is what the simulator's
background handlers exist for.

The coin is pluggable: :func:`local_coin` gives Ben-Or-style exponential
expected time; :func:`make_shared_coin` plugs in the paper's Algorithm 1
(the Section 4 closing remark -- O(n²) words, O(1) expected time,
resilience (1/3 - ε)n); :func:`~repro.baselines.cachin.make_threshold_coin`
gives the Cachin-style instantiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.sim.mailbox import Mailbox
from repro.sim.messages import Message, bit
from repro.sim.process import ProcessContext, Protocol, Wait

__all__ = [
    "AuxMsg",
    "BValMsg",
    "CoinProtocol",
    "local_coin",
    "make_shared_coin",
    "mmr_agreement",
]

# A pluggable coin: (ctx, round_id) -> generator returning a bit.
CoinProtocol = Callable[[ProcessContext, Hashable], Protocol]


@dataclass
class BValMsg(Message):
    """BV-broadcast message: an estimate or its relay."""

    value: int = 0
    field_kinds = {"value": bit}


@dataclass
class AuxMsg(Message):
    """Second-stage message: one value from the sender's bin_values."""

    value: int = 0
    field_kinds = {"value": bit}


def local_coin(ctx: ProcessContext, round_id: Hashable) -> Protocol:
    """Ben-Or's local coin: private uniform bit, no communication.

    Gives probability-1 termination but exponential expected time, since
    2^Θ(n) rounds are needed before all correct processes flip alike.
    """
    return ctx.rng.getrandbits(1)
    yield  # pragma: no cover -- makes this function a generator


def make_shared_coin(params: ProtocolParams | None = None) -> CoinProtocol:
    """The paper's Algorithm 1 coin as an MMR plug-in (experiment E7)."""

    def coin(ctx: ProcessContext, round_id: Hashable) -> Protocol:
        return (yield from shared_coin(ctx, ("mmr", round_id), params))

    return coin


class _BVState:
    """One round's BV-broadcast bookkeeping, pumped by a background handler.

    The kernel authenticates senders and admits only bit values, so a
    sender is a pid in ``[0, n)``, a value is 0 or 1, and each tally of
    distinct senders is a seen-bitmap plus a count: ``bval_seen[v]`` /
    ``bval_counts[v]`` for BVAL(v), and ``aux_first``, which holds
    ``1 + v`` for a sender whose *first* AUX carried ``v`` (0: none yet),
    with ``aux_counts[v]`` counting those senders.  The
    handler runs only on deliveries of this round's instance, and the
    round's waits subscribe to that instance alone, so the AUX-quorum
    wait reads O(1) state and is evaluated only when it may have changed.
    """

    def __init__(self, ctx: ProcessContext, instance: Hashable, n: int, f: int) -> None:
        self.ctx = ctx
        self.instance = instance
        self.f = f
        self.bval_seen = (bytearray(n), bytearray(n))
        self.bval_counts = [0, 0]
        self.relayed: set[int] = set()
        self.bin_values: set[int] = set()
        self.aux_first = bytearray(n)
        self.aux_counts = [0, 0]
        self._cursor = 0
        self._stream: list | None = None

    def start(self, estimate: int) -> None:
        """Broadcast our estimate and arm the forever-active relay rule."""
        self.relayed.add(estimate)
        self.ctx.broadcast(BValMsg(self.instance, value=estimate))
        self.ctx.add_background_handler(self.pump)

    def pump(self, mailbox: Mailbox) -> Hashable:
        """Consume the new stream entries; returns the instance, the key
        this handler is registered under."""
        stream = self._stream
        if stream is None:
            # Identity-stable once created (append-only): cache the list.
            stream = mailbox.stream(self.instance)
            if type(stream) is list:
                self._stream = stream
        while self._cursor < len(stream):
            sender, msg = stream[self._cursor]
            self._cursor += 1
            if isinstance(msg, BValMsg):
                value = msg.value
                seen = self.bval_seen[value]
                if not seen[sender]:
                    seen[sender] = 1
                    self.bval_counts[value] += 1
                count = self.bval_counts[value]
                if count > self.f and value not in self.relayed:
                    self.relayed.add(value)
                    self.ctx.broadcast(BValMsg(self.instance, value=value))
                if count > 2 * self.f:
                    self.bin_values.add(value)
            elif isinstance(msg, AuxMsg) and not self.aux_first[sender]:
                self.aux_first[sender] = 1 + msg.value
                self.aux_counts[msg.value] += 1
        return self.instance

    def valid_aux_count(self) -> int:
        return sum(self.aux_counts[value] for value in self.bin_values)

    def aux_values(self) -> set[int]:
        return {value for value in self.bin_values if self.aux_counts[value]}


def mmr_agreement(
    ctx: ProcessContext,
    value: int,
    coin: CoinProtocol = local_coin,
    params: ProtocolParams | None = None,
    max_rounds: int | None = None,
) -> Protocol:
    """Propose binary ``value``; decide through ``ctx.decide`` (w.p. 1).

    Resilience n > 3f; O(n²) messages per round; expected rounds depend on
    the plugged coin (constant for a shared coin with constant success
    rate, exponential for the local coin).
    """
    if not bit(value):
        raise ValueError("MMR agreement is binary; propose 0 or 1")
    params = params or ctx.params
    f = params.f
    quorum = params.quorum
    est = value
    round_id = 0
    while max_rounds is None or round_id < max_rounds:
        instance = ("mmr", round_id)
        bv = _BVState(ctx, instance, params.n, f)
        bv.start(est)

        # Wait until bin_values is non-empty, then send AUX for the first
        # value that entered (the background handler keeps pumping).
        def bin_values_nonempty(mailbox: Mailbox, bv: _BVState = bv):
            if bv.bin_values:
                return sorted(bv.bin_values)[0]
            return None

        aux_value = yield Wait(
            bin_values_nonempty, description=f"mmr-bv{instance}", instances={instance}
        )
        ctx.broadcast(AuxMsg(instance, value=aux_value))

        # Wait for n-f AUX messages whose values are all in bin_values.
        def aux_quorum(mailbox: Mailbox, bv: _BVState = bv):
            if bv.valid_aux_count() >= quorum:
                return frozenset(bv.aux_values())
            return None

        vals = yield Wait(
            aux_quorum, description=f"mmr-aux{instance}", instances={instance}
        )

        flip = yield from coin(ctx, round_id)

        if len(vals) == 1:
            v = next(iter(vals))
            est = v
            if v == flip:
                if not ctx.decided:
                    ctx.notes["decision_round"] = round_id
                ctx.decide(v)
        else:
            est = flip
        round_id += 1
    return ctx.decision
