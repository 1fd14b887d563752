"""Bracha's asynchronous Byzantine Agreement [Inf. & Comp. 1987] (Table 1 row 3).

Bracha improved Ben-Or's resilience to the optimal n > 3f by filtering
every vote through *reliable broadcast* (RBC) -- the echo/ready primitive
that prevents equivocation -- at the cost of keeping the local coin and
hence exponential expected time.

RBC per originator: SEND -> everyone ECHOes the first SEND -> READY after
⌈(n+f+1)/2⌉ echoes or f+1 readys (ready amplification) -> deliver after
2f+1 readys.  Ready amplification must stay armed across rounds, so it
lives in a background handler.

BA round structure (three RBC-filtered polls of n-f values each):

1. est <- majority of n-f delivered values;
2. if some value v is held by more than n/2 of the n-f values, mark the
   estimate as a *decision candidate* ``(d, v)``;
3. count decision candidates for the most common v among n-f values:
   2f+1 or more -> decide v;  f+1 or more -> est <- v;  else local coin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.params import ProtocolParams
from repro.sim.mailbox import Mailbox
from repro.sim.messages import Message, bit, canonical, pid
from repro.sim.process import ProcessContext, Protocol, Wait

__all__ = [
    "RBCEchoMsg",
    "RBCReadyMsg",
    "RBCSendMsg",
    "bracha_agreement",
    "reliable_broadcast_all",
]


@dataclass
class RBCSendMsg(Message):
    """The originator's initial broadcast."""

    value: object = None
    field_kinds = {"value": canonical}


@dataclass
class RBCEchoMsg(Message):
    """Echo of origin's value (sent at most once per origin)."""

    origin: int = 0
    value: object = None
    field_kinds = {"origin": pid, "value": canonical}


@dataclass
class RBCReadyMsg(Message):
    """Delivery commitment for origin's value."""

    origin: int = 0
    value: object = None
    field_kinds = {"origin": pid, "value": canonical}


class _RBCAllState:
    """Reliable-broadcast bookkeeping for all n originators of one step.

    The kernel authenticates senders and admits only pid origins and
    canonical values (``field_kinds``), so a sender and an origin are
    pids in ``[0, n)``, a value is an allowed one exactly when it is
    ``in`` the allowed set, and each tally of distinct senders for an
    ``(origin, value)`` is a ``[bytearray(n), count]`` pair.
    """

    def __init__(
        self, ctx: ProcessContext, instance: Hashable, params: ProtocolParams, allowed
    ) -> None:
        self.ctx = ctx
        self.instance = instance
        self._allowed = frozenset(allowed)
        self.n, self.f = params.n, params.f
        self.echo_threshold = (self.n + self.f) // 2 + 1  # > (n+f)/2
        self.ready_threshold = 2 * self.f + 1
        self.echoed = bytearray(self.n)  # origins we already echoed
        self.readied = bytearray(self.n)  # origins we already sent READY for
        self.echoes: dict[tuple, list] = {}
        self.readies: dict[tuple, list] = {}
        self.delivered: dict[int, object] = {}
        self._cursor = 0

    def start(self, value: object) -> None:
        self.ctx.broadcast(RBCSendMsg(self.instance, value=value))
        self.ctx.add_background_handler(self.pump)

    def _maybe_ready(self, origin: int, value: object) -> None:
        if self.readied[origin]:
            return
        self.readied[origin] = 1
        self.ctx.broadcast(RBCReadyMsg(self.instance, origin=origin, value=value))

    def pump(self, mailbox: Mailbox) -> Hashable:
        """Consume the new stream entries; returns the instance, the key
        this handler is registered under."""
        stream = mailbox.stream(self.instance)
        n, allowed, echoes = self.n, self._allowed, self.echoes
        while self._cursor < len(stream):
            sender, msg = stream[self._cursor]
            self._cursor += 1
            if isinstance(msg, RBCSendMsg):
                # Echo the first SEND from this originator (equivocation by
                # a Byzantine originator is thereby resolved one way).
                if self.echoed[sender] or msg.value not in allowed:
                    continue
                self.echoed[sender] = 1
                self.ctx.broadcast(
                    RBCEchoMsg(self.instance, origin=sender, value=msg.value)
                )
                continue
            if isinstance(msg, RBCEchoMsg):
                tallies = echoes
            elif isinstance(msg, RBCReadyMsg):
                tallies = self.readies
            else:
                continue
            origin, value = msg.origin, msg.value
            if value not in allowed:
                continue  # no correct process sends this
            # Count the sender once per (origin, value).
            tally = tallies.get((origin, value))
            if tally is None:
                tally = tallies[origin, value] = [bytearray(n), 0]
            seen = tally[0]
            if not seen[sender]:
                seen[sender] = 1
                tally[1] += 1
            count = tally[1]
            if tallies is echoes:
                if count >= self.echo_threshold:
                    self._maybe_ready(origin, value)
                continue
            # Ready amplification: f+1 readys prove a correct process
            # committed, so join in.
            if count >= self.f + 1:
                self._maybe_ready(origin, value)
            if count >= self.ready_threshold:
                self.delivered.setdefault(origin, value)
        return self.instance


def reliable_broadcast_all(
    ctx: ProcessContext,
    instance: Hashable,
    value: object,
    params: ProtocolParams | None = None,
    allowed=(0, 1),
    quorum: int | None = None,
) -> Protocol:
    """Every process RBCs ``value``; returns ``{origin: value}`` once
    ``quorum`` (default n-f) originators' values have been delivered.

    Usable standalone as an n-instance Bracha-RBC primitive; Byzantine
    originators either deliver one consistent value everywhere or nothing.
    """
    params = params or ctx.params
    quorum = params.quorum if quorum is None else quorum
    state = _RBCAllState(ctx, instance, params, allowed)
    state.start(value)

    def delivered_quorum(mailbox: Mailbox):
        if len(state.delivered) >= quorum:
            return dict(state.delivered)
        return None

    return (yield Wait(
        delivered_quorum, description=f"rbc{instance}", instances={instance}
    ))


def bracha_agreement(
    ctx: ProcessContext,
    value: int,
    params: ProtocolParams | None = None,
    max_rounds: int | None = None,
) -> Protocol:
    """Propose binary ``value``; decide through ``ctx.decide`` (w.p. 1).

    Optimal resilience n > 3f; local coin, so exponential expected rounds
    under adversarial scheduling (Table 1).
    """
    if not bit(value):
        raise ValueError("Bracha agreement is binary; propose 0 or 1")
    params = params or ctx.params
    f = params.f
    est: object = value
    round_id = 0
    while max_rounds is None or round_id < max_rounds:
        # Step 1: majority of n-f RBC-delivered estimates.
        step1 = yield from reliable_broadcast_all(
            ctx, ("bracha", round_id, 1), est, params, allowed=(0, 1)
        )
        counts = [sum(1 for v in step1.values() if v == b) for b in (0, 1)]
        est = 0 if counts[0] >= counts[1] else 1

        # Step 2: mark a decision candidate if a strict majority agrees.
        step2 = yield from reliable_broadcast_all(
            ctx, ("bracha", round_id, 2), est, params, allowed=(0, 1)
        )
        for b in (0, 1):
            if sum(1 for v in step2.values() if v == b) > params.n / 2:
                est = ("d", b)

        # Step 3: count decision candidates.
        allowed3 = (0, 1, ("d", 0), ("d", 1))
        step3 = yield from reliable_broadcast_all(
            ctx, ("bracha", round_id, 3), est, params, allowed=allowed3
        )
        decided = None
        boosted = None
        for b in (0, 1):
            candidates = sum(1 for v in step3.values() if v == ("d", b))
            if candidates >= 2 * f + 1:
                decided = b
            if candidates >= f + 1:
                boosted = b
        if decided is not None:
            if not ctx.decided:
                ctx.notes["decision_round"] = round_id
            ctx.decide(decided)
            est = decided
        elif boosted is not None:
            est = boosted
        else:
            est = ctx.rng.getrandbits(1)
        round_id += 1
    return ctx.decision
