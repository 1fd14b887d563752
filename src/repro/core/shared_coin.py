"""Algorithm 1: the full-participation VRF-based shared coin.

Two all-to-all phases.  Each process broadcasts its VRF value for the
round; after hearing n-f FIRST values it broadcasts the minimum it has
seen; after hearing n-f SECOND values it outputs the least significant bit
of its minimum.  Against the delayed-adaptive adversary the global minimum
becomes *common* with constant probability, in which case everyone outputs
the same bit -- Theorem 4.13 lower-bounds the success rate by
(18ε² + 24ε - 1) / (6 (1 + 6ε)).

Word complexity O(n²); this coin also plugs into the MMR baseline to give
an O(n²) BA with resilience (1/3 - ε)n (the paper's Section 4 closing
remark, experiment E7).
"""

from __future__ import annotations

from typing import Hashable

from repro.core.messages import (
    CoinValue,
    FirstMsg,
    SecondMsg,
    coin_value_alpha,
    coin_value_checker,
)
from repro.core.params import ProtocolParams
from repro.sim.mailbox import Mailbox
from repro.sim.process import ProcessContext, Protocol, Wait

__all__ = ["shared_coin"]


def shared_coin(
    ctx: ProcessContext, round_id: Hashable, params: ProtocolParams | None = None
) -> Protocol:
    """Run one shared-coin instance; returns the coin bit (0 or 1).

    ``round_id`` plays the role of the paper's ``r``; any hashable works,
    so callers can scope instances (e.g. ``("ba", 3)``).  All correct
    processes must invoke the same ``round_id``, causally independently of
    each other's progress.
    """
    params = params or ctx.params
    instance = ("shared_coin", round_id)
    quorum = params.quorum
    pki = ctx.pki
    valid_value = coin_value_checker(pki, instance, params, None)
    # The instance's validation-memo shelf: one verdict per send,
    # replayed by every later receiver (PKI.send_verdict).
    memo = pki.validation_memo(instance) if pki.verify_cache_enabled else None

    def valid_coin_value(sender: int, msg: FirstMsg | SecondMsg) -> bool:
        return valid_value(msg.coin_value)

    my_output = ctx.vrf(coin_value_alpha(instance))
    my_value = CoinValue(value=my_output.value, origin=ctx.pid, vrf=my_output)
    ctx.broadcast(FirstMsg(instance, coin_value=my_value))

    # Reactive state for the two "upon receiving" handlers.  Both handlers
    # stay active for the whole instance (a late FIRST may still lower the
    # local minimum, exactly as in the pseudocode).
    state = {"min": my_value, "sent_second": False}
    # Distinct validated senders per phase: a seen-bitmap over the
    # kernel-authenticated pids plus a count (as in the approver).
    first_seen = bytearray(ctx.n)
    second_seen = bytearray(ctx.n)
    first_count = second_count = 0
    cursor = 0

    stream: list | None = None

    def step(mailbox: Mailbox):
        nonlocal cursor, stream, first_count, second_count
        s = stream
        if s is None:
            # Identity-stable once created (append-only): cache the list.
            s = mailbox.stream(instance)
            if type(s) is list:
                stream = s
        while cursor < len(s):
            entry = s[cursor]
            sender, msg = entry
            cursor += 1
            # Receiver-local gates first, then the send's verdict.
            if isinstance(msg, FirstMsg):
                if first_seen[sender]:
                    continue
                # In Algorithm 1 the FIRST value must be the sender's own.
                coin_value = msg.coin_value
                if coin_value.origin != sender:
                    continue
                if not pki.send_verdict(memo, entry, valid_coin_value):
                    continue
                first_seen[sender] = 1
                first_count += 1
                if coin_value.value < state["min"].value:
                    state["min"] = coin_value
            elif isinstance(msg, SecondMsg):
                if second_seen[sender]:
                    continue
                if not pki.send_verdict(memo, entry, valid_coin_value):
                    continue
                second_seen[sender] = 1
                second_count += 1
                if msg.coin_value.value < state["min"].value:
                    state["min"] = msg.coin_value
        if not state["sent_second"] and first_count >= quorum:
            state["sent_second"] = True
            ctx.broadcast(SecondMsg(instance, coin_value=state["min"]))
        if state["sent_second"] and second_count >= quorum:
            return state["min"].value & 1
        # The wake-up floor, as in the whp coin: `quorum` SECONDs, or
        # `quorum` FIRSTs while SECOND is unsent.
        need = quorum - second_count
        if not state["sent_second"]:
            need = min(need, quorum - first_count)
        wait.need = need
        return None

    wait = Wait(step, description=f"shared_coin{instance}", instances={instance})
    with ctx.span("shared_coin", instance):
        result = yield wait
    del wait  # `step` <-> `wait` is a cycle: free it by refcount (see approve)
    ctx.retire(instance)  # `step` was the instance's only reader
    ctx.annotate(
        "coin",
        variant="alg1",
        instance=instance,
        outcome=result,
        first_seen=first_count,
        second_seen=second_count,
    )
    return result
