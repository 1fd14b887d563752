"""Algorithm 2: the committee-based WHP coin.

The shared coin of Algorithm 1 with its two all-to-all phases replaced by
two sampled committees.  Only FIRST-committee members reveal VRF values;
only SECOND-committee members relay minima; everyone listens and outputs
the LSB of the minimum after W valid SECOND messages.  Word complexity
O(nλ) = Õ(n); success rate (18d² + 27d - 1)/(3 (5+6d)(1-d)(1+9d)) whp
(Lemma B.7), and liveness holds whp because each committee contains at
least W correct members (S3).
"""

from __future__ import annotations

from typing import Hashable

from repro.core.committees import membership_checker, sample
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

__all__ = ["whp_coin"]

_FIRST_ROLE = "first"
_SECOND_ROLE = "second"


def whp_coin(
    ctx: ProcessContext, round_id: Hashable, params: ProtocolParams | None = None
) -> Protocol:
    """Run one WHP-coin instance; returns the coin bit (0 or 1).

    All correct processes must invoke the same ``round_id`` causally
    independently of each other's progress (the BA protocol guarantees
    this by flipping the coin after proposals are fixed).

    Observability: the invocation runs inside a ``whp_coin`` span; on
    completion the process annotates one ``coin`` record (its outcome bit
    -- the rollup checks unanimity per invocation) and two ``committee``
    records (the validated FIRST/SECOND membership counts it observed,
    feeding the observed committee-size histograms).
    """
    params = params or ctx.params
    instance = ("whp_coin", round_id)
    committee_quorum = params.committee_quorum
    pki = ctx.pki
    # Hoisted validators (same checks/counters as the free functions).
    valid_first_member = membership_checker(pki, instance, _FIRST_ROLE, params)
    valid_second_member = membership_checker(pki, instance, _SECOND_ROLE, params)
    valid_value = coin_value_checker(pki, instance, params, _FIRST_ROLE)
    # The instance's validation-memo shelf: one verdict per send,
    # replayed by every later receiver (PKI.send_verdict).
    memo = pki.validation_memo(instance) if pki.verify_cache_enabled else None

    def valid_first(sender: int, msg: FirstMsg) -> bool:
        return valid_first_member(sender, msg.membership) and valid_value(
            msg.coin_value
        )

    def valid_second(sender: int, msg: SecondMsg) -> bool:
        return valid_second_member(sender, msg.membership) and valid_value(
            msg.coin_value
        )

    in_first, first_proof = sample(ctx, instance, _FIRST_ROLE, params)
    if in_first:
        my_output = ctx.vrf(coin_value_alpha(instance))
        my_value = CoinValue(
            value=my_output.value,
            origin=ctx.pid,
            vrf=my_output,
            origin_membership=first_proof,
        )
        ctx.broadcast(FirstMsg(instance, coin_value=my_value, membership=first_proof))

    in_second, second_proof = sample(ctx, instance, _SECOND_ROLE, params)

    # vi starts at infinity (None): non-members of the SECOND committee
    # only learn values through SECOND messages.  (Pseudocode line 3 also
    # seeds a FIRST-committee member's vi with its own value; we fold that
    # value in through its self-delivered FIRST instead, which only second
    # members consume -- strictly *more* homogeneous across processes, so
    # every agreement bound is preserved.)
    state: dict = {"min": None, "sent_second": False}
    # Distinct validated senders per phase: a seen-bitmap over the
    # kernel-authenticated pids plus a count (as in the approver).  Only
    # SECOND members tally FIRSTs, so only they pay for that bitmap.
    first_seen = bytearray(ctx.n if in_second else 0)
    second_seen = bytearray(ctx.n)
    first_count = second_count = 0
    cursor = 0

    def consider(coin_value: CoinValue) -> None:
        if state["min"] is None or coin_value.value < state["min"].value:
            state["min"] = coin_value

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
                # Only SECOND-committee members act on FIRST messages.
                if not in_second or first_seen[sender]:
                    continue
                coin_value = msg.coin_value
                if coin_value.origin != sender:
                    continue
                if not pki.send_verdict(memo, entry, valid_first):
                    continue
                first_seen[sender] = 1
                first_count += 1
                consider(coin_value)
            elif isinstance(msg, SecondMsg):
                if second_seen[sender]:
                    continue
                if not pki.send_verdict(memo, entry, valid_second):
                    continue
                second_seen[sender] = 1
                second_count += 1
                consider(msg.coin_value)
        if (
            in_second
            and not state["sent_second"]
            and first_count >= committee_quorum
        ):
            state["sent_second"] = True
            ctx.broadcast(
                SecondMsg(instance, coin_value=state["min"], membership=second_proof)
            )
        if second_count >= committee_quorum:
            return state["min"].value & 1
        # The wake-up floor: a delivery adds at most one to one count, and
        # only W SECONDs (return) or, for a SECOND member yet to send, W
        # FIRSTs (broadcast) can act.
        need = committee_quorum - second_count
        if in_second and not state["sent_second"]:
            need = min(need, committee_quorum - first_count)
        wait.need = need
        return None

    wait = Wait(step, description=f"whp_coin{instance}", instances={instance})
    with ctx.span("whp_coin", instance):
        result = yield wait
    del wait  # `step` <-> `wait` is a cycle: free it by refcount (see approve)
    ctx.retire(instance)  # `step` was the instance's only reader
    ctx.annotate(
        "committee", instance=instance, role=_FIRST_ROLE, size=first_count
    )
    ctx.annotate(
        "committee", instance=instance, role=_SECOND_ROLE, size=second_count
    )
    ctx.annotate(
        "coin",
        variant="whp",
        instance=instance,
        outcome=result,
        in_first=in_first,
        in_second=in_second,
    )
    return result
