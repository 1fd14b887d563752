"""Ben-Or's randomized Byzantine Agreement [PODC 1983] (Table 1 row 1).

The original asynchronous BA: resilience n > 5f, a private *local* coin,
probability-1 termination but exponential expected time (constant only for
f = O(√n)).  Round structure:

1. broadcast ``R(r, est)``; wait for n-f reports;
2. if more than (n+f)/2 reports carry the same v, broadcast ``P(r, v)``,
   else broadcast ``P(r, ?)``; wait for n-f proposals;
3. if more than (n+f)/2 proposals carry v -- decide v; if at least f+1
   carry v -- adopt v; otherwise flip the local coin.

The same vote structure is reused by :mod:`repro.baselines.rabin` with the
dealer coin swapped in, which is what collapses the expected round count
to a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.params import ProtocolParams
from repro.sim.mailbox import Mailbox
from repro.sim.messages import Message, bit, canonical
from repro.sim.process import ProcessContext, Protocol, Wait

__all__ = ["ProposalMsg", "ReportMsg", "benor_agreement", "benor_round_structure"]

# The "?" placeholder of phase-2 proposals (no value was seen often enough).
UNDECIDED = "?"


@dataclass
class ReportMsg(Message):
    """Phase-1 report of the sender's current estimate."""

    value: int = 0
    field_kinds = {"value": bit}


@dataclass
class ProposalMsg(Message):
    """Phase-2 proposal: a boosted value, or '?' if none qualified."""

    value: object = UNDECIDED
    field_kinds = {"value": canonical}


def _collect_votes(instance: Hashable, quorum: int, kind: type, allowed):
    """A wait-condition collecting ``quorum`` distinct-sender votes."""
    votes: dict[int, object] = {}
    cursor = 0

    def condition(mailbox: Mailbox):
        nonlocal cursor
        stream = mailbox.stream(instance)
        while cursor < len(stream):
            sender, msg = stream[cursor]
            cursor += 1
            if isinstance(msg, kind) and msg.value in allowed and sender not in votes:
                votes[sender] = msg.value
        if len(votes) >= quorum:
            return dict(votes)
        return None

    return condition


def benor_round_structure(
    ctx: ProcessContext,
    round_id: Hashable,
    est: int,
    params: ProtocolParams,
    namespace: str,
) -> Protocol:
    """One Ben-Or round; returns ``(decided_value_or_None, boosted_value_or_None)``.

    Factored out so the Rabin baseline can reuse the exact vote structure
    with a different fallback coin.  ``namespace`` keeps the two
    protocols' instances disjoint.
    """
    n, f, quorum = params.n, params.f, params.quorum
    boost_threshold = (n + f) / 2  # strictly-more-than

    report_instance = (namespace, round_id, "report")
    ctx.broadcast(ReportMsg(report_instance, value=est))
    reports = yield Wait(
        _collect_votes(report_instance, quorum, ReportMsg, (0, 1)),
        description=f"reports{report_instance}",
    )
    ctx.retire(report_instance)  # the vote collector was its only reader

    proposal: object = UNDECIDED
    for candidate in (0, 1):
        if sum(1 for value in reports.values() if value == candidate) > boost_threshold:
            proposal = candidate
    proposal_instance = (namespace, round_id, "proposal")
    ctx.broadcast(ProposalMsg(proposal_instance, value=proposal))
    proposals = yield Wait(
        _collect_votes(proposal_instance, quorum, ProposalMsg, (0, 1, UNDECIDED)),
        description=f"proposals{proposal_instance}",
    )
    ctx.retire(proposal_instance)

    decided = None
    boosted = None
    for candidate in (0, 1):
        count = sum(1 for value in proposals.values() if value == candidate)
        if count > boost_threshold:
            decided = candidate
        if count >= f + 1:
            boosted = candidate
    return decided, boosted


def benor_agreement(
    ctx: ProcessContext,
    value: int,
    params: ProtocolParams | None = None,
    max_rounds: int | None = None,
) -> Protocol:
    """Propose binary ``value``; decide through ``ctx.decide`` (w.p. 1).

    Requires n > 5f.  Expected rounds O(2^n) in the worst case -- runs at
    scale therefore bound ``max_rounds`` or start from agreeing inputs.
    """
    if not bit(value):
        raise ValueError("Ben-Or agreement is binary; propose 0 or 1")
    params = params or ctx.params
    est = value
    round_id = 0
    while max_rounds is None or round_id < max_rounds:
        decided, boosted = yield from benor_round_structure(
            ctx, round_id, est, params, namespace="benor"
        )
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
