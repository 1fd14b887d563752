"""Hybrid agreement: probability-1 termination with Õ(n) *expected* words.

The paper's conclusion asks "whether some of the problem's properties can
be satisfied with probability 1, while keeping the sub-quadratic
communication cost".  This module explores the natural answer for
termination: run Algorithm 4's committee rounds for a bounded number of
rounds, and if undecided -- which happens only in whp-failure events
(a committee undershooting W, a coin run of bad luck) -- fall back to
MMR instantiated with the Algorithm 1 shared coin, which terminates with
probability 1 at O(n²) words (the paper's own Section 4 combination).

What this buys and what it does not:

* **Termination w.p. 1** -- the fallback is probability-1 terminating,
  and every correct process reaches it after exactly
  ``committee_rounds`` undecided rounds (the committee phase cannot block
  forever: each round either completes whp or the run is already in the
  failure event the fallback exists for; a ``round_timeout`` on waits is
  out of scope for an asynchronous model, so blocking-forever committee
  failures -- S3 shortfalls -- still stall the hybrid.  We therefore also
  size W against the *fallback quorum*: see ``min_live_params``).
* **Expected words stay Õ(n)** -- the O(n²) fallback is paid with the
  whp-failure probability, vanishing in the paper's asymptotics.
* **Safety stays whp, not w.p. 1** -- a process that decided v in the
  committee phase never revokes; in a whp-failure event the fallback
  could decide differently.  The open question for *agreement* w.p. 1
  remains open here too, and the tests assert exactly this contract.
"""

from __future__ import annotations

from repro.baselines.mmr import make_shared_coin, mmr_agreement
from repro.core.agreement import agreement_round
from repro.core.params import ProtocolParams
from repro.sim.messages import bit
from repro.sim.process import ProcessContext, Protocol

__all__ = ["hybrid_agreement"]


def hybrid_agreement(
    ctx: ProcessContext,
    value: int,
    params: ProtocolParams | None = None,
    committee_rounds: int = 8,
    max_fallback_rounds: int | None = None,
) -> Protocol:
    """Propose binary ``value``; decide whp in the committee phase, else
    via the MMR + Algorithm 1 fallback.

    ``committee_rounds`` bounds the Õ(n) phase; with the coin's constant
    success rate the fallback probability decays geometrically in it.
    """
    if not bit(value):
        raise ValueError("hybrid agreement is binary; propose 0 or 1")
    params = params or ctx.params
    ctx.annotate("propose", tag="hybrid", value=repr(value))
    est = value
    for round_id in range(committee_rounds):
        est, decided = yield from agreement_round(
            ctx, "hybrid", round_id, est, params
        )
        if decided is not None:
            if not ctx.decided:
                ctx.notes["decision_round"] = round_id
                ctx.notes["decided_by"] = "committee"
            ctx.decide(decided)
            est = decided
        # Decided processes keep participating (in both phases): laggards
        # depend on their committee luck and their fallback votes alike.
    if not ctx.decided:
        ctx.notes["fallback"] = True
        # Any decision from here on is the fallback's (recorded up front
        # because the fallback loops forever and only the harness stops it).
        ctx.notes.setdefault("decided_by", "fallback")
    return (
        yield from mmr_agreement(
            ctx, est, coin=make_shared_coin(params), params=params,
            max_rounds=max_fallback_rounds,
        )
    )
