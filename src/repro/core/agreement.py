"""Algorithm 4: asynchronous sub-quadratic Byzantine Agreement WHP.

MMR-style rounds built from two approver instances and one WHP-coin flip::

    vals  <- approve(est)                 # filter estimates
    prop  <- v if vals == {v} else ⊥
    c     <- whp_coin(r)                  # after proposals are fixed!
    props <- approve(prop)
    if props == {v}, v != ⊥ :  est <- v; decide(v)
    elif props == {⊥}        :  est <- c
    else (props == {v, ⊥})   :  est <- v

Decisions are recorded through ``ctx.decide`` and are irrevocable; the
protocol itself loops forever (processes keep helping laggards), so runs
are stopped by the harness once every correct process has decided
(``stop_when_all_decided``).  Expected O(1) rounds, Õ(n) words whp.
"""

from __future__ import annotations

from repro.core.approver import approve
from repro.core.params import ProtocolParams
from repro.core.whp_coin import whp_coin
from repro.sim.messages import bit
from repro.sim.process import ProcessContext, Protocol

__all__ = ["BOT", "agreement_round", "byzantine_agreement"]

# The paper's ⊥.  None is canonically encodable, so it flows through the
# approver like any other value.
BOT = None


def agreement_round(
    ctx: ProcessContext,
    tag: str,
    round_id: int,
    est: int,
    params: ProtocolParams,
) -> Protocol:
    """One round of Algorithm 4; returns ``(new_est, decided_value_or_None)``.

    Shared by :func:`byzantine_agreement` and the probability-1-termination
    hybrid in :mod:`repro.core.hybrid`.  ``decided_value`` is non-``None``
    exactly when this round's second approver returned a non-⊥ singleton.

    Each round runs inside a ``ba-round`` span (round start/end on the
    event bus) and ends by appending one ``round`` protocol record per
    process -- the raw material of the per-round rollups in
    :meth:`~repro.sim.metrics.MetricsRecorder.rounds`.
    """
    with ctx.span("ba-round", (tag, round_id)):
        vals = yield from approve(ctx, (tag, round_id, "est"), est, params)
        if len(vals) == 1:
            proposal = next(iter(vals))
        else:
            proposal = BOT

        # The coin is flipped only after every correct process has fixed its
        # proposal for this round, so the adversary cannot bias proposals with
        # knowledge of the flip (Lemma 6.8(2) holds because nothing above
        # waits on other processes' coin progress).
        coin = yield from whp_coin(ctx, (tag, round_id), params)

        props = yield from approve(ctx, (tag, round_id, "prop"), proposal, params)
        non_bot = {v for v in props if v is not BOT}
        if props == frozenset({BOT}) or not non_bot:
            new_est, decided = coin, None
        else:
            v = next(iter(non_bot))
            new_est, decided = (v, v) if len(props) == 1 else (v, None)
    ctx.annotate("round", tag=tag, round=round_id, est=new_est, decided=decided)
    return new_est, decided


def byzantine_agreement(
    ctx: ProcessContext,
    value: int,
    params: ProtocolParams | None = None,
    max_rounds: int | None = None,
    tag: str = "ba",
) -> Protocol:
    """Propose binary ``value``; decide through ``ctx.decide`` whp.

    ``max_rounds`` bounds the loop for experiments that must terminate
    even on (whp-rare) failures; ``None`` means loop forever, relying on
    the harness's stop condition.  ``tag`` namespaces the instance ids so
    distinct agreement instances never alias (the trusted setup is done
    once and reused across instances, as the paper notes; the ledger
    example reuses one PKI over a sequence of slots).
    """
    if not bit(value):
        raise ValueError("Byzantine Agreement here is binary; propose 0 or 1")
    params = params or ctx.params
    # The Validity ground truth: what this (correct-at-the-time) process
    # actually proposed, compared against decisions by the conformance
    # monitors (values repr-encoded like every protocol record).
    ctx.annotate("propose", tag=tag, value=repr(value))
    est = value
    round_id = 0
    while max_rounds is None or round_id < max_rounds:
        est, decided = yield from agreement_round(ctx, tag, round_id, est, params)
        if decided is not None:
            if not ctx.decided:
                ctx.notes["decision_round"] = round_id
            ctx.decide(decided)
        round_id += 1
    return ctx.decision
