"""Rabin's randomized Byzantine Generals [FOCS 1983] (Table 1 row 2).

Rabin's insight was replacing Ben-Or's private coin with a *pre-dealt
common* coin -- a trusted dealer distributes Shamir sharings of a sequence
of random bits ("the lottery") before the run -- collapsing the expected
round count from exponential to constant while keeping O(n²) words per
round.  Rabin stated the protocol for n > 10f; the vote structure we run
is the Ben-Or phase structure (correct for n > 5f ⊃ n > 10f) with the
dealer's lottery as the fallback coin, which preserves the row's three
Table-1 characteristics: resilience bound, O(n²) expected words, and
probability-1 termination in O(1) expected rounds.  DESIGN.md records the
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.baselines.benor import benor_round_structure
from repro.baselines.mmr import CoinProtocol
from repro.core.params import ProtocolParams
from repro.crypto.shamir import Share
from repro.crypto.threshold import RabinLotteryDealer
from repro.sim.mailbox import Mailbox
from repro.sim.messages import Message, bit, exactly, integer
from repro.sim.process import ProcessContext, Protocol, Wait

__all__ = ["LotteryShareMsg", "make_lottery_coin", "rabin_agreement"]


@dataclass
class LotteryShareMsg(Message):
    """One process's pre-dealt share of the round's lottery bit (one word:
    one field element, the analogue of a signature-sized value)."""

    share: Share = None  # type: ignore[assignment]
    field_kinds = {"share": exactly(Share, x=integer, y=integer)}


def make_lottery_coin(dealer: RabinLotteryDealer) -> CoinProtocol:
    """A common coin backed by Rabin's pre-distributed lottery shares."""

    def coin(ctx: ProcessContext, round_id: Hashable) -> Protocol:
        instance = ("lottery", round_id)
        ctx.broadcast(
            LotteryShareMsg(instance, share=dealer.coin_share(ctx.pid, round_id))
        )
        shares: dict[int, Share] = {}
        cursor = 0

        def collect(mailbox: Mailbox):
            nonlocal cursor
            stream = mailbox.stream(instance)
            while cursor < len(stream):
                sender, msg = stream[cursor]
                cursor += 1
                if not isinstance(msg, LotteryShareMsg) or sender in shares:
                    continue
                if dealer.verify_share(sender, round_id, msg.share):
                    shares[sender] = msg.share
            if len(shares) >= dealer.threshold:
                return dealer.combine(shares, round_id)
            return None

        bit = yield Wait(collect, description=f"lottery{instance}")
        ctx.retire(instance)  # `collect` was the instance's only reader
        return bit

    return coin


def rabin_agreement(
    ctx: ProcessContext,
    value: int,
    dealer: RabinLotteryDealer,
    params: ProtocolParams | None = None,
    max_rounds: int | None = None,
) -> Protocol:
    """Propose binary ``value``; decide through ``ctx.decide`` (w.p. 1).

    Table-1 operating point: n > 10f, O(n²) words, O(1) expected rounds.
    """
    if not bit(value):
        raise ValueError("Rabin agreement is binary; propose 0 or 1")
    params = params or ctx.params
    coin = make_lottery_coin(dealer)
    est = value
    round_id = 0
    while max_rounds is None or round_id < max_rounds:
        decided, boosted = yield from benor_round_structure(
            ctx, round_id, est, params, namespace="rabin"
        )
        flip = yield from coin(ctx, round_id)
        if decided is not None:
            if not ctx.decided:
                ctx.notes["decision_round"] = round_id
            ctx.decide(decided)
            est = decided
        elif boosted is not None:
            est = boosted
        else:
            est = flip
        round_id += 1
    return ctx.decision
