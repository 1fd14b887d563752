"""Cachin-Kursawe-Shoup-style Byzantine Agreement (Table 1 row 4).

CKS ("Random oracles in Constantinople", J. Cryptology 2005) were the
first to combine a threshold-cryptography common coin with an O(n²)-word
asynchronous BA at optimal resilience n > 3f.  We reproduce that point in
the design space as *MMR's vote structure + a CKS-style threshold coin*:
the communication pattern (all-to-all votes plus one share exchange per
round), resilience, and word complexity match CKS's ABBA; the vote-rule
details follow MMR, whose correctness argument is simpler and which the
paper itself builds on.  DESIGN.md records this substitution.

The coin: a trusted dealer Shamir-shares an exponent; each round every
process broadcasts its share ``H(r)^{x_i}``; any f+1 valid shares combine
to the same unpredictable bit (see :mod:`repro.crypto.threshold`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.baselines.mmr import CoinProtocol, mmr_agreement
from repro.core.params import ProtocolParams
from repro.crypto.threshold import ThresholdCoinDealer
from repro.sim.mailbox import Mailbox
from repro.sim.messages import Message, integer
from repro.sim.process import ProcessContext, Protocol, Wait

__all__ = ["CoinShareMsg", "cachin_agreement", "make_threshold_coin"]


@dataclass
class CoinShareMsg(Message):
    """One process's threshold-coin share for a round (one word: one group
    element, the analogue of a signature share)."""

    share: int = 0
    field_kinds = {"share": integer}


def make_threshold_coin(dealer: ThresholdCoinDealer) -> CoinProtocol:
    """A common-coin protocol backed by ``dealer``'s threshold setup.

    Each invocation broadcasts the caller's share and waits for
    ``dealer.threshold`` *valid* shares; any such set combines to the same
    bit, so all correct processes output alike with probability 1 -- a
    perfect common coin, which is why CKS terminate in O(1) expected
    rounds with probability 1 rather than whp.
    """

    def coin(ctx: ProcessContext, round_id: Hashable) -> Protocol:
        instance = ("threshold_coin", round_id)
        ctx.broadcast(CoinShareMsg(instance, share=dealer.coin_share(ctx.pid, round_id)))
        shares: dict[int, int] = {}
        cursor = 0

        def collect(mailbox: Mailbox):
            nonlocal cursor
            stream = mailbox.stream(instance)
            while cursor < len(stream):
                sender, msg = stream[cursor]
                cursor += 1
                if not isinstance(msg, CoinShareMsg) or sender in shares:
                    continue
                if dealer.verify_share(sender, round_id, msg.share):
                    shares[sender] = msg.share
            if len(shares) >= dealer.threshold:
                return dealer.combine(shares, round_id)
            return None

        bit = yield Wait(collect, description=f"threshold_coin{instance}")
        ctx.retire(instance)  # `collect` was the instance's only reader
        return bit

    return coin


def cachin_agreement(
    ctx: ProcessContext,
    value: int,
    dealer: ThresholdCoinDealer,
    params: ProtocolParams | None = None,
    max_rounds: int | None = None,
) -> Protocol:
    """CKS-style BA: n > 3f, O(n²) words, O(1) expected rounds."""
    return (
        yield from mmr_agreement(
            ctx, value, coin=make_threshold_coin(dealer), params=params, max_rounds=max_rounds
        )
    )
