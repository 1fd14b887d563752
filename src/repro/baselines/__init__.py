"""Baseline asynchronous Byzantine Agreement protocols (paper Table 1).

Every row of the paper's comparison table is implemented against the same
simulator and the same metrics, so the word-complexity and resilience
comparison can be regenerated empirically:

=====================  ==========  =================  =====================
Protocol               Resilience  Coin               Expected complexity
=====================  ==========  =================  =====================
:mod:`benor`           n > 5f      local              O(2^n) words
:mod:`bracha`          n > 3f      local              O(2^n) words
:mod:`rabin`           n > 10f     dealer lottery     O(n²) words
:mod:`cachin`          n > 3f      threshold (CKS)    O(n²) words
:mod:`mmr`             n > 3f      pluggable          O(n²) words
repro.core.agreement   n ≈ 4.5f    WHP coin (VRF)     Õ(n) words
=====================  ==========  =================  =====================

:func:`~repro.baselines.mmr.mmr_agreement` takes the coin as a parameter;
instantiating it with the paper's Algorithm 1 coin yields the O(n²) BA
mentioned at the end of the paper's Section 4 (experiment E7).
"""

from repro.baselines.benor import benor_agreement
from repro.baselines.bracha import bracha_agreement, reliable_broadcast_all
from repro.baselines.cachin import cachin_agreement, make_threshold_coin
from repro.baselines.mmr import local_coin, make_shared_coin, mmr_agreement
from repro.baselines.rabin import make_lottery_coin, rabin_agreement

__all__ = [
    "benor_agreement",
    "bracha_agreement",
    "cachin_agreement",
    "local_coin",
    "make_lottery_coin",
    "make_shared_coin",
    "make_threshold_coin",
    "mmr_agreement",
    "rabin_agreement",
    "reliable_broadcast_all",
]
