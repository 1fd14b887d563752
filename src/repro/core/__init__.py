"""The paper's contribution: Algorithms 1-4 and validated committee sampling.

* :func:`~repro.core.shared_coin.shared_coin` -- Algorithm 1, the
  full-participation VRF shared coin (O(n²) words).
* :mod:`~repro.core.committees` -- validated committee sampling
  (Section 5.1): ``sample`` / ``committee_val``.
* :func:`~repro.core.whp_coin.whp_coin` -- Algorithm 2, the
  committee-based WHP coin (Õ(n) words).
* :func:`~repro.core.approver.approve` -- Algorithm 3, the committee-based
  approver (Õ(n) words).
* :func:`~repro.core.agreement.byzantine_agreement` -- Algorithm 4,
  Byzantine Agreement WHP in O(1) expected rounds and Õ(n) expected words.
* :class:`~repro.core.params.ProtocolParams` -- n, f, ε, λ, d, W, B with
  the paper's feasibility windows.
"""

from repro.core.agreement import BOT, agreement_round, byzantine_agreement
from repro.core.hybrid import hybrid_agreement
from repro.core.approver import approve
from repro.core.committees import (
    committee_seed,
    committee_val,
    sample,
    sample_committee,
    sampling_threshold,
)
from repro.core.messages import (
    CoinValue,
    EchoMsg,
    FirstMsg,
    InitMsg,
    OkMsg,
    SecondMsg,
    coin_value_alpha,
    echo_signing_bytes,
    validate_coin_value,
)
from repro.core.params import ProtocolParams, paper_d_window, paper_epsilon_window
from repro.core.shared_coin import shared_coin
from repro.core.whp_coin import whp_coin

__all__ = [
    "BOT",
    "CoinValue",
    "EchoMsg",
    "FirstMsg",
    "InitMsg",
    "OkMsg",
    "ProtocolParams",
    "SecondMsg",
    "agreement_round",
    "approve",
    "byzantine_agreement",
    "hybrid_agreement",
    "coin_value_alpha",
    "committee_seed",
    "committee_val",
    "echo_signing_bytes",
    "paper_d_window",
    "paper_epsilon_window",
    "sample",
    "sample_committee",
    "sampling_threshold",
    "shared_coin",
    "validate_coin_value",
    "whp_coin",
]
