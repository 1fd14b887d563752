"""repro -- reproduction of "Not a COINcidence: Sub-Quadratic Asynchronous
Byzantine Agreement WHP" (Cohen, Keidar, Spiegelman; PODC 2020).

The package is organised bottom-up:

* :mod:`repro.crypto` -- VRF, signatures, Shamir, threshold coins, PKI.
* :mod:`repro.sim` -- discrete-event asynchronous simulator whose
  scheduler *is* the (delayed-adaptive) adversary.
* :mod:`repro.core` -- the paper's Algorithms 1-4 and committee sampling.
* :mod:`repro.baselines` -- Ben-Or, Bracha, Rabin, Cachin-style and MMR
  Byzantine Agreement (the other rows of the paper's Table 1).
* :mod:`repro.analysis` -- the paper's closed-form bounds and the
  statistics used by the experiment harness.

Quickstart::

    from repro import ProtocolParams, byzantine_agreement, run_protocol
    from repro.sim import stop_when_all_decided

    params = ProtocolParams.simulation_scale(n=60, f=4, lam=45)
    result = run_protocol(
        60, 4,
        lambda ctx: byzantine_agreement(ctx, ctx.pid % 2),
        corrupt={0, 1, 2, 3},
        params=params,
        stop_condition=stop_when_all_decided,
    )
    print(result.decided_values, result.words)
"""

from repro.core import (
    BOT,
    ProtocolParams,
    approve,
    byzantine_agreement,
    hybrid_agreement,
    sample_committee,
    shared_coin,
    whp_coin,
)
from repro.crypto import PKI
from repro.sim import (
    Adversary,
    RunResult,
    run_protocol,
    stop_when_all_decided,
    stop_when_all_returned,
)

__version__ = "1.0.0"

__all__ = [
    "Adversary",
    "BOT",
    "PKI",
    "ProtocolParams",
    "RunResult",
    "approve",
    "byzantine_agreement",
    "hybrid_agreement",
    "run_protocol",
    "sample_committee",
    "shared_coin",
    "stop_when_all_decided",
    "stop_when_all_returned",
    "whp_coin",
    "__version__",
]
