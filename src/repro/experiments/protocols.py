"""Uniform construction of every Table 1 protocol for the harness.

``make_runner(name, n, f, seed)`` returns ``(factory, params)`` ready for
:func:`repro.sim.runner.run_protocol`: the per-protocol trusted setup
(lottery / threshold dealers, committee parameters) is derived
deterministically from the seed so sweeps are reproducible.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.baselines.benor import benor_agreement
from repro.baselines.bracha import bracha_agreement
from repro.baselines.cachin import cachin_agreement
from repro.baselines.mmr import local_coin, make_shared_coin, mmr_agreement
from repro.baselines.rabin import rabin_agreement
from repro.core.agreement import byzantine_agreement
from repro.core.params import ProtocolParams
from repro.crypto.hashing import derive_seed
from repro.crypto.threshold import RabinLotteryDealer, ThresholdCoinDealer
from repro.sim.process import ProcessContext, Protocol, ProtocolFactory

__all__ = ["PROTOCOLS", "default_f", "make_runner"]

# Table 1 resilience operating points, as a fraction of n (conservative so
# protocols run *within* their stated bounds).
_RESILIENCE_FRACTION = {
    "benor": 1 / 6,       # n > 5f
    "bracha": 1 / 4,      # n > 3f
    "rabin": 1 / 12,      # n > 10f
    "cachin": 1 / 4,      # n > 3f
    "mmr": 1 / 4,         # n > 3f
    "mmr+alg1": 1 / 5,    # (1/3 - eps) n with eps comfortably positive
    "whp_ba": 1 / 12,     # small f keeps committee liveness margins
}

PROTOCOLS = tuple(_RESILIENCE_FRACTION)


def default_f(name: str, n: int) -> int:
    """The corruption budget each protocol is benchmarked at."""
    if name not in _RESILIENCE_FRACTION:
        raise ValueError(f"unknown protocol {name!r}; one of {PROTOCOLS}")
    return max(1, int(_RESILIENCE_FRACTION[name] * n)) if n > 4 else 0


def make_runner(
    name: str,
    n: int,
    f: int | None = None,
    seed: int = 0,
    value_fn: Callable[[ProcessContext], int] | None = None,
    max_rounds: int | None = None,
    safety_sigmas: float = 4.0,
) -> tuple[ProtocolFactory, ProtocolParams, int]:
    """Build ``(protocol_factory, params, f)`` for one named protocol.

    ``value_fn`` maps a context to the binary proposal (default: split
    inputs, ``pid % 2`` -- the adversarial input pattern).
    ``safety_sigmas``: whp_ba's committee margin where no budget states one.
    """
    if f is None:
        f = default_f(name, n)
    value_fn = value_fn or (lambda ctx: ctx.pid % 2)
    setup_rng = random.Random(derive_seed(seed, "dealer", name, n, f))

    if name == "whp_ba":
        params = ProtocolParams.simulation_scale(n=n, f=f, safety_sigmas=safety_sigmas)

        def factory(ctx: ProcessContext) -> Protocol:
            return byzantine_agreement(ctx, value_fn(ctx), max_rounds=max_rounds)

        return factory, params, f

    params = ProtocolParams(n=n, f=f)
    if name == "benor":
        def factory(ctx: ProcessContext) -> Protocol:
            return benor_agreement(ctx, value_fn(ctx), max_rounds=max_rounds)
    elif name == "bracha":
        def factory(ctx: ProcessContext) -> Protocol:
            return bracha_agreement(ctx, value_fn(ctx), max_rounds=max_rounds)
    elif name == "rabin":
        dealer = RabinLotteryDealer(n, f + 1, setup_rng)

        def factory(ctx: ProcessContext) -> Protocol:
            return rabin_agreement(ctx, value_fn(ctx), dealer, max_rounds=max_rounds)
    elif name == "cachin":
        dealer = ThresholdCoinDealer(n, f + 1, setup_rng)

        def factory(ctx: ProcessContext) -> Protocol:
            return cachin_agreement(ctx, value_fn(ctx), dealer, max_rounds=max_rounds)
    elif name == "mmr":
        def factory(ctx: ProcessContext) -> Protocol:
            return mmr_agreement(ctx, value_fn(ctx), local_coin, max_rounds=max_rounds)
    elif name == "mmr+alg1":
        coin = make_shared_coin()

        def factory(ctx: ProcessContext) -> Protocol:
            return mmr_agreement(ctx, value_fn(ctx), coin, max_rounds=max_rounds)
    else:
        raise ValueError(f"unknown protocol {name!r}; one of {PROTOCOLS}")
    return factory, params, f
