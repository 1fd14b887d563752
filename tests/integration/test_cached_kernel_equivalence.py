"""The hot-path optimisations are pure: cached+keyed == uncached+eager.

Runs the same (protocol, scheduler, seed) cell through the optimised
kernel (verification cache on, instance-keyed wakeups honoured) and the
reference kernel (a ``PKI`` built with ``verify_cache=False``, and the
protocol wrapped in ``tests.kernel_reference.unsubscribed``, so every
pending condition is re-evaluated after every delivery) and asserts
every observable RunResult field matches -- across the scheduler zoo
for the shared coin, and under random scheduling for WHP coin and full
Byzantine Agreement.  This is the soundness certificate for DESIGN.md's
cache/wakeup argument.
"""

from __future__ import annotations

import random

import pytest

from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.core.whp_coin import whp_coin
from repro.crypto.pki import PKI
from repro.experiments.protocols import make_runner
from repro.crypto.hashing import derive_seed
from repro.sim.adversary import Adversary, RandomScheduler, StaticCorruption
from repro.sim.diffing import divergence_hint
from repro.sim.runner import (
    RunResult,
    run_protocol,
    stop_when_all_decided,
    stop_when_all_returned,
)

from tests.integration.test_determinism_matrix import SCHEDULER_FACTORIES
from tests.kernel_reference import unsubscribed

N, F = 10, 2


def observable(result: RunResult) -> tuple:
    """All kernel-determined fields; cache/wakeup counters excluded
    (they legitimately differ between the two kernels)."""
    return (
        result.n,
        result.f,
        result.seed,
        result.corrupted,
        result.returns,
        result.decisions,
        result.decision_depths,
        result.notes,
        result.deliveries,
        result.deadlocked,
        result.exhausted,
        result.stopped_by_condition,
        result.words,
        result.metrics.words_total,
        result.metrics.messages_sent_correct,
        result.metrics.messages_sent_total,
        result.metrics.messages_delivered,
        result.metrics.words_by_kind,
        result.metrics.messages_by_kind,
    )


def gated(factory, fast: bool):
    """``factory`` as the optimised kernel runs it, or as the reference does."""
    return factory if fast else unsubscribed(factory)


def run_shared_coin(scheduler_name: str, seed: int, fast: bool) -> RunResult:
    pki = PKI.create(N, rng=random.Random(99), verify_cache=fast)
    adversary = Adversary(
        scheduler=SCHEDULER_FACTORIES[scheduler_name](seed),
        corruption=StaticCorruption({0, 1}),
    )
    return run_protocol(
        N, F, gated(lambda ctx: shared_coin(ctx, 0), fast),
        adversary=adversary, pki=pki, params=ProtocolParams(n=N, f=F), seed=seed,
        stop_condition=stop_when_all_returned,
    )


def default_adversary(seed: int, f: int) -> Adversary:
    """What ``run_protocol(corrupt=set(range(f)), seed=seed)`` builds."""
    return Adversary(
        scheduler=RandomScheduler(random.Random(derive_seed(seed, "sched"))),
        corruption=StaticCorruption(set(range(f))),
    )


@pytest.mark.parametrize("name", sorted(SCHEDULER_FACTORIES))
@pytest.mark.parametrize("seed", [5, 11])
def test_shared_coin_equivalence_across_schedulers(name, seed):
    fast = run_shared_coin(name, seed, fast=True)
    slow = run_shared_coin(name, seed, fast=False)
    assert observable(fast) == observable(slow), divergence_hint(
        f"cached != uncached for shared coin ({name}, seed {seed})"
    )
    # The reference kernel really ran unoptimised.
    assert slow.metrics.verification_cache_hits == 0
    assert slow.metrics.wait_skips == 0


@pytest.mark.parametrize("seed", range(3))
def test_whp_coin_equivalence(seed):
    n, f = 40, 1
    params = ProtocolParams.simulation_scale(n=n, f=f)

    def run(fast: bool) -> RunResult:
        return run_protocol(
            n, f, gated(lambda ctx: whp_coin(ctx, 0), fast),
            adversary=default_adversary(seed, f), params=params, seed=seed,
            pki=PKI.create(n, rng=random.Random(seed), verify_cache=fast),
            stop_condition=stop_when_all_returned,
        )

    fast, slow = run(True), run(False)
    assert observable(fast) == observable(slow), divergence_hint(
        f"cached != uncached for whp_coin (seed {seed})"
    )
    # At whp-coin scale the cache should actually be doing work.
    assert fast.metrics.verification_cache_hits > 0


@pytest.mark.parametrize("seed", range(2))
def test_byzantine_agreement_equivalence(seed):
    n = 24
    factory, params, f = make_runner("whp_ba", n, seed=seed)

    def run(fast: bool) -> RunResult:
        return run_protocol(
            n, f, gated(factory, fast), adversary=default_adversary(seed, f),
            params=params, stop_condition=stop_when_all_decided, seed=seed,
            pki=PKI.create(n, rng=random.Random(seed), verify_cache=fast),
        )

    fast, slow = run(True), run(False)
    assert observable(fast) == observable(slow), divergence_hint(
        f"cached != uncached for whp_ba (seed {seed})"
    )
    assert fast.metrics.wait_skips > 0  # keyed wakeups actually engaged
