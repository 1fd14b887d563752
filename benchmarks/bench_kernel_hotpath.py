"""Kernel hot-path microbenchmark: cached vs uncached simulation kernel
(the purity argument lives in section 6, see DESIGN.md).

Times the same seed sweep (WHP coin at n=120 and full BA at n=100) twice:
once on the optimised kernel (verification cache + instance-keyed
wakeups), once with both disabled -- the pre-optimisation kernel: a
``PKI`` built with ``verify_cache=False``, and the protocol wrapped in
``tests/kernel_reference.py``'s ``unsubscribed``, which re-yields every
wait without its subscription, so each is re-evaluated after every
delivery.  Asserts

* every observable RunResult field is identical between the two paths
  (the optimisations are pure);
* the optimised arm evaluates a pending wait on at most 15 % of the
  deliveries that reach it (the ``Wait.need`` floors stay engaged,
  smoke included); and
* the optimised kernel is at least 2x faster wall-clock on the combined
  sweep, with the verification-cache hit rate reported.

Also reports the parallel-sweep path (``parallel_map`` with one worker
per CPU); on a single-CPU box that adds nothing, so speedup is asserted
on the serial cached path only.

Run standalone for CI smoke (tiny sweep, no pytest-benchmark)::

    PYTHONPATH=src python benchmarks/bench_kernel_hotpath.py --smoke
"""

from __future__ import annotations

import os
import random
import sys
import time
from pathlib import Path

from repro.core.params import ProtocolParams
from repro.core.whp_coin import whp_coin
from repro.crypto.hashing import derive_seed
from repro.crypto.pki import PKI
from repro.experiments.parallel import derive_sweep_seeds, parallel_map
from repro.experiments.protocols import make_runner
from repro.sim.runner import (
    RunResult,
    run_protocol,
    stop_when_all_decided,
    stop_when_all_returned,
)

# The reference shims live with the tests, at the repository root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.kernel_reference import unsubscribed  # noqa: E402

COIN_N, COIN_F = 120, 4
BA_N = 100
ROOT_SEED = 2020
# Ceiling on the cached+keyed arm's wait evaluations, as a share of
# evaluations + skips (~8 % with the committee floors, ~71 % without).
WAKE_SHARE_LIMIT = 0.15


def _observable(result: RunResult) -> tuple:
    """Every kernel-determined RunResult field (metrics excluded: the
    cache/wakeup counters legitimately differ between the two paths)."""
    return (
        result.n,
        result.f,
        result.seed,
        result.corrupted,
        result.returns,
        result.decisions,
        result.decision_depths,
        result.notes,
        result.words,
        result.metrics.messages_sent_correct,
        result.metrics.messages_sent_total,
        result.metrics.messages_delivered,
        result.deliveries,
        result.deadlocked,
        result.exhausted,
        result.stopped_by_condition,
    )


def _run(n: int, f: int, factory, params, seed: int, fast: bool, stop_condition):
    """The run ``run_protocol(corrupt=set(range(f)), seed=seed)`` makes, with
    the verify memo and the keyed wakeups both on or both off."""
    pki = PKI.create(
        n, rng=random.Random(derive_seed(seed, "setup")), verify_cache=fast
    )
    return run_protocol(
        n, f, factory if fast else unsubscribed(factory), corrupt=set(range(f)),
        pki=pki, seed=seed, params=params, stop_condition=stop_condition,
    )


def _coin_trial(seed: int, fast: bool) -> RunResult:
    params = ProtocolParams.simulation_scale(n=COIN_N, f=COIN_F)
    return _run(
        COIN_N, COIN_F, lambda ctx: whp_coin(ctx, 0), params, seed, fast,
        stop_when_all_returned,
    )


def _ba_trial(seed: int, fast: bool) -> RunResult:
    factory, params, f = make_runner("whp_ba", BA_N, seed=seed)
    return _run(BA_N, f, factory, params, seed, fast, stop_when_all_decided)


def _timed_sweep(coin_seeds, ba_seeds, fast: bool):
    start = time.perf_counter()
    results = [_coin_trial(seed, fast) for seed in coin_seeds]
    results += [_ba_trial(seed, fast) for seed in ba_seeds]
    return time.perf_counter() - start, results


def _hit_rate(results) -> float:
    hits = sum(r.metrics.verification_cache_hits for r in results)
    calls = sum(r.metrics.verifications for r in results)
    return hits / calls if calls else 0.0


def run_comparison(coin_trials: int, ba_trials: int, require_speedup: float | None):
    coin_seeds = derive_sweep_seeds(ROOT_SEED, coin_trials, "hotpath-coin")
    ba_seeds = derive_sweep_seeds(ROOT_SEED, ba_trials, "hotpath-ba")

    fast_elapsed, fast_results = _timed_sweep(coin_seeds, ba_seeds, fast=True)
    slow_elapsed, slow_results = _timed_sweep(coin_seeds, ba_seeds, fast=False)

    for fast_result, slow_result in zip(fast_results, slow_results):
        assert _observable(fast_result) == _observable(slow_result), (
            f"cached kernel changed an observable result "
            f"(n={fast_result.n}, seed={fast_result.seed})"
        )
    for slow_result in slow_results:
        assert slow_result.metrics.verification_cache_hits == 0
        assert slow_result.metrics.wait_skips == 0

    # The parallel executor path must aggregate the identical sweep.
    pool_results = parallel_map(
        _coin_trial, [(seed, True) for seed in coin_seeds],
        workers=os.cpu_count(),
    )
    for pooled, serial in zip(pool_results, fast_results):
        assert _observable(pooled) == _observable(serial)

    speedup = slow_elapsed / fast_elapsed if fast_elapsed else float("inf")
    skips = sum(r.metrics.wait_skips for r in fast_results)
    evaluations = sum(r.metrics.wait_evaluations for r in fast_results)
    report = (
        f"kernel hot-path: {coin_trials} whp_coin(n={COIN_N}) + "
        f"{ba_trials} whp_ba(n={BA_N}) runs\n"
        f"  cached+keyed : {fast_elapsed:8.2f}s  "
        f"(verify hit rate {_hit_rate(fast_results):.3f}, "
        f"wait evals {evaluations}, skips {skips})\n"
        f"  uncached+eager: {slow_elapsed:7.2f}s\n"
        f"  speedup      : {speedup:8.2f}x  (workers={os.cpu_count()})"
    )
    # The wake-up floors stay engaged: between two thresholds a delivery
    # only bumps a tally, so most subscribed deliveries are skipped.
    assert evaluations <= WAKE_SHARE_LIMIT * (evaluations + skips), (
        f"wait evaluations are {evaluations / (evaluations + skips):.1%} of "
        f"subscribed deliveries, above {WAKE_SHARE_LIMIT:.0%}: a floor "
        "stopped engaging\n" + report
    )
    if require_speedup is not None:
        assert speedup >= require_speedup, (
            f"expected >= {require_speedup}x speedup, measured {speedup:.2f}x\n"
            + report
        )
    return report, speedup


def test_kernel_hotpath_speedup(benchmark, save_report):
    from conftest import once

    report, _ = once(benchmark, lambda: run_comparison(4, 2, require_speedup=2.0))
    save_report("bench_kernel_hotpath", report)


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Compare the optimised kernel against the uncached+eager reference."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized sweep: equivalence checked, no timing assertion",
    )
    if parser.parse_args(argv).smoke:
        # CI-sized: one small run of each shape, equivalence checked, no
        # timing assertion (shared runners make wall-clock unreliable).
        report, _ = run_comparison(1, 1, require_speedup=None)
    else:
        report, _ = run_comparison(4, 2, require_speedup=2.0)
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
