"""E4 scaling smoke at n=1000: the batched kernel's headline point
(see DESIGN.md section 10).

One fixed-seed ``whp_ba`` run at n=1000 under the fast (simulated) VRF,
FIFO schedule, split inputs (pid % 2), batched delivery -- ~1.6M
deliveries.  The batched kernel plus the identity-keyed validation memos
bring this from ~24s (classic kernel, PR-5 seed) to single-digit
seconds, which is the acceptance bar this benchmark pins down:

* every *deterministic* counter of the run (deliveries, words, messages,
  rounds, decisions, verification/cache/wait counters) is recorded as a
  trend-store series, so ``python -m repro trends --gate`` fails CI if
  the batched kernel ever changes an observable -- the counters double
  as a byte-identity fingerprint, since the batched and classic paths
  must agree on all of them (tests/integration compares them directly);
* wall-clock goes into fields containing ``seconds`` -- named so the
  gate's volatile-path exclusion (``GATE_EXCLUDED_SUBSTRINGS``) skips
  them -- and is *asserted* single-digit only in the full (non-smoke)
  run, where the machine is the one the claim is made on;
* the process's peak resident set (``peak_rss_mib``, from
  ``resource.getrusage``) sits next to the seconds: recorded in the
  series and printed, excluded from the trend gate (the ``rss`` substring
  is excluded too), but *asserted* at most ``RSS_BUDGET_MIB`` in every
  run, smoke included -- memory, not time, is what caps the E4 points
  beyond n=1000, and unlike wall-clock it barely moves between hosts
  (~82 MiB with the approver's bitmap tallies, ~119 MiB with per-sender
  sets and copied echo records, ~181 MiB with one kernel table slot per
  seq ever sent), so a return to set-based tallies or history-sized
  kernel state fails on push.

The timed section runs with the cyclic GC disabled (standard bench
hygiene: the run keeps ~1.6M mailbox entries that a mid-run collection
would otherwise scan; nothing in the kernel relies on collection).

Run standalone for CI (records the trend series; the memory assertion
holds, the timing one is skipped)::

    PYTHONPATH=src python benchmarks/bench_e4_scaling_n1000.py --smoke
"""

from __future__ import annotations

import gc
import resource
import sys
import time

from repro.experiments.protocols import make_runner
from repro.experiments.scaling import make_adversary
from repro.experiments.sweep import BARun
from repro.sim.runner import RunResult, run_protocol, stop_when_all_decided

N = 1000
SEED = 7
SCHEDULER = "fifo"
MAX_DELIVERIES = 8_000_000
SINGLE_DIGIT_BUDGET = 10.0  # seconds; the ISSUE's acceptance bar
RSS_BUDGET_MIB = 105.0  # peak resident set, smoke included


def run_point() -> tuple[dict, RunResult]:
    """The n=1000 fast-VRF point; returns (trend payload, result)."""
    factory, params, f = make_runner("whp_ba", N, seed=SEED)
    adversary = make_adversary(SCHEDULER, f, SEED)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_protocol(
            N, f, factory, adversary=adversary, params=params,
            stop_condition=stop_when_all_decided, seed=SEED,
            max_deliveries=MAX_DELIVERIES,
        )
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()

    run = BARun.from_result(result)
    assert run.completed, "n=1000 run hit the delivery budget or did not decide"
    metrics = result.metrics
    payload = {
        # Configuration (gated: a silent config change is a regression).
        "n": N,
        "f": f,
        "seed": SEED,
        "delivery_mode_batched": 1,
        # Deterministic counters: identical on every machine -- the gate
        # freezes them.
        "deliveries": result.deliveries,
        "words": result.words,
        "messages_sent_correct": metrics.messages_sent_correct,
        "decided": len(result.decisions),
        "rounds": run.max_round or 1,
        "verifications": metrics.verifications,
        "verification_cache_hits": metrics.verification_cache_hits,
        "wait_evaluations": metrics.wait_evaluations,
        "wait_skips": metrics.wait_skips,
        # Volatile (excluded from gating by the `seconds` substring).
        "wallclock_seconds": round(elapsed, 3),
        "deliveries_per_second": round(result.deliveries / elapsed, 1)
        if elapsed else 0.0,  # `per_second` paths are excluded too
        # ru_maxrss is KiB on Linux: the process's peak, set by this run.
        "peak_rss_mib": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }
    return payload, result


def format_point(payload: dict) -> str:
    return (
        f"E4 n={payload['n']} fast-VRF (seed {payload['seed']}, "
        f"{SCHEDULER}, batched kernel):\n"
        f"  {payload['deliveries']} deliveries, {payload['rounds']} round(s), "
        f"{payload['decided']}/{payload['n'] - payload['f']} correct decided\n"
        f"  {payload['wallclock_seconds']:.2f}s wall-clock "
        f"({payload['deliveries_per_second']:.0f} deliveries/s), "
        f"peak RSS {payload['peak_rss_mib']:.1f} MiB"
    )


def test_e4_n1000_single_digit_seconds(benchmark, save_report):
    from conftest import once

    payload, _ = once(benchmark, run_point)
    save_report("E4_scaling_n1000", format_point(payload), rows=payload)
    assert payload["wallclock_seconds"] < SINGLE_DIGIT_BUDGET, (
        f"n=1000 point took {payload['wallclock_seconds']:.2f}s, "
        f"budget {SINGLE_DIGIT_BUDGET:.0f}s\n" + format_point(payload)
    )


def main(argv: list[str]) -> int:
    import argparse

    from repro.experiments.trends import record_bench

    from conftest import REPO_ROOT

    parser = argparse.ArgumentParser(
        description="Record the E4 n=1000 fast-VRF scaling point."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="record the (identical) point without the wall-clock assertion",
    )
    smoke = parser.parse_args(argv).smoke
    payload, _ = run_point()
    record_bench("E4_scaling_n1000", payload, root=REPO_ROOT)
    print(format_point(payload))
    failed = 0
    if payload["peak_rss_mib"] > RSS_BUDGET_MIB:
        print(
            f"FAIL: peak RSS {payload['peak_rss_mib']:.1f} MiB exceeds the "
            f"{RSS_BUDGET_MIB:.0f} MiB budget",
            file=sys.stderr,
        )
        failed = 1
    if not smoke and payload["wallclock_seconds"] >= SINGLE_DIGIT_BUDGET:
        print(
            f"FAIL: exceeded the {SINGLE_DIGIT_BUDGET:.0f}s single-digit budget",
            file=sys.stderr,
        )
        failed = 1
    return failed


if __name__ == "__main__":
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    sys.exit(main(sys.argv[1:]))
