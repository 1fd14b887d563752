"""E4 scaling smoke at n=1000: the batched kernel's headline point
(see DESIGN.md section 10).

One fixed-seed ``whp_ba`` run at n=1000 under the fast (simulated) VRF,
FIFO schedule, split inputs (pid % 2) -- ~1.6M deliveries.  The run is
defined once, as :func:`repro.experiments.fingerprint.n1000_run`; its
deterministic counters (deliveries, words, messages, rounds, decisions,
verification/cache/wait counters) are the ``E4_scaling_n1000`` cell of
``tests/fingerprints.json``, so a change that moves any of them shows as
that file's diff.  This bench adds what the fingerprint cannot pin:

* wall-clock, in fields containing ``seconds``, *asserted* single-digit
  only in the full (non-smoke) run, where the machine is the one the
  claim is made on;
* the process's peak resident set (``peak_rss_mib``, from
  ``resource.getrusage``), *asserted* at most ``RSS_BUDGET_MIB`` in
  every run, smoke included -- memory, not time, is what caps the E4
  points beyond n=1000, and unlike wall-clock it barely moves between
  hosts (~82 MiB with the approver's bitmap tallies, ~119 MiB with
  per-sender sets and copied echo records, ~181 MiB with one kernel
  table slot per seq ever sent), so a return to set-based tallies or
  history-sized kernel state fails on push.

The timed section runs with the cyclic GC disabled (standard bench
hygiene: the run keeps ~1.6M mailbox entries that a mid-run collection
would otherwise scan; nothing in the kernel relies on collection).

Run standalone for CI (saves ``BENCH_E4_scaling_n1000.json``; the memory
assertion holds, the timing one is skipped)::

    PYTHONPATH=src python benchmarks/bench_e4_scaling_n1000.py --smoke
"""

from __future__ import annotations

import gc
import resource
import sys
import time

from repro.experiments.fingerprint import n1000_counters, n1000_run
from repro.sim.runner import RunResult

SINGLE_DIGIT_BUDGET = 10.0  # seconds; the single-digit claim's bar
RSS_BUDGET_MIB = 105.0  # peak resident set, smoke included


def run_point() -> tuple[dict, RunResult]:
    """The n=1000 fast-VRF point; returns (snapshot payload, result)."""
    run = n1000_run()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    counters = n1000_counters(result)
    payload = {
        **counters["identity"],
        **counters["cost"],
        # Volatile (`seconds`, `per_second` and `rss` paths).
        "wallclock_seconds": round(elapsed, 3),
        "deliveries_per_second": round(result.deliveries / elapsed, 1)
        if elapsed else 0.0,
        # ru_maxrss is KiB on Linux: the process's peak, set by this run.
        "peak_rss_mib": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }
    return payload, result


def format_point(payload: dict) -> str:
    return (
        f"E4 n={payload['n']} fast-VRF (seed {payload['seed']}, "
        "fifo, batched kernel):\n"
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

    from repro.experiments.store import save_results

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
    save_results("BENCH_E4_scaling_n1000", payload, REPO_ROOT)
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
