"""Degradation sweep determinism + timing (see DESIGN.md section 14).

What must reproduce: the degradation observatory's acceptance property --
the same ``(scenario, n, rates, seeds)`` sweep always yields the *same
curve JSON*.  Lossy fates are functions of (run seed, envelope seq) and
the payload carries no timestamps, so any nondeterminism here means a
kernel or scenario regression, not noise.  The bench runs the sweep
twice and asserts byte-equal serializations, then sanity-checks the
curve's shape: a monotone hostility axis, a healthy rate-0 point, and a
knee whenever the decide-rate actually crossed the threshold.

Run standalone for CI smoke::

    PYTHONPATH=src python benchmarks/bench_degradation.py --smoke

The smoke run records the same ``degradation`` trend-series payload as
``python -m repro degrade --smoke`` (the journal dedupes the twin), so
either entry point keeps ``repro trends --gate`` fed.

The smoke run also guards the *lossy tax*: one ``whp_ba`` run over
duplicating and reordering links against the same seed over reliable
links.  The ratio of the two wall-clocks is machine-independent; it was
about 5 when every message seeded its own generator and is about 1.5
with one fate table per 256 seqs (the injected duplicates alone add
about a fifth more deliveries, so it cannot reach 1).  Above
``LOSSY_TAX_LIMIT`` the run exits non-zero.
"""

from __future__ import annotations

import json
import sys
import time

from repro.experiments.degradation import (
    format_degradation,
    smoke_degradation,
    sweep_degradation,
)
from repro.experiments.protocols import make_runner
from repro.sim.network import LossyLinkConfig
from repro.sim.runner import run_protocol, stop_when_all_decided

FULL = dict(scenario="lossy_uniform", n=8, rates=(0.0, 0.05, 0.1), seeds=4)

# The perf ledger's `ba_lossy_n200` link model at a CI-sized n.  Seed 1
# decides in two rounds on both sides; a seed whose reliable twin decides
# a round earlier would measure the coin's luck, not the links' cost.
LOSSY_TAX = dict(n=64, seed=1)
LOSSY_TAX_LINKS = LossyLinkConfig(duplicate_rate=0.2, reorder_rate=0.3, reorder_hold=64)
LOSSY_TAX_LIMIT = 2.5


def lossy_tax(n: int, seed: int, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall-clock of one run, lossy over reliable."""
    factory, params, f = make_runner("whp_ba", n, seed=seed)
    seconds, rounds = {}, {}
    for name, lossy in (("reliable", None), ("lossy", LOSSY_TAX_LINKS)):
        timings = []
        for _ in range(repeats):
            started = time.perf_counter()
            result = run_protocol(
                n, f, factory, params=params, seed=seed,
                stop_condition=stop_when_all_decided, lossy=lossy,
            )
            timings.append(time.perf_counter() - started)
        assert result.live and result.all_correct_decided, name
        seconds[name], rounds[name] = min(timings), len(result.rounds)
    assert rounds["lossy"] == rounds["reliable"], (
        f"lossy-tax premise broken: the two sides ran {rounds} rounds"
    )
    return {
        "reliable_s": seconds["reliable"],
        "lossy_s": seconds["lossy"],
        "ratio": seconds["lossy"] / seconds["reliable"],
    }


def _sweep(smoke: bool) -> dict:
    return smoke_degradation() if smoke else sweep_degradation(**FULL)


def run_degradation(smoke: bool = False) -> tuple[str, dict]:
    started = time.perf_counter()
    payload = _sweep(smoke)
    first_s = time.perf_counter() - started

    started = time.perf_counter()
    twin = _sweep(smoke)
    second_s = time.perf_counter() - started
    first_json = json.dumps(payload, sort_keys=True)
    assert first_json == json.dumps(twin, sort_keys=True), (
        "degradation sweep is nondeterministic: same (scenario, n, rates, "
        "seeds) produced different curve JSON"
    )

    points = payload["points"]
    rates = [point["rate"] for point in points]
    assert rates == sorted(rates) and len(points) >= 2
    assert points[0]["rate"] == 0.0 and points[0]["link_faults"] == {
        "drops": 0, "duplicates": 0, "reorders": 0, "corruptions": 0,
    }, "rate-0 point must be fault-free"
    crossed = any(
        point["decide_rate"] < payload["threshold"] for point in points
    )
    assert (payload["knee"] is not None) == crossed

    lines = [
        format_degradation(payload),
        "",
        f"determinism: two sweeps, identical {len(first_json)}-byte JSON "
        f"({first_s:.2f} s + {second_s:.2f} s)",
    ]
    summary = dict(payload)
    summary["wallclock"] = {  # excluded from gating: machine-dependent
        "first_sweep_s": first_s,
        "second_sweep_s": second_s,
    }
    return "\n".join(lines), summary


def test_degradation(benchmark, save_report):
    from conftest import once

    report, _ = once(benchmark, lambda: run_degradation(smoke=False))
    save_report("bench_degradation", report)


def main(argv: list[str]) -> int:
    import argparse
    from pathlib import Path

    from repro.experiments.trends import record_bench

    parser = argparse.ArgumentParser(
        description="Assert degradation-sweep determinism and time it."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized sweep (2 rates x 2 seeds); feeds the trend store",
    )
    smoke = parser.parse_args(argv).smoke
    report, summary = run_degradation(smoke=smoke)
    print(report)
    if smoke:
        tax = lossy_tax(**LOSSY_TAX)
        print(
            f"lossy tax (n={LOSSY_TAX['n']}, seed {LOSSY_TAX['seed']}): "
            f"{tax['lossy_s']:.3f} s over lossy links / {tax['reliable_s']:.3f} s "
            f"over reliable ones = {tax['ratio']:.2f} (limit {LOSSY_TAX_LIMIT})"
        )
        if tax["ratio"] > LOSSY_TAX_LIMIT:
            print("lossy tax above its limit: the link layer, not the protocol, "
                  "is what a lossy run pays for (see DESIGN.md section 13)")
            return 1
        # Record the raw sweep payload (not the timed summary): it must
        # fingerprint identically to `python -m repro degrade --smoke`.
        payload = {
            key: value for key, value in summary.items() if key != "wallclock"
        }
        repo_root = Path(__file__).resolve().parent.parent
        path, _ = record_bench("degradation", payload, root=repo_root)
        print(f"trend record -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
