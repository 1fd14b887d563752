"""Divergence forensics round-trip: diff localizes, explain minimizes.

What must reproduce (see DESIGN.md section 12): the forensics layer's
two acceptance properties, exercised end to end on real recordings and
timed so regressions in the differ or the delta-debugger show up in the
trend store:

* **diff localization**: recording a whp_ba run twice yields an
  identical-verdict diff; corrupting exactly one deliver event in the
  copy makes ``diff_recordings`` name that event's envelope seq as the
  first divergence, with a causal slice no longer than the 20-event
  acceptance bound.
* **explain minimization**: a recorded ``byz_split`` agreement violation
  replays seq-exactly, reproduces its violation, and shrinks to the
  2-delivery minimal schedule (one Byzantine nudge to an even-pid
  decider, one to an odd-pid decider).

Both properties are asserted, not just timed: this bench doubles as the
forensics conformance check at benchmark scale (n=40 diff, versus the
n=8 runs in tests/integration/test_forensics.py).

Run standalone for CI smoke::

    PYTHONPATH=src python benchmarks/bench_forensics.py --smoke
"""

from __future__ import annotations

import dataclasses
import sys
import time

from repro.experiments.forensics import explain_recording
from repro.experiments.protocols import make_runner
from repro.sim.diffing import DEFAULT_MAX_SLICE, diff_events
from repro.sim.events import DeliverEvent
from repro.sim.flightrecorder import EventLog
from repro.sim.runner import run_protocol, stop_when_all_decided

ROOT_SEED = 2020
FULL_N = 40
SMOKE_N = 16


def _record_whp(n: int, seed: int) -> EventLog:
    factory, params, f = make_runner("whp_ba", n, seed=seed)
    log = EventLog()
    run_protocol(
        n, f, factory, corrupt=set(range(f)), params=params,
        stop_condition=stop_when_all_decided, seed=seed,
        observers=[log],
    )
    return log


def run_forensics(n: int) -> tuple[str, dict]:
    lines = [f"forensics round-trip (whp_ba n={n}, byz_split n=4)", ""]

    # -- diff: identical logs, then a single corrupted deliver ---------
    started = time.perf_counter()
    events = list(_record_whp(n, ROOT_SEED).events)
    record_s = time.perf_counter() - started

    started = time.perf_counter()
    clean = diff_events(events, list(events))
    assert clean.identical, clean.describe()

    mutated = list(events)
    target = next(i for i, e in enumerate(mutated) if type(e) is DeliverEvent)
    expected_seq = mutated[target].seq
    mutated[target] = dataclasses.replace(
        mutated[target], words=mutated[target].words + 7
    )
    report = diff_events(events, mutated)
    diff_s = time.perf_counter() - started
    assert not report.identical
    assert report.seq == expected_seq, report.describe()
    assert report.changed and "words" in report.changed[0]
    assert 1 <= len(report.slice) <= DEFAULT_MAX_SLICE
    lines.append(
        f"diff: {len(events)} events, localized seq {report.seq} "
        f"(slice {len(report.slice)} events) in {diff_s * 1e3:.1f} ms"
    )

    # -- explain: minimize a recorded agreement violation --------------
    from repro.experiments.report import record_run
    import tempfile
    from pathlib import Path

    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "byz.jsonl"
        record_run(path, "byz_split", n=4, seed=11,
                   profile=False)
        payload = explain_recording(path)
    explain_s = time.perf_counter() - started
    assert payload["replay_identical"] is True
    assert payload["failure"]["type"] == "violation"
    minimized = payload["minimized"]
    assert minimized["deliveries"] == 2, minimized["describe"]
    assert {dest % 2 for _, _, dest in minimized["schedule"]} == {0, 1}
    lines.append(
        f"explain: byz_split violation -> {minimized['describe']} "
        f"in {explain_s * 1e3:.1f} ms"
    )
    lines.append(f"(recording the whp_ba run itself took {record_s:.2f} s)")

    summary = {
        "events": len(events),
        "divergent_seq": report.seq,
        "slice_events": len(report.slice),
        "minimal_deliveries": minimized["deliveries"],
        "minimize_tests": minimized["tests"],
        "wallclock": {  # volatile: machine-dependent
            "diff_s": diff_s, "explain_s": explain_s,
        },
    }
    return "\n".join(lines), summary


def test_forensics(benchmark, save_report):
    from conftest import once

    report, _ = once(benchmark, lambda: run_forensics(FULL_N))
    save_report("bench_forensics", report)


def main(argv: list[str]) -> int:
    import argparse
    from pathlib import Path

    from repro.experiments.trends import record_bench

    parser = argparse.ArgumentParser(
        description="Assert and time the diff/explain forensics round-trip."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI-sized run (whp_ba n={SMOKE_N} instead of n={FULL_N})",
    )
    smoke = parser.parse_args(argv).smoke
    report, summary = run_forensics(SMOKE_N if smoke else FULL_N)
    print(report)
    if smoke:
        repo_root = Path(__file__).resolve().parent.parent
        path, _ = record_bench("forensics", summary, root=repo_root)
        print(f"trend record -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
