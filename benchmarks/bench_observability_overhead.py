"""Observability overhead: the un-observed kernel must stay essentially free
(the flight-recorder layer, see DESIGN.md section 7).

The kernel guards every emission site with one truthiness check of the
bus's subscriber list; events are only constructed when someone listens.
This bench quantifies that bargain on a full BA run, with one loop over
the :data:`OBSERVERS` table (the four stock observers of
``run_protocol(observers=[...])``):

* **Observer-effect freedom**: a run with each observer attached
  produces a byte-identical ``RunResult`` to the bare run (asserted) --
  observers may watch, never perturb (DESIGN.md sections 7-9, 11); the
  monitor suite must also report no safety violation on the seed run.
* **No-subscriber overhead**: the guard cost is bounded by
  (emission-site executions) x (measured cost of one guard check),
  expressed as a fraction of the bare run's wall-clock.  Asserted < 3%.
  The bound is computed, not diffed against a bus-less build, so it is
  immune to machine noise -- a guard check is ~20ns and a BA delivery is
  ~100us of crypto and scheduling, so the margin is enormous.
* **Dispatch cost** of the monitors, the telemetry probe and the
  coverage probe: the recorded event log replayed through a fresh
  observer, timed, as a fraction of the bare run's wall-clock.  Replay
  measures exactly the per-event online work an attached observer adds
  (finalize-time analysis is post-run and excluded by design).  Asserted
  < 3% on the full run; a replayed probe's snapshot must also equal the
  attached probe's (sampling is deterministic, not clocks/RNG).
* **Recording cost** (reported, not asserted): wall-clock of the same
  run with a recorder attached, i.e. what `repro record` actually pays.
* **Retained memory**: what the recorder and the monitor suite still
  hold once the run is over (tracemalloc: the traced bytes freed by
  dropping the observer), per delivery.  Asserted against
  :data:`RETAINED_BUDGETS`: the recorder keeps a 12-byte schedule triple
  per delivery and no event, the suite one delivery per (process,
  depth).  An :class:`~repro.sim.flightrecorder.EventLog`, which keeps
  every event and supplies the log the dispatch replays read, is
  reported beside them for scale.

Scale matters for the ratios: an observer's per-event cost is a fixed
few hundred ns while the kernel's per-event cost *grows* with n (quorum
scans are O(n)), so the ratio shrinks as runs get bigger -- ~10us/event
at n=24 versus ~18us/event at n=150.  The full benchmark therefore
asserts the <3% ratios on a full n=150 run, where the margin is robust
to machine state; the CI smoke (full n=24 run, seconds not minutes)
asserts the same byte-identity, determinism and guard properties plus
the table's *absolute* ns/event dispatch budgets, which catch the same
regressions without the unrepresentative small-n denominator.

The smoke run also appends its deterministic counters (events,
deliveries, words) to the cross-run trend store, where ``repro trends``
shows their drift; wall-clock readings ride along under a volatile key.

Run standalone for CI smoke::

    PYTHONPATH=src python benchmarks/bench_observability_overhead.py --smoke
"""

from __future__ import annotations

import gc
import sys
import time
import timeit
import tracemalloc

from repro.experiments.protocols import make_runner
from repro.experiments.store import to_jsonable
from repro.sim.coverage import CoverageProbe
from repro.sim.events import EventBus
from repro.sim.flightrecorder import EventLog, FlightRecorder
from repro.sim.monitors import MonitorSuite
from repro.sim.runner import run_protocol, stop_when_all_decided
from repro.sim.telemetry import TelemetryProbe

ROOT_SEED = 2020
FULL_N = 150
SMOKE_N = 24
# name -> (factory, the smoke's absolute ns/event dispatch budget,
# whether that budget scales with the measured machine speed).
#
# The budgets are generous multiples of a warm CPython's reading --
# telemetry ~400-500ns/event, coverage ~500-800ns/event (race-bucket and
# signature-count dict work per delivery) -- so they absorb
# machine-state swings while still failing on any real regression.  The
# monitors' budget is scaled by how slow this machine measures against
# the reference interpreter the budgets were set on (the guard
# micro-benchmark doubles as the calibration probe: ~25ns/guard there);
# at smoke scale its ratio assert flaked on slow or noisy machines.  The
# recorder and the log are reported, not budgeted.
OBSERVERS = {
    "log": (EventLog, None, False),
    "recorder": (FlightRecorder, None, False),
    "monitor": (MonitorSuite, 4000.0, True),
    "telemetry": (TelemetryProbe, 1500.0, False),
    "coverage": (CoverageProbe, 2500.0, False),
}
REFERENCE_GUARD_NS = 25.0
# name -> bytes an observer may still hold after the run, per delivery.
# The recorder: 12 per schedule triple, plus the array's growth slack and
# the open digest block.  The suite: one index entry (~250 bytes) per
# (process, depth), which is ~65 per delivery at n=24 and fewer at
# larger n, where a depth holds more deliveries.
RETAINED_BUDGETS = {"recorder": 16.0, "monitor": 100.0}


def _ba_run(n: int, seed: int, *observers):
    factory, params, f = make_runner("whp_ba", n, seed=seed)
    start = time.perf_counter()
    result = run_protocol(
        n, f, factory, corrupt=set(range(f)), params=params,
        stop_condition=stop_when_all_decided, seed=seed,
        observers=observers,
    )
    return time.perf_counter() - start, result


def _replay(events, factory, repeats: int = 3):
    """Best-of-``repeats`` wall-clock of replaying ``events`` through a
    freshly attached observer, and the last observer replayed into.  The
    minimum is the honest dispatch cost: the replay is pure CPU, so noise
    only ever adds time."""
    costs = []
    for _ in range(repeats):
        observer = EventBus().attach(factory())
        on_event = observer.on_event
        start = time.perf_counter()
        for event in events:
            on_event(event)
        costs.append(time.perf_counter() - start)
    return min(costs), observer


def _retained(n: int, factory) -> tuple[int, int]:
    """Bytes a fresh ``factory()`` observer still holds after a run (what
    dropping it frees, by tracemalloc), and the run's delivery count."""
    tracemalloc.start()
    try:
        observer = factory()
        _, result = _ba_run(n, ROOT_SEED, observer)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del observer
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0], result.deliveries
    finally:
        tracemalloc.stop()


def _guard_cost() -> float:
    """Measured seconds per no-subscriber guard (empty-list truthiness)."""
    iterations = 1_000_000
    total = timeit.timeit(
        "if subscribers:\n pass",
        setup="subscribers = []",
        number=iterations,
    )
    return total / iterations


def run_comparison(n: int, max_overhead: float = 0.03, assert_ratios: bool = True):
    bare_elapsed, bare = _ba_run(n, ROOT_SEED)

    # Observer-effect freedom: watching a run must not change it.
    attached, elapsed = {}, {}
    for name, (factory, _, _) in OBSERVERS.items():
        attached[name] = factory()
        elapsed[name], observed = _ba_run(n, ROOT_SEED, attached[name])
        assert to_jsonable(bare) == to_jsonable(observed), (
            f"attaching the {name} changed the run's observable result"
        )
    suite = attached["monitor"]
    assert suite.ok, (
        "safety monitor fired on a seed scenario:\n"
        + "\n".join(v.describe() for v in suite.safety_violations)
    )
    events = attached["log"].events
    coverage_snapshot = attached["coverage"].snapshot()

    # A second bare run: the min is the denominator for every ratio
    # below (noise only ever adds wall-clock, so the min of two runs
    # taken ~a minute apart is the honest kernel cost even when the
    # machine state drifts mid-benchmark), and byte-identical results
    # across the pair asserts kernel determinism for free.
    bare_repeat_elapsed, bare_repeat = _ba_run(n, ROOT_SEED)
    assert to_jsonable(bare) == to_jsonable(bare_repeat), (
        "two bare runs of the same seed diverged (kernel nondeterminism)"
    )
    bare_elapsed = min(bare_elapsed, bare_repeat_elapsed)

    # Emission-site executions in this exact run, counted from the
    # recording: the event count is the exact guard count because every
    # guard site emits iff subscribed.
    per_guard = _guard_cost()
    bound = len(events) * per_guard / bare_elapsed
    # How slow this machine is relative to the reference the absolute
    # budgets were calibrated on; never scales budgets *down* (a fast
    # machine should still flag a genuinely regressed dispatch path).
    machine_factor = max(1.0, per_guard * 1e9 / REFERENCE_GUARD_NS)

    lines = [
        f"observability overhead: whp_ba n={n} seed={ROOT_SEED} "
        f"({bare.deliveries} deliveries, {len(events)} events, "
        f"{coverage_snapshot['total_signatures']} signatures, "
        f"{len(suite.violations)} violations)",
        f"  bare run             : {bare_elapsed:8.3f}s (min of 2, results identical)",
    ]
    lines += [
        f"  run with {name:<12}: {seconds:8.3f}s ({seconds / bare_elapsed:.2f}x)"
        for name, seconds in elapsed.items()
    ]
    lines.append(
        f"  no-subscriber overhead bound: {bound:.4%} (limit {max_overhead:.0%}; "
        f"{len(events)} guards x {per_guard * 1e9:.1f}ns)"
    )

    # Dispatch cost: the exact per-event online work an attached observer
    # adds, measured by replaying the recorded log through a fresh one.
    # A replayed probe must also reproduce the attached probe's snapshot.
    failures = []
    if bound >= max_overhead:
        failures.append(f"no-subscriber bus overhead bound {bound:.4%}")
    dispatch_bounds = {}
    for name, (factory, budget, scaled) in OBSERVERS.items():
        if budget is None:
            continue
        cost, replayed = _replay(events, factory)
        if hasattr(replayed, "snapshot"):
            assert replayed.snapshot() == attached[name].snapshot(), (
                f"{name} snapshot is not a deterministic function of the event log"
            )
        dispatch_bounds[name] = ratio = cost / bare_elapsed
        ns_per_event = cost / len(events) * 1e9
        budget *= machine_factor if scaled else 1.0
        # Small-n runs have an unrepresentatively cheap kernel denominator
        # (see module docstring), so the smoke holds observers to their
        # absolute per-event budget instead of the ratio.
        if assert_ratios:
            limit, over = f"limit {max_overhead:.0%}", ratio >= max_overhead
        else:
            limit = f"informational at n={n}; budget {budget:.0f}ns/event"
            if scaled:
                limit += f" (machine factor {machine_factor:.2f})"
            over = ns_per_event >= budget
        lines.append(
            f"  {name + ' dispatch bound':<28}: {ratio:.4%} "
            f"({cost * 1e3:.2f}ms replayed, {ns_per_event:.0f}ns/event; {limit})"
        )
        if over:
            failures.append(
                f"{name} dispatch cost {ratio:.4%} / {ns_per_event:.0f}ns/event"
            )
    # Retained memory: what each observer still holds once the run ends.
    retained = {}
    for name in ("log", *RETAINED_BUDGETS):
        held, deliveries = _retained(n, OBSERVERS[name][0])
        retained[name] = per_delivery = held / deliveries
        budget = RETAINED_BUDGETS.get(name)
        limit = "for scale" if budget is None else f"budget {budget:.0f} B/delivery"
        lines.append(
            f"  {name + ' retains':<28}: {per_delivery:7.1f} B/delivery "
            f"({held / 1024:.0f} KiB; {limit})"
        )
        if budget is not None and per_delivery > budget:
            failures.append(f"{name} retains {per_delivery:.1f} B/delivery")
    report = "\n".join(lines)
    assert not failures, "over budget: " + "; ".join(failures) + "\n" + report
    # Deterministic counters top-level (the drift column of `repro
    # trends` compares them); wall-clock readings under "wallclock",
    # which it skips.
    summary = {
        "n": n,
        "seed": ROOT_SEED,
        "deliveries": bare.deliveries,
        "events": len(events),
        "words": bare.words,
        "coverage_signatures": coverage_snapshot["total_signatures"],
        "wallclock": {
            "no_subscriber_bound": bound,
            **{
                f"{name}_dispatch_bound": ratio
                for name, ratio in dispatch_bounds.items()
            },
            "bare_seconds": bare_elapsed,
            **{
                f"{name}_retained_bytes_per_delivery": per_delivery
                for name, per_delivery in retained.items()
            },
        },
    }
    return report, summary


def test_observability_overhead(benchmark, save_report):
    from conftest import once

    report, _ = once(benchmark, lambda: run_comparison(FULL_N))
    save_report("bench_observability_overhead", report)


def main(argv: list[str]) -> int:
    import argparse
    from pathlib import Path

    from repro.experiments.trends import record_bench

    parser = argparse.ArgumentParser(
        description="Bound the no-subscriber event-bus overhead and check "
        "observer-effect freedom."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI-sized run (full n={SMOKE_N} run, seconds not minutes); "
        "same identity/determinism assertions, absolute per-event dispatch "
        f"budgets instead of the <3% ratios (asserted at n={FULL_N} by the "
        "full run)",
    )
    smoke = parser.parse_args(argv).smoke
    if smoke:
        report, summary = run_comparison(SMOKE_N, assert_ratios=False)
    else:
        report, summary = run_comparison(FULL_N)
    print(report)
    if smoke:
        repo_root = Path(__file__).resolve().parent.parent
        path, _ = record_bench("observability_overhead", summary, root=repo_root)
        print(f"trend record -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
