"""Every count a change could move: ``repro fingerprint`` prints
:func:`fingerprint` as JSON, and ``tests/fingerprints.json`` pins it.

A run cell's ``identity`` is what the run is (stream digest, events,
decisions, words and messages by kind, deliveries, deciding round, link
faults when lossy); its ``cost`` is what simulating it took, the one
block a performance change may move.  ``check_quick`` and
``degrade_smoke`` are those payloads less their volatile paths
(:func:`strip_volatile`).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from typing import Any, Callable

from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.experiments.conformance import run_check
from repro.experiments.degradation import smoke_degradation
from repro.experiments.protocols import PROTOCOLS
from repro.experiments.scenarios import SCENARIOS, RunSpec, resolve_run
from repro.experiments.store import to_jsonable
from repro.experiments.sweep import BARun
from repro.sim import adversary as adv
from repro.sim.flightrecorder import FlightRecorder
from repro.sim.lossy import LossyLinkConfig
from repro.sim.runner import RunResult, run_protocol

__all__ = [
    "PINS", "fingerprint", "n1000_counters", "n1000_run", "pin_cell", "strip_volatile",
]

# The delivery-order cells, each on reliable and on LOSSY links: whp_ba
# at n = 24 under the four content-oblivious schedulers, the shared coin
# at n = 16 under the content-aware one (E6's), and the baselines with
# background relay handlers at n = 16 under their own.
LOSSY = LossyLinkConfig(
    drop_rate=0.005, duplicate_rate=0.1, reorder_rate=0.1, reorder_hold=16
)
BA_SCHEDULERS = {
    "fifo": lambda rng: adv.FIFOScheduler(),
    "delay_bounded": lambda rng: adv.DelayBoundedScheduler(8, rng),
    "targeted": lambda rng: adv.TargetedDelayScheduler(range(6), rng),
    "partition": lambda rng: adv.PartitionScheduler(range(12), 400, rng),
}
BASELINES = ("mmr", "mmr+alg1", "cachin", "bracha")
PINS = (*BA_SCHEDULERS, "content_aware", *BASELINES)
COST = (
    "wait_evaluations", "wait_skips", "vrf_verifications", "vrf_cache_hits",
    "sig_verifications", "sig_cache_hits",
)


def _cell(
    run: Callable[[list], RunResult], lossy: LossyLinkConfig | None
) -> dict[str, Any]:
    """Both blocks of the run ``run(observers)`` makes."""
    recorder = FlightRecorder()
    result = run([recorder])
    metrics = result.metrics
    identity = dict(
        stream=recorder.stream, events=recorder.event_count,
        decisions=dict(Counter(map(repr, result.decisions.values()))),
        words_by_kind=dict(metrics.words_by_kind),
        messages_by_kind=dict(metrics.messages_by_kind),
        deliveries=result.deliveries, rounds=BARun.from_result(result).max_round,
    )
    if lossy is not None:
        identity["lossy"] = result.lossy_counters
    return {"identity": identity, "cost": {k: getattr(metrics, k) for k in COST}}


def _spec(spec: RunSpec, scheduler: Any = None) -> dict[str, Any]:
    return _cell(lambda observers: spec.run(scheduler, observers), spec.lossy)


def _coin(lossy: LossyLinkConfig | None) -> dict[str, Any]:
    scheduler = adv.ContentAwareMinWithholdScheduler(random.Random(5))
    return _cell(lambda observers: run_protocol(
        16, 3, lambda ctx: shared_coin(ctx, 0), adversary=adv.Adversary(scheduler),
        params=ProtocolParams(n=16, f=3), seed=5, lossy=lossy, observers=observers,
    ), lossy)


def pin_cell(name: str, links: str) -> dict[str, Any]:
    """The ``pins/<name>/<links>`` cell; ``links`` is ``reliable`` or ``lossy``."""
    lossy = LOSSY if links == "lossy" else None
    if name == "content_aware":
        return _coin(lossy)
    if name in BASELINES:
        return _spec(replace(resolve_run(name, 16), lossy=lossy))
    ba = replace(resolve_run("whp_ba", 24), lossy=lossy)
    return _spec(ba, BA_SCHEDULERS[name](random.Random(3)))


def n1000_run() -> Callable[[], RunResult]:
    """Set up E4's headline point, whp_ba at n = 1000, seed 7, under the
    fast VRF and FIFO; returns the call that runs it."""
    spec = replace(resolve_run("whp_ba", 1000, seed=7), scheduler=BA_SCHEDULERS["fifo"])
    return lambda: spec.run(max_deliveries=8_000_000)


def n1000_counters(result: RunResult) -> dict[str, dict[str, int]]:
    """The counters ``benchmarks/bench_e4_scaling_n1000.py`` records."""
    run, metrics = BARun.from_result(result), result.metrics
    assert run.completed, "n=1000 run hit the delivery budget or did not decide"
    identity = dict(
        n=result.n, f=result.f, seed=result.seed, deliveries=result.deliveries,
        words=result.words, messages_sent_correct=metrics.messages_sent_correct,
        decided=len(result.decisions), rounds=run.max_round or 1,
    )
    cost = (
        "verifications", "verification_cache_hits", "wait_evaluations", "wait_skips"
    )
    return {"identity": identity, "cost": {k: getattr(metrics, k) for k in cost}}


# Path substrings of the check and smoke payloads that are not facts about
# their runs: the coverage-novelty counts depend on how much the atlas had
# accumulated before the sweep, and a Wilson interval restates the counts
# it is computed from.
VOLATILE_SUBSTRINGS = (
    "interval", "new_signatures", "runs_with_new", "baseline_signatures", "new_rate",
)


def _volatile(path: str) -> bool:
    return any(token in path.lower() for token in VOLATILE_SUBSTRINGS)


def strip_volatile(payload: Any, path: str = "$") -> Any:
    """A JSON-native ``payload`` less every key whose path holds one of
    :data:`VOLATILE_SUBSTRINGS`."""
    if isinstance(payload, dict):
        return {
            key: strip_volatile(value, f"{path}.{key}")
            for key, value in payload.items()
            if not _volatile(f"{path}.{key}")
        }
    if isinstance(payload, list):
        return [
            strip_volatile(item, f"{path}[{index}]")
            for index, item in enumerate(payload)
        ]
    return payload


def fingerprint() -> dict[str, Any]:
    """Every cell, keyed by name (see the module docstring)."""
    cells = {
        f"named/{name}/n16/s{seed}": _spec(resolve_run(name, 16, seed=seed))
        for name in (*PROTOCOLS, *SCENARIOS) for seed in range(2)
    }
    cells["named/whp_ba/n40/s0"] = _spec(resolve_run("whp_ba", 40))
    for name in PINS:
        for links in ("reliable", "lossy"):
            cells[f"pins/{name}/{links}"] = pin_cell(name, links)
    for cell, payload in (
        ("check_quick", run_check(n=16, seeds=range(2))),
        ("degrade_smoke", smoke_degradation()),
    ):
        cells[cell] = {"identity": strip_volatile(to_jsonable(payload))}
    cells["E4_scaling_n1000"] = n1000_counters(n1000_run()())
    return cells
