"""Experiment E8: safety/liveness sweep (Definition 6.6).

A grid of protocol × Byzantine-strategy × scheduler, counting violations
of Validity, Agreement and Termination over seeds.  All legal cells must
show zero safety violations; liveness failures may appear only as
whp-committee shortfalls for the committee-based protocol (and are
reported, not hidden).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from repro.crypto.hashing import derive_seed
from repro.experiments.sweep import BARun, ba_sweep, ba_trial
from repro.experiments.tables import format_table
from repro.sim.adversary import (
    AdaptiveFirstSpeakersCorruption,
    Adversary,
    RandomScheduler,
    StaticCorruption,
    TargetedDelayScheduler,
)

__all__ = ["SafetyCell", "format_safety", "run"]

PROTOCOLS = ("whp_ba", "mmr", "cachin")
STRATEGIES = ("silent-static", "silent-adaptive", "delay-targets")


def _make_adversary(strategy: str, f: int, seed: int) -> Adversary:
    rng = random.Random(derive_seed("e8", strategy, seed))
    if strategy == "silent-static":
        return Adversary(
            scheduler=RandomScheduler(rng), corruption=StaticCorruption(set(range(f)))
        )
    if strategy == "silent-adaptive":
        return Adversary(
            scheduler=RandomScheduler(rng),
            corruption=AdaptiveFirstSpeakersCorruption(),
        )
    if strategy == "delay-targets":
        return Adversary(
            scheduler=TargetedDelayScheduler(set(range(f, 2 * f)), rng),
            corruption=StaticCorruption(set(range(f))),
        )
    raise ValueError(f"unknown strategy {strategy!r}")


@dataclass(frozen=True)
class SafetyCell:
    protocol: str
    strategy: str
    n: int
    f: int
    trials: int
    terminated: int
    agreement_violations: int
    validity_violations: int


def _trial(
    protocol: str, strategy: str, n: int, unanimous_value: int | None,
    safety_sigmas: float, seed: int,
) -> BARun:
    """One seeded run; top-level so sweep workers can pickle it."""
    return ba_trial(
        protocol, n, safety_sigmas, seed, unanimous_value=unanimous_value,
        adversary=partial(_make_adversary, strategy),
    )


def run(
    n: int,
    seeds,
    safety_sigmas: float,
    protocols=PROTOCOLS,
    strategies=STRATEGIES,
    workers: int | None = None,
) -> list[SafetyCell]:
    """Every (protocol, strategy) cell twice: split inputs, then
    unanimous inputs (which arms the validity check)."""
    cells = [
        (protocol, strategy, n, unanimous_value, safety_sigmas)
        for protocol in protocols
        for strategy in strategies
        for unanimous_value in (None, 1)
    ]
    return [
        SafetyCell(
            protocol=protocol,
            strategy=strategy,
            n=n,
            f=cell.f,
            trials=len(cell.runs),
            terminated=len(cell.done),
            agreement_violations=len(cell.done) - cell.agreed,
            validity_violations=sum(
                unanimous_value is not None
                and set(run.decided_values) != {unanimous_value}
                for run in cell.done
            ),
        )
        for (protocol, strategy, _, unanimous_value, _), cell in ba_sweep(
            cells, seeds, workers, _trial
        )
    ]


def format_safety(cells: list[SafetyCell]) -> str:
    headers = [
        "protocol", "strategy", "n", "f", "terminated",
        "agreement viol", "validity viol",
    ]
    rows = [
        [
            cell.protocol, cell.strategy, cell.n, cell.f,
            f"{cell.terminated}/{cell.trials}",
            cell.agreement_violations, cell.validity_violations,
        ]
        for cell in cells
    ]
    return format_table(headers, rows)
