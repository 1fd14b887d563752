"""Experiment E6: the delayed-adaptivity ablation (Definition 2.1).

Runs the shared coin under three schedulers:

* ``random`` -- legal, content-oblivious;
* ``targeted`` -- legal, starves a fixed pid set (still oblivious);
* ``content-aware`` -- ILLEGAL under the paper's model: reads VRF values
  in flight and withholds the messages carrying the minimum.

Agreement survives the legal schedulers and collapses under the illegal
one, demonstrating that the adversary restriction is what the coin's
success rate stands on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.stats import BernoulliEstimate
from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.experiments.sweep import interval_cell, sweep
from repro.experiments.tables import format_table
from repro.sim.adversary import (
    Adversary,
    ContentAwareMinWithholdScheduler,
    RandomScheduler,
    TargetedDelayScheduler,
)
from repro.sim.runner import run_protocol

__all__ = ["AblationRow", "format_ablation", "run"]

SCHEDULERS = ("random", "targeted", "content-aware")


def _make_scheduler(name: str, n: int, seed: int):
    rng = random.Random(seed)
    if name == "random":
        return RandomScheduler(rng)
    if name == "targeted":
        return TargetedDelayScheduler(set(range(n // 4)), rng)
    if name == "content-aware":
        return ContentAwareMinWithholdScheduler(rng)
    raise ValueError(f"unknown scheduler {name!r}")


@dataclass(frozen=True)
class AblationRow:
    scheduler: str
    legal: bool
    n: int
    f: int
    agreement: BernoulliEstimate


def _trial(name: str, n: int, f: int, seed: int) -> bool:
    """One seeded run; top-level so sweep workers can pickle it."""
    result = run_protocol(
        n, f, lambda ctx: shared_coin(ctx, 0),
        adversary=Adversary(scheduler=_make_scheduler(name, n, seed)),
        params=ProtocolParams(n=n, f=f), seed=seed,
    )
    return result.live and len(result.returned_values) == 1


def run(
    n: int, f: int, seeds, schedulers=SCHEDULERS, workers: int | None = None
) -> list[AblationRow]:
    """Corruption budget f is reserved but unspent: the pure-scheduling
    adversary shows the ablation most sharply (see the scheduler's
    docstring on quorum slack)."""
    cells = [(name, n, f) for name in schedulers]
    return [
        AblationRow(
            scheduler=name,
            legal=name != "content-aware",
            n=n,
            f=f,
            agreement=BernoulliEstimate(successes=sum(outcomes), trials=len(outcomes)),
        )
        for (name, _, _), outcomes in sweep(_trial, cells, seeds, workers)
    ]


def format_ablation(rows: list[AblationRow]) -> str:
    headers = ["scheduler", "legal under Def 2.1", "n", "f", "agreement rate", "95% CI"]
    body = []
    for row in rows:
        body.append([
            row.scheduler, "yes" if row.legal else "NO", row.n, row.f,
            row.agreement.mean, interval_cell(row.agreement),
        ])
    return format_table(headers, body)
