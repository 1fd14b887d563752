"""Experiment X2 (extension): why ok messages carry W signed echoes.

The approver's word complexity is O(nλ²) *because* each ok message hauls
W signed echo messages as a validity proof (paper Section 6.1: "no
Byzantine process can send a valid ok,w").  This ablation removes the
justification, pits the approver against Byzantine ok-committee members
that inject a never-proposed value, and measures both sides of the trade:

* words per instance -- the λ² term disappears;
* Validity -- collapses: return sets start containing the injected value.

With justifications on, the same attack is a no-op.  This is the λ² term
earning its keep, quantified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.approver import approve
from repro.core.committees import sample
from repro.core.messages import OkMsg
from repro.core.params import ProtocolParams
from repro.crypto.hashing import derive_seed
from repro.experiments.sweep import mean_or_nan, ratio_cell, sweep
from repro.experiments.tables import format_table
from repro.sim.adversary import Adversary, RandomScheduler, StaticCorruption
from repro.sim.byzantine import ScriptedBehavior
from repro.sim.runner import run_protocol

__all__ = ["JustificationPoint", "format_justification", "run"]

INSTANCE = ("x2-approver",)
HONEST_VALUE = 1
INJECTED_VALUE = "<injected>"


@dataclass(frozen=True)
class JustificationPoint:
    justify: bool
    attack: bool
    n: int
    f: int
    trials: int
    live: int
    validity_violations: int  # runs where INJECTED_VALUE reached a return set
    mean_words: float


def _injector(params: ProtocolParams):
    """A Byzantine ok-committee member voting for a never-proposed value."""

    def on_start(ctx):
        sampled, proof = sample(ctx, INSTANCE, "ok", params)
        if sampled:
            ctx.broadcast(
                OkMsg(INSTANCE, value=INJECTED_VALUE, membership=proof,
                      justification=())
            )

    return lambda pid: ScriptedBehavior(on_start=on_start)


def _trial(
    justify: bool, attack: bool, params: ProtocolParams, seed: int
) -> tuple[bool, int, bool]:
    """One seeded approver instance; top-level so sweep workers can
    pickle it.  Returns ``(live, words, injected value returned)``."""
    n, f = params.n, params.f
    adversary = Adversary(
        scheduler=RandomScheduler(random.Random(derive_seed("x2", seed))),
        corruption=StaticCorruption(set(range(f))),
        behavior_factory=_injector(params) if attack else None,
    )
    result = run_protocol(
        n, f,
        lambda ctx: approve(ctx, INSTANCE, HONEST_VALUE, params, justify=justify),
        adversary=adversary, params=params, seed=seed,
    )
    return (
        result.live,
        result.words,
        any(INJECTED_VALUE in rv for rv in result.returned_values),
    )


def _point(
    justify: bool, attack: bool, params: ProtocolParams, trials: list
) -> JustificationPoint:
    live = [trial for trial in trials if trial[0]]
    return JustificationPoint(
        justify=justify,
        attack=attack,
        n=params.n,
        f=params.f,
        trials=len(trials),
        live=len(live),
        validity_violations=sum(injected for _, _, injected in live),
        mean_words=mean_or_nan(words for _, words, _ in live),
    )


def run(
    n: int, f: int, seeds, safety_sigmas: float, workers: int | None = None
) -> list[JustificationPoint]:
    params = ProtocolParams.simulation_scale(n=n, f=f, safety_sigmas=safety_sigmas)
    cells = [
        (justify, attack, params)
        for justify in (True, False)
        for attack in (False, True)
    ]
    return [
        _point(*cell, trials) for cell, trials in sweep(_trial, cells, seeds, workers)
    ]


def format_justification(points: list[JustificationPoint]) -> str:
    headers = [
        "justified ok", "ok-injection attack", "n", "f", "live",
        "validity violations", "mean words",
    ]
    rows = [
        [
            "yes" if point.justify else "NO (ablation)",
            "yes" if point.attack else "no",
            point.n, point.f, f"{point.live}/{point.trials}",
            ratio_cell(point.validity_violations, point.live),
            point.mean_words,
        ]
        for point in points
    ]
    return format_table(headers, rows)
