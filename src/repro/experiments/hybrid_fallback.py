"""Experiment X1 (extension): the probability-1-termination hybrid.

The paper's conclusion asks which properties can be made probability-1
while staying sub-quadratic.  :mod:`repro.core.hybrid` answers for
termination with a committee-phase / MMR-fallback construction; this
experiment measures the trade-off: as the committee phase gets more
rounds, the fallback rate (and hence the expected quadratic-word cost)
drops geometrically while committee-phase words grow only linearly in
the round count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hybrid import hybrid_agreement
from repro.core.params import ProtocolParams
from repro.experiments.sweep import BACell, BARun, ratio_cell, sweep
from repro.experiments.tables import format_table
from repro.sim.runner import run_protocol, stop_when_all_decided

__all__ = ["HybridPoint", "format_hybrid", "run"]


@dataclass(frozen=True)
class HybridPoint:
    committee_rounds: int
    n: int
    f: int
    trials: int
    terminated: int
    agreement_ok: int
    fallback_runs: int          # runs where >= 1 correct process fell back
    fallback_deciders: int      # processes whose decision came from MMR
    committee_deciders: int
    mean_words: float


def _trial(
    committee_rounds: int, params: ProtocolParams, seed: int
) -> tuple[BARun, int, int, bool]:
    """One seeded run; top-level so sweep workers can pickle it.  Returns
    ``(run, fallback deciders, committee deciders, anyone fell back)``."""
    n, f = params.n, params.f
    result = run_protocol(
        n, f,
        lambda ctx: hybrid_agreement(
            ctx, ctx.pid % 2, committee_rounds=committee_rounds
        ),
        corrupt=set(range(f)), params=params,
        stop_condition=stop_when_all_decided, seed=seed,
    )
    sources = [
        notes.get("decided_by")
        for pid, notes in result.notes.items()
        if pid in result.decisions
    ]
    return (
        BARun.from_result(result, params.lam),
        sources.count("fallback"),
        sources.count("committee"),
        any(notes.get("fallback") for notes in result.notes.values()),
    )


def _point(committee_rounds: int, params: ProtocolParams, trials: list) -> HybridPoint:
    cell = BACell(tuple(run for run, *_ in trials))
    done = [trial for trial in trials if trial[0].completed]
    return HybridPoint(
        committee_rounds=committee_rounds,
        n=params.n,
        f=params.f,
        trials=len(cell.runs),
        terminated=len(cell.done),
        agreement_ok=cell.agreed,
        fallback_runs=sum(fell_back for *_, fell_back in done),
        fallback_deciders=sum(fallback for _, fallback, _, _ in done),
        committee_deciders=sum(committee for _, _, committee, _ in done),
        mean_words=cell.mean("words"),
    )


def run(
    n: int, f: int, committee_round_values, seeds, safety_sigmas: float,
    workers: int | None = None,
) -> list[HybridPoint]:
    params = ProtocolParams.simulation_scale(n=n, f=f, safety_sigmas=safety_sigmas)
    cells = [(rounds, params) for rounds in committee_round_values]
    return [
        _point(*cell, trials) for cell, trials in sweep(_trial, cells, seeds, workers)
    ]


def format_hybrid(points: list[HybridPoint]) -> str:
    headers = [
        "committee rounds", "n", "f", "terminated", "agreement",
        "fallback runs", "committee deciders", "fallback deciders", "mean words",
    ]
    rows = [
        [
            point.committee_rounds, point.n, point.f,
            f"{point.terminated}/{point.trials}",
            ratio_cell(point.agreement_ok, point.terminated),
            ratio_cell(point.fallback_runs, point.terminated),
            point.committee_deciders, point.fallback_deciders, point.mean_words,
        ]
        for point in points
    ]
    return format_table(headers, rows)
