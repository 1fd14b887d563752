"""Experiment E5: O(1) expected rounds, independent of n (Lemma 6.14).

Runs Algorithm 4 with worst-case split inputs across a sweep of n and
collects the distribution of the deciding round; the mean must stay flat
(bounded by 1/ρ + 1) rather than grow with n.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.sweep import ba_sweep, mean_or_nan
from repro.experiments.tables import format_table

__all__ = ["RoundsPoint", "format_rounds", "run"]


@dataclass(frozen=True)
class RoundsPoint:
    n: int
    f: int
    trials: int
    completed: int
    mean_rounds: float
    max_rounds: int
    histogram: dict[int, int]  # deciding round (1-based) -> process count


def run(
    n_values, seeds, safety_sigmas: float, workers: int | None = None
) -> list[RoundsPoint]:
    cells = [("whp_ba", n, safety_sigmas) for n in n_values]
    return [
        RoundsPoint(
            n=n,
            f=cell.f,
            trials=len(cell.runs),
            completed=len(cell.done),
            mean_rounds=mean_or_nan(cell.deciding_rounds),
            max_rounds=max(cell.deciding_rounds, default=0),
            histogram=cell.histogram,
        )
        for (_, n, _), cell in ba_sweep(cells, seeds, workers)
    ]


def format_rounds(points: list[RoundsPoint]) -> str:
    headers = ["n", "f", "completed", "mean deciding round", "max", "histogram"]
    rows = [
        [
            point.n, point.f, f"{point.completed}/{point.trials}",
            point.mean_rounds, point.max_rounds,
            " ".join(f"r{k}:{v}" for k, v in point.histogram.items()),
        ]
        for point in points
    ]
    return format_table(headers, rows)
