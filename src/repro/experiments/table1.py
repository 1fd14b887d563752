"""Experiment T1: regenerate the paper's Table 1 empirically.

For each protocol row we run binary BA with adversarial split inputs and
silent Byzantine faults at the row's resilience operating point, and
measure what the paper's table states analytically: resilience, expected
word complexity, termination behaviour and safety.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.protocols import PROTOCOLS
from repro.experiments.sweep import ba_sweep, mean_or_nan, ratio_cell
from repro.experiments.tables import format_table

__all__ = ["Table1Row", "format_table1", "run"]

# The paper's analytic claims per row (n > x*f, word complexity class).
PAPER_CLAIMS = {
    "benor": ("5f", "O(2^n)", "w.p. 1"),
    "rabin": ("10f", "O(n^2)", "w.p. 1"),
    "bracha": ("3f", "O(2^n)", "w.p. 1"),
    "cachin": ("3f", "O(n^2)", "w.p. 1"),
    "mmr": ("3f", "O(n^2)", "w.p. 1"),
    "mmr+alg1": ("~4.5f", "O(n^2)", "w.p. 1"),
    "whp_ba": ("~4.5f", "O(n log^2 n)", "whp"),
}


@dataclass(frozen=True)
class Table1Row:
    protocol: str
    n: int
    f: int
    trials: int
    terminated: int
    agreed: int
    mean_words: float
    mean_duration: float
    mean_rounds: float


def run(
    n: int, seeds, safety_sigmas: float, protocols=PROTOCOLS, workers: int | None = None
) -> list[Table1Row]:
    """Regenerate Table 1 at system size ``n`` over ``seeds``: every
    protocol at its resilience operating point."""
    cells = [(name, n, safety_sigmas) for name in protocols]
    return [
        Table1Row(
            protocol=name,
            n=n,
            f=cell.f,
            trials=len(cell.runs),
            terminated=len(cell.done),
            agreed=cell.agreed,
            mean_words=cell.mean("words"),
            mean_duration=cell.mean("duration"),
            mean_rounds=mean_or_nan(cell.deciding_rounds),
        )
        for (name, *_), cell in ba_sweep(cells, seeds, workers)
    ]


def format_table1(rows: list[Table1Row]) -> str:
    headers = [
        "protocol", "n >", "paper words", "paper term.",
        "n", "f", "terminated", "agreement", "mean words", "mean rounds",
        "causal depth",
    ]
    body = []
    for row in rows:
        resilience, words_class, termination = PAPER_CLAIMS[row.protocol]
        body.append([
            row.protocol, resilience, words_class, termination,
            row.n, row.f,
            f"{row.terminated}/{row.trials}",
            ratio_cell(row.agreed, row.terminated),
            row.mean_words, row.mean_rounds, row.mean_duration,
        ])
    return format_table(headers, body)
