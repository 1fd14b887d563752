"""Experiment E7: MMR instantiated with the paper's Algorithm 1 coin.

The paper's Section 4 closing remark: plugging the VRF shared coin into
MMR yields an asynchronous binary BA with resilience (1/3 − ε)n, O(n²)
words and O(1) expected time.  We compare the three MMR instantiations --
local coin, Algorithm 1 coin, CKS threshold coin -- on rounds-to-decide
and words, at the same n and worst-case split inputs.  The shared-coin
variants must decide in a small constant number of rounds; the local-coin
variant's round count is the one that degrades.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.sweep import ba_sweep, mean_or_nan
from repro.experiments.tables import format_table

__all__ = ["MMRVariantRow", "format_mmr_ourcoin", "run"]

VARIANTS = ("mmr", "mmr+alg1", "cachin")


@dataclass(frozen=True)
class MMRVariantRow:
    variant: str
    n: int
    f: int
    trials: int
    completed: int
    mean_rounds: float
    max_rounds: int
    mean_words: float


def run(
    n: int, seeds, variants=VARIANTS, workers: int | None = None
) -> list[MMRVariantRow]:
    cells = [(name, n, None) for name in variants]  # no committees, no margin
    return [
        MMRVariantRow(
            variant=name,
            n=n,
            f=cell.f,
            trials=len(cell.runs),
            completed=len(cell.done),
            mean_rounds=mean_or_nan(cell.deciding_rounds),
            max_rounds=max(cell.deciding_rounds, default=0),
            mean_words=cell.mean("words"),
        )
        for (name, *_), cell in ba_sweep(cells, seeds, workers)
    ]


def format_mmr_ourcoin(rows: list[MMRVariantRow]) -> str:
    headers = [
        "variant", "coin", "n", "f", "completed",
        "mean rounds", "max rounds", "mean words",
    ]
    coin_name = {"mmr": "local", "mmr+alg1": "Algorithm 1 (VRF)", "cachin": "CKS threshold"}
    body = [
        [
            row.variant, coin_name[row.variant], row.n, row.f,
            f"{row.completed}/{row.trials}",
            row.mean_rounds, row.max_rounds, row.mean_words,
        ]
        for row in rows
    ]
    return format_table(headers, body)
