"""The sweep harness under the thirteen experiment modules (DESIGN.md §3).

Every table is cells x seeds of one seeded trial, folded per cell into a
row.  Two decisions live here and nowhere else: what one BA run yields
(:class:`BARun`, built from a ``RunResult`` in :meth:`BARun.from_result`;
:func:`ba_trial` produces it) and how trials fold into a cell
(:func:`sweep`, one ``parallel_map`` over cells x seeds, then
:class:`BACell` and the ``k/n`` / interval cells).  The third -- what
budget an artefact runs at -- is :mod:`repro.experiments.registry`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from statistics import mean
from typing import Any, Callable, Iterable, Sequence

from repro.analysis.stats import BernoulliEstimate
from repro.experiments.parallel import parallel_map
from repro.experiments.protocols import make_runner
from repro.sim.adversary import Adversary
from repro.sim.network import DEFAULT_MAX_DELIVERIES
from repro.sim.runner import RunResult, run_protocol, stop_when_all_decided

__all__ = [
    "BACell",
    "BARun",
    "ba_sweep",
    "ba_trial",
    "interval_cell",
    "mean_or_nan",
    "ratio_cell",
    "sweep",
]


@dataclass(frozen=True)
class BARun:
    """What one seeded binary-agreement run yields."""

    f: int
    lam: float | None
    completed: bool  # no deadlock, no delivery cap, every correct process decided
    agreement: bool
    decided_values: tuple
    words: int
    messages: int  # sent by correct processes
    duration: int  # causal depth of the deepest decision
    rounds: tuple[int, ...]  # 1-based deciding round of each process that noted one

    @classmethod
    def from_result(cls, result: RunResult, lam: float | None = None) -> "BARun":
        return cls(
            f=result.f,
            lam=lam,
            completed=result.live and result.all_correct_decided,
            agreement=result.agreement,
            decided_values=tuple(sorted(result.decided_values, key=repr)),
            words=result.words,
            messages=result.metrics.messages_sent_correct,
            duration=result.duration,
            rounds=tuple(
                notes["decision_round"] + 1
                for notes in result.notes.values()
                if "decision_round" in notes
            ),
        )

    @property
    def max_round(self) -> int | None:
        """The run's deciding round, or None when no process noted one."""
        return max(self.rounds, default=None)


def ba_trial(
    protocol: str,
    n: int,
    safety_sigmas: float | None,
    seed: int,
    *,
    f: int | None = None,
    max_deliveries: int = DEFAULT_MAX_DELIVERIES,
    unanimous_value: int | None = None,
    adversary: Callable[[int, int], Adversary] | None = None,
) -> BARun:
    """One seeded run of a Table 1 protocol until every correct process decides.

    ``safety_sigmas`` is whp_ba's committee margin (None: no whp_ba);
    ``f`` defaults to the protocol's resilience operating point.  Inputs
    are split (``pid % 2``) unless ``unanimous_value`` is given.
    ``adversary(f_used, seed)`` builds the run's adversary; without one
    the first ``f`` pids are silently corrupt under run_protocol's seeded
    random scheduler.  Top-level, so sweep workers can pickle it.
    """
    value_fn = None if unanimous_value is None else (lambda ctx: unanimous_value)
    factory, params, f_run = make_runner(
        protocol, n, f=f, seed=seed, value_fn=value_fn, safety_sigmas=safety_sigmas
    )
    result = run_protocol(
        n, f_run, factory,
        adversary=adversary(f_run, seed) if adversary else None,
        corrupt=None if adversary else set(range(f_run)),
        params=params,
        stop_condition=stop_when_all_decided, seed=seed,
        max_deliveries=max_deliveries,
    )
    return BARun.from_result(result, params.lam)


def sweep(
    trial: Callable[..., Any],
    cells: Iterable[Sequence],
    seeds: Iterable[int],
    workers: int | None = None,
) -> list[tuple[tuple, list[Any]]]:
    """Run ``trial(*cell, seed)`` over cells x seeds in one parallel map.

    Returns ``(cell, records)`` pairs, cells and each cell's seeds both
    in submission order, so a fold sees identical input however many
    workers ran it.  ``trial`` must be a top-level function of picklable
    arguments.
    """
    cells = [tuple(cell) for cell in cells]
    seeds = list(seeds)
    records = parallel_map(
        trial, [(*cell, seed) for cell in cells for seed in seeds], workers=workers
    )
    per_cell = len(seeds)
    return [
        (cell, records[index * per_cell:(index + 1) * per_cell])
        for index, cell in enumerate(cells)
    ]


# -- the folds ----------------------------------------------------------------


def mean_or_nan(values: Iterable[float]) -> float:
    """``statistics.mean`` (ints stay ints when exact), NaN for no data."""
    values = list(values)
    return mean(values) if values else float("nan")


@dataclass(frozen=True)
class BACell:
    """One cell's BA runs and the folds the tables take of them, each
    over the completed runs (``done``) only."""

    runs: tuple[BARun, ...]

    @property
    def done(self) -> list[BARun]:
        return [run for run in self.runs if run.completed]

    @property
    def f(self) -> int:
        """The corruption budget the cell ran at (its runs share it)."""
        return self.runs[-1].f if self.runs else 0

    @property
    def agreed(self) -> int:
        return sum(run.agreement for run in self.done)

    def mean(self, field: str) -> float:
        return mean_or_nan(getattr(run, field) for run in self.done)

    @property
    def deciding_rounds(self) -> list[int]:
        """Each completed run's deciding round (runs that noted none skipped)."""
        return [run.max_round for run in self.done if run.rounds]

    @property
    def histogram(self) -> dict[int, int]:
        """Deciding round -> number of processes that decided in it."""
        counts = Counter(r for run in self.done for r in run.rounds)
        return dict(sorted(counts.items()))


def ba_sweep(
    cells: Iterable[Sequence],
    seeds: Iterable[int],
    workers: int | None = None,
    trial: Callable[..., BARun] = ba_trial,
) -> list[tuple[tuple, BACell]]:
    """:func:`sweep` over BA trials, each cell's runs wrapped in a :class:`BACell`."""
    return [
        (cell, BACell(tuple(runs))) for cell, runs in sweep(trial, cells, seeds, workers)
    ]


def ratio_cell(count: int, total: int) -> str:
    """A ``k/n`` table cell over completed runs; ``-`` when there were none."""
    return f"{count}/{total}" if total else "-"


def interval_cell(estimate: BernoulliEstimate) -> str:
    low, high = estimate.interval
    return f"[{low:.3f}, {high:.3f}]"
