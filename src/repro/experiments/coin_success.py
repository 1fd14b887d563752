"""Experiment E1: shared-coin success rate vs ε (Theorem 4.13).

For a sweep of f (hence ε = 1/3 − f/n) we estimate, over seeds, the
probability that *all correct processes output the same bit*, under
content-oblivious random scheduling with silent Byzantine processes, and
print it next to the closed-form lower bound
(18ε² + 24ε − 1)/(6(1+6ε)).  The paper proves the bound for the
worst-case legal adversary; any measured rate must sit above it, and
should approach 1 as ε → 1/3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.bounds import shared_coin_success_bound
from repro.analysis.stats import BernoulliEstimate
from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.experiments.sweep import interval_cell, sweep
from repro.experiments.tables import format_table
from repro.sim.runner import run_protocol

__all__ = ["CoinPoint", "format_coin_success", "run", "sweep_params"]


@dataclass(frozen=True)
class CoinPoint:
    n: int
    f: int
    epsilon: float
    estimate: BernoulliEstimate
    paper_bound: float  # per-outcome rate rho; agreement >= 2*rho


def sweep_params(n: int, f_values) -> list[ProtocolParams]:
    # Only f < n/3 keeps epsilon in the protocol's domain; silently
    # dropping out-of-range sweep points keeps small-n CLI runs usable.
    return [ProtocolParams(n=n, f=f) for f in f_values if f < n / 3]


def _trial(params: ProtocolParams, seed: int) -> bool:
    """One seeded run; top-level so sweep workers can pickle it."""
    n, f = params.n, params.f
    result = run_protocol(
        n, f, lambda ctx: shared_coin(ctx, 0),
        corrupt=set(range(f)), params=params, seed=seed,
    )
    return result.live and len(result.returned_values) == 1


def run(n: int, f_values, seeds, workers: int | None = None) -> list[CoinPoint]:
    cells = [(params,) for params in sweep_params(n, f_values)]
    return [
        CoinPoint(
            n=params.n,
            f=params.f,
            epsilon=params.epsilon,
            estimate=BernoulliEstimate(successes=sum(outcomes), trials=len(outcomes)),
            paper_bound=shared_coin_success_bound(params.epsilon),
        )
        for (params,), outcomes in sweep(_trial, cells, seeds, workers)
    ]


def format_coin_success(points: list[CoinPoint]) -> str:
    headers = [
        "n", "f", "epsilon", "agreement rate", "95% CI",
        "paper bound (2*rho)", "above bound",
    ]
    rows = []
    for point in points:
        bound = max(0.0, 2 * point.paper_bound)
        rows.append([
            point.n, point.f, point.epsilon,
            point.estimate.mean, interval_cell(point.estimate),
            bound, "yes" if point.estimate.mean >= bound else "NO",
        ])
    return format_table(headers, rows)
