"""Experiment E3: WHP-coin success rate vs d and λ (Lemma B.7).

Like E1 but for Algorithm 2: agreement probability over seeds against the
closed-form whp bound (18d² + 27d − 1)/(3(5+6d)(1−d)(1+9d)), plus the
liveness rate (the 'whp' part of the theorem -- runs that deadlock because
a committee undershot W count against liveness, not agreement).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.bounds import whp_coin_success_bound
from repro.analysis.stats import BernoulliEstimate
from repro.core.params import ProtocolParams
from repro.core.whp_coin import whp_coin
from repro.experiments.sweep import interval_cell, sweep
from repro.experiments.tables import format_table
from repro.sim.runner import run_protocol

__all__ = ["WhpCoinPoint", "format_whp_coin", "run"]


@dataclass(frozen=True)
class WhpCoinPoint:
    params: ProtocolParams
    live: int
    trials: int
    agreement: BernoulliEstimate  # over live runs
    paper_bound: float


def _trial(params: ProtocolParams, seed: int) -> tuple[bool, bool]:
    """One seeded run; top-level so sweep workers can pickle it.

    Returns ``(live, agreed)`` (``agreed`` only meaningful when live).
    """
    n, f = params.n, params.f
    result = run_protocol(
        n, f, lambda ctx: whp_coin(ctx, 0),
        corrupt=set(range(f)), params=params, seed=seed,
    )
    live = result.live and len(result.returns) == n - f
    return live, live and len(result.returned_values) == 1


def _point(params: ProtocolParams, outcomes: list[tuple[bool, bool]]) -> WhpCoinPoint:
    live = sum(alive for alive, _ in outcomes)
    return WhpCoinPoint(
        params=params,
        live=live,
        trials=len(outcomes),
        agreement=BernoulliEstimate(
            successes=sum(agreed for _, agreed in outcomes), trials=max(live, 1)
        ),
        paper_bound=whp_coin_success_bound(params.d),
    )


def sweep_params(
    n: int, f: int, d_values, safety_sigmas: float
) -> list[ProtocolParams]:
    """One bundle per d at fixed n, f and the simulation-scale λ."""
    lam = ProtocolParams.simulation_scale(n=n, f=f, safety_sigmas=safety_sigmas).lam
    return [ProtocolParams(n=n, f=f, lam=lam, d=d) for d in d_values]


def run(
    n: int, f: int, d_values, seeds, safety_sigmas: float, workers: int | None = None
) -> list[WhpCoinPoint]:
    cells = [(params,) for params in sweep_params(n, f, d_values, safety_sigmas)]
    return [
        _point(params, outcomes)
        for (params,), outcomes in sweep(_trial, cells, seeds, workers)
    ]


def format_whp_coin(points: list[WhpCoinPoint]) -> str:
    headers = [
        "n", "f", "lam", "d", "W", "B", "live", "agreement", "95% CI",
        "paper bound (2*rho)",
    ]
    rows = []
    for point in points:
        p = point.params
        rows.append([
            p.n, p.f, p.lam, p.d, p.committee_quorum, p.committee_byzantine_bound,
            f"{point.live}/{point.trials}",
            point.agreement.mean, interval_cell(point.agreement),
            max(0.0, 2 * point.paper_bound),
        ])
    return format_table(headers, rows)
