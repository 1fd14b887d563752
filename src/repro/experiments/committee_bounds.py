"""Experiment E2: committee properties S1-S4 (Claim 1) -- Monte-Carlo
violation rates against the Chernoff bounds of Appendix A.

Sampling only, no network: for each n we draw fresh keysets, sample one
committee per seed, and count how often each property fails, next to the
analytic tail bound.  This makes the 'whp' claim quantitative at finite n
-- including showing honestly how slowly the paper's λ = 8 ln n converges.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.analysis.bounds import committee_property_bounds
from repro.core.committees import sample_committee
from repro.core.params import ProtocolParams, paper_d_window
from repro.crypto.hashing import derive_seed
from repro.crypto.pki import PKI
from repro.experiments.sweep import sweep
from repro.experiments.tables import format_table

__all__ = ["BoundsPoint", "format_committee_bounds", "run"]


@dataclass(frozen=True)
class BoundsPoint:
    params: ProtocolParams
    trials: int
    violations: dict[str, int]  # S1..S4 -> count
    chernoff: dict[str, float]  # S1..S4 -> analytic bound


def _trial(params: ProtocolParams, seed: int) -> tuple[int, int]:
    """One committee over a fresh keyset: ``(size, correct members)``.
    Top-level so sweep workers can pickle it."""
    n = params.n
    pki = PKI.create(n, rng=random.Random(derive_seed("e2", n, seed)))
    members = sample_committee(pki, ("e2", seed), "probe", params)
    return len(members), len(members - set(range(params.f)))


def _point(params: ProtocolParams, draws: list[tuple[int, int]]) -> BoundsPoint:
    W = params.committee_quorum
    B = params.committee_byzantine_bound
    high = (1 + params.d) * params.lam
    low = (1 - params.d) * params.lam
    return BoundsPoint(
        params=params,
        trials=len(draws),
        violations={
            "S1": sum(size > high for size, _ in draws),
            "S2": sum(size < low for size, _ in draws),
            "S3": sum(correct < W for _, correct in draws),
            "S4": sum(size - correct > B for size, correct in draws),
        },
        chernoff=committee_property_bounds(params),
    )


def sweep_params(
    n_values, f_fraction: float, safety_sigmas: float | None
) -> list[ProtocolParams]:
    """One bundle per n: with no ``safety_sigmas`` the paper's λ = 8 ln n
    and mid-window d, otherwise the simulation-scale bundle at that margin."""
    bundles = []
    for n in n_values:
        f = max(1, int(f_fraction * n))
        if safety_sigmas is None:
            lam = 8 * math.log(n)
            d = max(min(0.05, paper_d_window(1 / 3 - f / n, lam)[1]), 0.02)
            bundles.append(ProtocolParams(n=n, f=f, lam=lam, d=d))
        else:
            bundles.append(
                ProtocolParams.simulation_scale(n=n, f=f, safety_sigmas=safety_sigmas)
            )
    return bundles


def run(
    n_values, f_fraction: float, seeds, safety_sigmas: float | None,
    workers: int | None = None,
) -> list[BoundsPoint]:
    cells = [(params,) for params in sweep_params(n_values, f_fraction, safety_sigmas)]
    return [
        _point(params, draws) for (params,), draws in sweep(_trial, cells, seeds, workers)
    ]


def format_committee_bounds(points: list[BoundsPoint]) -> str:
    headers = ["n", "f", "lam", "d"]
    for name in ("S1", "S2", "S3", "S4"):
        headers += [f"{name} measured", f"{name} Chernoff"]
    rows = []
    for point in points:
        row = [point.params.n, point.params.f, point.params.lam, point.params.d]
        for name in ("S1", "S2", "S3", "S4"):
            row.append(point.violations[name] / point.trials)
            row.append(min(1.0, point.chernoff[name]))
        rows.append(row)
    return format_table(headers, rows)
