"""Experiment F1: the approver's committee structure (paper Figure 1).

Figure 1 is a diagram of the four committees one approver instance
samples: init, echo(v) per value, and ok.  We regenerate it as measured
statistics: per-committee sizes against the S1/S2 band (1±d)λ, correct/
Byzantine member counts against W and B (S3/S4), and pairwise overlaps --
the quantities Claim 1 asserts and the proofs consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import mean

from repro.analysis.bounds import committee_property_bounds
from repro.core.committees import sample_committee
from repro.core.params import ProtocolParams
from repro.crypto.hashing import derive_seed
from repro.crypto.pki import PKI
from repro.experiments.sweep import sweep
from repro.experiments.tables import format_table

__all__ = ["CommitteeStats", "format_fig1", "run"]

ROLES = ("init", ("echo", 0), ("echo", 1), "ok")


@dataclass(frozen=True)
class CommitteeStats:
    role: str
    mean_size: float
    min_size: int
    max_size: int
    mean_correct: float
    min_correct: int
    mean_byzantine: float
    max_byzantine: int
    s1_violations: int  # size > (1+d) lam
    s2_violations: int  # size < (1-d) lam
    s3_violations: int  # correct < W
    s4_violations: int  # byzantine > B
    trials: int


def default_params(n: int, safety_sigmas: float) -> ProtocolParams:
    """Simulation-scale committee parameters at f = n/20."""
    return ProtocolParams.simulation_scale(
        n=n, f=max(1, n // 20), safety_sigmas=safety_sigmas
    )


def _trial(params: ProtocolParams, seed: int) -> list[tuple[int, int]]:
    """The four committees over one fresh keyset: ``(size, correct
    members)`` per role.  Top-level so sweep workers can pickle it."""
    pki = PKI.create(params.n, rng=random.Random(derive_seed("fig1", seed)))
    byzantine = set(range(params.f))
    draws = []
    for role in ROLES:
        members = sample_committee(pki, ("approver", seed), role, params)
        draws.append((len(members), len(members - byzantine)))
    return draws


def run(
    n: int, seeds, safety_sigmas: float, workers: int | None = None
) -> tuple[ProtocolParams, list[CommitteeStats]]:
    """Sample the approver's committees over fresh keysets."""
    params = default_params(n, safety_sigmas)
    W = params.committee_quorum
    B = params.committee_byzantine_bound
    high = (1 + params.d) * params.lam
    low = (1 - params.d) * params.lam

    ((_, keysets),) = sweep(_trial, [(params,)], seeds, workers)
    stats = []
    for index, role in enumerate(ROLES):
        sizes = [draws[index][0] for draws in keysets]
        corrects = [draws[index][1] for draws in keysets]
        byz = [size - correct for size, correct in zip(sizes, corrects)]
        stats.append(
            CommitteeStats(
                role=str(role),
                mean_size=mean(sizes),
                min_size=min(sizes),
                max_size=max(sizes),
                mean_correct=mean(corrects),
                min_correct=min(corrects),
                mean_byzantine=mean(byz),
                max_byzantine=max(byz),
                s1_violations=sum(1 for s in sizes if s > high),
                s2_violations=sum(1 for s in sizes if s < low),
                s3_violations=sum(1 for c in corrects if c < W),
                s4_violations=sum(1 for b in byz if b > B),
                trials=len(sizes),
            )
        )
    return params, stats


def format_fig1(params: ProtocolParams, stats: list[CommitteeStats]) -> str:
    headers = [
        "committee", "mean size", "size range", "mean correct", "min correct",
        "mean byz", "max byz", "S1 viol", "S2 viol", "S3 viol", "S4 viol",
    ]
    rows = [
        [
            s.role, s.mean_size, f"[{s.min_size}, {s.max_size}]",
            s.mean_correct, s.min_correct, s.mean_byzantine, s.max_byzantine,
            f"{s.s1_violations}/{s.trials}", f"{s.s2_violations}/{s.trials}",
            f"{s.s3_violations}/{s.trials}", f"{s.s4_violations}/{s.trials}",
        ]
        for s in stats
    ]
    header = (
        f"Approver committees at {params.describe()}  "
        f"(band ({(1 - params.d) * params.lam:.1f}, {(1 + params.d) * params.lam:.1f}))\n"
    )
    bounds = "\n".join(
        f"  {name}: Chernoff bound {min(value, 1.0):.4f}"
        for name, value in committee_property_bounds(params).items()
    )
    return (
        header + format_table(headers, rows)
        + "\n\nAppendix A tail bounds per committee:\n" + bounds
    )
