"""The seven workloads of the performance ledger.

Each workload is one fixed cell ``(protocol, n, scheduler, delivery mode,
link model, observers, crypto backend)`` chosen because a different layer
of the program does most of its work (see README.md for the prediction
table).  Sizes are part of the workload's identity: a later change is
judged on the same cell, so nothing here may depend on the program's
version.

``rounds`` is the op's *work horizon*: an op runs until every correct
process has decided **and** completed ``rounds`` agreement rounds (the
protocols keep helping laggards after deciding, exactly as the paper's
pseudocode loops forever).  Randomised agreement decides after a
geometric number of rounds, so without the horizon a different seed
would change the amount of simulated work by 2x (``whp_ba``, n=400:
one round or two) to 4x (MMR: two to eight rounds), and no host-time
metric would be comparable between seeds.  The horizon is the typical
upper mode of the cell's decision round; a seed that needs more rounds
still runs to its decision and is a (rare, correct) outlier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["WORKLOADS", "Workload", "by_name", "smoke_variant"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: str          # make_runner registry name
    n: int
    scheduler: str         # "fifo" | "random"
    ops: int = 1
    rounds: int = 2        # work horizon, in agreement rounds (see module doc)
    round_marker: str = "round"  # protocol-record kind that ends a round
    batched: bool = False  # ask for delivery_mode="batched" when it exists
    lossy: tuple[tuple[str, float], ...] = ()  # LossyLinkConfig fields
    observed: bool = False  # attach the four observers, then save_recording
    backend: str = "simulated"
    smoke_n: int = 24

    @property
    def layer(self) -> str:
        """The module that holds the protocol: its steps are ``<layer>.step``."""
        return "core" if self.protocol == "whp_ba" else "baselines"


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="ba_fifo_n1000",
        why="batched kernel loop and approver.step do the work; scheduler, "
            "crypto and observers do none (ROADMAP's headline point)",
        protocol="whp_ba", n=1000, scheduler="fifo", rounds=1, batched=True,
    ),
    Workload(
        name="ba_random_n400",
        why="the default RandomScheduler on the classic loop every test and "
            "sweep uses; a per-delivery choose() gain shows here, not on FIFO",
        protocol="whp_ba", n=400, scheduler="random",
    ),
    Workload(
        name="ba_lossy_n200",
        why="third kernel loop (_run_lossy/_submit_lossy) under duplicate and "
            "reorder fates; a loop merge that taxes lossy links shows here",
        protocol="whp_ba", n=200, scheduler="random",
        lossy=(("duplicate_rate", 0.2), ("reorder_rate", 0.3), ("reorder_hold", 64)),
    ),
    Workload(
        name="ba_observed_n64",
        why="recorder+monitors+telemetry+coverage attached, then "
            "save_recording: what repro record/check/fuzz/degrade pay",
        protocol="whp_ba", n=64, scheduler="random", observed=True,
    ),
    Workload(
        name="mmr_coin_n200",
        why="all-to-all n^2 small messages, no committees, no approver: "
            "kernel, mailbox and wake-ups only; the approver/committee bypass",
        protocol="mmr+alg1", n=200, scheduler="random", rounds=6,
        round_marker="coin",
    ),
    Workload(
        name="sweep_ba_n48",
        why="40 short runs with a fresh PKI each, the repo's real traffic "
            "(E1-E8, fuzz, degrade); per-run fixed cost and set-up show here",
        protocol="whp_ba", n=48, scheduler="random", ops=40,
    ),
    Workload(
        name="ba_ec_n8",
        why="real ECVRF + Schnorr: crypto/ is ~100% of the time here and "
            "under 3% everywhere else",
        protocol="whp_ba", n=8, scheduler="random", backend="ec", smoke_n=8,
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(
        f"unknown workload {name!r}; one of "
        + ", ".join(workload.name for workload in WORKLOADS)
    )


def smoke_variant(workload: Workload) -> Workload:
    """The same cell at smoke scale: n <= 24, at most 3 ops."""
    return replace(
        workload,
        n=min(workload.n, workload.smoke_n),
        ops=min(workload.ops, 3),
    )
