"""Wake-up floors are sound: no condition acts before its declared ``need``.

A committee protocol's wait states, each time it returns ``None``, how
many further subscribed deliveries it needs before it can return, send,
decide or annotate (``Wait.need``); the kernel skips the evaluations in
between (DESIGN.md §10, "Wake-up floors").  ``floor_audited`` re-runs
the protocol with every wait evaluated on every delivery and fails the
run the first time a process acts earlier than a floor it declared --
under FIFO and random scheduling, duplicated deliveries, and Byzantine
senders that equivocate.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.approver import approve
from repro.core.committees import sample
from repro.core.messages import InitMsg
from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.core.whp_coin import whp_coin
from repro.crypto.pki import PKI
from repro.experiments.protocols import PROTOCOLS
from repro.experiments.scenarios import SCENARIOS, resolve_run
from repro.sim.adversary import (
    Adversary,
    FIFOScheduler,
    RandomScheduler,
    StaticCorruption,
)
from repro.sim.byzantine import ScriptedBehavior
from repro.sim.runner import run_protocol, stop_when_all_returned

from tests.kernel_reference import floor_audited

SCHEDULERS = {
    "fifo": lambda seed: FIFOScheduler(),
    "random": lambda seed: RandomScheduler(random.Random(seed)),
}
SEEDS = range(5)
N, F = 40, 4
CORRUPT = set(range(F))
PARAMS = ProtocolParams.simulation_scale(n=N, f=F)


def audited_run(factory, scheduler, seed, behavior_factory=None):
    """Run ``factory`` under the auditor; returns the floors it declared."""
    declared: list[int] = []
    result = run_protocol(
        N, F, floor_audited(factory, declared),
        adversary=Adversary(
            scheduler=scheduler,
            corruption=StaticCorruption(CORRUPT),
            behavior_factory=behavior_factory,
        ),
        pki=PKI.create(N, rng=random.Random(seed)),
        params=PARAMS, seed=seed, stop_condition=stop_when_all_returned,
    )
    assert result.live
    return declared


class TestCommitteeFloors:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_approve(self, scheduler, seed):
        declared = audited_run(
            lambda ctx: approve(ctx, ("approve",), ctx.pid % 2),
            SCHEDULERS[scheduler](seed), seed,
        )
        assert max(declared) > 1, "no floor engaged"

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_whp_coin(self, scheduler, seed):
        declared = audited_run(
            lambda ctx: whp_coin(ctx, 0), SCHEDULERS[scheduler](seed), seed
        )
        assert max(declared) > 1, "no floor engaged"

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_shared_coin(self, scheduler, seed):
        declared = audited_run(
            lambda ctx: shared_coin(ctx, 0), SCHEDULERS[scheduler](seed), seed
        )
        assert max(declared) > 1, "no floor engaged"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_approve_with_equivocating_init_members(self, seed):
        """Corrupted init members broadcast both values: two tallies grow
        at once, and the floor must track the nearer one."""

        def equivocate(ctx):
            sampled, proof = sample(ctx, ("approve",), "init", PARAMS)
            if sampled:
                ctx.broadcast(InitMsg(("approve",), value=0, membership=proof))
                ctx.broadcast(InitMsg(("approve",), value=1, membership=proof))

        declared = audited_run(
            lambda ctx: approve(ctx, ("approve",), 1),
            RandomScheduler(random.Random(seed)), seed,
            behavior_factory=lambda pid: ScriptedBehavior(on_start=equivocate),
        )
        assert max(declared) > 1, "no floor engaged"


class TestNamedRuns:
    @pytest.mark.parametrize("scheduler", ["own", "fifo"])
    @pytest.mark.parametrize("name", [*PROTOCOLS, *SCENARIOS])
    def test_every_named_run(self, name, scheduler):
        for seed in (0, 1):
            spec = resolve_run(name, 16, seed=seed)
            spec = replace(spec, factory=floor_audited(spec.factory))
            spec.run(scheduler=FIFOScheduler() if scheduler == "fifo" else None)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", ["dup_storm", "byz_split"])
    def test_hostile_scenarios(self, name, seed):
        """One entry delivered twice (``dup_storm``), and a Byzantine
        nudge that splits the deciders (``byz_split``)."""
        spec = resolve_run(name, 16, seed=seed)
        replace(spec, factory=floor_audited(spec.factory)).run()
