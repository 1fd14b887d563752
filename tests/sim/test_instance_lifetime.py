"""Instance lifetime: a finished approver or coin drops its mailbox stream.

Once the closure that reads an instance has returned, the protocol calls
``ctx.retire(instance)`` and the mailbox swaps the stream for a shared
discarding sink (DESIGN.md §6, "Instance lifetime").  Two properties make
that safe and worth it:

* it is observationally pure -- every ``repro list`` name and every perf
  ledger cell, with the scheduler drained or picking by position as usual
  and asked through ``OneChoose``, produces the same events, records,
  metrics, decisions and lossy counters with retirement on as with
  ``Mailbox.retire`` patched to a no-op;
* it is effective -- after a run, no correct process buffers an entry
  for an approver or coin instance it returned from.  MMR's BV rounds are
  the documented exception: their background relays read them forever.
"""

from __future__ import annotations

import gc
import importlib.util
import random
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import repro.sim.runner as runner_module
from repro.crypto.pki import PKI
from repro.experiments.protocols import PROTOCOLS
from repro.experiments.scenarios import SCENARIOS, resolve_run
from repro.sim.adversary import Adversary, CorruptionStrategy, RandomScheduler
from repro.sim import mailbox as mailbox_module
from repro.sim.mailbox import Mailbox
from repro.sim.messages import Message
from repro.sim.network import Simulation
from repro.sim.process import ProcessContext, Wait

from tests.kernel_reference import dispatched

PERF_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
MAX_DELIVERIES = 60_000


def _load(name: str):
    """A ``benchmarks/perf`` module, imported by path under a private name."""
    key = f"_perf_{name}"
    module = sys.modules.get(key)
    if module is None:
        spec = importlib.util.spec_from_file_location(key, PERF_DIR / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses resolve their module by name
        spec.loader.exec_module(module)
    return module


adapter = _load("adapter")
workloads = _load("workloads")


class Kernel:
    """Routes ``run_protocol`` through one dispatch arm, keeping every
    event and the ``Simulation`` it built."""

    def __init__(self, monkeypatch, mode: str) -> None:
        self.events: list = []
        self.simulation: Simulation | None = None

        def build(**kwargs) -> Simulation:
            adversary = kwargs["adversary"]
            adversary.scheduler = dispatched(adversary.scheduler, mode)
            simulation = Simulation(**kwargs)
            simulation.events.subscribe(self.events.append)
            self.simulation = simulation
            return simulation

        monkeypatch.setattr(runner_module, "Simulation", build)


def observed(kernel: Kernel, result) -> tuple:
    metrics = result.metrics
    return (
        kernel.events,
        metrics.protocol_records,
        metrics.to_dict(include_timings=False),
        result.decisions,
        result.lossy_counters,
        result.deliveries,
        [ctx.depth for ctx in kernel.simulation.contexts],
    )


def both_arms(monkeypatch, mode: str, run) -> tuple[tuple, tuple]:
    """``run()`` with retirement on, then with ``Mailbox.retire`` a no-op."""
    arms = []
    for retiring in (True, False):
        with monkeypatch.context() as patch:
            if not retiring:
                patch.setattr(Mailbox, "retire", lambda self, instance: None)
            kernel = Kernel(patch, mode)
            arms.append(observed(kernel, run()))
    return arms[0], arms[1]


ARMS = ["batched", "classic"]


class TestRetirementIsObservationallyPure:
    """The oracle for any change to what the mailbox or kernel retains."""

    @pytest.mark.parametrize("mode", ARMS)
    @pytest.mark.parametrize("name", [*PROTOCOLS, *SCENARIOS])
    def test_every_named_run(self, monkeypatch, name, mode):
        def run():
            return resolve_run(name, 10, seed=5).run(max_deliveries=MAX_DELIVERIES)

        retiring, keeping = both_arms(monkeypatch, mode, run)
        assert retiring[0], "the run emitted no events"
        assert retiring == keeping

    @pytest.mark.parametrize("mode", ARMS)
    @pytest.mark.parametrize(
        "cell", [cell.name for cell in workloads.WORKLOADS]
    )
    def test_every_ledger_cell_at_smoke_n(self, monkeypatch, cell, mode):
        workload = workloads.smoke_variant(workloads.by_name(cell))

        def run():
            op = adapter.build_op(workload, 2020)
            return adapter.run_op(op)

        retiring, keeping = both_arms(monkeypatch, mode, run)
        assert retiring == keeping


def _buffered(simulation: Simulation, kinds: tuple[str, ...]) -> dict:
    """Per returned-from instance of ``kinds``: entries its process still
    buffers, and whether it retired the instance."""
    held = {}
    correct = set(simulation.correct_pids)
    for record in simulation.metrics.protocol_records:
        if record.pid not in correct or record.kind not in kinds:
            continue
        instance = record.get("instance")
        mailbox = simulation.contexts[record.pid].mailbox
        buffer = mailbox._by_instance.get(instance, ())
        held[record.pid, instance] = (len(buffer), buffer is mailbox_module._RETIRED)
    return held


def _ledger_run(cell: str, n: int):
    op = adapter.build_op(replace(workloads.by_name(cell), n=n), 2020)
    adapter.run_op(op)
    return op.simulation


class TestNothingBufferedAfterReturn:
    @pytest.mark.parametrize("cell", ["ba_fifo_n1000", "ba_random_n400"])
    def test_whp_ba(self, cell):
        """FIFO stops after one round, the random cell after two."""
        simulation = _ledger_run(cell, 64)
        held = _buffered(simulation, ("approve", "coin"))
        assert len(held) >= 3 * len(simulation.correct_pids)
        assert {buffered for buffered, _ in held.values()} == {0}
        assert all(retired for _, retired in held.values())

    def test_mmr_with_the_shared_coin(self):
        simulation = _ledger_run("mmr_coin_n200", 32)
        held = _buffered(simulation, ("coin",))
        assert held and {buffered for buffered, _ in held.values()} == {0}
        # The live exception: background BV relays keep reading every round.
        mailbox = simulation.contexts[simulation.correct_pids[0]].mailbox
        assert len(mailbox.stream(("mmr", 0))) > 0


class TestAFinishedWaitIsFreedByRefcount:
    """A committee condition writes its own ``Wait.need``, so the wait and
    its condition reference each other.  Once the wait returns, the
    protocol breaks that cycle: with the cycle collector off, every wait
    but the one each process still blocks on is gone by the run's end."""

    @pytest.mark.parametrize(
        "protocol, module",
        [("whp_ba", "approver"), ("whp_ba", "whp_coin"), ("mmr+alg1", "shared_coin")],
    )
    def test_with_the_collector_off(self, monkeypatch, protocol, module):
        made = []

        class Tracked(Wait):
            def __post_init__(self):
                super().__post_init__()
                made.append(weakref.ref(self))

        core_module = importlib.import_module(f"repro.core.{module}")
        monkeypatch.setattr(core_module, "Wait", Tracked)
        n = 16
        gc.collect()
        gc.disable()
        try:
            resolve_run(protocol, n, seed=0).run()
            alive = sum(ref() is not None for ref in made)
        finally:
            gc.enable()
        assert alive <= n < len(made)


class TestReadingARetiredInstanceFailsLoudly:
    @pytest.mark.parametrize("mode", ARMS)
    def test_the_run_raises_instead_of_blocking(self, mode):
        n = 4

        def rereads(ctx):
            ctx.broadcast(Message("x"))
            yield Wait(lambda box: len(box.stream("x")) or None, instances={"x"})
            ctx.retire("x")
            yield Wait(lambda box: box.stream("x") or None, instances={"x"})

        simulation = Simulation(
            n=n, f=0, pki=PKI.create(n, rng=random.Random(0)),
            adversary=Adversary(dispatched(RandomScheduler(), mode)),
        )
        simulation.set_protocol_all(rereads)
        with pytest.raises(RuntimeError, match="mailbox instance 'x' was retired"):
            simulation.run()


class TestValidationMemoLeavesWithItsInstance:
    """The PKI's validation memo files each verdict under its instance and
    drops the instance's shelf once every still-correct process retired
    it; the run's end drops the rest."""

    def test_whp_ba_drops_a_shelf_when_every_correct_process_retired(
        self, monkeypatch
    ):
        """The random cell runs two rounds: each retired approver and coin
        instance had verdicts filed, and has none once its last correct
        process retires it."""
        retire = ProcessContext.retire
        retirers: dict = {}
        shelves = []  # (instance, entries before its last retire, after)

        def watched(ctx, instance):
            simulation = ctx._simulation
            memo = simulation.pki.shared_validation_memo
            who = retirers.setdefault(instance, set())
            who.add(ctx.pid)
            last = who >= set(simulation.correct_pids)
            before = len(memo.get(instance) or ())
            retire(ctx, instance)
            if last:
                shelves.append((instance, before, len(memo.get(instance) or ())))

        monkeypatch.setattr(ProcessContext, "retire", watched)
        _ledger_run("ba_random_n400", 64)
        assert len(shelves) >= 3
        assert all(before > 0 for _, before, _ in shelves)
        assert [after for _, _, after in shelves] == [0] * len(shelves)

    def test_a_reused_pki_keeps_nothing_of_a_finished_run(self):
        spec = resolve_run("whp_ba", 16, seed=3)
        pki = PKI.create(spec.n, rng=random.Random(3))
        for _ in range(2):
            result = runner_module.run_protocol(
                spec.n, spec.f, spec.factory, corrupt=set(range(spec.f)),
                seed=spec.seed, pki=pki, params=spec.params,
                stop_condition=runner_module.stop_when_all_decided,
            )
            assert result.metrics.verification_cache_hits > 0
            assert pki.shared_validation_memo == {}

    def test_a_retirer_corrupted_afterwards_does_not_count(self, monkeypatch):
        """The first process to retire anything is corrupted on the next
        delivery.  A shelf goes only once every *still-correct* process
        retired its instance, and the run is the one that drops nothing."""
        retire = ProcessContext.retire
        retired: list = []  # (pid, instance) in retirement order
        drops: list = []  # (instance, still-correct pids, their retirers)
        live: list = []

        def logged(ctx, instance):
            live[:] = [ctx._simulation]
            retired.append((ctx.pid, instance))
            retire(ctx, instance)

        class CorruptFirstRetirer(CorruptionStrategy):
            def on_delivery(self, view, corrupted):
                return {retired[0][0]} if retired and not corrupted else set()

        def run():
            spec = replace(
                resolve_run("whp_ba", 16, seed=4), corruption=CorruptFirstRetirer()
            )
            return spec.run(max_deliveries=MAX_DELIVERIES)

        drop = PKI.drop_validation_memo

        def watched_drop(pki, instance):
            simulation = live[0]
            correct = set(simulation.correct_pids)
            by = {pid for pid, name in retired if name == instance}
            drops.append((instance, correct, by & correct))
            drop(pki, instance)

        arms = []
        for dropping in (True, False):
            retired.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ProcessContext, "retire", logged)
                patch.setattr(
                    PKI, "drop_validation_memo",
                    watched_drop if dropping else (lambda pki, instance: None),
                )
                result = run()
            first = retired[0][0]
            assert result.corrupted == frozenset({first})
            arms.append((
                result.metrics.protocol_records,
                result.metrics.to_dict(include_timings=False),
                result.decisions,
            ))
        assert arms[0] == arms[1]
        assert drops, "no shelf was dropped"
        assert all(correct == by for _, correct, by in drops)
        assert any(
            pid == first and name == instance
            for pid, name in retired
            for instance, _, _ in drops
        ), "the corrupted retirer's instance was never dropped"
