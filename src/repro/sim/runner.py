"""High-level run helpers and the immutable result snapshot."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.crypto.hashing import derive_seed
from repro.crypto.pki import PKI
from repro.sim.adversary import Adversary, RandomScheduler, StaticCorruption
from repro.sim.lossy import zero_counters
from repro.sim.metrics import MetricsRecorder
from repro.sim.network import DEFAULT_MAX_DELIVERIES, Simulation
from repro.sim.process import ProcessContext, ProtocolFactory

__all__ = [
    "RunResult",
    "run_protocol",
    "stop_when_all_decided",
    "stop_when_all_returned",
]


def stop_when_all_decided(simulation: Simulation) -> bool:
    """Stop once every correct process has decided.

    This is how runs of the (forever-looping) Byzantine Agreement protocol
    terminate: the algorithm never halts, the experiment does.

    Evaluated after every delivery, so the common case (not done yet) is a
    cheap length check; the precise set union only runs when the counts
    could possibly cover every correct process.
    """
    if len(simulation.decided) + len(simulation.corrupted) < simulation.n:
        return False
    return len(simulation.decided | simulation.corrupted) == simulation.n


def stop_when_all_returned(simulation: Simulation) -> bool:
    """Stop once every correct process's protocol generator returned."""
    if len(simulation.finished) + len(simulation.corrupted) < simulation.n:
        return False
    return len(simulation.finished | simulation.corrupted) == simulation.n


# Both conditions are monotone in state that only ever grows (decided /
# finished / corrupted), so their value can only change when one of those
# sets does.  The batched kernel loop uses this to skip re-evaluating an
# unchanged condition between deliveries (same stop point, fewer calls).
stop_when_all_decided.monotone_stop = True  # type: ignore[attr-defined]
stop_when_all_returned.monotone_stop = True  # type: ignore[attr-defined]


@dataclass(frozen=True)
class RunResult:
    """Snapshot of one finished run."""

    n: int
    f: int
    seed: int
    corrupted: frozenset[int]
    returns: dict[int, Any]
    decisions: dict[int, Any]
    decision_depths: dict[int, int]
    notes: dict[int, dict[str, Any]]
    metrics: MetricsRecorder
    deliveries: int
    deadlocked: bool
    exhausted: bool
    stopped_by_condition: bool

    @property
    def correct_pids(self) -> list[int]:
        return [pid for pid in range(self.n) if pid not in self.corrupted]

    @property
    def words(self) -> int:
        """Word complexity: words sent by correct processes (paper Section 2)."""
        return self.metrics.words_correct

    @property
    def duration(self) -> int:
        """Causal running time: depth of the deepest decision (or return)."""
        if self.decision_depths:
            return max(self.decision_depths.values())
        return 0

    @property
    def words_delivered(self) -> int:
        """Words actually delivered (sent minus dropped, plus duplicates)."""
        return self.metrics.words_delivered

    @property
    def lossy_counters(self) -> dict[str, int]:
        """Link-fault counters (all zero for reliable-model runs)."""
        return {**zero_counters(), **self.metrics.lossy_link}

    @property
    def lossy_by_kind(self) -> dict[str, dict[str, int]]:
        """Per-message-kind link-fault counters (empty when reliable)."""
        return {
            fate: dict(kinds)
            for fate, kinds in self.metrics.lossy_by_kind.items()
        }

    @property
    def live(self) -> bool:
        """True if the run terminated properly (no deadlock, no step cap)."""
        return not self.deadlocked and not self.exhausted

    @property
    def all_correct_decided(self) -> bool:
        return all(pid in self.decisions for pid in self.correct_pids)

    @property
    def decided_values(self) -> set[Any]:
        return {self.decisions[pid] for pid in self.correct_pids if pid in self.decisions}

    @property
    def agreement(self) -> bool:
        """No two correct processes decided differently (vacuous if none decided)."""
        return len(self.decided_values) <= 1

    @property
    def returned_values(self) -> set[Any]:
        return {
            self.returns[pid] for pid in self.correct_pids if pid in self.returns
        }

    # -- protocol-record rollups (delegated to the metrics recorder) -----------

    @property
    def rounds(self) -> list[dict[str, Any]]:
        """Round-indexed rollup of the protocol's ``round`` annotations."""
        return self.metrics.rounds()

    @property
    def coin_invocations(self) -> list[dict[str, Any]]:
        return self.metrics.coin_invocations()

    @property
    def coin_success_rate(self) -> float:
        return self.metrics.coin_success_rate()

    @property
    def committee_sizes(self) -> dict[str, dict[int, int]]:
        return self.metrics.committee_sizes()

    @property
    def protocol_summary(self) -> dict[str, Any]:
        return self.metrics.protocol_summary()

    @staticmethod
    def of(simulation: Simulation) -> "RunResult":
        return RunResult(
            n=simulation.n,
            f=simulation.f,
            seed=simulation.seed,
            corrupted=frozenset(simulation.corrupted),
            returns=dict(simulation.returns),
            decisions={
                pid: simulation.contexts[pid].decision
                for pid in simulation.decided
            },
            decision_depths={
                pid: simulation.contexts[pid].decision_depth
                for pid in simulation.decided
                if simulation.contexts[pid].decision_depth is not None
            },
            notes={
                pid: dict(simulation.contexts[pid].notes)
                for pid in range(simulation.n)
                if simulation.contexts[pid].notes
            },
            metrics=simulation.metrics,
            deliveries=simulation.deliveries,
            deadlocked=simulation.deadlocked,
            exhausted=simulation.exhausted,
            stopped_by_condition=simulation.stopped_by_condition,
        )


def run_protocol(
    n: int,
    f: int,
    protocol: ProtocolFactory,
    *,
    adversary: Adversary | None = None,
    corrupt: set[int] | None = None,
    seed: int = 0,
    pki: PKI | None = None,
    backend: str = "simulated",
    params: Any = None,
    stop_condition: Callable[[Simulation], bool] | None = stop_when_all_returned,
    max_deliveries: int = DEFAULT_MAX_DELIVERIES,
    profile: bool = False,
    lossy: Any = None,
    observers: Sequence[Any] | None = None,
) -> RunResult:
    """Run one protocol instance end to end and snapshot the result.

    By default every process runs ``protocol``, the ``corrupt`` pid set is
    statically Byzantine-silent, scheduling is uniformly random (seeded
    from ``seed``), the ``pki`` is created here, and the run stops when
    every correct process's generator returns.  The kernel has one
    delivery loop and no reference switch: the equivalence tests build
    their references from a wrapped scheduler or protocol and a ``pki``
    made with ``verify_cache=False``, and pass them in here.
    ``profile=True`` adds the wall-clock kernel/span timers
    (``metrics.phase_timings``) to that same loop.

    ``observers`` is the one attachment seam.  An observer is any object
    with ``on_event(event)`` and, optionally, ``begin_run()`` and
    ``finalize(result, simulation)``: each is attached to the kernel
    event bus before the run (:meth:`~repro.sim.events.EventBus.attach`)
    and finalized against the snapshotted result after it.
    ``FlightRecorder``, ``MonitorSuite`` (reusable across runs to
    accumulate statistics), ``TelemetryProbe`` and ``CoverageProbe`` are
    the stock ones (DESIGN.md sections 7-9 and 11); each folds the events
    as they arrive, so read them afterwards through ``save_recording`` /
    ``report()`` / ``snapshot()``.  An ``EventLog`` keeps the events
    themselves, in its ``events`` list.
    Observers never perturb the run or see each other, so order is
    irrelevant; with none attached a run does no observability work
    beyond one list-truthiness check per emission site.

    ``lossy`` attaches a :class:`~repro.sim.lossy.LossyLinkConfig`
    enabling the lossy-link model *extension* (per-link drop / duplicate
    / reorder / bit-corrupt fates, deterministic from ``seed``).  ``None``
    or an all-zero config keeps the run byte-identical to the reliable
    model.
    """
    # Reject bad arguments before paying for key generation.
    if adversary is not None and corrupt is not None:
        raise ValueError("pass either a full adversary or a corrupt set, not both")
    for index, observer in enumerate(observers or ()):
        if not callable(getattr(observer, "on_event", None)):
            raise TypeError(
                f"observers[{index}] ({type(observer).__name__}) has no "
                "callable on_event"
            )
    if pki is None:
        rng = random.Random(derive_seed(seed, "setup"))
        pki = PKI.create(n, backend=backend, rng=rng)
    if adversary is None:
        adversary = Adversary(
            scheduler=RandomScheduler(random.Random(derive_seed(seed, "sched"))),
            corruption=StaticCorruption(corrupt or set()),
        )
    simulation = Simulation(
        n=n,
        f=f,
        pki=pki,
        adversary=adversary,
        seed=seed,
        params=params,
        max_deliveries=max_deliveries,
        stop_condition=stop_condition,
        profile=profile,
        lossy=lossy,
    )
    for observer in observers or ():
        simulation.events.attach(observer)
    simulation.set_protocol_all(protocol)
    simulation.run()
    result = RunResult.of(simulation)
    for observer in observers or ():
        finalize = getattr(observer, "finalize", None)
        if finalize is not None:
            finalize(result, simulation)
    return result
