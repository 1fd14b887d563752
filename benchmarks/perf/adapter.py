"""The one place the benchmark touches the program's API.

Later changes may reshape ``run_protocol``'s keyword surface (ROADMAP
items 2 and 3) but may not edit this directory, so every call into the
program goes through here and the *shape* of the API is detected once
from ``run_protocol``'s signature: ``delivery_mode="batched"`` is passed
only if that parameter exists, observers go through ``observers=[...]``
if it exists and through today's four attachment kwargs otherwise.
Nothing in this file looks at a workload's name or size.

Importing this module imports nothing from the program; ``load_program``
does, so the child process can time the import.
"""

from __future__ import annotations

import inspect
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
MAX_DELIVERIES = 20_000_000

__all__ = [
    "ApiShape",
    "Observers",
    "Op",
    "build_op",
    "detect_api",
    "finish_observed",
    "fingerprint",
    "load_program",
    "optional_kwargs",
    "record_op",
    "run_op",
    "untimed",
]


def load_program() -> None:
    """Import every program module the benchmark calls into."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import repro.experiments.protocols  # noqa: F401
    import repro.sim.adversary  # noqa: F401
    import repro.sim.coverage  # noqa: F401
    import repro.sim.flightrecorder  # noqa: F401
    import repro.sim.monitors  # noqa: F401
    import repro.sim.runner  # noqa: F401
    import repro.sim.telemetry  # noqa: F401


@dataclass(frozen=True)
class ApiShape:
    """Which optional keywords ``run_protocol`` accepts."""

    delivery_mode: bool
    observers: bool


def detect_api(run_protocol: Callable[..., Any]) -> ApiShape:
    parameters = inspect.signature(run_protocol).parameters
    return ApiShape(
        delivery_mode="delivery_mode" in parameters,
        observers="observers" in parameters,
    )


@dataclass
class Observers:
    """The four observers ``repro record/check/fuzz/degrade`` attach."""

    recorder: Any
    monitors: Any
    telemetry: Any
    coverage: Any

    @classmethod
    def create(cls) -> "Observers":
        from repro.sim.coverage import CoverageProbe
        from repro.sim.flightrecorder import FlightRecorder
        from repro.sim.monitors import MonitorSuite
        from repro.sim.telemetry import TelemetryProbe

        return cls(FlightRecorder(), MonitorSuite(), TelemetryProbe(), CoverageProbe())

    def named(self) -> list[tuple[str, Any]]:
        return [
            ("recorder", self.recorder),
            ("monitors", self.monitors),
            ("telemetry", self.telemetry),
            ("coverage", self.coverage),
        ]

    def run_kwargs(self, shape: ApiShape) -> dict[str, Any]:
        if shape.observers:
            return {"observers": [observer for _, observer in self.named()]}
        return {
            "subscribers": [self.recorder.on_event],
            "monitors": self.monitors,
            "telemetry": self.telemetry,
            "coverage": self.coverage,
        }


def untimed(name: str, call: Callable[[], Any]) -> Any:
    """The untraced stand-in for ``Tracer.span``: just make the call."""
    return call()


@dataclass
class Op:
    """One operation's generated inputs: everything ``run_protocol`` is given."""

    workload: Any  # the cell (workloads.Workload)
    seed: int
    f: int
    factory: Callable[[Any], Any]
    params: Any
    pki: Any
    scheduler: Any
    lossy: Any = None
    observers: Observers | None = None
    proposals: dict[int, int] = field(default_factory=dict)
    simulation: Any = None  # captured by the stop condition during the run
    direct_verifies: list[int] | None = None  # [vrf, sig] calls made (traced pass)


def build_op(
    workload: Any,
    seed: int,
    *,
    lossy: bool = True,
    observed: bool = True,
    timed: Callable[[str, Callable[[], Any]], Any] = untimed,
) -> Op:
    """Generate one op's inputs from ``seed`` (set-up, not timed work).

    The PKI is built exactly as ``run_protocol`` would build it
    (``random.Random(derive_seed(seed, "setup"))``), so an op is the same
    run a sweep trial with this seed performs.  ``lossy=False`` /
    ``observed=False`` build the workload's bare twin.  ``timed`` lets
    the traced pass put a span around key generation and ``make_runner``.
    """
    from repro.crypto.hashing import derive_seed
    from repro.crypto.pki import PKI
    from repro.experiments.protocols import make_runner
    from repro.sim.adversary import FIFOScheduler, RandomScheduler
    from repro.sim.network import LossyLinkConfig

    proposals: dict[int, int] = {}

    def value_fn(ctx: Any) -> int:
        proposals[ctx.pid] = value = ctx.pid % 2  # split inputs
        return value

    factory, params, f = timed(
        "experiments.make_runner",
        lambda: make_runner(workload.protocol, workload.n, seed=seed, value_fn=value_fn),
    )
    pki = timed(
        "crypto.keygen",
        lambda: PKI.create(
            workload.n,
            backend=workload.backend,
            rng=random.Random(derive_seed(seed, "setup")),
        ),
    )
    if workload.scheduler == "fifo":
        scheduler = FIFOScheduler()
    else:
        scheduler = RandomScheduler(random.Random(derive_seed(seed, "sched")))
    return Op(
        workload=workload,
        seed=seed,
        f=f,
        factory=factory,
        params=params,
        pki=pki,
        scheduler=scheduler,
        lossy=LossyLinkConfig(**dict(workload.lossy)) if workload.lossy and lossy else None,
        observers=Observers.create() if workload.observed and observed else None,
        proposals=proposals,
    )


def _stop_condition(op: Op) -> Callable[[Any], bool]:
    """All correct decided and ``workload.rounds`` rounds completed; captures the
    ``Simulation`` (the only way to read kernel-side batch accounting).

    With a horizon of one round the condition *is* the program's
    ``stop_when_all_decided`` (deciding ends the first round), so its
    ``monotone_stop`` declaration is kept and the batched loop's
    skip-unchanged fast path stays on.
    """
    from repro.sim.runner import stop_when_all_decided

    rounds = op.workload.rounds
    if rounds <= 1:
        def stop(simulation: Any) -> bool:
            op.simulation = simulation
            return stop_when_all_decided(simulation)

        stop.monotone_stop = getattr(  # type: ignore[attr-defined]
            stop_when_all_decided, "monotone_stop", False
        )
        return stop

    marker = op.workload.round_marker
    completed: dict[int, int] = {}
    # record cursor, pids that completed `rounds` rounds, all correct decided
    state = [0, 0, False]

    def stop_after_rounds(simulation: Any) -> bool:
        op.simulation = simulation
        if not state[2]:
            # Decisions are irrevocable: ask until it holds, then never
            # again (once it holds, each call is an O(n) set union).
            if not stop_when_all_decided(simulation):
                return False
            state[2] = True
        records = simulation.metrics.protocol_records
        cursor, done = state[0], state[1]
        if cursor < len(records):
            for record in records[cursor:]:
                if record.kind == marker:
                    count = completed.get(record.pid, 0) + 1
                    completed[record.pid] = count
                    if count == rounds:
                        done += 1
            state[0] = len(records)
            state[1] = done
        return done >= simulation.n - len(simulation.corrupted)

    return stop_after_rounds


def run_op(
    op: Op, shape: ApiShape | None = None, max_deliveries: int = MAX_DELIVERIES
) -> Any:
    """Run one op through ``run_protocol``; returns its ``RunResult``."""
    from repro.sim.adversary import Adversary, StaticCorruption
    from repro.sim.runner import run_protocol

    kwargs = optional_kwargs(
        shape or detect_api(run_protocol),
        batched=op.workload.batched, lossy=op.lossy, observers=op.observers,
    )
    adversary = Adversary(
        scheduler=op.scheduler,
        corruption=StaticCorruption(set(range(op.f))),  # pids 0..f-1 silent
    )
    return run_protocol(
        op.workload.n,
        op.f,
        op.factory,
        adversary=adversary,
        params=op.params,
        pki=op.pki,
        seed=op.seed,
        stop_condition=_stop_condition(op),
        max_deliveries=max_deliveries,
        **kwargs,
    )


def finish_observed(
    op: Op,
    result: Any,
    directory: Path,
    timed: Callable[[str, Callable[[], Any]], Any] = untimed,
) -> int:
    """What an observed run does after ``run_protocol`` returns: roll the
    observers up and persist the flight recording.  Returns its size in bytes."""
    from repro.sim.flightrecorder import save_recording

    observers = op.observers
    observers.monitors.report()
    observers.telemetry.snapshot()
    observers.coverage.snapshot()
    path = timed(
        "observe.save",
        lambda: save_recording(
            directory / f"flight_{op.seed}.jsonl", observers.recorder, result,
            protocol=op.workload.protocol,
        ),
    )
    return Path(path).stat().st_size


def optional_kwargs(
    shape: ApiShape, *, batched: bool, lossy: Any, observers: Observers | None
) -> dict[str, Any]:
    """The keywords of a run that depend on the API's shape or the cell."""
    kwargs: dict[str, Any] = {}
    if batched and shape.delivery_mode:
        kwargs["delivery_mode"] = "batched"
    if lossy is not None:
        kwargs["lossy"] = lossy
    if observers is not None:
        kwargs.update(observers.run_kwargs(shape))
    return kwargs


def record_op(op: Op, result: Any) -> dict[str, Any]:
    """Everything the ledger keeps of one finished op, as plain numbers.

    Called between ops (untimed) so the run itself -- its ``Simulation``,
    mailboxes and ``RunResult`` -- can be dropped before the next op
    starts, as a sweep drops them; peak RSS is then one run's, not the
    sum of all of them.

    An op *fails* when the run is not live or a correct process is left
    undecided (a deterministic whp liveness miss -- counted, not hidden).
    A safety violation (Agreement, Validity) is not a failed op: it is a
    wrong output and fails the whole command.
    """
    violation = None
    if not result.agreement:
        violation = f"agreement: correct processes decided {sorted(result.decided_values)}"
    else:
        proposed = {op.proposals[pid] for pid in result.correct_pids if pid in op.proposals}
        stray = result.decided_values - proposed
        if stray:
            violation = f"validity: decided {sorted(stray)} but proposed {sorted(proposed)}"
    metrics = result.metrics
    simulation = op.simulation
    contexts = getattr(simulation, "contexts", None)
    coins = result.coin_invocations
    return {
        "failed": not (result.live and result.all_correct_decided),
        "violation": violation,
        "fingerprint": fingerprint(result),
        # The longest causal chain the op built: the deepest correct process
        # when the run stopped.  (``RunResult.duration`` stops at the
        # *decision*, which a lucky seed reaches a round before the horizon.)
        "causal_depth": (
            max(contexts[pid].depth for pid in result.correct_pids)
            if contexts is not None else result.duration
        ),
        # Kernel-side batch counters (not in ``RunResult`` by design).
        "batched_deliveries": getattr(simulation, "batched_deliveries", 0),
        "drain_batches": getattr(simulation, "drain_batches", 0),
        "vrf_misses": metrics.vrf_verifications - metrics.vrf_cache_hits,
        "sig_misses": metrics.sig_verifications - metrics.sig_cache_hits,
        "direct_verifies": op.direct_verifies,
        "words_by_kind": dict(metrics.words_by_kind),
        "coin_invocations": len(coins),
        "coins_unanimous": sum(row["unanimous"] for row in coins),
    }


def fingerprint(result: Any) -> dict[str, int]:
    """The run's deterministic counters: identical on every machine, every
    repeat and with tracing on or off."""
    metrics = result.metrics
    decision_rounds = [
        notes["decision_round"] + 1
        for notes in result.notes.values()
        if "decision_round" in notes
    ]
    lossy = result.lossy_counters
    return {
        "deliveries": result.deliveries,
        "words": result.words,
        "messages": metrics.messages_sent_correct,
        "decision_rounds": max(decision_rounds) if decision_rounds else 0,
        "decision_depth": result.duration,
        "decided": len(result.decisions),
        "verifications": metrics.verifications,
        "verification_cache_hits": metrics.verification_cache_hits,
        "wait_evaluations": metrics.wait_evaluations,
        "wait_skips": metrics.wait_skips,
        "words_delivered": metrics.words_delivered,
        "lossy_drops": lossy["drops"],
        "lossy_duplicates": lossy["duplicates"],
        "lossy_reorders": lossy["reorders"],
        "lossy_corruptions": lossy["corruptions"],
    }
