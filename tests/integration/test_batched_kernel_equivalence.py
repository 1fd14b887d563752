"""The kernel's dispatch is pure: drained and positional == one choose.

The kernel's one loop delivers scheduler-committed batches and picks by
pool position under a positional scheduler -- but every committed batch
is exactly the seq sequence one ``choose`` per delivery would have
produced (the ``Scheduler.drain`` contract), and every positional pick
is the draw ``choose`` would have made (the ``choose_index`` contract).
Each twin runs a cell twice: ``batched``, as any run does, and
``classic``, with the scheduler wrapped in
``tests.kernel_reference.OneChoose``, which hides ``drain`` and
``choose_index``.  The two arms must agree on *every* observable --
RunResult fields, the full deterministic metrics dict (wait gating is
the same in both, so its counters are too), and the kernel event stream
-- under draining, positional and seq-choosing schedulers alike, over
lossy links, and with the observability stack attached.  A scheduler
with neither ``drain`` nor ``choose_index`` is asked the same way by
both arms; its cells check that the wrapper changes nothing else.

Nothing here can catch a bug in the delivery step itself, which both
arms share; DESIGN.md section 10 says what does.
"""

from __future__ import annotations

import random

import pytest

from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.crypto.hashing import derive_seed
from repro.crypto.pki import PKI
from repro.experiments.protocols import make_runner
from repro.sim.adversary import (
    Adversary,
    ContentAwareMinWithholdScheduler,
    DelayBoundedScheduler,
    FIFOScheduler,
    RandomScheduler,
    ReplayScheduler,
    Scheduler,
    StaticCorruption,
    TargetedDelayScheduler,
)
from repro.sim.diffing import diff_events, divergence_hint
from repro.sim.flightrecorder import EventLog
from repro.sim.monitors import MonitorSuite, default_monitors
from repro.sim.network import LossyLinkConfig, Simulation
from repro.sim.runner import (
    RunResult,
    run_protocol,
    stop_when_all_decided,
    stop_when_all_returned,
)
from repro.sim.telemetry import TelemetryProbe

from tests.integration.test_determinism_matrix import SCHEDULER_FACTORIES
from tests.kernel_reference import dispatched

N, F = 10, 2

# The zoo from the determinism matrix (the positional random scheduler,
# seq-choosing and content-aware ones, which the fast loop asks through
# ``choose``) plus the bounded-delay scheduler, the canonical randomised
# *draining* schedule.
ALL_SCHEDULERS = dict(SCHEDULER_FACTORIES)
ALL_SCHEDULERS["delay"] = lambda seed: DelayBoundedScheduler(
    rng=random.Random(seed)
)


def observable(result: RunResult) -> tuple:
    """Every kernel-determined field plus the full gated metrics dict."""
    return (
        result.n,
        result.f,
        result.seed,
        result.corrupted,
        result.returns,
        result.decisions,
        result.decision_depths,
        result.notes,
        result.deliveries,
        result.deadlocked,
        result.exhausted,
        result.stopped_by_condition,
        result.words,
        result.metrics.to_dict(include_timings=False),
    )


def run_shared_coin(scheduler_name: str, seed: int, mode: str) -> RunResult:
    pki = PKI.create(N, rng=random.Random(99))
    adversary = Adversary(
        scheduler=dispatched(ALL_SCHEDULERS[scheduler_name](seed), mode),
        corruption=StaticCorruption({0, 1}),
    )
    return run_protocol(
        N, F, lambda ctx: shared_coin(ctx, 0),
        adversary=adversary, pki=pki, params=ProtocolParams(n=N, f=F),
        stop_condition=stop_when_all_returned, seed=seed,
    )


@pytest.mark.parametrize("name", sorted(ALL_SCHEDULERS))
@pytest.mark.parametrize("seed", [3, 11])
class TestSharedCoinMatrix:
    def test_batched_equals_classic(self, name, seed):
        classic = run_shared_coin(name, seed, "classic")
        batched = run_shared_coin(name, seed, "batched")
        assert observable(batched) == observable(classic), divergence_hint(
            f"batched != classic for shared coin ({name}, seed {seed})"
        )


def run_ba(protocol: str, scheduler_name: str, seed: int, mode: str,
           n: int = 40, observers=()):
    factory, params, f = make_runner(protocol, n, seed=seed)
    adversary = Adversary(
        scheduler=dispatched(ALL_SCHEDULERS[scheduler_name](seed), mode),
        corruption=StaticCorruption(set(range(f))),
    )
    pki = PKI.create(n, rng=random.Random(derive_seed(seed, "setup")))
    return run_protocol(
        n, f, factory, adversary=adversary, pki=pki, params=params,
        stop_condition=stop_when_all_decided, seed=seed, observers=observers,
    )


@pytest.mark.parametrize("protocol", ["whp_ba", "mmr+alg1"])
@pytest.mark.parametrize(
    "scheduler", ["fifo", "delay", "random", "partition", "targeted"]
)
class TestAgreementMatrix:
    def test_batched_equals_classic(self, protocol, scheduler):
        classic = run_ba(protocol, scheduler, seed=7, mode="classic")
        batched = run_ba(protocol, scheduler, seed=7, mode="batched")
        assert observable(batched) == observable(classic), divergence_hint(
            f"batched != classic for {protocol} under {scheduler}"
        )


class TestEventStreamIdentity:
    @pytest.mark.parametrize(
        "scheduler", ["fifo", "delay", "random", "partition", "targeted"]
    )
    def test_full_event_stream_identical(self, scheduler):
        """Not just the aggregates: the *entire* event sequence (sends,
        deliveries, wait blocks/wakes, decides) matches event for event,
        so flight recordings and traces do not depend on dispatch."""
        classic, batched = EventLog(), EventLog()
        run_ba("whp_ba", scheduler, seed=3, mode="classic", observers=[classic])
        run_ba("whp_ba", scheduler, seed=3, mode="batched", observers=[batched])
        classic_events, batched_events = classic.events, batched.events
        assert classic_events, "no events recorded"
        if batched_events != classic_events:
            report = diff_events(classic_events, batched_events)
            pytest.fail(
                report.describe()
                + "\n"
                + divergence_hint(
                    f"batched event stream diverged under {scheduler}"
                )
            )


class TestObservabilityStack:
    def test_monitors_and_telemetry_under_batched_mode(self):
        """The online conformance monitors and the telemetry probe see the
        identical event stream, so they pass and snapshot identically."""

        def instrumented(mode):
            probe = TelemetryProbe()
            suite = MonitorSuite(default_monitors())
            result = run_ba("whp_ba", "fifo", seed=5, mode=mode,
                            observers=[probe, suite])
            safety = [
                violation
                for violation in suite.violations
                if violation.severity == "safety"
            ]
            return result, probe.snapshot(), safety

        classic_result, classic_snapshot, classic_safety = instrumented("classic")
        batched_result, batched_snapshot, batched_safety = instrumented("batched")
        assert batched_safety == classic_safety == []
        assert observable(batched_result) == observable(classic_result), (
            divergence_hint("batched != classic with observability attached")
        )
        assert batched_snapshot == classic_snapshot


def simulate_ba(n, seed, mode, scheduler, lossy=None, unicast=False):
    """One whp_ba run with direct Simulation access (for the batch
    counters and the pool layout), set up exactly as ``run_protocol``
    would, with ``scheduler`` as the ``mode`` arm asks it.
    ``unicast=True`` turns every ``ctx.broadcast`` into n ``ctx.send``
    calls in destination order."""
    factory, params, f = make_runner("whp_ba", n, seed=seed)
    rng = random.Random(derive_seed(seed, "setup"))
    pki = PKI.create(n, backend="simulated", rng=rng)
    sim = Simulation(
        n=n, f=f, pki=pki,
        adversary=Adversary(
            scheduler=dispatched(scheduler, mode),
            corruption=StaticCorruption(set(range(f))),
        ),
        seed=seed, params=params,
        stop_condition=stop_when_all_decided, lossy=lossy,
    )
    recorder = sim.events.attach(EventLog())
    if unicast:
        for ctx in sim.contexts:
            ctx.broadcast = lambda message, send=ctx.send: [
                send(dest, message) for dest in range(n)
            ]
    sim.set_protocol_all(factory)
    sim.run()
    return sim, recorder, RunResult.of(sim)


def assert_same_run(reference, other, label):
    """``(sim, recorder, result)`` triples agree event for event."""
    if other[1].events != reference[1].events:
        pytest.fail(
            diff_events(reference[1].events, other[1].events).describe()
            + "\n"
            + divergence_hint(label)
        )
    assert observable(other[2]) == observable(reference[2]), divergence_hint(label)


LOSSY = LossyLinkConfig(duplicate_rate=0.2, reorder_rate=0.3, reorder_hold=8)


def _logging(scheduler_cls: type[Scheduler]) -> type[Scheduler]:
    """``scheduler_cls`` that also keeps the seqs ``on_submit`` announced,
    with their views, one entry per seq: a broadcast's one call and its n
    unicasts' n calls log the same list."""

    class Logging(scheduler_cls):
        def on_submit(self, start, stop, pool):
            self.__dict__.setdefault("submitted", []).extend(
                (seq, pool.view(seq)) for seq in range(start, stop)
            )
            super().on_submit(start, stop, pool)

    return Logging


@pytest.mark.parametrize("lossy", [None, LOSSY], ids=["reliable", "lossy"])
class TestRandomSchedulerFastLoop:
    """The default adversary is a *non-trivial* row: under
    ``RandomScheduler`` the kernel picks by pool position and keeps no seq
    index, while under ``OneChoose`` it asks ``choose`` and looks the seq
    up -- different code, same run, over reliable and lossy links."""

    N_BA, SEED = 40, 13

    def _run(self, mode, lossy, scheduler=None):
        scheduler = scheduler or RandomScheduler(random.Random(self.SEED))
        return simulate_ba(self.N_BA, self.SEED, mode, scheduler, lossy=lossy)

    def test_positional_fast_loop_equals_reference(self, lossy):
        reference = self._run("classic", lossy)
        fast = self._run("batched", lossy)
        # The premise: the two sides really ran different pool layouts.
        assert fast[0]._pos_at is None
        assert reference[0]._pos_at is not None
        if lossy is not None:
            counters = fast[0].lossy_counters
            assert counters["duplicates"] > 0 and counters["reorders"] > 0
        assert_same_run(reference, fast, "positional fast loop != reference")
        # Same picks from the same stream: the scheduler RNGs end equal.
        assert (
            fast[0].adversary.scheduler.rng.getstate()
            == reference[0].adversary.scheduler.inner.rng.getstate()
        )

    def test_fast_loop_recording_replays_seq_exactly(self, lossy):
        original = self._run("batched", lossy)
        replayed = self._run(
            "batched", lossy, scheduler=ReplayScheduler(original[1].schedule())
        )
        assert_same_run(original, replayed, "replay of a fast-loop recording diverged")

    @pytest.mark.parametrize(
        "make_scheduler",
        [
            lambda seed: RandomScheduler(random.Random(seed)),
            lambda seed: _logging(FIFOScheduler)(),
            lambda seed: _logging(TargetedDelayScheduler)({0, 1}, random.Random(seed)),
            lambda seed: _logging(ContentAwareMinWithholdScheduler)(random.Random(seed)),
        ],
        ids=["random-no-hook", "fifo-seq-only", "targeted-view", "content-aware"],
    )
    def test_broadcast_equals_unicasts_in_destination_order(
        self, lossy, make_scheduler
    ):
        """One ``submit_broadcast`` is n ``submit`` calls: same seqs
        (injected duplicates included), ``SendEvent`` records, metrics,
        link-fault counters and scheduler ``on_submit`` sequence -- so the
        whole run is the same run.  Submission does not depend on how
        the scheduler is then asked, so one dispatch arm suffices."""
        n = 24  # the smallest n at which this seed still decides over lossy links
        broadcast = simulate_ba(
            n, self.SEED, "batched", make_scheduler(self.SEED), lossy=lossy
        )
        unicast = simulate_ba(
            n, self.SEED, "batched", make_scheduler(self.SEED), lossy=lossy, unicast=True
        )
        assert_same_run(unicast, broadcast, "submit_broadcast != n unicast submits")
        sends = broadcast[1].of_kind("send")
        assert [event.seq for event in sends] == list(range(broadcast[0]._next_seq))
        assert broadcast[0].lossy_counters == unicast[0].lossy_counters
        assert broadcast[2].lossy_by_kind == unicast[2].lossy_by_kind
        if lossy is not None:
            counters = broadcast[0].lossy_counters
            assert counters["duplicates"] > 0 and counters["reorders"] > 0
            # Injected copies take seqs but are not protocol sends.
            sent = broadcast[2].metrics.messages_sent_total
            assert len(sends) == sent + counters["duplicates"]
        submitted = getattr(broadcast[0].adversary.scheduler, "submitted", None)
        assert submitted == getattr(unicast[0].adversary.scheduler, "submitted", None)
        if submitted is not None:
            # Every seq that entered the pool was announced exactly once.
            assert len(submitted) == broadcast[2].deliveries + len(broadcast[0]._in_flight)


class TestBatchedReplay:
    """Flight recordings made from drained batches replay seq-exactly.

    A drained run's event stream is the one-choose stream (above), so its
    recording must feed a seq-exact :class:`ReplayScheduler` that
    reproduces the stream bit for bit -- and because a replay schedule's
    choices cannot be promised insensitive to mid-batch submissions, the
    scheduler must *decline* to drain: the replay delivers batches of one
    through ``choose`` rather than diverging.  One recording and one
    replay serve both tests.
    """

    N_BA, SEED = 40, 9

    @pytest.fixture(scope="class")
    def runs(self):
        original = simulate_ba(
            self.N_BA, self.SEED, "batched",
            DelayBoundedScheduler(rng=random.Random(self.SEED)),
        )
        replayed = simulate_ba(
            self.N_BA, self.SEED, "batched", ReplayScheduler(original[1].schedule())
        )
        return original, replayed

    def test_batched_recording_replays_seq_exactly(self, runs):
        original, replayed = runs
        # The premise: this recording really was produced by committed
        # scheduler batches, not by batches of one.
        assert original[0].drain_batches > 0
        assert original[0].batched_deliveries > 0
        assert_same_run(original, replayed, "replay of a batched recording diverged")

    def test_replay_under_batched_mode_declines_and_matches(self, runs):
        original, replayed = runs
        # ReplayScheduler declines every drain, so the kernel asked
        # ``choose`` for the whole run...
        assert replayed[0].batched_deliveries == 0
        # ...and the replay still reproduces the recording exactly.
        assert_same_run(original, replayed, "batched-mode replay diverged")
