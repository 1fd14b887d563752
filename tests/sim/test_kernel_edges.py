"""Kernel edge cases: error propagation, livelock guard, stop timing."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any

import pytest

from repro.crypto.pki import PKI
from repro.sim.adversary import Adversary, FIFOScheduler, RandomScheduler, Scheduler
from repro.sim.lossy import LossyLinkConfig
from repro.sim.messages import Message
from repro.sim.network import SeqNotInFlightError, Simulation
from repro.sim.process import Wait

from tests.kernel_reference import dispatched


@dataclass
class Tick(Message):
    def words(self) -> int:
        return 1


def make_sim(n=3, seed=0, scheduler=None, pki=None, **kwargs):
    pki = pki or PKI.create(n, rng=random.Random(seed))
    scheduler = scheduler or RandomScheduler(random.Random(seed))
    sim = Simulation(
        n=n, f=0, pki=pki, adversary=Adversary(scheduler=scheduler),
        seed=seed, **kwargs,
    )
    return sim


class TestErrorPropagation:
    def test_protocol_exception_surfaces(self):
        """A bug in a correct process's protocol is a test bug: the kernel
        must propagate it loudly, not swallow it as a 'fault'."""

        def buggy(ctx):
            raise KeyError("protocol bug")
            yield

        sim = make_sim()
        sim.set_protocol_all(buggy)
        with pytest.raises(KeyError):
            sim.run()

    def test_condition_exception_surfaces(self):
        def bad_condition(ctx):
            ctx.broadcast(Tick("t"))
            yield Wait(lambda mailbox: 1 / 0)

        sim = make_sim()
        sim.set_protocol_all(bad_condition)
        with pytest.raises(ZeroDivisionError):
            sim.run()


class TestLivelockGuard:
    def test_always_true_condition_detected(self):
        def spinner(ctx):
            while True:
                yield Wait(lambda mailbox: True)

        sim = make_sim()
        sim.set_protocol_all(spinner)
        with pytest.raises(RuntimeError, match="without blocking"):
            sim.run()


class TestStopConditionTiming:
    def test_stop_checked_before_every_delivery(self):
        """The stop condition fires between deliveries, so the delivery
        count at stop is exact, not approximate."""
        seen = []

        def noter(ctx):
            ctx.broadcast(Tick("t"))
            yield Wait(lambda mailbox: None)

        def stop_at_four(simulation):
            seen.append(simulation.deliveries if hasattr(simulation, "deliveries") else None)
            return simulation.metrics.messages_delivered >= 4

        sim = make_sim(stop_condition=stop_at_four)
        sim.set_protocol_all(noter)
        sim.run()
        assert sim.metrics.messages_delivered == 4
        assert sim.stopped_by_condition

    def test_zero_message_protocol_terminates(self):
        def silent_return(ctx):
            return "done"
            yield

        sim = make_sim()
        sim.set_protocol_all(silent_return)
        sim.run()
        assert sim.returns == {0: "done", 1: "done", 2: "done"}
        assert not sim.deadlocked


class TestNeverRunSimulation:
    def test_exhausted_and_deadlocked_answer_before_run(self):
        """A constructed-but-never-run simulation reports its state instead
        of raising AttributeError (``exhausted`` used to be set only by
        ``run``)."""
        sim = make_sim()
        assert sim.exhausted is False
        assert sim.deadlocked is False
        assert sim.stopped_by_condition is False


class TestSubmitValidation:
    def test_invalid_dest_rejected(self):
        sim = make_sim()
        sim.set_protocol_all(lambda ctx: iter(()))
        with pytest.raises(ValueError, match="invalid destination"):
            sim.submit(0, 3, Tick("t"))

    def test_negative_sender_rejected(self):
        """A negative sender used to silently index contexts[-1] and stamp
        the wrong depth/sender_correct; it must fail like a bad dest."""
        sim = make_sim()
        sim.set_protocol_all(lambda ctx: iter(()))
        with pytest.raises(ValueError, match="invalid sender"):
            sim.submit(-1, 0, Tick("t"))

    def test_out_of_range_sender_rejected(self):
        sim = make_sim()
        sim.set_protocol_all(lambda ctx: iter(()))
        with pytest.raises(ValueError, match="invalid sender"):
            sim.submit(3, 0, Tick("t"))

    @pytest.mark.parametrize("pid", [-1, 3, 99])
    def test_protocol_for_a_process_outside_the_system_rejected(self, pid):
        """Such a factory used to be stored and silently never run."""
        with pytest.raises(ValueError, match=f"invalid process id {pid}"):
            make_sim().set_protocol(pid, lambda ctx: iter(()))


class Naming(Scheduler):
    """Names the scripted seqs through ``choose``, or as one drained batch."""

    def __init__(self, seqs, drains=False):
        self.seqs = list(seqs)
        self.drains = drains

    def choose(self, pool):
        return self.seqs.pop(0)

    def drain(self, pool, limit):
        if not self.drains:
            return None
        batch, self.seqs = self.seqs, []
        return batch


def one_broadcast(ctx):
    """Process 0 broadcasts once (seqs 0, 1, 2 at n=3); everyone waits."""
    if ctx.pid == 0:
        ctx.broadcast(Tick("t"))
    yield Wait(lambda mailbox: None, instances={"never"})


LINK_0_TO_1 = {
    "dropped": LossyLinkConfig(per_link={(0, 1): LossyLinkConfig(drop_rate=1.0)}),
    "held": LossyLinkConfig(
        per_link={(0, 1): LossyLinkConfig(reorder_rate=1.0, reorder_hold=50)}
    ),
}


class TestSchedulerNamesASeqNotInFlight:
    """The seq index is an array: a seq outside the pool must be refused by
    name, never index some other message's slot (it used to surface as a
    bare ``KeyError: -1`` out of the seq dict).  The kernel keeps no
    history of delivered or dropped seqs: "never submitted" and "held"
    are exact, and so is "already delivered" on reliable links; under an
    active lossy config a seq that is neither is named with both causes.
    The ``classic`` arms hand the kernel the scheduler wrapped in
    ``OneChoose``, which has no ``drain`` for the kernel to ask first."""

    def _run(self, seqs, mode, drains=False, lossy=None):
        """The refusal's message, after the scheduler it names."""
        scheduler = dispatched(Naming(seqs, drains), mode)
        sim = make_sim(scheduler=scheduler, lossy=lossy)
        sim.set_protocol_all(one_broadcast)
        with pytest.raises(SeqNotInFlightError) as raised:
            sim.run()
        named = f"scheduler {type(scheduler).__name__} "
        message = str(raised.value)
        assert message.startswith(named)
        return sim, message[len(named):]

    @pytest.mark.parametrize("mode", ["batched", "classic"])
    @pytest.mark.parametrize("seq", [-1, -3, 3, 10**9])
    def test_never_submitted(self, mode, seq):
        sim, message = self._run([0, seq], mode)
        assert message == (
            f"chose seq {seq}, which is not in flight "
            "(never submitted)"
        )
        assert sim.deliveries == 1  # seq 0 went; nothing else was touched

    @pytest.mark.parametrize("mode", ["batched", "classic"])
    def test_already_delivered(self, mode):
        sim, message = self._run([1, 1], mode)
        assert message == (
            "chose seq 1, which is not in flight "
            "(already delivered)"
        )
        assert sim.deliveries == 1

    @pytest.mark.parametrize("mode", ["batched", "classic"])
    @pytest.mark.parametrize("cause", sorted(LINK_0_TO_1))
    def test_dropped_or_held_by_a_lossy_link(self, mode, cause):
        sim, message = self._run([0, 1], mode, lossy=LINK_0_TO_1[cause])
        named = {
            "dropped": "already delivered or dropped by a lossy link",
            "held": "held by a lossy link",
        }[cause]
        assert message == (
            f"chose seq 1, which is not in flight ({named})"
        )
        assert sim.deliveries == 1 and sim.lossy_counters[
            "drops" if cause == "dropped" else "reorders"
        ] == 1

    @pytest.mark.parametrize("mode", ["batched", "classic"])
    @pytest.mark.parametrize("cause", sorted(LINK_0_TO_1))
    def test_delivered_under_a_lossy_link_names_both_causes(self, mode, cause):
        sim, message = self._run([2, 2], mode, lossy=LINK_0_TO_1[cause])
        assert message == (
            "chose seq 2, which is not in flight "
            "(already delivered or dropped by a lossy link)"
        )
        assert sim.deliveries == 1

    @pytest.mark.parametrize(
        "batch, cause",
        [([0, -1], "never submitted"), ([0, 3], "never submitted"),
         ([2, 0, 2], "already delivered")],
    )
    def test_drained_batches_are_checked_too(self, batch, cause):
        sim, message = self._run(batch, "batched", drains=True)
        assert message == (
            f"chose seq {batch[-1]}, which is not in flight "
            f"({cause})"
        )
        assert sim.deliveries == sim.batched_deliveries == len(batch) - 1

    def test_it_is_a_key_error_as_before(self):
        assert issubclass(SeqNotInFlightError, KeyError)


class TestLivelockDiagnostics:
    def test_error_names_wait_and_subscriptions(self):
        """The livelock guard's RuntimeError carries the wait description
        and subscribed instances, so a spinning protocol is debuggable
        from the error alone."""

        def spinner(ctx):
            while True:
                yield Wait(
                    lambda mailbox: True,
                    description="spinning-wait",
                    instances={"round-3"},
                )

        sim = make_sim()
        sim.set_protocol_all(spinner)
        with pytest.raises(RuntimeError) as excinfo:
            sim.run()
        text = str(excinfo.value)
        assert "'spinning-wait'" in text
        assert "'round-3'" in text


@dataclass
class Attest(Message):
    output: Any = None

    def words(self) -> int:
        return 1


def attested(ctx):
    """Everyone broadcasts a VRF output twice and verifies all it hears."""
    ctx.broadcast(Attest("a", output=ctx.vrf(b"alpha")))
    ctx.broadcast(Attest("a", output=ctx.vrf(b"alpha")))

    def all_valid(mailbox):
        stream = mailbox.stream("a")
        if len(stream) < 2 * ctx.n:
            return None
        return all(ctx.verify_vrf(who, b"alpha", m.output) for who, m in stream)

    return (yield Wait(all_valid, instances={"a"}))


def run_attested(**kwargs):
    sim = make_sim(n=5, **kwargs)
    sim.set_protocol_all(attested)
    start = time.perf_counter()
    sim.run()
    return sim, time.perf_counter() - start


PROFILED_CASES = {
    "random": lambda: {"scheduler": RandomScheduler(random.Random(4))},
    "fifo": lambda: {"scheduler": FIFOScheduler()},
    "lossy": lambda: {
        "lossy": LossyLinkConfig(duplicate_rate=0.2, reorder_rate=0.3, reorder_hold=4)
    },
}


class TestProfilerOnTheFastLoop:
    """``profile=True`` times the loop every run takes; it selects nothing."""

    @pytest.mark.parametrize("case", sorted(PROFILED_CASES))
    def test_timers_describe_the_same_run(self, case):
        bare, _ = run_attested(**PROFILED_CASES[case]())
        profiled, wall = run_attested(profile=True, **PROFILED_CASES[case]())
        assert profiled.returns == {pid: True for pid in range(5)}
        if case == "fifo":
            assert profiled.batched_deliveries > 0  # drained, as unprofiled
        else:
            assert profiled._pos_at is None  # positional, as unprofiled
        if case == "lossy":
            assert profiled.lossy_counters["reorders"] > 0
        timings = profiled.metrics.phase_timings
        assert {"kernel.schedule", "kernel.step", "kernel.verify"} <= set(timings)
        assert all(seconds >= 0.0 for seconds in timings.values())
        assert timings["kernel.schedule"] + timings["kernel.step"] <= wall
        assert not bare.metrics.phase_timings
        assert profiled.metrics.to_dict(include_timings=False) == (
            bare.metrics.to_dict(include_timings=False)
        )

    def test_verify_time_is_scheme_time_on_misses(self):
        """A PKI whose cache is off pays the scheme on every call."""
        uncached = PKI.create(5, rng=random.Random(0), verify_cache=False)
        profiled, _ = run_attested(profile=True, pki=uncached)
        assert profiled.metrics.vrf_verifications == 50
        timings = profiled.metrics.phase_timings
        assert 0.0 < timings["kernel.verify"] <= timings["kernel.step"]
        assert timings["kernel.verify"] == pytest.approx(uncached.verify_seconds)

    def test_callers_verify_wrapper_is_left_alone_and_called(self):
        """The ledger's tracer shadows ``pki.vrf_verify`` on the instance;
        a profiled run calls that wrapper, leaves it installed, and never
        touches the (possibly shared) PKI's attributes itself."""
        pki = PKI.create(5, rng=random.Random(0))
        inner = pki.vrf_verify
        calls = []

        def counted(process_id, alpha, output):
            calls.append(set(pki.__dict__))
            return inner(process_id, alpha, output)

        pki.vrf_verify = counted
        attributes = set(pki.__dict__)
        profiled, _ = run_attested(profile=True, pki=pki)
        assert len(calls) == profiled.metrics.vrf_verifications == 50
        assert all(seen == attributes for seen in calls)
        assert pki.__dict__["vrf_verify"] is counted
        assert set(pki.__dict__) == attributes


class TestVerifyTimerRestore:
    def test_profiled_run_leaves_shared_pki_clean(self):
        """End to end: a profiled run never shadows the PKI's class-level
        verify methods, during or after."""

        def quick(ctx):
            ctx.broadcast(Tick("t"))
            return (yield Wait(lambda mailbox: len(mailbox.stream("t")) >= 3 or None))

        sim = make_sim(profile=True)
        sim.set_protocol_all(quick)
        sim.run()
        assert "vrf_verify" not in sim.pki.__dict__
        assert "signature_verify" not in sim.pki.__dict__


class TestCorruptionEdges:
    def test_corrupting_finished_process_is_allowed(self):
        """A process whose generator already returned can still be
        corrupted (its budget slot is spent like any other)."""
        def quick(ctx):
            return "ok"
            yield

        pki = PKI.create(3, rng=random.Random(1))
        sim = Simulation(
            n=3, f=1, pki=pki,
            adversary=Adversary(scheduler=RandomScheduler(random.Random(1))),
            seed=1,
        )
        sim.set_protocol_all(quick)
        sim.run()
        assert sim.corrupt(0)
        assert sim.corrupted == {0}

    def test_double_corruption_rejected(self):
        pki = PKI.create(3, rng=random.Random(2))
        sim = Simulation(
            n=3, f=2, pki=pki,
            adversary=Adversary(scheduler=RandomScheduler(random.Random(2))),
            seed=2,
        )
        sim.set_protocol_all(lambda ctx: iter(()))
        assert sim.corrupt(1)
        assert not sim.corrupt(1)  # already corrupted
        assert len(sim.corrupted) == 1
