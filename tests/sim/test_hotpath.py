"""Kernel hot-path behaviour: verify cache, keyed wakeups, and the
termination-reporting fixes that shipped with them.

Regression targets:

* ``exhausted`` misreported when the stop condition became true on
  exactly the ``max_deliveries``-th delivery;
* ``Mailbox.stream`` permanently allocating a buffer for every probed
  instance;
* ``SchedulerPool`` raising bare built-in errors on an empty pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.crypto.pki import PKI
from repro.crypto.vrf import VRFOutput
from repro.sim.adversary import (
    Adversary,
    FIFOScheduler,
    RandomScheduler,
    StaticCorruption,
)
from repro.sim.mailbox import Mailbox
from repro.sim.messages import Message
from repro.sim.network import EmptySchedulerPoolError, SchedulerPool, Simulation
from repro.sim.process import Wait

from tests.kernel_reference import unsubscribed


@dataclass
class Ping(Message):
    payload: int = 0

    def words(self) -> int:
        return 1


def make_sim(n=1, f=0, seed=0, scheduler=None, **kwargs):
    pki = PKI.create(n, rng=random.Random(seed))
    adversary = Adversary(
        scheduler=scheduler or FIFOScheduler(),
        corruption=StaticCorruption(set()),
    )
    return Simulation(n=n, f=f, pki=pki, adversary=adversary, seed=seed, **kwargs)


class TestVerifyCache:
    def make_pki(self, n=3, **kwargs):
        return PKI.create(n, rng=random.Random(7), **kwargs)

    def test_vrf_hit_on_repeat(self):
        pki = self.make_pki()
        output = pki.vrf_scheme.prove(pki.vrf_private(0), b"alpha")
        assert pki.vrf_verify(0, b"alpha", output)
        assert pki.vrf_verify(0, b"alpha", output)
        verifs, hits, _, _ = pki.verification_counters()
        assert (verifs, hits) == (2, 1)

    def test_negative_verdicts_are_cached(self):
        pki = self.make_pki()
        forged = VRFOutput(value=123, proof=b"\x00" * 32)
        assert not pki.vrf_verify(0, b"alpha", forged)
        assert not pki.vrf_verify(0, b"alpha", forged)
        _, hits, _, _ = pki.verification_counters()
        assert hits == 1

    def test_cache_keyed_by_process_and_alpha(self):
        pki = self.make_pki()
        output = pki.vrf_scheme.prove(pki.vrf_private(0), b"alpha")
        assert pki.vrf_verify(0, b"alpha", output)
        # Same output against another pid / alpha: distinct entries, and
        # distinct (correct) verdicts.
        assert not pki.vrf_verify(1, b"alpha", output)
        assert not pki.vrf_verify(0, b"beta", output)
        _, hits, _, _ = pki.verification_counters()
        assert hits == 0

    def test_signature_hit_on_repeat(self):
        pki = self.make_pki()
        signature = pki.signature_scheme.sign(pki.signature_private(1), b"msg")
        assert pki.signature_verify(1, b"msg", signature)
        assert pki.signature_verify(1, b"msg", signature)
        _, _, sig_verifs, sig_hits = pki.verification_counters()
        assert (sig_verifs, sig_hits) == (2, 1)

    def test_disabled_cache_never_hits(self):
        pki = self.make_pki(verify_cache=False)
        output = pki.vrf_scheme.prove(pki.vrf_private(0), b"alpha")
        assert pki.vrf_verify(0, b"alpha", output)
        assert pki.vrf_verify(0, b"alpha", output)
        verifs, hits, _, _ = pki.verification_counters()
        assert (verifs, hits) == (2, 0)

    def test_set_verify_cache_toggles_and_clears(self):
        pki = self.make_pki()
        output = pki.vrf_scheme.prove(pki.vrf_private(0), b"alpha")
        assert pki.vrf_verify(0, b"alpha", output)
        pki.set_verify_cache(False)
        assert pki.vrf_verify(0, b"alpha", output)
        _, hits, _, _ = pki.verification_counters()
        assert hits == 0
        pki.set_verify_cache(True)
        assert pki.vrf_verify(0, b"alpha", output)
        assert pki.vrf_verify(0, b"alpha", output)
        _, hits, _, _ = pki.verification_counters()
        assert hits == 1


class TestMailboxProbeAllocation:
    def test_probe_does_not_allocate_a_buffer(self):
        box = Mailbox()
        for i in range(100):
            box.stream(("future-round", i))
        assert list(box.instances()) == []
        assert len(box.stream(("future-round", 0))) == 0

    def test_probe_view_sees_later_deliveries(self):
        box = Mailbox()
        view = box.stream("ghost")
        assert len(view) == 0
        assert not view
        box.add(4, Message(instance="ghost"))
        assert len(view) == 1
        assert view[0][0] == 4
        assert [sender for sender, _ in view] == [4]
        assert view == box.stream("ghost")

    def test_existing_instance_returns_the_live_list(self):
        box = Mailbox()
        box.add(1, Message(instance="a"))
        stream = box.stream("a")
        box.add(2, Message(instance="a"))
        assert len(stream) == 2


class TestEmptySchedulerPool:
    def test_seq_at_raises_descriptive_error(self):
        sim = make_sim(scheduler=FIFOScheduler())
        pool = SchedulerPool(sim)
        with pytest.raises(EmptySchedulerPoolError, match="FIFOScheduler"):
            pool.seq_at(0)

    def test_random_seq_raises_descriptive_error(self):
        rng = random.Random(0)
        sim = make_sim(scheduler=RandomScheduler(rng))
        pool = SchedulerPool(sim)
        with pytest.raises(EmptySchedulerPoolError, match="RandomScheduler"):
            pool.random_seq(rng)

    def test_error_is_a_runtime_error(self):
        assert issubclass(EmptySchedulerPoolError, RuntimeError)


def _self_talker(send_count: int, want: int):
    """Protocol: send ``send_count`` pings to self, return after ``want``."""

    def protocol(ctx):
        for i in range(send_count):
            ctx.send(ctx.pid, Ping("self", payload=i))
        heard = 0

        def got_enough(mailbox):
            nonlocal heard
            heard = len(mailbox.stream("self"))
            return heard if heard >= want else None

        return (yield Wait(got_enough))

    return protocol


class TestExhaustedReporting:
    def test_stop_on_final_permitted_delivery_is_not_exhausted(self):
        # 3 messages in flight, stop condition true after delivery 2 ==
        # max_deliveries: the run terminated normally, with budget spent
        # but not exceeded.
        sim = make_sim(max_deliveries=2, stop_condition=lambda s: 0 in s.finished)
        sim.set_protocol_all(_self_talker(send_count=3, want=2))
        sim.run()
        assert sim.deliveries == 2
        assert sim.stopped_by_condition
        assert not sim.exhausted
        assert not sim.deadlocked

    def test_budget_ran_out_without_stop_is_exhausted(self):
        sim = make_sim(max_deliveries=2, stop_condition=lambda s: 0 in s.finished)
        sim.set_protocol_all(_self_talker(send_count=3, want=3))
        sim.run()
        assert sim.deliveries == 2
        assert sim.exhausted
        assert not sim.stopped_by_condition

    def test_natural_drain_below_budget_unchanged(self):
        sim = make_sim(max_deliveries=10)
        sim.set_protocol_all(_self_talker(send_count=2, want=2))
        sim.run()
        assert sim.deliveries == 2
        assert not sim.exhausted


def _two_instance_protocol(ctx):
    """Send two pings to instance 'noise' then one to 'signal'; wait
    subscribed to 'signal' only."""
    ctx.send(ctx.pid, Ping("noise", payload=0))
    ctx.send(ctx.pid, Ping("noise", payload=1))
    ctx.send(ctx.pid, Ping("signal", payload=2))

    def got_signal(mailbox):
        stream = mailbox.stream("signal")
        return stream[0][1].payload if len(stream) else None

    return (yield Wait(got_signal, instances={"signal"}))


class TestKeyedWakeups:
    def test_unsubscribed_deliveries_are_skipped(self):
        sim = make_sim(scheduler=FIFOScheduler())
        sim.set_protocol_all(_two_instance_protocol)
        sim.run()
        assert sim.returns[0] == 2
        assert sim.metrics.wait_skips == 2
        assert sim.metrics.wait_evaluations == 1

    def test_eager_flag_restores_per_delivery_evaluation(self):
        """The reference strips the subscription: every delivery evaluates."""
        sim = make_sim(scheduler=FIFOScheduler())
        sim.set_protocol_all(unsubscribed(_two_instance_protocol))
        sim.run()
        assert sim.returns[0] == 2
        assert sim.metrics.wait_skips == 0
        assert sim.metrics.wait_evaluations == 3

    def test_unsubscribed_wait_evaluates_eagerly(self):
        def protocol(ctx):
            ctx.send(ctx.pid, Ping("noise"))
            ctx.send(ctx.pid, Ping("signal"))
            seen = {"count": 0}

            def condition(mailbox):
                seen["count"] += 1
                return seen["count"] if len(mailbox.stream("signal")) else None

            return (yield Wait(condition))  # no subscription

        sim = make_sim(scheduler=FIFOScheduler())
        sim.set_protocol_all(protocol)
        sim.run()
        assert sim.metrics.wait_skips == 0
        assert sim.metrics.wait_evaluations == 2

    def test_wait_instances_normalised_to_frozenset(self):
        wait = Wait(lambda mailbox: None, instances=["a", "b", "a"])
        assert wait.instances == frozenset({"a", "b"})
        assert Wait(lambda mailbox: None).instances is None
