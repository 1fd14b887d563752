"""Mailbox semantics: per-instance streams, appended to until retired."""

from __future__ import annotations

import random

import pytest

from repro.crypto.pki import PKI
from repro.sim import mailbox as mailbox_module
from repro.sim.adversary import Adversary, RandomScheduler
from repro.sim.mailbox import Mailbox
from repro.sim.messages import Message
from repro.sim.network import Simulation
from repro.sim.process import Wait

from tests.kernel_reference import dispatched


def msg(instance):
    return Message(instance=instance)


class TestMailbox:
    def test_streams_are_per_instance(self):
        box = Mailbox()
        box.add(1, msg("a"))
        box.add(2, msg("b"))
        box.add(3, msg("a"))
        assert [sender for sender, _ in box.stream("a")] == [1, 3]
        assert [sender for sender, _ in box.stream("b")] == [2]

    def test_stream_is_append_only_view(self):
        box = Mailbox()
        stream = box.stream("a")
        assert stream == []
        box.add(1, msg("a"))
        assert len(stream) == 1  # same list object grows in place

    def test_unknown_instance_is_empty(self):
        box = Mailbox()
        assert box.stream("never") == []
        assert len(box.stream("never")) == 0

    def test_total_delivered(self):
        box = Mailbox()
        for i in range(5):
            box.add(i, msg(i % 2))
        assert sum(len(box.stream(i)) for i in box.instances()) == 5
        assert len(box.stream(0)) == 3
        assert len(box.stream(1)) == 2

    def test_tuple_instances(self):
        box = Mailbox()
        box.add(0, msg(("ba", 1, "est")))
        assert len(box.stream(("ba", 1, "est"))) == 1
        assert len(box.stream(("ba", 1, "prop"))) == 0

    def test_instances_iteration(self):
        box = Mailbox()
        box.add(0, msg("x"))
        box.add(0, msg("y"))
        assert set(box.instances()) == {"x", "y"}


class TestRetire:
    def test_the_stream_is_gone_and_late_deliveries_are_dropped(self):
        box = Mailbox()
        box.add(1, msg("a"))
        box.add(2, msg("b"))
        box.retire("a")
        box.add(3, msg("a"))
        box.add(4, msg("a"))
        assert box._by_instance["a"] is mailbox_module._RETIRED
        assert len(mailbox_module._RETIRED) == 0
        assert [sender for sender, _ in box.stream("b")] == [2]

    def test_reading_a_retired_instance_raises_naming_it(self):
        box = Mailbox()
        box.add(1, msg(("ba", 0, "est")))
        box.retire(("ba", 0, "est"))
        with pytest.raises(RuntimeError, match=r"\('ba', 0, 'est'\) was retired"):
            box.stream(("ba", 0, "est"))

    def test_every_mailbox_shares_one_sink(self):
        first, second = Mailbox(), Mailbox()
        first.add(0, msg("x"))
        first.retire("x")
        second.retire("y")
        assert first._by_instance["x"] is second._by_instance["y"]
        assert first._by_instance["x"] is mailbox_module._RETIRED

    def test_retiring_a_silent_instance_or_twice_is_harmless(self):
        box = Mailbox()
        box.retire("never")
        box.retire("never")
        box.add(1, msg("never"))
        box.retire("never")
        assert box._by_instance["never"] is mailbox_module._RETIRED
        assert len(mailbox_module._RETIRED) == 0
        with pytest.raises(RuntimeError):
            box.stream("never")

    @pytest.mark.parametrize("mode", ["batched", "classic"])
    def test_kernel_counts_late_deliveries_on_both_loops(self, mode):
        """The kernel delivers (and counts) a retired instance's late
        copies and buffers none, under either dispatch (``classic``: one
        ``choose`` per delivery, through ``OneChoose``)."""
        n = 5

        def late_reader(ctx):
            ctx.broadcast(msg("x"))
            yield Wait(lambda box: len(box.stream("x")) or None, instances={"x"})
            ctx.notes["at_retire"] = len(ctx.mailbox.stream("x"))
            ctx.retire("x")
            return n

        sim = Simulation(
            n=n, f=0, pki=PKI.create(n, rng=random.Random(0)),
            adversary=Adversary(
                scheduler=dispatched(RandomScheduler(random.Random(4)), mode)
            ),
        )
        sim.set_protocol_all(late_reader)
        sim.run()
        assert sim.returns == {pid: n for pid in range(n)}
        assert any(sim.contexts[pid].notes["at_retire"] < n for pid in range(n))
        assert sim.metrics.messages_delivered == n * n
        for pid in range(n):
            box = sim.contexts[pid].mailbox
            assert box._by_instance["x"] is mailbox_module._RETIRED
        assert len(mailbox_module._RETIRED) == 0
