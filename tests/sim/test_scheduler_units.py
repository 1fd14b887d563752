"""Pure-unit scheduler tests (no simulation kernel)."""

from __future__ import annotations

import random

import pytest

from repro.sim.adversary import (
    Adversary,
    PartitionScheduler,
    ReplayScheduler,
    Scheduler,
    ScriptedScheduler,
)
from repro.sim.byzantine import SilentBehavior
from repro.sim.messages import EnvelopeView


def view(seq, sender, dest, kind="Msg"):
    return EnvelopeView(
        seq=seq, sender=sender, dest=dest, instance="i", kind=kind, depth=1
    )


class FakePool:
    """seq_at/len for the index schedulers; view, over ``links`` (seq ->
    (sender, dest)), for the replay scheduler."""

    def __init__(self, seqs, links=None):
        self.seqs = list(seqs)
        self.links = links or {}

    def __len__(self):
        return len(self.seqs)

    def seq_at(self, index):
        return self.seqs[index]

    def view(self, seq):
        return view(seq, *self.links[seq])


class TestPartitionMerge:
    LINKS = {10: (0, 1), 11: (1, 2)}  # seq 10 crosses the cut, 11 does not

    def test_cross_bucket_merges_at_heal(self):
        scheduler = PartitionScheduler({0}, heal_after=2, rng=random.Random(1))
        scheduler.on_submit(10, 12, FakePool([10, 11], links=self.LINKS))
        assert len(scheduler._cross) == 1
        scheduler.on_delivered(11)
        scheduler.on_delivered(99)
        assert scheduler.healed
        # First post-heal choice triggers the merge; the cross message is
        # now eligible from the common pool.
        chosen = scheduler.choose(FakePool([10]))
        assert chosen == 10
        assert len(scheduler._cross) == 0

    def test_pre_heal_prefers_intra(self):
        scheduler = PartitionScheduler({0}, heal_after=10**9, rng=random.Random(2))
        scheduler.on_submit(10, 12, FakePool([10, 11], links=self.LINKS))
        assert scheduler.choose(FakePool([10, 11])) == 11

    def test_drained_side_releases_cross(self):
        scheduler = PartitionScheduler({0}, heal_after=10**9, rng=random.Random(3))
        scheduler.on_submit(10, 11, FakePool([10], links=self.LINKS))  # cross only
        assert scheduler.choose(FakePool([10])) == 10


class TestScriptedScheduler:
    def test_choices_index_modulo_pool(self):
        scheduler = ScriptedScheduler([0, 5, 1])
        pool = FakePool([100, 200, 300])
        assert scheduler.choose(pool) == 100   # 0 % 3
        assert scheduler.choose(pool) == 300   # 5 % 3
        assert scheduler.choose(pool) == 200   # 1 % 3

    def test_exhausted_script_falls_back_to_first(self):
        scheduler = ScriptedScheduler([])
        assert scheduler.choose(FakePool([42, 43])) == 42


class TestReplaySchedulerUnits:
    def test_delivers_the_recorded_seqs_in_order(self):
        """Two copies on one link go in the recorded order, FIFO or not."""
        scheduler = ReplayScheduler([(11, 0, 1), (10, 0, 1)])
        pool = FakePool([10, 11], links={10: (0, 1), 11: (0, 1)})
        assert scheduler.choose(pool) == 11
        assert scheduler.choose(pool) == 10

    def test_missing_link_raises(self):
        """A seq in flight on another link names both links."""
        scheduler = ReplayScheduler([(10, 3, 4)])
        with pytest.raises(
            RuntimeError,
            match=r"replay step 0 expects seq 10 on link \(3, 4\), but it is in "
                  r"flight on link \(0, 1\); the run diverged",
        ):
            scheduler.choose(FakePool([10], links={10: (0, 1)}))

    def test_exhausted_schedule_raises(self):
        scheduler = ReplayScheduler([])
        with pytest.raises(RuntimeError, match="exhausted"):
            scheduler.choose(FakePool([10], links={10: (0, 1)}))

    def test_keeps_a_cursor_and_nothing_else(self):
        """No submission hook, so the kernel calls no scheduler code when
        a replayed run sends, and asks the pool only about the seq due."""
        scheduler = ReplayScheduler([(10, 0, 1)])
        assert set(vars(scheduler)) == {"_schedule", "_position"}
        for hook in ("on_submit", "on_delivered", "drain"):
            assert getattr(ReplayScheduler, hook) is getattr(Scheduler, hook), hook


class TestAdversaryDefaults:
    def test_default_behavior_is_silent(self):
        adversary = Adversary()
        assert isinstance(adversary.behavior_factory(3), SilentBehavior)

    def test_default_corruption_is_none(self):
        adversary = Adversary()
        assert adversary.corruption.initial_corruptions(10, 3) == set()
