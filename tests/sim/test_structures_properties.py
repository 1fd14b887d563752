"""Property-based tests for the simulator's core data structures."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.sim.adversary import _IndexedSet
from repro.sim.mailbox import Mailbox
from repro.sim.messages import Message


class IndexedSetMachine(RuleBasedStateMachine):
    """_IndexedSet must behave exactly like a built-in set, plus choose()."""

    def __init__(self):
        super().__init__()
        self.indexed = _IndexedSet()
        self.model: set[int] = set()

    @rule(item=st.integers(0, 50))
    def add(self, item):
        self.indexed.add(item)
        self.model.add(item)

    @rule(item=st.integers(0, 50))
    def discard(self, item):
        self.indexed.discard(item)
        self.model.discard(item)

    @rule(seed=st.integers(0, 1000))
    def choose_is_member(self, seed):
        if self.model:
            assert self.indexed.choose(random.Random(seed)) in self.model

    @invariant()
    def sizes_match(self):
        assert len(self.indexed) == len(self.model)

    @invariant()
    def membership_matches(self):
        for item in range(0, 51, 7):
            assert (item in self.indexed) == (item in self.model)


TestIndexedSetStateful = IndexedSetMachine.TestCase


class TestMailboxProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3)),  # (sender, instance)
            max_size=60,
        )
    )
    @settings(max_examples=40)
    def test_streams_partition_deliveries(self, deliveries):
        box = Mailbox()
        for sender, instance in deliveries:
            box.add(sender, Message(instance=instance))
        assert sum(len(box.stream(i)) for i in range(4)) == len(deliveries)
        # Per-instance order preserves global order restricted to instance.
        for instance in range(4):
            expected = [s for s, i in deliveries if i == instance]
            assert [s for s, _ in box.stream(instance)] == expected
