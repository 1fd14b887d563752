"""Tracing a run: ordering facts the aggregate metrics cannot express,
read off a :class:`~repro.sim.flightrecorder.FlightRecorder`'s event log."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.crypto.pki import PKI
from repro.sim.adversary import Adversary, RandomScheduler, StaticCorruption
from repro.sim.events import PayloadSummary
from repro.sim.flightrecorder import FlightRecorder
from repro.sim.network import Simulation


def coin_simulation(n=10, f=2, seed=3):
    pki = PKI.create(n, rng=random.Random(seed))
    sim = Simulation(
        n=n, f=f, pki=pki,
        adversary=Adversary(
            scheduler=RandomScheduler(random.Random(seed)),
            corruption=StaticCorruption(set(range(f))),
        ),
        seed=seed, params=ProtocolParams(n=n, f=f),
    )
    sim.set_protocol_all(lambda ctx: shared_coin(ctx, 0))
    return sim


def run_traced_coin():
    sim = coin_simulation()
    trace = sim.events.attach(FlightRecorder())
    sim.run()
    return sim, trace


class TestAttachedTrace:
    def test_counts_match_metrics(self):
        sim, trace = run_traced_coin()
        assert len(trace.of_kind("send")) == sim.metrics.messages_sent_total
        assert len(trace.of_kind("deliver")) == sim.metrics.messages_delivered

    def test_corruptions_recorded(self):
        sim, trace = run_traced_coin()
        corrupted = {event.pid for event in trace.of_kind("corrupt")}
        assert corrupted == sim.corrupted == {0, 1}

    def test_second_sent_after_first_quorum(self):
        """Protocol-order fact: every correct process's SECOND broadcast
        happens only after it delivered n-f FIRST messages."""
        sim, trace = run_traced_coin()
        quorum = sim.n - sim.f
        delivers = trace.of_kind("deliver")
        for pid in sim.correct_pids:
            second_sends = trace.sends_by(pid, "SecondMsg")
            assert second_sends  # every correct process reaches phase 2
            assert len(trace.sends_by(pid)) > len(second_sends)
            first_send_step = second_sends[0].step
            firsts_before = [
                event
                for event in delivers
                if event.dest == pid
                and event.message_kind == "FirstMsg"
                and event.step <= first_send_step
            ]
            assert len(firsts_before) >= quorum

    def test_send_events_carry_instance(self):
        _, trace = run_traced_coin()
        sends = trace.of_kind("send")
        assert all(event.instance == ("shared_coin", 0) for event in sends)

    def test_attach_is_idempotent(self):
        """Attaching twice must not double-record every event."""
        sim = coin_simulation()
        trace = FlightRecorder()
        assert sim.events.attach(trace) is trace
        sim.events.attach(trace)
        sim.run()
        assert len(trace.of_kind("deliver")) == sim.metrics.messages_delivered

    def test_deliver_detail_is_immutable_summary(self):
        """The log keeps a snapshot of the payload, never the live object."""
        _, trace = run_traced_coin()
        deliver = trace.of_kind("deliver")[0]
        assert deliver.payload is None
        summary = deliver.summary
        assert isinstance(summary, PayloadSummary)
        assert summary.kind == deliver.message_kind
        assert summary.instance == deliver.instance
        assert summary.words > 0
        assert summary.kind in summary.text
        with pytest.raises(dataclasses.FrozenInstanceError):
            summary.words = 0
