"""run_protocol wiring and RunResult semantics."""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass

import pytest

from repro.crypto.pki import PKI
from repro.sim.adversary import Adversary, RandomScheduler
from repro.sim.messages import Message
from repro.sim.network import Simulation
from repro.sim.process import Wait
from repro.sim.runner import (
    RunResult,
    run_protocol,
    stop_when_all_decided,
    stop_when_all_returned,
)


@dataclass
class Beat(Message):
    def words(self) -> int:
        return 2


def heartbeat(ctx):
    """Broadcast once, wait to hear from a majority, decide, return pid."""
    ctx.broadcast(Beat("hb"))
    senders = set()
    cursor = 0

    def majority(mailbox):
        nonlocal cursor
        stream = mailbox.stream("hb")
        while cursor < len(stream):
            senders.add(stream[cursor][0])
            cursor += 1
        if len(senders) > ctx.n // 2:
            return len(senders)
        return None

    count = yield Wait(majority)
    ctx.decide("beat")
    return (ctx.pid, count)


class _Watcher:
    """A minimal observer: the three protocol methods, nothing else."""

    def __init__(self):
        self.calls = []

    def begin_run(self):
        self.calls.append("begin_run")

    def on_event(self, event):
        self.calls.append("event")

    def finalize(self, result, simulation):
        self.calls.append(("finalize", result))


class TestRunProtocol:
    def test_basic_run(self):
        result = run_protocol(5, 0, heartbeat, seed=1)
        assert result.live
        assert result.all_correct_decided
        assert result.agreement
        assert result.decided_values == {"beat"}
        assert {pid for pid, _ in result.returns.values()} == set(range(5))

    def test_corrupt_set_applied(self):
        result = run_protocol(6, 2, heartbeat, corrupt={4, 5}, seed=1)
        assert result.corrupted == frozenset({4, 5})
        assert result.correct_pids == [0, 1, 2, 3]
        assert result.all_correct_decided

    def test_surface_is_pinned(self):
        """The next keyword on ``run_protocol`` is a deliberate diff here."""
        assert list(inspect.signature(run_protocol).parameters) == [
            "n", "f", "protocol",
            "adversary", "corrupt", "seed", "pki", "backend", "params",
            "stop_condition", "max_deliveries",
            "profile", "lossy", "observers",
        ]

    def test_simulation_surface_is_pinned(self):
        """No reference switches: the equivalence tests build their
        references outside the kernel (``tests/kernel_reference.py``), so
        the next keyword here is a deliberate diff."""
        assert list(inspect.signature(Simulation.__init__).parameters) == [
            "self", "n", "f", "pki", "adversary", "seed", "params",
            "max_deliveries", "stop_condition", "profile", "lossy",
        ]

    def test_adversary_and_corrupt_conflict(self):
        with pytest.raises(ValueError):
            run_protocol(3, 1, heartbeat, adversary=Adversary(), corrupt={0})

    def test_bad_arguments_rejected_before_key_generation(self, monkeypatch):
        def no_keygen(*args, **kwargs):
            raise AssertionError("generated keys for a run that cannot start")

        monkeypatch.setattr(PKI, "create", no_keygen)
        with pytest.raises(ValueError, match="not both"):
            run_protocol(3, 1, heartbeat, adversary=Adversary(), corrupt={0})
        seen = []
        with pytest.raises(TypeError, match=r"observers\[1\] \(builtin_function_or_method\)"):
            run_protocol(3, 0, heartbeat, observers=[_Watcher(), seen.append])

    def test_observer_lifecycle(self):
        """begin_run, then every event, then finalize with the result."""
        watcher = _Watcher()
        result = run_protocol(5, 0, heartbeat, seed=1, observers=[watcher])
        assert watcher.calls[0] == "begin_run"
        assert watcher.calls[-1] == ("finalize", result)
        assert watcher.calls.count("event") == len(watcher.calls) - 2 > result.deliveries

    def test_per_pid_protocol_override(self):
        def zero_decider(ctx):
            ctx.broadcast(Beat("hb"))
            ctx.decide("special")
            return ("special", 0)
            yield

        sim = Simulation(
            4, 0, PKI.create(4, rng=random.Random(2)),
            Adversary(RandomScheduler(random.Random(2))), seed=2,
            stop_condition=stop_when_all_returned,
        )
        sim.set_protocol_all(heartbeat)
        sim.set_protocol(0, zero_decider)
        result = RunResult.of(sim.run())
        assert result.decisions[0] == "special"
        assert result.decisions[1] == "beat"
        assert not result.agreement  # two distinct decided values

    def test_seed_reproducibility(self):
        a = run_protocol(5, 0, heartbeat, seed=9)
        b = run_protocol(5, 0, heartbeat, seed=9)
        assert a.returns == b.returns
        assert a.deliveries == b.deliveries
        assert a.words == b.words

    def test_stop_when_all_decided(self):
        def decide_then_loop(ctx):
            ctx.broadcast(Beat("hb"))
            yield Wait(lambda mailbox: True if len(mailbox.stream("hb")) else None)
            ctx.decide(1)
            yield Wait(lambda mailbox: None)  # would deadlock without stop

        result = run_protocol(
            3, 0, decide_then_loop, stop_condition=stop_when_all_decided, seed=3
        )
        assert result.stopped_by_condition
        assert not result.deadlocked
        assert result.all_correct_decided


class TestRunResultProperties:
    def test_word_accounting(self):
        result = run_protocol(4, 1, heartbeat, corrupt={3}, seed=4)
        # 3 correct processes broadcast one 2-word Beat to 4 destinations.
        assert result.words == 3 * 4 * 2
        assert result.metrics.words_by_kind["Beat"] == result.words

    def test_duration_positive(self):
        result = run_protocol(4, 0, heartbeat, seed=5)
        assert result.duration >= 1

    def test_returned_values_excludes_corrupted(self):
        result = run_protocol(5, 2, heartbeat, corrupt={0, 1}, seed=6)
        pids = {pid for pid, _ in result.returned_values}
        assert pids == {2, 3, 4}

    def test_agreement_vacuous_when_no_decisions(self):
        def silent(ctx):
            return None
            yield

        result = run_protocol(3, 0, silent, seed=7)
        assert result.agreement
        assert not result.all_correct_decided
