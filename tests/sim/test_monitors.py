"""Conformance monitors: paper-property checking on live runs.

Two layers of coverage (that a monitored run is byte-identical to a bare
one is ``test_observers.py``'s):

* clean seed scenarios pass every monitor (and accumulate sensible
  cross-run statistics);
* deliberately broken protocols (a two-decision split, an un-proposed
  decision, fabricated record logs) actually trip the right monitor,
  with ViolationReports naming the offending processes and events.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from types import SimpleNamespace

from repro.experiments.protocols import make_runner
from repro.experiments.store import to_jsonable
from repro.sim.byzantine import ScriptedBehavior
from repro.sim.messages import Message
from repro.sim.metrics import MetricsRecorder, ProtocolRecord
from repro.sim.monitors import (
    ApproverMonitor,
    CoinMonitor,
    CommitteeMonitor,
    MonitorSuite,
    default_monitors,
)
from repro.sim.adversary import Adversary, RandomScheduler, StaticCorruption
from repro.sim.process import Wait
from repro.sim.runner import (
    run_protocol,
    stop_when_all_decided,
    stop_when_all_returned,
)


def monitored_ba(suite, n=16, seed=5):
    factory, params, f = make_runner("whp_ba", n, seed=seed)
    result = run_protocol(
        n, f, factory, corrupt=set(range(f)), params=params,
        stop_condition=stop_when_all_decided, seed=seed,
        observers=[suite],
    )
    return result


class TestCleanRun:
    def test_seed_scenario_passes_every_monitor(self):
        suite = MonitorSuite()
        assert len(suite.monitors) == len(default_monitors()) == 4
        result = monitored_ba(suite)
        assert result.all_correct_decided
        assert suite.ok
        assert suite.violations == []
        report = suite.report()
        assert report["runs"] == 1
        assert report["safety_violations"] == 0
        assert report["monitors"]["safety"]["decisions_checked"] == len(
            result.correct_pids
        )
        assert report["monitors"]["committee"]["committees_checked"] > 0
        assert report["monitors"]["coin"]["variants"]["whp"]["trials"] > 0
        assert report["monitors"]["approver"]["instances_checked"] > 0
        # Every committee property carries its Chernoff bound for context.
        for prop in ("S1", "S2", "S3", "S4"):
            stats = report["monitors"]["committee"]["properties"][prop]
            assert stats["trials"] > 0
            assert stats["chernoff_bound"] is not None
            assert stats["conformant"]

    def test_report_is_json_serializable(self):
        suite = MonitorSuite()
        monitored_ba(suite)
        json.dumps(to_jsonable(suite.report()))

    def test_suite_accumulates_across_runs(self):
        suite = MonitorSuite()
        monitored_ba(suite, seed=5)
        trials_one = suite.report()["monitors"]["coin"]["variants"]["whp"]["trials"]
        monitored_ba(suite, seed=6)
        report = suite.report()
        assert report["runs"] == 2
        assert report["monitors"]["coin"]["variants"]["whp"]["trials"] > trials_one
        assert report["monitors"]["safety"]["decisions_checked"] >= 2 * 15


# -- deliberately broken protocols --------------------------------------------


@dataclass
class Nudge(Message):
    payload: int = 0


def split_decider(ctx):
    """Broken BA: decides pid parity after hearing one Byzantine nudge."""
    first = yield Wait(
        lambda mailbox: mailbox.stream("nudge")[0]
        if mailbox.stream("nudge")
        else None
    )
    ctx.decide(ctx.pid % 2)
    return ctx.decision


class TestSafetyMonitorFires:
    """Satellite: the two-decision Byzantine scenario trips Agreement."""

    def run_split(self, suite, on_violation=None):
        n, f, byzantine = 4, 1, 3
        adversary = Adversary(
            scheduler=RandomScheduler(random.Random(11)),
            corruption=StaticCorruption({byzantine}),
            behavior_factory=lambda pid: ScriptedBehavior(
                on_start=lambda ctx: ctx.broadcast(Nudge("nudge"))
            ),
        )
        return run_protocol(
            n, f, split_decider, adversary=adversary, seed=11,
            stop_condition=stop_when_all_decided, observers=[suite],
        )

    def test_two_decisions_flagged_with_offenders_and_evidence(self):
        fired = []
        suite = MonitorSuite(on_violation=fired.append)
        result = self.run_split(suite)
        assert not result.agreement  # the protocol really is broken
        assert not suite.ok

        violation = suite.safety_violations[0]
        assert violation.monitor == "safety"
        assert violation.prop == "Agreement"
        assert violation.severity == "safety"
        # Names the two offending (correct) processes...
        assert len(violation.pids) == 2
        decided = {pid: result.decisions[pid] for pid in violation.pids}
        assert len(set(decided.values())) == 2
        assert all(pid not in result.corrupted for pid in violation.pids)
        # ...embeds their decide events...
        kinds = [event["k"] for event in violation.events]
        assert kinds == ["decide", "decide"]
        assert {event["pid"] for event in violation.events} == set(violation.pids)
        # ...and the causal critical-path slice explaining the decision.
        assert violation.critical_slice
        assert violation.critical_slice[-1]["kind"] == "decide"
        assert any(
            entry["kind"] == "deliver" for entry in violation.critical_slice
        )
        # The live callback fired during the run, not just at finalize.
        assert fired and fired[0].prop == "Agreement"
        # describe() is the one-liner `repro check` prints.
        assert "Agreement" in violation.describe()
        assert f"pids={list(violation.pids)}" in violation.describe()

    def test_violation_report_round_trips_to_json(self):
        suite = MonitorSuite()
        self.run_split(suite)
        payload = json.dumps(to_jsonable(suite.report()))
        assert "Agreement" in payload


def validity_breaker(ctx):
    """Annotates an honest proposal of 0, then decides 1 anyway."""
    ctx.annotate("propose", tag="ba", value=repr(0))
    ctx.decide(1)
    return ctx.decision
    yield  # pragma: no cover - makes this a generator


class TestValidityMonitor:
    def test_unproposed_decision_flagged(self):
        suite = MonitorSuite()
        run_protocol(
            3, 0, validity_breaker, seed=2,
            stop_condition=stop_when_all_returned, observers=[suite],
        )
        violations = [v for v in suite.safety_violations if v.prop == "Validity"]
        assert len(violations) == 3  # every correct process decided 1
        assert violations[0].severity == "safety"
        assert "no correct process proposed" in violations[0].message
        assert suite.report()["monitors"]["safety"]["validity_violations"] == 3


# -- monitor unit tests on fabricated runs ------------------------------------


def record(kind, pid, step=0, **data):
    return ProtocolRecord(
        step=step, pid=pid, kind=kind, keys=tuple(data), values=tuple(data.values())
    )


def stub_run(records, corrupted=(), params=None, pki=None, deliveries=100):
    metrics = MetricsRecorder()
    metrics.protocol_records.extend(records)
    result = SimpleNamespace(
        metrics=metrics, corrupted=frozenset(corrupted), deliveries=deliveries
    )
    simulation = SimpleNamespace(params=params, pki=pki)
    return result, simulation


class TestCoinMonitorUnit:
    def test_disagreement_flagged_and_counted(self):
        monitor = CoinMonitor()
        monitor.begin_run()
        result, simulation = stub_run(
            [
                record("coin", 0, instance=("c", 0), variant="whp", outcome=1),
                record("coin", 1, instance=("c", 0), variant="whp", outcome=0),
                record("coin", 0, instance=("c", 1), variant="whp", outcome=1),
                record("coin", 1, instance=("c", 1), variant="whp", outcome=1),
                record("coin", 2, instance=("c", 1), variant="whp", outcome=0),
            ],
            corrupted={2},  # pid 2's dissent must not count
        )
        monitor.finalize(result, simulation, [])
        assert monitor.trials["whp"] == 2
        assert monitor.successes["whp"] == 1
        assert len(monitor.violations) == 1
        violation = monitor.violations[0]
        assert violation.prop == "coin-agreement"
        assert violation.severity == "whp"
        assert violation.instance == ("c", 0)
        assert set(violation.pids) == {0, 1}


class TestApproverMonitorUnit:
    def test_graded_agreement_and_validity(self):
        monitor = ApproverMonitor()
        monitor.begin_run()
        result, simulation = stub_run(
            [
                record("approve", 0, instance="a", grade=1, values=["'0'"],
                       input="'0'"),
                record("approve", 1, instance="a", grade=1, values=["'1'"],
                       input="'1'"),
                record("approve", 0, instance="b", grade=2,
                       values=["'0'", "'7'"], input="'0'"),
                record("approve", 1, instance="b", grade=2,
                       values=["'0'", "'7'"], input="'0'"),
            ]
        )
        monitor.finalize(result, simulation, [])
        props = {v.prop for v in monitor.violations}
        # instance "a": two contradicting singletons -> Graded Agreement.
        assert "Graded-Agreement" in props
        # instance "b": '7' was nobody's input -> approver Validity.
        assert "Validity" in props
        assert monitor.ga_violations == 1
        assert monitor.validity_violations == 2
        assert all(v.severity == "whp" for v in monitor.violations)

    def test_empty_return_set_is_safety(self):
        monitor = ApproverMonitor()
        monitor.begin_run()
        result, simulation = stub_run(
            [record("approve", 0, instance="a", grade=0, values=[])]
        )
        monitor.finalize(result, simulation, [])
        assert monitor.violations[0].prop == "Termination"
        assert monitor.violations[0].severity == "safety"


class TestCommitteeMonitorUnit:
    def make_params(self, small_pki):
        from repro.core.params import ProtocolParams

        return ProtocolParams(n=small_pki.n, f=0, lam=6.0, d=0.05)

    def test_census_violations_flagged(self, small_pki):
        params = self.make_params(small_pki)
        # Deterministic fake census: the ground truth is {0, 1}, so with
        # lam=6, d=0.05 the size bound S2 (>= 5.7) must fire.
        monitor = CommitteeMonitor(census=lambda pki, i, r, p: {0, 1})
        monitor.begin_run()
        result, simulation = stub_run(
            [
                record("sampled", 0, instance="x", role="init", member=True),
                record("sampled", 1, instance="x", role="init", member=True),
            ],
            params=params,
            pki=small_pki,
        )
        monitor.finalize(result, simulation, [])
        assert monitor.trials["S2"] == 1
        assert monitor.failures["S2"] == 1
        flagged = {v.prop for v in monitor.violations}
        assert "S2" in flagged
        assert all(
            v.severity == "whp" for v in monitor.violations if v.prop == "S2"
        )

    def test_membership_lie_is_safety(self, small_pki):
        params = self.make_params(small_pki)
        monitor = CommitteeMonitor(census=lambda pki, i, r, p: {0, 1})
        monitor.begin_run()
        result, simulation = stub_run(
            # pid 5 claims membership; the VRF ground truth excludes it.
            [record("sampled", 5, instance="x", role="init", member=True)],
            params=params,
            pki=small_pki,
        )
        monitor.finalize(result, simulation, [])
        lies = [v for v in monitor.violations if v.prop == "sample-consistency"]
        assert len(lies) == 1
        assert lies[0].severity == "safety"
        assert lies[0].pids == (5,)

    def test_real_census_matches_self_reports(self):
        """On a real run the VRF ground truth never contradicts correct
        processes' sampled records (uniqueness)."""
        suite = MonitorSuite(monitors=[CommitteeMonitor()])
        monitored_ba(n=16, seed=3, suite=suite)
        assert not [
            v for v in suite.violations if v.prop == "sample-consistency"
        ]

    def test_run_without_committee_params_is_skipped(self):
        monitor = CommitteeMonitor()
        monitor.begin_run()
        result, simulation = stub_run([], params=None, pki=None)
        monitor.finalize(result, simulation, [])
        assert monitor.skipped_runs == 1
        assert monitor.violations == []
