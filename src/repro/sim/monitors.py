"""Online conformance monitors: the paper's properties, checked on live runs.

Every guarantee the paper states is statistical or whp -- the coin
success rate rho (Lemma B.7), the committee properties S1-S4 with
W = ceil((2/3+3d) lambda) and B = floor((1/3-d) lambda) (Claim 1), the
approver's Graded Agreement (Definition 6.1) and BA's Agreement/Validity.
This module checks them *while runs execute* instead of leaving them to
whichever experiment script happens to aggregate the right numbers.

A :class:`MonitorSuite` is an event-bus subscriber plus a set of
:class:`Monitor` objects.  Attach it with
``run_protocol(..., observers=[suite])``: the suite sees every kernel event
online (cheap bookkeeping only -- no crypto, so a monitored run stays
byte-identical to a bare run) and, once the run is snapshotted, each
monitor's :meth:`~Monitor.finalize` performs the authoritative pass over
the run's protocol records and the trusted ground truth (committee
censuses via the PKI -- safe post-run, the verification counters are
already snapshotted).  A failed invariant becomes a structured
:class:`ViolationReport` embedding the offending events and the causal
critical-path slice from the flight-recorder log, so a violation arrives
with its explaining event chain.

Severities separate hard failures from expected whp mass:

* ``"safety"`` -- must never happen: two correct processes deciding
  different values, a decision on a never-proposed value, a committee
  membership claim contradicting the VRF ground truth.
* ``"whp"`` -- allowed with the paper's bounded probability: an S1-S4
  committee excursion, a coin invocation without unanimity, a Graded
  Agreement miss.  These are *flagged* per run and *aggregated* across
  runs (a suite may be reused across seeds); :meth:`MonitorSuite.report`
  compares the observed rates' Wilson intervals against the closed-form
  bounds of :mod:`repro.analysis.bounds`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

from repro.sim.events import (
    CorruptEvent,
    DecideEvent,
    KernelEvent,
    event_to_record,
)
from repro.sim.flightrecorder import critical_path

if TYPE_CHECKING:
    from repro.sim.network import Simulation
    from repro.sim.runner import RunResult

__all__ = [
    "ApproverMonitor",
    "CoinMonitor",
    "CommitteeMonitor",
    "Monitor",
    "MonitorSuite",
    "SafetyMonitor",
    "SEVERITY_SAFETY",
    "SEVERITY_WHP",
    "ViolationReport",
    "default_monitors",
]

SEVERITY_SAFETY = "safety"
SEVERITY_WHP = "whp"


@dataclass(frozen=True)
class ViolationReport:
    """One checked property that did not hold, with its evidence.

    ``events`` are the offending event/record dicts (already
    JSON-friendly); ``critical_slice`` is the causal chain the flight
    recorder extracts up to the violation, so the report explains *how*
    the run got there, not just that it did.
    """

    monitor: str
    prop: str
    severity: str
    message: str
    step: int
    pids: tuple[int, ...] = ()
    instance: Any = None
    events: tuple[dict, ...] = ()
    critical_slice: tuple[dict, ...] = ()

    def describe(self) -> str:
        """The one-line rendering used by ``python -m repro check``."""
        pids = f" pids={list(self.pids)}" if self.pids else ""
        inst = f" instance={self.instance!r}" if self.instance is not None else ""
        return (
            f"[{self.severity}] {self.monitor}/{self.prop} "
            f"step {self.step}{pids}{inst}: {self.message}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "monitor": self.monitor,
            "property": self.prop,
            "severity": self.severity,
            "message": self.message,
            "step": self.step,
            "pids": list(self.pids),
            "instance": repr(self.instance) if self.instance is not None else None,
            "events": [dict(entry) for entry in self.events],
            "critical_slice": [dict(entry) for entry in self.critical_slice],
        }


class Monitor:
    """Base class: online event hook + authoritative end-of-run pass.

    ``watched`` lists the event types the suite dispatches to
    :meth:`on_event` (the empty tuple means finalize-only, keeping the
    online hot path to one dict lookup per event).  Monitors accumulate
    *across* runs when the same instance is attached to several
    ``run_protocol`` calls; :meth:`begin_run` resets per-run state only.
    """

    name = "monitor"
    watched: tuple[type, ...] = ()

    def __init__(self) -> None:
        self.violations: list[ViolationReport] = []
        self.runs = 0
        self._suite: "MonitorSuite | None" = None

    def begin_run(self) -> None:
        self.runs += 1

    def on_event(self, event: KernelEvent, events: list[KernelEvent]) -> None:
        """Online hook.  MUST stay pure bookkeeping: no crypto, no kernel
        access -- anything heavier would make observation observable."""

    def finalize(
        self, result: "RunResult", simulation: "Simulation", events: list[KernelEvent]
    ) -> None:
        """Authoritative pass after the run result is snapshotted."""

    def report(self) -> dict[str, Any]:
        """Cumulative (cross-run) conformance summary, JSON-friendly."""
        return {"runs": self.runs, "violations": len(self.violations)}

    # -- helpers ---------------------------------------------------------------

    def flag(self, violation: ViolationReport) -> ViolationReport:
        self.violations.append(violation)
        if self._suite is not None and self._suite.on_violation is not None:
            self._suite.on_violation(violation)
        return violation

    @staticmethod
    def _wilson(successes: int, trials: int):
        from repro.analysis.stats import BernoulliEstimate

        if trials <= 0:
            return None
        return BernoulliEstimate(successes=successes, trials=trials)

    @staticmethod
    def _estimate_dict(successes: int, trials: int) -> dict[str, Any]:
        estimate = Monitor._wilson(successes, trials)
        if estimate is None:
            return {"successes": successes, "trials": 0, "mean": None, "interval": None}
        return {
            "successes": successes,
            "trials": trials,
            "mean": estimate.mean,
            "interval": list(estimate.interval),
        }


class SafetyMonitor(Monitor):
    """BA safety: Agreement and Validity, checked live and re-checked final.

    * **Agreement** -- no two correct processes decide different values.
      Checked online on every :class:`DecideEvent` (a conflict fires the
      instant the second decision lands, with the causal slice to that
      decision), then rebuilt at finalize against the *final* corrupted
      set, since a process that decided while correct but was corrupted
      later does not count against the paper's property.
    * **Validity** -- every correct decision matches some correct
      process's proposal, read from the ``propose`` protocol records the
      core protocols annotate (values compared by ``repr``, the record
      log's canonical value encoding).  Vacuous when a protocol records
      no proposals (the baselines).
    """

    name = "safety"
    watched = (DecideEvent, CorruptEvent)

    def __init__(self) -> None:
        super().__init__()
        self.decisions_checked = 0
        self.agreement_violations = 0
        self.validity_violations = 0

    def begin_run(self) -> None:
        super().begin_run()
        self._decisions: dict[int, DecideEvent] = {}
        self._corrupted: set[int] = set()
        self._run_reports: list[ViolationReport] = []

    def on_event(self, event: KernelEvent, events: list[KernelEvent]) -> None:
        if type(event) is CorruptEvent:
            self._corrupted.add(event.pid)
            return
        if event.pid in self._corrupted or event.pid in self._decisions:
            return
        self._decisions[event.pid] = event
        for other_pid, other in self._decisions.items():
            if other_pid == event.pid or other_pid in self._corrupted:
                continue
            if other.value != event.value:
                self._flag_conflict(other, event, events)
                break

    def _flag_conflict(
        self, first: DecideEvent, second: DecideEvent, events: list[KernelEvent]
    ) -> ViolationReport:
        report = ViolationReport(
            monitor=self.name,
            prop="Agreement",
            severity=SEVERITY_SAFETY,
            message=(
                f"process {first.pid} decided {first.value!r} but process "
                f"{second.pid} decided {second.value!r}"
            ),
            step=second.step,
            pids=(first.pid, second.pid),
            events=(event_to_record(first), event_to_record(second)),
            critical_slice=tuple(critical_path(events, target=second)),
        )
        self._run_reports.append(report)
        return self.flag(report)

    def finalize(
        self, result: "RunResult", simulation: "Simulation", events: list[KernelEvent]
    ) -> None:
        corrupted = result.corrupted
        # Drop online reports invalidated by later corruption, then add any
        # conflict pair the pruning uncovered (both passes dedup by pid pair).
        invalid = [
            report
            for report in self._run_reports
            if any(pid in corrupted for pid in report.pids)
        ]
        for report in invalid:
            self.violations.remove(report)
            self._run_reports.remove(report)
        flagged_pairs = {frozenset(report.pids) for report in self._run_reports}
        final = {
            pid: event
            for pid, event in self._decisions.items()
            if pid not in corrupted
        }
        self.decisions_checked += len(final)
        by_value: dict[Any, DecideEvent] = {}
        for pid in sorted(final):
            event = final[pid]
            for other in by_value.values():
                pair = frozenset((other.pid, event.pid))
                if other.value != event.value and pair not in flagged_pairs:
                    flagged_pairs.add(pair)
                    self._flag_conflict(other, event, events)
            by_value.setdefault(event.value, event)
        self.agreement_violations = sum(
            1 for report in self.violations if report.prop == "Agreement"
        )

        proposals = {
            record.get("value")
            for record in result.metrics.records_of("propose")
            if record.pid not in corrupted
        }
        if not proposals:
            return
        for pid in sorted(final):
            event = final[pid]
            if repr(event.value) in proposals:
                continue
            self.validity_violations += 1
            self.flag(
                ViolationReport(
                    monitor=self.name,
                    prop="Validity",
                    severity=SEVERITY_SAFETY,
                    message=(
                        f"process {pid} decided {event.value!r}, which no "
                        f"correct process proposed (proposals: "
                        f"{sorted(proposals)})"
                    ),
                    step=event.step,
                    pids=(pid,),
                    events=(event_to_record(event),),
                    critical_slice=tuple(critical_path(events, target=event)),
                )
            )

    def report(self) -> dict[str, Any]:
        return {
            "runs": self.runs,
            "decisions_checked": self.decisions_checked,
            "agreement_violations": self.agreement_violations,
            "validity_violations": self.validity_violations,
        }


class CommitteeMonitor(Monitor):
    """Committee conformance: S1-S4 per sampled committee (Claim 1).

    Finalize-only.  The committees a run actually sampled are read from
    the ``sampled`` protocol records; each one's ground-truth membership
    comes from the trusted-setup census (``sample_committee`` -- VRF
    *proofs*, not verifications, so the run's cache counters are
    untouched).  Per committee, with lambda, d, W, B from the run's
    parameters:

    * S1: |C| <= (1+d) lambda          * S3: >= W correct members
    * S2: |C| >= (1-d) lambda          * S4: <= B Byzantine members

    Excursions are ``"whp"``-severity flags -- each is allowed with the
    Chernoff mass of Appendix A -- and the cumulative rates are compared
    against :func:`repro.analysis.bounds.committee_property_bounds` in
    :meth:`report`.  One check is hard ``"safety"``: a correct process's
    self-reported membership must match the VRF ground truth (uniqueness
    makes a mismatch a bug, not bad luck).
    """

    name = "committee"
    PROPERTIES = ("S1", "S2", "S3", "S4")

    def __init__(self, census: Callable[..., set[int]] | None = None) -> None:
        super().__init__()
        self._census = census
        self.committees_checked = 0
        self.skipped_runs = 0
        self.trials: Counter = Counter()
        self.failures: Counter = Counter()
        self._last_params = None

    def finalize(
        self, result: "RunResult", simulation: "Simulation", events: list[KernelEvent]
    ) -> None:
        params = simulation.params
        if params is None or getattr(params, "lam", None) is None:
            self.skipped_runs += 1
            return
        census = self._census
        if census is None:
            from repro.core.committees import sample_committee

            census = sample_committee
        self._last_params = params
        lam, d = params.lam, params.d
        quorum = params.committee_quorum
        byz_bound = params.committee_byzantine_bound
        corrupted = result.corrupted

        reported: dict[tuple[Hashable, Hashable], set[int]] = {}
        for record in result.metrics.records_of("sampled"):
            key = (record.get("instance"), record.get("role"))
            members = reported.setdefault(key, set())
            if record.get("member") and record.pid not in corrupted:
                members.add(record.pid)

        for (instance, role), claimed in sorted(reported.items(), key=repr):
            members = census(simulation.pki, instance, role, params)
            size = len(members)
            correct = len(members - corrupted)
            byzantine = len(members & corrupted)
            self.committees_checked += 1

            rogue = claimed - members
            if rogue:
                self.flag(
                    ViolationReport(
                        monitor=self.name,
                        prop="sample-consistency",
                        severity=SEVERITY_SAFETY,
                        message=(
                            f"processes {sorted(rogue)} reported membership in "
                            f"committee ({instance!r}, {role!r}) but the VRF "
                            "ground truth excludes them"
                        ),
                        step=result.deliveries,
                        pids=tuple(sorted(rogue)),
                        instance=(instance, role),
                    )
                )

            checks = {
                "S1": (
                    size <= (1 + d) * lam,
                    f"|C|={size} > (1+d)lambda={(1 + d) * lam:.2f}",
                ),
                "S2": (
                    size >= (1 - d) * lam,
                    f"|C|={size} < (1-d)lambda={(1 - d) * lam:.2f}",
                ),
                "S3": (
                    correct >= quorum,
                    f"{correct} correct members < W={quorum}",
                ),
                "S4": (
                    byzantine <= byz_bound,
                    f"{byzantine} Byzantine members > B={byz_bound}",
                ),
            }
            for prop, (holds, message) in checks.items():
                self.trials[prop] += 1
                if holds:
                    continue
                self.failures[prop] += 1
                self.flag(
                    ViolationReport(
                        monitor=self.name,
                        prop=prop,
                        severity=SEVERITY_WHP,
                        message=message,
                        step=result.deliveries,
                        pids=tuple(sorted(members)),
                        instance=(instance, role),
                    )
                )

    def report(self) -> dict[str, Any]:
        bounds: dict[str, float] = {}
        if self._last_params is not None:
            from repro.analysis.bounds import committee_property_bounds

            bounds = committee_property_bounds(self._last_params)
        properties: dict[str, Any] = {}
        for prop in self.PROPERTIES:
            entry = self._estimate_dict(self.failures[prop], self.trials[prop])
            bound = bounds.get(prop)
            entry["chernoff_bound"] = bound
            # Conformant while the Wilson interval cannot reject the bound
            # (bounds above 1 are trivially unrejectable).
            entry["conformant"] = (
                bound is None
                or entry["interval"] is None
                or entry["interval"][0] <= min(bound, 1.0)
            )
            properties[prop] = entry
        return {
            "runs": self.runs,
            "committees_checked": self.committees_checked,
            "skipped_runs": self.skipped_runs,
            "properties": properties,
        }


class CoinMonitor(Monitor):
    """Coin conformance: per-invocation agreement and the cumulative rho.

    Finalize-only.  Per coin invocation (grouped from the ``coin``
    protocol records, corrupted processes excluded), every correct
    participant must have output the same bit; a split is flagged
    ``"whp"`` -- the paper allows it with probability at most 1 - rho.
    Successes accumulate across runs per coin variant, and
    :meth:`report` places the Wilson interval of the observed success
    rate against the matching closed-form bound: Lemma B.7's
    (18d^2+27d-1)/(3(5+6d)(1-d)(1+9d)) for the WHP coin, Theorem 4.13's
    (18e^2+24e-1)/(6(1+6e)) for Algorithm 1.  Non-conformance means the
    whole interval sits below the bound.
    """

    name = "coin"

    def __init__(self) -> None:
        super().__init__()
        self.trials: Counter = Counter()
        self.successes: Counter = Counter()
        self._last_params = None

    def finalize(
        self, result: "RunResult", simulation: "Simulation", events: list[KernelEvent]
    ) -> None:
        if simulation.params is not None:
            self._last_params = simulation.params
        corrupted = result.corrupted
        invocations: dict[Hashable, dict[str, Any]] = {}
        for record in result.metrics.records_of("coin"):
            if record.pid in corrupted:
                continue
            entry = invocations.setdefault(
                record.get("instance"),
                {"variant": record.get("variant"), "outcomes": {}, "step": record.step},
            )
            entry["outcomes"].setdefault(record.get("outcome"), []).append(record.pid)
            entry["step"] = max(entry["step"], record.step)
        for instance, entry in sorted(invocations.items(), key=repr):
            variant = entry["variant"]
            self.trials[variant] += 1
            if len(entry["outcomes"]) == 1:
                self.successes[variant] += 1
                continue
            split = {
                repr(bit): sorted(pids) for bit, pids in entry["outcomes"].items()
            }
            self.flag(
                ViolationReport(
                    monitor=self.name,
                    prop="coin-agreement",
                    severity=SEVERITY_WHP,
                    message=(
                        f"correct processes disagree on coin {instance!r}: {split}"
                    ),
                    step=entry["step"],
                    pids=tuple(
                        pid for pids in entry["outcomes"].values() for pid in pids
                    ),
                    instance=instance,
                )
            )

    def _bound(self, variant: str) -> float | None:
        params = self._last_params
        if params is None:
            return None
        from repro.analysis.bounds import (
            shared_coin_success_bound,
            whp_coin_success_bound,
        )

        try:
            if variant == "whp" and getattr(params, "d", None) is not None:
                return whp_coin_success_bound(params.d)
            if variant == "alg1":
                return shared_coin_success_bound(params.epsilon)
        except ValueError:
            return None
        return None

    def report(self) -> dict[str, Any]:
        variants: dict[str, Any] = {}
        for variant in sorted(self.trials, key=str):
            entry = self._estimate_dict(self.successes[variant], self.trials[variant])
            bound = self._bound(variant)
            entry["rho_bound"] = bound
            entry["conformant"] = (
                bound is None
                or bound <= 0
                or entry["interval"] is None
                or entry["interval"][1] >= bound
            )
            variants[str(variant)] = entry
        return {"runs": self.runs, "variants": variants}


class ApproverMonitor(Monitor):
    """Approver conformance: Graded Agreement, grades, Validity (Def 6.1).

    Finalize-only, over the ``approve`` protocol records of correct
    processes, grouped per approver instance:

    * **Termination grade** -- every return set has size 1 or 2 under
      Assumption 1; size 0 is a hard ``"safety"`` bug (the wait cannot
      return empty), size > 2 is a ``"whp"`` Assumption-1 excursion.
    * **Graded Agreement** -- if any correct process returned the
      singleton {v}, every correct return set must contain v.
    * **Validity** -- every returned value was some correct process's
      input (read from the record's ``input`` field; the
      ``justify=False`` ablation deliberately breaks exactly this).
    """

    name = "approver"

    def __init__(self) -> None:
        super().__init__()
        self.instances_checked = 0
        self.ga_trials = 0
        self.ga_violations = 0
        self.validity_violations = 0
        self.grades: Counter = Counter()

    def finalize(
        self, result: "RunResult", simulation: "Simulation", events: list[KernelEvent]
    ) -> None:
        corrupted = result.corrupted
        by_instance: dict[Hashable, list] = {}
        for record in result.metrics.records_of("approve"):
            if record.pid not in corrupted:
                by_instance.setdefault(record.get("instance"), []).append(record)
        for instance, records in sorted(by_instance.items(), key=repr):
            self.instances_checked += 1
            self.ga_trials += 1
            returned = {
                record.pid: tuple(record.get("values") or ()) for record in records
            }
            step = max(record.step for record in records)
            for record in records:
                grade = record.get("grade")
                self.grades[grade] += 1
                if grade == 0:
                    self.flag(
                        ViolationReport(
                            monitor=self.name,
                            prop="Termination",
                            severity=SEVERITY_SAFETY,
                            message=(
                                f"process {record.pid} returned an empty set "
                                f"from approver {instance!r}"
                            ),
                            step=record.step,
                            pids=(record.pid,),
                            instance=instance,
                        )
                    )
                elif grade is not None and grade > 2:
                    self.flag(
                        ViolationReport(
                            monitor=self.name,
                            prop="Assumption-1",
                            severity=SEVERITY_WHP,
                            message=(
                                f"process {record.pid} returned {grade} values "
                                f"from approver {instance!r} (Assumption 1 "
                                "admits at most two)"
                            ),
                            step=record.step,
                            pids=(record.pid,),
                            instance=instance,
                        )
                    )

            singletons = {
                values[0]: pid
                for pid, values in returned.items()
                if len(values) == 1
            }
            ga_ok = True
            for value, witness in sorted(singletons.items()):
                missing = sorted(
                    pid for pid, values in returned.items() if value not in values
                )
                if not missing:
                    continue
                ga_ok = False
                self.flag(
                    ViolationReport(
                        monitor=self.name,
                        prop="Graded-Agreement",
                        severity=SEVERITY_WHP,
                        message=(
                            f"process {witness} returned the singleton "
                            f"{{{value}}} from approver {instance!r} but "
                            f"processes {missing} returned sets without it"
                        ),
                        step=step,
                        pids=(witness, *missing),
                        instance=instance,
                    )
                )
            if not ga_ok:
                self.ga_violations += 1

            inputs = {
                record.get("input")
                for record in records
                if record.get("input") is not None
            }
            if not inputs:
                continue
            for record in records:
                foreign = [
                    value
                    for value in (record.get("values") or ())
                    if value not in inputs
                ]
                if not foreign:
                    continue
                self.validity_violations += 1
                self.flag(
                    ViolationReport(
                        monitor=self.name,
                        prop="Validity",
                        severity=SEVERITY_WHP,
                        message=(
                            f"process {record.pid} returned value(s) {foreign} "
                            f"from approver {instance!r} that no correct "
                            f"process input (inputs: {sorted(inputs)})"
                        ),
                        step=record.step,
                        pids=(record.pid,),
                        instance=instance,
                    )
                )

    def report(self) -> dict[str, Any]:
        return {
            "runs": self.runs,
            "instances_checked": self.instances_checked,
            "graded_agreement": self._estimate_dict(
                self.ga_trials - self.ga_violations, self.ga_trials
            ),
            "validity_violations": self.validity_violations,
            "grades": {
                str(grade): count for grade, count in sorted(self.grades.items())
            },
        }


def default_monitors() -> list[Monitor]:
    """The full paper-property suite, in check order."""
    return [SafetyMonitor(), CommitteeMonitor(), CoinMonitor(), ApproverMonitor()]


class MonitorSuite:
    """Attaches a set of monitors to a run (``run_protocol(observers=[suite])``).

    The suite keeps its own payload-stripped event log (the evidence base
    for critical-path slices) and dispatches each event only to the
    monitors that declared its type in ``watched`` -- the online cost is
    one list append plus one dict lookup per event, bounded alongside the
    recorder by ``benchmarks/bench_observability_overhead.py``.

    A suite may be attached to several runs in sequence; per-run state
    resets in :meth:`begin_run` while conformance statistics (coin
    trials, committee excursion counts, decision counts) accumulate,
    which is what gives the Wilson intervals in :meth:`report` their
    power.  Not safe to share across concurrently executing runs.

    ``on_violation`` is an optional live callback invoked the moment any
    monitor flags a violation -- during the run for online monitors such
    as :class:`SafetyMonitor`, at finalize for the statistical ones.
    """

    def __init__(
        self,
        monitors: Iterable[Monitor] | None = None,
        on_violation: Callable[[ViolationReport], None] | None = None,
    ) -> None:
        self.monitors = list(monitors) if monitors is not None else default_monitors()
        self.on_violation = on_violation
        self.events: list[KernelEvent] = []
        self.runs = 0
        self._dispatch: dict[type, list[Monitor]] = {}
        for monitor in self.monitors:
            monitor._suite = self
            for event_type in monitor.watched:
                self._dispatch.setdefault(event_type, []).append(monitor)

    # -- run lifecycle ---------------------------------------------------------

    def begin_run(self) -> None:
        self.runs += 1
        self.events = []
        for monitor in self.monitors:
            monitor.begin_run()

    def on_event(self, event: KernelEvent) -> None:
        events = self.events
        events.append(event)
        for monitor in self._dispatch.get(type(event), ()):
            monitor.on_event(event, events)

    def finalize(self, result: "RunResult", simulation: "Simulation") -> None:
        for monitor in self.monitors:
            monitor.finalize(result, simulation, self.events)

    # -- results ---------------------------------------------------------------

    @property
    def violations(self) -> list[ViolationReport]:
        """All violations across monitors and runs, schedule-ordered."""
        reports = [
            report for monitor in self.monitors for report in monitor.violations
        ]
        reports.sort(key=lambda report: (report.step, report.monitor, report.prop))
        return reports

    @property
    def safety_violations(self) -> list[ViolationReport]:
        return [
            report
            for report in self.violations
            if report.severity == SEVERITY_SAFETY
        ]

    @property
    def ok(self) -> bool:
        """True while no hard safety property has been violated."""
        return not self.safety_violations

    def report(self) -> dict[str, Any]:
        """Cumulative conformance summary (JSON-friendly)."""
        violations = self.violations
        return {
            "runs": self.runs,
            "ok": self.ok,
            "safety_violations": sum(
                1 for report in violations if report.severity == SEVERITY_SAFETY
            ),
            "whp_flags": sum(
                1 for report in violations if report.severity == SEVERITY_WHP
            ),
            "violations": [report.to_dict() for report in violations],
            "monitors": {
                monitor.name: monitor.report() for monitor in self.monitors
            },
        }
