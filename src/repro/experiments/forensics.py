"""`repro explain`: replay a recording, re-detect its failure, minimize it.

The forensics driver glues the recording layer to the schedule
machinery:

* :func:`replay_recording` re-executes a flight recording's schedule
  under :class:`~repro.sim.adversary.ReplayScheduler`, rebuilding the
  run from its header alone (the ``protocol`` header is a name
  :func:`repro.experiments.scenarios.resolve_run` resolves).
* :func:`explain_recording` then turns a red check into an explanation:
  it re-runs the conformance monitors on the replay, identifies the
  failure (a safety violation, or a decision disagreement baked into the
  recording), shrinks the schedule behind it with
  :func:`repro.sim.minimize.minimize_schedule`, and attaches the causal
  slice.  The payload persists as ``*.divergence.json`` -- the same
  artifact family ``repro diff`` writes -- so the dashboard and CI
  handle both uniformly.

Everything here is offline tooling over recorded runs; the kernel hot
path is untouched.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.experiments.scenarios import RunSpec, describe_runs, resolve_run
from repro.sim.adversary import ReplayScheduler, StaticCorruption
from repro.sim.diffing import DEFAULT_MAX_SLICE, format_slice
from repro.sim.flightrecorder import (
    FlightRecorder,
    Recording,
    code_digest,
    load_recording,
)
from repro.sim.fuzz import ScheduledCorruption
from repro.sim.lossy import LossyLinkConfig
from repro.sim.minimize import minimize_schedule
from repro.sim.monitors import MonitorSuite
from repro.sim.runner import RunResult

__all__ = [
    "explain_recording",
    "format_explain",
    "replay_recording",
    "resolve_protocol",
    "run_header",
    "spec_of",
]


def resolve_protocol(recording: Recording, protocol: str | None = None) -> str:
    """The registry name a recording's run came from.

    Prefers the explicit ``protocol`` argument, then the recording's
    ``protocol`` header (written by :func:`repro.experiments.report.record_run`);
    raises ``ValueError`` when neither is available -- older recordings
    predate the header and need ``--protocol`` on the CLI.
    """
    name = protocol or recording.header.get("protocol")
    if not name:
        raise ValueError(
            "recording has no protocol name in its header; pass --protocol\n"
            + describe_runs()
        )
    return name


def run_header(spec: RunSpec, corruptions: Sequence[list[int]]) -> dict[str, Any]:
    """The header fields that name ``spec``'s run, for ``save_recording``.

    The spec's name and ``lossy`` config (a fuzz candidate's or a swept
    cell's perturbed links), and -- when any corruption fired mid-run --
    every one of the run's ``corruptions`` (a recorder's
    :attr:`~repro.sim.flightrecorder.FlightRecorder.corruptions`, ``[pid,
    step]`` pairs) as ``corrupt_after``, so adaptive and moved
    corruptions replay.  :func:`spec_of` reads them back.
    """
    header: dict[str, Any] = {
        "protocol": spec.name,
        "lossy": None if spec.lossy is None else spec.lossy.to_dict(),
    }
    if any(step for _, step in corruptions):
        header["corrupt_after"] = list(corruptions)
    return header


def spec_of(recording: Recording, protocol: str | None = None) -> RunSpec:
    """The run behind a recording, rebuilt from its header alone.

    ``protocol`` overrides the header's name.  The header's ``lossy``
    config, when it has one (:func:`run_header`), replaces the resolved
    spec's, and its corruptions replace the spec's: ``corrupt_after``
    re-fires mid-run corruptions at the step they fired, else the
    ``corrupted`` set is corrupted from the start.
    """
    header = recording.header
    spec = resolve_run(
        resolve_protocol(recording, protocol),
        header["n"],
        f=header["f"],
        seed=header["seed"],
    )
    if "lossy" in header:
        lossy = header["lossy"]
        spec = replace(spec, lossy=lossy and LossyLinkConfig.from_dict(lossy))
    if "corrupt_after" in header:
        spec = replace(spec, corruption=ScheduledCorruption(header["corrupt_after"]))
    elif "corrupted" in header:
        spec = replace(spec, corruption=StaticCorruption(header["corrupted"]))
    return spec


def _replay(
    spec: RunSpec,
    schedule: Sequence[tuple[int, int, int]],
    observers: Sequence[Any] = (),
) -> RunResult:
    return spec.run(
        ReplayScheduler(schedule), observers, max_deliveries=len(schedule)
    )


def replay_recording(
    recording: Recording,
    protocol: str | None = None,
    observers: Sequence[Any] = (),
) -> RunResult:
    """Re-execute a recording's schedule seq-exactly.

    Raises ``RuntimeError`` from the replay scheduler if the run diverges
    from the recorded schedule.
    """
    return _replay(spec_of(recording, protocol), recording.schedule(), observers)


def _decisions_of(result: RunResult) -> dict[str, Any]:
    return {str(pid): result.decisions[pid] for pid in sorted(result.decisions)}


def _correct_decided_values(result: RunResult) -> set[Any]:
    return {
        result.decisions[pid]
        for pid in result.correct_pids
        if pid in result.decisions
    }


def _find_failure(
    recording: Recording, suite: MonitorSuite, result: RunResult
) -> dict[str, Any] | None:
    """Identify the failure the explanation should target, if any."""
    violations = suite.safety_violations or suite.violations
    if violations:
        violation = violations[0]
        return {
            "type": "violation",
            "monitor": violation.monitor,
            "prop": violation.prop,
            "severity": violation.severity,
            "message": violation.message,
            "step": violation.step,
            "violation": violation.to_dict(),
        }
    if len(_correct_decided_values(result)) > 1:
        return {
            "type": "decision_disagreement",
            "message": (
                "correct processes decided differently: "
                f"{_decisions_of(result)}"
            ),
            "decisions": _decisions_of(result),
        }
    recorded = recording.summary.get("decisions", {})
    replayed = _decisions_of(result)
    if recorded and recorded != replayed:
        return {
            "type": "decision_mismatch",
            "message": (
                f"replay decided {replayed} but the recording says {recorded}"
            ),
            "recorded": recorded,
            "replayed": replayed,
        }
    return None


def _reproducer(
    spec: RunSpec, failure: dict[str, Any]
) -> Callable[[Sequence[tuple[int, int, int]]], bool]:
    """``reproduce(schedule)`` deciding if the failure recurs."""
    target = (failure.get("monitor"), failure.get("prop"))

    def reproduce(schedule: Sequence[tuple[int, int, int]]) -> bool:
        suite = MonitorSuite()
        try:
            result = _replay(spec, schedule, [suite])
        except RuntimeError:
            return False  # schedule not realizable -> failure not reproduced
        if failure["type"] == "violation":
            return any(
                (violation.monitor, violation.prop) == target
                for violation in suite.violations
            )
        return len(_correct_decided_values(result)) > 1

    return reproduce


def explain_recording(
    source: str | Path | Recording,
    protocol: str | None = None,
    max_slice: int = DEFAULT_MAX_SLICE,
    minimize: bool = True,
    minimize_budget: int | None = None,
) -> dict[str, Any]:
    """The full `repro explain` pipeline over one recording.

    Replays the recording seq-exactly with a fresh monitor suite and
    flight recorder, checks replay fidelity (the replayed events' stream
    digest against the recorded one), identifies the failure, and --
    when one reproduces -- shrinks its schedule to the deliveries that
    matter.  Returns the JSON-ready
    payload (``kind: "explain"``); ``failure is None`` means the
    recording is clean.  ``protocol`` overrides the header's name.
    ``minimize_budget`` caps the ddmin phase's replay count (the fuzzer
    bounds per-counterexample work this way).
    """
    if isinstance(source, Recording):
        recording, path = source, None
    else:
        path, recording = Path(source), load_recording(source)
    spec = spec_of(recording, protocol)
    schedule = recording.schedule()

    suite = MonitorSuite()
    recorder = FlightRecorder()
    replay_error: str | None = None
    result = None
    try:
        result = _replay(spec, schedule, [suite, recorder])
    except RuntimeError as exc:
        replay_error = str(exc)

    payload: dict[str, Any] = {
        "kind": "explain",
        "recording": str(path) if path is not None else None,
        "protocol": spec.name,
        "n": spec.n,
        "f": spec.f,
        "seed": spec.seed,
        "deliveries": len(schedule),
    }
    if recording.header.get("code") != code_digest():
        payload["recorded_code"] = recording.header.get("code")
    if replay_error is not None:
        payload["replay_error"] = replay_error
        payload["failure"] = {
            "type": "replay_divergence",
            "message": (
                "seq-exact replay diverged from the recording -- the protocol "
                "build or setup differs from the one that recorded it: "
                + replay_error
            ),
        }
        return payload

    recorded = recording.header.get("stream")
    replayed = recorder.stream
    payload["replay_identical"] = recorded == replayed
    if recorded != replayed:
        payload["replay_divergence"] = {
            "recorded": recorded,
            "replayed": replayed,
            "describe": f"stream digest {replayed}, the recording's {recorded}",
        }

    failure = _find_failure(recording, suite, result)
    payload["failure"] = failure
    if failure is None:
        return payload

    violation = failure.get("violation") or {}
    slice_entries = violation.get("critical_slice") or []
    if slice_entries:
        payload["slice"] = slice_entries[-max_slice:]

    if minimize and failure["type"] in ("violation", "decision_disagreement"):
        try:
            minimized = minimize_schedule(
                _reproducer(spec, failure),
                schedule,
                max_tests=minimize_budget,
            )
            payload["minimized"] = minimized.to_dict()
        except ValueError as exc:
            payload["minimize_error"] = str(exc)
    return payload


def format_explain(payload: dict[str, Any]) -> str:
    """Human rendering of an :func:`explain_recording` payload."""
    lines = []
    if payload.get("recording"):
        lines.append(f"recording: {payload['recording']}")
    lines.append(
        f"run: protocol={payload.get('protocol')} n={payload.get('n')} "
        f"f={payload.get('f')} seed={payload.get('seed')} "
        f"deliveries={payload.get('deliveries')}"
    )
    if payload.get("recorded_code"):
        lines.append(
            f"note: recorded by other repro sources ({payload['recorded_code']}); "
            "replaying under these"
        )
    if "replay_identical" in payload:
        lines.append(
            "replay: event log identical to the recording"
            if payload["replay_identical"]
            else "replay: DIVERGED -- "
            + payload["replay_divergence"]["describe"]
        )
    failure = payload.get("failure")
    if failure is None:
        lines.append(
            "no failure found: monitors clean, decisions consistent -- "
            "nothing to explain"
        )
        return "\n".join(lines)
    lines.append(f"failure [{failure['type']}]: {failure['message']}")
    minimized = payload.get("minimized")
    if minimized:
        lines.append(f"minimized: {minimized['describe']}")
        lines.append("minimal schedule (the deliveries that matter):")
        for seq, sender, dest in minimized["schedule"]:
            lines.append(f"  deliver seq {seq} on link {sender} -> {dest}")
        if minimized["dropped_seqs"]:
            lines.append(
                "delayed past the end (droppable): seqs "
                + ", ".join(map(str, minimized["dropped_seqs"]))
            )
    if payload.get("minimize_error"):
        lines.append(f"minimization skipped: {payload['minimize_error']}")
    slice_entries = payload.get("slice") or []
    if slice_entries:
        lines.append(f"causal slice ({len(slice_entries)} events):")
        lines += format_slice(slice_entries)
    return "\n".join(lines)
