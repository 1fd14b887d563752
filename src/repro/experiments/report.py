"""The repro report: record a run's flight data and render it for humans.

Two halves, mirroring the CLI subcommands:

* :func:`record_run` executes one named protocol run with a
  :class:`~repro.sim.flightrecorder.FlightRecorder` attached (and the
  kernel's wall-clock profilers on) and persists the schema-versioned
  JSONL recording.
* :func:`format_report` renders a loaded recording: the per-round
  timeline, the word-complexity breakdown by message kind and protocol
  layer, coin-success and committee-size distributions, kernel phase
  timings and cache counters, and the causal critical path to the
  deepest decision.

The summary footer's numbers render from the file; the per-event
sections read the recording's events, which its schedule replays under
the same build (a recording from other sources is refused at load).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.experiments.forensics import run_header
from repro.experiments.scenarios import resolve_run
from repro.sim.events import DeliverEvent, SendEvent
from repro.sim.flightrecorder import (
    FlightRecorder,
    Recording,
    critical_path,
    load_recording,
    save_recording,
)
from repro.sim.runner import RunResult
from repro.sim.telemetry import LAYER_OF_KIND as _LAYER_OF_KIND

__all__ = [
    "format_report",
    "record_run",
    "render_report_file",
    "word_breakdown",
]


def record_run(
    out: str | Path,
    name: str = "whp_ba",
    n: int = 40,
    f: int | None = None,
    seed: int = 0,
    profile: bool = True,
) -> tuple[Path, RunResult]:
    """Run one ``name`` protocol instance, recording its flight data.

    Returns ``(recording_path, result)``.  The run stops when every
    correct process has decided (the BA harness convention).  The
    recording is the one file a run leaves: telemetry, coverage and the
    report are all computed from its (replayed) events.

    ``name`` is anything :func:`~repro.experiments.scenarios.resolve_run`
    accepts: a Table 1 protocol (its benign run) or a zoo scenario (e.g.
    ``byz_split``, or a rate-suffixed ``lossy_uniform@0.1``), which faces
    the scenario's adversary and lossy-link config -- a deliberately
    hostile run whose recording feeds ``python -m repro explain``.
    Unknown names raise a ``ValueError`` listing both.
    """
    spec = resolve_run(name, n, f=f, seed=seed)
    recorder = FlightRecorder()
    result = spec.run(observers=[recorder], profile=profile)
    path = save_recording(out, recorder, result, protocol=run_header(spec, recorder.corruptions))
    return path, result


def word_breakdown(events) -> dict[str, Any]:
    """Word complexity by message kind and by protocol layer.

    Counts correct senders only (the paper's word-complexity convention);
    delivered counts come along for auditability.
    """
    words_by_kind: dict[str, int] = {}
    sent_by_kind: dict[str, int] = {}
    delivered_by_kind: dict[str, int] = {}
    for event in events:
        if type(event) is SendEvent and event.sender_correct:
            words_by_kind[event.message_kind] = (
                words_by_kind.get(event.message_kind, 0) + event.words
            )
            sent_by_kind[event.message_kind] = sent_by_kind.get(event.message_kind, 0) + 1
        elif type(event) is DeliverEvent:
            delivered_by_kind[event.message_kind] = (
                delivered_by_kind.get(event.message_kind, 0) + 1
            )
    words_by_layer: dict[str, int] = {}
    for kind, words in words_by_kind.items():
        layer = _LAYER_OF_KIND.get(kind, "other")
        words_by_layer[layer] = words_by_layer.get(layer, 0) + words
    return {
        "words_by_kind": dict(sorted(words_by_kind.items())),
        "sent_by_kind": dict(sorted(sent_by_kind.items())),
        "delivered_by_kind": dict(sorted(delivered_by_kind.items())),
        "words_by_layer": dict(sorted(words_by_layer.items())),
    }


def _format_histogram(histogram: dict[Any, int], width: int = 30) -> list[str]:
    """Render a value->count map as aligned text bars."""
    if not histogram:
        return ["  (empty)"]
    peak = max(histogram.values())
    lines = []

    def order(key: Any):
        # JSON round-trips turn int keys into strings; sort numerically
        # when the label still parses as a number.
        try:
            return (0, float(key))
        except (TypeError, ValueError):
            return (1, str(key))

    for value in sorted(histogram, key=order):
        count = histogram[value]
        bar = "#" * max(1, round(width * count / peak))
        lines.append(f"  {value!s:>8} | {bar} {count}")
    return lines


def _section(title: str) -> list[str]:
    return ["", title, "-" * len(title)]


def format_report(recording: Recording) -> str:
    """Render every report section from one loaded recording."""
    header = recording.header
    summary = recording.summary
    protocol = summary.get("protocol", {})
    metrics = summary.get("metrics", {})
    lines = [
        f"flight recording: schema {header.get('schema')} "
        f"v{header.get('version')}",
        f"run: n={header.get('n')} f={header.get('f')} "
        f"seed={header.get('seed')} corrupted={header.get('corrupted')}",
        f"outcome: deliveries={summary.get('deliveries')} "
        f"duration={summary.get('duration')} words={summary.get('words')} "
        f"live={summary.get('live')} "
        f"all_correct_decided={summary.get('all_correct_decided')}",
    ]

    lines += _section("round timeline")
    rounds = protocol.get("rounds", [])
    if not rounds:
        lines.append("  (no round records)")
    for row in rounds:
        estimates = ", ".join(
            f"{value}x{count}" for value, count in row.get("estimates", {}).items()
        )
        lines.append(
            f"  {row.get('tag')}[{row.get('round')}] "
            f"steps {row.get('first_step')}..{row.get('last_step')} "
            f"processes={len(row.get('pids', []))} "
            f"decided={row.get('decided')} estimates: {estimates}"
        )

    lines += _section("word complexity by kind / layer")
    breakdown = word_breakdown(recording.events)
    for kind, words in breakdown["words_by_kind"].items():
        sent = breakdown["sent_by_kind"].get(kind, 0)
        delivered = breakdown["delivered_by_kind"].get(kind, 0)
        lines.append(
            f"  {kind:>10}: {words:>8} words  "
            f"({sent} sent, {delivered} delivered)"
        )
    for layer, words in breakdown["words_by_layer"].items():
        lines.append(f"  layer {layer:>8}: {words} words")
    lossy = metrics.get("lossy_link", {})
    if lossy:
        lines += _section("link faults (lossy model)")
        lines.append(
            "  words: {sent} sent by correct, {delivered} delivered".format(
                sent=summary.get("words"),
                delivered=metrics.get("words_delivered"),
            )
        )
        by_kind = metrics.get("lossy_by_kind", {})
        for fate in ("drops", "duplicates", "reorders", "corruptions"):
            kinds = by_kind.get(fate, {})
            detail = (
                " (" + ", ".join(f"{k} {c}" for k, c in kinds.items()) + ")"
                if kinds
                else ""
            )
            lines.append(f"  {fate:>12}: {lossy.get(fate, 0)}{detail}")

    per_process = protocol.get("per_process_words")
    if per_process:  # absent in recordings from older builds
        lines += _section("per-process word load (correct senders)")
        if not per_process.get("senders"):
            lines.append("  (no correct sends recorded)")
        else:
            lines.append(
                f"  {per_process['senders']} senders: "
                f"max {per_process.get('max_words')} / "
                f"mean {per_process.get('mean_words', 0.0):.1f} / "
                f"min {per_process.get('min_words')} words"
            )
            for pid, load in per_process.get("top_senders", []):
                lines.append(f"  top: process {pid:>4} sent {load} words")
            for label, key in (
                ("committee", "committee"),
                ("non-committee", "non_committee"),
            ):
                split = per_process.get(key) or {}
                if split.get("senders"):
                    lines.append(
                        f"  {label:>13}: {split['senders']} senders, "
                        f"max {split.get('max_words')} / "
                        f"mean {split.get('mean_words', 0.0):.1f} words"
                    )
                else:
                    lines.append(f"  {label:>13}: (no senders)")

    lines += _section("coin")
    invocations = protocol.get("coin_invocations", [])
    rate = protocol.get("coin_success_rate", 0.0)
    lines.append(
        f"  {len(invocations)} invocation(s), unanimity rate {rate:.2f}"
    )
    for row in invocations:
        outcomes = ", ".join(
            f"{bit}x{count}" for bit, count in row.get("outcomes", {}).items()
        )
        lines.append(
            f"  {row.get('instance')} [{row.get('variant')}] "
            f"participants={row.get('participants')} "
            f"unanimous={row.get('unanimous')} outcomes: {outcomes}"
        )

    lines += _section("committee sizes (observed)")
    for role, histogram in protocol.get("committee_sizes", {}).items():
        lines.append(f"  role {role}:")
        lines += _format_histogram(histogram)
    lines += _section("committee sizes (self-reported samples)")
    for role, histogram in protocol.get("sampled_committee_sizes", {}).items():
        lines.append(f"  role {role}:")
        lines += _format_histogram(histogram)

    grades = protocol.get("approver_grades", {})
    if grades:
        lines += _section("approver grades")
        lines += _format_histogram(grades)

    lines += _section("kernel counters")
    for key in (
        "vrf_verifications",
        "vrf_cache_hits",
        "sig_verifications",
        "sig_cache_hits",
        "wait_evaluations",
        "wait_skips",
    ):
        lines.append(f"  {key}: {metrics.get(key)}")
    timings = metrics.get("phase_timings", {})
    if timings:
        lines += _section("phase timings (wall-clock seconds)")
        total = sum(timings.values()) or 1.0
        for section, seconds in sorted(
            timings.items(), key=lambda item: -item[1]
        ):
            lines.append(
                f"  {section:>20}: {seconds:9.4f}s ({seconds / total:5.1%})"
            )

    lines += _section("critical path (deepest decision)")
    path = critical_path(recording.events)
    if not path:
        lines.append("  (no decisions recorded)")
    for entry in path:
        if entry["kind"] == "decide":
            lines.append(
                f"  step {entry['step']:>6}: process {entry['pid']} "
                f"DECIDES {entry['value']!r} at depth {entry['depth']}"
            )
        elif entry["kind"] == "send":
            lines.append(
                f"  step {entry['step']:>6}: {entry['sender']} -> "
                f"{entry['dest']} sends {entry['message_kind']} "
                f"{entry['instance']} (depth {entry['depth']})"
            )
        else:
            lines.append(
                f"  step {entry['step']:>6}: {entry['sender']} -> "
                f"{entry['dest']} delivers {entry['message_kind']} "
                f"({entry['words']} words, depth {entry['depth']})"
            )
    return "\n".join(lines)


def render_report_file(path: str | Path) -> str:
    """Load a recording file and render the full report."""
    return format_report(load_recording(path))
