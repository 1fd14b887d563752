"""End-to-end divergence forensics: record, diff, explain, minimize.

This is the acceptance test for the forensics layer: a recorded
Byzantine-split agreement violation must shrink to its minimal schedule
under seq-exact replay, and one swapped delivery between two
recordings must be localized to the exact first divergent seq with a
bounded causal slice -- all through the same ``python -m repro``
surface a user would drive.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.cli import main
from repro.experiments.forensics import explain_recording, resolve_protocol, spec_of
from repro.sim.adversary import ReplayScheduler
from repro.sim.events import DeliverEvent, SendEvent
from repro.sim.flightrecorder import (
    FlightRecorder,
    Recording,
    load_recording,
    save_recording,
)


@pytest.fixture(scope="module")
def byz_recording(tmp_path_factory):
    """A recorded byz_split run (n=4, one Byzantine nudger)."""
    path = tmp_path_factory.mktemp("byz") / "byz.jsonl"
    code = main([
        "record", "--protocol", "byz_split", "--n", "4", "--seed", "11",
        "--no-profile", "--out", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def whp_recording(tmp_path_factory):
    """A clean whp_ba run for the diff and no-failure paths."""
    path = tmp_path_factory.mktemp("whp") / "whp.jsonl"
    code = main([
        "record", "--n", "8", "--seed", "3",
        "--no-profile", "--out", str(path),
    ])
    assert code == 0
    return path


def mutate_first_deliver(src, dst) -> int:
    """Record into ``dst`` the run of ``src`` with one pair of adjacent
    deliveries swapped; return the seq ``src`` delivers where they part.

    The pair goes to two processes and neither delivery sends anything,
    so the swapped schedule replays; ``dst`` is a real recording of it
    (sealed, its stream digest that of its own events).
    """
    recording = load_recording(src)
    events, schedule = recording.events, list(recording.schedule())
    delivers = [i for i, event in enumerate(events) if type(event) is DeliverEvent]
    for at, (first, after) in enumerate(zip(delivers, delivers[2:])):
        quiet = not any(type(event) is SendEvent for event in events[first:after])
        if quiet and schedule[at][2] != schedule[at + 1][2]:
            break
    schedule[at], schedule[at + 1] = schedule[at + 1], schedule[at]
    recorder = FlightRecorder()
    result = spec_of(recording).run(
        ReplayScheduler(schedule), [recorder], max_deliveries=len(schedule)
    )
    save_recording(dst, recorder, result, protocol=recording.header["protocol"])
    return schedule[at + 1][0]


class TestExplain:
    def test_explain_shrinks_byz_split_to_minimal_schedule(
        self, byz_recording, capsys, monkeypatch
    ):
        monkeypatch.chdir(byz_recording.parent)
        assert main(["explain", str(byz_recording)]) == 1
        out = capsys.readouterr().out
        # The replayed violation, named.
        assert "failure [violation]" in out
        assert "decided 0" in out and "decided 1" in out
        # Seq-exact replay reproduced the recording bit for bit.
        assert "replay: event log identical" in out
        # The minimal schedule: both nudge deliveries, nothing else.
        assert "minimized" in out
        assert "2 essential" in out
        assert "minimal schedule" in out
        # The report sidecar was written for the dashboard/CI.
        sidecar = byz_recording.with_name(
            byz_recording.name.removesuffix(".jsonl") + ".divergence.json"
        )
        assert sidecar.exists()
        payload = json.loads(sidecar.read_text())
        assert payload["kind"] == "explain"
        assert payload["minimized"]["deliveries"] == 2

    def test_explain_api_payload(self, byz_recording):
        payload = explain_recording(byz_recording)
        assert payload["protocol"] == "byz_split"
        assert payload["replay_identical"] is True
        assert payload["failure"]["type"] == "violation"
        assert payload["failure"]["severity"] == "safety"
        # Minimal schedule: one nudge to an even pid, one to an odd pid
        # (the split needs deciders of both parities).
        minimized = payload["minimized"]
        assert minimized["deliveries"] == 2
        dests = {dest for _, _, dest in minimized["schedule"]}
        assert {dest % 2 for dest in dests} == {0, 1}
        # Slice stays within the acceptance bound.
        assert payload["slice"] is None or len(payload["slice"]) <= 20

    def test_clean_recording_explains_to_exit_zero(
        self, whp_recording, capsys
    ):
        assert main(["explain", str(whp_recording)]) == 0
        out = capsys.readouterr().out
        assert "no failure" in out
        assert "replay: event log identical" in out

    def test_headerless_recording_needs_explicit_protocol(self, tmp_path):
        src = load_recording.__module__  # silence unused-import linters
        assert src
        recording = Recording(header={"n": 4}, summary={}, schedule=())
        with pytest.raises(ValueError, match="--protocol"):
            resolve_protocol(recording)


class TestDiffCLI:
    def test_identical_recordings_exit_zero(
        self, whp_recording, tmp_path, capsys
    ):
        copy = tmp_path / "copy.jsonl"
        shutil.copy(whp_recording, copy)
        assert main(["diff", str(whp_recording), str(copy)]) == 0
        assert "recordings identical" in capsys.readouterr().out

    def test_single_event_mutation_localized_to_seq(
        self, whp_recording, tmp_path, capsys
    ):
        mutant = tmp_path / "mutant.jsonl"
        seq = mutate_first_deliver(whp_recording, mutant)
        out_json = tmp_path / "whp.divergence.json"
        code = main([
            "diff", str(whp_recording), str(mutant), "--out", str(out_json),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert f"seq {seq}" in out
        assert f"seq: {seq} -> " in out
        assert "<-- DIVERGES" in out
        # A schedule divergence, found at the delivery that moved.
        assert "delivery schedules part ways at delivery #" in out
        payload = json.loads(out_json.read_text())
        assert payload["kind"] == "diff"
        assert payload["seq"] == seq
        assert 1 <= len(payload["slice"]) <= 20
        # The Perfetto sidecar for the slice.
        trace = tmp_path / "whp.divergence.trace.json"
        assert trace.exists()
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(record.get("name") == "DIVERGENCE" for record in events)

    def test_missing_operand_rejected(self, whp_recording):
        with pytest.raises(SystemExit, match="usage"):
            main(["diff", str(whp_recording)])


class TestDashboardPanel:
    def test_dashboard_renders_newest_divergence_report(
        self, whp_recording, tmp_path, capsys
    ):
        from repro.experiments.dashboard import render_dashboard

        mutant = tmp_path / "mutant.jsonl"
        mutate_first_deliver(whp_recording, mutant)
        assert main([
            "diff", str(whp_recording), str(mutant),
            "--out", str(tmp_path / "run.divergence.json"),
        ]) == 1
        capsys.readouterr()
        out, diagnostics = render_dashboard(tmp_path / "d.html", root=tmp_path)
        html = out.read_text()
        assert "Divergence forensics" in html
        assert "diverges" in html
        assert not any("divergence" in diag for diag in diagnostics)

    def test_dashboard_degrades_without_reports(self, tmp_path):
        from repro.experiments.dashboard import render_dashboard

        out, diagnostics = render_dashboard(tmp_path / "d.html", root=tmp_path)
        assert any("divergence" in diag for diag in diagnostics)
