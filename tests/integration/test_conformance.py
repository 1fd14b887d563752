"""The conformance pipeline: trend store, `repro check`/`trends`/`export`
CLI, the one-line diagnostics for damaged recordings, and every named
run's recording replaying into the run's own events."""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.experiments import conformance
from repro.experiments.protocols import PROTOCOLS
from repro.experiments.scenarios import SCENARIOS, resolve_run
from repro.sim.events import EVENT_SCHEMA_VERSION
from repro.sim.flightrecorder import (
    EventLog,
    FlightRecorder,
    load_recording,
    save_recording,
    stream_digest,
)
from repro.experiments.trends import (
    TrendStore,
    bench_json_path,
    numeric_drifts,
    record_bench,
    render_trends,
)


class TestTrendStore:
    def test_append_load_history(self, tmp_path):
        store = TrendStore(tmp_path)
        store.append("bench_x", {"words": 100}, ts=1.0)
        store.append("bench_x", {"words": 110}, ts=2.0)
        store.append("bench_y", {"rate": 0.5}, ts=3.0)
        assert store.names() == ["bench_x", "bench_y"]
        history = store.history("bench_x")
        assert [r["payload"]["words"] for r in history] == [100, 110]
        assert store.latest("bench_x")["ts"] == 2.0
        assert store.latest("missing") is None

    def test_empty_store(self, tmp_path):
        store = TrendStore(tmp_path)
        assert store.load() == []
        assert "no trend records" in render_trends(store)

    def test_regressions_beyond_tolerance(self):
        drifts = numeric_drifts({"words": 100}, {"words": 200}, rel_tol=0.1)
        assert drifts == ["$.words: 100 -> 200 (beyond 10%)"]
        assert numeric_drifts({"words": 100}, {"words": 200}, rel_tol=2.0) == []

    def test_foreign_schema_rejected(self, tmp_path):
        store = TrendStore(tmp_path)
        store.path.write_text('{"schema": "other.thing", "version": 1}\n')
        with pytest.raises(ValueError, match="schema"):
            store.load()

    def test_truncated_journal_diagnosed_with_line_number(self, tmp_path):
        store = TrendStore(tmp_path)
        store.append("bench", {"words": 100})
        with store.path.open("a") as handle:
            handle.write('{"schema": "repro.trends", "vers')  # cut mid-write
        with pytest.raises(ValueError, match="line 2"):
            store.load()

    def test_record_bench_writes_snapshot_and_journal(self, tmp_path):
        path, record = record_bench("observability", {"bound": 0.01}, tmp_path)
        assert path == bench_json_path("observability", tmp_path)
        snapshot = json.loads(path.read_text())
        assert snapshot["payload"] == {"bound": 0.01}
        assert snapshot == record
        assert TrendStore(tmp_path).latest("observability") == record

    def test_render_trends_table(self, tmp_path):
        store = TrendStore(tmp_path)
        store.append("bench", {"words": 100}, ts=1.0)
        store.append("bench", {"words": 500}, ts=2.0)
        table = render_trends(store)
        assert "bench" in table
        assert "words" in table  # the drift line names the field


class TestRunCheck:
    def test_clean_sweep_passes(self):
        payload = conformance.run_check(
            protocols=("whp_ba",), n=16, seeds=range(2)
        )
        assert payload["ok"]
        assert payload["safety_violations"] == 0
        entry = payload["protocols"]["whp_ba"]
        assert len(entry["runs"]) == 2
        assert entry["conformance"]["runs"] == 2
        text = conformance.format_check(payload)
        assert "RESULT: OK" in text
        assert "whp_ba" in text
        assert "S1" in text and "rho" in text

    def test_payload_is_json_serializable(self):
        payload = conformance.run_check(protocols=("whp_ba",), n=16, seeds=[0])
        json.dumps(payload)


class TestCheckCLI:
    def test_check_writes_conformance_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["check", "--n", "16", "--seeds", "2", "--protocols", "whp_ba"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "RESULT: OK" in out
        conformance_json = tmp_path / "BENCH_conformance.json"
        assert conformance_json.exists()
        payload = json.loads(conformance_json.read_text())["payload"]
        assert payload["ok"] is True
        assert (tmp_path / "BENCH_trends.jsonl").exists()

    def test_trends_renders_after_check(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["check", "--n", "16", "--seeds", "1", "--protocols", "whp_ba"])
        capsys.readouterr()
        assert main(["trends"]) == 0
        out = capsys.readouterr().out
        assert "conformance" in out
        assert "(first record)" in out

    def test_check_listed(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("check", "trends", "export"):
            assert name in out


class TestExportCLI:
    def test_record_then_export(self, capsys, tmp_path):
        recording = str(tmp_path / "flight.jsonl")
        assert main(["record", "--n", "16", "--seed", "2", "--out", recording]) == 0
        capsys.readouterr()
        assert main(["export", recording]) == 0
        out = capsys.readouterr().out
        assert "exported" in out and "perfetto" in out.lower()
        trace = json.loads((tmp_path / "flight.trace.json").read_text())
        assert trace["traceEvents"]

    def test_export_without_path_rejected(self):
        with pytest.raises(SystemExit):
            main(["export"])


class TestReportDiagnostics:
    """Satellite: damaged recordings exit with one-line diagnostics."""

    def test_missing_recording(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "does_not_exist.jsonl"])
        assert "no such recording" in str(excinfo.value)

    def test_empty_recording(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(empty)])
        assert "empty file" in str(excinfo.value)

    def test_truncated_line_diagnosed(self, capsys, tmp_path):
        recording = tmp_path / "flight.jsonl"
        assert main(
            ["record", "--n", "16", "--seed", "2", "--out", str(recording)]
        ) == 0
        capsys.readouterr()
        text = recording.read_text()
        recording.write_text(text[: len(text) // 2])  # cut mid-line
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(recording)])
        message = str(excinfo.value)
        assert "truncated" in message and "line" in message

    def test_missing_footer_diagnosed(self, capsys, tmp_path):
        recording = tmp_path / "flight.jsonl"
        assert main(
            ["record", "--n", "16", "--seed", "2", "--out", str(recording)]
        ) == 0
        capsys.readouterr()
        lines = recording.read_text().splitlines()
        recording.write_text("\n".join(lines[:-1]) + "\n")  # drop the footer
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(recording)])
        assert "truncated" in str(excinfo.value)

    def test_export_missing_recording(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["export", "nope.jsonl"])
        assert "no such recording" in str(excinfo.value)

    def test_every_truncation_and_bit_flip_exits_two(
        self, capsys, tmp_path, monkeypatch
    ):
        """30 truncations and 30 single-bit flips of one recording: each
        fails ``report`` and ``explain`` with exit 2 and one stderr line,
        never a traceback, and never a report or a replay of the damage."""
        monkeypatch.chdir(tmp_path)
        recording = tmp_path / "flight.jsonl"
        assert main(
            ["record", "--n", "8", "--seed", "0", "--no-profile", "--out",
             str(recording)]
        ) == 0
        data = recording.read_bytes()
        rng = random.Random(0)
        mutants = [data[: rng.randrange(len(data))] for _ in range(30)]
        for _ in range(30):
            flipped = bytearray(data)
            flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            mutants.append(bytes(flipped))
        mutant = tmp_path / "mutant.jsonl"
        for index, body in enumerate(mutants):
            mutant.write_bytes(body)
            for command in ("report", "explain"):
                capsys.readouterr()
                with pytest.raises(SystemExit) as excinfo:
                    main([command, str(mutant)])
                err = capsys.readouterr().err
                assert excinfo.value.code == 2, (index, command, err)
                assert err.count("\n") == 1 and err.startswith(f"repro {command}: ")


class TestEventSchemaVersion:
    def test_unknown_version_descriptive(self):
        from repro.sim.events import event_from_record

        with pytest.raises(ValueError, match="unknown repro.flight schema"):
            event_from_record({"k": "decide"}, version=99)

    def test_versioned_recording_rejected_loudly(self, capsys, tmp_path):
        recording = tmp_path / "flight.jsonl"
        assert main(
            ["record", "--n", "16", "--seed", "2", "--out", str(recording)]
        ) == 0
        capsys.readouterr()
        lines = recording.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        lines[0] = json.dumps(header)
        recording.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["report", str(recording)])
        assert "version" in str(excinfo.value)

    V2_HEADER = '{"k": "header", "schema": "repro.flight", "version": 2}\n'

    @pytest.mark.parametrize(
        "command", ["report", "export", "diff", "explain", "fuzz", "coverage"]
    )
    def test_every_recording_command_gives_the_one_diagnostic(
        self, command, tmp_path, monkeypatch
    ):
        """A v2 file (there is no v2 reader) fails each command with the
        same one line, raised where the header is read."""
        monkeypatch.chdir(tmp_path)
        old = tmp_path / "old.jsonl"
        old.write_text(self.V2_HEADER)
        argv = [command, str(old)] + ([str(old)] if command == "diff" else [])
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value)
        assert message == (
            f"repro {command}: {old}: unknown repro.flight schema version 2: "
            f"this build reads version {EVENT_SCHEMA_VERSION}; re-record the run "
            "or load it with a matching build"
        )

    def test_dashboard_degrades_to_the_same_diagnostic(
        self, capsys, tmp_path, monkeypatch
    ):
        """The dashboard never refuses to render: its one line is a note."""
        monkeypatch.chdir(tmp_path)
        old = tmp_path / "old.jsonl"
        old.write_text(self.V2_HEADER)
        assert main(["dashboard", str(old), "--out", str(tmp_path / "d.html")]) == 0
        out = capsys.readouterr().out
        assert (
            f"note: cannot read {old}: unknown repro.flight schema "
            f"version 2: this build reads version {EVENT_SCHEMA_VERSION}; "
            "re-record the run"
        ) in out


class TestEveryNamedRunReplays:
    """A v5 recording holds no events: loading one replays its schedule.
    For every name ``repro list`` prints, that replay must give the
    run's own events (an :class:`EventLog` of it), and both must hash to
    the recorded digest, the recorder's streamed one."""

    @pytest.mark.parametrize("name", [*PROTOCOLS, *SCENARIOS])
    def test_loaded_events_are_the_recorders(self, name, tmp_path):
        for seed in range(3):
            recorder, log = FlightRecorder(), EventLog()
            result = resolve_run(name, 16, seed=seed).run(observers=[recorder, log])
            path = save_recording(
                tmp_path / f"{seed}.jsonl", recorder, result, protocol=name
            )
            recording = load_recording(path)
            assert recording.events == tuple(log.events), (name, seed)
            assert (
                stream_digest(recording.events)
                == stream_digest(log.events)
                == recorder.stream
                == recording.header["stream"]
            )
