"""`repro dashboard`: the single-pane HTML report over a root's
recording, ``BENCH_<name>.json`` snapshots, coverage atlas and tracked
E4 table."""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.conformance import write_conformance
from repro.experiments.coverage_atlas import CoverageAtlas
from repro.experiments.dashboard import PANELS, build_dashboard, render_dashboard

SECTION_IDS = tuple(panel.id for panel in PANELS)
REPO_ROOT = Path(__file__).parents[2]
E4_TABLE = "benchmarks/results/E4_scaling.json"


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One small recorded run shared across tests."""
    root = tmp_path_factory.mktemp("dashboard")
    recording = root / "flight.jsonl"
    assert main(["record", "--n", "16", "--seed", "2", "--out", str(recording)]) == 0
    return root, recording


class TestDashboardStructure:
    """Structure-level golden test: the pane is complete and offline."""

    def test_full_dashboard_from_recording(self, recorded):
        root, recording = recorded
        out, diagnostics = render_dashboard(
            root / "dashboard.html", recording_path=recording, root=root
        )
        document = out.read_text()
        assert document.startswith("<!doctype html>")
        assert document.rstrip().endswith("</html>")
        for section in SECTION_IDS:
            assert f"<section id='{section}'>" in document
        # Telemetry charts are inline SVG, replayed from the recording.
        assert "<svg" in document and "polyline" in document
        assert "cumulative words by layer" in document
        assert "link_latency_steps" in document
        assert "Trends" not in document
        # Missing conformance/scaling records degrade to diagnostics,
        # which are also reported to the caller.
        assert "no conformance record" in document
        assert any("conformance" in d for d in diagnostics)

    def test_dashboard_is_self_contained(self, recorded):
        root, recording = recorded
        out, _ = render_dashboard(
            root / "pane.html", recording_path=recording, root=root
        )
        document = out.read_text()
        # No network fetches, no scripts, no external assets: the file
        # must render identically from a mail attachment.
        assert "<script" not in document
        assert "http://" not in document and "https://" not in document
        for attribute in ("src=", "href=", "@import"):
            assert attribute not in document

    def test_empty_repository_dashboard_still_renders(self, tmp_path):
        out, diagnostics = render_dashboard(tmp_path / "d.html", root=tmp_path)
        document = out.read_text()
        for section in SECTION_IDS:
            assert f"<section id='{section}'>" in document
        assert "no recording supplied" in document
        assert "no conformance record" in document
        assert f"no scaling table at {E4_TABLE}" in document
        # Each one-line diagnostic names the command that would fill it.
        assert "python -m repro record" in document
        assert "repro check" in document
        assert len(diagnostics) >= 4

    def test_damaged_recording_degrades_to_diagnostic(self, tmp_path):
        recording = tmp_path / "flight.jsonl"
        recording.write_text('{"schema": "repro.fl')  # truncated mid-header
        out, diagnostics = render_dashboard(
            tmp_path / "d.html", recording_path=recording, root=tmp_path
        )
        assert any(f"cannot read {recording}" in d for d in diagnostics)
        assert f"cannot read {recording}" in out.read_text()

    def test_build_dashboard_marks_drift(self, tmp_path):
        # A conformance snapshot with safety violations is flagged red.
        write_conformance(
            {"n": 16, "seeds": [0], "protocols": {}, "ok": False}, tmp_path
        )
        document, _ = build_dashboard(tmp_path)
        section = _section(document, "conformance")
        assert "<span class='drift'>SAFETY VIOLATIONS</span>" in section

    def test_scaling_renders_from_the_tracked_table(self):
        # At the repository root, with no benchmark or check run first.
        document, diagnostics = build_dashboard(REPO_ROOT)
        section = _section(document, "scaling")
        assert "mean words vs n" in section and "class='diag'" not in section
        assert not any(E4_TABLE in line for line in diagnostics)


# One damaged input per case: the file, what is in it, and the panels that
# read it.  A damaged input is named, never reported as a missing one.
DAMAGED = {
    "recording": (
        "flight.jsonl", '{"k": "header", "schema": "repro.fl',
        ("run", "telemetry"),
    ),
    "conformance": ("BENCH_conformance.json", '{"ok": tr', ("conformance",)),
    # A snapshot in the wrapped journal-record format is not a payload.
    "conformance_wrapped": (
        "BENCH_conformance.json",
        json.dumps({"schema": "repro.trends", "ts": 1.0, "commit": None,
                    "payload": {"ok": True, "protocols": {}}}),
        ("conformance",),
    ),
    "fuzzing": ("BENCH_fuzzing.json", "[]\n", ("fuzzing",)),
    "degradation_smoke": ("BENCH_degradation.json", "{", ("degradation",)),
    "scaling": (E4_TABLE, "[{", ("scaling",)),
    "atlas": ("BENCH_coverage_atlas.jsonl", "not json\n", ("coverage",)),
    "divergence": ("run.divergence.json", '{"kind": "di', ("divergence",)),
    "degradation": (
        "degradation_lossy_uniform.json", "[0.1, 0.3]\n", ("degradation",),
    ),
}


def _section(document: str, panel_id: str) -> str:
    match = re.search(f"<section id='{panel_id}'>(.*?)</section>", document)
    assert match, panel_id
    return match.group(1)


class TestDamagedInputs:
    @pytest.mark.parametrize("case", sorted(DAMAGED))
    def test_a_damaged_input_is_named_not_called_missing(self, case, tmp_path):
        name, content, panel_ids = DAMAGED[case]
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        recording = path if case == "recording" else None
        out, diagnostics = render_dashboard(
            tmp_path / "d.html", recording_path=recording, root=tmp_path
        )
        document = out.read_text()
        for panel_id in panel_ids:
            section = _section(document, panel_id)
            assert f"cannot read {path}" in section, panel_id
            assert "run `" not in section, panel_id
        named = [line for line in diagnostics if str(path) in line]
        assert len(named) == len(panel_ids)
        assert all(line.startswith(f"cannot read {path}") for line in named)

    def test_the_journal_is_parsed_once_per_page(
        self, recorded, tmp_path, monkeypatch
    ):
        _, recording = recorded
        write_conformance({"protocols": {}, "ok": True}, tmp_path)
        for name in ("fuzzing", "degradation"):
            (tmp_path / f"BENCH_{name}.json").write_text('{"ok": true}')
        (tmp_path / "benchmarks" / "results").mkdir(parents=True)
        shutil.copy(REPO_ROOT / E4_TABLE, tmp_path / E4_TABLE)
        CoverageAtlas(tmp_path).record_run({"source": "t"}, ["race:x:A^B"])
        parsed = []
        read_text, load = Path.read_text, CoverageAtlas.load

        def counting_read(path, *args, **kwargs):
            parsed.append(path.name)
            return read_text(path, *args, **kwargs)

        def counting_load(atlas):
            parsed.append(atlas.path.name)
            return load(atlas)

        monkeypatch.setattr(Path, "read_text", counting_read)
        monkeypatch.setattr(CoverageAtlas, "load", counting_load)
        _, diagnostics = build_dashboard(tmp_path, recording)
        assert not any("cannot read" in line for line in diagnostics)
        for name in (
            "BENCH_conformance.json", "BENCH_fuzzing.json",
            "BENCH_degradation.json", "E4_scaling.json",
            "BENCH_coverage_atlas.jsonl",
        ):
            assert parsed.count(name) == 1, name


class TestDashboardCLI:
    def test_cli_writes_file_and_reports_diagnostics(
        self, recorded, tmp_path, monkeypatch, capsys
    ):
        _, recording = recorded
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "dash.html"
        assert main(["dashboard", str(recording), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "dashboard ->" in printed
        assert "note:" in printed  # empty cwd store -> diagnostics on stdout
        assert out.exists()

    def test_dashboard_listed(self, capsys):
        assert main(["list"]) == 0
        assert "dashboard" in capsys.readouterr().out


class TestRecordSidecar:
    """`repro record` writes the recording alone; the dashboard replays
    its events for the telemetry it once read from a sidecar file."""

    def test_record_leaves_one_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["record", "--n", "16", "--seed", "2"]) == 0
        assert [path.name for path in tmp_path.iterdir()] == [
            "flight_whp_ba_n16_s2.jsonl"
        ]

    def test_dashboard_falls_back_to_replay_without_sidecar(self, tmp_path):
        recording = tmp_path / "bare.jsonl"
        assert main(
            ["record", "--n", "16", "--seed", "2", "--out", str(recording)]
        ) == 0
        out, diagnostics = render_dashboard(
            tmp_path / "d.html", recording_path=recording, root=tmp_path
        )
        document = out.read_text()
        assert "cumulative words by layer" in document  # replayed telemetry
        assert not any("telemetry" in d for d in diagnostics)
