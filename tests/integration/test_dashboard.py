"""`repro dashboard` and `repro trends`: the single-pane HTML report
and the drift column over the trend store."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.dashboard import PANELS, build_dashboard, render_dashboard
from repro.experiments.trends import (
    TrendStore,
    canonical_scalar,
    numeric_drifts,
    numeric_leaves,
    render_trends,
    sparkline,
)

SECTION_IDS = tuple(panel.id for panel in PANELS)


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
        store = TrendStore(root)
        store.append("bench", {"words": 100}, ts=1.0)
        store.append("bench", {"words": 101}, ts=2.0)
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
        # The trends table names the series and its drift verdict.
        assert ">bench<" in document and "within" in document
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
        assert "trend store empty" in document
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
        store = TrendStore(tmp_path)
        store.append("bench", {"words": 100}, ts=1.0)
        store.append("bench", {"words": 900}, ts=2.0)
        document, _ = build_dashboard(tmp_path, None, 0.25)
        assert "class='drift'" in document
        assert "words" in document


# One damaged input per case: the file, what is in it, and the panels that
# read it.  A damaged input is named, never reported as a missing one.
_JOURNAL_RECORD = json.dumps({
    "schema": "repro.trends", "version": 1, "name": "conformance",
    "ts": 1.0, "payload": {"ok": True},
})
DAMAGED = {
    "recording": (
        "flight.jsonl", '{"k": "header", "schema": "repro.fl',
        ("run", "telemetry"),
    ),
    "journal": (
        "BENCH_trends.jsonl", _JOURNAL_RECORD + "\nnot json\n",
        ("trends", "conformance", "fuzzing", "degradation", "scaling"),
    ),
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
        from repro.experiments import trends

        _, recording = recorded
        for name in ("conformance", "fuzzing", "degradation", "E4_scaling"):
            TrendStore(tmp_path).append(name, {"words": 1}, ts=1.0)
        parsed = []
        real = trends.load_journal

        def counting(path, *args):
            parsed.append(Path(path).name)
            return real(path, *args)

        monkeypatch.setattr(trends, "load_journal", counting)
        render_dashboard(
            tmp_path / "d.html", recording_path=recording, root=tmp_path
        )
        assert parsed.count("BENCH_trends.jsonl") == 1


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


class TestTrendDrift:
    """`repro trends`' drift column: each series' newest record against
    the window's oldest, by `numeric_drifts` at `--tolerance`."""

    def test_injected_regression_shows_as_drift(self, tmp_path, monkeypatch, capsys):
        store = TrendStore(tmp_path)
        store.append("E4_scaling", {"mean_words": 1000}, ts=1.0)
        store.append("E4_scaling", {"mean_words": 2000}, ts=2.0)
        monkeypatch.chdir(tmp_path)
        assert main(["trends"]) == 0
        out = capsys.readouterr().out
        assert "1 field(s)" in out
        assert "$.mean_words: 1000 -> 2000 (beyond 25%)" in out

    def test_bench_saves_reach_the_trends_table(self, tmp_path, monkeypatch, capsys):
        # `save_report` journals one record per bench run, the rows when
        # given: two runs whose rows differ 5x show as drift.
        spec = importlib.util.spec_from_file_location(
            "bench_conftest", Path(__file__).parents[2] / "benchmarks" / "conftest.py"
        )
        harness = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(harness)
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path / "results")
        monkeypatch.setattr(harness, "REPO_ROOT", tmp_path)
        save_report = harness.save_report.__wrapped__()
        for words in (1000, 5000):
            rows = [{"protocol": "whp_ba", "mean_words": [words]}]
            save_report("E4_scaling", f"E4 at {words}", "# header\n", rows=rows)
        assert json.loads((tmp_path / "results" / "E4_scaling.json").read_text()) == rows
        assert len(TrendStore(tmp_path).history("E4_scaling")) == 2
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        assert main(["trends"]) == 0
        out = capsys.readouterr().out
        assert "E4_scaling" in out and "1 field(s)" in out
        assert "$[0].mean_words[0]: 1000 -> 5000" in out

    def test_within_tolerance_is_no_drift(self, tmp_path, monkeypatch, capsys):
        store = TrendStore(tmp_path)
        store.append("bench", {"words": 100}, ts=1.0)
        store.append("bench", {"words": 104}, ts=2.0)
        monkeypatch.chdir(tmp_path)
        assert main(["trends"]) == 0
        assert "none (within 25%)" in capsys.readouterr().out

    def test_tolerance_flag_tightens_the_drift_column(
        self, tmp_path, monkeypatch, capsys
    ):
        store = TrendStore(tmp_path)
        store.append("bench", {"words": 100}, ts=1.0)
        store.append("bench", {"words": 110}, ts=2.0)
        monkeypatch.chdir(tmp_path)
        assert main(["trends"]) == 0  # default 25%
        assert "none (within 25%)" in capsys.readouterr().out
        assert main(["trends", "--tolerance", "5"]) == 0
        assert "$.words: 100 -> 110 (beyond 5%)" in capsys.readouterr().out

    def test_real_store_keeps_one_record_of_a_rerun(
        self, tmp_path, monkeypatch, capsys
    ):
        # The sweep is deterministic, so a second run of it in the same
        # checkout has the first's payload fingerprint and is not appended.
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            main(["check", "--n", "16", "--seeds", "1", "--protocols", "whp_ba"])
        capsys.readouterr()
        assert len(TrendStore(".").history("conformance")) == 1
        assert main(["trends"]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("conformance")
        )
        assert "(first record)" in row

    def test_tracking_and_trend_of_a_window(self, tmp_path):
        store = TrendStore(tmp_path)
        store.append("bench", {"words": 100}, ts=1.0)
        store.append("bench", {"words": 400}, ts=2.0)
        assert canonical_scalar(store.history("bench")) == ("$.words", [100.0, 400.0])
        table = render_trends(store, rel_tol=0.25)
        assert "tracking $.words" in table
        assert sparkline([100.0, 400.0]) in table

    def test_wallclock_fields_not_judged(self):
        before = {"words": 100, "wallclock": {"bare_seconds": 1.0}}
        after = {"words": 100, "wallclock": {"bare_seconds": 9.0}}
        assert numeric_drifts(before, after, rel_tol=0.25) == []
        assert "$.words" in numeric_leaves(before)


class TestTrendDriftRules:
    """What `numeric_drifts` judges, and what it leaves alone."""

    def test_single_record_series_is_a_first_record(self, tmp_path):
        store = TrendStore(tmp_path)
        store.append("bench", {"words": 100}, ts=1.0)
        table = render_trends(store, rel_tol=0.25)
        assert "(first record)" in table and "tracking" not in table

    def test_nan_transition_is_a_drift(self):
        drifts = numeric_drifts(
            {"rate": float("nan")}, {"rate": 1.0}, rel_tol=0.25
        )
        assert drifts == ["$.rate: nan -> 1 (NaN transition)"]
        # ...in either direction.
        assert numeric_drifts(
            {"rate": 1.0}, {"rate": float("nan")}, rel_tol=0.25
        ) == ["$.rate: 1 -> nan (NaN transition)"]

    def test_all_nan_leaves_are_skipped(self, tmp_path):
        # store.append maps NaN to null (to_jsonable), so a NaN-bearing
        # journal comes from an external writer -- simulate one directly.
        store = TrendStore(tmp_path)
        lines = [
            json.dumps({
                "schema": "repro.trends", "version": 1, "name": "bench",
                "ts": ts, "payload": {"rate": float("nan"), "words": words},
            })
            for ts, words in ((1.0, 7), (2.0, 8))
        ]
        store.path.write_text("\n".join(lines) + "\n")
        before, after = (record["payload"] for record in store.history("bench"))
        assert numeric_drifts(before, after, rel_tol=0.1) == [
            "$.words: 7 -> 8 (beyond 10%)"
        ]
        assert "none (within 25%)" in render_trends(store, rel_tol=0.25)

    def test_no_shared_leaves_is_no_drift(self, tmp_path):
        store = TrendStore(tmp_path)
        store.append("bench", {"old_metric": 1}, ts=1.0)
        store.append("bench", {"new_metric": 2}, ts=2.0)
        table = render_trends(store, rel_tol=0.25)
        assert "none (within 25%)" in table and "tracking" not in table

    def test_fuzz_novelty_counters_not_judged(self):
        # Fuzz campaigns nest all atlas-dependent counters under
        # "novelty"; a second campaign legitimately finds fewer novel
        # signatures, which must not read as a regression.
        before = {"budget": 200, "novelty": {"new_signatures": 9}}
        after = {"budget": 200, "novelty": {"new_signatures": 0}}
        assert numeric_drifts(before, after, rel_tol=0.25) == []


class TestTrendGate:
    """A missing trend store is not a failure: a fresh checkout has no
    journal until a benchmark or `repro check` appends to it."""

    def test_empty_store_passes_vacuously(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trends"]) == 0


class TestTrendGateDiagnostics:
    """A missing trend store is named by its path, not shown as an empty
    table."""

    def test_empty_store_names_the_missing_path(self, tmp_path):
        store = TrendStore(tmp_path)
        table = render_trends(store, rel_tol=0.25)
        assert table.startswith(f"no trend records at {store.path}\n")
        assert "tracking" not in table

    def test_trends_cli_reports_missing_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["trends"]) == 0
        out = capsys.readouterr().out
        assert f"no trend records at {TrendStore('.').path}" in out


class TestTrendsWindow:
    """Satellite: `--last N` widens the sparkline/drift window."""

    def _store(self, tmp_path):
        store = TrendStore(tmp_path)
        for index, words in enumerate((100, 150, 200, 400)):
            store.append("bench", {"words": words}, ts=float(index))
        return store

    def test_last_flag_widens_drift_baseline(self, tmp_path, monkeypatch, capsys):
        self._store(tmp_path)
        monkeypatch.chdir(tmp_path)
        # 200 -> 400 is within 150% of the record one back; 100 -> 400,
        # against four records back, is not.
        assert main(["trends", "--tolerance", "150"]) == 0
        assert "none (within 150%)" in capsys.readouterr().out
        assert main(["trends", "--tolerance", "150", "--last", "4"]) == 0
        assert "$.words: 100 -> 400 (beyond 150%)" in capsys.readouterr().out

    def test_sparkline_rendered_over_window(self, tmp_path, monkeypatch, capsys):
        self._store(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["trends", "--last", "4"]) == 0
        out = capsys.readouterr().out
        assert "tracking $.words" in out
        spark = sparkline([100.0, 150.0, 200.0, 400.0])
        assert len(spark) == 4 and spark in out

    def test_sparkline_charset(self):
        assert sparkline([]) == ""
        assert sparkline([5.0]) == "+"  # the charset's middle level
        flat = sparkline([3.0, 3.0, 3.0])
        assert len(set(flat)) == 1
        ramp = sparkline([0.0, 1.0, 2.0, 3.0])
        assert ramp[0] == "_" and ramp[-1] == "@"


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
