"""The coverage atlas pipeline: cross-run accumulation, the conformance
sweep's novelty accounting, the stagnation gate and the `repro coverage`
CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments import conformance
from repro.experiments.coverage_atlas import (
    ATLAS_SCHEMA,
    CoverageAtlas,
    format_atlas,
    format_coverage_run,
    sparkline,
)
from repro.experiments.dashboard import build_dashboard


def seeded_atlas(tmp_path, runs):
    """An atlas with one record per (name, signatures) pair."""
    atlas = CoverageAtlas(tmp_path)
    for index, (name, signatures) in enumerate(runs):
        atlas.record_run({"source": name, "seed": index}, signatures, ts=float(index))
    return atlas


class TestAtlasJournal:
    def test_record_and_novelty_accounting(self, tmp_path):
        atlas = seeded_atlas(tmp_path, [
            ("a", ["race:x:A^B", "perm:x:A>B"]),
            ("b", ["race:x:A^B", "delay:A:h0"]),
        ])
        records = atlas.load()
        assert [r["new_count"] for r in records] == [2, 1]
        assert records[1]["new_signatures"] == ["delay:A:h0"]
        assert records[1]["known_after"] == 3
        assert atlas.known_signatures() == {
            "race:x:A^B", "perm:x:A>B", "delay:A:h0",
        }

    def test_growth_curve(self, tmp_path):
        atlas = seeded_atlas(tmp_path, [
            ("a", ["s1", "s2"]),
            ("b", ["s1", "s2"]),  # nothing new
        ])
        growth = atlas.growth()
        assert [point["new"] for point in growth] == [2, 0]
        assert growth[-1]["new_rate"] == 0.0
        assert growth[-1]["known_after"] == 2

    def test_rarest_ranking(self, tmp_path):
        atlas = seeded_atlas(tmp_path, [
            ("a", ["common", "rare"]),
            ("b", ["common"]),
            ("c", ["common"]),
        ])
        assert atlas.rarest(2) == [("rare", 1), ("common", 3)]

    def test_missing_journal_is_empty(self, tmp_path):
        atlas = CoverageAtlas(tmp_path)
        assert atlas.load() == []
        assert atlas.known_signatures() == set()
        assert "no coverage atlas" in format_atlas(atlas)

    def test_foreign_schema_diagnosed_with_record_number(self, tmp_path):
        atlas = CoverageAtlas(tmp_path)
        atlas.record_run({"source": "a"}, ["s1"], ts=0.0)
        with atlas.path.open("a") as handle:
            handle.write('{"schema": "other.thing", "version": 1}\n')
        with pytest.raises(ValueError, match="record 2.*other.thing"):
            atlas.load()

    def test_future_version_diagnosed(self, tmp_path):
        atlas = CoverageAtlas(tmp_path)
        record = {"schema": ATLAS_SCHEMA, "version": 99, "signatures": []}
        atlas.path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="version 99"):
            atlas.load()


class TestAtlasRendering:
    def test_sparkline_charset(self):
        assert sparkline([]) == ""
        assert sparkline([5.0]) == "+"  # the charset's middle level
        flat = sparkline([3.0, 3.0, 3.0])
        assert len(set(flat)) == 1
        ramp = sparkline([0.0, 1.0, 2.0, 3.0])
        assert ramp[0] == "_" and ramp[-1] == "@"

    def test_atlas_view(self, tmp_path):
        atlas = seeded_atlas(tmp_path, [
            ("a", ["race:x:A^B", "perm:x:A>B"]),
            ("b", ["race:x:A^B", "race:x:B^A"]),
        ])
        text = format_atlas(atlas)
        assert "2 runs recorded, 3 distinct signatures" in text
        assert "atlas growth" in text and "rarest signatures" in text
        assert "race" in text and "perm" in text

    def test_run_view_diffs_against_atlas(self, tmp_path):
        atlas = seeded_atlas(tmp_path, [("a", ["known:sig"])])
        snapshot = {
            "signatures": {"known:sig": 3, "fresh:sig": 1},
            "total_signatures": 2,
            "total_hits": 4,
            "families": {"known": {"signatures": 1, "hits": 3},
                         "fresh": {"signatures": 1, "hits": 1}},
            "counters": {"events": 40},
            "dropped_signatures": 0,
        }
        text = format_coverage_run(snapshot, atlas=atlas, source="x.jsonl")
        assert "coverage of x.jsonl" in text
        assert "1 of 2 signatures are new" in text
        assert "+ fresh:sig" in text


class TestConformanceCoverage:
    def test_sweep_reports_coverage_and_feeds_atlas(self, tmp_path):
        atlas = CoverageAtlas(tmp_path)
        payload = conformance.run_check(
            protocols=("whp_ba",), n=16, seeds=range(2), atlas=atlas
        )
        sweep = payload["coverage"]
        assert sweep["runs_total"] == 2
        assert sweep["baseline_signatures"] == 0
        # a fresh atlas: the first seed always contributes
        assert sweep["runs_with_new"] >= 1
        assert sweep["unique_signatures"] > 0
        for row in payload["protocols"]["whp_ba"]["runs"]:
            assert row["signatures"] > 0
        assert len(atlas.load()) == 2
        text = conformance.format_check(payload)
        assert "coverage:" in text and "contributed new interleavings" in text

    def test_repeat_sweep_is_stagnant(self, tmp_path):
        atlas = CoverageAtlas(tmp_path)
        conformance.run_check(protocols=("whp_ba",), n=16, seeds=[0], atlas=atlas)
        again = conformance.run_check(
            protocols=("whp_ba",), n=16, seeds=[0], atlas=atlas
        )
        assert again["coverage"]["runs_with_new"] == 0
        assert again["coverage"]["baseline_signatures"] > 0

    def test_coverage_off_leaves_payload_clean(self):
        payload = conformance.run_check(
            protocols=("whp_ba",), n=16, seeds=[0], coverage=False
        )
        assert "coverage" not in payload
        assert "coverage" not in payload["protocols"]["whp_ba"]


class TestCoverageGate:
    def anomalous(self):
        return {"whp_ba": {"conformance": {"whp_flags": 2, "monitors": {}}}}

    def gate(self, runs_with_new, protocols):
        return conformance.coverage_gate({
            "coverage": {"runs_with_new": runs_with_new, "runs_total": 4},
            "protocols": protocols,
        })

    def test_stagnant_with_anomaly_fails(self):
        verdict = self.gate(0, self.anomalous())
        assert not verdict["ok"] and verdict["stagnant"]
        assert "FAIL" in conformance.format_coverage_gate(verdict)

    def test_stagnant_without_anomaly_passes(self):
        verdict = self.gate(0, {"whp_ba": {"conformance": {"monitors": {}}}})
        assert verdict["ok"] and verdict["stagnant"]

    def test_fresh_coverage_with_anomaly_passes(self):
        verdict = self.gate(2, self.anomalous())
        assert verdict["ok"] and not verdict["stagnant"]
        assert "PASS" in conformance.format_coverage_gate(verdict)

    def test_nested_rate_anomaly_detected(self):
        protocols = {"whp_ba": {"conformance": {
            "monitors": {"coin": {"agreement_rate": {"conformant": False}}},
        }}}
        verdict = self.gate(0, protocols)
        assert not verdict["ok"]
        assert any("agreement_rate" in a for a in verdict["anomalies"])

    def test_no_coverage_accounting_is_vacuous(self):
        verdict = conformance.coverage_gate({"protocols": {}})
        assert verdict["ok"]
        assert "vacuous" in conformance.format_coverage_gate(verdict)


class TestCoverageCLI:
    def check(self, tmp_path, monkeypatch, seeds="2"):
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--n", "16", "--seeds", seeds,
                     "--protocols", "whp_ba"]) == 0

    def test_check_seeds_atlas_then_views_render(self, capsys, tmp_path, monkeypatch):
        self.check(tmp_path, monkeypatch)
        capsys.readouterr()
        assert (tmp_path / "BENCH_coverage_atlas.jsonl").exists()
        assert main(["coverage"]) == 0
        out = capsys.readouterr().out
        assert "coverage atlas" in out and "runs recorded" in out

    def test_recording_view(self, capsys, tmp_path, monkeypatch):
        self.check(tmp_path, monkeypatch)
        assert main(["record", "--n", "16", "--seed", "5",
                     "--out", "flight.jsonl"]) == 0
        capsys.readouterr()
        assert main(["coverage", "flight.jsonl"]) == 0
        out = capsys.readouterr().out
        assert "coverage of flight.jsonl" in out
        assert "vs atlas" in out

    def test_gate_passes_after_fresh_check(self, capsys, tmp_path, monkeypatch):
        self.check(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["coverage", "--gate"]) == 0
        assert "GATE: PASS" in capsys.readouterr().out

    def test_gate_without_check_diagnosed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match="no conformance record"):
            main(["coverage", "--gate"])

    # What `coverage_gate` alone would pass as vacuous (no "coverage" key):
    # the gate refuses every file that is not a conformance payload.
    WRAPPED = {"schema": "repro.trends", "version": 1, "ts": 1.0,
               "commit": None, "payload": {"ok": True, "protocols": {}}}

    @pytest.mark.parametrize("content", [
        None, '{"protocols": {"whp_ba"', json.dumps(WRAPPED),
    ], ids=["missing", "not_json", "wrapped"])
    def test_gate_refuses_a_file_it_cannot_judge(
        self, content, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        if content is not None:
            (tmp_path / "BENCH_conformance.json").write_text(content)
        if content == json.dumps(self.WRAPPED):
            assert conformance.coverage_gate(self.WRAPPED)["ok"]
        with pytest.raises(SystemExit) as excinfo:
            main(["coverage", "--gate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro coverage: ") and err.count("\n") == 1
        assert "BENCH_conformance.json" in err

    def test_missing_recording_diagnosed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match="no such recording"):
            main(["coverage", "nope.jsonl"])

    def test_damaged_atlas_diagnosed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_coverage_atlas.jsonl").write_text(
            '{"schema": "other.thing"}\n'
        )
        with pytest.raises(SystemExit, match="repro coverage:.*other.thing"):
            main(["coverage"])
        # and `repro check` refuses to append to it rather than mixing schemas
        with pytest.raises(SystemExit, match="repro check:"):
            main(["check", "--n", "16", "--seeds", "1", "--protocols", "whp_ba"])

    def test_coverage_listed(self, capsys):
        assert main(["list"]) == 0
        assert "coverage" in capsys.readouterr().out


class TestDashboardCoverage:
    def test_coverage_section_renders(self, tmp_path):
        atlas = seeded_atlas(tmp_path, [
            ("a", ["race:x:A^B"]), ("b", ["race:x:A^B", "perm:x:A>B"]),
        ])
        html, diagnostics = build_dashboard(tmp_path)
        assert "Schedule coverage" in html and "2 distinct signatures" in html
        assert not any("coverage atlas" in d for d in diagnostics)

    def test_empty_atlas_becomes_diagnostic(self, tmp_path):
        html, diagnostics = build_dashboard(tmp_path)
        assert any("no coverage atlas" in d for d in diagnostics)

    def test_unreadable_atlas_becomes_diagnostic(self, tmp_path):
        atlas = CoverageAtlas(tmp_path)
        atlas.path.write_text("not json\n")
        html, diagnostics = build_dashboard(tmp_path)
        assert any(f"cannot read {atlas.path}" in d for d in diagnostics)
