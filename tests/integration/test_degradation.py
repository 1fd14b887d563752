"""The degradation observatory: scenario zoo + lossy-rate sweep curves.

End-to-end coverage for DESIGN.md section 14: every zoo scenario is
recordable and replayable by name, a scenario name's ``@rate`` suffix
round-trips through a recording header, the sweep is deterministic and
estimates a knee, the CLI wires it all together (including the failing
cell exports ``repro explain`` consumes), the dashboard renders the
curve panel, and a zoo recording is accepted as a fuzzer seed.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.degradation import (
    format_degradation,
    smoke_degradation,
    sweep_degradation,
)
from repro.experiments.forensics import explain_recording
from repro.experiments.report import record_run
from repro.experiments.scenarios import (
    SCENARIOS,
    describe_runs,
    parse_scenario_name,
    resolve_run,
)
from repro.sim.flightrecorder import load_recording

N = 8  # smallest n with feasible whp_ba committee parameters


@pytest.fixture(scope="module")
def smoke_payload():
    return smoke_degradation()


@pytest.fixture(scope="module")
def lossy_recording(tmp_path_factory):
    """One recorded swept cell: lossy_uniform pinned at rate 0.1."""
    out = tmp_path_factory.mktemp("zoo") / "flight_lossy.jsonl"
    path, result = record_run(
        out, name="lossy_uniform@0.1", n=N, seed=0,
        profile=False,
    )
    return path, result


class TestScenarioZoo:
    def test_registry_is_self_describing(self):
        assert set(SCENARIOS) >= {
            "byz_split", "lossy_uniform", "targeted_committee_drop",
            "coin_partition", "dup_storm", "reorder_heavy",
        }
        listing = describe_runs()
        for name in SCENARIOS:
            assert name in listing

    def test_unknown_scenario_error_carries_the_listing(self):
        with pytest.raises(ValueError) as excinfo:
            resolve_run("nope", N)
        message = str(excinfo.value)
        for name in SCENARIOS:
            assert name in message

    def test_parse_scenario_name(self):
        assert parse_scenario_name("lossy_uniform") == ("lossy_uniform", None)
        assert parse_scenario_name("lossy_uniform@0.1") == ("lossy_uniform", 0.1)
        with pytest.raises(ValueError):
            parse_scenario_name("lossy_uniform@lots")
        with pytest.raises(ValueError):
            parse_scenario_name("lossy_uniform@1.5")
        assert parse_scenario_name("dup_storm@0.2")[0] in SCENARIOS
        assert "whp_ba" not in SCENARIOS

    def test_explicit_rate_wins_over_suffix(self):
        spec = resolve_run("lossy_uniform@0.1", N, rate=0.2)
        assert spec.rate == 0.2
        assert spec.name == "lossy_uniform@0.2"
        # The default rate produces the bare name (recordings of the
        # default cell need no suffix to replay right).
        assert resolve_run("lossy_uniform", N).name == "lossy_uniform"

    def test_every_scenario_records(self, tmp_path):
        for name in SCENARIOS:
            path, result = record_run(
                tmp_path / f"flight_{name}.jsonl", name=name, n=N, seed=0,
                profile=False,
            )
            assert path.exists()
            assert result.deliveries > 0
            header = load_recording(path).header
            # byz_split's default rate is 0 -> bare name; the rest record
            # under their default-rate bare names too.
            assert header["protocol"] == name

    def test_rate_suffix_round_trips_and_replays(self, lossy_recording):
        path, _ = lossy_recording
        assert load_recording(path).header["protocol"] == "lossy_uniform@0.1"
        payload = explain_recording(path, minimize=False)
        assert payload["protocol"] == "lossy_uniform@0.1"
        # Seq-exact replay rebuilt the same lossy config from the name:
        # the event logs (including fault effects) match bit for bit.
        assert payload["replay_identical"] is True


class TestSweep:
    def test_smoke_sweep_is_deterministic(self, smoke_payload):
        twin = smoke_degradation()
        assert json.dumps(smoke_payload, sort_keys=True) == json.dumps(
            twin, sort_keys=True
        )

    def test_healthy_origin_and_knee(self, smoke_payload):
        origin = smoke_payload["points"][0]
        assert origin["rate"] == 0.0
        assert origin["decide_rate"] == 1.0
        assert origin["link_faults"] == {
            "drops": 0, "duplicates": 0, "reorders": 0, "corruptions": 0,
        }
        low, high = origin["decide_rate_interval"]
        assert 0.0 <= low <= origin["decide_rate"] <= high <= 1.0
        # At rate 0.3 the smoke sweep's runs all deadlock: the knee lands
        # on the first sub-threshold point.
        knee = smoke_payload["knee"]
        assert knee is not None and knee["rate"] == 0.3
        assert knee["decide_rate"] < smoke_payload["threshold"]
        assert "knee" in format_degradation(smoke_payload)

    def test_exports_failing_cells_for_explain(self, tmp_path):
        payload = sweep_degradation(
            scenario="lossy_uniform", n=N, rates=(0.3,), seeds=1,
            export_dir=tmp_path,
        )
        assert payload["exports"] == ["cell_lossy_uniform_r0.3_s0.jsonl"]
        cell = tmp_path / payload["exports"][0]
        assert load_recording(cell).header["protocol"] == "lossy_uniform@0.3"
        explained = explain_recording(cell, minimize=False)
        assert explained["replay_identical"] is True

    def test_rejects_zero_seeds(self):
        with pytest.raises(ValueError):
            sweep_degradation(seeds=0)


class TestCLI:
    def test_degrade_writes_curve_artifact(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([
            "degrade", "--scenario", "lossy_uniform",
            "--rates", "0,0.3", "--seeds", "2", "--n", str(N),
        ]) == 0
        out = capsys.readouterr().out
        assert "knee: rate 0.3" in out
        artifact = tmp_path / "degradation_lossy_uniform.json"
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        assert payload["kind"] == "degradation"
        assert [point["rate"] for point in payload["points"]] == [0.0, 0.3]
        cells = tmp_path / "degradation_lossy_uniform_cells"
        assert any(cells.glob("cell_*.jsonl"))

    def test_degrade_rejects_bad_rates(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["degrade", "--rates", "0,lots"])
        assert "comma-separated" in str(excinfo.value)

    def test_record_unknown_protocol_lists_the_zoo(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["record", "--protocol", "nope", "--n", str(N)])
        message = str(excinfo.value)
        assert "unknown" in message
        for name in SCENARIOS:
            assert name in message

    def test_report_shows_link_fault_section(self, lossy_recording, capsys):
        path, _ = lossy_recording
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "link faults (lossy model)" in out
        assert "sent by correct" in out
        assert "drops" in out


class TestDashboard:
    def test_renders_degradation_panel(self, smoke_payload, tmp_path):
        from repro.experiments.dashboard import build_dashboard

        sweep = tmp_path / "degradation_lossy_uniform.json"
        sweep.write_text(json.dumps(smoke_payload))
        html, _ = build_dashboard(tmp_path, None, 0.25)
        assert "Degradation curves" in html
        assert f"{sweep} &mdash;" in html
        assert "knee 0.3" in html

    def test_degrades_to_diagnostic_without_a_sweep(self, tmp_path):
        from repro.experiments.dashboard import build_dashboard

        html, diagnostics = build_dashboard(tmp_path, None, 0.25)
        assert "no degradation sweep" in html
        assert any("degrad" in note for note in diagnostics)


class TestFuzzSeeding:
    def test_zoo_recording_accepted_as_fuzz_seed(self, lossy_recording, tmp_path):
        from repro.experiments.fuzzing import fuzz_recording

        path, _ = lossy_recording
        payload = fuzz_recording(
            path, budget=6, atlas_root=tmp_path,
            out=str(tmp_path / "corpus.json"),
        )
        # The lossy seed replays clean (its faults are part of the
        # baseline run, not violations) and fuzzing from it stays green.
        assert payload["baseline_violations"] == []
        assert payload["ok"] is True
        assert payload["realizable"] + payload["unrealizable"] + payload[
            "skipped"
        ] == 6
