"""End-to-end schedule fuzzing: mutate a recording, find coverage, bundle.

The acceptance path for the fuzzer (DESIGN.md section 13): fuzzing a
recorded byz_split run must discover schedule-coverage the seed replay
cannot reach (a lossy duplicate puts two Nudges in flight for the same
destination -- a ``race:`` signature family no single-delivery schedule
produces), and every violating candidate must come back as a replayable,
minimized ``*.divergence.json`` bundle that ``repro explain``
classifies like any hand-recorded failure.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.fuzzing import _bundle_counterexample, format_fuzz, fuzz_recording
from repro.experiments.scenarios import resolve_run
from repro.sim.flightrecorder import load_recording
from repro.sim.fuzz import FuzzCandidate
from repro.sim.lossy import LossyLinkConfig

BUDGET = 60  # enough for the race family at this seed, small enough for CI


@pytest.fixture(scope="module")
def byz_recording(tmp_path_factory):
    """A recorded byz_split run: known Agreement violation, 6 deliveries."""
    path = tmp_path_factory.mktemp("fuzz") / "byz.jsonl"
    code = main([
        "record", "--protocol", "byz_split", "--n", "6", "--seed", "0",
        "--no-profile", "--out", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def fuzz_payload(byz_recording):
    return fuzz_recording(
        byz_recording,
        budget=BUDGET,
        seed=1,
        atlas_root=byz_recording.parent,
        out=str(byz_recording.parent / "byz.fuzz"),
    )


class TestFuzzRecording:
    def test_baseline_violation_does_not_fail_the_gate(self, fuzz_payload):
        # byz_split's own Agreement violation is the recording's baseline;
        # re-finding it is expected, not a gate failure.
        assert fuzz_payload["baseline_violations"] == ["safety/Agreement"]
        assert fuzz_payload["new_violations"] == []
        assert fuzz_payload["ok"] is True

    def test_discovers_a_new_signature_family(self, fuzz_payload):
        # The acceptance criterion: coverage the seed schedule cannot
        # reach.  A lossy duplicate races two Nudges to one destination.
        novelty = fuzz_payload["novelty"]
        assert novelty["new_signatures"] >= 1
        assert "race" in novelty["new_families"]
        assert novelty["corpus_size"] >= 2

    def test_candidate_accounting_adds_up(self, fuzz_payload):
        assert (
            fuzz_payload["realizable"]
            + fuzz_payload["unrealizable"]
            + fuzz_payload["skipped"]
            == BUDGET
        )
        tried = sum(
            stats["tried"] for stats in fuzz_payload["mutations"].values()
        )
        assert tried == BUDGET - fuzz_payload["skipped"]

    def test_counterexample_bundle_is_complete(self, byz_recording, fuzz_payload):
        bundles = fuzz_payload["counterexamples"]
        assert bundles, "fuzzing a broken scenario must bundle its violation"
        bundle = bundles[0]
        assert bundle["monitor"] == "safety"
        assert bundle["property"] == "Agreement"
        recording = byz_recording.parent / bundle["recording"]
        divergence = byz_recording.parent / bundle["divergence"]
        assert recording.exists() and divergence.exists()
        payload = json.loads(divergence.read_text())
        assert payload["kind"] == "explain"
        assert payload["source"] == "fuzz"
        # The candidate recipe rides along so the run is reconstructable.
        assert payload["candidate"]["mutation"] == bundle["mutation"]
        assert bundle["minimized_deliveries"] is not None
        assert bundle["minimized_deliveries"] <= fuzz_payload["deliveries"]

    def test_bundle_replays_under_repro_explain(
        self, byz_recording, fuzz_payload, capsys, monkeypatch
    ):
        bundle = fuzz_payload["counterexamples"][0]
        monkeypatch.chdir(byz_recording.parent)
        assert main(["explain", bundle["recording"]]) == 1
        out = capsys.readouterr().out
        # repro explain classifies the bundled failure, and the bundle's
        # header names its candidate's links and corruptions, so any
        # candidate replays event-identically from the file alone.
        assert "failure [violation]" in out
        assert "replay: event log identical" in out

    def test_a_perturbed_candidate_explains_from_its_file_alone(self, tmp_path):
        spec = resolve_run("whp_ba", 8, seed=0)
        candidate = FuzzCandidate(
            schedule=(),
            lossy=LossyLinkConfig(duplicate_rate=0.5, reorder_rate=0.3),
            corrupt_after=tuple((pid, 40) for pid in range(spec.f)),
            explore_seed=3,
            mutation="lossy_explore",
        )
        bundle = _bundle_counterexample(
            str(tmp_path / "whp.fuzz"), 0, spec, candidate,
            ("safety", "Agreement"), explore_cap=5_000, minimize_budget=4,
        )
        header = load_recording(bundle["recording"]).header
        assert header["lossy"] == candidate.lossy.to_dict()
        assert header["corrupt_after"] == [[pid, 40] for pid in range(spec.f)]
        payload = json.loads(open(bundle["divergence"]).read())
        assert payload["replay_identical"] is True

    def test_corpus_file_round_trips(self, byz_recording, fuzz_payload):
        corpus = json.loads(
            (byz_recording.parent / fuzz_payload["corpus_file"]).read_text()
        )
        assert corpus["kind"] == "fuzz_corpus"
        assert len(corpus["entries"]) == fuzz_payload["novelty"]["corpus_size"]
        assert corpus["entries"][0]["mutation"] == "seed"
        # Every non-seed entry earned its place with new signatures.
        assert all(entry["new_signatures"] for entry in corpus["entries"][1:])

    def test_atlas_remembers_across_invocations(self, byz_recording, fuzz_payload):
        # A second campaign over the same recording sees the first one's
        # coverage in the atlas: the race family is no longer novel.
        again = fuzz_recording(
            byz_recording,
            budget=BUDGET,
            seed=1,
            atlas_root=byz_recording.parent,
            out=str(byz_recording.parent / "byz2.fuzz"),
        )
        assert again["novelty"]["atlas_known_before"] > 0
        assert "race" not in again["novelty"]["new_families"]

    def test_format_fuzz_renders_the_summary(self, fuzz_payload):
        text = format_fuzz(fuzz_payload)
        assert "baseline violations: safety/Agreement" in text
        assert "new families: race" in text
        assert "counterexample [safety/Agreement]" in text
        assert text.endswith("ok")

    def test_bench_record_written(self, byz_recording, fuzz_payload):
        bench = json.loads(
            (byz_recording.parent / "BENCH_fuzzing.json").read_text()
        )
        assert bench["name"] == "fuzzing"
        assert bench["payload"]["budget"] == BUDGET
        assert "realizable" in bench["payload"]["novelty"]


class TestFuzzCLI:
    def test_cli_exit_zero_and_summary(self, byz_recording, capsys, monkeypatch):
        monkeypatch.chdir(byz_recording.parent)
        assert main([
            "fuzz", str(byz_recording), "--budget", "20", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "mutation yield" in out
        assert out.strip().endswith("ok")

    def test_cli_requires_a_recording(self):
        with pytest.raises(SystemExit, match="usage"):
            main(["fuzz"])

    def test_clean_recording_fuzzes_ok(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "whp.jsonl"
        assert main([
            "record", "--n", "8", "--seed", "3",
            "--no-profile", "--out", str(path),
        ]) == 0
        capsys.readouterr()
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", str(path), "--budget", "10"]) == 0
        out = capsys.readouterr().out
        assert "baseline violations: none" in out
