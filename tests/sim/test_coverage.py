"""The coverage probe: deterministic signatures, bounded state, zero
observer effect (see DESIGN.md section 11)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.protocols import make_runner
from repro.sim.coverage import (
    COVERAGE_SCHEMA,
    COVERAGE_SCHEMA_VERSION,
    CoverageProbe,
    coverage_from_events,
    signature_set,
)
from repro.sim.flightrecorder import (
    EventLog,
    FlightRecorder,
    load_recording,
    save_recording,
)
from repro.sim.runner import run_protocol, stop_when_all_decided

N = 20


def covered_run(*observers, seed=3):
    factory, params, f = make_runner("whp_ba", N, seed=seed)
    return run_protocol(
        N, f, factory, corrupt=set(range(f)), params=params,
        stop_condition=stop_when_all_decided, seed=seed,
        observers=observers,
    )


@pytest.fixture(scope="module")
def recorded():
    """One recorded run with a live probe attached (module-scoped: the
    run is the expensive part, the assertions are cheap): the recorder
    and an event log of the run, the probe's snapshot and the result."""
    recorder, log = FlightRecorder(), EventLog()
    probe = CoverageProbe()
    result = covered_run(probe, recorder, log)
    return (recorder, log), probe.snapshot(), result


def canonical(snapshot):
    return json.dumps(snapshot, sort_keys=True)


class TestDeterminism:
    def test_live_equals_replay(self, recorded):
        """The live probe and a replay over the recorded events produce
        byte-identical snapshots: coverage is a pure function of the
        event stream."""
        (_, log), live, _ = recorded
        assert canonical(coverage_from_events(log.events)) == canonical(live)

    def test_disk_roundtrip_equals_live(self, recorded, tmp_path):
        """Recompute from a recording *file*: serialisation must not
        perturb a single signature or count."""
        (recorder, _), live, result = recorded
        path = tmp_path / "flight.jsonl"
        save_recording(path, recorder, result, protocol="whp_ba")
        replayed = coverage_from_events(load_recording(path).events)
        assert canonical(replayed) == canonical(live)

    def test_two_live_probes_identical(self):
        """Two probes watching identical runs agree exactly."""
        first = CoverageProbe()
        second = CoverageProbe()
        covered_run(first)
        covered_run(second)
        assert canonical(first.snapshot()) == canonical(second.snapshot())


class TestSignatures:
    FAMILIES = {"race", "perm", "block", "wake", "waitspan", "delay", "corrupt"}

    def test_schema_and_shape(self, recorded):
        _, snapshot, _ = recorded
        assert snapshot["schema"] == COVERAGE_SCHEMA
        assert snapshot["version"] == COVERAGE_SCHEMA_VERSION
        assert snapshot["total_signatures"] == len(snapshot["signatures"])
        assert snapshot["total_hits"] == sum(snapshot["signatures"].values())
        assert snapshot["counters"]["events"] > 0
        json.dumps(snapshot)  # JSON-ready as promised

    def test_all_families_covered(self, recorded):
        """A full BA run with corruptions exercises every family."""
        _, snapshot, _ = recorded
        assert set(snapshot["families"]) == self.FAMILIES

    def test_signatures_belong_to_known_families(self, recorded):
        _, snapshot, _ = recorded
        for signature in snapshot["signatures"]:
            assert signature.split(":", 1)[0] in self.FAMILIES, signature

    def test_round_numbers_abstracted(self, recorded):
        """Instance classes embed rounds as ``*``: no race/perm
        signature may leak a concrete round id, or signature sets stop
        being comparable across runs."""
        _, snapshot, _ = recorded
        for signature in snapshot["signatures"]:
            family, rest = signature.split(":", 1)
            if family in ("race", "perm"):
                iclass = rest.rsplit(":", 1)[0]
                assert not any(ch.isdigit() for ch in iclass), signature

    def test_cross_seed_overlap(self, recorded):
        """Different seeds cover overlapping structural signatures --
        the point of abstraction: the atlas can accumulate them."""
        _, snapshot, _ = recorded
        other = CoverageProbe()
        covered_run(other, seed=11)
        shared = signature_set(snapshot) & signature_set(other.snapshot())
        assert len(shared) >= 10

    def test_signature_set_helper(self, recorded):
        _, snapshot, _ = recorded
        sigs = signature_set(snapshot)
        assert sigs == set(snapshot["signatures"])
        assert signature_set({}) == set()


class TestBounds:
    def test_tiny_budget_drops_deterministically(self, recorded):
        """An 8-key budget forces drops; the drop pattern is a pure
        function of the stream, so two replays agree exactly."""
        (_, log), _, _ = recorded
        first = coverage_from_events(log.events, signature_budget=8)
        second = coverage_from_events(log.events, signature_budget=8)
        assert first["dropped_signatures"] > 0
        assert canonical(first) == canonical(second)

    def test_budget_caps_tracked_keys(self, recorded):
        (_, log), full, _ = recorded
        capped = coverage_from_events(log.events, signature_budget=8)
        assert capped["total_signatures"] < full["total_signatures"]

    def test_budget_floor_rejected(self):
        with pytest.raises(ValueError, match="at least 8"):
            CoverageProbe(signature_budget=4)
