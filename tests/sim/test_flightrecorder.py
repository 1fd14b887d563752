"""Flight recordings: persistence (the v5 file, its lazy replay and
what the loader rejects), replay fidelity, critical path, one-run-per-recorder,
the recorder's streaming fold against a kept log, observability under
mid-run corruption, and the ordering facts a test can read off an event
log.  (Observer-effect freedom is
``test_observers.py``'s; the one summary per flight is
``test_payload_memo.py``'s.)"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import random
import tracemalloc

import pytest

from repro.core.agreement import byzantine_agreement
from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.crypto.pki import PKI
from repro.experiments.forensics import explain_recording, format_explain, run_header
from repro.experiments.protocols import PROTOCOLS
from repro.experiments.scenarios import SCENARIOS, resolve_run
from repro.experiments.store import to_jsonable
from repro.sim.adversary import (
    Adversary,
    CommitteeTargetingCorruption,
    RandomScheduler,
    ReplayScheduler,
    StaticCorruption,
)
from repro.sim import flightrecorder
from repro.sim.diffing import diff_recordings
from repro.sim.events import CorruptEvent, DecideEvent, DeliverEvent, PayloadSummary
from repro.sim.flightrecorder import (
    SCHEDULE_LINE,
    EventLog,
    FlightRecorder,
    _seal,
    code_digest,
    critical_path,
    load_recording,
    save_recording,
    stream_digest,
)
from repro.sim.lossy import LossyLinkConfig
from repro.sim.network import Simulation
from repro.sim.runner import RunResult, run_protocol, stop_when_all_decided

from tests.sim.test_payload_memo import run_named

N, F = 12, 2


def ba_args(n=N, f=F):
    params = ProtocolParams.simulation_scale(n=n, f=f)
    return dict(
        corrupt=set(range(f)),
        params=params,
        stop_condition=stop_when_all_decided,
        max_deliveries=200_000,
    )


def ba_factory(ctx):
    return byzantine_agreement(ctx, ctx.pid % 2)


class TestObserverEffect:
    def test_profiled_run_differs_only_in_timings(self):
        bare = run_protocol(N, F, ba_factory, seed=5, **ba_args())
        profiled = run_protocol(N, F, ba_factory, seed=5, profile=True, **ba_args())
        assert profiled.metrics.phase_timings
        assert not bare.metrics.phase_timings
        assert bare.metrics.to_dict(include_timings=False) == (
            profiled.metrics.to_dict(include_timings=False)
        )
        assert bare.decisions == profiled.decisions
        assert bare.deliveries == profiled.deliveries


class TestSurface:
    def test_recorder_surface_is_pinned(self):
        """The perf ledger's adapter (``benchmarks/perf``, not editable by a
        change that claims a gain) calls exactly this."""
        import inspect

        assert list(inspect.signature(FlightRecorder.__init__).parameters) == ["self"]
        assert list(inspect.signature(save_recording).parameters) == [
            "path", "recorder", "result", "protocol",
        ]
        assert list(inspect.signature(load_recording).parameters) == ["path"]


class TestRoundTrip:
    def test_save_load_preserves_events_and_summary(self, tmp_path):
        recorder, log = FlightRecorder(), EventLog()
        result = resolve_run("whp_ba", N, f=F, seed=3).run(observers=[recorder, log])
        path = save_recording(tmp_path / "run.jsonl", recorder, result, protocol="whp_ba")
        recording = load_recording(path)
        assert recording.schedule() == recorder.schedule() == log.schedule()
        assert list(recording.events) == log.events
        assert recording.header["n"] == N
        assert recording.header["f"] == F
        assert recording.header["seed"] == 3
        assert recording.summary["deliveries"] == result.deliveries
        assert recording.summary["words"] == result.words
        assert recording.summary["protocol"]["rounds"] == to_jsonable(
            result.metrics.rounds()
        )

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"k": "header", "schema": "repro.flight", "version": 99}\n')
        with pytest.raises(ValueError, match="version"):
            load_recording(path)
        path.write_text('{"k": "send"}\n')
        with pytest.raises(ValueError, match="no header"):
            load_recording(path)


class TestReplayFidelity:
    def run_recorded(self, scheduler_or_seed, pki, corruption):
        if isinstance(scheduler_or_seed, int):
            scheduler = RandomScheduler(random.Random(scheduler_or_seed))
        else:
            scheduler = scheduler_or_seed
        sim = Simulation(
            n=N, f=F, pki=pki,
            adversary=Adversary(scheduler=scheduler, corruption=corruption),
            seed=7, params=ProtocolParams.simulation_scale(n=N, f=F),
            stop_condition=stop_when_all_decided,
            max_deliveries=200_000,
        )
        recorder = sim.events.attach(EventLog())
        sim.set_protocol_all(ba_factory)
        sim.run()
        return sim, recorder

    def test_replay_reproduces_event_log_and_round_metrics(self):
        pki = PKI.create(N, rng=random.Random(7))
        original, recorded = self.run_recorded(7, pki, StaticCorruption({0, 1}))
        replayed, replay_log = self.run_recorded(
            ReplayScheduler(recorded.schedule()), pki, StaticCorruption({0, 1}),
        )
        assert replay_log.events == recorded.events
        assert replayed.metrics.rounds() == original.metrics.rounds()
        assert replayed.metrics.protocol_summary() == (
            original.metrics.protocol_summary()
        )
        assert RunResult.of(replayed).decisions == RunResult.of(original).decisions

    def test_replay_reproduces_adaptive_corruptions(self):
        """Mid-run corruption is schedule-determined, so a replay re-corrupts
        the same processes at the same steps."""
        pki = PKI.create(N, rng=random.Random(7))
        corruption = CommitteeTargetingCorruption(message_kinds=("FirstMsg",))
        original, recorded = self.run_recorded(7, pki, corruption)
        corrupt_events = [
            e for e in recorded.events if isinstance(e, CorruptEvent)
        ]
        assert corrupt_events, "the targeting adversary corrupted nobody"
        assert {e.pid for e in corrupt_events} == original.corrupted
        # Corruptions happen mid-run (after deliveries started), not at setup.
        assert any(e.step > 0 for e in corrupt_events)
        replayed, replay_log = self.run_recorded(
            ReplayScheduler(recorded.schedule()), pki,
            CommitteeTargetingCorruption(message_kinds=("FirstMsg",)),
        )
        assert replayed.corrupted == original.corrupted
        assert replay_log.events == recorded.events


class TestCriticalPath:
    def coin_events(self, protocol, seed=3):
        pki = PKI.create(N, rng=random.Random(seed))
        sim = Simulation(
            n=N, f=F, pki=pki,
            adversary=Adversary(
                scheduler=RandomScheduler(random.Random(seed)),
                corruption=StaticCorruption({0, 1}),
            ),
            seed=seed, params=ProtocolParams.simulation_scale(n=N, f=F),
        )
        log = sim.events.attach(EventLog())
        sim.set_protocol_all(protocol)
        sim.run()
        return sim, log.events

    def test_empty_without_decisions(self):
        _, events = self.coin_events(lambda ctx: shared_coin(ctx, 0))
        assert critical_path(events) == []

    def test_chain_spans_every_depth(self):
        log = EventLog()
        result = run_protocol(
            N, F, ba_factory, seed=3,
            observers=[log], **ba_args(),
        )
        chain = critical_path(log.events)
        assert chain, "a decided run must have a critical path"
        decide = chain[-1]
        assert decide["kind"] == "decide"
        assert decide["depth"] == result.duration
        hops = [entry for entry in chain if entry["kind"] == "deliver"]
        assert [hop["depth"] for hop in hops] == list(
            range(1, result.duration + 1)
        )
        # Chain is causally consistent: sender of each hop is the
        # destination of the previous one.
        for earlier, later in zip(hops, hops[1:]):
            assert later["sender"] == earlier["dest"]
        assert decide["pid"] == hops[-1]["dest"]
        # Steps never decrease along the chain.
        steps = [entry["step"] for entry in chain]
        assert steps == sorted(steps)

    def test_survives_json_round_trip(self, tmp_path):
        recorder, log = FlightRecorder(), EventLog()
        result = resolve_run("whp_ba", N, f=F, seed=3).run(observers=[recorder, log])
        path = save_recording(tmp_path / "run.jsonl", recorder, result, protocol="whp_ba")
        recording = load_recording(path)
        assert critical_path(recording.events) == critical_path(log.events)


def coin_simulation(n=10, f=2, seed=3):
    pki = PKI.create(n, rng=random.Random(seed))
    return Simulation(
        n=n, f=f, pki=pki,
        adversary=Adversary(
            scheduler=RandomScheduler(random.Random(seed)),
            corruption=StaticCorruption(set(range(f))),
        ),
        seed=seed, params=ProtocolParams(n=n, f=f),
    )


class TestOneRunPerRecorder:
    def test_reused_recorder_holds_only_the_latest_run(self, tmp_path):
        recorder, log = FlightRecorder(), EventLog()
        first = run_protocol(N, F, ba_factory, seed=1, observers=[recorder], **ba_args())
        first_schedule, first_stream = recorder.schedule(), recorder.stream
        second = run_protocol(
            N, F, ba_factory, seed=2, observers=[recorder, log], **ba_args()
        )
        # The first run's schedule is left alone for whoever still holds it ...
        assert len(first_schedule) == first.deliveries
        # ... and the recorder now holds exactly the second run.
        assert recorder.schedule() == log.schedule()
        assert len(recorder.schedule()) == second.deliveries
        assert recorder.stream == stream_digest(log.events) != first_stream
        assert recorder.event_count == len(log.events)
        path = save_recording(tmp_path / "run.jsonl", recorder, second)
        assert len(load_recording(path).schedule()) == second.deliveries

    def test_save_rejects_a_log_that_is_not_this_run(self, tmp_path):
        """Raw ``subscribe`` bypasses ``begin_run``, so a recorder left
        subscribed across two hand-built simulations holds both."""
        recorder = FlightRecorder()
        for _ in range(2):
            sim = coin_simulation()
            sim.events.subscribe(recorder.on_event)
            sim.set_protocol_all(lambda ctx: shared_coin(ctx, 0))
            sim.run()
        result = RunResult.of(sim)
        assert len(recorder.schedule()) == 2 * result.deliveries
        path = tmp_path / "two_runs.jsonl"
        with pytest.raises(ValueError, match="did not record exactly this run"):
            save_recording(path, recorder, result)
        assert not path.exists()


def run_traced_coin():
    sim = coin_simulation()
    sim.set_protocol_all(lambda ctx: shared_coin(ctx, 0))
    trace = sim.events.attach(EventLog())
    sim.run()
    return sim, trace


class TestAttachedTrace:
    """Ordering facts the aggregate metrics cannot express, read off an
    event log."""

    def test_counts_match_metrics(self):
        sim, trace = run_traced_coin()
        assert len(trace.of_kind("send")) == sim.metrics.messages_sent_total
        assert len(trace.of_kind("deliver")) == sim.metrics.messages_delivered

    def test_corruptions_recorded(self):
        sim, trace = run_traced_coin()
        corrupted = {event.pid for event in trace.of_kind("corrupt")}
        assert corrupted == sim.corrupted == {0, 1}

    def test_second_sent_after_first_quorum(self):
        """Protocol-order fact: every correct process's SECOND broadcast
        happens only after it delivered n-f FIRST messages."""
        sim, trace = run_traced_coin()
        quorum = sim.n - sim.f
        delivers = trace.of_kind("deliver")
        for pid in sim.correct_pids:
            second_sends = trace.sends_by(pid, "SecondMsg")
            assert second_sends  # every correct process reaches phase 2
            assert len(trace.sends_by(pid)) > len(second_sends)
            first_send_step = second_sends[0].step
            firsts_before = [
                event
                for event in delivers
                if event.dest == pid
                and event.message_kind == "FirstMsg"
                and event.step <= first_send_step
            ]
            assert len(firsts_before) >= quorum

    def test_send_events_carry_instance(self):
        _, trace = run_traced_coin()
        sends = trace.of_kind("send")
        assert all(event.instance == ("shared_coin", 0) for event in sends)

    def test_attach_is_idempotent(self):
        """Attaching twice must not double-record every event."""
        sim = coin_simulation()
        sim.set_protocol_all(lambda ctx: shared_coin(ctx, 0))
        trace = EventLog()
        assert sim.events.attach(trace) is trace
        sim.events.attach(trace)
        sim.run()
        assert len(trace.of_kind("deliver")) == sim.metrics.messages_delivered

    def test_deliver_detail_is_immutable_summary(self):
        """The log keeps a snapshot of the payload, never the live object."""
        _, trace = run_traced_coin()
        deliver = trace.of_kind("deliver")[0]
        assert not hasattr(deliver, "payload")
        summary = deliver.summary
        assert isinstance(summary, PayloadSummary)
        assert summary.kind == deliver.message_kind
        assert summary.instance == deliver.instance
        assert summary.words > 0
        assert summary.kind in summary.text
        with pytest.raises(dataclasses.FrozenInstanceError):
            summary.words = 0


# -- the v5 file on real runs ---------------------------------------------------


class TestCodecOnRealRuns:
    @pytest.mark.parametrize(
        "name, n",
        [("whp_ba", 16), ("mmr+alg1", 10), ("byz_split", 8), ("lossy_uniform", 8),
         ("dup_storm", 8)],
    )
    def test_loaded_events_equal_the_recorders(self, name, n, tmp_path):
        recorder, log = FlightRecorder(), EventLog()
        result = run_named(name, n, 2, [recorder, log])
        recording = load_recording(
            save_recording(tmp_path / "run.jsonl", recorder, result, protocol=name)
        )
        assert recording.schedule() == recorder.schedule() == log.schedule()
        assert recording.events == tuple(log.events)
        assert recording.header["stream"] == stream_digest(log.events) == recorder.stream
        assert recording.header["events"] == len(log.events)

    def test_same_seed_recorded_twice_is_byte_identical(self, tmp_path):
        paths = []
        for attempt in range(2):
            recorder = FlightRecorder()
            result = run_named("whp_ba", 12, 4, [recorder])
            paths.append(save_recording(
                tmp_path / f"{attempt}.jsonl", recorder, result, protocol="whp_ba"
            ))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # The replayed events hash to the recorded stream digest.
        loaded = load_recording(paths[0])
        assert stream_digest(loaded.events) == loaded.header["stream"]

    def test_bytes_per_event_budget(self, tmp_path):
        """v2 spent ~1,000 bytes per event at this size (the payload text
        on every deliver line) and v4 under 160; v5 stores 16 base64
        bytes per delivery, whatever the events, plus the fixed header,
        footer and line framing."""
        recorder = FlightRecorder()
        result = run_named("whp_ba", 24, 1, [recorder])
        path = save_recording(tmp_path / "run.jsonl", recorder, result)
        assert recorder.event_count > 5_000
        lines = path.read_bytes().splitlines()
        schedule = lines[1:-1]
        assert len(schedule) == -(-result.deliveries // SCHEDULE_LINE)
        framing = len(b'{"k":"schedule","packed":""}')
        assert sum(len(line) - framing for line in schedule) == 16 * result.deliveries
        assert path.stat().st_size / recorder.event_count < 16

    def test_nothing_is_left_behind_when_the_count_check_fails(self, tmp_path):
        recorder = FlightRecorder()
        result = run_named("whp_ba", 8, 1, [recorder])
        good = save_recording(tmp_path / "run.jsonl", recorder, result)
        before = good.read_bytes()
        other = FlightRecorder()
        assert run_named("whp_ba", 8, 2, [other]).deliveries != result.deliveries
        with pytest.raises(ValueError, match="did not record exactly this run"):
            save_recording(good, other, result)
        # The older file survives and no partial file stays.
        assert good.read_bytes() == before
        assert [path.name for path in tmp_path.iterdir()] == ["run.jsonl"]


def streaming_cases():
    """Every ``repro list`` name, a lossy run and a mid-run corruption."""
    names = [*PROTOCOLS, *SCENARIOS]
    lossy = dataclasses.replace(
        resolve_run("whp_ba", 16, seed=5),
        lossy=LossyLinkConfig(duplicate_rate=0.3, reorder_rate=0.3),
    )
    adaptive = dataclasses.replace(
        resolve_run("whp_ba", 12, seed=7),
        corruption=CommitteeTargetingCorruption(message_kinds=("FirstMsg",)),
    )
    return [
        *(pytest.param(resolve_run(name, 16, seed=1), id=name) for name in names),
        pytest.param(lossy, id="lossy"),
        pytest.param(adaptive, id="mid-run-corruption"),
    ]


class TestStreamingFold:
    """The recorder folds each event as it arrives into exactly what a
    kept log gives: the digest, the schedule and the corruptions."""

    @pytest.mark.parametrize("spec", streaming_cases())
    def test_the_fold_is_the_log(self, spec, monkeypatch):
        recorder, log = FlightRecorder(), EventLog()
        spec.run(observers=[recorder, log])
        events = log.events
        assert recorder.stream == stream_digest(events)
        assert recorder.schedule() == log.schedule()
        assert recorder.event_count == len(events)
        assert recorder.corruptions == [
            [event.pid, event.step] for event in events if type(event) is CorruptEvent
        ]
        # A summary cache of one entry drops every summary the moment
        # the next one arrives; the digest cannot tell.
        monkeypatch.setattr(flightrecorder, "_SUMMARY_CACHE", 1)
        assert stream_digest(events) == recorder.stream
        flushed = FlightRecorder()
        spec.run(observers=[flushed])
        assert flushed.stream == recorder.stream

    def test_the_summary_cache_is_bounded(self):
        log = EventLog()
        run_named("whp_ba", 16, 3, [log])
        summaries = {id(e.summary) for e in log.events if type(e) is DeliverEvent}
        assert len(summaries) > flightrecorder._SUMMARY_CACHE
        recorder = FlightRecorder()
        for event in log.events:
            recorder.on_event(event)
            assert len(recorder._summaries) <= flightrecorder._SUMMARY_CACHE
        assert recorder.stream == stream_digest(log.events)

    def test_a_read_mid_block_changes_nothing(self):
        log = EventLog()
        run_named("whp_ba", 8, 1, [log])
        recorder = FlightRecorder()
        for position, event in enumerate(log.events):
            recorder.on_event(event)
            if position % 97 == 0:
                assert recorder.stream == stream_digest(log.events[:position + 1])
        assert recorder.stream == stream_digest(log.events)


class TestStreamDigest:
    ECHO = PayloadSummary("EchoMsg", ("ba", 0), 3, "EchoMsg(value=1)")

    def deliver(self, summary, **changes):
        fields = dict(step=1, seq=1, sender=1, dest=2, instance=summary.instance,
                      message_kind=summary.kind, words=summary.words, depth=1,
                      sent_step=0, summary=summary)
        return DeliverEvent(**{**fields, **changes})

    def test_it_is_type_exact(self):
        """``1 == True == 1.0`` and ``(1,) == [1]`` as labels would be a
        collision; each gives its own digest."""
        values = [1, True, 1.0, (0, 1), [0, 1], "1", None]
        digests = {stream_digest([DecideEvent(1, 0, value, 3)]) for value in values}
        assert len(digests) == len(values)

    def test_summaries_digest_by_value_and_every_field_counts(self):
        twin = dataclasses.replace(self.ECHO)  # equal value, another object
        shared = [self.deliver(self.ECHO), self.deliver(self.ECHO, seq=2)]
        assert stream_digest(shared) == stream_digest(
            [self.deliver(self.ECHO), self.deliver(twin, seq=2)]
        )
        changed = [
            [self.deliver(self.ECHO), self.deliver(self.ECHO, seq=3)],
            [self.deliver(self.ECHO), self.deliver(self.ECHO, seq=2, words=4)],
            [self.deliver(self.ECHO),
             self.deliver(dataclasses.replace(self.ECHO, text="EchoMsg(value=0)"), seq=2)],
            [self.deliver(self.ECHO),
             self.deliver(dataclasses.replace(self.ECHO, words=4), seq=2)],
            shared[::-1],
        ]
        digests = {stream_digest(events) for events in changed}
        assert stream_digest(shared) not in digests and len(digests) == len(changed)

    def test_an_object_it_cannot_encode_is_refused(self):
        with pytest.raises(ValueError):
            stream_digest([DecideEvent(1, 0, object(), 3)])


# -- what the loader rejects -------------------------------------------------------


@pytest.fixture(scope="module")
def good_lines(tmp_path_factory):
    recorder = FlightRecorder()
    result = run_named("whp_ba", 8, 1, [recorder])
    path = save_recording(
        tmp_path_factory.mktemp("rec") / "run.jsonl", recorder, result, protocol="whp_ba"
    )
    return path.read_text().splitlines()


def first_line(lines, kind):
    return next(i for i, line in enumerate(lines) if json.loads(line)["k"] == kind)


def edited(lines, index, **changes):
    record = json.loads(lines[index])
    record.update(changes)
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return lines[:index] + [line] + lines[index + 1:]


def with_first_delivery(lines, seq):
    """``lines`` with the first scheduled delivery's seq set to ``seq``."""
    index = first_line(lines, "schedule")
    packed = bytearray(base64.b64decode(json.loads(lines[index])["packed"]))
    packed[:4] = seq.to_bytes(4, "little")
    return edited(lines, index, packed=base64.b64encode(packed).decode())


def write_lines(path, lines, seal=False):
    path.write_text("\n".join(lines) + "\n")
    if seal:
        _seal(path)
    return path


class TestDigest:
    """The header's digest seals every other byte of the file, so an edit
    that still parses is refused by name instead of loading."""

    def test_it_is_the_sha256_of_the_file_with_its_own_digits_zeroed(
        self, good_lines
    ):
        digest = json.loads(good_lines[0])["digest"]
        data = ("\n".join(good_lines) + "\n").encode()
        assert data.count(digest.encode()) == 1
        unsealed = data.replace(digest.encode(), b"0" * 64)
        assert hashlib.sha256(unsealed).hexdigest() == digest

    @pytest.mark.parametrize(
        "index, change",
        [(0, {"n": 9}), (0, {"seed": 2}), (0, {"corrupted": []}),
         (0, {"digest": "f" * 64}), ("deliver", {"seq": 10**6}),
         ("summary", {"words": 0})],
    )
    def test_an_edit_that_still_parses_is_refused(
        self, tmp_path, good_lines, index, change
    ):
        if index == "deliver":  # the first delivery of the packed schedule
            lines = with_first_delivery(good_lines, change["seq"])
        else:
            if isinstance(index, str):
                index = first_line(good_lines, index)
            lines = edited(good_lines, index, **change)
        path = write_lines(tmp_path / "edited.jsonl", lines)
        with pytest.raises(ValueError) as excinfo:
            load_recording(path)
        assert str(excinfo.value) == (
            f"{path}: digest mismatch: the file is not the one that was "
            "recorded (edited or damaged); re-record the run"
        )

    def test_a_header_without_a_digest_is_refused(self, tmp_path, good_lines):
        header = json.loads(good_lines[0])
        del header["digest"]
        path = write_lines(tmp_path / "bare.jsonl", [json.dumps(header)] + good_lines[1:])
        with pytest.raises(ValueError, match="digest mismatch"):
            load_recording(path)


def one_line_error(path, match, events=False):
    """Loading ``path`` (and, with ``events``, replaying it) fails with
    one line that names the file; returns that line."""
    with pytest.raises(ValueError, match=match) as excinfo:
        recording = load_recording(path)
        if events:
            recording.events
    message = str(excinfo.value)
    assert "\n" not in message
    assert message.startswith(f"{path}: ")
    return message


class TestMalformedRecordings:
    def rejected(self, tmp_path, lines, lineno, match):
        """Loading ``lines`` fails with one line naming the file and ``lineno``."""
        path = write_lines(tmp_path / "edited.jsonl", lines)
        message = one_line_error(path, match)
        assert message.startswith(f"{path}: line {lineno}: ")

    def test_the_unedited_file_loads(self, tmp_path, good_lines):
        recording = load_recording(write_lines(tmp_path / "good.jsonl", good_lines))
        assert recording.summary["k"] == "summary"
        assert len(recording.schedule()) == recording.summary["deliveries"]

    def test_event_line_after_the_footer(self, tmp_path, good_lines):
        stray = json.dumps({"k": "corrupt", "step": 0, "pid": 1})
        self.rejected(
            tmp_path, good_lines + [stray], len(good_lines) + 1,
            "'corrupt' line follows the summary footer",
        )

    def test_second_footer(self, tmp_path, good_lines):
        self.rejected(
            tmp_path, good_lines + [good_lines[-1]], len(good_lines) + 1,
            "'summary' line follows the summary footer",
        )

    def test_missing_and_surplus_fields(self, tmp_path, good_lines):
        index = first_line(good_lines, "schedule")
        record = json.loads(good_lines[index])
        del record["packed"]
        lines = good_lines[:index] + [json.dumps(record)] + good_lines[index + 1:]
        self.rejected(tmp_path, lines, index + 1, "neither a schedule line")
        self.rejected(
            tmp_path, edited(good_lines, index, count=3), index + 1,
            "neither a schedule line",
        )

    def test_a_v2_file_gets_the_re_record_diagnostic(self, tmp_path, good_lines):
        path = write_lines(tmp_path / "v2.jsonl", edited(good_lines, 0, version=2))
        with pytest.raises(ValueError) as excinfo:
            load_recording(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: unknown repro.flight schema version 2")
        assert "re-record the run" in message and "\n" not in message

    def test_a_v4_file_gets_the_re_record_diagnostic(self, tmp_path, good_lines):
        header = {"k": "header", "schema": "repro.flight", "version": 4, "n": 8}
        path = write_lines(tmp_path / "v4.jsonl", [json.dumps(header)] + good_lines[1:])
        assert one_line_error(path, "schema version 4").endswith(
            "re-record the run or load it with a matching build"
        )


class TestDamagedRecordings:
    """Each way a v5 file goes wrong gives one line naming the file; the
    edits are resealed, so the check under test is not the file digest."""

    def test_a_flipped_schedule_byte(self, tmp_path, good_lines):
        index = first_line(good_lines, "schedule")
        packed = json.loads(good_lines[index])["packed"]
        flipped = ("B" if packed[0] == "A" else "A") + packed[1:]
        lines = edited(good_lines, index, packed=flipped)
        # Unsealed, the file digest refuses it at load ...
        one_line_error(write_lines(tmp_path / "raw.jsonl", lines), "digest mismatch")
        # ... resealed, the replay does: the first delivery is another seq.
        sealed = write_lines(tmp_path / "sealed.jsonl", lines, seal=True)
        load_recording(sealed)
        one_line_error(sealed, "replay failed: replay step 0 expects seq", events=True)

    def test_a_reordered_schedule_fails_the_stream_digest(self, tmp_path, good_lines):
        """Two deliveries that were both in flight swap places: the
        replay runs, but its events are not the recorded ones."""
        recording = load_recording(write_lines(tmp_path / "good.jsonl", good_lines))
        schedule, events = list(recording.schedule()), recording.events
        sent = {event.seq: event.step for event in events if type(event) is not DeliverEvent
                and hasattr(event, "seq")}
        swap = next(
            i for i in range(len(schedule) - 1)
            if sent[schedule[i + 1][0]] == sent[schedule[i][0]]
            and schedule[i][2] == schedule[i + 1][2]
        )
        schedule[swap], schedule[swap + 1] = schedule[swap + 1], schedule[swap]
        packed = base64.b64encode(
            b"".join(v.to_bytes(4, "little") for triple in schedule for v in triple)
        ).decode()
        header, footer = good_lines[0], good_lines[-1]
        lines = [header] + [
            json.dumps({"k": "schedule", "packed": packed[i:i + 16 * SCHEDULE_LINE]})
            for i in range(0, len(packed), 16 * SCHEDULE_LINE)
        ] + [footer]
        path = write_lines(tmp_path / "swapped.jsonl", lines, seal=True)
        message = one_line_error(path, "stream digest mismatch", events=True)
        assert recording.header["stream"] in message
        # Its header is the original's, stream digest and all, yet it
        # does not diff as the original: diff replays both.
        with pytest.raises(ValueError, match="stream digest mismatch"):
            diff_recordings(recording, load_recording(path))

    def test_a_wrong_code_digest(self, tmp_path, good_lines):
        """Other sources load and explain the file (its schedule replays
        under any build), but do not vouch for its events."""
        lines = edited(good_lines, 0, code="0" * 64)
        path = write_lines(tmp_path / "other_build.jsonl", lines, seal=True)
        assert len(load_recording(path).schedule()) == json.loads(lines[-1])["deliveries"]
        message = one_line_error(path, "code digest mismatch", events=True)
        assert code_digest() in message and "re-record the run" in message
        payload = explain_recording(path, minimize=False)
        assert payload["recorded_code"] == "0" * 64
        assert payload["replay_identical"] and payload["failure"] is None
        assert "note: recorded by other repro sources" in format_explain(payload)

    def test_a_truncated_schedule_line(self, tmp_path, good_lines):
        index = first_line(good_lines, "schedule")
        packed = json.loads(good_lines[index])["packed"]
        cut = edited(good_lines, index, packed=packed[:-4])
        path = write_lines(tmp_path / "cut.jsonl", cut, seal=True)
        message = one_line_error(path, "not a whole number of deliveries")
        assert message.startswith(f"{path}: line {index + 1}: schedule: ")
        # A line cut short on disk is not JSON any more.
        raw = good_lines[:index] + [good_lines[index][:100]]
        one_line_error(write_lines(tmp_path / "raw.jsonl", raw), "line 2 is not valid JSON")

    def test_a_missing_footer(self, tmp_path, good_lines):
        path = write_lines(tmp_path / "no_footer.jsonl", good_lines[:-1], seal=True)
        one_line_error(path, "no summary footer after .* deliveries; the recording is truncated")

    def test_trailing_lines(self, tmp_path, good_lines):
        path = write_lines(
            tmp_path / "trailing.jsonl", good_lines + [good_lines[1]], seal=True
        )
        one_line_error(path, "'schedule' line follows the summary footer")

    def test_a_dropped_schedule_line(self, tmp_path, good_lines):
        index = first_line(good_lines, "schedule")
        lines = good_lines[:index] + good_lines[index + 1:]
        path = write_lines(tmp_path / "short.jsonl", lines, seal=True)
        one_line_error(path, "the schedule holds .* deliveries but the footer reports")

    def test_a_headerless_run_has_no_events(self, tmp_path):
        recorder = FlightRecorder()
        result = run_named("whp_ba", 8, 1, [recorder])
        path = save_recording(tmp_path / "anonymous.jsonl", recorder, result)
        assert len(load_recording(path).schedule()) == result.deliveries
        one_line_error(path, "the header names no run to replay", events=True)


class TestSaveMemory:
    def test_saving_an_n64_run_stays_under_a_mebibyte(self, tmp_path):
        """The digest and the schedule lines stream in blocks; a save
        that built the whole schedule as one string peaked at ~5 MiB."""
        recorder = FlightRecorder()
        result = run_named("whp_ba", 64, 1, [recorder])
        code_digest()  # once per process; not what this bounds
        tracemalloc.start()
        try:
            save_recording(tmp_path / "run.jsonl", recorder, result, protocol="whp_ba")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert recorder.event_count > 100_000
        assert peak < 1 << 20


class TestSelfDescribingHeaders:
    """A recording names everything its replay needs, perturbations too."""

    def test_a_perturbed_lossy_config_replays_from_the_header(self, tmp_path):
        spec = resolve_run("whp_ba", 12, seed=5)
        spec = dataclasses.replace(
            spec, lossy=LossyLinkConfig(duplicate_rate=0.3, reorder_rate=0.2)
        )
        recorder, log = FlightRecorder(), EventLog()
        result = spec.run(observers=[recorder, log])
        path = save_recording(
            tmp_path / "lossy.jsonl", recorder, result,
            protocol=run_header(spec, recorder.corruptions),
        )
        recording = load_recording(path)
        assert recording.header["protocol"] == "whp_ba"
        assert recording.header["lossy"] == spec.lossy.to_dict()
        assert recording.events == tuple(log.events)

    def test_mid_run_corruptions_replay_at_their_step(self, tmp_path):
        spec = dataclasses.replace(
            resolve_run("whp_ba", 12, seed=7),
            corruption=CommitteeTargetingCorruption(message_kinds=("FirstMsg",)),
        )
        recorder, log = FlightRecorder(), EventLog()
        result = spec.run(observers=[recorder, log])
        corruptions = [[e.pid, e.step] for e in log.events if type(e) is CorruptEvent]
        assert any(step > 0 for _, step in corruptions)
        assert recorder.corruptions == corruptions
        path = save_recording(
            tmp_path / "adaptive.jsonl", recorder, result,
            protocol=run_header(spec, recorder.corruptions),
        )
        recording = load_recording(path)
        assert recording.header["corrupt_after"] == corruptions
        assert recording.events == tuple(log.events)
