"""Flight recordings: persistence (the v3 codec and what the loader
rejects), replay fidelity, critical path, one-run-per-recorder,
observability under mid-run corruption, and the ordering facts a test can
read off a recorder's event log.  (Observer-effect freedom is
``test_observers.py``'s; the one summary per flight is
``test_payload_memo.py``'s.)"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agreement import byzantine_agreement
from repro.core.params import ProtocolParams
from repro.core.shared_coin import shared_coin
from repro.crypto.pki import PKI
from repro.experiments.store import to_jsonable
from repro.sim.adversary import (
    Adversary,
    CommitteeTargetingCorruption,
    RandomScheduler,
    ReplayScheduler,
    StaticCorruption,
)
from repro.sim.events import (
    CorruptEvent,
    DecideEvent,
    DeliverEvent,
    PayloadSummary,
    SendEvent,
)
from repro.sim.flightrecorder import (
    FlightRecorder,
    _seal,
    critical_path,
    decode_events,
    encode_events,
    load_recording,
    save_recording,
)
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
        recorder = FlightRecorder()
        result = run_protocol(
            N, F, ba_factory, seed=3,
            observers=[recorder], **ba_args(),
        )
        path = save_recording(tmp_path / "run.jsonl", recorder, result)
        recording = load_recording(path)
        assert list(recording.events) == recorder.events
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
        recorder = sim.events.attach(FlightRecorder())
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
        recorder = sim.events.attach(FlightRecorder())
        sim.set_protocol_all(protocol)
        sim.run()
        return sim, recorder.events

    def test_empty_without_decisions(self):
        _, events = self.coin_events(lambda ctx: shared_coin(ctx, 0))
        assert critical_path(events) == []

    def test_chain_spans_every_depth(self):
        recorder = FlightRecorder()
        result = run_protocol(
            N, F, ba_factory, seed=3,
            observers=[recorder], **ba_args(),
        )
        chain = critical_path(recorder.events)
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
        recorder = FlightRecorder()
        result = run_protocol(
            N, F, ba_factory, seed=3,
            observers=[recorder], **ba_args(),
        )
        path = save_recording(tmp_path / "run.jsonl", recorder, result)
        recording = load_recording(path)
        assert critical_path(recording.events) == critical_path(recorder.events)


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
        recorder = FlightRecorder()
        first = run_protocol(N, F, ba_factory, seed=1, observers=[recorder], **ba_args())
        first_events = recorder.events
        second = run_protocol(N, F, ba_factory, seed=2, observers=[recorder], **ba_args())
        # The first run's list is left alone for whoever still holds it ...
        assert recorder.events is not first_events
        assert len([e for e in first_events if type(e) is DeliverEvent]) == first.deliveries
        # ... and the recorder now holds exactly the second run.
        assert len(recorder.of_kind("deliver")) == second.deliveries
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
        assert len(recorder.of_kind("deliver")) == 2 * result.deliveries
        path = tmp_path / "two_runs.jsonl"
        with pytest.raises(ValueError, match="did not record exactly this run"):
            save_recording(path, recorder, result)
        assert not path.exists()


def run_traced_coin():
    sim = coin_simulation()
    sim.set_protocol_all(lambda ctx: shared_coin(ctx, 0))
    trace = sim.events.attach(FlightRecorder())
    sim.run()
    return sim, trace


class TestAttachedTrace:
    """Ordering facts the aggregate metrics cannot express, read off a
    recorder's event log."""

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
        trace = FlightRecorder()
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


# -- the v3 codec ------------------------------------------------------------------


def roundtrip(events):
    return list(decode_events(enumerate(encode_events(events), start=1)))


BASE_SEND = SendEvent(step=4, seq=100, sender=2, dest=0, instance=("ba", 0, "est"),
                      message_kind="InitMsg", words=3, depth=1, sender_correct=True)

# How a send may follow the one before it.  "next" continues a send-run;
# every other move must break it: one field changed while seq and dest
# still step by one, a seq gap, a destination that wraps, stays (a lossy
# link's duplicate twin) or skips.
SEND_MOVES = {
    "next": lambda e: {},
    "step": lambda e: {"step": e.step + 1},
    "sender": lambda e: {"sender": e.sender + 1},
    "instance": lambda e: {"instance": ("ba", e.seq, "aux")},
    "message_kind": lambda e: {"message_kind": e.message_kind + "2"},
    "words": lambda e: {"words": e.words + 1},
    "depth": lambda e: {"depth": e.depth + 1},
    "sender_correct": lambda e: {"sender_correct": not e.sender_correct},
    "seq_gap": lambda e: {"seq": e.seq + 2},
    "dest_wrap": lambda e: {"dest": 0},
    "dest_same": lambda e: {"dest": e.dest},
    "dest_skip": lambda e: {"dest": e.dest + 2},
}


def sends_from(moves):
    events = [BASE_SEND]
    for move in moves:
        last = events[-1]
        stepped = dataclasses.replace(last, seq=last.seq + 1, dest=last.dest + 1)
        events.append(dataclasses.replace(stepped, **SEND_MOVES[move](last)))
    return events


class TestSendRuns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(sorted(SEND_MOVES)), max_size=40))
    def test_any_send_sequence_survives_group_then_expand(self, moves):
        events = sends_from(moves)
        lines = list(encode_events(events))
        assert roundtrip(events) == events
        assert sum(line.get("count", 1) for line in lines) == len(events)
        # Exactly the non-"next" moves start a new line.
        assert len(lines) == 1 + sum(move != "next" for move in moves)

    @pytest.mark.parametrize("move", sorted(set(SEND_MOVES) - {"next"}))
    def test_a_run_breaks_at(self, move):
        events = sends_from(["next", "next", move, "next"])
        lines = list(encode_events(events))
        assert [line.get("count", 1) for line in lines] == [3, 2]
        assert roundtrip(events) == events

    def test_a_broadcast_is_one_line_and_a_unicast_has_no_count(self):
        broadcast = sends_from(["next"] * 7)
        (line,) = encode_events(broadcast)
        assert line["count"] == 8 and line["seq"] == 100 and line["dest"] == 0
        (single,) = encode_events([BASE_SEND])
        assert "count" not in single
        assert roundtrip([BASE_SEND]) == [BASE_SEND]

    def test_another_event_kind_ends_the_run(self):
        first, second = sends_from(["next"])
        events = [first, CorruptEvent(step=4, pid=1), second]
        assert [line["k"] for line in encode_events(events)] == ["send", "corrupt", "send"]
        assert roundtrip(events) == events


def deliver(seq, summary, **changes):
    fields = dict(step=seq, seq=seq, sender=1, dest=2, instance=summary.instance,
                  message_kind=summary.kind, words=summary.words, depth=1, sent_step=0,
                  summary=summary)
    return DeliverEvent(**{**fields, **changes})


class TestPayloadTable:
    ECHO = PayloadSummary("EchoMsg", ("ba", 0), 3, "EchoMsg(value=1)")
    OK = PayloadSummary("OkMsg", ("ba", 0), 40, "OkMsg(" + "sig, " * 39 + "sig)")

    def test_each_summary_is_written_once_before_its_first_deliver(self):
        equal_twin = dataclasses.replace(self.ECHO)  # equal value, other object
        events = [deliver(0, self.ECHO), deliver(1, self.OK), deliver(2, equal_twin),
                  deliver(3, self.OK)]
        lines = list(encode_events(events))
        assert [line["k"] for line in lines] == [
            "payload", "deliver", "payload", "deliver", "deliver", "deliver",
        ]
        assert [line["payload_id"] for line in lines if line["k"] == "deliver"] == [0, 1, 0, 1]
        assert all("payload_text" not in line and "payload_words" not in line for line in lines)
        decoded = roundtrip(events)
        assert decoded == events
        # Loaded deliveries share the table's one summary object.
        assert decoded[1].summary is decoded[3].summary

    def test_deliver_lines_keep_their_own_named_fields(self):
        """``k``, ``seq`` and ``words`` stay keys of the deliver line (the
        forensics mutators edit them in place); ``words`` there is the
        event's, independent of the payload line's."""
        event = deliver(7, self.ECHO, words=10)
        _, line = encode_events([event])
        assert (line["k"], line["seq"], line["words"]) == ("deliver", 7, 10)
        assert roundtrip([event]) == [event]
        assert roundtrip([event])[0].summary.words == 3

    def test_non_native_instance_and_value_are_guarded(self):
        odd = PayloadSummary("M", ("ba", frozenset({2, 1})), 1, "M()")
        lines = list(encode_events([deliver(0, odd), DecideEvent(1, 0, {"v": (1, 2)}, 3)]))
        json.dumps(lines)  # must not raise
        assert lines[0]["instance"] == ["ba", [1, 2]]
        assert lines[2]["value"] == {"v": [1, 2]}


class TestCodecOnRealRuns:
    @pytest.mark.parametrize(
        "name, n",
        [("whp_ba", 16), ("mmr+alg1", 10), ("byz_split", 8), ("lossy_uniform", 8),
         ("dup_storm", 8)],
    )
    def test_loaded_events_equal_the_recorders(self, name, n, tmp_path):
        recorder = FlightRecorder()
        result = run_named(name, n, 2, [recorder])
        recording = load_recording(
            save_recording(tmp_path / "run.jsonl", recorder, result, protocol=name)
        )
        assert recording.events == tuple(recorder.events)
        assert recording.schedule() == recorder.schedule()

    def test_same_seed_recorded_twice_is_byte_identical(self, tmp_path):
        paths = []
        for attempt in range(2):
            recorder = FlightRecorder()
            result = run_named("whp_ba", 12, 4, [recorder])
            paths.append(save_recording(tmp_path / f"{attempt}.jsonl", recorder, result))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # Saving what was loaded gives the same event lines again.
        loaded = load_recording(paths[0])
        again = [json.dumps(line, sort_keys=True) for line in encode_events(loaded.events)]
        original = [
            json.dumps(json.loads(line), sort_keys=True)
            for line in paths[0].read_text().splitlines()[1:-1]
        ]
        assert again == original

    def test_bytes_per_event_budget(self, tmp_path):
        """v2 spent ~1,000 bytes per event at this size (the payload text
        on every deliver line); v3's budget is 160."""
        recorder = FlightRecorder()
        result = run_named("whp_ba", 24, 1, [recorder])
        path = save_recording(tmp_path / "run.jsonl", recorder, result)
        assert len(recorder.events) > 5_000
        assert path.stat().st_size / len(recorder.events) < 160
        lines = path.read_text().splitlines()
        sends = [json.loads(line) for line in lines if '"k":"send"' in line]
        assert len(sends) * 24 == sum(line.get("count", 1) for line in sends)

    def test_nothing_is_left_behind_when_the_count_check_fails(self, tmp_path):
        recorder = FlightRecorder()
        result = run_named("whp_ba", 8, 1, [recorder])
        good = save_recording(tmp_path / "run.jsonl", recorder, result)
        before = good.read_bytes()
        recorder.events.pop(
            next(i for i, e in enumerate(recorder.events) if type(e) is DeliverEvent)
        )
        with pytest.raises(ValueError, match="did not record exactly this run"):
            save_recording(good, recorder, result)
        # The older file survives and no partial file stays.
        assert good.read_bytes() == before
        assert [path.name for path in tmp_path.iterdir()] == ["run.jsonl"]


# -- what the loader rejects -------------------------------------------------------


@pytest.fixture(scope="module")
def good_lines(tmp_path_factory):
    recorder = FlightRecorder()
    result = run_named("whp_ba", 8, 1, [recorder])
    path = save_recording(tmp_path_factory.mktemp("rec") / "run.jsonl", recorder, result)
    return path.read_text().splitlines()


def first_line(lines, kind):
    return next(i for i, line in enumerate(lines) if json.loads(line)["k"] == kind)


def edited(lines, index, **changes):
    record = json.loads(lines[index])
    record.update(changes)
    return lines[:index] + [json.dumps(record)] + lines[index + 1:]


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
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
        if isinstance(index, str):
            index = first_line(good_lines, index)
        path = write_lines(tmp_path / "edited.jsonl", edited(good_lines, index, **change))
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


class TestMalformedRecordings:
    def rejected(self, tmp_path, lines, lineno, match):
        """Loading ``lines`` fails with one line naming the file and ``lineno``."""
        path = write_lines(tmp_path / "edited.jsonl", lines)
        with pytest.raises(ValueError, match=match) as excinfo:
            load_recording(path)
        message = str(excinfo.value)
        assert "\n" not in message
        assert message.startswith(f"{path}: line {lineno}: ")

    def test_the_unedited_file_loads(self, tmp_path, good_lines):
        recording = load_recording(write_lines(tmp_path / "good.jsonl", good_lines))
        assert recording.summary["k"] == "summary"

    def test_event_line_after_the_footer(self, tmp_path, good_lines):
        stray = good_lines[first_line(good_lines, "corrupt")]
        self.rejected(
            tmp_path, good_lines + [stray], len(good_lines) + 1,
            "'corrupt' line follows the summary footer",
        )

    def test_second_footer(self, tmp_path, good_lines):
        self.rejected(
            tmp_path, good_lines + [good_lines[-1]], len(good_lines) + 1,
            "'summary' line follows the summary footer",
        )

    def test_deliver_citing_an_unknown_payload_id(self, tmp_path, good_lines):
        index = first_line(good_lines, "deliver")
        self.rejected(
            tmp_path, edited(good_lines, index, payload_id=10**6), index + 1,
            "cites payload id 1000000, which no earlier payload line defines",
        )

    def test_deliver_before_its_payload_line(self, tmp_path, good_lines):
        index = first_line(good_lines, "deliver")
        lines = list(good_lines)
        lines[index - 1], lines[index] = lines[index], lines[index - 1]
        assert json.loads(lines[index])["k"] == "payload"
        self.rejected(tmp_path, lines, index, "no earlier payload line defines")

    def test_duplicate_payload_id(self, tmp_path, good_lines):
        index = first_line(good_lines, "payload")
        lines = good_lines[: index + 1] + [good_lines[index]] + good_lines[index + 1:]
        self.rejected(tmp_path, lines, index + 2, "duplicate payload id 0")

    @pytest.mark.parametrize("count", [0, -3, 1.5, True, "8"])
    def test_send_count_below_one_or_not_an_integer(self, tmp_path, good_lines, count):
        index = first_line(good_lines, "send")
        self.rejected(
            tmp_path, edited(good_lines, index, count=count), index + 1,
            "is not a positive integer",
        )

    def test_missing_and_surplus_fields(self, tmp_path, good_lines):
        index = first_line(good_lines, "deliver")
        record = json.loads(good_lines[index])
        del record["seq"]
        lines = good_lines[:index] + [json.dumps(record)] + good_lines[index + 1:]
        self.rejected(tmp_path, lines, index + 1, "seq")
        self.rejected(
            tmp_path, edited(good_lines, index, payload_text="v2"), index + 1,
            "payload_text",
        )

    def test_a_payload_line_nothing_cites_is_fine(self, tmp_path, good_lines):
        index = first_line(good_lines, "payload")
        spare = json.dumps({**json.loads(good_lines[index]), "id": "spare"})
        with_spare = good_lines[:index] + [spare] + good_lines[index:]
        spare_file = write_lines(tmp_path / "spare.jsonl", with_spare)
        _seal(spare_file)  # the decoder is under test here, not the digest
        assert (
            load_recording(spare_file).events
            == load_recording(write_lines(tmp_path / "good.jsonl", good_lines)).events
        )

    def test_a_v2_file_gets_the_re_record_diagnostic(self, tmp_path, good_lines):
        path = write_lines(tmp_path / "v2.jsonl", edited(good_lines, 0, version=2))
        with pytest.raises(ValueError) as excinfo:
            load_recording(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: unknown repro.flight schema version 2")
        assert "re-record the run" in message and "\n" not in message
