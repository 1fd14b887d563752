"""Lossy-link fault injection: config validation, fates, determinism.

The lossy layer is a documented *extension* of the paper's reliable-link
model (DESIGN.md section 13): every submitted message gets at most one
fate -- drop, duplicate, reorder, bit-corrupt -- decided purely from the
run seed, the envelope seq and the link's config (one seeded fate table
per block of 256 seqs).  These tests pin the contract the fuzzer depends
on: an inactive config is byte-invisible, fates are pure, correctly
distributed, deterministic and replayable, and the fast loop commits no
drained batch while a lossy config is active.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.pki import PKI
from repro.sim.adversary import (
    Adversary,
    FIFOScheduler,
    RandomScheduler,
    ReplayScheduler,
    StaticCorruption,
)
from repro.sim.events import event_to_record
from repro.sim.flightrecorder import EventLog
from repro.sim.messages import Message
from repro.sim import lossy as lossy_module
from repro.sim.lossy import LossyLinkConfig, _fate_thresholds, _LossyState
from repro.sim.network import Simulation
from repro.sim.process import Wait

from tests.kernel_reference import dispatched


@dataclass
class Ping(Message):
    payload: int = 0

    def words(self) -> int:
        return 1


def make_sim(n=4, seed=0, scheduler=None, **kwargs):
    pki = PKI.create(n, rng=random.Random(seed))
    adversary = Adversary(
        scheduler=scheduler or RandomScheduler(random.Random(seed)),
        corruption=StaticCorruption(set()),
    )
    return Simulation(n=n, f=0, pki=pki, adversary=adversary, seed=seed, **kwargs)


def gossip_protocol(ctx):
    ctx.broadcast(Ping("gossip", payload=ctx.pid))
    senders = set()
    cursor = 0

    def all_heard(mailbox):
        nonlocal cursor
        stream = mailbox.stream("gossip")
        while cursor < len(stream):
            sender, _ = stream[cursor]
            cursor += 1
            senders.add(sender)
        if len(senders) >= ctx.n:
            return frozenset(senders)
        return None

    return (yield Wait(all_heard))


def tagged_gossip_protocol(ctx):
    """Like gossip, but returns the (sender, payload) pairs received."""
    ctx.broadcast(Ping("gossip", payload=ctx.pid))
    seen = []
    cursor = 0

    def all_heard(mailbox):
        nonlocal cursor
        stream = mailbox.stream("gossip")
        while cursor < len(stream):
            sender, message = stream[cursor]
            cursor += 1
            seen.append((sender, message.payload))
        if len(seen) >= ctx.n:
            return tuple(sorted(seen))
        return None

    return (yield Wait(all_heard))


def run_gossip(n=4, seed=0, recorder=None, **kwargs):
    sim = make_sim(n=n, seed=seed, **kwargs)
    if recorder is not None:
        sim.events.attach(recorder)
    sim.set_protocol_all(gossip_protocol)
    sim.run()
    return sim


class TestSeam:
    def test_kernel_module_still_exports_the_config(self):
        """``benchmarks/perf/adapter.py`` imports it from there."""
        from repro.sim.network import LossyLinkConfig as reexported

        assert reexported is LossyLinkConfig

    def test_link_layer_does_not_import_the_kernel(self):
        """``repro.sim.lossy`` and everything it imports load without
        ``repro.sim.network``.  The ``repro`` and ``repro.sim`` package
        ``__init__``s import the kernel eagerly, so the subprocess stands
        bare packages in for them and judges the module on its own
        imports."""
        package = Path(lossy_module.__file__).parent
        script = (
            "import sys, types\n"
            f"for name, path in (('repro', {str(package.parent)!r}), "
            f"('repro.sim', {str(package)!r})):\n"
            "    sys.modules[name] = types.ModuleType(name)\n"
            "    sys.modules[name].__path__ = [path]\n"
            "import repro.sim.lossy\n"
            "assert 'repro.sim.network' not in sys.modules, sorted(sys.modules)\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True)


class TestConfigValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            LossyLinkConfig(drop_rate=-0.1)
        with pytest.raises(ValueError):
            LossyLinkConfig(duplicate_rate=1.5)

    def test_rates_must_be_mutually_exclusive(self):
        with pytest.raises(ValueError):
            LossyLinkConfig(drop_rate=0.6, duplicate_rate=0.6)

    def test_reorder_hold_positive(self):
        with pytest.raises(ValueError):
            LossyLinkConfig(reorder_hold=0)

    def test_per_link_one_level_deep(self):
        inner = LossyLinkConfig(drop_rate=0.5)
        with pytest.raises(ValueError):
            LossyLinkConfig(
                per_link={(0, 1): LossyLinkConfig(per_link={(1, 2): inner})}
            )

    def test_active_property(self):
        assert not LossyLinkConfig().active
        assert LossyLinkConfig(drop_rate=0.1).active
        assert LossyLinkConfig(
            per_link={(0, 1): LossyLinkConfig(corrupt_rate=0.2)}
        ).active

    def test_dict_round_trip(self):
        config = LossyLinkConfig(
            drop_rate=0.1,
            duplicate_rate=0.2,
            reorder_hold=8,
            per_link={(2, 3): LossyLinkConfig(corrupt_rate=0.5)},
        )
        assert LossyLinkConfig.from_dict(config.to_dict()) == config

    def test_simulation_rejects_non_config(self):
        with pytest.raises(TypeError):
            make_sim(lossy={"drop_rate": 0.5})

    def test_from_dict_rejects_unknown_keys(self):
        # A misspelt rate used to load as a *reliable* link.
        with pytest.raises(ValueError, match="unknown LossyLinkConfig key 'drop_rat'"):
            LossyLinkConfig.from_dict({"drop_rat": 0.5})
        with pytest.raises(ValueError, match="'hold'"):
            LossyLinkConfig.from_dict(
                {"per_link": {"0->1": {"drop_rate": 0.5, "hold": 3}}}
            )

    @pytest.mark.parametrize("key", ["0-1", "0->", "->1", "a->b", "0->1->2", "7"])
    def test_from_dict_rejects_malformed_link_keys(self, key):
        with pytest.raises(ValueError) as raised:
            LossyLinkConfig.from_dict({"per_link": {key: {"drop_rate": 0.5}}})
        message = str(raised.value)
        assert "malformed per_link key" in message and repr(key) in message
        assert "\n" not in message

    def test_config_with_per_link_is_hashable(self):
        def build():
            return LossyLinkConfig(
                drop_rate=0.1, per_link={(0, 1): LossyLinkConfig(corrupt_rate=0.5)}
            )

        assert build() == build() and hash(build()) == hash(build())
        assert len({build(), build(), LossyLinkConfig(drop_rate=0.1)}) == 2

    @pytest.mark.parametrize("link", [(0, 4), (4, 0), (-1, 2), (7, 7)])
    def test_simulation_rejects_out_of_range_links(self, link):
        lossy = LossyLinkConfig(per_link={link: LossyLinkConfig(drop_rate=1.0)})
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            make_sim(n=4, lossy=lossy)

    def test_targeted_at_a_missing_process_is_rejected(self):
        # These overrides could never match; the run used to follow the
        # base rates silently.
        lossy = LossyLinkConfig.targeted(4, senders=[4 + 3], drop_rate=0.5)
        with pytest.raises(ValueError, match="per_link override"):
            make_sim(n=4, lossy=lossy)


class TestInactiveConfigIsInvisible:
    def test_zero_rate_config_matches_no_config(self):
        recordings = []
        for lossy in (None, LossyLinkConfig()):
            recorder = EventLog()
            sim = run_gossip(seed=3, lossy=lossy, recorder=recorder)
            recordings.append(
                ([event_to_record(e) for e in recorder.events], sim.returns)
            )
        assert recordings[0] == recordings[1]
        assert run_gossip(lossy=LossyLinkConfig()).lossy_counters == {
            "drops": 0, "duplicates": 0, "reorders": 0, "corruptions": 0,
        }


FATE_NAMES = ("drop", "duplicate", "reorder", "corrupt")
MIXED = LossyLinkConfig(
    drop_rate=0.05, duplicate_rate=0.2, reorder_rate=0.3, corrupt_rate=0.1,
    reorder_hold=16,
    per_link={
        (1, 2): LossyLinkConfig(drop_rate=0.4, reorder_rate=0.25, reorder_hold=3)
    },
)


class TestFateFunction:
    """``_LossyState.fate``: one seeded table per block of 256 seqs."""

    def test_fate_is_pure_in_seed_seq_and_link(self):
        seqs = range(0, 700)
        in_order = [_LossyState(MIXED, 5).fate(seq, 0, 1) for seq in seqs]
        state = _LossyState(MIXED, 5)
        assert [state.fate(seq, 0, 1) for seq in seqs] == in_order
        # Reverse order recomputes each block on demand.
        state = _LossyState(MIXED, 5)
        assert [state.fate(seq, 0, 1) for seq in reversed(seqs)] == in_order[::-1]
        # Ping-pong across the 255/256 block boundary: every query reseeds.
        state = _LossyState(MIXED, 5)
        for seq in (255, 256, 255, 511, 512, 256, 0):
            assert state.fate(seq, 0, 1) == in_order[seq]
        # Independent of which other seqs were queried at all.
        state = _LossyState(MIXED, 5)
        assert [state.fate(seq, 0, 1) for seq in (699, 3, 300)] == [
            in_order[699], in_order[3], in_order[300],
        ]
        # The roll and the auxiliary float belong to the seq, not the link:
        # a different link config reclassifies the same draw.
        for seq in seqs:
            assert _LossyState(MIXED, 5).fate(seq, 1, 2)[1] == in_order[seq][1]
        assert in_order != [_LossyState(MIXED, 6).fate(seq, 0, 1) for seq in seqs]

    @pytest.mark.parametrize("link", [(0, 1), (1, 2)], ids=["base", "override"])
    def test_fate_frequencies_match_the_configured_rates(self, link):
        trials = 120_000
        config = MIXED.rates_for(*link)
        state = _LossyState(MIXED, 2020)
        counts = dict.fromkeys((*FATE_NAMES, "deliver"), 0)
        for seq in range(trials):
            fate, aux, hold = state.fate(seq, *link)
            counts[fate] += 1
            assert 0.0 <= aux < 1.0 and hold == config.reorder_hold
        assert sum(counts.values()) == trials
        for name in FATE_NAMES:
            rate = getattr(config, f"{name}_rate")
            band = 5 * math.sqrt(trials * rate * (1 - rate))
            assert abs(counts[name] - trials * rate) <= band, (name, counts)

    @settings(max_examples=60, deadline=None)
    @given(
        raw=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        zeroed=st.lists(st.booleans(), min_size=4, max_size=4),
        seed=st.integers(0, 2**32),
    )
    def test_thresholds_are_monotone_and_zero_rates_never_fire(
        self, raw, zeroed, seed
    ):
        rates = [0.0 if zero else rate for rate, zero in zip(raw, zeroed)]
        scale = max(1.0, sum(rates))
        rates = [rate / scale for rate in rates]
        config = LossyLinkConfig(
            **{f"{name}_rate": rate for name, rate in zip(FATE_NAMES, rates)}
        )
        *thresholds, hold = _fate_thresholds(config)
        assert thresholds == sorted(thresholds) and thresholds[0] >= 0.0
        assert hold == config.reorder_hold
        state = _LossyState(config, seed)
        fired = {state.fate(seq, 0, 0)[0] for seq in range(512)}
        impossible = {name for name, rate in zip(FATE_NAMES, rates) if rate == 0.0}
        assert not fired & impossible

    def test_reorder_release_is_within_the_hold_bound(self):
        """A held seq re-enters the pool after at most ``reorder_hold``
        further deliveries (per-link holds included)."""
        sim = make_sim(n=4, lossy=LossyLinkConfig(
            reorder_rate=1.0, reorder_hold=7,
            per_link={(1, 2): LossyLinkConfig(reorder_rate=1.0, reorder_hold=2)},
        ))
        offsets = {}
        for step in (0, 10, 1000):
            sim.deliveries = step
            for _ in range(300):
                sim.submit_broadcast(1, Ping("x"))
        assert len(sim._lossy.held) == 3 * 300 * 4 and not sim._in_flight
        for release_at, _, flight, dest in sim._lossy.held:
            # A held copy stays out of the pool, its flight and dest with it.
            hold = 2 if dest == 2 else 7
            offset = release_at - flight.sent_step
            assert 1 <= offset <= hold
            offsets.setdefault(hold, set()).add(offset)
        # The whole window is used, not just its first slot.
        assert offsets == {2: {1, 2}, 7: set(range(1, 8))}

    def test_one_generator_per_block_of_seqs(self, monkeypatch):
        built = []

        def counting(seed):
            built.append(seed)
            return random.Random(seed)

        monkeypatch.setattr(lossy_module, "random", SimpleNamespace(Random=counting))
        sim = make_sim(n=8, lossy=LossyLinkConfig(duplicate_rate=0.2, reorder_rate=0.3))
        for sender in range(8):
            for _ in range(40):
                sim.submit_broadcast(sender, Ping("x"))
        assert sim._next_seq > 8 * 40 * 8
        assert len(built) == math.ceil(sim._next_seq / 256)


class TestFates:
    def test_drop_everything_deadlocks_cleanly(self):
        sim = run_gossip(n=3, lossy=LossyLinkConfig(drop_rate=1.0))
        assert sim.metrics.messages_delivered == 0
        assert sim.lossy_counters["drops"] == 9
        # Senders still paid for the eaten messages.
        assert sim.metrics.messages_sent_total == 9
        assert sim.returns == {}

    def test_duplicates_inflate_deliveries_not_sends(self):
        sim = run_gossip(n=4, seed=1, lossy=LossyLinkConfig(duplicate_rate=0.9))
        duplicates = sim.lossy_counters["duplicates"]
        assert duplicates > 0
        assert sim.metrics.messages_sent_total == 16
        assert sim.metrics.messages_delivered == 16 + duplicates
        # Gossip is idempotent: everyone still hears everyone.
        assert all(sim.returns[pid] == frozenset(range(4)) for pid in range(4))

    def test_reorder_holds_then_releases(self):
        sim = run_gossip(
            n=4, seed=2,
            lossy=LossyLinkConfig(reorder_rate=1.0, reorder_hold=4),
        )
        assert sim.lossy_counters["reorders"] == 16
        # Held messages are released, never withheld forever.
        assert sim.metrics.messages_delivered == 16
        assert all(sim.returns[pid] == frozenset(range(4)) for pid in range(4))

    def test_corruption_flips_one_bit_in_payload(self):
        sim = make_sim(n=3, seed=4, lossy=LossyLinkConfig(corrupt_rate=1.0))
        sim.set_protocol_all(tagged_gossip_protocol)
        sim.run()
        assert sim.lossy_counters["corruptions"] == 9
        # Every delivered payload differs from what its sender broadcast
        # (the sender's pid) -- exactly one flipped bit.
        for pid in range(3):
            pairs = sim.returns[pid]
            assert len(pairs) == 3
            for sender, payload in pairs:
                assert payload != sender
                assert bin(payload ^ sender).count("1") == 1

    def test_per_link_override_scopes_the_fault(self):
        lossy = LossyLinkConfig(
            per_link={(0, 1): LossyLinkConfig(drop_rate=1.0)}
        )
        sim = run_gossip(n=3, lossy=lossy)
        assert sim.lossy_counters["drops"] == 1
        # Process 1 never hears from 0 and stays blocked; the other
        # links are reliable, so 0 and 2 complete normally.
        assert set(sim.returns) == {0, 2}
        assert sim.returns[0] == frozenset(range(3))
        assert sim.returns[2] == frozenset(range(3))


class TestDeterminismAndReplay:
    LOSSY = LossyLinkConfig(
        drop_rate=0.1, duplicate_rate=0.2, reorder_rate=0.2, corrupt_rate=0.1
    )

    def _events(self, **kwargs):
        recorder = EventLog()
        sim = run_gossip(
            n=5, seed=7, lossy=self.LOSSY,
            recorder=recorder, **kwargs
        )
        return [event_to_record(e) for e in recorder.events], sim, recorder

    def test_same_seed_same_fates(self):
        a, sim_a, _ = self._events()
        b, sim_b, _ = self._events()
        assert a == b
        assert sim_a.lossy_counters == sim_b.lossy_counters

    def test_lossy_run_replays_seq_exactly(self):
        original, _, recorder = self._events()
        replay = EventLog()
        sim = run_gossip(
            n=5, seed=7, lossy=self.LOSSY,
            scheduler=ReplayScheduler(recorder.schedule()),
            recorder=replay,
        )
        assert [event_to_record(e) for e in replay.events] == original


class TestFastLoopUnderLossyLinks:
    def test_fast_loop_commits_no_batch_and_matches_reference(self):
        """While a lossy config is active the kernel never consults
        ``drain`` (a hold breaks the drain contract's commitment), so a
        draining scheduler delivers batches of one -- and agrees event for
        event with the same scheduler asked through ``OneChoose``, which
        has no ``drain`` at all."""
        lossy = LossyLinkConfig(duplicate_rate=0.3, reorder_rate=0.3, reorder_hold=4)
        results = {}
        for mode in ("classic", "batched"):
            recorder = EventLog()
            sim = run_gossip(
                n=4, seed=9, lossy=lossy,
                scheduler=dispatched(FIFOScheduler(), mode),
                recorder=recorder,
            )
            results[mode] = (
                [event_to_record(e) for e in recorder.events],
                sim.returns,
                sim.lossy_counters,
            )
            assert sim.batched_deliveries == 0 and sim.drain_batches == 0
            assert sim.lossy_counters["reorders"] > 0
        assert results["classic"] == results["batched"]
