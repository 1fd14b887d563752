"""The causal walk reads one delivery per (process, depth).

:func:`~repro.sim.flightrecorder.causal_chain` walks a
:class:`~repro.sim.flightrecorder.CausalIndex`, the first delivery to
each process at each causal depth, which is all the
:class:`~repro.sim.monitors.MonitorSuite` keeps of a run.  The walk it
replaced scanned the whole event log, a send per hop included; that scan
is kept below as the oracle.  Over every name ``repro list`` prints, at
three seeds (lossy links and ``byz_split``'s violation included), the
index walk must equal it at every decision and at sampled anchors,
``limit`` slices too.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.protocols import PROTOCOLS
from repro.experiments.scenarios import SCENARIOS, resolve_run
from repro.sim.diffing import _causal_anchor
from repro.sim.events import DecideEvent, DeliverEvent, SendEvent
from repro.sim.flightrecorder import CausalIndex, EventLog, causal_chain, critical_path
from repro.sim.monitors import MonitorSuite

N = 16
SAMPLED_ANCHORS = 25
LIMITS = (None, 1, 2, 7)


def reference_causal_chain(events, pid, depth, step, limit=None):
    """The log-scan walk: the first delivery that put ``pid`` at ``depth``
    at or before ``step``, then that message's send, found by its seq."""
    sends_by_seq = {event.seq: event for event in events if type(event) is SendEvent}
    delivers_by_dest = {}
    for event in events:
        if type(event) is DeliverEvent:
            delivers_by_dest.setdefault(event.dest, []).append(event)

    chain = []
    while depth > 0 and (limit is None or len(chain) < limit):
        hop = next(
            (
                event
                for event in delivers_by_dest.get(pid, ())
                if event.depth == depth and event.step <= step
            ),
            None,
        )
        if hop is None:
            break
        send = sends_by_seq.get(hop.seq)
        chain.append(
            {
                "kind": "deliver",
                "step": hop.step,
                "seq": hop.seq,
                "sender": hop.sender,
                "dest": hop.dest,
                "message_kind": hop.message_kind,
                "instance": hop.instance,
                "words": hop.words,
                "depth": hop.depth,
            }
        )
        if send is not None and (limit is None or len(chain) < limit):
            chain.append(
                {
                    "kind": "send",
                    "step": send.step,
                    "seq": send.seq,
                    "sender": send.sender,
                    "dest": send.dest,
                    "message_kind": send.message_kind,
                    "instance": send.instance,
                    "depth": send.depth,
                }
            )
        pid, depth, step = hop.sender, depth - 1, (send.step if send else hop.step)
    return chain


@pytest.mark.parametrize("name", [*PROTOCOLS, *SCENARIOS])
def test_the_index_walk_is_the_log_scan(name):
    anchors = 0
    for seed in range(3):
        log, suite = EventLog(), MonitorSuite()
        resolve_run(name, N, seed=seed).run(observers=[log, suite])
        events = log.events
        # The suite's online index is the one the list forms build.
        assert suite.index.first == CausalIndex(events).first, (name, seed)

        for decide in (event for event in events if type(event) is DecideEvent):
            expected = reference_causal_chain(events, decide.pid, decide.depth, decide.step)
            assert causal_chain(
                suite.index, decide.pid, decide.depth, decide.step
            ) == expected, (name, seed, decide)
            path = critical_path(suite.index, target=decide)
            assert path[:-1] == expected[::-1] and path[-1]["pid"] == decide.pid
            assert path == critical_path(events, target=decide)
            anchors += 1

        rng = random.Random(seed)
        for index in rng.sample(range(len(events)), min(SAMPLED_ANCHORS, len(events))):
            anchor = _causal_anchor(events, index)
            if anchor is None:
                continue
            limit = rng.choice(LIMITS)
            assert causal_chain(events, *anchor, limit=limit) == (
                reference_causal_chain(events, *anchor, limit=limit)
            ), (name, seed, anchor, limit)
            anchors += 1
    assert anchors >= 3 * SAMPLED_ANCHORS // 2, (name, anchors)


def test_a_deepest_decision_walks_every_depth():
    """The list form with no target explains the deepest decision, as
    before; through the index the same walk needs that decision."""
    log = EventLog()
    result = resolve_run("whp_ba", N, seed=1).run(observers=[log])
    path = critical_path(log.events)
    delivers = [entry for entry in path if entry["kind"] == "deliver"]
    assert [entry["depth"] for entry in delivers] == list(range(1, result.duration + 1))
    deepest = path[-1]
    target = next(
        event for event in log.events
        if type(event) is DecideEvent and event.step == deepest["step"]
        and event.pid == deepest["pid"]
    )
    assert critical_path(CausalIndex(log.events), target=target) == path
