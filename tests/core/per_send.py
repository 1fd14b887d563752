"""A Byzantine replay of correct messages, shared by the protocol tests.

Corrupted pids re-broadcast, as their own, the message *objects* correct
processes send them.  Every receive-side check is a property of the
``(sender, message)`` pair, so a replay must be judged as the replayer's
send: a verdict shared across receivers by message identity alone would
be replayed for it.  :class:`ReplaysFirst` delivers the replays before
the rest of the original broadcast, so the first check of a message
object may well be the replay's.
"""

from __future__ import annotations

import copy
import heapq

from repro.sim.adversary import Scheduler
from repro.sim.byzantine import ScriptedBehavior


class ReplaysFirst(Scheduler):
    """FIFO, except that every copy a corrupted pid sends goes first."""

    def __init__(self, corrupt):
        self.corrupt = frozenset(corrupt)
        self._queue = []

    def on_submit(self, start, stop, pool):
        for seq in range(start, stop):
            byzantine = pool.view(seq).sender in self.corrupt
            heapq.heappush(self._queue, (not byzantine, seq))

    def choose(self, pool):
        return heapq.heappop(self._queue)[1]


def replaying(kind, corrupt, same_object=True):
    """A behaviour factory: re-broadcast every ``kind`` message a correct
    process sends, as the very object or as an equal copy."""

    def on_deliver(ctx, envelope):
        payload = envelope.payload
        if envelope.sender not in corrupt and isinstance(payload, kind):
            ctx.broadcast(payload if same_object else copy.copy(payload))

    return lambda pid: ScriptedBehavior(on_deliver=on_deliver)


def unstepped(result):
    """The protocol records without their delivery-counter stamps."""
    return [
        (record.pid, record.kind, record.keys, record.values)
        for record in result.metrics.protocol_records
    ]


def same_run(a, b):
    """Two runs whose every record, return and counter agree."""
    return (
        a.metrics.protocol_records == b.metrics.protocol_records
        and a.returns == b.returns
        and a.deliveries == b.deliveries
        and a.metrics.to_dict(include_timings=False)
        == b.metrics.to_dict(include_timings=False)
    )
