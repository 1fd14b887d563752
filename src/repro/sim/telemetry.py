"""Virtual-time telemetry: bounded per-step time series of a running kernel.

The flight recorder (:mod:`repro.sim.flightrecorder`) keeps *every*
kernel event -- O(events) memory, perfect fidelity, replay-grade.  This
module is its cheap sibling: a :class:`TelemetryProbe` is an event-bus
subscriber that folds the same stream into a **fixed-budget** set of
time series and streaming quantile sketches, so watching a
multi-million-delivery run costs O(sample budget) memory instead of
O(events).  Everything it measures is *virtual* time -- kernel steps
(the global delivery counter) and causal depth (message hops) -- the two
clocks the paper's trajectory claims are stated in:

* **in-flight messages** per step: the adversary's reordering buffer;
* **per-process mailbox backlog** (in-flight messages per destination,
  max and mean) per step: where adversarial schedules pile work up;
* **blocked processes** per step: wait-block concurrency, i.e. how much
  of the system is parked on an unsatisfied ``upon receiving ...``;
* **cumulative words by protocol layer** (approver / coin / other,
  correct senders only -- the paper's word-complexity convention) per
  step: the O(nλ²)-per-round accumulation as a trajectory;
* **streaming p50/p90/p99** of link latency (deliver step - send step:
  how long the adversary held each message) and of wait durations in
  both steps and causal depth (wake depth - block depth);
* a **per-causal-depth profile** of messages/words/decisions, the
  round-phase view of the run.

Sampling guarantees (see DESIGN.md section 9): the gauge series share
one uniform grid over the delivery counter whose stride doubles
whenever the budget would overflow, so the series always span the whole
run at uniform resolution with between budget/2 and budget points --
deterministic, no randomness, no wall clock.  Quantile sketches keep a
systematic every-k-th sample with the same stride-doubling rule plus
exact count/min/max over what they are fed; link latency
(``DeliverEvent.step - DeliverEvent.sent_step``) is itself fed a
systematic 1-in-8 sample by network sequence number (feeding the
sketch a method call per delivery would dominate the fold loop, and
quantiles over ~1/8 of the messages are statistically
indistinguishable for this use).  Identical event streams therefore
produce identical snapshots, and an attached probe never perturbs the
run (asserted by ``benchmarks/bench_observability_overhead.py``).

Dispatch cost: the probe buffers events and folds them in bounded
chunks (memory stays O(chunk + budgets), never O(events)), so the
per-event online price is one list append plus the chunk fold amortised
across the chunk -- bounded alongside the monitors' dispatch cost at
< 3% of the bare run's wall-clock by
``benchmarks/bench_observability_overhead.py``.

Attach with ``run_protocol(..., observers=[probe])``; rebuild the same
snapshot from any loaded recording with :func:`telemetry_from_events`,
which is how ``python -m repro dashboard`` gets the snapshot it renders
as SVG timelines.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.sim.events import (
    ChunkedObserver,
    CorruptEvent,
    DecideEvent,
    DeliverEvent,
    KernelEvent,
    PhaseEvent,
    SendEvent,
    WaitBlockEvent,
    WaitWakeEvent,
)

__all__ = [
    "LAYER_OF_KIND",
    "TELEMETRY_SCHEMA",
    "TELEMETRY_SCHEMA_VERSION",
    "SeriesBank",
    "StreamingQuantiles",
    "TelemetryProbe",
    "telemetry_from_events",
]

TELEMETRY_SCHEMA = "repro.telemetry"
TELEMETRY_SCHEMA_VERSION = 1

# Message kind -> protocol layer, for the cumulative-words trajectory.
# The approver's three committees carry Init/Echo/Ok; both coins speak
# First/Second; baseline protocols (Bracha, Ben-Or, ...) land in "other".
# ``repro.experiments.report`` renders its word breakdown from this map.
LAYER_OF_KIND = {
    "InitMsg": "approver",
    "EchoMsg": "approver",
    "OkMsg": "approver",
    "FirstMsg": "coin",
    "SecondMsg": "coin",
}

_LAYERS = ("approver", "coin", "other")

# The same map as an index into a three-slot accumulator, so the fold
# loop charges a send's words with one dict get and one list add
# (unknown kinds default to the trailing "other" slot).
_LAYER_INDEX = {
    kind: _LAYERS.index(layer) for kind, layer in LAYER_OF_KIND.items()
}

# Systematic 1-in-k source sampling of link latencies, keyed by network
# sequence number (power of two so the filter is a single mask).
_LATENCY_STRIDE = 8
_LATENCY_MASK = _LATENCY_STRIDE - 1


class SeriesBank:
    """Parallel bounded time series sharing one uniform sample grid.

    Every gauge is sampled at the same instants, so one steps list and
    one stride serve all columns.  The caller offers one row per grid
    point (:class:`TelemetryProbe` samples every ``stride``-th
    delivery); when the point count would exceed ``budget``, every
    other retained row is dropped and :meth:`record` returns ``True``
    so the caller doubles its grid stride.  The bank therefore always
    spans the whole run at uniform resolution with between budget/2 and
    budget points -- deterministic decimation, no randomness.
    """

    __slots__ = ("budget", "stride", "steps", "columns")

    def __init__(self, names: Iterable[str], budget: int = 512) -> None:
        if budget < 8:
            raise ValueError("sample budget must be at least 8")
        self.budget = budget
        self.stride = 1
        self.steps: list[int] = []
        self.columns: dict[str, list[float]] = {name: [] for name in names}

    def record(self, step: int, values: Iterable[float]) -> bool:
        """Append one sample row; returns True when the grid coarsened."""
        steps = self.steps
        steps.append(step)
        for column, value in zip(self.columns.values(), values):
            column.append(value)
        if len(steps) > self.budget:
            self.steps = steps[::2]
            for name, column in self.columns.items():
                self.columns[name] = column[::2]
            self.stride *= 2
            return True
        return False

    def to_dict(self) -> dict[str, Any]:
        """One ``{stride, steps, values}`` series document per column."""
        return {
            name: {
                "stride": self.stride,
                "steps": list(self.steps),
                "values": list(column),
            }
            for name, column in self.columns.items()
        }


class StreamingQuantiles:
    """Approximate stream quantiles under a fixed memory budget.

    Keeps every ``stride``-th observation (systematic sampling, stride
    doubling on overflow -- same rule as :class:`SeriesBank`, so the
    sketch is deterministic for a given stream) plus exact count, min
    and max of everything it was fed.  Quantiles are nearest-rank over
    the retained sample; with a budget of 1024 the retained fraction
    bounds the rank error well below the run-to-run noise of the
    quantities measured here.
    """

    __slots__ = ("budget", "stride", "count", "vmin", "vmax", "sample")

    def __init__(self, budget: int = 1024) -> None:
        if budget < 8:
            raise ValueError("quantile budget must be at least 8")
        self.budget = budget
        self.stride = 1
        self.count = 0
        self.vmin: float | None = None
        self.vmax: float | None = None
        self.sample: list[float] = []

    def record(self, value: float) -> None:
        if self.count % self.stride == 0:
            self.sample.append(value)
            if len(self.sample) > self.budget:
                self.sample = self.sample[::2]
                self.stride *= 2
        self.count += 1
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def quantile(self, q: float) -> float | None:
        if not self.sample:
            return None
        ordered = sorted(self.sample)
        rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[rank]

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "min": self.vmin,
            "max": self.vmax,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class TelemetryProbe(ChunkedObserver):
    """Fold a kernel event stream into bounded virtual-time telemetry.

    Attach via ``run_protocol(..., observers=[probe])`` (or
    ``simulation.events.attach(probe)``); call :meth:`snapshot` after
    the run.

    The online path is :class:`~repro.sim.events.ChunkedObserver`'s --
    one buffer append per event, with the buffer folded into the
    gauges/series/sketches every ``_CHUNK`` events -- so an attached
    probe's dispatch cost stays under the same < 3% bound as the
    conformance monitors (asserted by
    ``bench_observability_overhead.py``).  State is O(chunk + sample
    budgets + n), never O(events).
    """

    def __init__(self, sample_budget: int = 256, quantile_budget: int = 1024) -> None:
        super().__init__()
        self.sample_budget = sample_budget
        # Gauge state, advanced chunk-at-a-time by _fold().  The backlog
        # is a pid-indexed list (grown on demand) because list indexing
        # is the cheapest per-event counter CPython offers.
        self._sends = 0
        self._delivers = 0
        self._backlog: list[int] = []
        self._blocked: set[int] = set()
        self._words = [0] * len(_LAYERS)
        # Pending state for wait-latency pairing (popped at wake, so
        # memory tracks currently parked pids).
        self._block_at: dict[int, tuple[int, int]] = {}
        # All gauges share one grid over the delivery counter; the fold
        # loop's grid check is a single integer comparison against the
        # next sample's delivery index.
        self._grid_stride = 1
        self._next_sample = 1
        self.bank = SeriesBank(
            (
                "in_flight",
                "blocked",
                "backlog_max",
                "backlog_mean",
                "words_approver",
                "words_coin",
                "words_other",
            ),
            sample_budget,
        )
        # Streaming latency sketches.
        self.link_latency_steps = StreamingQuantiles(quantile_budget)
        self.wait_steps = StreamingQuantiles(quantile_budget)
        self.wait_depth = StreamingQuantiles(quantile_budget)
        # Per-causal-depth profile: depth -> [messages, words], plus
        # decisions on the side (depth is O(duration), so these dicts
        # are really O(rounds) -- tiny).
        self._depth_rows: dict[int, list[int]] = {}
        self._depth_decisions: dict[int, int] = {}
        self.counters = {
            "events": 0,
            "sends": 0,
            "delivers": 0,
            "decides": 0,
            "corrupts": 0,
            "wait_blocks": 0,
            "wait_wakes": 0,
            "phases": 0,
        }

    # -- event handling --------------------------------------------------------

    def _fold(self, chunk: list[KernelEvent]) -> None:
        """Fold one pending chunk into gauges, series and sketches.

        One tight loop with every piece of state (and every constant)
        aliased to a local; this is the amortised per-event cost the
        overhead benchmark bounds, so additions here must stay O(1)
        dict/int work per event.
        """
        backlog = self._backlog
        blocked = self._blocked
        block_at = self._block_at
        depth_rows = self._depth_rows
        last_depth = -1
        last_row: list[int] | None = None
        li_get = _LAYER_INDEX.get
        last_kind: str | None = None
        last_layer = 2
        lat_mask = _LATENCY_MASK
        latencies: list[int] = []
        lat_append = latencies.append
        sends = self._sends
        delivers = self._delivers
        words = self._words
        grid_stride = self._grid_stride
        next_sample = self._next_sample
        counters = self.counters
        n_decides = n_corrupts = n_blocks = n_wakes = n_phases = 0
        send_cls = SendEvent
        deliver_cls = DeliverEvent
        for event in chunk:
            kind = type(event)
            if kind is send_cls:
                sends += 1
                dest = event.dest
                try:
                    backlog[dest] += 1
                except IndexError:
                    backlog.extend([0] * (dest + 1 - len(backlog)))
                    backlog[dest] += 1
                if event.sender_correct:
                    # Kinds arrive in broadcast bursts; an identity
                    # check on the (interned) kind string dodges the
                    # dict get on almost every send.
                    message_kind = event.message_kind
                    if message_kind is not last_kind:
                        last_kind = message_kind
                        last_layer = li_get(message_kind, 2)
                    words[last_layer] += event.words
            elif kind is deliver_cls:
                delivers += 1
                dest = event.dest
                try:
                    # Clamp at zero: tolerate logs that start mid-run
                    # (a deliver whose send was never seen).
                    if backlog[dest] > 0:
                        backlog[dest] -= 1
                except IndexError:
                    pass
                if not event.seq & lat_mask:
                    lat_append(event.step - event.sent_step)
                depth = event.depth
                if depth == last_depth:
                    # Delivery depths arrive in long monotone stretches,
                    # so one cached row absorbs almost every dict get.
                    last_row[0] += 1
                    last_row[1] += event.words
                else:
                    last_row = depth_rows.get(depth)
                    if last_row is None:
                        depth_rows[depth] = last_row = [1, event.words]
                    else:
                        last_row[0] += 1
                        last_row[1] += event.words
                    last_depth = depth
                if delivers == next_sample:
                    # Write the loop's running state back before the
                    # (rare) sample so the gauges read current values.
                    self._sends = sends
                    self._delivers = delivers
                    if self._sample(event.step):
                        grid_stride *= 2
                    next_sample = delivers + grid_stride
            elif kind is WaitBlockEvent:
                n_blocks += 1
                blocked.add(event.pid)
                block_at[event.pid] = (event.step, event.depth)
            elif kind is WaitWakeEvent:
                n_wakes += 1
                blocked.discard(event.pid)
                parked = block_at.pop(event.pid, None)
                if parked is not None:
                    self.wait_steps.record(event.step - parked[0])
                    self.wait_depth.record(event.depth - parked[1])
            elif kind is DecideEvent:
                n_decides += 1
                depth = event.depth
                self._depth_decisions[depth] = (
                    self._depth_decisions.get(depth, 0) + 1
                )
            elif kind is CorruptEvent:
                n_corrupts += 1
                blocked.discard(event.pid)
                block_at.pop(event.pid, None)
            elif kind is PhaseEvent:
                n_phases += 1
        self._sends = sends
        self._delivers = delivers
        self._grid_stride = grid_stride
        self._next_sample = next_sample
        counters["events"] += len(chunk)
        counters["sends"] = sends
        counters["delivers"] = delivers
        counters["decides"] += n_decides
        counters["corrupts"] += n_corrupts
        counters["wait_blocks"] += n_blocks
        counters["wait_wakes"] += n_wakes
        counters["phases"] += n_phases
        record_latency = self.link_latency_steps.record
        for value in latencies:
            record_latency(value)

    def _sample(self, step: int) -> bool:
        """Sample every gauge at ``step``; True when the grid coarsened.

        The O(n) scans over the backlog list happen only here -- at most
        ~2x sample_budget times per run -- never on the per-event path.
        """
        backlog = self._backlog
        active = len(backlog) - backlog.count(0)
        in_flight = max(0, self._sends - self._delivers)
        words = self._words
        return self.bank.record(
            step,
            (
                in_flight,
                len(self._blocked),
                max(backlog, default=0),
                in_flight / active if active else 0.0,
                words[0],
                words[1],
                words[2],
            ),
        )

    # -- snapshotting ----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The JSON-ready telemetry document (schema-versioned)."""
        self._flush()
        series = self.bank.to_dict()
        words_by_layer = {
            layer: series.pop(f"words_{layer}") for layer in _LAYERS
        }
        series["words_by_layer"] = words_by_layer
        depths = sorted(set(self._depth_rows) | set(self._depth_decisions))
        empty_row = (0, 0)
        return {
            "schema": TELEMETRY_SCHEMA,
            "version": TELEMETRY_SCHEMA_VERSION,
            "sample_budget": self.sample_budget,
            "series": series,
            "quantiles": {
                "link_latency_steps": {
                    **self.link_latency_steps.to_dict(),
                    "source_stride": _LATENCY_STRIDE,
                },
                "wait_steps": self.wait_steps.to_dict(),
                "wait_depth": self.wait_depth.to_dict(),
            },
            "depth_profile": [
                {
                    "depth": depth,
                    "messages": row[0],
                    "words": row[1],
                    "decisions": self._depth_decisions.get(depth, 0),
                }
                for depth in depths
                for row in (self._depth_rows.get(depth, empty_row),)
            ],
            "words_total": sum(self._words),
            "counters": dict(self.counters),
        }


def telemetry_from_events(
    events: Iterable[KernelEvent],
    sample_budget: int = 256,
    quantile_budget: int = 1024,
) -> dict[str, Any]:
    """Replay a recorded event log through a fresh probe; returns the
    snapshot -- the one a probe attached to the recorded run took.  This
    is how ``repro dashboard`` gets a recording's telemetry."""
    probe = TelemetryProbe(sample_budget, quantile_budget)
    on_event = probe.on_event
    for event in events:
        on_event(event)
    return probe.snapshot()
