"""Schedule-space coverage: fold a run into interleaving signatures.

The telemetry probe (:mod:`repro.sim.telemetry`) measures *how much*
happened per virtual-time step; this module measures *which
interleavings* happened at all.  A :class:`CoverageProbe` is an
event-bus subscriber that folds the kernel event stream into a bounded
set of deterministic **coverage signatures** -- canonical strings, each
naming one schedule-space fact the adversary made true in this run:

* ``race:<instance-class>:<kind>^<kind>`` -- a delivery-order edge:
  message kind A was delivered to a destination while a kind-B message
  for the *same* (destination, instance) was still in flight, i.e. the
  scheduler resolved an A/B race in A's favour.  Covering both
  ``race:i:A^B`` and ``race:i:B^A`` across runs means both orders of
  that race have been exercised.
* ``block:<phase>:<wait>`` / ``wake:<phase>:<wait>:w<b>`` -- a wait
  condition parked (resp. resumed) inside a protocol phase; ``w<b>`` is
  the power-of-two bucket of how many processes remained parked at wake
  time, the wait-concurrency fingerprint of the interleaving.
* ``waitspan:<wait>:d<b>`` -- the causal-depth bucket a wait spanned
  (wake depth - block depth), i.e. how many message hops the adversary
  made that wait absorb.
* ``perm:<instance-class>:<kind>&gt;...`` -- the first-arrival order of
  message kinds within one protocol instance, the per-round delivery
  permutation class.
* ``delay:<kind>:h<b>`` -- an adversary delay site: a message of
  ``kind`` was held for ``step - sent_step`` deliveries, bucketed by
  power of two.
* ``corrupt:s<b>`` -- an adversary corruption site, bucketed by the
  kernel step at which the process fell.

Instance labels and wait descriptions embed round numbers
(``('whp_coin', 3)``, ``"approve('ba', 7)"``); signatures abstract every
integer to ``*`` so the same structural interleaving covers the same
signature in every round and every run -- that is what makes signature
sets comparable (and unionable) across seeds, schedulers and protocols.
Magnitudes (delays, wait spans, wake concurrency) are bucketed by
``int.bit_length`` so the signature space stays small and stable.

Design rules, inherited from the telemetry probe (DESIGN.md section 11):

* **Byte-deterministic**: identical event streams produce identical
  snapshots -- no wall clock, no randomness, no id()-ordering.  A
  recompute from a flight recording (:func:`coverage_from_events`)
  equals the live probe's snapshot exactly.
* **Bounded memory**: distinct signature keys are capped by
  ``signature_budget`` (drops are counted, deterministically, in
  ``dropped_signatures``); permutation tracking is capped per instance
  count and order length.  State is O(chunk + budget + in-flight),
  never O(events).
* **Bounded dispatch**: the online path is one list append per event;
  folding happens in chunks with every hot name aliased to a local.
  ``benchmarks/bench_observability_overhead.py`` bounds an attached
  probe's dispatch under the same < 3% envelope as the monitors.

Attach with ``run_protocol(..., observers=[probe])``; accumulate across
runs with :class:`repro.experiments.coverage_atlas.CoverageAtlas`;
render with ``python -m repro coverage``.
"""

from __future__ import annotations

import re
from typing import Any, Iterable

from repro.sim.events import (
    ChunkedObserver,
    CorruptEvent,
    DeliverEvent,
    KernelEvent,
    PhaseEvent,
    SendEvent,
    WaitBlockEvent,
    WaitWakeEvent,
)

__all__ = [
    "COVERAGE_SCHEMA",
    "COVERAGE_SCHEMA_VERSION",
    "CoverageProbe",
    "coverage_from_events",
    "signature_families",
    "signature_set",
]

COVERAGE_SCHEMA = "repro.coverage"
COVERAGE_SCHEMA_VERSION = 1

_DIGITS = re.compile(r"\d+")

# Longest first-arrival prefix kept per instance: permutation classes
# over more kinds than this collapse onto their length-8 prefix.
_ORDER_PREFIX = 8
# Distinct protocol instances tracked for permutation classes; runs
# with more instances count the overflow in ``dropped_instances``.
_INSTANCE_CAP = 4096

# Identity-cache sentinel: never equal (or identical) to any instance.
_MISSING = object()

# bit_length() lookup for small values: delays and wait spans are almost
# always < 4096, and a list index beats the method call on the hot path.
_BIT_LENGTH = [value.bit_length() for value in range(4096)]


def _abstract(value: Any) -> str:
    """Canonical instance class: integers (round ids, pids) become ``*``.

    ``('whp_coin', 3)`` and ``('whp_coin', 7)`` are the same schedule
    site in different rounds; abstracting the integers makes them cover
    the same signature.  Deterministic for every JSON-round-trippable
    instance label (tuples come back as tuples, see ``events.instance_from_json``).
    """
    if isinstance(value, tuple):
        return "(" + ",".join(_abstract(item) for item in value) + ")"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return "*"
    return _DIGITS.sub("*", str(value))


class CoverageProbe(ChunkedObserver):
    """Fold a kernel event stream into a coverage-signature multiset.

    Attach via ``run_protocol(..., observers=[probe])`` (or
    ``simulation.events.attach(probe)``); call :meth:`snapshot` after
    the run.  The online path (one append per event, chunked folds) is
    :class:`~repro.sim.events.ChunkedObserver`'s.

    The fold keeps raw tuple keys (live instance labels, interned kind
    strings, small int buckets) and defers *all* string rendering --
    digit abstraction, signature formatting, sorting -- to
    :meth:`snapshot`, so the per-event price is dict arithmetic only.
    """

    def __init__(self, signature_budget: int = 8192) -> None:
        if signature_budget < 8:
            raise ValueError("signature budget must be at least 8")
        super().__init__()
        self.signature_budget = signature_budget
        # Raw signature keys -> hit counts for the rare families (wait
        # blocks/wakes, corruptions).  Keys are tuples whose head names
        # the family; descriptions stay un-abstracted until snapshot.
        self._counts: dict[tuple, int] = {}
        # Distinct raw keys tracked so far (counts + per-instance race
        # keys); the budget caps this total.
        self._tracked = 0
        self._dropped = 0
        # Everything per-instance lives under ONE dict so the hot path
        # hashes the (nested-tuple) instance label at most once per
        # event: instance -> [buckets, races, order] where ``buckets``
        # is a dest-indexed list of {kind: in-flight count}, ``races``
        # maps winner kind -> {loser kind: hit count} (nested so the
        # race loop increments plain string keys, no tuple per edge),
        # and ``order`` is the first-arrival kind order (None until
        # first delivery).
        self._per_instance: dict[Any, list] = {}
        self._order_instances = 0
        self._dropped_instances = 0
        # Delay sites: kind -> 64 power-of-two hold-time buckets (a
        # list indexed by bit_length is the cheapest per-delivery
        # counter; rendered into delay:* signatures at snapshot).
        self._delay: dict[str, list[int]] = {}
        # Wait pairing and phase attribution.
        self._block_depth: dict[int, tuple[int, str]] = {}
        self._phase_stack: dict[int, list[str]] = {}
        self.counters = {
            "events": 0,
            "sends": 0,
            "delivers": 0,
            "wait_blocks": 0,
            "wait_wakes": 0,
            "corrupts": 0,
            "phases": 0,
        }

    # -- the fold --------------------------------------------------------------

    def _fold(self, chunk: list[KernelEvent]) -> None:
        """Fold one pending chunk into the raw signature counts.

        One tight loop, every hot name a local.  Additions must stay
        O(1) dict/int work per event: the overhead benchmark holds an
        attached probe inside the < 3% dispatch envelope.
        """
        counts = self._counts
        budget = self.signature_budget
        tracked = self._tracked
        dropped = self._dropped
        per_instance = self._per_instance
        order_instances = self._order_instances
        dropped_instances = self._dropped_instances
        delay = self._delay
        block_depth = self._block_depth
        phase_stack = self._phase_stack
        counters = self.counters
        n_sends = n_delivers = n_blocks = n_wakes = n_corrupts = n_phases = 0
        last_kind: str | None = None
        last_delay_row: list[int] | None = None
        # Instance labels repeat in bursts (one broadcast = n sends of
        # the same instance object), so an identity check usually dodges
        # the nested-tuple hash of the per-instance dict lookup.
        last_instance: Any = _MISSING
        last_entry: list | None = None
        send_cls = SendEvent
        deliver_cls = DeliverEvent
        order_prefix = _ORDER_PREFIX
        instance_cap = _INSTANCE_CAP
        bit_length = _BIT_LENGTH
        for event in chunk:
            cls = type(event)
            if cls is send_cls:
                n_sends += 1
                instance = event.instance
                kind = event.message_kind
                if instance is last_instance:
                    entry = last_entry
                else:
                    entry = per_instance.get(instance)
                    if entry is None:
                        entry = per_instance[instance] = [[], {}, None]
                    last_instance = instance
                    last_entry = entry
                buckets = entry[0]
                dest = event.dest
                if dest >= len(buckets):
                    buckets.extend([None] * (dest + 1 - len(buckets)))
                bucket = buckets[dest]
                if bucket is None:
                    buckets[dest] = {kind: 1}
                else:
                    bucket[kind] = bucket.get(kind, 0) + 1
            elif cls is deliver_cls:
                n_delivers += 1
                instance = event.instance
                kind = event.message_kind
                # Delay site (kinds arrive in bursts; the identity
                # check dodges the dict get on almost every delivery).
                if kind is not last_kind:
                    last_kind = kind
                    last_delay_row = delay.get(kind)
                    if last_delay_row is None:
                        delay[kind] = last_delay_row = [0] * 64
                held = event.step - event.sent_step
                last_delay_row[
                    bit_length[held] if held < 4096 else held.bit_length()
                ] += 1
                if instance is last_instance:
                    entry = last_entry
                else:
                    entry = per_instance.get(instance)
                    if entry is None:
                        entry = per_instance[instance] = [[], {}, None]
                    last_instance = instance
                    last_entry = entry
                # Race edges: every kind still in flight to this
                # (dest, instance) lost this race to ``kind``.
                buckets = entry[0]
                dest = event.dest
                bucket = buckets[dest] if dest < len(buckets) else None
                if bucket:
                    count = bucket.get(kind, 0) - 1
                    if count > 0:
                        bucket[kind] = count
                    elif kind in bucket:
                        del bucket[kind]
                    if bucket:
                        races = entry[1]
                        rmap = races.get(kind)
                        if rmap is None:
                            rmap = races[kind] = {}
                        for other in bucket:
                            seen = rmap.get(other)
                            if seen is None:
                                if tracked < budget:
                                    rmap[other] = 1
                                    tracked += 1
                                else:
                                    dropped += 1
                            else:
                                rmap[other] = seen + 1
                # Permutation class: first arrival order of kinds (an
                # insertion-ordered dict: O(1) membership, keys are the
                # order).
                order = entry[2]
                if order is None:
                    if order_instances < instance_cap:
                        entry[2] = {kind: None}
                        order_instances += 1
                    else:
                        dropped_instances += 1
                elif kind not in order and len(order) < order_prefix:
                    order[kind] = None
            elif cls is WaitBlockEvent:
                n_blocks += 1
                pid = event.pid
                stack = phase_stack.get(pid)
                phase = stack[-1] if stack else "-"
                block_depth[pid] = (event.depth, event.description)
                key = ("block", phase, event.description)
                seen = counts.get(key)
                if seen is None:
                    if tracked < budget:
                        counts[key] = 1
                        tracked += 1
                    else:
                        dropped += 1
                else:
                    counts[key] = seen + 1
            elif cls is WaitWakeEvent:
                n_wakes += 1
                pid = event.pid
                stack = phase_stack.get(pid)
                phase = stack[-1] if stack else "-"
                parked = block_depth.pop(pid, None)
                if parked is not None:
                    span_key = (
                        "waitspan",
                        parked[1],
                        (event.depth - parked[0]).bit_length(),
                    )
                    seen = counts.get(span_key)
                    if seen is None:
                        if tracked < budget:
                            counts[span_key] = 1
                            tracked += 1
                        else:
                            dropped += 1
                    else:
                        counts[span_key] = seen + 1
                key = (
                    "wake",
                    phase,
                    event.description,
                    len(block_depth).bit_length(),
                )
                seen = counts.get(key)
                if seen is None:
                    if tracked < budget:
                        counts[key] = 1
                        tracked += 1
                    else:
                        dropped += 1
                else:
                    counts[key] = seen + 1
            elif cls is CorruptEvent:
                n_corrupts += 1
                block_depth.pop(event.pid, None)
                phase_stack.pop(event.pid, None)
                key = ("corrupt", event.step.bit_length())
                seen = counts.get(key)
                if seen is None:
                    if tracked < budget:
                        counts[key] = 1
                        tracked += 1
                    else:
                        dropped += 1
                else:
                    counts[key] = seen + 1
            elif cls is PhaseEvent:
                n_phases += 1
                pid = event.pid
                if event.action == "enter":
                    stack = phase_stack.get(pid)
                    if stack is None:
                        phase_stack[pid] = [event.phase]
                    else:
                        stack.append(event.phase)
                else:
                    stack = phase_stack.get(pid)
                    if stack:
                        stack.pop()
        self._tracked = tracked
        self._dropped = dropped
        self._order_instances = order_instances
        self._dropped_instances = dropped_instances
        counters["events"] += len(chunk)
        counters["sends"] += n_sends
        counters["delivers"] += n_delivers
        counters["wait_blocks"] += n_blocks
        counters["wait_wakes"] += n_wakes
        counters["corrupts"] += n_corrupts
        counters["phases"] += n_phases

    # -- snapshotting ----------------------------------------------------------

    def _render(self) -> dict[str, int]:
        """Collapse raw keys onto canonical signature strings.

        Digit abstraction merges per-round keys, so the rendered map is
        usually far smaller than the raw one; counts sum across merged
        keys.  Deterministic: raw keys fold in insertion order (first
        touch in event order), summation is commutative, and the
        returned dict is key-sorted.
        """
        abstract_cache: dict[Any, str] = {}
        desc_cache: dict[str, str] = {}
        digit_sub = _DIGITS.sub

        def iclass(instance: Any) -> str:
            label = abstract_cache.get(instance)
            if label is None:
                abstract_cache[instance] = label = _abstract(instance)
            return label

        def dclass(description: str) -> str:
            label = desc_cache.get(description)
            if label is None:
                desc_cache[description] = label = digit_sub("*", description)
            return label

        rendered: dict[str, int] = {}
        for instance, entry in self._per_instance.items():
            label = iclass(instance)
            for kind, rmap in entry[1].items():
                for other, count in rmap.items():
                    sig = f"race:{label}:{kind}^{other}"
                    rendered[sig] = rendered.get(sig, 0) + count
            order = entry[2]
            if order:
                sig = f"perm:{label}:{'>'.join(order)}"
                rendered[sig] = rendered.get(sig, 0) + 1
        for key, count in self._counts.items():
            family = key[0]
            if family == "block":
                sig = f"block:{key[1]}:{dclass(key[2])}"
            elif family == "wake":
                sig = f"wake:{key[1]}:{dclass(key[2])}:w{key[3]}"
            elif family == "waitspan":
                sig = f"waitspan:{dclass(key[1])}:d{key[2]}"
            else:  # corrupt
                sig = f"corrupt:s{key[1]}"
            rendered[sig] = rendered.get(sig, 0) + count
        for kind, row in self._delay.items():
            for bits, count in enumerate(row):
                if count:
                    sig = f"delay:{kind}:h{bits}"
                    rendered[sig] = rendered.get(sig, 0) + count
        return {sig: rendered[sig] for sig in sorted(rendered)}

    def snapshot(self) -> dict[str, Any]:
        """The JSON-ready coverage document (schema-versioned)."""
        self._flush()
        signatures = self._render()
        families: dict[str, dict[str, int]] = {}
        for sig, count in signatures.items():
            family = sig.split(":", 1)[0]
            entry = families.get(family)
            if entry is None:
                families[family] = {"signatures": 1, "hits": count}
            else:
                entry["signatures"] += 1
                entry["hits"] += count
        return {
            "schema": COVERAGE_SCHEMA,
            "version": COVERAGE_SCHEMA_VERSION,
            "signature_budget": self.signature_budget,
            "signatures": signatures,
            "families": {name: families[name] for name in sorted(families)},
            "total_signatures": len(signatures),
            "total_hits": sum(signatures.values()),
            "dropped_signatures": self._dropped,
            "dropped_instances": self._dropped_instances,
            "counters": dict(self.counters),
        }


def signature_set(snapshot: dict[str, Any]) -> set[str]:
    """The signature *set* of a snapshot (counts stripped) -- the unit
    the :class:`~repro.experiments.coverage_atlas.CoverageAtlas`
    accumulates across runs."""
    return set(snapshot.get("signatures", ()))


def signature_families(signatures) -> dict[str, int]:
    """Signature count per family prefix (``race``, ``perm``, ...).

    The family is everything before the first ``:``; the fuzzer's novelty
    accounting uses this to tell "a new signature in a known family" from
    "a family the corpus has never exhibited at all".
    """
    families: dict[str, int] = {}
    for signature in signatures:
        family = signature.split(":", 1)[0]
        families[family] = families.get(family, 0) + 1
    return dict(sorted(families.items()))


def coverage_from_events(
    events: Iterable[KernelEvent], signature_budget: int = 8192
) -> dict[str, Any]:
    """Replay a recorded event log through a fresh probe; returns the
    snapshot.  A kernel event holds only what a recording keeps (no
    live message), so recomputing from a flight recording is
    byte-identical to the probe that watched the run live -- asserted
    by ``tests/sim/test_coverage.py``."""
    probe = CoverageProbe(signature_budget=signature_budget)
    on_event = probe.on_event
    for event in events:
        on_event(event)
    return probe.snapshot()
