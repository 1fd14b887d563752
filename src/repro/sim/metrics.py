"""Run metrics: word complexity, causal time, and per-round protocol records.

* **Word complexity** (Section 2): the total number of words sent by
  *correct* processes; a word holds a signature, a VRF output, or a
  constant-size value.  Each message self-reports its size via
  ``Message.words()``.
* **Running time**: the longest causally-related message chain until all
  correct processes decide.  The kernel threads a causal depth through
  every envelope; the duration is the maximum decision depth.

Message counts and per-kind breakdowns are also kept -- they make the
complexity benches' output auditable.  The recorder also carries the
kernel's hot-path observability: per-run verification-cache hit/miss
counters (snapshotted from the PKI by ``Simulation.run``), wait-wakeup
counters (re-evaluated versus skipped pending conditions), wall-clock
phase timers (populated only when the run profiles, see
``Simulation(profile=True)``), and the **protocol record log** --
structured per-round facts (round outcomes, coin invocations, observed
committee sizes, approver grades) appended by protocol code through
:meth:`repro.sim.process.ProcessContext.annotate` and rolled up by
:meth:`MetricsRecorder.protocol_summary`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Hashable

__all__ = ["MetricsRecorder", "ProtocolRecord", "histogram"]


@dataclass(frozen=True, slots=True)
class ProtocolRecord:
    """One structured fact a protocol recorded about its own progress.

    ``kind`` names the fact category (``"round"``, ``"coin"``,
    ``"approve"``, ``"committee"``, ``"sampled"``); ``keys`` names the
    category's fields and ``values`` holds their JSON-friendly values, in
    the same order.  Every record of one key shape shares one ``keys``
    tuple (:meth:`MetricsRecorder.record` interns it), so a record costs its
    values only.  ``step`` is the kernel's delivery counter at annotation
    time, so records are round-indexed *and* schedule-ordered.
    """

    step: int
    pid: int
    kind: str
    keys: tuple[str, ...]
    values: tuple[Any, ...]

    def get(self, name: str, default: Any = None) -> Any:
        keys = self.keys
        if name in keys:
            return self.values[keys.index(name)]
        return default


def histogram(values) -> dict[int, int]:
    """Sorted value -> multiplicity map (the report's histogram helper)."""
    return dict(sorted(Counter(values).items()))


@dataclass
class MetricsRecorder:
    """Mutable accumulator the kernel writes into during a run."""

    words_correct: int = 0
    words_total: int = 0
    messages_sent_correct: int = 0
    messages_sent_total: int = 0
    messages_delivered: int = 0
    words_delivered: int = 0
    words_by_kind: Counter = field(default_factory=Counter)
    messages_by_kind: Counter = field(default_factory=Counter)
    # Per-process accounting (correct senders only, like words_by_kind):
    # the evidence that no single node secretly does O(n) work in the
    # sub-quadratic protocols.
    words_by_sender: Counter = field(default_factory=Counter)
    messages_by_sender: Counter = field(default_factory=Counter)
    # Verification-cache accounting for this run (deltas of the PKI's
    # monotone counters, written by Simulation.run).
    vrf_verifications: int = 0
    vrf_cache_hits: int = 0
    sig_verifications: int = 0
    sig_cache_hits: int = 0
    # Pending-wait wakeup accounting: evaluated vs skipped by subscription.
    wait_evaluations: int = 0
    wait_skips: int = 0
    # Wall-clock seconds per kernel section / protocol span; empty unless
    # the simulation ran with profile=True (timings are the one field that
    # legitimately differs between otherwise identical runs).
    phase_timings: dict[str, float] = field(default_factory=dict)
    # Structured per-round facts appended by ProcessContext.annotate.
    protocol_records: list[ProtocolRecord] = field(default_factory=list)
    # Lossy-link accounting, written by Simulation.run when the run
    # carried an active LossyLinkConfig: the run-level fate counters
    # (drops/duplicates/reorders/corruptions) and the same counters
    # split by message kind.  Empty in reliable-model runs.
    lossy_link: dict[str, int] = field(default_factory=dict)
    lossy_by_kind: dict[str, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # One interned keys tuple per distinct annotation key shape (not
        # a field: it is derived from the records, never persisted).
        self._key_shapes: dict[tuple[str, ...], tuple[str, ...]] = {}

    def record(self, step: int, pid: int, kind: str, facts: dict[str, Any]) -> None:
        """Append one :class:`ProtocolRecord` of ``facts``; every record of
        one key shape shares one ``keys`` tuple."""
        keys = tuple(facts)
        self.protocol_records.append(
            ProtocolRecord(
                step, pid, kind, self._key_shapes.setdefault(keys, keys),
                tuple(facts.values()),
            )
        )

    @property
    def verifications(self) -> int:
        return self.vrf_verifications + self.sig_verifications

    @property
    def verification_cache_hits(self) -> int:
        return self.vrf_cache_hits + self.sig_cache_hits

    @property
    def verification_cache_hit_rate(self) -> float:
        """Fraction of verify calls answered from the cache (0.0 if none)."""
        total = self.verifications
        return self.verification_cache_hits / total if total else 0.0

    def record_verification_counters(
        self, before: tuple[int, int, int, int], after: tuple[int, int, int, int]
    ) -> None:
        """Store this run's share of the PKI's monotone verify counters."""
        self.vrf_verifications = after[0] - before[0]
        self.vrf_cache_hits = after[1] - before[1]
        self.sig_verifications = after[2] - before[2]
        self.sig_cache_hits = after[3] - before[3]

    def add_timing(self, section: str, seconds: float) -> None:
        self.phase_timings[section] = self.phase_timings.get(section, 0.0) + seconds

    # -- persistence ----------------------------------------------------------

    def to_dict(self, include_timings: bool = True) -> dict[str, Any]:
        """Every persisted counter, ready for ``store.save_results``.

        Includes the hot-path counters (verification cache hits,
        wait evaluations/skips) and -- unless ``include_timings`` is
        False -- the wall-clock phase timers.  Timings are excluded when
        comparing runs for byte-identity, since wall-clock legitimately
        varies between otherwise identical executions.  The raw protocol
        record log is *not* inlined (it is schedule-sized); its rollup is
        exposed via :meth:`protocol_summary`.
        """
        payload: dict[str, Any] = {
            "words_correct": self.words_correct,
            "words_total": self.words_total,
            "messages_sent_correct": self.messages_sent_correct,
            "messages_sent_total": self.messages_sent_total,
            "messages_delivered": self.messages_delivered,
            "words_delivered": self.words_delivered,
            "words_by_kind": dict(self.words_by_kind),
            "messages_by_kind": dict(self.messages_by_kind),
            # str keys so the payload round-trips through JSON unchanged.
            "words_by_sender": {
                str(pid): self.words_by_sender[pid]
                for pid in sorted(self.words_by_sender)
            },
            "messages_by_sender": {
                str(pid): self.messages_by_sender[pid]
                for pid in sorted(self.messages_by_sender)
            },
            "vrf_verifications": self.vrf_verifications,
            "vrf_cache_hits": self.vrf_cache_hits,
            "sig_verifications": self.sig_verifications,
            "sig_cache_hits": self.sig_cache_hits,
            "verification_cache_hit_rate": self.verification_cache_hit_rate,
            "wait_evaluations": self.wait_evaluations,
            "wait_skips": self.wait_skips,
        }
        if self.lossy_link:
            payload["lossy_link"] = dict(self.lossy_link)
        if self.lossy_by_kind:
            payload["lossy_by_kind"] = {
                fate: dict(kinds) for fate, kinds in self.lossy_by_kind.items()
            }
        if include_timings:
            payload["phase_timings"] = dict(self.phase_timings)
        return payload

    # -- protocol-record rollups ----------------------------------------------

    def records_of(self, kind: str) -> list[ProtocolRecord]:
        return [record for record in self.protocol_records if record.kind == kind]

    def rounds(self) -> list[dict[str, Any]]:
        """Round-indexed rollup of the per-process ``round`` records.

        One entry per (tag, round), ordered by first occurrence, with the
        set of participating pids, how many decided in that round, and the
        estimates the round ended with.
        """
        by_round: dict[Hashable, dict[str, Any]] = {}
        for record in self.records_of("round"):
            key = (record.get("tag"), record.get("round"))
            entry = by_round.setdefault(
                key,
                {
                    "tag": key[0],
                    "round": key[1],
                    "pids": [],
                    "decided": 0,
                    "estimates": Counter(),
                    "first_step": record.step,
                    "last_step": record.step,
                },
            )
            entry["pids"].append(record.pid)
            entry["estimates"][record.get("est")] += 1
            if record.get("decided") is not None:
                entry["decided"] += 1
            entry["first_step"] = min(entry["first_step"], record.step)
            entry["last_step"] = max(entry["last_step"], record.step)
        rows = sorted(by_round.values(), key=lambda row: (str(row["tag"]), row["round"]))
        for row in rows:
            row["pids"] = sorted(row["pids"])
            row["estimates"] = {
                repr(value): count for value, count in sorted(
                    row["estimates"].items(), key=lambda item: repr(item[0])
                )
            }
        return rows

    def coin_invocations(self) -> list[dict[str, Any]]:
        """Per-invocation coin rollup: outcomes, unanimity, observed sizes."""
        by_instance: dict[Hashable, dict[str, Any]] = {}
        for record in self.records_of("coin"):
            key = record.get("instance")
            entry = by_instance.setdefault(
                key,
                {
                    "instance": key,
                    "variant": record.get("variant"),
                    "outcomes": Counter(),
                    "participants": 0,
                    "first_step": record.step,
                    "last_step": record.step,
                },
            )
            entry["outcomes"][record.get("outcome")] += 1
            entry["participants"] += 1
            entry["first_step"] = min(entry["first_step"], record.step)
            entry["last_step"] = max(entry["last_step"], record.step)
        rows = sorted(by_instance.values(), key=lambda row: repr(row["instance"]))
        for row in rows:
            outcomes = row.pop("outcomes")
            row["outcomes"] = {repr(bit): count for bit, count in sorted(
                outcomes.items(), key=lambda item: repr(item[0])
            )}
            row["unanimous"] = len(outcomes) == 1
        return rows

    def coin_success_rate(self) -> float:
        """Fraction of coin invocations on which every participant agreed."""
        rows = self.coin_invocations()
        if not rows:
            return 0.0
        return sum(row["unanimous"] for row in rows) / len(rows)

    @staticmethod
    def _role_family(role: Any) -> str:
        """Collapse per-value role labels (e.g. ``("echo", v)``) to a family."""
        if isinstance(role, (tuple, list)) and role:
            return str(role[0])
        return str(role)

    def committee_sizes(self) -> dict[str, dict[int, int]]:
        """Observed committee-size histograms, keyed by committee role family.

        "Observed" means the count of distinct *validated* members a
        process saw for that committee by the time its instance finished
        -- the quantity the (1±d)λ concentration claims bound.
        """
        by_role: dict[str, list[int]] = {}
        for record in self.records_of("committee"):
            by_role.setdefault(self._role_family(record.get("role")), []).append(
                record.get("size")
            )
        return {role: histogram(sizes) for role, sizes in sorted(by_role.items())}

    def sampled_members(self) -> dict[tuple[Hashable, Hashable], int]:
        """``(instance, role) -> processes whose private sample_i came up
        True`` over every committee the ``sampled`` records name."""
        sizes: dict[tuple[Hashable, Hashable], int] = {}
        for record in self.records_of("sampled"):
            key = (record.get("instance"), record.get("role"))
            sizes[key] = sizes.get(key, 0) + bool(record.get("member"))
        return sizes

    def sampled_committee_sizes(self) -> dict[str, dict[int, int]]:
        """Self-reported committee sizes (:meth:`sampled_members`) by role
        family: the trusted-setup-free twin of experiment F1's view."""
        by_role: dict[str, list[int]] = {}
        for (_, role), size in self.sampled_members().items():
            by_role.setdefault(self._role_family(role), []).append(size)
        return {role: histogram(sizes) for role, sizes in sorted(by_role.items())}

    def approver_grades(self) -> dict[int, int]:
        """Histogram of approver return-set sizes (the 'grade')."""
        return histogram(
            record.get("grade") for record in self.records_of("approve")
        )

    def per_process_words(self) -> dict[str, Any]:
        """Per-node word-load rollup: the 'no hot node' evidence.

        Max/mean/min words sent per correct sender, the heaviest
        talkers, and the committee vs non-committee split (committee
        membership from the self-reported ``sampled`` records) -- in the
        sub-quadratic protocols the committee side should carry the
        heavy per-node load while everyone else stays near the mean.
        """
        loads = dict(self.words_by_sender)
        if not loads:
            return {"senders": 0}
        words = list(loads.values())
        committee_pids = {
            record.pid
            for record in self.records_of("sampled")
            if record.get("member")
        }
        committee = [loads[pid] for pid in loads if pid in committee_pids]
        rest = [loads[pid] for pid in loads if pid not in committee_pids]

        def stats(values: list[int]) -> dict[str, Any]:
            if not values:
                return {"senders": 0, "words": 0}
            return {
                "senders": len(values),
                "words": sum(values),
                "max_words": max(values),
                "mean_words": sum(values) / len(values),
                "min_words": min(values),
            }

        top = sorted(loads.items(), key=lambda item: (-item[1], item[0]))[:5]
        return {
            **stats(words),
            "top_senders": [[pid, load] for pid, load in top],
            "committee": stats(committee),
            "non_committee": stats(rest),
        }

    def protocol_summary(self) -> dict[str, Any]:
        """All protocol-record rollups in one JSON-friendly dict."""
        return {
            "rounds": self.rounds(),
            "coin_invocations": self.coin_invocations(),
            "coin_success_rate": self.coin_success_rate(),
            "committee_sizes": self.committee_sizes(),
            "sampled_committee_sizes": self.sampled_committee_sizes(),
            "approver_grades": self.approver_grades(),
            "per_process_words": self.per_process_words(),
        }
