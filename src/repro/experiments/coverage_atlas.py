"""Cross-run coverage atlas: which interleavings have we *ever* seen?

One :class:`~repro.sim.coverage.CoverageProbe` snapshot describes one
run; this module accumulates the signature **sets** of many runs into a
schema-versioned JSONL journal (``BENCH_coverage_atlas.jsonl`` at the
repository root) so the question "did this
seed/scheduler/protocol explore anything new?" has a durable answer.
Each record stores the run's identity header, its full signature list,
and the novelty accounting at append time -- which signatures were new
against everything recorded before, and how many distinct signatures
the atlas knew afterwards -- so growth curves and new-coverage rates
render straight off the journal without re-deriving set unions.

The atlas is the measurement half of the ROADMAP's coverage-guided
schedule fuzzing item: a fuzzer mutates schedules *toward* signatures
the atlas has never seen, and a conformance sweep whose seeds stop
contributing new signatures (``new-coverage rate 0%``) is a sweep that
re-explores one interleaving -- exactly the condition the nightly CI
coverage job alarms on when monitors are simultaneously flagging rate
anomalies.

Render with ``python -m repro coverage`` (atlas view: growth sparkline,
per-family breakdown, rarest-hit signatures) or ``python -m repro
coverage <recording.jsonl>`` (per-run view: recompute a recording's
coverage and diff it against the atlas).  Damaged or foreign journals
fail loudly with one-line diagnoses, same policy as flight recordings.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Iterable

from repro.experiments.store import append_jsonl, load_journal
from repro.sim.coverage import signature_families

__all__ = [
    "ATLAS_FILENAME",
    "ATLAS_SCHEMA",
    "ATLAS_SCHEMA_VERSION",
    "CoverageAtlas",
    "format_atlas",
    "format_coverage_run",
    "sparkline",
]

ATLAS_SCHEMA = "repro.coverage_atlas"
ATLAS_SCHEMA_VERSION = 1
ATLAS_FILENAME = "BENCH_coverage_atlas.jsonl"


_SPARK_LEVELS = "_.:-=+*#%@"  # low -> high


def sparkline(values: list[float]) -> str:
    """One character per value, scaled between the series' minimum and
    maximum; a flat series renders as the middle level throughout."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return _SPARK_LEVELS[len(_SPARK_LEVELS) // 2] * len(values)
    top = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[round((value - lo) / (hi - lo) * top)] for value in values
    )


class CoverageAtlas:
    """Append-only journal of per-run coverage signature sets."""

    def __init__(self, root: str | Path = ".") -> None:
        self.root = Path(root)
        self.path = self.root / ATLAS_FILENAME

    def load(self) -> list[dict]:
        """All records, oldest first; ``ValueError`` (one line, with the
        record number) on foreign schemas or future versions."""
        return load_journal(self.path, ATLAS_SCHEMA, ATLAS_SCHEMA_VERSION)

    def known_signatures(self, records: list[dict] | None = None) -> set[str]:
        """Every signature any recorded run has ever covered."""
        if records is None:
            records = self.load()
        known: set[str] = set()
        for record in records:
            known.update(record["signatures"])
        return known

    def record_run(
        self,
        run: dict[str, Any],
        signatures: Iterable[str],
        ts: float | None = None,
    ) -> dict:
        """Append one run's signature set with novelty accounting.

        ``run`` is the identity header (protocol, n, f, seed, scheduler,
        source...); novelty is judged against everything already in the
        journal at append time.  Returns the appended record.
        """
        known = self.known_signatures()
        signatures = sorted(set(signatures))
        new = sorted(set(signatures) - known)
        record = {
            "schema": ATLAS_SCHEMA,
            "version": ATLAS_SCHEMA_VERSION,
            "ts": time.time() if ts is None else ts,
            "run": dict(run),
            "signatures": signatures,
            "signature_count": len(signatures),
            "new_signatures": new,
            "new_count": len(new),
            "known_after": len(known | set(signatures)),
        }
        append_jsonl(self.path, record)
        return record

    # -- derived views ---------------------------------------------------------

    def growth(self, records: list[dict] | None = None) -> list[dict]:
        """Per-record growth curve: new signatures and atlas size."""
        if records is None:
            records = self.load()
        return [
            {
                "index": index,
                "run": record["run"],
                "signatures": record["signature_count"],
                "new": record["new_count"],
                "known_after": record["known_after"],
                "new_rate": (
                    record["new_count"] / record["signature_count"]
                    if record["signature_count"]
                    else 0.0
                ),
            }
            for index, record in enumerate(records, start=1)
        ]

    def rarest(
        self, k: int = 10, records: list[dict] | None = None
    ) -> list[tuple[str, int]]:
        """The ``k`` signatures present in the fewest runs (ties broken
        alphabetically) -- the thin ice of the explored schedule space,
        and the fuzzer's first targets."""
        if records is None:
            records = self.load()
        runs_with: dict[str, int] = {}
        for record in records:
            for signature in record["signatures"]:
                runs_with[signature] = runs_with.get(signature, 0) + 1
        ranked = sorted(runs_with.items(), key=lambda item: (item[1], item[0]))
        return ranked[:k]


# -- rendering ----------------------------------------------------------------


def format_coverage_run(
    snapshot: dict[str, Any],
    atlas: "CoverageAtlas | None" = None,
    source: str | None = None,
) -> str:
    """The per-run view: one recording's coverage, diffed vs the atlas."""
    signatures = snapshot.get("signatures", {})
    lines = []
    if source:
        lines.append(f"coverage of {source}")
    lines.append(
        f"{snapshot.get('total_signatures', len(signatures))} distinct "
        f"signatures, {snapshot.get('total_hits', 0)} hits over "
        f"{snapshot.get('counters', {}).get('events', 0)} kernel events"
    )
    families = snapshot.get("families", {})
    for name in sorted(families):
        entry = families[name]
        lines.append(
            f"  {name:<9} {entry['signatures']:>5} signatures  "
            f"{entry['hits']:>8} hits"
        )
    dropped = snapshot.get("dropped_signatures", 0)
    if dropped:
        lines.append(
            f"  ({dropped} hits beyond the {snapshot['signature_budget']}"
            "-key budget were dropped)"
        )
    if atlas is not None and atlas.path.exists():
        known = atlas.known_signatures()
        new = sorted(set(signatures) - known)
        lines.append(
            f"vs atlas {atlas.path}: {len(new)} of {len(signatures)} "
            f"signatures are new ({len(known)} known)"
        )
        for signature in new[:10]:
            lines.append(f"  + {signature}")
        if len(new) > 10:
            lines.append(f"  ... and {len(new) - 10} more")
    elif atlas is not None:
        lines.append(f"(no atlas at {atlas.path} yet; run `repro check` to seed it)")
    return "\n".join(lines)


def format_atlas(atlas: CoverageAtlas, rarest: int = 10) -> str:
    """The atlas view: growth curve, per-family census, rarest hits."""
    records = atlas.load()
    if not records:
        return (
            f"no coverage atlas at {atlas.path}\n"
            "(`repro check` and the conformance CI job append one record "
            "per monitored run)"
        )
    growth = atlas.growth(records)
    known = atlas.known_signatures(records)
    contributing = sum(1 for point in growth if point["new"])
    lines = [
        f"coverage atlas: {atlas.path}",
        f"{len(records)} runs recorded, {len(known)} distinct signatures, "
        f"{contributing}/{len(growth)} runs contributed new coverage",
        "",
        f"atlas growth   {sparkline([point['known_after'] for point in growth])}"
        f"  ({growth[0]['known_after']} -> {growth[-1]['known_after']})",
        f"new per run    {sparkline([float(point['new']) for point in growth])}"
        f"  (latest {growth[-1]['new']}, "
        f"rate {growth[-1]['new_rate']:.0%})",
        "",
        "signatures by family:",
    ]
    for family, count in signature_families(known).items():
        lines.append(f"  {family:<9} {count:>5}")
    ranked = atlas.rarest(rarest, records)
    if ranked:
        lines.append("")
        lines.append(f"rarest signatures (seen in fewest of {len(records)} runs):")
        for signature, runs_with in ranked:
            lines.append(f"  {runs_with:>3}x  {signature}")
    newest = records[-1]
    run = newest.get("run", {})
    header = ", ".join(f"{key}={run[key]}" for key in sorted(run))
    lines.append("")
    lines.append(f"newest record: {header or '(no run header)'}")
    return "\n".join(lines)
