"""Cross-run trend store: every benchmark leaves a machine-readable trail.

The text tables under ``benchmarks/results`` answer "what happened this
run"; this module answers "what has been happening".  A
:class:`TrendStore` is a schema-versioned JSONL journal
(``BENCH_trends.jsonl`` at the repository root, written through
:mod:`repro.experiments.store`) that benchmarks and the conformance
checker append one record per run to, plus a ``BENCH_<name>.json``
latest-snapshot per series so CI artifacts and quick inspection never
need to scan the journal.

Records are ``{schema, version, ts, name, payload}``; foreign or
future-versioned records fail loudly on load (same policy as flight
recordings).

Drift has one rule, :func:`numeric_drifts`: numeric leaves of a series'
newest-vs-baseline payloads beyond a relative tolerance, volatile paths
(:data:`VOLATILE_SUBSTRINGS`: wall clock, timestamps, rendered text)
skipped.  ``python -m repro trends`` shows it as the drift column and the
dashboard highlights it; exact counts are pinned by
``tests/fingerprints.json`` (:mod:`repro.experiments.fingerprint`).
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from pathlib import Path
from typing import Any

from repro.experiments.store import (
    append_jsonl,
    load_journal,
    to_jsonable,
)

__all__ = [
    "TREND_SCHEMA",
    "TREND_SCHEMA_VERSION",
    "TrendStore",
    "VOLATILE_SUBSTRINGS",
    "bench_json_path",
    "numeric_drifts",
    "payload_fingerprint",
    "record_bench",
    "render_trends",
    "sparkline",
    "strip_volatile",
]

TREND_SCHEMA = "repro.trends"
TREND_SCHEMA_VERSION = 1
TRENDS_FILENAME = "BENCH_trends.jsonl"


def bench_json_path(name: str, root: str | Path = ".") -> Path:
    """Where the latest snapshot of series ``name`` lives."""
    return Path(root) / f"BENCH_{name}.json"


_DROPPED = object()


def strip_volatile(payload: Any, path: str = "$") -> Any:
    """``payload`` with every volatile path removed -- the
    configuration-and-results view a fingerprint should hash."""
    if _volatile(path):
        return _DROPPED
    if isinstance(payload, dict):
        stripped = {}
        for key in sorted(payload):
            value = strip_volatile(payload[key], f"{path}.{key}")
            if value is not _DROPPED:
                stripped[key] = value
        return stripped
    if isinstance(payload, (list, tuple)):
        return [
            item
            for index, entry in enumerate(payload)
            for item in (strip_volatile(entry, f"{path}[{index}]"),)
            if item is not _DROPPED
        ]
    return payload


def payload_fingerprint(payload: Any) -> str:
    """Hash of a payload's non-volatile part (:func:`strip_volatile`): two
    runs at one configuration match whatever their wall clocks read.  A
    payload that is *all* volatile (a rendered-report-only record) hashes
    whole, so it only ever dedupes byte-identical twins."""
    jsonable = to_jsonable(payload)
    stripped = strip_volatile(jsonable)
    if stripped == {} or stripped == []:
        stripped = jsonable
    digest = hashlib.sha256(
        json.dumps(stripped, sort_keys=True).encode()
    )
    return digest.hexdigest()[:16]


def _current_commit(root: str | Path) -> str | None:
    """The working tree's HEAD commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(Path(root).resolve()), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


class TrendStore:
    """Append-only journal of benchmark/conformance summaries."""

    def __init__(self, root: str | Path = ".") -> None:
        self.root = Path(root)
        self.path = self.root / TRENDS_FILENAME

    def append(
        self,
        name: str,
        payload: Any,
        ts: float | None = None,
        dedupe: bool = True,
    ) -> dict:
        """Append one record for series ``name``; returns the record.

        Records carry a ``fingerprint`` (:func:`payload_fingerprint`) and
        the checkout's ``commit``; with ``dedupe`` on, a rerun matching the
        series' newest record on both is not appended, and that record is
        returned (the drift column must not compare a record with its clone).
        """
        fingerprint = payload_fingerprint(payload)
        commit = _current_commit(self.root)
        if dedupe:
            try:
                last = self.latest(name)
            except (OSError, ValueError):
                last = None  # a damaged journal must not block appends
            if (
                last is not None
                and last.get("fingerprint") == fingerprint
                and last.get("commit") == commit
            ):
                return last
        record = {
            "schema": TREND_SCHEMA,
            "version": TREND_SCHEMA_VERSION,
            "ts": time.time() if ts is None else ts,
            "name": name,
            "payload": to_jsonable(payload),
            "fingerprint": fingerprint,
            "commit": commit,
        }
        append_jsonl(self.path, record)
        return record

    def load(self) -> list[dict]:
        """All records, oldest first.  Raises ``ValueError`` on records
        from a different schema or a future version (don't silently
        misread someone else's journal)."""
        return load_journal(self.path, TREND_SCHEMA, TREND_SCHEMA_VERSION)

    def names(self) -> list[str]:
        return sorted({record["name"] for record in self.load()})

    def history(self, name: str) -> list[dict]:
        """All records of one series, oldest first."""
        return [record for record in self.load() if record["name"] == name]

    def latest(self, name: str) -> dict | None:
        history = self.history(name)
        return history[-1] if history else None


def record_bench(
    name: str, payload: Any, root: str | Path = "."
) -> tuple[Path, dict]:
    """Record one benchmark summary: append to the journal AND refresh
    the ``BENCH_<name>.json`` snapshot.  Returns (snapshot path, record).

    This is the one call sites use (``benchmarks/conftest.py``, the
    conformance checker); keeping journal and snapshot in lockstep means
    the snapshot is always the journal's newest record.
    """
    store = TrendStore(root)
    record = store.append(name, payload)
    path = bench_json_path(name, root)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path, record


# -- numeric drift extraction ------------------------------------------------

# Path substrings excluded from drift and sparklines: legitimately
# volatile between otherwise identical runs (wall clock, peak resident
# set, timestamps, rendered text, machine-speed-derived bounds, and
# coverage-novelty counts, which depend on how much the atlas had
# accumulated *before* the run rather than on the run itself).
VOLATILE_SUBSTRINGS = (
    "phase_timings",
    "wallclock",
    "elapsed",
    "seconds",
    "per_second",
    "rss",
    ".ts",
    ".report",
    "interval",
    "new_signatures",
    "new_rate",
    "runs_with_new",
    "baseline_signatures",
    "novelty",
    "corpus",
)


def _volatile(path: str) -> bool:
    lowered = path.lower()
    return any(token in lowered for token in VOLATILE_SUBSTRINGS)


def numeric_leaves(payload: Any, path: str = "$") -> dict[str, float]:
    """Flatten a payload's non-volatile numeric leaves to ``path -> value``.

    Bools are skipped (they are verdicts, not magnitudes), as is every
    path matching :data:`VOLATILE_SUBSTRINGS`.
    """
    leaves: dict[str, float] = {}
    if _volatile(path):
        return leaves
    if isinstance(payload, dict):
        for key in sorted(payload):
            leaves.update(numeric_leaves(payload[key], f"{path}.{key}"))
    elif isinstance(payload, (list, tuple)):
        for index, item in enumerate(payload):
            leaves.update(numeric_leaves(item, f"{path}[{index}]"))
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        leaves[path] = float(payload)
    return leaves


def numeric_drifts(
    baseline: Any, current: Any, rel_tol: float = 0.1
) -> list[str]:
    """Out-of-tolerance numeric drift between two payloads.

    Only numeric leaves present in *both* payloads are judged, and the
    excluded (volatile) paths are skipped -- structure growth (a new
    field, a longer table) is evolution, not regression.  A leaf flipping between NaN
    and a number is a drift (a statistic appearing or vanishing is a
    real change); a leaf that is NaN on *both* sides is skipped -- NaN
    compares unequal to itself, so the naive tolerance check would
    silently pass it forever.
    """
    before = numeric_leaves(baseline)
    after = numeric_leaves(current)
    drifts = []
    for path in sorted(set(before) & set(after)):
        old, new = before[path], after[path]
        old_nan, new_nan = old != old, new != new
        if old_nan and new_nan:
            continue
        if old_nan or new_nan:
            drifts.append(f"{path}: {old:g} -> {new:g} (NaN transition)")
            continue
        tolerance = max(abs(old) * rel_tol, 1e-9)
        if abs(old - new) > tolerance:
            drifts.append(f"{path}: {old:g} -> {new:g} (beyond {rel_tol:.0%})")
    return drifts


_SPARK_LEVELS = "_.:-=+*#%@"  # low -> high; NaN renders as a blank


def sparkline(values: list[float]) -> str:
    """Render a numeric series as a fixed-charset ASCII sparkline.

    Flat series render as all-middle characters; a single value is one
    character.  Used by the trends table and the dashboard to show
    drift *direction*, not just magnitude.
    """
    finite = [v for v in values if v == v]
    if not finite:
        return ""
    lo, hi = min(finite), max(finite)
    if hi == lo:
        return _SPARK_LEVELS[len(_SPARK_LEVELS) // 2] * len(values)
    chars = []
    for value in values:
        if value != value:
            chars.append(" ")
            continue
        level = round((value - lo) / (hi - lo) * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


# Preference order for the one scalar a series is sparklined by: the
# quantities the paper's trajectory claims are about, then anything.
_CANONICAL_PREFERENCES = (
    "words", "round", "coin", "rate", "duration", "deliver", "bound",
)


def canonical_scalar(window: list[dict]) -> tuple[str, list[float]] | None:
    """Pick one numeric leaf path present across a window of records and
    return ``(path, values oldest-first)``; None when nothing qualifies."""
    flattened = [numeric_leaves(record["payload"]) for record in window]
    common = set(flattened[0])
    for leaves in flattened[1:]:
        common &= set(leaves)
    if not common:
        return None

    def rank(path: str) -> tuple[int, str]:
        lowered = path.lower()
        for position, token in enumerate(_CANONICAL_PREFERENCES):
            if token in lowered:
                return (position, path)
        return (len(_CANONICAL_PREFERENCES), path)

    chosen = min(common, key=rank)
    return chosen, [leaves[chosen] for leaves in flattened]


def render_trends(store: TrendStore, rel_tol: float = 0.1, last: int = 2) -> str:
    """The ``python -m repro trends`` table: one row per series with its
    record count, newest timestamp, a sparkline over the newest ``last``
    records, and drift of the newest record vs the window's oldest."""
    names = store.names()
    if not names:
        return (
            f"no trend records at {store.path}\n"
            "(benchmarks and `repro check` append here as they run)"
        )
    last = max(2, last)
    spark_width = max(5, last)
    lines = [
        f"trend store: {store.path}",
        "",
        f"{'series':<28} {'records':>7}  {'latest':<19}  "
        f"{'trend':<{spark_width}}  drift vs {last - 1} back",
    ]
    for name in names:
        history = store.history(name)
        newest = history[-1]
        window = history[-last:]
        stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(newest["ts"]))
        scalar = canonical_scalar(window) if len(window) > 1 else None
        spark = sparkline(scalar[1]) if scalar else ""
        if len(history) < 2:
            drift, drifts = "(first record)", []
        else:
            drifts = numeric_drifts(
                window[0]["payload"], newest["payload"], rel_tol=rel_tol
            )
            drift = (
                f"none (within {rel_tol:.0%})" if not drifts
                else f"{len(drifts)} field(s)"
            )
        lines.append(
            f"{name:<28} {len(history):>7}  {stamp:<19}  "
            f"{spark:<{spark_width}}  {drift}"
        )
        if scalar:
            lines.append(f"{'':<28}   tracking {scalar[0]}")
        for description in drifts[:8]:
            lines.append(f"{'':<28}   {description}")
        if len(drifts) > 8:
            lines.append(f"{'':<28}   ... and {len(drifts) - 8} more")
    return "\n".join(lines)
