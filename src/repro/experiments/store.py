"""Persist experiment results as JSON and JSONL.

The text tables in ``benchmarks/results`` are for humans; this module
gives the same data a machine-readable life: experiment dataclasses
serialise to JSON (NaN-safe) and reload as plain dicts.  A
``BENCH_<name>.json`` snapshot is :func:`save_results` of the payload
itself; exact counts are pinned by ``tests/fingerprints.json``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "append_jsonl",
    "iter_jsonl",
    "load_journal",
    "load_jsonl",
    "load_results",
    "save_jsonl",
    "save_results",
    "to_jsonable",
]


def to_jsonable(value: Any) -> Any:
    """Convert experiment results (nested dataclasses / tuples / dicts)
    into JSON-encodable structures.

    Floats that JSON cannot represent (NaN, ±inf) become ``None`` --
    experiments use NaN for "no data", which round-trips as null.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [to_jsonable(item) for item in items]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def save_results(name: str, payload: Any, directory: str | Path) -> Path:
    """Serialise ``payload`` to ``<directory>/<name>.json``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(to_jsonable(payload), indent=2, sort_keys=True) + "\n")
    return path


def load_results(name: str, directory: str | Path) -> Any:
    """Load a previously saved result set."""
    path = Path(directory) / f"{name}.json"
    return json.loads(path.read_text())


def save_jsonl(
    path: str | Path,
    records: Iterable[dict[str, Any]],
    finish: Callable[[Path], None] | None = None,
) -> Path:
    """Write an iterable of records to ``path``, one JSON object per line.

    The streaming sibling of :func:`save_results`: flight recordings are
    schedule-sized (one line per 1,024 deliveries), so they are written
    line-by-line instead of as one indented document, in canonical form
    (sorted keys, no padding) so equal records give equal bytes.

    Records must already be JSON-native -- the caller runs
    :func:`to_jsonable` over the few values that may not be, never a
    whole-record walk per line; anything else raises ``TypeError``.  The
    lines go to a sibling ``.partial`` file that replaces ``path`` only
    once ``records`` is exhausted, so a generator may validate as it goes
    and raise: nothing is left behind and an older file at ``path``
    survives.  ``finish``, if given, gets the complete ``.partial`` file
    just before it replaces ``path`` (a recording seals its digest there).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    try:
        with partial.open("w") as handle:
            handle.writelines(encode(record) + "\n" for record in records)
        if finish is not None:
            finish(partial)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
    return path


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """``(line number, record)`` for each line of a JSONL file (blank
    lines skipped, numbering from 1).

    A line that is not valid JSON raises ``ValueError`` naming the file
    and line number -- the usual cause is a truncated write (killed run,
    full disk), and "line 812 is cut short" beats a bare decoder
    traceback.
    """
    with Path(path).open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: line {lineno} is not valid JSON ({exc.msg}); "
                    "truncated or corrupt file?"
                ) from exc
            yield lineno, record


def load_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """A JSONL file's records as a list (see :func:`iter_jsonl`)."""
    return [record for _, record in iter_jsonl(path)]


def append_jsonl(path: str | Path, record: dict[str, Any]) -> None:
    """Append one record to the journal at ``path`` (created on demand)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True))
        handle.write("\n")


def load_journal(path: str | Path, schema: str, version: int) -> list[dict[str, Any]]:
    """All records of an append-only journal, oldest first.

    A missing file is an empty journal.  Raises ``ValueError`` (one
    line, with the record number) on a record from a different schema or
    another version -- don't silently misread someone else's journal.
    """
    if not Path(path).exists():
        return []
    records = load_jsonl(path)
    for index, record in enumerate(records, start=1):
        if record.get("schema") != schema:
            raise ValueError(
                f"{path}: record {index} has schema "
                f"{record.get('schema')!r}, expected {schema!r}"
            )
        if record.get("version") != version:
            raise ValueError(
                f"{path}: record {index} has version "
                f"{record.get('version')!r}, this build reads {version}"
            )
    return records
