"""Parallel multi-seed sweep execution for experiment drivers.

Monte-Carlo sweeps are embarrassingly parallel: every run is a pure
function of ``(configuration, seed)``.  :func:`parallel_map` fans such
runs out over a ``ProcessPoolExecutor`` while keeping results in
submission order, so a sweep aggregates *identical* numbers no matter
how many workers execute it -- determinism lives in the per-run seeds
(see :func:`derive_sweep_seeds`), never in scheduling.

Workers must be top-level (picklable) functions taking picklable
arguments; each driver defines a module-level ``_worker`` that rebuilds
its protocol closure inside the child process from primitive arguments.

Worker-count resolution order: explicit ``workers`` argument, else the
``REPRO_WORKERS`` environment variable, else serial.  ``workers=1`` (the
default) runs everything inline in the parent -- no executor, no pickle
round-trips -- which is also the fallback when a pool cannot be spawned
(sandboxed interpreters).  Values ``<= 0`` mean "one per CPU".
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.crypto.hashing import derive_seed

__all__ = ["derive_sweep_seeds", "parallel_map", "resolve_workers"]

T = TypeVar("T")

_WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: argument, else ``REPRO_WORKERS``, else 1.

    ``workers <= 0`` (or a non-positive env value) requests one worker
    per CPU.  The result is always >= 1.
    """
    if workers is None:
        raw = os.environ.get(_WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            return 1
    if workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, workers)


def derive_sweep_seeds(root_seed: int, count: int, *labels: Any) -> list[int]:
    """``count`` independent per-run seeds, deterministic in ``root_seed``.

    Uses the same :func:`derive_seed` tree as the rest of the repo, so a
    sweep's run ``i`` sees one fixed seed whether it executes serially,
    in a pool, or alone in a re-run of that single index.  Float labels
    (a sweep's d or epsilon) are canonicalised via ``repr`` -- the hash
    encoding only accepts ints/strings/bytes.
    """
    canonical = tuple(
        repr(label) if isinstance(label, float) else label for label in labels
    )
    return [derive_seed(root_seed, "sweep", *canonical, i) for i in range(count)]


def parallel_map(
    worker: Callable[..., T],
    argument_tuples: Iterable[tuple],
    *,
    workers: int | None = None,
) -> list[T]:
    """Apply ``worker(*args)`` to every tuple, in submission order.

    Serial when the resolved worker count is 1 (the default); otherwise
    fans out over a ``ProcessPoolExecutor``.  Falls back to serial
    execution if the pool cannot be created (e.g. no ``fork``/``spawn``
    support in the sandbox).  Results are ordered by input position, so
    callers aggregate identically either way.
    """
    jobs = [tuple(args) for args in argument_tuples]
    count = resolve_workers(workers)
    if count <= 1 or len(jobs) <= 1:
        return [worker(*args) for args in jobs]
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(count, len(jobs))) as pool:
            futures = [pool.submit(worker, *args) for args in jobs]
            return [future.result() for future in futures]
    except (OSError, ImportError, PermissionError):
        return [worker(*args) for args in jobs]
