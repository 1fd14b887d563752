"""The parallel sweep executor: determinism, ordering, worker resolution.

The invariant the drivers rely on: a sweep aggregates identical numbers
whether it runs serially, in a process pool, or re-runs one index alone
-- per-run seeds are derived, never drawn from shared state.
"""

from __future__ import annotations

import os

from repro.experiments.parallel import (
    derive_sweep_seeds,
    parallel_map,
    resolve_workers,
)


def _square(x: int) -> int:
    return x * x


def _add(x: int, y: int) -> int:
    return x + y


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_nonpositive_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(0) == (os.cpu_count() or 1)
        assert resolve_workers(-2) == (os.cpu_count() or 1)

    def test_garbage_env_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert resolve_workers() == 1


class TestDeriveSweepSeeds:
    def test_deterministic_and_distinct(self):
        a = derive_sweep_seeds(42, 10, "e3", 0.01)
        b = derive_sweep_seeds(42, 10, "e3", 0.01)
        assert a == b
        assert len(set(a)) == 10

    def test_labels_and_root_separate_streams(self):
        assert derive_sweep_seeds(42, 5, "x") != derive_sweep_seeds(42, 5, "y")
        assert derive_sweep_seeds(1, 5, "x") != derive_sweep_seeds(2, 5, "x")

    def test_prefix_stability(self):
        # Growing a sweep keeps the existing runs' seeds.
        assert derive_sweep_seeds(7, 3, "e1") == derive_sweep_seeds(7, 6, "e1")[:3]


class TestParallelMap:
    def test_serial_matches_input_order(self):
        assert parallel_map(_square, [(i,) for i in range(6)]) == [
            0, 1, 4, 9, 16, 25,
        ]

    def test_pool_matches_serial(self):
        jobs = [(i, 10 * i) for i in range(8)]
        serial = parallel_map(_add, jobs, workers=1)
        pooled = parallel_map(_add, jobs, workers=2)
        assert pooled == serial

    def test_empty_input(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_single_job_runs_inline(self):
        assert parallel_map(_square, [(9,)], workers=8) == [81]
