"""Shared helpers for the benchmark/experiment harness.

Every ``bench_*`` file both *times* a representative workload (ordinary
pytest-benchmark usage) and *regenerates* its paper artefact, printing
the table and saving it under ``benchmarks/results/`` so EXPERIMENTS.md
can be refreshed from the files.

The save fixture also feeds the cross-run trend store
(:mod:`repro.experiments.trends`): each benchmark leaves a
``BENCH_<name>.json`` snapshot at the repository root and appends to the
``BENCH_trends.jsonl`` journal, so ``python -m repro trends`` can show
the trajectory (and drift) of every benchmark over time, not just its
latest table.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent


@pytest.fixture(scope="session")
def save_report():
    """Persist one experiment's rendered table, and its raw rows as JSON
    when given (``results/<name>.json``); returns the table's path.

    Each call journals one trend record: the rows when given, since the
    trends table's drift column diffs their numbers run over run, else
    the rendered text.
    """
    from repro.experiments.store import save_results
    from repro.experiments.trends import record_bench

    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str, provenance: str = "", rows=None) -> Path:
        # provenance: an Experiment.artefact()'s `# ` header; not trended.
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(provenance + text + "\n")
        if rows is not None:
            save_results(name, rows, RESULTS_DIR)
        record_bench(
            name, {"report": text} if rows is None else rows, root=REPO_ROOT
        )
        print(f"\n{text}\n[saved to {path}]")
        return path

    return _save


def once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer.

    Experiment regenerations are long-running and deterministic; timing a
    single execution keeps ``pytest benchmarks/ --benchmark-only`` honest
    without re-running multi-minute sweeps.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
