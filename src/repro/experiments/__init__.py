"""The experiment harness: one module per artefact in DESIGN.md's index.

:mod:`repro.experiments.registry` is the index: ``EXPERIMENTS`` maps each
key (``t1``, ``f1``, ``e1`` ... ``e8``, ``e1b``, ``x1``, ``x2``) to its
module's ``run`` / ``format_*`` pair, the budget its tracked table under
``benchmarks/results/`` was made with, and a smoke-scale ``quick``
budget.  The CLI, ``benchmarks/`` and the tests all size their sweeps
from it.  :mod:`repro.experiments.sweep` is the harness the modules run
on (the BA-run record, ``sweep`` over cells x seeds, the folds).

Around them: ``protocols`` (uniform construction of the Table 1
protocols), ``parallel`` (deterministic multi-seed execution),
``tables``/``ascii_plot`` (rendering), ``store`` (JSON persistence,
including the ``BENCH_<name>.json`` snapshots) and ``conformance`` (the
monitored `repro check` sweep).
"""

from repro.experiments.tables import format_table
from repro.experiments.parallel import derive_sweep_seeds, parallel_map, resolve_workers
from repro.experiments.protocols import PROTOCOLS, make_runner

__all__ = [
    "PROTOCOLS",
    "derive_sweep_seeds",
    "format_table",
    "make_runner",
    "parallel_map",
    "resolve_workers",
]
