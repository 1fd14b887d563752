"""The one table of what each artefact is and what budget it runs at.

``EXPERIMENTS`` maps a key (``t1`` ... ``x2``) to an :class:`Experiment`:
its ``run`` / ``format`` pair, the ``budget`` its tracked table under
``benchmarks/results/`` was made with, and the ``quick`` overrides for a
smoke-scale look.  ``python -m repro <key>``, ``benchmarks/bench_<key>_*``
and the tests all read budgets from here, so the CLI reproduces the
tracked table and re-budgeting an artefact is an edit to this file.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.core.params import ProtocolParams
from repro.experiments import (
    ablation,
    coin_success,
    committee_bounds,
    common_values,
    fig1,
    hybrid_fallback,
    justification_ablation,
    mmr_ourcoin,
    rounds,
    safety,
    scaling,
    table1,
    whp_coin_sweep,
)
from repro.experiments.protocols import PROTOCOLS, make_runner

__all__ = ["E2_SIMULATION_SCALE", "EXPERIMENTS", "Experiment"]


def _current_commit() -> str:
    """The HEAD commit of the checkout these sources are in, or
    ``unknown`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return (proc.returncode == 0 and proc.stdout.strip()) or "unknown"


@dataclass(frozen=True)
class Experiment:
    key: str
    description: str  # the `repro list` line
    title: str  # report headline; a template over the budget, {seeds} = their count
    results: str  # benchmarks/results/<results>.txt
    run: Callable[..., Any]
    format: Callable[[Any], str]
    params: Callable[..., Iterable[ProtocolParams]]  # the bundles a budget runs at
    budget: dict[str, Any]
    quick: dict[str, Any]  # overrides on top of ``budget``

    def resolve(self, quick: bool, overrides: dict[str, Any]) -> dict[str, Any]:
        """The budget a run uses: ``budget``, then ``quick``, then the
        overrides it has a key for (``repro all --n`` reaches keys
        without an ``n``, too)."""
        known = {name: overrides[name] for name in overrides if name in self.budget}
        return {**self.budget, **(self.quick if quick else {}), **known}

    def report(self, result: Any, budget: dict[str, Any]) -> str:
        """The artefact's text: headline, blank line, table."""
        title = self.title.format(**{**budget, "seeds": len(budget["seeds"])})
        return f"{title}\n\n{self.format(result)}"

    def artefact(self, result: Any) -> tuple[str, str, str]:
        """``(results name, report, provenance)`` of a run at ``budget``, as
        ``benchmarks/conftest.py::save_report`` takes them.  The provenance
        is a ``# `` header block saying what made the table."""
        lines = [
            f"experiment: {self.key}",
            f"commit: {_current_commit()}",
            f"seeds: {' '.join(map(str, self.budget['seeds']))}",
            "budget: " + " ".join(f"{k}={v!r}" for k, v in self.budget.items()),
        ]
        for params in dict.fromkeys(self.params(**self.budget)):
            violations = "; ".join(params.paper_violations()) or "none"
            lines.append(f"paper_violations [{params.describe()}]: {violations}")
        header = "".join(f"# {line}\n" for line in lines)
        return self.results, self.report(result, self.budget), header


def _ba(protocols, n_values, safety_sigmas, f=None) -> list[ProtocolParams]:
    return [
        make_runner(name, n, f=f, safety_sigmas=safety_sigmas)[1]
        for name in protocols for n in n_values
    ]


# ``safety_sigmas``, the committee margin, is a budget key like n:
# ``simulation_scale`` climbs λ from 8 ln n until W and B leave that many
# binomial sigmas, so it moves whp_ba's words as much as n does.  The BA
# tables (T1, E5, E8, X1, X2) run at 4: a run samples ~10 committees a
# round, and 3-sigma tails (~0.07% each) still deadlock a few percent of
# runs.  E4 runs at 3 with a small fixed f, as its sub-quadratic shape
# shows only once λ plateaus (λ absorbs ~(sigmas/epsilon)^2 whatever n is).
# F1, E2b and E3 sample committees at the library's 3; E2a's None is the
# paper's λ = 8 ln n.  E7 runs no committees.

EXPERIMENTS: dict[str, Experiment] = {
    experiment.key: experiment
    for experiment in (
        Experiment(
            "t1", "Table 1: all protocols compared",
            "T1: Table 1 at n={n}, seeds={seeds}", "T1_table1",
            table1.run, table1.format_table1,
            lambda n, seeds, safety_sigmas: _ba(PROTOCOLS, [n], safety_sigmas),
            budget=dict(n=40, seeds=range(3), safety_sigmas=4.0),
            quick=dict(n=24, seeds=range(2)),
        ),
        Experiment(
            "f1", "Figure 1: approver committee structure",
            "F1: approver committees over {seeds} keysets", "F1_committees",
            fig1.run, lambda result: fig1.format_fig1(*result),
            lambda n, seeds, safety_sigmas: [fig1.default_params(n, safety_sigmas)],
            budget=dict(n=400, seeds=range(40), safety_sigmas=3.0),
            quick=dict(n=100, seeds=range(8)),
        ),
        Experiment(
            "e1", "shared-coin success vs epsilon (Thm 4.13)",
            "E1: Algorithm 1 agreement rate vs epsilon (n={n}, {seeds} seeds/point)",
            "E1_coin_success",
            coin_success.run, coin_success.format_coin_success,
            lambda seeds, **sizes: coin_success.sweep_params(**sizes),
            budget=dict(n=24, f_values=(0, 1, 2, 3, 4, 5, 6, 7), seeds=range(60)),
            quick=dict(n=16, seeds=range(10)),
        ),
        Experiment(
            "e1b", "common values, measured (Lem 4.2)",
            "E1b: common values per run (n={n}, {seeds} seeds/point)",
            "E1b_common_values",
            common_values.run, common_values.format_common_values,
            lambda seeds, **sizes: coin_success.sweep_params(**sizes),
            budget=dict(n=24, f_values=(0, 2, 4, 6), seeds=range(25)),
            quick=dict(n=12, seeds=range(5)),
        ),
        Experiment(
            "e2", "committee properties S1-S4 (Claim 1)",
            "E2a: S1-S4 violation rates, paper lambda = 8 ln n ({seeds} seeds)",
            "E2_committee_bounds_paper",
            committee_bounds.run, committee_bounds.format_committee_bounds,
            lambda seeds, **sizes: committee_bounds.sweep_params(**sizes),
            budget=dict(
                n_values=(100, 400, 1600, 6400), f_fraction=0.1,
                seeds=range(100), safety_sigmas=None,
            ),
            quick=dict(n_values=(100, 400), seeds=range(20)),
        ),
        Experiment(
            "e3", "WHP-coin success vs d (Lem B.7)",
            "E3: Algorithm 2 agreement and liveness vs d (n={n}, f={f}, "
            "{seeds} seeds/point)",
            "E3_whp_coin",
            whp_coin_sweep.run, whp_coin_sweep.format_whp_coin,
            lambda seeds, **sizes: whp_coin_sweep.sweep_params(**sizes),
            budget=dict(
                n=120, f=4, d_values=(0.005, 0.01, 0.02, 0.04), seeds=range(30),
                safety_sigmas=3.0,
            ),
            quick=dict(n=60, f=2, seeds=range(6)),
        ),
        Experiment(
            "e4", "word-complexity scaling (Sec 6.2)",
            "E4: words/messages vs n, split inputs, f={f} fixed, {seeds} seeds/point",
            "E4_scaling",
            scaling.run, scaling.format_scaling,
            lambda seeds, **sizes: _ba(**sizes),
            budget=dict(
                n_values=(50, 100, 200, 400), seeds=range(2),
                protocols=("cachin", "mmr+alg1", "whp_ba"), f=2, safety_sigmas=3.0,
            ),
            quick=dict(n_values=(30, 60), seeds=range(1)),
        ),
        Experiment(
            "e5", "O(1) expected rounds (Lem 6.14)",
            "E5: deciding round of Algorithm 4 vs n ({seeds} seeds/point)",
            "E5_rounds",
            rounds.run, rounds.format_rounds,
            lambda seeds, **sizes: _ba(["whp_ba"], **sizes),
            budget=dict(n_values=(40, 80, 140), seeds=range(6), safety_sigmas=4.0),
            quick=dict(n_values=(24, 48), seeds=range(2)),
        ),
        Experiment(
            "e6", "delayed-adaptivity ablation (Def 2.1)",
            "E6: Algorithm 1 agreement by scheduler (n={n}, f={f}, {seeds} seeds/row)",
            "E6_ablation",
            ablation.run, ablation.format_ablation,
            lambda n, f, seeds: [ProtocolParams(n=n, f=f)],
            budget=dict(n=16, f=3, seeds=range(60)),
            quick=dict(n=12, f=2, seeds=range(15)),
        ),
        Experiment(
            "e7", "MMR with the Algorithm 1 coin (Sec 4)",
            "E7: MMR coin instantiations at n={n} ({seeds} seeds)", "E7_mmr_ourcoin",
            mmr_ourcoin.run, mmr_ourcoin.format_mmr_ourcoin,
            lambda n, seeds: _ba(mmr_ourcoin.VARIANTS, [n], None),
            budget=dict(n=25, seeds=range(12)),
            quick=dict(n=16, seeds=range(4)),
        ),
        Experiment(
            "e8", "safety/liveness grid (Def 6.6)",
            "E8: safety grid at n={n} ({seeds} seeds/cell; each (protocol, "
            "strategy) appears twice: split then unanimous inputs)",
            "E8_safety",
            safety.run, safety.format_safety,
            lambda n, seeds, safety_sigmas: _ba(safety.PROTOCOLS, [n], safety_sigmas),
            budget=dict(n=40, seeds=range(4), safety_sigmas=4.0),
            quick=dict(n=25, seeds=range(2)),
        ),
        Experiment(
            "x1", "extension: probability-1-termination hybrid",
            "X1: hybrid fallback rate vs committee rounds (n={n}, f={f}, "
            "{seeds} seeds/point)",
            "X1_hybrid",
            hybrid_fallback.run, hybrid_fallback.format_hybrid,
            lambda seeds, committee_round_values, **sizes: [
                ProtocolParams.simulation_scale(**sizes)
            ],
            budget=dict(
                n=60, f=4, committee_round_values=(0, 1, 2, 4), seeds=range(8),
                safety_sigmas=4.0,
            ),
            quick=dict(n=40, f=2, seeds=range(2)),
        ),
        Experiment(
            "x2", "extension: ok-justification ablation (the lambda^2 term)",
            "X2: ok-justification ablation (n={n}, f={f}, {seeds} seeds/cell)",
            "X2_justification",
            justification_ablation.run, justification_ablation.format_justification,
            lambda seeds, **sizes: [ProtocolParams.simulation_scale(**sizes)],
            budget=dict(n=60, f=4, seeds=range(10), safety_sigmas=4.0),
            quick=dict(n=40, f=2, seeds=range(2)),
        ),
    )
}

# E2's second tracked table: the same sweep at the parameters the rest of
# the harness runs at.  Not a CLI key; bench_e2 regenerates it.
_E2 = EXPERIMENTS["e2"]
E2_SIMULATION_SCALE = replace(
    _E2,
    title="E2b: S1-S4 violation rates, simulation-scale parameters ({seeds} seeds)",
    results="E2_committee_bounds_simscale",
    budget={
        **_E2.budget,
        "n_values": (100, 400, 1600), "f_fraction": 0.05, "safety_sigmas": 3.0,
    },
)
