"""The sweep harness: worker-count invariance, budgets that bind, and
the one fold of an incomplete BA run."""

from __future__ import annotations

import inspect
import math

import pytest

from repro.experiments import coin_success
from repro.experiments.registry import E2_SIMULATION_SCALE, EXPERIMENTS
from repro.experiments.sweep import BACell, ba_trial, ratio_cell, sweep


E1_CELLS = [(params,) for params in coin_success.sweep_params(8, (0, 2))]
SIZING = {"n", "n_values", "seeds", "f_values", "d_values", "committee_round_values"}
E5_QUICK = EXPERIMENTS["e5"].resolve(True, {})
E5_CELLS = [("whp_ba", n, E5_QUICK["safety_sigmas"]) for n in E5_QUICK["n_values"]]


class TestWorkerCountInvariance:
    @pytest.mark.parametrize(
        "trial, cells, seeds",
        [
            (coin_success._trial, E1_CELLS, range(4)),
            (ba_trial, E5_CELLS, E5_QUICK["seeds"]),
        ],
        ids=["e1", "e5-quick"],
    )
    def test_same_records_any_worker_count(self, trial, cells, seeds):
        serial = sweep(trial, cells, seeds, workers=1)
        pooled = sweep(trial, cells, seeds, workers=2)
        assert serial == pooled
        assert [cell for cell, _ in serial] == cells
        assert all(len(records) == len(seeds) for _, records in serial)
        # Each cell's records are that cell's trials, in seed order.
        cell, records = serial[-1]
        assert records == [trial(*cell, seed) for seed in seeds]


@pytest.mark.parametrize(
    "experiment", [*EXPERIMENTS.values(), E2_SIMULATION_SCALE], ids=lambda e: e.results
)
def test_budgets_bind_to_the_run_they_feed(experiment):
    signature = inspect.signature(experiment.run)
    signature.bind(**experiment.budget)
    signature.bind(**experiment.resolve(True, {}), workers=2)
    # The registry is the only place a sweep is sized, and the only place
    # a committee margin is chosen.
    for name in (SIZING | {"safety_sigmas"}) & set(experiment.budget):
        assert signature.parameters[name].default is inspect.Parameter.empty, name
    # A table names a margin exactly when its bundles carry committees,
    # and the margin the header prints is the one they are built at.
    bundles = list(experiment.params(**experiment.budget))
    committees = any(params.lam is not None for params in bundles)
    assert ("safety_sigmas" in experiment.budget) == committees
    if committees:
        looser = {**experiment.budget, "safety_sigmas": 2.0}
        assert list(experiment.params(**looser)) != bundles


def test_e4_runs_at_the_margin_its_bundles_name():
    e4 = EXPERIMENTS["e4"]
    budget = dict(
        n_values=(30,), seeds=range(1), protocols=("whp_ba",), f=2, safety_sigmas=4.5
    )
    (curve,) = e4.run(**budget)
    (params,) = e4.params(**budget)
    # The law column is the law of the run E4 made, at its margin's λ.
    run = ba_trial("whp_ba", 30, 4.5, 0, f=2)
    assert (curve.mean_words, curve.law_words) == ((run.words,), (run.law_words,))
    assert run.lam == params.lam
    # 4.5 sigma is not the table's 3: the key moved lambda.
    (tracked,) = e4.params(**{**budget, "safety_sigmas": e4.budget["safety_sigmas"]})
    assert tracked.lam != params.lam


def test_run_cut_short_folds_to_nan_and_zero_of_k():
    runs = tuple(ba_trial("mmr", 13, None, seed, max_deliveries=1) for seed in range(3))
    assert [run.completed for run in runs] == [False] * 3
    cell = BACell(runs)
    assert (len(cell.runs), len(cell.done), cell.agreed) == (3, 0, 0)
    assert math.isnan(cell.mean("words")) and math.isnan(cell.mean("duration"))
    assert cell.deciding_rounds == [] and cell.histogram == {}
    assert ratio_cell(cell.agreed, len(cell.done)) == "-"
