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


class TestWorkerCountInvariance:
    @pytest.mark.parametrize(
        "trial, cells, seeds",
        [
            (coin_success._trial, E1_CELLS, range(4)),
            (ba_trial, [("whp_ba", n) for n in EXPERIMENTS["e5"].quick["n_values"]],
             EXPERIMENTS["e5"].quick["seeds"]),
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
    # The registry is the only place a sweep is sized.
    for name in SIZING & set(experiment.budget):
        assert signature.parameters[name].default is inspect.Parameter.empty, name


def test_run_cut_short_folds_to_nan_and_zero_of_k():
    runs = tuple(ba_trial("mmr", 13, seed, max_deliveries=1) for seed in range(3))
    assert [run.completed for run in runs] == [False] * 3
    cell = BACell(runs)
    assert (len(cell.runs), len(cell.done), cell.agreed) == (3, 0, 0)
    assert math.isnan(cell.mean("words")) and math.isnan(cell.mean("duration"))
    assert cell.deciding_rounds == [] and cell.histogram == {}
    assert ratio_cell(cell.agreed, len(cell.done)) == "-"
