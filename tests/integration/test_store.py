"""The JSON result store: NaN-safe serialisation, golden baselines, drift."""

from __future__ import annotations

import math

import pytest

from repro.analysis.stats import BernoulliEstimate
from repro.experiments.store import (
    load_results,
    save_results,
    to_jsonable,
)
from repro.experiments.trends import numeric_drifts, numeric_leaves


class TestToJsonable:
    def test_dataclass_roundtrip(self):
        estimate = BernoulliEstimate(successes=3, trials=10)
        data = to_jsonable(estimate)
        assert data == {"successes": 3, "trials": 10, "z": 1.96}

    def test_nested_experiment_rows(self):
        from repro.experiments.table1 import Table1Row

        row = Table1Row(
            protocol="mmr", n=10, f=3, trials=2, terminated=2, agreed=2,
            mean_words=12.5, mean_duration=4.0, mean_rounds=float("nan"),
        )
        data = to_jsonable([row])
        assert data[0]["protocol"] == "mmr"
        assert data[0]["mean_rounds"] is None  # NaN -> null

    def test_tuples_and_sets(self):
        assert to_jsonable((1, 2)) == [1, 2]
        assert to_jsonable({"a": frozenset({2, 1})}) == {"a": [1, 2]}

    def test_infinities_become_null(self):
        assert to_jsonable(math.inf) is None

    def test_opaque_objects_repr(self):
        data = to_jsonable(object())
        assert isinstance(data, str) and "object" in data


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        payload = {"rows": [{"n": 10, "words": 123.5}]}
        path = save_results("demo", payload, tmp_path)
        assert path.exists()
        assert load_results("demo", tmp_path) == payload

    def test_experiment_end_to_end(self, tmp_path):
        from repro.experiments import coin_success

        points = coin_success.run(n=10, f_values=(0,), seeds=range(3))
        save_results("e1", points, tmp_path)
        loaded = load_results("e1", tmp_path)
        assert loaded[0]["n"] == 10
        assert loaded[0]["estimate"]["trials"] == 3


class TestCompare:
    """Drift between stored payloads has one rule, the trend gate's."""

    def test_identical_is_clean(self):
        data = {"a": [1, 2.0, "x"], "b": {"c": True}}
        assert numeric_drifts(data, data) == []

    def test_within_tolerance_is_clean(self):
        assert numeric_drifts({"v": 100.0}, {"v": 105.0}, rel_tol=0.1) == []

    def test_beyond_tolerance_reports(self):
        drifts = numeric_drifts({"v": 100.0}, {"v": 150.0}, rel_tol=0.1)
        assert len(drifts) == 1
        assert "$.v" in drifts[0]

    def test_bool_not_treated_as_number(self):
        # True == 1 numerically; a flag is not a measured quantity.
        assert numeric_leaves({"a": True, "b": 1}) == {"$.b": 1.0}

    def test_golden_baseline_workflow(self, tmp_path):
        from repro.experiments import coin_success

        points = coin_success.run(n=10, f_values=(0,), seeds=range(3))
        save_results("golden", points, tmp_path)
        rerun = coin_success.run(n=10, f_values=(0,), seeds=range(3))
        # deterministic seeds -> the stored run is a golden baseline
        assert load_results("golden", tmp_path) == to_jsonable(rerun)
