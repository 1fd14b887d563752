"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _run_experiments, main
from repro.experiments.registry import EXPERIMENTS


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["pbft"])

    def test_e1_tiny(self, capsys):
        assert main(["e1", "--n", "10", "--seeds", "4"]) == 0
        out = capsys.readouterr().out
        assert "epsilon" in out
        assert "agreement rate" in out

    def test_e6_quick(self, capsys):
        assert main(["e6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "content-aware" in out

    def test_f1_tiny(self, capsys):
        assert main(["f1", "--n", "60", "--seeds", "3"]) == 0
        assert "committee" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["e2", "e4", "e5"])
    def test_override_without_a_budget_key_exits_2(self, capsys, key):
        assert main([key, "--n", "16"]) == 2
        captured = capsys.readouterr()
        keys = ", ".join(EXPERIMENTS[key].budget)
        assert captured.err == f"repro {key}: no --n here (budget keys: {keys})\n"
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["f1", "e2", "e6", "x2"])
    def test_workers_reaches_keys_that_dropped_it(self, capsys, monkeypatch, key):
        from repro.experiments import parallel

        seen = []
        monkeypatch.setattr(parallel, "resolve_workers", lambda w: seen.append(w) or 1)
        assert main([key, "--quick", "--seeds", "2", "--workers", "3"]) == 0
        assert seen == [3]  # one parallel_map for the whole experiment

    def test_overrides_reach_every_experiment_of_a_multi_key_run(self, capsys):
        # What `all --n 10 --seeds 3` does, on three cheap keys; e2 has no
        # `n` to override and takes the seeds only.
        overrides = {"n": 10, "seeds": range(3)}
        assert _run_experiments(["e1", "e2", "e6"], True, overrides, None) == 0
        out = capsys.readouterr().out
        assert "E1: Algorithm 1 agreement rate vs epsilon (n=10, 3 seeds/point)" in out
        assert "E2a: S1-S4 violation rates, paper lambda = 8 ln n (3 seeds)" in out
        assert "E6: Algorithm 1 agreement by scheduler (n=10, f=2, 3 seeds/row)" in out

    def test_record_then_report(self, capsys, tmp_path):
        out = str(tmp_path / "flight.jsonl")
        assert main(["record", "--n", "16", "--seed", "2", "--out", out]) == 0
        recorded = capsys.readouterr().out
        assert "recorded" in recorded and out in recorded

        assert main(["report", out]) == 0
        report = capsys.readouterr().out
        for section in (
            "round timeline",
            "word complexity by kind / layer",
            "coin",
            "committee sizes (observed)",
            "phase timings",
            "critical path (deepest decision)",
        ):
            assert section in report
        assert "DECIDES" in report

    def test_report_without_path_rejected(self):
        with pytest.raises(SystemExit):
            main(["report"])
