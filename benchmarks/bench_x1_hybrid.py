"""Experiment X1 (extension, DESIGN §5 / paper future work): the
probability-1-termination hybrid's fallback trade-off.

What must reproduce: with zero committee rounds every decision comes from
the MMR fallback; by a handful of committee rounds the fallback rate is
(near) zero and decisions come from the Õ(n) phase -- i.e. the quadratic
insurance is paid only with the committee phase's failure probability.
"""

from __future__ import annotations

from conftest import once

from repro.experiments.registry import EXPERIMENTS

X1 = EXPERIMENTS["x1"]


def test_x1_fallback_tradeoff(benchmark, save_report):
    points = once(benchmark, lambda: X1.run(**X1.budget))
    by_rounds = {point.committee_rounds: point for point in points}
    for point in points:
        assert point.agreement_ok == point.terminated
    # Pure fallback at 0 committee rounds.
    assert by_rounds[0].fallback_runs == by_rounds[0].terminated
    assert by_rounds[0].committee_deciders == 0
    # With 4 committee rounds, essentially everyone decides sub-quadratically.
    assert by_rounds[4].fallback_deciders <= by_rounds[4].committee_deciders / 10
    save_report(*X1.artefact(points))
