"""Experiment E4: word-complexity scaling (Section 6.2's Õ(n) vs O(n²)).

Configuration notes (see the margin comment in `registry.py`): the sweep
fixes f = 2 and 3σ committee margins so the feasibility-inflated λ plateaus
inside the measured range -- growing f with n would hold the measurement
in the pre-asymptotic regime where λ itself grows and the ok-messages' λ²
term swamps the n-scaling (that regime is itself reported in
EXPERIMENTS.md).  Resilience-stressed configurations are T1/E8's job.

What must reproduce: per-round word slope ≈ 2 for the quadratic
baselines, materially smaller (n·λ² with λ plateauing, ≈ 1.5 here) for
the committee-based BA; message counts cross over in our favour within
the sweep.
"""

from __future__ import annotations

from conftest import once

from repro.experiments.registry import EXPERIMENTS

E4 = EXPERIMENTS["e4"]


def test_e4_scaling_curves(benchmark, save_report):
    curves = once(benchmark, lambda: E4.run(**E4.budget))
    by_name = {curve.protocol: curve for curve in curves}
    assert by_name["cachin"].slope_words_per_round > 1.8
    assert by_name["mmr+alg1"].slope_words_per_round > 1.8
    assert by_name["whp_ba"].slope_words_per_round < 1.7
    assert (
        by_name["whp_ba"].slope_words_per_round
        < by_name["mmr+alg1"].slope_words_per_round - 0.2
    )
    # Message-count crossover by the top of the sweep.
    assert by_name["whp_ba"].mean_messages[-1] < by_name["mmr+alg1"].mean_messages[-1]
    save_report(*E4.artefact(curves), rows=curves)
