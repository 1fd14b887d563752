"""Experiment E3: WHP-coin success rate vs d (Lemma B.7).

What must reproduce: agreement rate above the closed-form whp bound
2·(18d²+27d−1)/(3(5+6d)(1−d)(1+9d)) at every d in the sweep, plus the
liveness ('whp') accounting: runs where a sampled committee undershoots W
deadlock, and their frequency falls as d shrinks W.
"""

from __future__ import annotations

from conftest import once

from repro.experiments.registry import EXPERIMENTS

E3 = EXPERIMENTS["e3"]


def test_e3_success_vs_d(benchmark, save_report):
    points = once(benchmark, lambda: E3.run(**E3.budget))
    for point in points:
        if point.live:
            bound = max(0.0, 2 * point.paper_bound)
            assert point.agreement.mean >= bound - 1e-9, point.params.d
    # Liveness is monotone the right way: smaller d => smaller W => more
    # live runs.
    live_rates = [point.live / point.trials for point in points]
    assert live_rates[0] >= live_rates[-1] - 0.1
    assert live_rates[0] >= 0.9
    save_report(*E3.artefact(points))
