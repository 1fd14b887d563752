"""Experiment E1: shared-coin success rate vs ε (Theorem 4.13).

What must reproduce: measured agreement rate sits above the closed-form
bound 2·(18ε²+24ε−1)/(6(1+6ε)) at every ε, rises with ε, and hits 1.0 at
f = 0 (Remark 4.10's perfect coin -- with f = 0 every process waits for
everyone and holds the global minimum deterministically).
"""

from __future__ import annotations

from conftest import once

from repro.experiments.registry import EXPERIMENTS

E1 = EXPERIMENTS["e1"]


def test_e1_success_vs_epsilon(benchmark, save_report):
    points = once(benchmark, lambda: E1.run(**E1.budget))
    for point in points:
        assert point.estimate.mean >= max(0.0, 2 * point.paper_bound) - 1e-9
    assert points[0].estimate.mean == 1.0  # f = 0: perfect coin
    rates = [point.estimate.mean for point in points]
    # Shape: rate does not collapse as f grows within the tolerated range.
    assert min(rates) >= 0.5
    save_report(*E1.artefact(points))
