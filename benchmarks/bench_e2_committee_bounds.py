"""Experiment E2: committee properties S1-S4 vs Chernoff bounds (Claim 1).

Two regimes are swept:

* the paper's λ = 8 ln n -- the measured violation rates show honestly
  how slowly the asymptotics bite (the Chernoff exponents are ~d²λ with
  d ≈ 0.05);
* the simulation-scale parameters the rest of the harness uses, where
  3-sigma margins keep the liveness/safety properties (S3/S4) near zero.

What must reproduce: measured rates under the analytic bounds, decreasing
with n, and S3/S4 ≈ 0 at simulation scale.
"""

from __future__ import annotations

from conftest import once

from repro.experiments.registry import E2_SIMULATION_SCALE, EXPERIMENTS

E2A, E2B = EXPERIMENTS["e2"], E2_SIMULATION_SCALE


def test_e2_paper_lambda(benchmark, save_report):
    points = once(benchmark, lambda: E2A.run(**E2A.budget))
    for point in points:
        for name in ("S1", "S2", "S3", "S4"):
            measured = point.violations[name] / point.trials
            # Chernoff is an upper bound (allow Monte-Carlo noise ~4 sigma).
            bound = min(1.0, point.chernoff[name])
            sigma = (bound * (1 - bound) / point.trials) ** 0.5
            assert measured <= bound + 4 * sigma + 0.05, (point.params.n, name)
    save_report(*E2A.artefact(points))


def test_e2_simulation_scale(benchmark, save_report):
    points = once(benchmark, lambda: E2B.run(**E2B.budget))
    for point in points:
        assert point.violations["S3"] / point.trials <= 0.05, point.params.n
        assert point.violations["S4"] / point.trials <= 0.05, point.params.n
    save_report(*E2B.artefact(points))
