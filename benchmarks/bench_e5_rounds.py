"""Experiment E5: O(1) expected rounds, independent of n (Lemma 6.14).

What must reproduce: the mean deciding round of Algorithm 4 under
worst-case split inputs stays a small constant (≈ 2) across the n sweep
rather than growing -- the signature of the constant-success-rate coin.
"""

from __future__ import annotations

from conftest import once

from repro.experiments.registry import EXPERIMENTS

E5 = EXPERIMENTS["e5"]


def test_e5_rounds_flat_in_n(benchmark, save_report):
    points = once(benchmark, lambda: E5.run(**E5.budget))
    for point in points:
        assert point.completed >= point.trials - 1  # allow one whp shortfall
        assert point.mean_rounds <= 4.0, point.n
        assert point.max_rounds <= 8, point.n
    means = [point.mean_rounds for point in points]
    # Flatness: no doubling across a 3.5x n range.
    assert max(means) <= 2 * min(means) + 1
    save_report(*E5.artefact(points))
