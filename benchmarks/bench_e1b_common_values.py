"""Experiment E1b: Lemma 4.2's common-values count, measured from traces.

What must reproduce: the measured count of *common* values (received by
f+1 correct processes before their phase-2 send) sits at or above the
closed-form bound 9ε/(1+6ε)·n for every ε, and the probability that the
global minimum is common (Lemma 4.4's event) tracks the agreement rate.
"""

from __future__ import annotations

from conftest import once

from repro.experiments.registry import EXPERIMENTS

E1B = EXPERIMENTS["e1b"]


def test_e1b_common_values_vs_lemma_4_2(benchmark, save_report):
    points = once(benchmark, lambda: E1B.run(**E1B.budget))
    for point in points:
        assert point.min_c >= point.paper_bound_c - 1e-9, point.f
        # Agreement can only happen at least as often as 'min common'
        # forces it (the converse direction of Lemma 4.6).
        assert point.agreement_rate >= point.min_common_rate - 1e-9
    save_report(*E1B.artefact(points))
