"""Experiment X2 (extension): the λ² term earning its keep.

What must reproduce: removing the W-signed-echo justification from ok
messages cuts approver words by roughly λ/3 (the λ² term), and under a
Byzantine ok-injection attack collapses Validity in essentially every
run, while the justified protocol shrugs the same attack off completely.
"""

from __future__ import annotations

from conftest import once

from repro.experiments.registry import EXPERIMENTS

X2 = EXPERIMENTS["x2"]


def test_x2_justification_tradeoff(benchmark, save_report):
    points = once(benchmark, lambda: X2.run(**X2.budget))
    by_key = {(point.justify, point.attack): point for point in points}
    # Justified: zero violations, attack or not.
    assert by_key[(True, False)].validity_violations == 0
    assert by_key[(True, True)].validity_violations == 0
    # Ablated: clean without attack, broken with it.
    assert by_key[(False, False)].validity_violations == 0
    assert by_key[(False, True)].validity_violations >= by_key[(False, True)].live * 0.8
    # The words saved are the lambda^2 term: a multiple, not a percent.
    assert by_key[(True, False)].mean_words > 5 * by_key[(False, False)].mean_words
    save_report(*X2.artefact(points))
