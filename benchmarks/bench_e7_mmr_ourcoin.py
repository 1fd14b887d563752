"""Experiment E7: MMR instantiated with the Algorithm 1 coin (Section 4).

What must reproduce: the paper's closing remark of Section 4 -- plugging
the VRF shared coin into MMR gives O(n²) words and O(1) expected rounds
(matching the CKS threshold-coin instantiation), whereas the local-coin
MMR pays many more rounds under split inputs.
"""

from __future__ import annotations

from conftest import once

from repro.experiments.registry import EXPERIMENTS

E7 = EXPERIMENTS["e7"]


def test_e7_mmr_with_algorithm1_coin(benchmark, save_report):
    rows = once(benchmark, lambda: E7.run(**E7.budget))
    by_name = {row.variant: row for row in rows}
    assert by_name["mmr+alg1"].completed == by_name["mmr+alg1"].trials
    # Common-coin instantiations decide in a small constant round count.
    assert by_name["mmr+alg1"].mean_rounds <= 4
    assert by_name["cachin"].mean_rounds <= 4
    # The local coin pays more rounds on average under split inputs.
    assert by_name["mmr"].mean_rounds >= by_name["mmr+alg1"].mean_rounds
    save_report(*E7.artefact(rows))
