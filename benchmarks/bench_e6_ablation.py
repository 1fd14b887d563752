"""Experiment E6: the delayed-adaptivity ablation (Definition 2.1).

What must reproduce: both *legal* schedulers (content-oblivious random
and targeted-delay) leave the coin's agreement near 1 at this scale; the
*illegal* content-aware minimum-withholding scheduler collapses it toward
1/2 -- the restriction on the adversary is what the coin's success rate
stands on.
"""

from __future__ import annotations

from conftest import once

from repro.experiments.registry import EXPERIMENTS

E6 = EXPERIMENTS["e6"]


def test_e6_delayed_adaptivity_ablation(benchmark, save_report):
    rows = once(benchmark, lambda: E6.run(**E6.budget))
    by_name = {row.scheduler: row for row in rows}
    assert by_name["random"].agreement.mean >= 0.95
    assert by_name["targeted"].agreement.mean >= 0.95
    assert by_name["content-aware"].agreement.mean <= 0.8
    gap = by_name["random"].agreement.mean - by_name["content-aware"].agreement.mean
    assert gap >= 0.2
    save_report(*E6.artefact(rows))
