"""Experiment E8: safety/liveness sweep (Definition 6.6).

What must reproduce: zero Agreement and zero Validity violations in every
legal protocol × Byzantine-strategy × scheduler cell; termination rates
at or near 1 (committee protocols may show whp shortfalls, reported, not
hidden).
"""

from __future__ import annotations

from conftest import once

from repro.experiments.registry import EXPERIMENTS

E8 = EXPERIMENTS["e8"]


def test_e8_safety_grid(benchmark, save_report):
    cells = once(benchmark, lambda: E8.run(**E8.budget))
    for cell in cells:
        assert cell.agreement_violations == 0, (cell.protocol, cell.strategy)
        assert cell.validity_violations == 0, (cell.protocol, cell.strategy)
        assert cell.terminated >= cell.trials - 1, (cell.protocol, cell.strategy)
    save_report(*E8.artefact(cells))
