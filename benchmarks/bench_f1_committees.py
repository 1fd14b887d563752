"""Experiment F1: the approver's committee structure (paper Figure 1).

Figure 1 draws the four committees one approver instance samples; here
they are sampled for real over many keysets and measured against the
Claim 1 properties.  What must reproduce: mean sizes ≈ λ, zero-ish S3/S4
violations at simulation-scale d, and per-value echo committees that are
genuinely distinct sets.
"""

from __future__ import annotations

from conftest import once

from repro.experiments.registry import EXPERIMENTS

F1 = EXPERIMENTS["f1"]


def test_f1_regenerate_figure1(benchmark, save_report):
    params, stats = once(benchmark, lambda: F1.run(**F1.budget))
    assert len(stats) == 4
    for stat in stats:
        # 3-sigma margins: allow at most one tail draw per committee role.
        assert stat.s3_violations <= 1, stat.role
        assert stat.s4_violations <= 1, stat.role
    save_report(*F1.artefact((params, stats)))
