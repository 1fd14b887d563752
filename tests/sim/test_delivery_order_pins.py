"""Delivery order of every stateful scheduler and of the quadratic
baselines, one case per ``pins/<name>/<links>`` cell of
``tests/fingerprints.json``.

Each case runs one small protocol run under one scheduler, on reliable
links and on links that drop, duplicate and reorder
(:func:`repro.experiments.fingerprint.pin_cell`), and compares its
``identity`` block -- the ``FlightRecorder`` stream digest, which moves
with any single delivery, and the counts beside it -- with the committed
file.  ``tests/integration/test_fingerprint.py`` compares the whole file;
a failure here names the scheduler and the link model that moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.fingerprint import PINS, pin_cell

CELLS = json.loads((Path(__file__).parents[1] / "fingerprints.json").read_text())


@pytest.mark.parametrize(
    "name, links", sorted((name, links) for name in PINS for links in ("reliable", "lossy"))
)
def test_delivery_order_is_pinned(name, links):
    committed = CELLS[f"pins/{name}/{links}"]["identity"]
    assert pin_cell(name, links)["identity"] == committed, (
        "if the change is meant to move this run: "
        "python -m repro fingerprint > tests/fingerprints.json"
    )
