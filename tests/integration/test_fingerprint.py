"""The run fingerprint against its committed copy.

``tests/fingerprints.json`` is what ``python -m repro fingerprint``
prints (:mod:`repro.experiments.fingerprint`): for every named run,
``whp_ba`` at n = 8 on the EC backend, the delivery-order cells, the
conformance and degradation smoke payloads and E4's n = 1000 point, an ``identity`` block (stream digest, words and
messages by kind, decisions, deliveries, rounds) and a ``cost`` block
(wait and verification counters).  A fresh computation must equal it
byte for byte.  A change meant to move a count regenerates the file,
and the file's diff is that change's before/after.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.experiments.fingerprint import strip_volatile
from repro.sim.diffing import divergence_hint

FILE = Path(__file__).parents[1] / "fingerprints.json"
REGENERATE = "python -m repro fingerprint > tests/fingerprints.json"
ABSENT = "(absent)"


def leaves(value, path: str = ""):
    """``(path, JSON text)`` of every leaf; an empty container is a leaf."""
    if isinstance(value, dict) and value:
        for key in sorted(value):
            yield from leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            yield from leaves(item, f"{path}[{index}]")
    else:
        yield path, json.dumps(value, sort_keys=True)


def differences(old: dict, new: dict) -> list[str]:
    """Every leaf that differs, as ``cell.block.key: old -> new``."""
    before, after = dict(leaves(old)), dict(leaves(new))
    return [
        f"{path}: {before.get(path, ABSENT)} -> {after.get(path, ABSENT)}"
        for path in sorted(before.keys() | after.keys())
        if before.get(path) != after.get(path)
    ]


def test_fingerprint_matches_committed_file(capsys):
    assert main(["fingerprint"]) == 0
    text, committed = capsys.readouterr().out, FILE.read_text()
    if text != committed:
        changed = differences(json.loads(committed), json.loads(text))
        raise AssertionError("\n".join([
            f"{FILE.name} differs from a fresh fingerprint "
            f"({len(changed)} leaves):",
            *(changed or ["(no leaf differs: the file is not canonical)"]),
            f"if the change is meant to move these counts: {REGENERATE}",
            divergence_hint("if it is not"),
        ]))


def test_strip_volatile_drops_the_atlas_novelty_counts():
    # Two identical sweeps differ only in what the atlas knew before them.
    first = {"coverage": {"unique_signatures": 9, "runs_with_new": 2,
                          "baseline_signatures": 0, "new_rate": 1.0},
             "rows": [{"new_signatures": 3, "signatures": 9}]}
    second = {"coverage": {"unique_signatures": 9, "runs_with_new": 0,
                           "baseline_signatures": 9, "new_rate": 0.0},
              "rows": [{"new_signatures": 0, "signatures": 9}]}
    assert strip_volatile(first) == strip_volatile(second) == {
        "coverage": {"unique_signatures": 9}, "rows": [{"signatures": 9}],
    }
