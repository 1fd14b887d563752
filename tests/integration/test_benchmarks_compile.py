"""The benchmark harness files must parse, the registry must stay
consistent with the CLI and DESIGN.md's experiment index, and every test
DESIGN.md or the verify recipe cites must exist."""

from __future__ import annotations

import py_compile
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[2]
BENCHES = sorted((ROOT / "benchmarks").glob("bench_*.py"))


@pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.stem)
def test_bench_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"), doraise=True)


def test_every_designed_experiment_has_a_bench():
    from repro.experiments.registry import EXPERIMENTS

    for key in EXPERIMENTS:
        # ... and that bench runs at the registry's budget, not its own.
        sources = [p.read_text() for p in BENCHES if p.stem.startswith(f"bench_{key}_")]
        assert any(f'EXPERIMENTS["{key}"]' in source for source in sources), key


def test_cli_covers_every_experiment(capsys):
    from repro.cli import main
    from repro.experiments.registry import EXPERIMENTS

    assert len(EXPERIMENTS) == 13 and main(["list"]) == 0
    listed = capsys.readouterr().out
    for key, experiment in EXPERIMENTS.items():
        assert f"{key:4s} {experiment.description}" in listed


def test_design_md_references_every_bench():
    design = (ROOT / "DESIGN.md").read_text()
    for path in BENCHES:
        if path.stem == "bench_substrate":
            continue  # micro-benchmarks, not a paper artefact
        # DESIGN's index uses either the explicit filename or the id scheme.
        experiment_id = path.stem.split("_")[1]
        assert re.search(
            rf"{path.name}|bench_{experiment_id}_", design
        ), path.name


def test_benches_save_reports():
    for path in BENCHES:
        if path.stem == "bench_substrate":
            continue
        source = path.read_text()
        assert "save_report" in source, path.name
        assert "What must reproduce" in source or "see DESIGN.md" in source, path.name


def test_design_md_cites_only_existing_tests():
    # Every `tests/<path>.py[::Name...]` DESIGN.md or the verify recipe
    # cites names a file that exists and, in it, a definition of each Name.
    cited = re.compile(r"(tests/[\w/]+\.py)((?:::\w+)*)")
    missing = []
    for doc in ("DESIGN.md", ".claude/skills/verify/SKILL.md"):
        for path, names in sorted(set(cited.findall((ROOT / doc).read_text()))):
            source = ROOT / path
            if not source.is_file():
                missing.append(f"{doc}: {path}")
                continue
            text = source.read_text()
            for name in names.split("::")[1:]:
                defined = rf"^\s*(?:async\s+)?(?:def|class)\s+{name}\b"
                if not re.search(defined, text, re.M):
                    missing.append(f"{doc}: {path}::{name}")
    assert not missing, "\n".join(missing)
