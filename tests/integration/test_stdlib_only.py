"""The package runs on the standard library alone.

``dependencies = []`` in pyproject.toml is a promise: every absolute import
under ``src/repro`` must name either a standard-library module or ``repro``
itself.  Test and benchmark extras (pytest, hypothesis, scipy) stay outside.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parents[2] / "src" / "repro"


def test_src_imports_only_the_standard_library():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.relative_to(SRC)}:{node.lineno}: {name}")
    assert not foreign, foreign
