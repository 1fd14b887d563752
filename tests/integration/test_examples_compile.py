"""Examples must parse, compile and import only what exists on every change.

(Executing them is covered by docs/CI instructions; at test time we keep
this cheap -- full runs take ~minutes on one core.)
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import py_compile
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_compiles(path, tmp_path):
    py_compile.compile(str(path), cfile=str(tmp_path / "out.pyc"), doraise=True)


def _repro_imports(path):
    """``(module, name)`` for every ``from repro... import name`` (name is
    ``None`` for a plain ``import repro...``) in the example's AST."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "repro":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_resolve(path):
    """Each imported repro module exists and exports each imported name
    (an attribute, or a submodule of a package), without running the example."""
    imports = list(_repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        is_submodule = hasattr(module, "__path__") and (
            importlib.util.find_spec(f"{module_name}.{name}") is not None
        )
        assert is_submodule, f"{path.name}: from {module_name} import {name}"


def test_expected_examples_present():
    names = {path.stem for path in EXAMPLES}
    assert {
        "quickstart",
        "committee_sampling",
        "adversarial_schedules",
        "protocol_comparison",
        "permissioned_ledger",
        "tracing_a_run",
    } <= names


def test_examples_have_docstrings_and_main():
    for path in EXAMPLES:
        source = path.read_text()
        assert source.lstrip().startswith(('#!/usr/bin/env python3\n"""', '"""')), path
        assert '__main__' in source, path
