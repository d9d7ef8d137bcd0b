"""Structural checks on the example scripts.

The examples are full runs (2–4 s each), executed by CI's "Examples
run" step; these tier-1 tests only verify they compile, import their
dependencies correctly, and follow the repository's conventions (main()
entry point, module docstring, deterministic seed).
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_at_least_three_examples():
    assert len(EXAMPLE_FILES) >= 3


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
)
def test_example_compiles(path):
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    compile(tree, str(path), "exec")


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
)
def test_example_has_docstring_and_main(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path.name} lacks a module docstring"
    function_names = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert "main" in function_names, f"{path.name} lacks a main()"


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
)
def test_example_pins_a_seed(path):
    source = path.read_text()
    assert "SEED" in source, f"{path.name} does not pin a seed"


@pytest.mark.parametrize(
    "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
)
def test_example_imports_resolve(path):
    """Every repro import in the example exists in the package."""
    import importlib

    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if not node.module.startswith("repro"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: {node.module}.{alias.name} missing"
                )
