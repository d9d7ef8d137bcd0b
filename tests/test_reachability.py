"""Reachability guard: every module in ``src/repro`` serves an entry point.

The static import graph is built from the CLI (``repro.cli``) and the
experiment registry (``repro.experiments.registry``).  Imports anywhere
in a module count, including those inside functions.  A name imported
through a package ``__init__`` resolves to the module that defines it,
so a package re-export alone never makes a module reachable: a module
that only re-exports and its own tests use fails this test.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

ROOTS = ("repro.cli", "repro.experiments.registry")

#: Modules no entry point reaches that stay on purpose, with the reason.
ALLOWED_UNREACHED = {
    "repro.corpus.builder": "the Sec. II ETL that the integration tests drive",
    "repro.synthesis.calibration": (
        "the calibration oracle the worldgen tests compare against"
    ),
}

_PACKAGE_ROOT = Path(repro.__file__).parent


def _module_paths() -> dict[str, Path]:
    paths = {}
    for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
        parts = path.relative_to(_PACKAGE_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        paths[".".join(parts)] = path
    return paths


MODULES = _module_paths()
_TREES = {name: ast.parse(path.read_text()) for name, path in MODULES.items()}


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _import_base(module: str, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    package = module if _is_package(module) else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _defining_module(module: str, name: str) -> str:
    """The module that defines ``name`` as imported from ``module``."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if _is_package(module):
        for node in _TREES[module].body:
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    base = _import_base(module, node)
                    if base in MODULES:
                        return _defining_module(base, alias.name)
    return module


def _imports(module: str) -> set[str]:
    targets = set()
    for node in ast.walk(_TREES[module]):
        if isinstance(node, ast.Import):
            targets.update(
                alias.name for alias in node.names if alias.name in MODULES
            )
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(module, node)
            if base in MODULES:
                targets.update(
                    _defining_module(base, alias.name) for alias in node.names
                )
    return targets


def _reachable() -> set[str]:
    seen: set[str] = set()
    stack = list(ROOTS)
    while stack:
        module = stack.pop()
        if module in seen:
            continue
        seen.add(module)
        if not _is_package(module):  # an __init__'s imports are re-exports
            stack.extend(_imports(module))
    return seen


def test_every_module_is_reachable_from_an_entry_point():
    assert set(ROOTS) | set(ALLOWED_UNREACHED) <= set(MODULES)
    reachable = _reachable()
    unreached = sorted(
        module
        for module in MODULES
        if not _is_package(module)
        and module not in reachable
        and module not in ALLOWED_UNREACHED
    )
    assert not unreached, (
        f"modules no entry point reaches: {unreached}; delete them or "
        "list them in ALLOWED_UNREACHED with a reason"
    )


def test_allowed_unreached_modules_are_still_unreached():
    # An allowance for a module the graph now reaches is stale.
    assert not set(ALLOWED_UNREACHED) & _reachable()
