"""Structural rules of the package, read from its source with ast.

No module imports another module's private (_underscore) names, every
name a module lists in __all__ is bound at its top level, and the cost
models import numpy only where a least-squares fit needs it.
"""

import ast
from pathlib import Path

import pytest

import svmsoc

PACKAGE = Path(svmsoc.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_imports(tree: ast.Module) -> list[str]:
    """Private names this module takes from another module of the package."""
    found = []
    modules = set()  # local names bound to package modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or "svmsoc" in (node.module or "")):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"from {node.module} import {alias.name}")
                elif node.module is None:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("svmsoc"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _all_entries(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def test_package_has_modules():
    assert {p.stem for p in MODULES} >= {"__init__", "accel", "driver", "model_io", "synth"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_another_modules_private_names(path):
    assert _private_imports(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_all_entry_is_defined(path):
    tree = _tree(path)
    missing = sorted(set(_all_entries(tree)) - _top_level_names(tree))
    assert missing == []


def _top_level_imports(tree: ast.Module) -> set[str]:
    found = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_synth_has_no_module_level_numpy_import():
    assert "numpy" not in _top_level_imports(_tree(PACKAGE / "synth.py"))


def test_checks_catch_violations():
    bad = ast.parse(
        "from .synth import _mhz\n"
        "from . import model_io\n"
        "x = model_io._F32\n"
        "__all__ = ['x', 'ghost']\n"
    )
    assert _private_imports(bad) == ["from synth import _mhz", "model_io._F32"]
    assert set(_all_entries(bad)) - _top_level_names(bad) == {"ghost"}
    assert _top_level_imports(ast.parse("import numpy as np\nfrom numpy import linalg\n")) == {
        "numpy"
    }
