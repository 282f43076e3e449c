"""The library is stdlib-only: every module of the package imports only the
standard library and the package itself."""

import ast
import sys
from pathlib import Path

import pytest

import adjcrys

MODULES = sorted(Path(adjcrys.__file__).parent.glob("*.py"))


def _imported(tree: ast.AST):
    """(top-level name, relative level) of every import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield (node.module or "").split(".")[0], node.level
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], 0


def test_every_module_is_found():
    assert {path.stem for path in MODULES} >= {"__init__", "cli", "crystal_graph", "tableaux"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_stdlib_and_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    outside = [name for name, level in _imported(tree)
               if level == 0 and name != "adjcrys" and name not in sys.stdlib_module_names]
    assert outside == []
