"""Lint of the package source, by its syntax tree: invariants are raised,
never asserted (``python -O`` drops asserts), and every absolute import
is from the standard library, so the package has no runtime
dependencies."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dethodge").glob("*.py"))


def asserts(tree):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def outside_imports(tree):
    """(line, module) for every absolute import of a module outside the
    standard library; relative imports are the package's own."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            (node.lineno, module)
            for module in modules
            if module.partition(".")[0] not in sys.stdlib_module_names
        ]
    return found


def _trees():
    assert SOURCES
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_the_lint_finds_what_it_looks_for():
    tree = ast.parse(
        "import os.path, numpy\n"
        "from hypothesis import given\n"
        "from . import cli\n"
        "from __future__ import annotations\n"
        "def f(x):\n"
        "    assert x\n"
    )
    assert asserts(tree) == [6]
    assert outside_imports(tree) == [(1, "numpy"), (2, "hypothesis")]


def test_no_module_asserts():
    found = {name: lines for name, tree in _trees().items() if (lines := asserts(tree))}
    assert not found, f"assert statements (raise instead): {found}"


def test_every_absolute_import_is_stdlib():
    found = {name: hits for name, tree in _trees().items() if (hits := outside_imports(tree))}
    assert not found, f"imports from outside the standard library: {found}"
