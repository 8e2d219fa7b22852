"""Lint: every name a library module imports is used in that module, and
linalg imports nothing from fractions.

Uses only the standard library's ast.  The package's __init__.py is exempt,
since its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blowdown"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, __future__ imports excluded."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((name, line) for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_lint_catches_an_unused_import():
    src = "from math import gcd, lcm\nimport os.path\n\ndef f(x: 'Fraction'):\n    return lcm(x, 2)\n"
    assert unused_imports(src) == [("gcd", 1), ("os", 2)]
    assert unused_imports("from fractions import Fraction\ndef f(x: 'Fraction'): pass\n") == []


def test_linalg_is_integer_only():
    """The Fraction matrix layer stays gone: linalg imports nothing from
    fractions, so every matrix routine there runs on ints."""
    tree = ast.parse((SRC / "linalg.py").read_text())
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    modules |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert "fractions" not in modules
