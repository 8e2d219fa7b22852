"""Lint: every function the package exports has a caller inside the package.

A name that blowdown/__init__.py imports must be loaded in some module of
src/blowdown/ other than __init__.py, outside its own definition, unless it is
a class or sits on ALLOWED.  A load counts only in the module that defines the
name or in one that imports it, so a parameter that happens to share an
exported name is not a caller.  Uses only the standard library's ast.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "blowdown"

# Exported functions that are kept without a caller in src/blowdown/.
ALLOWED = {
    # the vector-scan oracle for a faster boundary-value-law verifier
    "min_dim_search",
    # the twist route for W(n), a third route for the routes cross-check
    "p2_blowdown",
    # traced by bench/tracing.py as the lattice layer's characteristic test
    "is_characteristic",
    # documented in the README as the test for the SW-covered family
    "sw_covered",
}


def _loads(tree: ast.Module, visible: set[str]) -> set[str]:
    """Names in `visible` loaded in the module; a top-level function's own
    name does not count inside its definition."""
    found = set()
    for top in tree.body:
        own = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in visible and node.id != own:
                    found.add(node.id)
    return found


def orphans(init_source: str, modules: dict[str, str]) -> list[str]:
    """Names imported in init_source that are not classes and that no module
    of `modules` (module name -> source) loads outside their own definition."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    exported = [
        (node.module, alias.asname or alias.name)
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    used = set()
    for tree in trees.values():
        visible = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        visible |= {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        used |= _loads(tree, visible)
    classes = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    return sorted(
        name for module, name in exported if (module, name) not in classes and name not in used
    )


def test_every_export_has_a_caller():
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    found = orphans((SRC / "__init__.py").read_text(), modules)
    assert len(ALLOWED) <= 4
    assert [name for name in found if name not in ALLOWED] == [], "exported with no caller"
    assert sorted(ALLOWED - set(found)) == [], "allowed names that now have a caller"


def test_guard_names_a_planted_orphan():
    init = "from .geo import Shape, area, perimeter, used\n"
    modules = {
        "geo": (
            "class Shape:\n    pass\n\n"
            "def used():\n    return 1\n\n"
            "def area(r):\n    return area(r - 1) if r else 0\n\n"
            "def perimeter(s):\n    return used() * s\n"
        ),
        "cli": "from .geo import perimeter\n\ndef main(n):\n    return perimeter(n)\n",
        "other": "def scale(area):\n    return 2 * area\n",
    }
    assert orphans(init, modules) == ["area"]
    modules["other"] = "from .geo import area\n\ndef scale(r):\n    return area(r)\n"
    assert orphans(init, modules) == []
