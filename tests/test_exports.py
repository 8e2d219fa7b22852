"""Lint: every public function and method of the package has a caller inside
the package.

Every public (no leading underscore) top-level function of every module of
src/blowdown/ must be loaded in some module other than __init__.py, outside
its own definition, unless it sits on ALLOWED; re-exporting a name from
__init__.py does not count as a call.  A load counts only in the module that
defines the name or in one that imports it, so a parameter that happens to
share a function's name is not a caller.  A VERBS table that names a
function as a ("module", "function") pair of strings, as the CLI's does for
the handler it looks up by name, is a caller of that function.

Every public method or property of a class of those modules must be read as
an attribute (`x.name`) somewhere in them outside its own body.  The match is
by name alone, as the package has no type information to resolve `x`; a
method is an orphan when no attribute of its name is read at all.  Uses only
the standard library's ast.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "blowdown"

# Public functions that are kept without a caller in src/blowdown/.
ALLOWED = {
    # the twist route for W(n), a third route for the routes cross-check
    "p2_blowdown",
    # traced by bench/tracing.py as the lattice layer's characteristic test
    "is_characteristic",
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


def _verb_handlers(trees: dict[str, ast.Module]) -> set[str]:
    """Functions a VERBS table names as a ("module", "function") pair of
    strings, where that module defines the function at its top level."""
    defined = {
        name: {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name, tree in trees.items()
    }
    found = set()
    for tree in trees.values():
        for top in tree.body:
            if not (isinstance(top, ast.Assign) and any(getattr(t, "id", None) == "VERBS" for t in top.targets)):
                continue
            for node in ast.walk(top.value):
                if isinstance(node, ast.Tuple) and len(node.elts) == 2:
                    pair = [e.value for e in node.elts if isinstance(e, ast.Constant)]
                    if len(pair) == 2 and pair[1] in defined.get(pair[0], ()):
                        found.add(pair[1])
    return found


def orphans(modules: dict[str, str]) -> list[str]:
    """Public top-level functions of `modules` (module name -> source) that
    no module of `modules` loads outside their own definition."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    public = {
        node.name
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
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
    return sorted(public - used - _verb_handlers(trees))


def method_orphans(modules: dict[str, str]) -> list[str]:
    """Public methods and properties, as "Class.name", of the classes of
    `modules` whose name no module of `modules` reads as an attribute outside
    the method's own body."""
    trees = [ast.parse(src) for src in modules.values()]
    reads: dict[str, set[int]] = {}  # attribute name -> ids of the loading nodes
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, set()).add(id(node))
    found = []
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    own = {id(node) for node in ast.walk(fn)}
                    if not reads.get(fn.name, set()) - own:
                        found.append(f"{cls.name}.{fn.name}")
    return sorted(found)


def _package() -> dict[str, str]:
    return {p.stem: p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}


def test_every_export_has_a_caller():
    found = orphans(_package())
    assert len(ALLOWED) <= 2
    assert [name for name in found if name not in ALLOWED] == [], "public with no caller"
    assert sorted(ALLOWED - set(found)) == [], "allowed names that now have a caller"


def test_every_method_has_a_caller():
    assert method_orphans(_package()) == [], "public method or property with no caller"


def test_guard_names_a_planted_orphan():
    modules = {
        "geo": (
            "class Shape:\n    pass\n\n"
            "def used():\n    return 1\n\n"
            "def area(r):\n    return area(r - 1) if r else 0\n\n"
            "def perimeter(s):\n    return used() * s\n\n"
            "def _helper():\n    return 0\n"
        ),
        "cli": "from .geo import perimeter\n\ndef main(n):\n    return perimeter(n)\n\nmain(1)\n",
        "other": "def scale(area):\n    return 2 * area\n",
    }
    assert orphans(modules) == ["area", "scale"]
    modules["other"] = "from .geo import area\n\ndef scale(r):\n    return area(r)\n"
    modules["cli"] += "\nfrom .other import scale\n\nscale(2)\n"
    assert orphans(modules) == []


def test_guard_sees_modules_that_are_not_re_exported():
    # `decode` is imported by no __init__; its orphan is still named
    modules = {
        "codec": "def encode(x):\n    return str(x)\n",
        "decode": "def decode(s):\n    return int(s)\n",
        "cli": "from .codec import encode\n\ndef main():\n    return encode(1)\n\nmain()\n",
    }
    assert orphans(modules) == ["decode"]


def test_guard_reads_the_verb_table():
    # a pair naming a module that does not define the function is no caller
    modules = {
        "verbs": "def cmd_go(args):\n    return 0\n\ndef cmd_stop(args):\n    return 1\n",
        "cli": 'VERBS = {"go": (("verbs", "cmd_go"), "go"), "stop": (("verb", "cmd_stop"), "stop")}\n',
    }
    assert orphans(modules) == ["cmd_stop"]
    modules["cli"] = modules["cli"].replace('"verb",', '"verbs",')
    assert orphans(modules) == []


def test_method_guard_names_a_planted_orphan():
    modules = {
        "geo": (
            "class Shape:\n"
            "    def __init__(self, r):\n        self.r = r\n\n"
            "    @property\n    def radius(self):\n        return self.r\n\n"
            "    def area(self):\n        return self.radius * self.radius\n\n"
            "    def grow(self, k):\n        return Shape(self.r + k).grow(k - 1) if k else self\n\n"
            "    def _helper(self):\n        return 0\n"
        ),
        "cli": "from .geo import Shape\n\ndef main(n):\n    return Shape(n).area()\n\nmain(1)\n",
    }
    assert method_orphans(modules) == ["Shape.grow"]
    modules["cli"] += "\nShape(2).grow(1)\n"
    assert method_orphans(modules) == []
