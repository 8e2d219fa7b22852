"""The benchmark's traced callables must exist where its tracer looks.

`bench/tracing.py` names each traced callable as (metric, module, attribute)
in its TRACED list and wraps a module attribute, or `vars(cls)[method]` for a
"Class.method" attribute.  A refactor that moves or deletes one of them breaks
`bench/run.py --trace 1`.  The list is read with `ast`, so no benchmark code
is imported here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced() -> list[tuple[str, str, str]]:
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [tuple(entry) for entry in ast.literal_eval(node.value)]
    raise AssertionError("no TRACED list in bench/tracing.py")


TRACED = _traced()


def test_traced_list_is_read():
    assert len(TRACED) >= 20
    assert len({name for name, _, _ in TRACED}) == len(TRACED)


@pytest.mark.parametrize("name,module_name,attr", TRACED, ids=[t[0] for t in TRACED])
def test_traced_name_resolves(name, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert isinstance(cls, type), attr
        assert callable(vars(cls).get(meth)), f"{attr} is not defined on the class itself"
    else:
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is missing"
