"""Guard: each CLI verb loads only the layers it uses.

One fresh interpreter forks a child per group of cases, so every group starts
from a process that has imported nothing of blowdown; in-process tests share
sys.modules and could not see a verb load a module it does not need.  The
verbs of a group run one after another in their child, so what the group
loads is the union of what its verbs load: a module no verb of the group may
load is checked once for all of them.

No process loads `argparse`, `gettext` or `locale`: the CLI reads its
arguments from its own verb table, and a help request or a usage error loads
none of them either.  `cli` is the shell; a verb loads its handler module
(`cli_calculus`, `cli_checks` or `cli_blowdown`) and no other, save that
`blowdown` shares the rendering of `cli_calculus`.

The chain blowdown (`chain_surgery`) loads only for a plan with a chain or
hpsum step, the nodal models (`nodal`) only for hpsum and `verify
identities`, and `linalg` only where a matrix is used, so hpsum's nodal
models load none of it; the chain's own arithmetic (`plumbing`) loads only
for a plan with a chain or hpsum step and for `dim` and `verify`, which load
no intersection lattice (`lattice`) for it.  The basic-class calculus
(`swinv`) loads only for a map, the log placement (`placement`) only for a
log transform, the closed forms (`closed`) only for the closed route, and
`serialize` and `json` only for structured output.  The calculus runs in
ints, the chain blowdown on numerators over p^2, the lemma check and the
ladder coefficients of hpsum in ints, so `fractions` (which loads `decimal`)
loads only for a verb that prints or compares rationals: `dim` and `verify
lattice` among those checked here.

Each group also has a compile budget: the AST nodes of the blowdown modules
it loads, which Python compiles from source when no bytecode is cached.
"""

import ast
import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CALCULUS = {"catalog", "transform", "swinv", "exppoly"}
CHAIN = {"chain_surgery", "linalg"}
HANDLERS = {"cli_calculus", "cli_checks", "cli_blowdown"}
FRACTIONS = {"fractions", "decimal"}
ARGPARSE = {"argparse", "gettext", "locale"}


def _smoke_text(*workloads: str) -> list[list[str]]:
    """The benchmark's smoke invocations of the workloads, in text mode."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    runs = [args for w in workloads for args in module.invocations(w, True)]
    return [[a for a in args if a not in module.STRUCT] for args in runs]


# group -> the argv of each verb it runs, or a module to import
GROUPS = {
    "import blowdown": "blowdown",
    "import blowdown.cli": "blowdown.cli",
    "dim and verify lemmas, lattice": [
        ["dim", "--p", "3", "--canonical", "1,1"],
        ["dim", "--p", "3", "--delta", "1,2", "--format", "structured"],
        ["verify", "lemmas", "--p-max", "3", "--box", "1"],
        ["verify", "lattice", "--p-max", "3", "--format", "structured"],
    ],
    "series, sw, witten": [
        ["series", "E(3;2)", "--format", "structured"],
        ["series", "logt(E(3),2)", "--route", "pipeline"],
        ["sw", "blowup(E(3;2),1)"],
        ["sw", "E(3)", "--format", "structured"],
        ["witten", "E(3;2)"],
        ["witten", "H(4)", "--format", "structured"],
    ],
    "blowdown, logt, audit, verify identities": [
        ["blowdown", "E(4)", "--sections", "1"],
        ["blowdown", "E(4)", "--horikawa", "2", "--format", "structured"],
        ["logt", "E(3)", "2"],
        ["audit", "E(3)"],
        ["verify", "identities", "--p-max", "2"],
    ],
    # no chain or hpsum step: neither surgery loads the chain blowdown
    "blowup and closed smoke, text": _smoke_text("blowup", "closed"),
    # the E, W and H leaves by their closed forms, a log transform compared
    # by witten, and the audit's class squares before and after blowups
    "closed route": [
        ["series", "E(4;2,3)"],
        ["series", "W(3)"],
        ["series", "H(6)"],
        ["witten", "logt(E(4;2,3),5)"],
        ["audit", "E(3)"],
        ["audit", "blowup(E(4),3)"],
    ],
    # a chain step in each calculus, and the extensions it prints
    "chain route": [
        ["witten", "H(4)"],
        ["sw", "W(3)"],
        ["series", "H(5)", "--route", "pipeline"],
        ["blowdown", "E(4)", "--horikawa", "2", "--format", "structured"],
    ],
    # help (exit 0) and usage errors (exit 2): the paths that print usage
    "help and usage errors": [
        ["--help"],
        ["series", "--help"],
        ["dim", "--p", "3", "--canonical", "a,b"],
        ["nonsense"],
    ],
    "dim": [["dim", "--p", "3", "--canonical", "1,1"]],
    # the benchmark's exhaustive workload: the lemma check and hpsum's nodal models
    "verify lemmas": [
        ["verify", "lemmas", "--p-max", "3", "--box", "1"],
        ["verify", "lemmas", "--p-max", "8"],
    ],
    "hpsum": [
        ["series", "hpsum(E(2),3)"],
        ["series", "hpsum(E(2),11)", "--format", "structured"],
    ],
    "verify lattice": [["verify", "lattice", "--p-max", "3"]],
    # the benchmark's chain workload, one invocation per group
    "chain workload, series": [["series", "H(40)", "--route", "pipeline"]],
    "chain workload, witten": [["witten", "H(40)"]],
    "series only": [
        ["series", "E(3;2)", "--format", "structured"],
        ["series", "logt(E(3),2)", "--route", "pipeline"],
        ["series", "hpsum(E(2),3)"],
        ["series", "H(5)", "--route", "pipeline"],
        ["logt", "E(3)", "2"],
    ],
    "text verbs": [
        ["dim", "--p", "3", "--canonical", "1,1"],
        ["dim", "--p", "3", "--delta", "1,2"],
        ["verify", "lattice", "--p-max", "3"],
        ["blowdown", "E(4)", "--horikawa", "2"],
        ["witten", "H(4)"],
        ["sw", "W(2)"],
        ["audit", "E(3)"],
    ],
}

# Per group, in a forked child with stdout on /dev/null: the exit codes and
# the loaded modules that are blowdown's own, dataclasses, inspect, json,
# fractions, decimal, argparse, gettext or locale.
# The probe passes its data as Python literals, so that it loads no json.
PROBE = """
import ast, os, sys
out = {}
for name, work in ast.literal_eval(sys.argv[1]).items():
    read, write = os.pipe()
    if os.fork() == 0:
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
        codes = []
        if isinstance(work, str):
            __import__(work)
        else:
            from blowdown.cli import main
            codes = [main(argv) for argv in work]
        mods = sorted(m for m in sys.modules
                      if m.split(".")[0] in ("blowdown", "dataclasses", "inspect", "json",
                                             "fractions", "decimal", "argparse", "gettext",
                                             "locale"))
        os.write(write, repr([codes, mods]).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        out[name] = ast.literal_eval(fh.read())
    os.wait()
print(repr(out))
"""


@functools.lru_cache(maxsize=1)
def _loaded() -> dict[str, tuple[list[int], frozenset[str]]]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, repr(GROUPS)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    out = ast.literal_eval(proc.stdout)
    return {name: (codes, frozenset(mods)) for name, (codes, mods) in out.items()}


def _layers(mods: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in mods if m.startswith("blowdown.")}


def test_each_verb_loads_only_its_layers():
    loaded = _loaded()
    assert set(loaded) == set(GROUPS)
    assert loaded["import blowdown"] == ([], {"blowdown"})
    assert loaded["import blowdown.cli"] == ([], {"blowdown", "blowdown.cli"})
    for name, (codes, mods) in loaded.items():
        assert codes == ([0, 0, 2, 2] if name == "help and usage errors" else [0] * len(codes)), name
        assert not mods & {"dataclasses", "inspect"}, name
    assert not _layers(loaded["dim and verify lemmas, lattice"][1]) & CALCULUS
    series = _layers(loaded["series, sw, witten"][1])
    assert not series & {"moduli", "suites"}
    # the probe sees the layers a verb does load
    assert CALCULUS | CHAIN | {"serialize"} <= series
    assert "json" in loaded["series, sw, witten"][1]
    assert {"suites", "moduli"} <= _layers(loaded["blowdown, logt, audit, verify identities"][1])


def test_a_verb_loads_no_surgery_its_plan_does_not_run():
    loaded = _loaded()
    blowup_closed = loaded["blowup and closed smoke, text"]
    assert len(blowup_closed[0]) == 6 and not _layers(blowup_closed[1]) & CHAIN
    assert {"swinv", "transform"} <= _layers(blowup_closed[1])
    series = _layers(loaded["series only"][1])
    assert "swinv" not in series and CHAIN <= series
    for name in ("blowup and closed smoke, text", "text verbs"):
        assert loaded[name][0] == [0] * len(loaded[name][0]), name
        assert "json" not in loaded[name][1], name


def test_the_closed_route_calculus_runs_without_fractions():
    loaded = _loaded()
    for name in ("blowup and closed smoke, text", "closed route", "chain route"):
        codes, mods = loaded[name]
        assert codes == [0] * len(codes) and len(codes) >= 4, name
        assert not mods & FRACTIONS, name
    # the lemma check and hpsum's ladder coefficients run in ints
    for name in ("verify lemmas", "hpsum"):
        codes, mods = loaded[name]
        assert codes == [0, 0] and not mods & FRACTIONS, name
    # the probe sees fractions where a verb does load it: dim prints e_square
    # and verify lattice compares the relative pairing and corr as rationals
    for name in ("dim", "verify lattice"):
        assert loaded[name][0] == [0] and "fractions" in loaded[name][1], name


def test_no_invocation_loads_argparse_gettext_or_locale():
    loaded = _loaded()
    assert loaded["help and usage errors"][0] == [0, 0, 2, 2]
    for name, (_, mods) in loaded.items():
        assert not mods & ARGPARSE, name


def test_the_exhaustive_path_loads_only_the_layers_it_runs():
    loaded = _loaded()
    lemmas = {"cli", "cli_checks", "moduli", "plumbing", "reporting", "suites"}
    assert loaded["verify lemmas"] == ([0, 0], {"blowdown", *(f"blowdown.{m}" for m in lemmas)})
    assert "lattice" not in _layers(loaded["dim"][1])
    hpsum = _layers(loaded["hpsum"][1])
    assert "linalg" not in hpsum and {"chain_surgery", "nodal", "plumbing", "lattice"} <= hpsum
    # a plan with no chain step loads no chain arithmetic
    for name in ("blowup and closed smoke, text", "closed route"):
        assert "plumbing" not in _layers(loaded[name][1]), name
    assert "plumbing" in _layers(loaded["chain route"][1])


def test_the_chain_route_loads_only_its_verbs_code():
    loaded = _loaded()
    assert "nodal" not in _layers(loaded["chain route"][1])
    series = _layers(loaded["chain workload, series"][1])
    witten = _layers(loaded["chain workload, witten"][1])
    for name in ("chain workload, series", "chain workload, witten"):
        codes, mods = loaded[name]
        layers = _layers(mods)
        assert codes == [0] and CHAIN <= layers and layers & HANDLERS == {"cli_calculus"}, name
        # text output: no encoder; no log transform, nodal model or suite
        assert not layers & {"serialize", "placement", "nodal", "moduli", "suites"}, name
        assert "json" not in mods, name
    assert "swinv" in witten - series and "closed" in witten - series
    # a verb loads its own handler module and no other verb's
    for name, handlers in (
        ("dim", {"cli_checks"}),
        ("verify lattice", {"cli_checks"}),
        ("hpsum", {"cli_calculus"}),
        ("closed route", {"cli_calculus", "cli_checks"}),
        ("help and usage errors", set()),
    ):
        assert _layers(loaded[name][1]) & HANDLERS == handlers, name


def _nodes(module: str) -> int:
    """The AST nodes of a blowdown module's source."""
    path = SRC / "blowdown" / f"{module.partition('.')[2] or '__init__'}.py"
    return sum(1 for _ in ast.walk(ast.parse(path.read_text())))


# group -> the AST nodes of the blowdown modules it loads, at most: the count
# once the verbs' handlers and the nodal, log placement, closed-form and audit
# code left the modules every verb loads, plus 5%
COMPILE_BUDGET = {
    "import blowdown": 239,  # 228
    "import blowdown.cli": 1865,  # 1776
    "dim and verify lemmas, lattice": 10402,  # 9907
    "series, sw, witten": 21348,  # 20331
    "blowdown, logt, audit, verify identities": 27155,  # 25862
    "blowup and closed smoke, text": 16178,  # 15408
    "closed route": 17062,  # 16250
    "chain route": 20851,  # 19858
    "help and usage errors": 3113,  # 2965
    "dim": 7387,  # 7035
    "verify lemmas": 9004,  # 8575
    "hpsum": 20081,  # 19125
    "verify lattice": 9631,  # 9172
    "chain workload, series": 17720,  # 16876
    "chain workload, witten": 19673,  # 18736
    "series only": 21611,  # 20582
    "text verbs": 25217,  # 24016
}


def test_each_group_compiles_within_its_budget():
    loaded = _loaded()
    compiled = {
        name: sum(_nodes(m) for m in mods if m.split(".")[0] == "blowdown")
        for name, (_, mods) in loaded.items()
    }
    assert set(COMPILE_BUDGET) == set(GROUPS)
    assert {name: n for name, n in compiled.items() if n > COMPILE_BUDGET[name]} == {}
    # the chain workload's two invocations, each in a fresh process
    assert compiled["chain workload, series"] + compiled["chain workload, witten"] <= 36_000
