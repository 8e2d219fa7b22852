"""Guard: each CLI verb loads only the layers it uses.

One fresh interpreter forks a child per group of cases, so every group starts
from a process that has imported nothing of blowdown; in-process tests share
sys.modules and could not see a verb load a module it does not need.  The
verbs of a group run one after another in their child, so what the group
loads is the union of what its verbs load: a module no verb of the group may
load is checked once for all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CALCULUS = {"catalog", "transform", "swinv", "exppoly"}

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
}

# Per group, in a forked child with stdout on /dev/null: the exit codes and
# the loaded modules that are blowdown's own, dataclasses or inspect.
PROBE = """
import json, os, sys
out = {}
for name, work in json.loads(sys.argv[1]).items():
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
                      if m.split(".")[0] in ("blowdown", "dataclasses", "inspect"))
        os.write(write, json.dumps([codes, mods]).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        out[name] = json.loads(fh.read())
    os.wait()
print(json.dumps(out))
"""


def _loaded() -> dict[str, tuple[list[int], set[str]]]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(GROUPS)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return {name: (codes, set(mods)) for name, (codes, mods) in json.loads(proc.stdout).items()}


def _layers(mods: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in mods if m.startswith("blowdown.")}


def test_each_verb_loads_only_its_layers():
    loaded = _loaded()
    assert set(loaded) == set(GROUPS)
    assert loaded["import blowdown"] == ([], {"blowdown"})
    assert loaded["import blowdown.cli"] == ([], {"blowdown", "blowdown.cli"})
    for name, (codes, mods) in loaded.items():
        assert codes == [0] * len(codes), name
        assert not mods & {"dataclasses", "inspect"}, name
    assert not _layers(loaded["dim and verify lemmas, lattice"][1]) & CALCULUS
    series = _layers(loaded["series, sw, witten"][1])
    assert not series & {"moduli", "suites"}
    # the probe sees the layers a verb does load
    assert CALCULUS | {"serialize"} <= series
    assert {"suites", "moduli"} <= _layers(loaded["blowdown, logt, audit, verify identities"][1])
