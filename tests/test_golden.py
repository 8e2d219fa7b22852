"""Golden corpus: the CLI's observable output on a fixed set of invocations.

Each entry of golden.json stores, for one `cli.main(argv)` call, the exit
code, the SHA-256 of stdout, the `error:` line on stderr (if any) and the
`dropping class ...` lines on stderr, in order (stored under "warnings").
The test replays every entry in-process and names the first one that differs.

    python3 tests/test_golden.py --record    # rewrite golden.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"
DROP_LINE = "dropping class"


def invocations() -> list[list[str]]:
    from blowdown.suites import witten_specs

    out: list[list[str]] = []
    for spec in witten_specs():  # the 47 specs of the two-calculi comparison
        out += [
            ["series", spec, "--route", "pipeline"],
            ["series", spec, "--format", "structured"],
            ["sw", spec],
            ["witten", spec],
        ]
    out += [["blowdown", "E(4)", "--sections", str(n)] for n in range(1, 9)]
    out.append(["blowdown", "E(4)", "--sections", "3", "--format", "structured"])
    for n in range(4, 9):
        out += [["blowdown", f"E({n})", "--horikawa", str(k)] for k in (1, 2)]
    # README examples and the full verification run
    out += [
        ["series", "E(2;2,3)"],
        ["sw", "E(3;2)"],
        ["witten", "W(4)"],
        ["dim", "--p", "5", "--canonical", "1,2"],
        ["verify", "lemmas", "--p-max", "4"],
        ["verify", "all"],
    ]
    # rejections (exit 3 with an error line)
    out += [
        ["blowdown", "E(4)", "--sections", "9"],
        ["blowdown", "E(5;2)", "--horikawa", "1"],
        ["sw", "hpsum(E(2),3)"],
        ["sw", "E(2;2,3;5,7;11,13)"],
        ["witten", "logt(W(1),2)"],
    ]
    # verbs, structured forms and outer surgeries that no entry above reaches
    out += [
        ["logt", "E(3;2)", "3"],
        ["logt", "E(3;2)", "3", "--format", "structured"],
        ["audit", "H(6)"],
        ["audit", "E(3;2,5)"],
        ["audit", "Y(5)", "--format", "structured"],
        ["sw", "Y(5)", "--format", "structured"],
        ["witten", "W(2)", "--format", "structured"],
        ["dim", "--p", "5", "--canonical", "1,2", "--format", "structured"],
        ["verify", "lattice", "--p-max", "4", "--format", "structured"],
        ["series", "blowup(E(3),2)"],
        ["series", "logt(blowup(E(2),1),3)"],
        ["series", "hpsum(E(2),3)"],
        ["series", "blowup(W(2),1)", "--route", "pipeline"],
        ["series", "E(2"],  # exit 2: the spec does not parse
        ["series", "E(2;4,6)"],  # exit 3: the pair is not coprime
    ]
    # the basic-class verbs and the audit on blowups, and gaps under a blowup
    # (exit 3, the error naming the subtree as typed)
    out += [
        ["sw", "blowup(E(3;2),2)"],
        ["witten", "logt(blowup(E(3;2,3),2),5)", "--format", "structured"],
        ["audit", "blowup(E(4),3)"],
        ["audit", "blowup(E(4),3)", "--format", "structured"],
        ["sw", "hpsum(blowup(E(2),1),3)"],
        ["witten", "logt(blowup(E(2;2),1),2)"],
    ]
    # the verdict path of verify: every suite in order, and single suites
    # in the structured and the text form
    out += [
        ["verify", "all", "--format", "structured"],
        ["verify", "witten", "--format", "structured"],
        ["verify", "identities", "--p-max", "3"],
    ]
    return out


def observe(argv: list[str]) -> dict:
    from blowdown.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error:")]
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "error": errors[0] if errors else None,
        "warnings": [line for line in lines if line.startswith(DROP_LINE)],
    }


def test_golden_corpus():
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == invocations()
    for want in golden:
        got = observe(want["argv"])
        if got != want:
            fields = [k for k in want if got[k] != want[k]]
            raise AssertionError(
                f"first differing invocation: {want['argv']} ({', '.join(fields)}): "
                + "; ".join(f"{k}: want {want[k]!r}, got {got[k]!r}" for k in fields)
            )


def test_golden_reaches_every_verb():
    from blowdown.cli import VERBS

    verbs = set(VERBS)
    assert len(verbs) == 8
    golden = json.loads(GOLDEN.read_text())
    assert verbs - {e["argv"][0] for e in golden} == set(), "verbs with no golden entry"
    structured = {e["argv"][0] for e in golden if "structured" in e["argv"]}
    assert verbs - structured == set(), "verbs with no structured golden entry"
    assert any(e["exit"] == 2 for e in golden), "no golden entry exits 2"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 tests/test_golden.py --record")
    entries = [observe(argv) for argv in invocations()]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(entries)} invocations to {GOLDEN}")
