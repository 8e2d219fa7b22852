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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 tests/test_golden.py --record")
    entries = [observe(argv) for argv in invocations()]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(entries)} invocations to {GOLDEN}")
