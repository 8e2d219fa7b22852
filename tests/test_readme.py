"""The command-line examples in README.md are real runs.

Every `$ blowdown ...` line in a fenced block of README.md is run through
`cli.main` in-process, and the lines shown under it must equal its stdout
exactly, except that a line `...` (at any indentation) stands for any run of
lines.  An example that ends in `> /dev/null` shows stderr instead.  Every
```python block is run with exec, each in a fresh namespace, so a library
name the README shows cannot be removed or renamed unnoticed.
"""

import shlex
from pathlib import Path

import pytest

from blowdown.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples(text: str) -> list[tuple[str, list[str]]]:
    """(command line, shown lines) for each `$ blowdown` line in a fenced
    block; the shown lines run to the next `$ ` line or the end of the block,
    trailing blank lines dropped."""
    out: list[tuple[str, list[str]]] = []
    fenced, shown = False, None
    for line in text.splitlines():
        if line.startswith("```"):
            fenced, shown = not fenced, None
        elif fenced and line.startswith("$ "):
            shown = []
            out.append((line[2:], shown))
        elif shown is not None:
            shown.append(line)
    for _, shown in out:
        while shown and not shown[-1].strip():
            shown.pop()
    return out


def _matches(shown: list[str], actual: list[str]) -> bool:
    """True when `actual` equals `shown` with each `...` line standing for
    any run of lines (none included)."""
    if not shown:
        return not actual
    if shown[0].strip() == "...":
        return any(_matches(shown[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and shown[0] == actual[0] and _matches(shown[1:], actual[1:])


EXAMPLES = [ex for ex in _examples(README.read_text()) if ex[0].startswith("blowdown ")]


def _python_blocks(text: str) -> list[str]:
    """The source of each ```python fenced block."""
    blocks, lines = [], None
    for line in text.splitlines():
        if lines is None and line == "```python":
            lines = []
        elif lines is not None and line.startswith("```"):
            blocks.append("\n".join(lines))
            lines = None
        elif lines is not None:
            lines.append(line)
    return blocks


BLOCKS = _python_blocks(README.read_text())


def test_readme_has_examples():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[cmd for cmd, _ in EXAMPLES])
def test_readme_example(capsys, command, shown):
    argv = shlex.split(command)[1:]
    to_null = argv[-2:] == [">", "/dev/null"]
    if to_null:
        argv = argv[:-2]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    actual = (err if to_null else out).splitlines()
    assert _matches(shown, actual), "\n".join(["shown:", *shown, "actual:", *actual])


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("source", BLOCKS, ids=[f"python-{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_python_blocks_are_read_whole():
    text = "a\n```python\nx = 1\n\ny = 2\n```\n```\n$ z\n```\n```python\npass\n```\n"
    assert _python_blocks(text) == ["x = 1\n\ny = 2", "pass"]


def test_matcher_reads_ellipsis_as_any_run():
    assert _matches(["a", "...", "d"], ["a", "b", "c", "d"])
    assert _matches(["a", "  ...", "b"], ["a", "b"])
    assert not _matches(["a", "...", "d"], ["a", "b", "c"])
    assert not _matches(["a", "b"], ["a", "b", "c"])
