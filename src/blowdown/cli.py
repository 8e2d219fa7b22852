"""Command-line front end.

Verbs: series, sw, witten, dim, verify, blowdown, logt, audit.  Exit codes:
0 success, 1 a verification or comparison failed, 2 usage or spec parse
error, 3 semantic error (well-formed input rejected by the mathematics), 141
the reader closed stdout early (128 + SIGPIPE, as a shell reports for cat).
Output is deterministic byte for byte for a given invocation; it is rendered
line by line (or, under --format structured, JSON piece by piece, in the
documented encodings) and written by reporting.emit in chunks of about 8 KiB,
so no verb holds its whole output in memory.

This module is the shell: the verb table, argument parsing, help and usage.
Importing it loads no other part of the package, nor argparse, gettext or
locale.  VERBS names each verb's handler by module and function
(.cli_calculus for series, logt, sw and witten, .cli_checks for dim, verify
and audit, .cli_blowdown for blowdown); the module loads only when that verb
runs and imports the layers its verb runs (the chain blowdown only for a
chain or hpsum step, json only for structured output).  No handler imports
this module: run by `python -m blowdown.cli` or runpy it is `__main__`, and
`from .cli import ...` would compile it a second time.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import Optional

# ---------------------------------------------------------------------------
# Argument plumbing


def _canonical_pair(text: str) -> tuple[int, int]:
    try:
        t, b = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("expected t,b") from None
    return t, b


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError("expected a comma-separated integer list") from None


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value

    return integer


_FORMAT = {"--format": (str, ("text", "structured"), "text")}
_SPEC = {**_FORMAT, "spec": (str, "spec", None)}

# verb -> ((the module and function of its handler), help line, arguments,
# required groups).  An argument maps to (convert, choices or metavar,
# default); a name without "--" is a positional, which must be given, and of
# each group's options exactly one.
VERBS = {
    "series": (("cli_calculus", "cmd_series"), "series kernel of a catalog spec",
               {**_SPEC, "--route": (str, ("closed", "pipeline"), "closed")}, ()),
    "sw": (("cli_calculus", "cmd_sw"), "basic-class map of a covered spec", _SPEC, ()),
    "witten": (("cli_calculus", "cmd_witten"), "compare the two calculi on a spec", _SPEC, ()),
    "dim": (("cli_checks", "cmd_dim"), "moduli dimension of a relative class",
            {**_FORMAT, "--p": (int, "P", None), "--canonical": (_canonical_pair, "T,B", None),
             "--delta": (_int_list, "C1,C2,...", None)}, (("--p",), ("--canonical", "--delta"))),
    "verify": (("cli_checks", "cmd_verify"), "run a verification suite",
               {"suite": (str, ("lattice", "lemmas", "identities", "witten", "all"), None),
                "--p-max": (_int_at_least(2), "P_MAX", None), "--box": (_int_at_least(0), "BOX", 4),
                "--t-max": (_int_at_least(0), "T_MAX", 2), **_FORMAT}, ()),
    "blowdown": (("cli_blowdown", "cmd_blowdown"), "replay chain blowdowns with their class maps",
                 {**_SPEC, "--sections": (int, "N", None), "--horikawa": (int, (1, 2), None)},
                 (("--sections", "--horikawa"),)),
    "logt": (("cli_calculus", "cmd_logt"), "log transform of a catalog spec",
             {**_SPEC, "p": (int, "p", None)}, ()),
    "audit": (("cli_checks", "cmd_audit"), "characteristic-number audit", _SPEC, ()),
}


def _usage(verb: Optional[str]) -> str:
    if verb is None:
        return f"usage: blowdown [-h] {{{','.join(VERBS)}}} ..."
    _, _, arguments, groups = VERBS[verb]

    def show(name: str) -> str:
        meta = arguments[name][1]
        meta = f"{{{','.join(map(str, meta))}}}" if isinstance(meta, tuple) else meta
        return f"{name} {meta}" if name[:2] == "--" else meta

    grouped = [name for group in groups for name in group]
    words = [f"[{show(n)}]" if n[:2] == "--" else show(n) for n in arguments if n not in grouped]
    words += [" | ".join(map(show, g)).join("()") if len(g) > 1 else show(*g) for g in groups]
    return f"usage: blowdown {verb} [-h] {' '.join(words)}"


def _help(verb: Optional[str]) -> int:
    about = [f"  {v:<10}{VERBS[v][1]}" for v in VERBS] if verb is None else [VERBS[verb][1]]
    print(_usage(verb), "", *about, sep="\n")
    return 0


def _fail(error: tuple[Optional[str], str]) -> int:
    verb, message = error
    prog = f"blowdown {verb}" if verb else "blowdown"
    print(_usage(verb), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    return 2


def _parse(argv: list[str]):
    """The function to run for argv and its argument: a verb's handler, from
    the module that VERBS names, loaded once the arguments parse, and its
    arguments, _help or _fail.  Options go anywhere, as --opt value,
    --opt=value or a unique prefix, and values may be negative, as argparse
    reads them."""
    top = argv[0] if argv else ""
    if top == "-h" or len(top) > 2 and "--help".startswith(top):
        return _help, None
    if top not in VERBS:
        why = f"argument verb: invalid choice: {top!r}" if argv else "argument verb is required"
        return _fail, (None, why)
    (module, handler), _, arguments, groups = VERBS[top]
    options = ["--help", *(n for n in arguments if n[:2] == "--")]
    given, free, rest = {}, [], iter(argv[1:])
    for arg in rest:
        name, eq, value = arg.partition("=")
        found = [o for o in options if o == name] or [o for o in options if o.startswith(name)]
        if arg[:2] != "--" and arg != "-h":
            free.append(arg)
        elif arg == "-h" or found == ["--help"]:
            return _help, top
        elif len(found) != 1:
            return _fail, (top, f"ambiguous option: {name} could match {', '.join(found)}"
                           if found else f"unrecognized arguments: {arg}")
        elif not eq and (value := next(rest, None)) is None:
            return _fail, (top, f"argument {found[0]}: expected one argument")
        else:
            given[found[0]] = value
    names = [n for n in arguments if n[:2] != "--"]
    if len(free) > len(names):
        return _fail, (top, f"unrecognized arguments: {' '.join(free[len(names):])}")
    given.update(zip(names, free))
    for group in [(n,) for n in names] + list(groups):
        present = [n for n in given if n in group]
        if len(present) != 1:
            return _fail, (top, f"argument {present[1]}: not allowed with argument {present[0]}"
                           if present else f"argument {' | '.join(group)} is required")
    values = {}
    for name, (convert, meta, default) in arguments.items():
        try:
            value = convert(given[name]) if name in given else default
        except ValueError as exc:
            return _fail, (top, f"argument {name}: {exc}")
        if name in given and isinstance(meta, tuple) and value not in meta:
            why = f"invalid choice: {value!r} (choose from {', '.join(map(repr, meta))})"
            return _fail, (top, f"argument {name}: {why}")
        values[name.lstrip("-").replace("-", "_")] = value
    return getattr(import_module(f"{__package__}.{module}"), handler), SimpleNamespace(**values)


def main(argv=None) -> int:
    from .reporting import SpecParseError

    handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return handler(args)
    except BrokenPipeError:
        # point fd 1 at devnull so that the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
