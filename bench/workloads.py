"""The benchmark's workloads: which `blowdown` CLI invocations one pass runs.

Each workload is one fixed list of invocations.  The seed does not change it:
every run of a workload does the same work, so figures from different seeds
are repeated measurements of one thing.  Drawing instance sizes from ranges
would move wall time by 20-80% from seed to seed (see README.md).  The seed is
recorded in each result's metadata.

`confirm` checks one output by a route other than the invocation itself; it
runs when `run.py --record` stores a reference digest.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Optional

Args = tuple[str, ...]

SETUP_PROBE: Args = ("dim", "--p", "2", "--canonical", "0,1")

STRUCT = ("--format", "structured")
PIPE = ("--route", "pipeline")

WORKLOADS: dict[str, dict[str, list[Args]]] = {
    "blowup": {
        "full": [
            ("series", "blowup(E(6),10)", *STRUCT),
            ("sw", "blowup(E(6),8)"),
            ("witten", "blowup(E(4;2,3),6)"),
        ],
        "smoke": [
            ("series", "blowup(E(3),3)", *STRUCT),
            ("sw", "blowup(E(3),3)"),
            ("witten", "blowup(E(3;2,3),2)"),
        ],
    },
    "chain": {
        "full": [("series", "H(40)", *PIPE), ("witten", "H(40)")],
        "smoke": [("series", "H(8)", *PIPE), ("witten", "H(8)")],
    },
    "exhaustive": {
        "full": [("series", "hpsum(E(2),11)"), ("verify", "lemmas", "--p-max", "8")],
        "smoke": [("series", "hpsum(E(2),4)"), ("verify", "lemmas", "--p-max", "4")],
    },
    "closed": {
        "full": [
            ("series", "E(40;11,13)"),
            ("series", "E(40;11,13)", *PIPE),
            ("witten", "logt(E(20;7,9),11)"),
        ],
        "smoke": [
            ("series", "E(5;2,3)"),
            ("series", "E(5;2,3)", *PIPE),
            ("witten", "logt(E(4;2,3),5)"),
        ],
    },
}


def invocations(workload: str, smoke: bool = False) -> list[Args]:
    """The invocations of one pass."""
    return list(WORKLOADS[workload]["smoke" if smoke else "full"])


def all_invocations() -> list[Args]:
    """Every invocation of every workload and smoke mode, plus the setup probe."""
    out = [SETUP_PROBE]
    for spec in WORKLOADS.values():
        out.extend(spec["full"])
        out.extend(spec["smoke"])
    return list(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# Independent confirmation of an output

Runner = Callable[[Args], tuple[int, bytes]]


def _without_route(text: str, structured: bool):
    if structured:
        obj = json.loads(text)
        obj.pop("route", None)
        return obj
    return [line for line in text.splitlines() if not line.startswith("route: ")]


def _confirm_series(args: Args, text: str, run: Runner) -> Optional[str]:
    """The other route must give the same output apart from the route line;
    H(n) must come out as 2^(n-3) cosh(k) for even n and sinh(k) for odd n."""
    structured = "structured" in args
    if "pipeline" in args:
        other = tuple(a for a in args if a not in PIPE)
    else:
        other = args + PIPE
    code, out = run(other)
    if code != 0:
        return f"other route exited {code}"
    if _without_route(text, structured) != _without_route(out.decode(), structured):
        return "closed form and pipeline disagree"
    horikawa = re.fullmatch(r"H\((\d+)\)", args[1])
    if horikawa and not structured:
        n = int(horikawa.group(1))
        want = f"kernel: {2 ** (n - 3)}*{'cosh' if n % 2 == 0 else 'sinh'}(k)"
        if want not in text.splitlines():
            return f"H({n}) kernel is not {want[8:]}"
    return None


def _witten_passes(args: Args, text: str) -> bool:
    if "structured" in args:
        return json.loads(text).get("pass") is True
    return text.startswith(f"PASS witten {args[1]} ")


def _confirm_verify(args: Args, text: str) -> Optional[str]:
    if "structured" in args:
        obj = json.loads(text)
        ok = obj.get("pass") is True and all(c.get("pass") is True for c in obj["checks"])
        return None if ok and obj["checks"] else "structured verify output reports a failed check"
    last = text.splitlines()[-1] if text else ""
    m = re.fullmatch(r"(\d+)/(\d+) checks passed", last)
    if not m or m.group(1) != m.group(2) or m.group(1) == "0":
        return f"verify summary is {last!r}, not N/N checks passed"
    return None


def _confirm_dim(args: Args, text: str, run: Runner) -> Optional[str]:
    """Re-ask with the delta coordinates the output reports; must match."""
    m = re.search(r"^delta: \(([-\d, ]*)\)$", text, re.M)
    if not m:
        return "dim output has no delta line"
    delta = ",".join(x.strip() for x in m.group(1).split(",") if x.strip())
    p = args[args.index("--p") + 1]
    code, out = run(("dim", "--p", p, "--delta", delta))
    if code != 0 or out.decode() != text:
        return "canonical and delta inputs disagree"
    return None


def confirm(args: Args, stdout: bytes, run: Runner) -> Optional[str]:
    """None if `stdout` of `args` is borne out by an independent route, else why not."""
    text = stdout.decode()
    verb = args[0]
    if verb == "series":
        return _confirm_series(args, text, run)
    if verb == "sw":
        code, out = run(("witten", args[1]))
        if code != 0 or not _witten_passes(("witten", args[1]), out.decode()):
            return "basic-class map disagrees with the series calculus (witten fails)"
        return None
    if verb == "witten":
        return None if _witten_passes(args, text) else "witten comparison does not PASS"
    if verb == "verify":
        return _confirm_verify(args, text)
    if verb == "dim":
        return _confirm_dim(args, text, run)
    return f"no independent route for verb {verb!r}"
