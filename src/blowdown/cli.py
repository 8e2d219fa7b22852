"""Command-line front end.

Verbs: series, sw, witten, dim, verify, blowdown, logt, audit.  Exit codes:
0 success, 1 a verification or comparison failed, 2 usage or spec parse
error, 3 semantic error (well-formed input rejected by the mathematics), 141
the reader closed stdout early (128 + SIGPIPE, as a shell reports for cat).
Output is deterministic byte for byte for a given invocation and is written
in one piece; --format structured emits the documented JSON encodings
instead of text.  sw and witten
name on stderr each class a chain blowdown drops for want of an extension.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from typing import Optional

from .catalog import (
    SERIES_RULES,
    EllipticSpec,
    HSpec,
    LogSpec,
    SpecParseError,
    WSpec,
    YSpec,
    adjunction_audit,
    donaldson_closed_form,
    donaldson_pipeline,
    parse_spec,
    render,
    replay,
    surgery_plan,
    sw_replay,
)
from .exppoly import ExpKernel
from .lattice import IntersectionLattice, RelClass
from .moduli import CanonicalClass, dim_report
from .reporting import CheckReport
from .serialize import (
    blowdown_to_obj,
    dumps,
    fraction_str,
    lattice_to_obj,
    ratio_str,
    series_to_obj,
    swmap_to_obj,
)
from .suites import suite_identities, suite_lattice, suite_lemmas, suite_witten
from .swinv import witten_check, witten_exponent
from .transform import ORTHOGONAL, ManifoldSeries

# ---------------------------------------------------------------------------
# Text rendering


@lru_cache(maxsize=4096)
def _piece(name: str, c: int) -> str:
    """The signed summand c*name of a class sum, "" for c == 0."""
    if not c:
        return ""
    return ("-" if c < 0 else "+") + (name if abs(c) == 1 else f"{abs(c)}*{name}")


def _class_text(lattice: IntersectionLattice, coeffs) -> str:
    return "".join(map(_piece, lattice.basis_names, coeffs)).removeprefix("+") or "0"


def _compact_kernel(k: ExpKernel) -> Optional[str]:
    terms = sorted(k.num.items()) if len(k) <= 2 else ()
    if len(terms) == 1 and not any(terms[0][0]):
        return ratio_str(terms[0][1], k.den)
    if len(terms) != 2:
        return None
    (neg_key, neg_c), (pos_key, pos_c) = terms
    if tuple(-x for x in pos_key) != neg_key or abs(neg_c) != abs(pos_c):
        return None
    fn = "cosh" if neg_c == pos_c else "sinh"
    lead = "" if 2 * pos_c == k.den else f"{ratio_str(2 * pos_c, k.den)}*"
    return f"{lead}{fn}({_class_text(k.lattice, pos_key)})"


def _lattice_lines(lat: IntersectionLattice) -> list[str]:
    gram = json.dumps(lattice_to_obj(lat)["gram"])
    return [f"basis: {' '.join(lat.basis_names)}", f"gram: {gram}"]


def _series_lines(m: ManifoldSeries) -> list[str]:
    lines = _lattice_lines(m.lattice)
    compact = _compact_kernel(m.kernel)
    if compact is not None:
        lines.append(f"kernel: {compact}")
    else:
        num, den = m.kernel.num, m.kernel.den
        lines.append(f"kernel ({len(num)} terms):")
        lines += [
            f"  {ratio_str(num[key], den)} * e^({_class_text(m.lattice, key)})"
            for key in sorted(num)
        ]
    return lines + [f"e: {m.euler}  sigma: {m.signature}  b_plus: {m.b_plus}"]


def _print_drops(chains) -> None:
    """Name on stderr each class a chain step dropped for want of an extension."""
    for _, _, result in chains:
        for rec in result.class_map:
            if rec.status == "dropped" and rec.reason != ORTHOGONAL:
                print(f"dropping class {rec.source}: {rec.reason}", file=sys.stderr)


def _emit(args, obj, text) -> None:
    """Write dumps(obj()) under --format structured, else the lines text()
    returns, to stdout in one piece; the structured object is only built when
    it is written."""
    if args.format == "structured":
        data = dumps(obj()) + "\n"
    else:
        data = "\n".join([*text(), ""])
    raw = getattr(sys.stdout, "buffer", None)
    if raw is None:
        sys.stdout.write(data)
        return
    # unbuffered (python -u), the binary layer may take only part of a write,
    # which the text layer would drop; the loop reaches a closed reader's EPIPE
    sys.stdout.flush()
    view = memoryview(data.encode(sys.stdout.encoding))
    while view:
        view = view[raw.write(view):]


# ---------------------------------------------------------------------------
# Commands


def _series_output(args, spec, route: str) -> int:
    build = donaldson_pipeline if route == "pipeline" else donaldson_closed_form
    m = build(spec)

    def text():
        return [f"spec: {render(spec)}", f"route: {route}", *_series_lines(m)]

    _emit(args, lambda: {"spec": render(spec), "route": route, **series_to_obj(m)}, text)
    return 0


def cmd_series(args) -> int:
    return _series_output(args, parse_spec(args.spec), args.route)


def cmd_sw(args) -> int:
    spec = parse_spec(args.spec)
    m, chains = sw_replay(spec)
    _print_drops(chains)

    def text():
        return [
            f"spec: {render(spec)}",
            *_lattice_lines(m.lattice),
            f"classes ({len(m.values)}):",
            *(f"  {_class_text(m.lattice, key)}: {m.values[key]}" for key in sorted(m.values)),
            f"e: {m.euler}  sigma: {m.signature}  b_plus: {m.b_plus}",
        ]

    _emit(args, lambda: {"spec": render(spec), **swmap_to_obj(m)}, text)
    return 0


def cmd_witten(args) -> int:
    spec = parse_spec(args.spec)
    series = donaldson_closed_form(spec)
    swmap, chains = sw_replay(spec)
    _print_drops(chains)
    ok = witten_check(series, swmap)
    c = witten_exponent(swmap.euler, swmap.signature)

    def obj():
        return {
            "spec": render(spec),
            "pass": ok,
            "exponent": c,
            "series": series_to_obj(series),
            "sw": swmap_to_obj(swmap),
        }

    def text():
        return [f"{'PASS' if ok else 'FAIL'} witten {render(spec)} (exponent {c})"]

    _emit(args, obj, text)
    return 0 if ok else 1


def cmd_dim(args) -> int:
    p = args.p
    if args.canonical is not None:
        t, b = args.canonical
        e = CanonicalClass(p, t, b).rel_class()
    else:
        e = RelClass(p, tuple(args.delta))
    rep = dim_report(e)

    def obj():
        return {
            "p": p,
            "delta": list(e.delta_coords()),
            "e_square": fraction_str(rep.e_square),
            "boundary": rep.boundary.value,
            "modulus": rep.boundary.modulus,
            "reduced_boundary": rep.reduced_boundary,
            "dim": rep.dim,
        }

    def text():
        return [
            f"p: {p}",
            f"delta: {tuple(e.delta_coords())}",
            f"e_square: {fraction_str(rep.e_square)}",
            f"boundary: {rep.boundary.value} (mod {rep.boundary.modulus})",
            f"reduced_boundary: {rep.reduced_boundary}",
            f"dim: {rep.dim}",
        ]

    _emit(args, obj, text)
    return 0


_SUITES = ("lattice", "lemmas", "identities", "witten", "all")


def cmd_verify(args) -> int:
    reports: list[CheckReport] = []
    suite = args.suite
    if suite in ("lattice", "all"):
        reports += suite_lattice(args.p_max if args.p_max is not None else 12)
    if suite in ("lemmas", "all"):
        reports += suite_lemmas(
            args.p_max if args.p_max is not None else 6, args.t_max, args.box
        )
    if suite in ("identities", "all"):
        reports += suite_identities(args.p_max if args.p_max is not None else 7)
    if suite in ("witten", "all"):
        reports += suite_witten()
    passed = all(r.passed for r in reports)

    def obj():
        return {"suite": suite, "checks": [r.to_obj() for r in reports], "pass": passed}

    def text():
        passes = sum(1 for r in reports if r.passed)
        return [r.line() for r in reports] + [f"{passes}/{len(reports)} checks passed"]

    _emit(args, obj, text)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Blowdown walkthroughs


def cmd_blowdown(args) -> int:
    spec = parse_spec(args.spec)
    if args.sections is not None:
        if spec != EllipticSpec(4):
            raise ValueError("--sections requires the spec E(4): the disjoint square -4 sections live there")
        n = args.sections
        if not 1 <= n <= 8:
            raise ValueError("section count must be between 1 and 8 (simple connectivity bound)")
        plan = surgery_plan(WSpec(n))
    else:
        if not isinstance(spec, EllipticSpec) or spec.pairs:
            raise ValueError("--horikawa requires a plain E(n) spec")
        n = spec.n
        if n < 4:
            raise ValueError("Horikawa-type blowdowns need n >= 4 (chain order n-2 >= 2)")
        plan = surgery_plan(YSpec(n) if args.horikawa == 1 else HSpec(n))
    final, steps = replay(plan.seed_series(), plan.steps, SERIES_RULES)

    def obj():
        return {
            "spec": render(spec),
            "steps": [
                {
                    "order": step.n,
                    "chain": list(step.spheres),
                    "basis": list(pre.basis_names),
                    **blowdown_to_obj(result),
                }
                for step, pre, result in steps
            ],
            "series": series_to_obj(final),
        }

    def text():
        lines = [f"spec: {render(spec)}"]
        for i, (step, pre, result) in enumerate(steps, start=1):
            lines.append(f"step {i}: blow down order-{step.n} chain ending at {step.spheres[-1]}")
            for rec in result.class_map:
                src = _class_text(pre, rec.source)
                line = f"  {src}: {rec.status} (boundary {rec.residue} mod {step.n**2})"
                if rec.status == "kept":
                    line += f" -> {_class_text(result.result.lattice, rec.image)}"
                lines.append(line)
        return lines + _series_lines(final)

    _emit(args, obj, text)
    return 0


def cmd_logt(args) -> int:
    return _series_output(args, LogSpec(parse_spec(args.spec), args.p), "closed")


def cmd_audit(args) -> int:
    spec = parse_spec(args.spec)
    reports = adjunction_audit(spec)
    passed = all(r.passed for r in reports)

    def obj():
        return {"spec": render(spec), "checks": [r.to_obj() for r in reports], "pass": passed}

    def text():
        return [r.line() for r in reports]

    _emit(args, obj, text)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Argument plumbing


def _canonical_pair(text: str) -> tuple[int, int]:
    try:
        t, b = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected t,b") from exc
    return t, b


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list") from exc


def _int_at_least(low: int):
    # argparse names the type function in its "invalid ... value" message
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="blowdown",
        description="Exact series kernels, basic-class maps, and chain-blowdown checks.",
    )
    sub = top.add_subparsers(dest="verb", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"), default="text")

    p = sub.add_parser("series", parents=[common], help="series kernel of a catalog spec")
    p.add_argument("spec")
    p.add_argument("--route", choices=("closed", "pipeline"), default="closed")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("sw", parents=[common], help="basic-class map of a covered spec")
    p.add_argument("spec")
    p.set_defaults(func=cmd_sw)

    p = sub.add_parser("witten", parents=[common], help="compare the two calculi on a spec")
    p.add_argument("spec")
    p.set_defaults(func=cmd_witten)

    p = sub.add_parser("dim", parents=[common], help="moduli dimension of a relative class")
    p.add_argument("--p", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--canonical", type=_canonical_pair, metavar="T,B")
    group.add_argument("--delta", type=_int_list, metavar="C1,C2,...")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=_SUITES)
    p.add_argument("--p-max", dest="p_max", type=_int_at_least(2), default=None)
    p.add_argument("--box", type=_int_at_least(0), default=4)
    p.add_argument("--t-max", dest="t_max", type=_int_at_least(0), default=2)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "blowdown", parents=[common], help="replay chain blowdowns with their class maps"
    )
    p.add_argument("spec")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sections", type=int, metavar="N")
    group.add_argument("--horikawa", type=int, choices=(1, 2))
    p.set_defaults(func=cmd_blowdown)

    p = sub.add_parser("logt", parents=[common], help="log transform of a catalog spec")
    p.add_argument("spec")
    p.add_argument("p", type=int)
    p.set_defaults(func=cmd_logt)

    p = sub.add_parser("audit", parents=[common], help="characteristic-number audit")
    p.add_argument("spec")
    p.set_defaults(func=cmd_audit)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return args.func(args)
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
