"""Command-line front end.

Verbs: series, sw, witten, dim, verify, blowdown, logt, audit.  Exit codes:
0 success, 1 a verification or comparison failed, 2 usage or spec parse
error, 3 semantic error (well-formed input rejected by the mathematics), 141
the reader closed stdout early (128 + SIGPIPE, as a shell reports for cat).
Output is deterministic byte for byte for a given invocation; it is rendered
line by line (or, under --format structured, JSON piece by piece, in the
documented encodings) and written in chunks of about CHUNK bytes, so no verb
holds its whole output in memory; series and sw stream the 2^k classes of
a plan's k blowups from the route's value before them.  sw and witten name on
stderr each class a chain blowdown drops for want of an extension.

Importing this module loads no other part of the package, nor argparse,
gettext or locale; each cmd_* imports the layers its verb runs (the chain
blowdown only for a chain or hpsum step, json only for structured output).
Compiled from source (Python 3.11, 2 vCPUs, median of 41 fresh processes,
timed in-process), importing this module and parsing `dim` take 7 ms (9 ms
through argparse), not the 36 ms of every layer, and all of `dim` 19 ms.
"""

from __future__ import annotations

import os
import sys
from itertools import chain, compress
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from .exppoly import ExpKernel
    from .lattice import IntersectionLattice
    from .reporting import CheckReport
    from .transform import ManifoldSeries

# ---------------------------------------------------------------------------
# Text rendering

CHUNK = 1 << 13  # bytes encoded before each write to stdout, io.DEFAULT_BUFFER_SIZE


def _piece(name: str, c: int) -> str:
    """The signed summand c*name of a class sum, "" for c == 0."""
    if not c:
        return ""
    return ("-" if c < 0 else "+") + (name if abs(c) == 1 else f"{abs(c)}*{name}")


def _class_text(lat: IntersectionLattice, c) -> str:  # a zero coordinate writes nothing
    return "".join(map(_piece, compress(lat.basis_names, c), filter(None, c))).removeprefix("+") or "0"


def _compact_kernel(k: ExpKernel) -> Optional[str]:
    from .serialize import ratio_str

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


def _blown_up_lines(m, k: int, title: str, keys, parts) -> Iterator[str]:
    """m (a ManifoldSeries or SWMap) after k blowups: lattice, title, a line
    pre + (L + tail) + post per class, (pre, post) = parts(L), in the classes'
    order, and numbers.  Each key L and tail (see tail_texts) is rendered once."""
    from .serialize import lattice_to_obj, tail_texts

    lat = lattice_to_obj(m.lattice, k)
    yield f"basis: {' '.join(lat['basis'])}"
    yield "gram: " + str(lat["gram"]).replace("'", '"')  # json.dumps: ints and "n/d" strings
    yield title
    tails = tail_texts([(_piece(e, -1), _piece(e, 1)) for e in lat["basis"][m.lattice.rank :]])
    for key in sorted(keys):
        head, (pre, post) = "".join(map(_piece, m.lattice.basis_names, key)), parts(key)
        for t in tails():
            yield f"{pre}{(head + t).removeprefix('+') or '0'}{post}"
    yield f"e: {m.euler + k}  sigma: {m.signature - k}  b_plus: {m.b_plus}"


def _series_lines(m: ManifoldSeries, k: int = 0) -> Iterator[str]:
    from .serialize import ratio_str
    from .transform import blowup

    small = len(m.kernel) << k <= 2  # the compact forms read the expanded kernel
    compact = _compact_kernel((blowup(m, k) if k else m).kernel) if small else None
    num, den = m.kernel.num, m.kernel.den << k
    title = f"kernel: {compact}" if compact else f"kernel ({len(num) << k} terms):"
    parts = lambda key: (f"  {ratio_str(num[key], den)} * e^(", ")")
    yield from _blown_up_lines(m, k, title, () if compact else num, parts)


def _print_drops(chains) -> None:
    """Name on stderr each class a chain step dropped for want of an extension."""
    if not chains:  # no chain step ran, so .chain_surgery is not loaded
        return
    from .chain_surgery import ORTHOGONAL

    for _, pre, result in chains:
        for rec in result.class_map:
            if rec.status == "dropped" and rec.reason != ORTHOGONAL:
                sys.stderr.write(f"dropping class {_class_text(pre, rec.source)}: {rec.reason}\n")


def _emit(args, obj, text) -> None:
    """Write the pieces of iterencode(obj()) under --format structured, else
    the lines text() yields, to stdout in chunks of about CHUNK bytes, so that
    no verb holds its whole output at once.  The structured object is only
    built when it is written; obj and text only format values the verb has
    already computed, so a verb that exits 2 or 3 raises before any write."""
    if args.format == "structured":
        from .serialize import iterencode

        pieces, end = chain(iterencode(obj()), ("\n",)), ""
    else:
        pieces, end = text(), "\n"  # each piece is a line
    raw = getattr(sys.stdout, "buffer", None)
    if raw is None:  # a text-only stream, such as io.StringIO
        sys.stdout.writelines(piece + end for piece in pieces)
        return
    sys.stdout.flush()
    encoding, chunk = sys.stdout.encoding, bytearray()
    tail = end.encode(encoding)
    for piece in pieces:
        chunk += piece.encode(encoding)
        chunk += tail
        if len(chunk) >= CHUNK:
            _write(raw, chunk)
            chunk = bytearray()
    _write(raw, chunk)


def _write(raw, data: bytearray) -> None:
    # unbuffered (python -u), the binary layer may take only part of a write,
    # which the text layer would drop; the loop reaches a closed reader's EPIPE
    view = memoryview(data)
    while view:
        view = view[raw.write(view):]


# ---------------------------------------------------------------------------
# Commands


def _series_output(args, spec, route: str) -> int:
    from .catalog import render, run, surgery_plan
    from .serialize import series_to_obj

    plan = surgery_plan(spec)
    m, k = run(plan, route)[0], plan.blowups

    def text():
        yield f"spec: {render(spec)}"
        yield f"route: {route}"
        yield from _series_lines(m, k)

    _emit(args, lambda: {"spec": render(spec), "route": route, **series_to_obj(m, k)}, text)
    return 0


def cmd_series(args) -> int:
    from .catalog import parse_spec

    return _series_output(args, parse_spec(args.spec), args.route)


def cmd_sw(args) -> int:
    from .catalog import parse_spec, render, run, surgery_plan
    from .serialize import swmap_to_obj

    spec = parse_spec(args.spec)
    plan = surgery_plan(spec)
    m, chains = run(plan, "sw")  # a plan's sw_gap raises before any work
    _print_drops(chains)
    k = plan.blowups

    def text():
        yield f"spec: {render(spec)}"
        title = f"classes ({len(m.values) << k}):"
        yield from _blown_up_lines(m, k, title, m.values, lambda key: ("  ", f": {m.values[key]}"))

    _emit(args, lambda: {"spec": render(spec), **swmap_to_obj(m, k)}, text)
    return 0


def cmd_witten(args) -> int:
    """witten_check before the plan's k blowups, then after one by each calculus's
    own rule: k blowups are k orthogonal copies of that factor, shifting c by -k."""
    from .catalog import ROUTES, parse_spec, render, run, surgery_plan
    from .swinv import witten_check, witten_diff, witten_exponent

    spec = parse_spec(args.spec)
    plan = surgery_plan(spec)
    swmap, chains = run(plan, "sw")  # a plan's sw_gap raises before any work
    _print_drops(chains)
    series, k = run(plan, "closed")[0], plan.blowups
    blown = lambda: (ROUTES["closed"][2](series, 1), ROUTES["sw"][2](swmap, 1))
    ok = witten_check(series, swmap) and (not k or witten_check(*blown()))
    c = witten_exponent(swmap.euler, swmap.signature) - k
    if not ok:
        key, a, b = witten_diff(series, swmap) or witten_diff(*blown())
        print(f"first differing class {key}: series {a}, predicted {b}", file=sys.stderr)

    def obj():
        from .serialize import series_to_obj, swmap_to_obj

        return {
            "spec": render(spec),
            "pass": ok,
            "exponent": c,
            "series": series_to_obj(series, k),
            "sw": swmap_to_obj(swmap, k),
        }

    def text():
        return [f"{'PASS' if ok else 'FAIL'} witten {render(spec)} (exponent {c})"]

    _emit(args, obj, text)
    return 0 if ok else 1


def cmd_dim(args) -> int:
    from .moduli import CanonicalClass, dim_report
    from .plumbing import RelClass
    from .serialize import fraction_str

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
            "delta": list(e.coeffs),
            "e_square": fraction_str(rep.e_square),
            "boundary": rep.boundary.value,
            "modulus": rep.boundary.modulus,
            "reduced_boundary": rep.reduced_boundary,
            "dim": rep.dim,
        }

    def text():
        return [
            f"p: {p}",
            f"delta: {e.coeffs}",
            f"e_square: {fraction_str(rep.e_square)}",
            f"boundary: {rep.boundary.value} (mod {rep.boundary.modulus})",
            f"reduced_boundary: {rep.reduced_boundary}",
            f"dim: {rep.dim}",
        ]

    _emit(args, obj, text)
    return 0


def _verdict(args, head: dict, reports: list[CheckReport], *extra: str) -> int:
    """Write a line per report and then the extra lines, or under --format
    structured the head with the reports as "checks" and the verdict as
    "pass"; exit 1 unless every report passed."""
    passed = all(r.passed for r in reports)
    obj = lambda: {**head, "checks": [r.to_obj() for r in reports], "pass": passed}
    _emit(args, obj, lambda: chain((r.line() for r in reports), extra))
    return 0 if passed else 1


def cmd_verify(args) -> int:
    from .suites import suite_identities, suite_lattice, suite_lemmas, suite_witten

    p_max = lambda default: args.p_max or default  # a given --p-max is at least 2
    suites = {  # in the order `all` runs them
        "lattice": lambda: suite_lattice(p_max(12)),
        "lemmas": lambda: suite_lemmas(p_max(6), args.t_max, args.box),
        "identities": lambda: suite_identities(p_max(7)),
        "witten": suite_witten,
    }
    reports = [r for name, run in suites.items() if args.suite in (name, "all") for r in run()]
    tally = f"{sum(r.passed for r in reports)}/{len(reports)} checks passed"
    return _verdict(args, {"suite": args.suite}, reports, tally)


# ---------------------------------------------------------------------------
# Blowdown walkthroughs


def cmd_blowdown(args) -> int:
    from .catalog import EllipticSpec, HSpec, WSpec, YSpec, parse_spec, render, run, surgery_plan
    from .serialize import blowdown_to_obj, series_to_obj

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
    final, steps = run(plan, "pipeline")

    def obj():
        return {
            "spec": render(spec),
            "steps": [
                {
                    "order": step.n,
                    "chain": list(step.spheres),
                    "basis": list(pre.basis_names),
                    **blowdown_to_obj(result, step.n**2),
                }
                for step, pre, result in steps
            ],
            "series": series_to_obj(final),
        }

    def text():
        yield f"spec: {render(spec)}"
        for i, (step, pre, result) in enumerate(steps, start=1):
            yield f"step {i}: blow down order-{step.n} chain ending at {step.spheres[-1]}"
            for rec in result.class_map:
                src = _class_text(pre, rec.source)
                line = f"  {src}: {rec.status} (boundary {rec.residue} mod {step.n**2})"
                if rec.status == "kept":
                    line += f" -> {_class_text(result.result.lattice, rec.image)}"
                yield line
        yield from _series_lines(final)

    _emit(args, obj, text)
    return 0


def cmd_logt(args) -> int:
    from .catalog import LogSpec, parse_spec

    return _series_output(args, LogSpec(parse_spec(args.spec), args.p), "closed")


def cmd_audit(args) -> int:
    from .catalog import adjunction_audit, parse_spec, render

    spec = parse_spec(args.spec)
    return _verdict(args, {"spec": render(spec)}, adjunction_audit(spec))


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

# verb -> (handler, help line, arguments, required groups).  An argument maps
# to (convert, choices or metavar, default); a name without "--" is a
# positional, which must be given, and of each group's options exactly one.
VERBS = {
    "series": (cmd_series, "series kernel of a catalog spec",
               {**_SPEC, "--route": (str, ("closed", "pipeline"), "closed")}, ()),
    "sw": (cmd_sw, "basic-class map of a covered spec", _SPEC, ()),
    "witten": (cmd_witten, "compare the two calculi on a spec", _SPEC, ()),
    "dim": (cmd_dim, "moduli dimension of a relative class",
            {**_FORMAT, "--p": (int, "P", None), "--canonical": (_canonical_pair, "T,B", None),
             "--delta": (_int_list, "C1,C2,...", None)}, (("--p",), ("--canonical", "--delta"))),
    "verify": (cmd_verify, "run a verification suite",
               {"suite": (str, ("lattice", "lemmas", "identities", "witten", "all"), None),
                "--p-max": (_int_at_least(2), "P_MAX", None), "--box": (_int_at_least(0), "BOX", 4),
                "--t-max": (_int_at_least(0), "T_MAX", 2), **_FORMAT}, ()),
    "blowdown": (cmd_blowdown, "replay chain blowdowns with their class maps",
                 {**_SPEC, "--sections": (int, "N", None), "--horikawa": (int, (1, 2), None)},
                 (("--sections", "--horikawa"),)),
    "logt": (cmd_logt, "log transform of a catalog spec", {**_SPEC, "p": (int, "p", None)}, ()),
    "audit": (cmd_audit, "characteristic-number audit", _SPEC, ()),
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
    """The function to run for argv and its argument: a verb's handler and its
    arguments, _help or _fail.  Options go anywhere, as --opt value, --opt=value
    or a unique prefix, and values may be negative, as argparse reads them."""
    top = argv[0] if argv else ""
    if top == "-h" or len(top) > 2 and "--help".startswith(top):
        return _help, None
    if top not in VERBS:
        why = f"argument verb: invalid choice: {top!r}" if argv else "argument verb is required"
        return _fail, (None, why)
    handler, _, arguments, groups = VERBS[top]
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
    return handler, SimpleNamespace(**values)


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
