"""The series, logt, sw and witten verbs and their text rendering.  series and
sw stream the 2^k classes of a plan's k blowups from the value before them;
sw and witten name on stderr each class a chain blowdown drops."""

from __future__ import annotations

import sys
from itertools import compress
from typing import TYPE_CHECKING, Iterator, Optional

from .reporting import emit, lattice_to_obj, ratio_str, tail_texts

if TYPE_CHECKING:
    from .exppoly import ExpKernel
    from .lattice import IntersectionLattice
    from .transform import ManifoldSeries


def _piece(name: str, c: int) -> str:
    """The signed summand c*name of a class sum, "" for c == 0."""
    if not c:
        return ""
    return ("-" if c < 0 else "+") + (name if abs(c) == 1 else f"{abs(c)}*{name}")


def class_text(lat: IntersectionLattice, c) -> str:  # a zero coordinate writes nothing
    return "".join(map(_piece, compress(lat.basis_names, c), filter(None, c))).removeprefix("+") or "0"


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
    return f"{lead}{fn}({class_text(k.lattice, pos_key)})"


def _blown_up_lines(m, k: int, title: str, keys, parts) -> Iterator[str]:
    """m (a ManifoldSeries or SWMap) after k blowups: lattice, title, a line
    pre + (L + tail) + post per class, (pre, post) = parts(L), in the classes'
    order, and numbers.  Each key L and tail (see tail_texts) is rendered once."""
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


def series_lines(m: ManifoldSeries, k: int = 0) -> Iterator[str]:
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
                sys.stderr.write(f"dropping class {class_text(pre, rec.source)}: {rec.reason}\n")


def _series_output(args, spec, route: str) -> int:
    from .catalog import render, run, surgery_plan

    plan = surgery_plan(spec)
    m, k = run(plan, route)[0], plan.blowups

    def obj():
        from .serialize import series_to_obj

        return {"spec": render(spec), "route": route, **series_to_obj(m, k)}

    def text():
        yield f"spec: {render(spec)}"
        yield f"route: {route}"
        yield from series_lines(m, k)

    emit(args, obj, text)
    return 0


def cmd_series(args) -> int:
    from .catalog import parse_spec

    return _series_output(args, parse_spec(args.spec), args.route)


def cmd_logt(args) -> int:
    from .catalog import LogSpec, parse_spec

    return _series_output(args, LogSpec(parse_spec(args.spec), args.p), "closed")


def cmd_sw(args) -> int:
    from .catalog import parse_spec, render, run, surgery_plan

    spec = parse_spec(args.spec)
    plan = surgery_plan(spec)
    m, chains = run(plan, "sw")  # a plan's sw_gap raises before any work
    _print_drops(chains)
    k = plan.blowups

    def obj():
        from .serialize import swmap_to_obj

        return {"spec": render(spec), **swmap_to_obj(m, k)}

    def text():
        yield f"spec: {render(spec)}"
        title = f"classes ({len(m.values) << k}):"
        yield from _blown_up_lines(m, k, title, m.values, lambda key: ("  ", f": {m.values[key]}"))

    emit(args, obj, text)
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

    emit(args, obj, text)
    return 0 if ok else 1

