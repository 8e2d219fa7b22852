"""The dim, verify and audit verbs and the verdict output they share."""

from __future__ import annotations

from itertools import chain

from .reporting import CheckReport, emit, fraction_str


def cmd_dim(args) -> int:
    from .moduli import CanonicalClass, dim_report
    from .plumbing import RelClass

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

    emit(args, obj, text)
    return 0


def verdict(args, head: dict, reports: list[CheckReport], *extra: str) -> int:
    """Write a line per report and then the extra lines, or under --format
    structured the head with the reports as "checks" and the verdict as
    "pass"; exit 1 unless every report passed."""
    passed = all(r.passed for r in reports)
    obj = lambda: {**head, "checks": [r.to_obj() for r in reports], "pass": passed}
    emit(args, obj, lambda: chain((r.line() for r in reports), extra))
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
    return verdict(args, {"suite": args.suite}, reports, tally)


def cmd_audit(args) -> int:
    from .audit import adjunction_audit
    from .catalog import parse_spec, render

    spec = parse_spec(args.spec)
    return verdict(args, {"spec": render(spec)}, adjunction_audit(spec))
