"""The verification suites behind `blowdown verify`: lattice (the continuant
plumbing against its closed-form inverse, relative pairing, boundary values,
corr against its closed form), lemmas (the exhaustive boundary-value lemmas),
identities (nodal and log-ladder identities) and witten (the two-calculi
comparison on the 47 catalog specs, the closed and pipeline series each
against the basic-class map).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .lattice import RelClass, boundary, chain_plumbing, rel_pairing, scaled_plumbing_inverse
from .moduli import canonical_tb, corr, rho_half_closed_form, verify_boundary_value_lemmas
from .reporting import CheckReport


def suite_lattice(p_max: int) -> list[CheckReport]:
    from .linalg import mat_vec  # only this suite multiplies matrices

    out = []
    for p in range(2, p_max + 1):
        # det = p^2, P S = p^2 I and solve(e_j) = -S e_j, S = p^2 P^-1 in closed form
        plumbing, p2 = chain_plumbing(p), p * p
        pm = plumbing.matrix()
        units = [tuple(int(k == i) for k in range(p - 1)) for i in range(p - 1)]
        ok = plumbing.det == p2 and all(
            mat_vec(pm, col) == [p2 if i == j else 0 for i in range(p - 1)]
            and plumbing.solve(units[j]) == [-x for x in col]
            for j, col in enumerate(zip(*scaled_plumbing_inverse(p)))
        )
        out.append(CheckReport("plumbing-inverse", ok, p=p))
        diag = Fraction(-(p * p - p - 1), p * p)
        off = Fraction(p + 1, p * p)
        bad = []
        rel_units = [RelClass(p, u) for u in units]
        for i in range(p - 1):
            for j in range(p - 1):
                want = diag if i == j else off
                if rel_pairing(rel_units[i], rel_units[j]) != want:
                    bad.append([i + 1, j + 1])
        out.append(CheckReport("relative-pairing", not bad, p=p, counterexamples=bad))
        # gamma_j, dual to u_j, is delta_1 + ... + delta_j; both map to j
        gok = all(
            plumbing.boundary(units[j - 1]).value == j
            and boundary(RelClass(p, (1,) * j + (0,) * (p - 1 - j))).value == j
            for j in range(1, p)
        )
        out.append(CheckReport("boundary-gamma", gok, p=p))
        off_form = [
            m
            for m in range(1, p * p)
            if corr(p, m) != -rho_half_closed_form(p, *canonical_tb(p, m))
        ]
        out.append(CheckReport("corr-closed-form", not off_form, p=p, counterexamples=off_form))
    return out


def suite_lemmas(p_max: int, t_max: int, box: int) -> list[CheckReport]:
    out = []
    for p in range(2, p_max + 1):
        out.extend(verify_boundary_value_lemmas(p, t_max=t_max, box=box))
    return out


def suite_identities(p_max: int) -> list[CheckReport]:
    # imported here so that verify lattice and lemmas never load the calculus
    from .catalog import EllipticSpec, donaldson_closed_form
    from .chain_surgery import formal_log_coefficients, nodal_log_pipeline
    from .chain_surgery import verify_nodal_matrix_identity
    from .exppoly import exact_div, sinh_c
    from .transform import log_transform

    out = []
    for p in range(2, p_max + 1):
        out.append(CheckReport("nodal-matrix", verify_nodal_matrix_identity(p), p=p))
        ladder = formal_log_coefficients(p)
        ok = (
            [e for e, _ in ladder] == list(range(p - 1, -p, -2))
            and all(c == 1 for _, c in ladder)
            and sum(c for _, c in ladder) == p
        )
        out.append(CheckReport("ladder-coefficients", ok, p=p))
    e2 = donaldson_closed_form("E(2)")
    f = e2.lattice.basis_class("f")
    for p in range(2, p_max + 1):
        try:
            same, why = nodal_log_pipeline(e2, f, p).kernel == log_transform(e2, f, p).kernel, []
        except (ValueError, RuntimeError) as err:  # a wrong exceptional chain or push-off
            same, why = False, [str(err)]
        out.append(CheckReport("log-pipeline-match", same, p=p, counterexamples=why))
    for p in range(2, min(p_max, 7) + 1):
        for q in range(p + 1, min(p_max, 7) + 1):
            if gcd(p, q) != 1:
                continue
            closed = donaldson_closed_form(EllipticSpec(2, ((p, q),)))
            u = closed.lattice.basis_class(closed.lattice.basis_names[0])
            lp = exact_div(sinh_c(u * (p * q)), sinh_c(u * q))
            lq = exact_div(sinh_c(u * (p * q)), sinh_c(u * p))
            out.append(
                CheckReport(
                    "ponq-multiplicativity",
                    closed.kernel == lp * lq,
                    p=p,
                    parameters={"q": q},
                )
            )
    for p in (3, 5, 7):
        two_first = log_transform(e2, f, 2)
        route_a = log_transform(two_first, two_first.lattice.basis_class("f_2"), p)
        p_first = log_transform(e2, f, p)
        route_b = log_transform(p_first, p_first.lattice.basis_class(f"f_{p}"), 2)
        closed = donaldson_closed_form(EllipticSpec(2, ((2 * p, 1),)))
        odd_ladder = {(j,): 1 for j in range(-(2 * p - 1), 2 * p, 2)}
        ok = (
            route_a == route_b
            and route_a.kernel == closed.kernel
            and route_a.kernel.den == 1
            and route_a.kernel.num == odd_ladder
        )
        out.append(CheckReport("double-expansion", ok, p=p))
    return out


def witten_specs() -> list[str]:
    specs = [f"E({n})" for n in range(2, 7)]
    for n in range(2, 6):
        specs += [f"E({n};{pq})" for pq in ("2", "3", "2,3", "2,5", "3,4", "3,5")]
    specs += [f"W({n})" for n in range(1, 9)]
    specs += [f"Y({n})" for n in range(4, 9)]
    specs += [f"H({n})" for n in range(4, 9)]
    return specs


def suite_witten() -> list[CheckReport]:
    from .catalog import donaldson_closed_form, donaldson_pipeline, sw_closed_form
    from .swinv import witten_diff

    out = []
    for s in witten_specs():
        swmap, why = sw_closed_form(s), []
        diff = witten_diff(donaldson_closed_form(s), swmap)  # the closed route is named first
        diff = diff or witten_diff(donaldson_pipeline(s), swmap)
        if diff:  # the first class where the calculi differ, with both coefficients
            key, a, b = diff
            why = [{"class": list(key), "series": str(a), "predicted": str(b)}]
        out.append(CheckReport("witten", not diff, parameters={"spec": s}, counterexamples=why))
    return out
