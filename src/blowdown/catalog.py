"""Named-family catalog with dual construction routes.

Each catalog entry is a symbolic spec (elliptic surfaces with multiple fibers,
the octic-double-plane family H, its bisecting cousins Y, the section-blowdown
family W, plus blowup / log-transform / homology-ball-sum combinators).  For
every spec the series kernel is available two independent ways: a closed form
assembled by exact division of hyperbolic-sine ladders, and a pipeline that
replays the surgeries through the transform module.  Their exact agreement is
the main cross-check this package exists to run.  Basic-class maps follow the
same split where the transfer theorems cover the family.

A spec is walked once, into a surgery plan: an ambient model with a seed
fiber power and an ordered list of surgery steps.  The pipeline, the
basic-class map and the CLI's blowdown walkthrough all `replay` that plan
with their calculus's rule table; the closed route keeps its own closed forms
for the family leaf.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

from .exppoly import ExpKernel, cosh_c, exact_div, one, sinh_c
from .lattice import ChainConfig, HClass, IntersectionLattice, pairing, plumbing_matrix
from .reporting import CheckReport, Frozen, SpecParseError, set_field
from .swinv import SWMap, sw_blowup, sw_en, sw_log_transform, sw_taut_blowdown
from .transform import (
    ManifoldSeries,
    blowup,
    connected_sum_hp,
    log_transform,
    taut_blowdown,
)


# ---------------------------------------------------------------------------
# Spec expression tree


class EllipticSpec(Frozen):
    """E(n) with zero, one, or three (p, q) pairs of fiber multiplicities."""

    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs: tuple[tuple[int, int], ...] = ()):
        if n < 2:
            raise ValueError("n >= 2 required (b+ >= 3)")
        if len(pairs) not in (0, 1, 3):
            raise ValueError("elliptic spec takes zero, one, or three multiplicity pairs")
        for p, q in pairs:
            if p < 1 or q < 1:
                raise ValueError("fiber multiplicities must be >= 1")
            if gcd(p, q) != 1:
                raise ValueError(f"fiber multiplicities {p} and {q} must be coprime")
        set_field(self, "n", n)
        set_field(self, "pairs", pairs)


class WSpec(Frozen):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("W(n) needs n >= 1")
        if n > 8:
            raise ValueError(f"W({n}) rejected: simple connectivity is only guaranteed for n <= 8")
        set_field(self, "n", n)


class YSpec(Frozen):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 4:
            raise ValueError("Y(n) needs n >= 4 (chain order n-2 >= 2)")
        set_field(self, "n", n)


class HSpec(Frozen):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 4:
            raise ValueError("H(n) needs n >= 4 (chain order n-2 >= 2)")
        set_field(self, "n", n)


class BlowupSpec(Frozen):
    __slots__ = ("base", "k")

    def __init__(self, base: "ManifoldSpec", k: int):
        if k < 1:
            raise ValueError("blowup count must be >= 1")
        set_field(self, "base", base)
        set_field(self, "k", k)


class LogSpec(Frozen):
    __slots__ = ("base", "p")

    def __init__(self, base: "ManifoldSpec", p: int):
        if p < 1:
            raise ValueError("log transform order must be >= 1")
        set_field(self, "base", base)
        set_field(self, "p", p)


class HpSumSpec(Frozen):
    __slots__ = ("base", "p")

    def __init__(self, base: "ManifoldSpec", p: int):
        if p < 1:
            raise ValueError("homology-ball sum order must be >= 1")
        set_field(self, "base", base)
        set_field(self, "p", p)


ManifoldSpec = Union[EllipticSpec, WSpec, YSpec, HSpec, BlowupSpec, LogSpec, HpSumSpec]


def render(spec: ManifoldSpec) -> str:
    """Canonical source form of a spec tree (parse(render(s)) == s)."""
    if isinstance(spec, EllipticSpec):
        bits = []
        for p, q in spec.pairs:
            bits.append(f";{p}" if q == 1 and len(spec.pairs) == 1 else f";{p},{q}")
        return f"E({spec.n}{''.join(bits)})"
    if isinstance(spec, WSpec):
        return f"W({spec.n})"
    if isinstance(spec, YSpec):
        return f"Y({spec.n})"
    if isinstance(spec, HSpec):
        return f"H({spec.n})"
    if isinstance(spec, BlowupSpec):
        return f"blowup({render(spec.base)},{spec.k})"
    if isinstance(spec, LogSpec):
        return f"logt({render(spec.base)},{spec.p})"
    if isinstance(spec, HpSumSpec):
        return f"hpsum({render(spec.base)},{spec.p})"
    raise TypeError(f"not a manifold spec: {spec!r}")


# ---------------------------------------------------------------------------
# Parsing


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|[();,])")


def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            if not text[i:].strip():
                break
            bad = text[i:].lstrip()
            raise SpecParseError(f"unexpected character {bad[0]!r}", len(text) - len(bad))
        out.append((m.group(1), m.start(1)))
        i = m.end()
    return out


# Deepest combinator nesting parse_spec accepts, far below the recursion limit.
MAX_SPEC_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def _pos(self) -> int:
        return self.toks[self.i][1] if self.i < len(self.toks) else len(self.text)

    def peek(self) -> Optional[str]:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def take(self, expected: Optional[str] = None) -> str:
        if self.i >= len(self.toks):
            want = f", expected {expected!r}" if expected else ""
            raise SpecParseError(f"unexpected end of spec{want}", len(self.text))
        tok, pos = self.toks[self.i]
        if expected is not None and tok != expected:
            raise SpecParseError(f"expected {expected!r}, found {tok!r}", pos)
        self.i += 1
        return tok

    def integer(self) -> int:
        pos = self._pos()
        tok = self.take()
        if not tok.isdigit():
            raise SpecParseError(f"expected an integer, found {tok!r}", pos)
        return int(tok)

    def spec(self, depth: int = 0) -> ManifoldSpec:
        pos = self._pos()
        head = self.take()
        if head == "E":
            self.take("(")
            n = self.integer()
            groups: list[list[int]] = []
            while self.peek() == ";":
                self.take(";")
                group = [self.integer()]
                if self.peek() == ",":
                    self.take(",")
                    group.append(self.integer())
                groups.append(group)
            self.take(")")
            if not groups:
                return EllipticSpec(n)
            if len(groups) == 1:
                p = groups[0][0]
                q = groups[0][1] if len(groups[0]) == 2 else 1
                return EllipticSpec(n, ((p, q),))
            if len(groups) == 3 and all(len(g) == 2 for g in groups):
                return EllipticSpec(n, tuple((g[0], g[1]) for g in groups))
            raise SpecParseError(
                "elliptic spec takes E(n), E(n;p), E(n;p,q), or E(n;p1,q1;p2,q2;p3,q3)", pos
            )
        if head in ("W", "Y", "H"):
            self.take("(")
            n = self.integer()
            self.take(")")
            return {"W": WSpec, "Y": YSpec, "H": HSpec}[head](n)
        if head in ("blowup", "logt", "hpsum"):
            if depth == MAX_SPEC_DEPTH:
                raise SpecParseError(f"spec nested deeper than {MAX_SPEC_DEPTH} combinators", pos)
            self.take("(")
            base = self.spec(depth + 1)
            self.take(",")
            arg = self.integer()
            self.take(")")
            node = {"blowup": BlowupSpec, "logt": LogSpec, "hpsum": HpSumSpec}[head]
            return node(base, arg)
        raise SpecParseError(f"unknown spec name {head!r}", pos)


def parse_spec(text: str) -> ManifoldSpec:
    parser = _Parser(text)
    if parser.peek() is None:
        raise SpecParseError("empty spec", 0)
    spec = parser.spec()
    if parser.peek() is not None:
        raise SpecParseError(f"trailing input {parser.peek()!r}", parser._pos())
    return spec


def _as_spec(spec: Union[str, ManifoldSpec]) -> ManifoldSpec:
    return parse_spec(spec) if isinstance(spec, str) else spec


# ---------------------------------------------------------------------------
# Surgery plans


def _kernel_pow(k: ExpKernel, n: int) -> ExpKernel:
    out = one(k.lattice)
    for _ in range(n):
        out = out * k
    return out


class SurgeryStep(Frozen):
    """One surgery of a plan.

    op is "chain" (blow down the order-n chain of the named spheres, naming
    the new direction image), "logt" (order-n log transform along the fiber
    class fiber = (index, multiple), i.e. multiple * basis[index]), "blowup"
    (n blowups) or "hpsum" (sum with the order-n homology ball).
    """

    __slots__ = ("op", "n", "fiber", "spheres", "image")

    def __init__(
        self,
        op: str,
        n: int,
        fiber: Optional[tuple[int, int]] = None,
        spheres: tuple[str, ...] = (),
        image: Optional[str] = None,
    ):
        set_field(self, "op", op)
        set_field(self, "n", n)
        set_field(self, "fiber", fiber)
        set_field(self, "spheres", spheres)
        set_field(self, "image", image)

    def config(self, lattice: IntersectionLattice) -> ChainConfig:
        return ChainConfig(self.n, lattice, [lattice.basis_class(nm) for nm in self.spheres])

    def fiber_class(self, lattice: IntersectionLattice) -> HClass:
        idx, mult = self.fiber
        return HClass(lattice, tuple(mult if i == idx else 0 for i in range(lattice.rank)))


class SurgeryPlan(Frozen):
    """A spec as an ordered list of surgeries on a seed.

    The seed is the elliptic surface E(seed) placed on the ambient lattice,
    whose first basis direction is the fiber.  The first family_steps steps
    build the family leaf `family` (E, W, Y or H); the closed route replaces
    them by that leaf's closed form.  sw_gap says why the basic-class
    calculus cannot follow the plan, or is None when it can.
    """

    __slots__ = ("family", "ambient", "seed", "steps", "family_steps", "sw_gap")

    def __init__(
        self,
        family: ManifoldSpec,
        ambient: IntersectionLattice,
        seed: int,
        steps: tuple[SurgeryStep, ...],
        family_steps: int,
        sw_gap: Optional[str],
    ):
        set_field(self, "family", family)
        set_field(self, "ambient", ambient)
        set_field(self, "seed", seed)
        set_field(self, "steps", steps)
        set_field(self, "family_steps", family_steps)
        set_field(self, "sw_gap", sw_gap)

    def seed_series(self) -> ManifoldSeries:
        """The fiber power sinh^(seed-2)(f)."""
        f = self.ambient.basis_class(self.ambient.basis_names[0])
        return ManifoldSeries(_kernel_pow(sinh_c(f), self.seed - 2), 12 * self.seed, -8 * self.seed)

    def seed_swmap(self) -> SWMap:
        """The elliptic map of E(seed), padded with zeros off the fiber."""
        pad = (0,) * (self.ambient.rank - 1)
        values = {(c,) + pad: v for (c,), v in sw_en(self.seed).values.items()}
        return SWMap(self.ambient, values, 12 * self.seed, -8 * self.seed)


def _chains_ambient(chains: list[SurgeryStep]) -> IntersectionLattice:
    """Fiber direction f plus the disjoint plumbing chains of the given chain
    steps, each meeting the fiber once in its end sphere."""
    names = ["f"] + [nm for step in chains for nm in step.spheres]
    gram = [[0] * len(names) for _ in names]
    at = 1
    for step in chains:
        for i, row in enumerate(plumbing_matrix(step.n)):
            gram[at + i][at : at + step.n - 1] = row
        end = at + step.n - 2
        gram[0][end] = gram[end][0] = 1
        at += step.n - 1
    return IntersectionLattice(names, gram)


def _outside(node: ManifoldSpec, why: str) -> str:
    return f"{render(node)} is outside the basic-class covered family ({why})"


def surgery_plan(spec: Union[str, ManifoldSpec]) -> SurgeryPlan:
    """Walk a spec into its surgery plan.

    The fiber is tracked through the steps: it starts as f, a log transform
    of order p turns fiber multiple M into lcm(M, p), and a chain blowdown
    leaves no fiber, so a later log transform raises.  The basic-class gaps
    are the homology-ball sum, the three-pair elliptic family, and a log
    transform whose order shares a factor with the fiber multiple (its fans
    collide); the innermost gap is reported.
    """
    outer = []
    node = _as_spec(spec)
    while isinstance(node, (BlowupSpec, LogSpec, HpSumSpec)):
        outer.append(node)
        node = node.base
    steps: list[SurgeryStep] = []
    fiber: Optional[tuple[int, int]] = None
    gap: Optional[str] = None

    def logt(where: ManifoldSpec, p: int) -> None:
        nonlocal fiber, gap
        if fiber is None:
            raise ValueError("spec has no fiber class to log-transform along")
        idx, mult = fiber
        if gcd(mult, p) > 1 and gap is None:
            gap = _outside(where, f"order-{p} fans collide on a fiber of multiple {mult}")
        steps.append(SurgeryStep("logt", p, fiber=fiber))
        fiber = (idx, mult * (p // gcd(mult, p)))

    if isinstance(node, EllipticSpec):
        ambient, seed, fiber = IntersectionLattice(["f"], [[0]]), node.n, (0, 1)
        if len(node.pairs) == 3:
            gap = _outside(node, "three-pair transforms collide")
        for pair in node.pairs:
            for o in pair:
                logt(node, o)
    elif isinstance(node, WSpec):
        # n disjoint square -4 sections on E(4), each an order-2 chain
        steps += [SurgeryStep("chain", 2, spheres=(f"s{i}",), image="k") for i in range(1, node.n + 1)]
        ambient, seed = _chains_ambient(steps), 4
    elif isinstance(node, (YSpec, HSpec)):
        # two disjoint order n-2 chains on E(n), each ending on a section of
        # square -n; Y blows down the first, H both
        p = node.n - 2
        chains = [
            SurgeryStep(
                "chain", p, spheres=tuple(f"{x}{i}" for i in range(1, p - 1)) + (end,), image=image
            )
            for x, end, image in (("a", "s", "lam"), ("b", "t", "k"))
        ]
        ambient, seed = _chains_ambient(chains), node.n
        steps += chains if isinstance(node, HSpec) else chains[:1]
    else:
        raise TypeError(f"not a manifold spec: {node!r}")
    family_steps = len(steps)
    for node_out in reversed(outer):
        if isinstance(node_out, BlowupSpec):
            steps.append(SurgeryStep("blowup", node_out.k))
        elif isinstance(node_out, LogSpec):
            logt(node_out, node_out.p)
        else:
            if gap is None:
                gap = _outside(node_out, "no value-transfer rule for homology-ball sums")
            steps.append(SurgeryStep("hpsum", node_out.p))
    return SurgeryPlan(node, ambient, seed, tuple(steps), family_steps, gap)


# One rule per step op, called as rule(m, step); a chain rule returns a
# BlowdownResult.  The lambdas look the transforms up when called, so a
# wrapper later installed on a module attribute still sees every call.
SERIES_RULES = {
    "chain": lambda m, step: taut_blowdown(m, step.config(m.lattice), [step.image]),
    "logt": lambda m, step: log_transform(m, step.fiber_class(m.lattice), step.n),
    "blowup": lambda m, step: blowup(m, step.n),
    "hpsum": lambda m, step: connected_sum_hp(m, step.n),
}
# no "hpsum": a plan with an hpsum step has an sw_gap
SW_RULES = {
    "chain": lambda m, step: sw_taut_blowdown(m, step.config(m.lattice), [step.image]),
    "logt": lambda m, step: sw_log_transform(m, step.fiber_class(m.lattice), step.n),
    "blowup": lambda m, step: sw_blowup(m, count=step.n),
}


def replay(m, steps: tuple[SurgeryStep, ...], rules: dict) -> tuple[object, list[tuple]]:
    """Apply the steps to m (a ManifoldSeries or SWMap) by one calculus's
    rules.  Returns the final object and, per chain step, (step, lattice
    before, BlowdownResult), whose class map says what dropped and why."""
    chains = []
    for step in steps:
        pre, m = m, rules[step.op](m, step)
        if step.op == "chain":
            chains.append((step, pre.lattice, m))
            m = m.result
    return m, chains


# ---------------------------------------------------------------------------
# Donaldson series, closed form and pipeline


def _y_lattice(n: int) -> IntersectionLattice:
    """Carrier after blowing down one of the two chains: the image class lam
    of square n-3 meeting the remaining section t in n-2, next to the intact
    second chain (the order n-2 plumbing on b1, ..., t)."""
    p = n - 2
    names = ["lam"] + [f"b{i}" for i in range(1, p - 1)] + ["t"]
    gram = [[0] * p for _ in range(p)]
    gram[0][0] = n - 3
    gram[0][p - 1] = gram[p - 1][0] = n - 2
    for i, row in enumerate(plumbing_matrix(p), start=1):
        gram[i][1:] = row
    return IntersectionLattice(names, gram)


def _closed_family(spec: ManifoldSpec) -> ManifoldSeries:
    """The printed closed form of a family leaf (E, W, Y or H)."""
    if isinstance(spec, EllipticSpec):
        orders = [o for pair in spec.pairs for o in pair]
        n_total = lcm(*orders) if orders else 1
        name = "f" if n_total == 1 else f"f_{n_total}"
        lat = IntersectionLattice([name], [[0]])
        u = lat.basis_class(name)
        num = _kernel_pow(sinh_c(u * n_total), spec.n - 2 + len(orders))
        den = one(lat)
        for o in orders:
            den = den * sinh_c(u * (n_total // o))
        kernel = exact_div(num, den)
        return ManifoldSeries(kernel, 12 * spec.n, -8 * spec.n)
    n = spec.n
    if isinstance(spec, WSpec):
        lat = IntersectionLattice(["k"], [[n]])
        kernel = cosh_c(lat.basis_class("k")).scale(Fraction(2) ** (n - 1))
        return ManifoldSeries(kernel, 48 - n, -32 + n)
    wave = cosh_c if n % 2 == 0 else sinh_c
    if isinstance(spec, YSpec):
        lat = _y_lattice(n)
        kernel = wave(lat.basis_class("lam"))
        return ManifoldSeries(kernel, 11 * n + 3, -7 * n - 3)
    lat = IntersectionLattice(["k"], [[2 * n - 6]])
    kernel = wave(lat.basis_class("k")).scale(Fraction(2) ** (n - 3))
    return ManifoldSeries(kernel, 10 * n + 6, -6 * n - 6)


def donaldson_closed_form(spec: Union[str, ManifoldSpec]) -> ManifoldSeries:
    """Series from the printed closed forms: exact division of sinh ladders
    for the elliptic family, explicit sinh/cosh forms for W, Y, and H, then
    the plan's steps after the family leaf."""
    plan = surgery_plan(spec)
    return replay(_closed_family(plan.family), plan.steps[plan.family_steps :], SERIES_RULES)[0]


def donaldson_pipeline(spec: Union[str, ManifoldSpec]) -> ManifoldSeries:
    """Series rebuilt through the surgery pipeline: fiber powers seeded on the
    ambient model, then log transforms and chain blowdowns step by step."""
    plan = surgery_plan(spec)
    return replay(plan.seed_series(), plan.steps, SERIES_RULES)[0]


# ---------------------------------------------------------------------------
# Basic-class maps


def sw_replay(spec: Union[str, ManifoldSpec]) -> tuple[SWMap, list[tuple]]:
    """Basic-class map for specs inside the covered family: the elliptic map
    transported through blowups, log transforms, and chain blowdowns, with
    the chain records of replay."""
    plan = surgery_plan(spec)
    if plan.sw_gap is not None:
        raise ValueError(plan.sw_gap)
    return replay(plan.seed_swmap(), plan.steps, SW_RULES)


def sw_closed_form(spec: Union[str, ManifoldSpec]) -> SWMap:
    """The basic-class map of sw_replay."""
    return sw_replay(spec)[0]


def sw_covered(spec: Union[str, ManifoldSpec]) -> bool:
    """True exactly when sw_closed_form is defined for the spec."""
    node = _as_spec(spec)
    try:
        return surgery_plan(node).sw_gap is None
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Audit


def adjunction_audit(spec: Union[str, ManifoldSpec]) -> list[CheckReport]:
    """Characteristic-number consistency for a spec: every basic class must
    have square 3*signature + 2*euler (zero-dimensional moduli), the elliptic
    family must sit at canonical square zero, and the H and Y families must
    land on their Noether / bisecting lines."""
    node = _as_spec(spec)
    series = donaldson_closed_form(node)
    target = 3 * series.signature + 2 * series.euler
    bad = [list(k.coeffs) for k in series.basic_classes() if pairing(k, k) != target]
    params = {"spec": render(node), "expected_square": target}
    reports = [
        CheckReport("basic-class-square", not bad, parameters=params, counterexamples=bad)
    ]
    c2 = series.euler
    if isinstance(node, EllipticSpec):
        reports.append(
            CheckReport(
                "elliptic-canonical-square-zero",
                target == 0,
                parameters={"spec": render(node), "c1_sq": target},
            )
        )
    if isinstance(node, HSpec):
        reports.append(
            CheckReport(
                "noether-line",
                5 * target - c2 + 36 == 0,
                parameters={"spec": render(node), "c1_sq": target, "c2": c2},
            )
        )
    if isinstance(node, YSpec):
        reports.append(
            CheckReport(
                "bisecting-line",
                11 * target - c2 + 36 == 0,
                parameters={"spec": render(node), "c1_sq": target, "c2": c2},
            )
        )
    return reports
