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
fiber power, an ordered list of surgery steps and a blowup count.  Each
route (closed, pipeline, sw) is a row of ROUTES: its seed, its calculus's
rule table and its blowup rule.  `run`, the one driver, seeds a plan and
`walk`s its steps; the closed route seeds the family leaf's closed form
(.closed).  The audit of a spec's characteristic numbers lives in .audit.
"""

from __future__ import annotations

import re
from math import gcd
from typing import TYPE_CHECKING, Optional, Union

from . import transform
from .exppoly import ExpKernel, power, sinh_c
from .lattice import HClass, IntersectionLattice
from .reporting import Frozen, SpecParseError
from .transform import ManifoldSeries

if TYPE_CHECKING:  # the chain surgery and the basic-class calculus load only when they run
    from .chain_surgery import ChainConfig
    from .swinv import SWMap


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
        super().__init__(n, pairs)


class WSpec(Frozen):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("W(n) needs n >= 1")
        if n > 8:
            raise ValueError(f"W({n}) rejected: simple connectivity is only guaranteed for n <= 8")
        super().__init__(n)


class YSpec(Frozen):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 4:
            raise ValueError("Y(n) needs n >= 4 (chain order n-2 >= 2)")
        super().__init__(n)


class HSpec(Frozen):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 4:
            raise ValueError("H(n) needs n >= 4 (chain order n-2 >= 2)")
        super().__init__(n)


class BlowupSpec(Frozen):
    __slots__ = ("base", "k")

    def __init__(self, base: "ManifoldSpec", k: int):
        if k < 1:
            raise ValueError("blowup count must be >= 1")
        super().__init__(base, k)


class LogSpec(Frozen):
    __slots__ = ("base", "p")

    def __init__(self, base: "ManifoldSpec", p: int):
        if p < 1:
            raise ValueError("log transform order must be >= 1")
        super().__init__(base, p)


class HpSumSpec(Frozen):
    __slots__ = ("base", "p")

    def __init__(self, base: "ManifoldSpec", p: int):
        if p < 1:
            raise ValueError("homology-ball sum order must be >= 1")
        super().__init__(base, p)


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


class SurgeryStep(Frozen):
    """One surgery of a plan.

    op is "chain" (blow down the order-n chain of the named spheres, naming
    the new direction image), "logt" (order-n log transform along the fiber
    class fiber = (index, multiple), i.e. multiple * basis[index]) or "hpsum"
    (sum with the order-n homology ball); a plan counts its blowups apart.
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
        super().__init__(op, n, fiber, spheres, image)

    def config(self, lattice: IntersectionLattice) -> ChainConfig:
        from .chain_surgery import ChainConfig

        at = {nm: i for i, nm in enumerate(lattice.basis_names)}
        return ChainConfig(self.n, lattice, [((at[nm], 1),) for nm in self.spheres])

    def fiber_class(self, lattice: IntersectionLattice) -> HClass:
        idx, mult = self.fiber
        return HClass(lattice, tuple(mult if i == idx else 0 for i in range(lattice.rank)))


class SurgeryPlan(Frozen):
    """A spec as an ordered list of surgeries on a seed.

    The seed is E(seed) on the ambient lattice of the fiber f and the chain
    steps `chains` (both chains for Y, which blows down one).  The first
    family_steps steps build the family leaf `family` (E, W, Y or H); the
    closed route replaces them by that leaf's closed form.  blowups sums the
    spec's blowup counts, which commute with every step and come after them.
    sw_gap says why the basic-class calculus cannot follow the plan, or is
    None when it can.
    """

    __slots__ = ("family", "chains", "seed", "steps", "family_steps", "blowups", "sw_gap")

    def ambient(self) -> IntersectionLattice:
        """A new lattice of f and the chains, each meeting f once in its end sphere."""
        names = ["f"] + [nm for step in self.chains for nm in step.spheres]
        gram, at = {}, 1
        for step in self.chains:
            from .plumbing import chain_plumbing  # a plan with no chain loads none
            gram |= chain_plumbing(step.n).entries(at)
            at += step.n - 1
            gram[0, at - 1] = gram[at - 1, 0] = 1
        return IntersectionLattice(names, gram)

    def seed_series(self) -> ManifoldSeries:
        """The fiber power sinh^(seed-2)(f)."""
        f = self.ambient().basis_class("f")
        return ManifoldSeries(power(sinh_c(f), self.seed - 2), 12 * self.seed, -8 * self.seed)

    def seed_swmap(self) -> SWMap:
        """The elliptic map of E(seed), padded with zeros off the fiber; the
        plan's sw_gap, named as typed, raises here before any work."""
        if self.sw_gap is not None:
            raise ValueError(self.sw_gap)
        from .swinv import SWMap, sw_en

        ambient = self.ambient()
        pad = (0,) * (ambient.rank - 1)
        values = {(c,) + pad: v for (c,), v in sw_en(self.seed).values.items()}
        return SWMap(ExpKernel._from_ints(ambient, values, 1), 12 * self.seed, -8 * self.seed)


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
        chains, seed, fiber = (), node.n, (0, 1)
        if len(node.pairs) == 3:
            gap = _outside(node, "three-pair transforms collide")
        for pair in node.pairs:
            for o in pair:
                logt(node, o)
    elif isinstance(node, WSpec):
        # n disjoint square -4 sections on E(4), each an order-2 chain
        steps += [SurgeryStep("chain", 2, spheres=(f"s{i}",), image="k") for i in range(1, node.n + 1)]
        chains, seed = tuple(steps), 4
    elif isinstance(node, (YSpec, HSpec)):
        # two disjoint order n-2 chains on E(n), each ending on a section of
        # square -n; Y blows down the first, H both
        p = node.n - 2
        chains = tuple(
            SurgeryStep(
                "chain", p, spheres=tuple(f"{x}{i}" for i in range(1, p - 1)) + (end,), image=image
            )
            for x, end, image in (("a", "s", "lam"), ("b", "t", "k"))
        )
        seed = node.n
        steps += chains if isinstance(node, HSpec) else chains[:1]
    else:
        raise TypeError(f"not a manifold spec: {node!r}")
    family_steps, blowups = len(steps), 0
    for node_out in reversed(outer):
        if isinstance(node_out, BlowupSpec):
            blowups += node_out.k
            continue
        if isinstance(node_out, LogSpec):
            logt(node_out, node_out.p)
        else:
            if gap is None:
                gap = _outside(node_out, "no value-transfer rule for homology-ball sums")
            steps.append(SurgeryStep("hpsum", node_out.p))
    return SurgeryPlan(node, chains, seed, tuple(steps), family_steps, blowups, gap)


# One rule per step op, called as rule(m, step); a chain rule returns a
# BlowdownResult.  The rules look each transform up on its home module
# (transform, chain_surgery, nodal or swinv) when called, so a wrapper later
# installed there still sees every call, and import .chain_surgery, .nodal
# and .swinv then, so a plan loads only what it runs.
def _chain(m, step):
    from .chain_surgery import taut_blowdown

    return taut_blowdown(m, step.config(m.lattice), [step.image])


def _hpsum(m, step):
    from .nodal import connected_sum_hp

    return connected_sum_hp(m, step.n)


def _sw_chain(m, step):
    from .swinv import sw_taut_blowdown

    return sw_taut_blowdown(m, step.config(m.lattice), [step.image])


def _sw_logt(m, step):
    from .swinv import sw_log_transform

    return sw_log_transform(m, step.fiber_class(m.lattice), step.n)


SERIES_RULES = {
    "chain": _chain,
    "logt": lambda m, step: transform.log_transform(m, step.fiber_class(m.lattice), step.n),
    "hpsum": _hpsum,
}
# no "hpsum": a plan with an hpsum step has an sw_gap
SW_RULES = {"chain": _sw_chain, "logt": _sw_logt}


def walk(m, steps: tuple[SurgeryStep, ...], rules: dict):
    """Apply the steps to m (a ManifoldSeries or SWMap) by one calculus's
    rules, yielding (step, value, chain record or None) for m itself (step
    None) and after each step.  A chain step's record is (step, lattice
    before, BlowdownResult), whose class map says what dropped and why; only
    the current value is kept from one step to the next."""
    yield None, m, None
    for step in steps:
        lattice, m, record = m.lattice, rules[step.op](m, step), None
        if step.op == "chain":
            record, m = (step, lattice, m), m.result
        yield step, m, record


def _blowup(m, k):
    return transform.blowup(m, k)


def _sw_blowup(m, k):
    from .swinv import sw_blowup

    return sw_blowup(m, k)


def _closed_seed(plan):
    from .closed import closed_family

    return closed_family(plan.family), plan.family_steps


# route -> (plan -> (seed, index of its first step), rule table, blowup
# rule); like the rules, the rows look their transforms up when called
ROUTES = {
    "closed": (_closed_seed, SERIES_RULES, _blowup),
    "pipeline": (lambda plan: (plan.seed_series(), 0), SERIES_RULES, _blowup),
    "sw": (lambda plan: (plan.seed_swmap(), 0), SW_RULES, _sw_blowup),
}


def run(plan: SurgeryPlan, route: str) -> tuple[object, list[tuple]]:
    """The route's value of the plan before its blowups, and the chain
    records of its walk.  The sw route raises the plan's sw_gap."""
    seed, rules, _ = ROUTES[route]
    m, first = seed(plan)
    chains = []
    for _, m, record in walk(m, plan.steps[first:], rules):
        if record is not None:
            chains.append(record)
    return m, chains


def _blown_up(spec: Union[str, ManifoldSpec], route: str):
    """The route's value of spec, blown up by the route's own rule."""
    plan = surgery_plan(spec)
    m = run(plan, route)[0]
    return ROUTES[route][2](m, plan.blowups) if plan.blowups else m


def donaldson_closed_form(spec: Union[str, ManifoldSpec]) -> ManifoldSeries:
    """Series from the family leaf's closed form, then the later steps and blowups."""
    return _blown_up(spec, "closed")


def donaldson_pipeline(spec: Union[str, ManifoldSpec]) -> ManifoldSeries:
    """Series from the fiber power on the ambient model, then every step and blowup."""
    return _blown_up(spec, "pipeline")


def sw_closed_form(spec: Union[str, ManifoldSpec]) -> SWMap:
    """Basic-class map of a covered spec: the elliptic map through every step and blowup."""
    return _blown_up(spec, "sw")

