"""Dimension bookkeeping for reducible anti-self-dual moduli on the chain.

A relative class e with boundary m in Z_{p^2} determines a reducible moduli
space whose formal dimension has the shape

    dim(e) = -2 e^2 - 2 - corr(p, m)

where corr depends only on the boundary.  The correction is anchored so the
step classes <t, t+1; b> (coordinates t, ..., t, t+1, ..., t+1 with b trailing
t+1 entries) get dimension exactly 2t - 1 while their boundary value
(p-1) t + b stays below p^2, that is for t <= p; corr(p, 0) = 1, so classes
with trivial boundary get -2 e^2 - 3.  Past t = p the boundary value wraps mod
p^2 and the step class shares its boundary with the reduced step class
e0 = <t0, t0+1; b0> of canonical_tb, so the equal-boundary law
dim(e) = dim(e0) - 2 (e^2 - e0^2) fixes its dimension, which in general is not
2t - 1 (for p = 3, <4, 5; 2> has dimension 9); a wrapped step class with
trivial boundary gets -2 e^2 - 3.  A closed form for the boundary term is kept
in rho_half_closed_form, written independently of corr's e_square route: its
sign convention is globally flipped relative to corr (corr(p, m) ==
-rho_half_closed_form at the anchored (t, b)), and `verify lattice` checks
that relation for every nonzero boundary m < p^2.

The dimension only depends on the coordinate sum s and the sum of squares q:
e^2 = ((p+1) s^2 - p^2 q) / p^2.  verify_boundary_value_lemmas leans on that
symmetry: one dynamic-programming pass over the box values reaches every
(sum, square-sum, odd-count) state of a coordinate multiset and gives each state
one dimension, so the check stays exhaustive without listing multisets, and it
names a failing state by its least sorted multiset.  It runs in integers:
corr, e_square and rho_half_closed_form are Fraction views of numerators
over p^2 (_ncorr, _e_square_num).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from .plumbing import RelClass, Residue, boundary, rel_pairing
from .reporting import CheckReport, Frozen

if TYPE_CHECKING:  # corr and the closed forms are Fraction views of integer numerators
    from fractions import Fraction


def _e_square_num(p: int, t: int, b: int) -> int:
    """p^2 times the self-pairing of the step class <t, t+1; b>."""
    return b * b + b * b * p - b * p * p - 2 * b * t + t * t - p * t * t


def e_square(p: int, t: int, b: int) -> Fraction:
    """Self-pairing of the step class <t, t+1; b>:
    (b^2 + b^2 p - b p^2 - 2 b t + t^2 - p t^2) / p^2."""
    from fractions import Fraction

    return Fraction(_e_square_num(p, t, b), p * p)


class CanonicalClass(Frozen):
    """The step class <t, t+1; b>: p-1-b leading t's, then b entries t+1.

    Its moduli dimension is 2t - 1 only while boundary_value() < p^2 (t <= p);
    past that the equal-boundary law against the reduced step class, or
    -2 e^2 - 3 for trivial boundary, gives the dimension.
    """

    __slots__ = ("p", "t", "b")

    def __init__(self, p: int, t: int, b: int):
        if p < 2:
            raise ValueError("chain order p must be at least 2")
        if t < 0:
            raise ValueError("t must be nonnegative")
        if not 1 <= b <= p - 1:
            raise ValueError("b must satisfy 1 <= b <= p-1")
        super().__init__(p, t, b)

    def rel_class(self) -> RelClass:
        coords = (self.t,) * (self.p - 1 - self.b) + (self.t + 1,) * self.b
        return RelClass(self.p, coords)

    def boundary_value(self) -> int:
        return (self.p - 1) * self.t + self.b


def canonical_tb(p: int, m: int) -> Optional[tuple[int, int]]:
    """The unique (t, b) with (p-1) t + b equal to the least nonnegative
    representative of m mod p^2, t >= 0 and 1 <= b <= p-1; None for m = 0."""
    m0 = m % (p * p)
    if m0 == 0:
        return None
    b = ((m0 - 1) % (p - 1)) + 1
    t = (m0 - b) // (p - 1)
    return t, b


def corr(p: int, m: Union[int, Residue]) -> Fraction:
    """Boundary correction in dim(e) = -2 e^2 - 2 - corr(p, boundary): _ncorr / p^2."""
    from fractions import Fraction

    if isinstance(m, Residue):
        if m.modulus != p * p:
            raise ValueError(f"residue modulus {m.modulus} does not match p^2={p * p}")
        m = m.value
    return Fraction(_ncorr(p, m), p * p)


def _ncorr(p: int, m: int) -> int:
    """p^2 corr(p, m): p^2 for m = 0 mod p^2, else -2 p^2 e^2 - p^2 (2t + 1)
    at the step class <t, t+1; b> of m, so that its dimension is 2t - 1."""
    tb = canonical_tb(p, m)
    if tb is None:
        return p * p
    return -2 * _e_square_num(p, *tb) - p * p * (2 * tb[0] + 1)


def rho_half_closed_form(p: int, t: int, b: int) -> Fraction:
    """Closed form for the rho/2 boundary term at the step class <t, t+1; b>:
    -(1/p^2)(-2b^2 - 2b^2 p - p^2 + 2bp^2 + 4bt - 2p^2 t - 2t^2 + 2pt^2).

    Its global sign is opposite to the anchored correction: corr(p, m) equals
    minus this value at the (t, b) of m.  Using it with the printed sign in the
    dimension formula would give t^2 - 2 instead of 2t - 1 at p = 2.
    """
    from fractions import Fraction

    num = (
        -2 * b * b
        - 2 * b * b * p
        - p * p
        + 2 * b * p * p
        + 4 * b * t
        - 2 * p * p * t
        - 2 * t * t
        + 2 * p * t * t
    )
    return Fraction(-num, p * p)


def dim_moduli(e: RelClass) -> int:
    """Formal dimension -2 e^2 - 2 - corr(p, boundary(e)); always an integer."""
    d = -2 * rel_pairing(e, e) - 2 - corr(e.p, boundary(e))
    if d.denominator != 1:
        raise ValueError("non-integral dimension; inconsistent correction term")
    return int(d)


class DimReport(Frozen):
    __slots__ = ("e", "e_square", "boundary", "reduced_boundary", "dim")


def dim_report(e: RelClass) -> DimReport:
    bd = boundary(e)
    return DimReport(e, rel_pairing(e, e), bd, bd.reduced(), dim_moduli(e))


# ---------------------------------------------------------------------------
# Fast integer-only dimension used by the exhaustive searches


@lru_cache(maxsize=None)
def _ncorr_table(p: int) -> tuple[int, ...]:
    """p^2 * corr(p, m) for m = 0, ..., p^2 - 1."""
    return tuple(_ncorr(p, m) for m in range(p * p))


def _dim_from_sums(p: int, s: int, q: int, ncorr: Sequence[int]) -> int:
    """Dimension of any class with coordinate sum s and square-sum q."""
    num = 2 * p * p * q - 2 * (p + 1) * s * s - 2 * p * p - ncorr[s % (p * p)]
    d, r = divmod(num, p * p)
    if r:
        raise ValueError("non-integral dimension; inconsistent correction term")
    return d


def _box_layers(p: int, box: int) -> Iterator[list[dict[int, int]]]:
    """Reachable states of coordinate multisets, one layer per box value, for
    the values [v, box] as v runs from box + 1 (no value) down to -box.

    layer[c] maps a coordinate sum s to a bitset whose bit q p + odd is set
    when some multiset of c values from [v, box] has sum s, square-sum q and
    odd odd coordinates; odd <= c < p, so a slot never carries into the next.
    Each layer is a new object, so a caller may keep only the last.
    """
    layer = [{0: 1}] + [{} for _ in range(p - 1)]
    yield layer
    for v in range(box, -box - 1, -1):
        shift = v * v * p + (v & 1)
        layer = [dict(row) for row in layer]
        for c in range(1, p):  # ascending, so that v may repeat
            row = layer[c]
            for s, bits in layer[c - 1].items():
                row[s + v] = row.get(s + v, 0) | bits << shift
        yield layer


def _multisets(layers, p: int, box: int, i: int, c: int, s: int, idx: int):
    """The sorted multisets of c values from [i - box, box] in state (s, idx) of
    layers[i], in lexicographic order: more copies of the least value first;
    layers lists _box_layers in reverse, so that layers[i] covers [i - box, box]."""
    if c == 0:
        yield ()
        return
    v = i - box
    shift = v * v * p + (v & 1)
    for k in range(c, -1, -1):
        rest = idx - k * shift
        if rest >= 0 and layers[i + 1][c - k].get(s - k * v, 0) >> rest & 1:
            for tail in _multisets(layers, p, box, i + 1, c - k, s - k * v, rest):
                yield (v,) * k + tail


def verify_boundary_value_lemmas(p: int, t_max: int = 2, box: int = 4) -> list[CheckReport]:
    """Exhaustively check the four minimization laws for step classes.

    For every step class e = <t, t+1; b> with t <= t_max and boundary at most
    p^2/2, over classes e' in [-box, box]^(p-1):

    1. sum-shift: if the coordinate sums differ by r p^2 with r not in {0, -1},
       then dim(e') > dim(e);
    2. tie: if the sums are equal and dim(e') <= dim(e), then e' is a
       coordinate permutation of e;
    3. monotone: if e' = e (mod 2) componentwise and dim(e') <= dim(e), the
       folded boundary of e' is at most that of e;
    4. quantized gap: if e' = e (mod 2) and the folded boundaries agree, then
       dim(e') - dim(e) is a nonnegative multiple of 4.

    A multiset with as many odd coordinates as e permutes onto e's parity, so
    the laws read the states (s, q, odd) of _box_layers, one dimension per
    (s, q), through the least dimension of each sum and the least dimension and
    residues mod 4 of each (s, odd).  Law 2 reads the states of sum m0 other
    than e's own, which no other multiset reaches: at a fixed sum only the
    balanced multiset e has the least square-sum.  A failing state is named by
    the least sorted multiset that reaches it.

    Raises for p < 2, t_max < 0 or box < 0, where the scan would be empty.
    """
    if p < 2 or t_max < 0 or box < 0:
        raise ValueError(f"need p >= 2, t_max >= 0 and box >= 0, got {p}, {t_max}, {box}")
    ncorr = _ncorr_table(p)
    psq, smax, mask = p * p, (p - 1) * box, (1 << p) - 1
    for top in _box_layers(p, box):  # keep only the last layer, for [-box, box]
        pass
    states: dict[int, list[tuple[int, int, list[int]]]] = {}  # s -> (q, dim, odd counts)
    # s -> odd -> (least dimension, bitmask of the dimensions mod 4)
    low: dict[int, dict[int, tuple[int, int]]] = {}
    for s, bits in sorted(top[p - 1].items()):
        row, lo = states[s], low[s] = [], {}
        for q in range(s & 1, bits.bit_length() // p + 1, 2):  # q, odd = s mod 2, as c^2 = c
            chunk = bits >> q * p & mask
            if chunk:
                odds = [o for o in range(s & 1, p, 2) if chunk >> o & 1]
                d = _dim_from_sums(p, s, q, ncorr)
                row.append((q, d, odds))
                for o in odds:
                    least, seen = lo.get(o, (d, 0))
                    lo[o] = (min(least, d), seen | 1 << d % 4)
    low_sum = {s: min(least for least, _ in lo.values()) for s, lo in low.items()}

    def at(s, keep):
        """The states (s, q, odd) of sum s, with their dimension, that keep(odd, dim) selects."""
        return [((s, q, o), d) for q, d, odds in states.get(s, ()) for o in odds if keep(o, d)]

    def witness(state):
        s, q, odd = state
        return next(_multisets(layers, p, box, 0, p - 1, s, q * p + odd))

    failures: dict[str, list] = {"sum-shift": [], "tie": [], "monotone": [], "quantized-gap": []}
    for t, b in itertools.product(range(t_max + 1), range(1, p)):
        step = CanonicalClass(p, t, b)
        m0 = step.boundary_value()  # at most p^2/2, so also e's folded boundary
        if 2 * m0 > psq:
            continue
        e = step.rel_class().coeffs
        own = (m0, sum(c * c for c in e), sum(c & 1 for c in e))
        dim_e, odd_e = _dim_from_sums(p, m0, own[1], ncorr), own[2]

        for r in range(-((smax + m0) // psq), (smax - m0) // psq + 1):
            if r not in (0, -1) and low_sum.get(m0 + r * psq, dim_e + 1) <= dim_e:
                bad = [st for st, d in at(m0 + r * psq, lambda o, d: d <= dim_e)]
                failures["sum-shift"].append({"e": e, "r": r, "dim_e": dim_e, "classes": bad[:3]})

        for st, d in at(m0, lambda o, d: d <= dim_e):
            if st != own:
                failures["tie"].append({"e": e, "dim_e": dim_e, "class": st, "dim": d})

        for s, lo in low.items():
            fold = min(s % psq, -s % psq)
            least, seen = lo.get(odd_e, (dim_e + 1, 1 << dim_e % 4))  # unreached: no failure
            if fold > m0 and least <= dim_e:
                failures["monotone"] += [
                    {"e": e, "dim_e": dim_e, "class": st, "dim": d, "fold": fold}
                    for st, d in at(s, lambda o, d: o == odd_e and d <= dim_e)
                ]
            if fold == m0 and (least < dim_e or seen != 1 << dim_e % 4):
                failures["quantized-gap"] += [
                    {"e": e, "dim_e": dim_e, "class": st, "dim": d}
                    for st, d in at(s, lambda o, d: o == odd_e and (d < dim_e or (d - dim_e) % 4))
                ]

    # walking a witness back reads every layer: rebuild them only to name one
    layers = list(_box_layers(p, box))[::-1] if any(failures.values()) else []
    for fails in failures.values():
        for ce in fails[:5]:  # name only the reported states
            if "classes" in ce:
                ce["classes"] = [witness(st) for st in ce["classes"]]
            else:
                ce["class"] = witness(ce["class"])
    params = {"t_max": t_max, "box": box}
    return [
        CheckReport(f"boundary-value {name}", not fails, p=p, parameters=params,
                    counterexamples=fails[:5])
        for name, fails in failures.items()
    ]
