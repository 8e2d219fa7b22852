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
symmetry: it enumerates its box once, as one table of coordinate multisets
with their odd-coordinate counts, stays exhaustive, and names counterexamples
by sorted coordinates.  min_dim_search scans vectors, since it returns every
minimizer in lexicographic order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .lattice import RelClass, Residue, boundary, rel_pairing
from .reporting import CheckReport, Frozen, set_field


def e_square(p: int, t: int, b: int) -> Fraction:
    """Self-pairing of the step class <t, t+1; b>:
    (b^2 + b^2 p - b p^2 - 2 b t + t^2 - p t^2) / p^2."""
    num = b * b + b * b * p - b * p * p - 2 * b * t + t * t - p * t * t
    return Fraction(num, p * p)


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
        set_field(self, "p", p)
        set_field(self, "t", t)
        set_field(self, "b", b)

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
    """Boundary correction term in dim(e) = -2 e^2 - 2 - corr(p, boundary)."""
    if isinstance(m, Residue):
        if m.modulus != p * p:
            raise ValueError(f"residue modulus {m.modulus} does not match p^2={p * p}")
        m = m.value
    tb = canonical_tb(p, m)
    if tb is None:
        return Fraction(1)
    t, b = tb
    return -2 * e_square(p, t, b) - 2 - (2 * t - 1)


def rho_half_closed_form(p: int, t: int, b: int) -> Fraction:
    """Closed form for the rho/2 boundary term at the step class <t, t+1; b>:
    -(1/p^2)(-2b^2 - 2b^2 p - p^2 + 2bp^2 + 4bt - 2p^2 t - 2t^2 + 2pt^2).

    Its global sign is opposite to the anchored correction: corr(p, m) equals
    minus this value at the (t, b) of m.  Using it with the printed sign in the
    dimension formula would give t^2 - 2 instead of 2t - 1 at p = 2.
    """
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

    def __init__(
        self, e: RelClass, e_square: Fraction, boundary: Residue, reduced_boundary: int, dim: int
    ):
        set_field(self, "e", e)
        set_field(self, "e_square", e_square)
        set_field(self, "boundary", boundary)
        set_field(self, "reduced_boundary", reduced_boundary)
        set_field(self, "dim", dim)


def dim_report(e: RelClass) -> DimReport:
    bd = boundary(e)
    return DimReport(e, rel_pairing(e, e), bd, bd.reduced(), dim_moduli(e))


# ---------------------------------------------------------------------------
# Fast integer-only dimension used by the exhaustive searches


@lru_cache(maxsize=None)
def _ncorr_table(p: int) -> tuple[int, ...]:
    """p^2 * corr(p, m) for m = 0, ..., p^2 - 1 (always an integer)."""
    out = []
    for m in range(p * p):
        c = corr(p, m) * p * p
        assert c.denominator == 1
        out.append(int(c))
    return tuple(out)


def _dim_from_sums(p: int, s: int, q: int, ncorr: Sequence[int]) -> int:
    """Dimension of any class with coordinate sum s and square-sum q."""
    num = 2 * p * p * q - 2 * (p + 1) * s * s - 2 * p * p - ncorr[s % (p * p)]
    d, r = divmod(num, p * p)
    if r:
        raise ValueError("non-integral dimension; inconsistent correction term")
    return d


def min_dim_search(
    p: int,
    m: Union[int, Residue],
    parity: RelClass,
    box: int,
) -> tuple[int, list[RelClass]]:
    """Exhaustive minimum of dim over the box [-box, box]^(p-1).

    Scans every class with coordinates congruent to `parity` mod 2 componentwise
    and boundary m in Z_{p^2}; returns the minimal dimension and all minimizers
    in lexicographic order.  Raises if the search set is empty.
    """
    if isinstance(m, Residue):
        if m.modulus != p * p:
            raise ValueError(f"residue modulus {m.modulus} does not match p^2={p * p}")
        m = m.value
    if parity.p != p:
        raise ValueError("parity class has the wrong chain order")
    m %= p * p
    ncorr = _ncorr_table(p)
    ranges = [
        [v for v in range(-box, box + 1) if (v - c) % 2 == 0]
        for c in parity.coeffs
    ]
    if any(not r for r in ranges):
        raise ValueError("empty search set: box too small for the parity constraint")
    best: Optional[int] = None
    minimizers: list[tuple[int, ...]] = []
    for coords in itertools.product(*ranges):
        s = sum(coords)
        if s % (p * p) != m:
            continue
        d = _dim_from_sums(p, s, sum(c * c for c in coords), ncorr)
        if best is None or d < best:
            best = d
            minimizers = [coords]
        elif d == best:
            minimizers.append(coords)
    if best is None:
        raise ValueError("empty search set: no class in the box has the given boundary")
    return best, [RelClass(p, c) for c in minimizers]


def _multiset_stats(p: int, box: int, ncorr: Sequence[int]):
    """Every coordinate multiset in the box, grouped by coordinate sum.

    Returns a dict mapping a coordinate sum to the list of (dim, number of odd
    coordinates, sorted coordinate tuple).  Dimension, coordinate sum and
    folded boundary are symmetric functions, so multisets lose nothing, and a
    multiset with k odd entries permutes onto every parity vector with k odd
    entries.
    """
    by_sum: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
    for ms in itertools.combinations_with_replacement(range(-box, box + 1), p - 1):
        s = sum(ms)
        d = _dim_from_sums(p, s, sum(c * c for c in ms), ncorr)
        by_sum.setdefault(s, []).append((d, sum(c & 1 for c in ms), ms))
    return by_sum


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

    The box is enumerated once, as the coordinate multisets of
    _multiset_stats; laws 3 and 4 read the multisets with as many odd
    coordinates as e, each of which permutes onto e's parity.  A
    counterexample therefore names a class by its sorted coordinates.

    Raises for p < 2, t_max < 0 or box < 0, where the scan would be empty.
    """
    if p < 2 or t_max < 0 or box < 0:
        raise ValueError(f"need p >= 2, t_max >= 0 and box >= 0, got {p}, {t_max}, {box}")
    ncorr = _ncorr_table(p)
    psq = p * p
    by_sum = _multiset_stats(p, box, ncorr)
    smax = (p - 1) * box

    canonicals = []
    for t in range(t_max + 1):
        for b in range(1, p):
            if 2 * ((p - 1) * t + b) <= psq:
                canonicals.append(CanonicalClass(p, t, b))

    failures: dict[str, list] = {"sum-shift": [], "tie": [], "monotone": [], "quantized-gap": []}

    for canon in canonicals:
        e = canon.rel_class()
        m0 = canon.boundary_value()
        dim_e = _dim_from_sums(p, m0, sum(c * c for c in e.coeffs), ncorr)
        e_multiset = tuple(sorted(e.coeffs))
        odd_e = sum(c & 1 for c in e.coeffs)

        for r in range(-((smax + m0) // psq), (smax - m0) // psq + 1):
            if r in (0, -1):
                continue
            bad = [ms for d, _, ms in by_sum.get(m0 + r * psq, ()) if d <= dim_e]
            if bad:
                failures["sum-shift"].append(
                    {"e": e.coeffs, "r": r, "dim_e": dim_e, "classes": bad[:3]}
                )

        for d, _, ms in by_sum.get(m0, ()):
            if d <= dim_e and ms != e_multiset:
                failures["tie"].append({"e": e.coeffs, "dim_e": dim_e, "class": ms, "dim": d})

        fold_e = min(m0 % psq, -m0 % psq)
        for s, entries in by_sum.items():
            fold = min(s % psq, -s % psq)
            for d, odd, ms in entries:
                if odd != odd_e:
                    continue
                if d <= dim_e and fold > fold_e:
                    failures["monotone"].append(
                        {"e": e.coeffs, "dim_e": dim_e, "class": ms, "dim": d, "fold": fold}
                    )
                if fold == fold_e and (d < dim_e or (d - dim_e) % 4):
                    failures["quantized-gap"].append(
                        {"e": e.coeffs, "dim_e": dim_e, "class": ms, "dim": d}
                    )

    params = {"t_max": t_max, "box": box}
    return [
        CheckReport(f"boundary-value {name}", not fails, p=p, parameters=params,
                    counterexamples=fails[:5])
        for name, fails in failures.items()
    ]
