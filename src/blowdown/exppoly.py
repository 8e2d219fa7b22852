"""Finite formal sums of exponentials of lattice classes.

A series kernel is sum_s a_s e^{kappa_s} with rational a_s and kappa_s integral
classes in a fixed lattice; the gaussian prefactor exp(Q/2) of a full series is
implicit and never stored.  Multiplication convolves exponents
(e^kappa e^lambda = e^{kappa+lambda}); powers and division are supported when
all exponents involved sit on one rank-1 direction, as integer Laurent
polynomials: the only case the surgery formulas need (sinh^n(f), sinh(pu)/sinh(u)).
Coefficients are kept as integer numerators over one common denominator, so
the ring operations and the division run in integer arithmetic.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence, Union

from .lattice import HClass, IntersectionLattice
from .reporting import Frozen, integral_coords

if TYPE_CHECKING:  # coefficients are ints; Fractions are built only on request
    from fractions import Fraction


class ExpKernel(Frozen):
    """A kernel sum_s a_s e^{kappa_s}, built from a mapping or from
    (exponent, coefficient) pairs; pairs with the same exponent are summed
    into a dict of the kernel's own, which never aliases the caller's.

    The coefficients are stored as integer numerators `num` (a read-only
    mapping, exponent tuple -> nonzero int) over one denominator `den` > 0,
    reduced so that gcd(den, *num.values()) == 1: equal kernels give equal
    (num, den), and the ring operations run on ints.  `terms` is a read-only
    Fraction view of the same coefficients, built on each read.
    """

    __slots__ = ("lattice", "num", "den")

    def __init__(self, lattice: IntersectionLattice, terms: Mapping = ()):
        acc: dict[tuple, Union[int, Fraction]] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in items:
            if isinstance(key, HClass):
                if key.lattice != lattice:
                    raise ValueError("lattice mismatch: term class not in the kernel lattice")
                key = key.coeffs
            else:
                key = tuple(key)
            if type(coeff) is not int:
                from fractions import Fraction

                coeff = Fraction(coeff)
            acc[key] = acc.get(key, 0) + coeff
        den = lcm(*(c.denominator for c in acc.values()))
        num = {key: c.numerator * (den // c.denominator) for key, c in acc.items()}
        self._store(lattice, num, den)

    @classmethod
    def _from_ints(cls, lattice: IntersectionLattice, num: dict, den: int) -> "ExpKernel":
        """The kernel sum num[key]/den e^key, for int numerators and a
        positive int denominator; exponents are validated as in __init__.  It
        takes ownership of `num`, a dict its caller has just built, and keeps a
        clean one (int tuple keys of the rank, no zero, content 1) as it is."""
        k = object.__new__(cls)
        k._store(lattice, num, den)
        return k

    def _store(self, lattice: IntersectionLattice, num: dict, den: int) -> None:
        rank = lattice.rank
        keys = num.keys()
        # tuples of exact ints of the right length, every coordinate in one pass
        if (
            set(map(type, keys)) <= {tuple}
            and set(map(len, keys)) <= {rank}
            and set(map(type, chain.from_iterable(keys))) <= {int}
        ):
            if 0 in num.values():
                num = {key: c for key, c in num.items() if c}
        else:
            items, num = num.items(), {}
            for key, c in items:
                key = integral_coords(key)
                if len(key) != rank:
                    raise ValueError("exponent length does not match lattice rank")
                if c:
                    num[key] = c
        g = den
        for c in num.values():  # stops at 1, with no tuple of every value
            if g == 1:
                break
            g = gcd(g, c)
        if g != 1:
            for key, c in num.items():  # same keys: updated in place
                num[key] = c // g
            den //= g
        Frozen.__init__(self, lattice, MappingProxyType(num), den)

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        from fractions import Fraction

        den = self.den
        return MappingProxyType({k: Fraction(c, den) for k, c in self.num.items()})

    def __reduce__(self):  # copy and pickle rebuild through the validating constructor
        return ExpKernel._from_ints, (self.lattice, dict(self.num), self.den)

    # -- basic protocol ----------------------------------------------------

    def __hash__(self):  # num is a mappingproxy, which does not hash
        return hash((self.lattice, self.den, frozenset(self.num.items())))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __len__(self) -> int:
        return len(self.num)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        if not self.num:
            return "ExpKernel(0)"
        bits = [f"{c}*e^{k}" for k, c in self.sorted_terms()]
        return "ExpKernel(" + " + ".join(bits) + ")"

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "ExpKernel") -> None:
        if self.lattice != other.lattice:
            raise ValueError("lattice mismatch between kernels")

    def __add__(self, other: "ExpKernel") -> "ExpKernel":
        self._check(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = {k: s * c for k, c in self.num.items()}
        for k, c in other.num.items():
            out[k] = out.get(k, 0) + t * c
        return ExpKernel._from_ints(self.lattice, out, den)

    def __sub__(self, other: "ExpKernel") -> "ExpKernel":
        return self + (-other)

    def __neg__(self) -> "ExpKernel":
        return ExpKernel._from_ints(self.lattice, {k: -c for k, c in self.num.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, ExpKernel):
            self._check(other)
            out: dict[tuple[int, ...], int] = {}
            for k1, c1 in self.num.items():
                for k2, c2 in other.num.items():
                    key = tuple(map(add, k1, k2))
                    out[key] = out.get(key, 0) + c1 * c2
            return ExpKernel._from_ints(self.lattice, out, self.den * other.den)
        return self.scale(other)

    def __rmul__(self, other) -> "ExpKernel":
        return self.scale(other)

    def scale(self, k: Union[int, Fraction]) -> "ExpKernel":
        top = k.numerator
        out = {key: top * c for key, c in self.num.items()}
        return ExpKernel._from_ints(self.lattice, out, self.den * k.denominator)

    def coeff(self, cls: Union[HClass, tuple]) -> Fraction:
        from fractions import Fraction

        key = cls.coeffs if isinstance(cls, HClass) else tuple(cls)
        return Fraction(self.num.get(key, 0), self.den)


def one(lattice: IntersectionLattice) -> ExpKernel:
    return ExpKernel._from_ints(lattice, {(0,) * lattice.rank: 1}, 1)


def zero(lattice: IntersectionLattice) -> ExpKernel:
    return ExpKernel(lattice, {})


def sinh_c(kappa: HClass) -> ExpKernel:
    """(e^kappa - e^{-kappa}) / 2; the zero class gives the zero kernel."""
    if not any(kappa.coeffs):
        return zero(kappa.lattice)
    return ExpKernel._from_ints(kappa.lattice, {kappa.coeffs: 1, (-kappa).coeffs: -1}, 2)


def cosh_c(kappa: HClass) -> ExpKernel:
    """(e^kappa + e^{-kappa}) / 2; the zero class gives one."""
    if not any(kappa.coeffs):
        return one(kappa.lattice)
    return ExpKernel._from_ints(kappa.lattice, {kappa.coeffs: 1, (-kappa).coeffs: 1}, 2)


def _collinear_multiples(direction_pool: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], dict]:
    """Primitive common direction d and the multiple of d each vector equals;
    d is the zero vector when every vector is zero."""
    nonzero = [v for v in direction_pool if any(v)]
    if not nonzero:
        return direction_pool[0], dict.fromkeys(direction_pool, 0)
    first = min(nonzero)
    g = gcd(*[abs(x) for x in first])
    d = tuple(x // g for x in first)
    lead = next(i for i, x in enumerate(d) if x)
    mult = {}
    for v in direction_pool:
        k, r = divmod(v[lead], d[lead])
        if r or any(x != k * dx for x, dx in zip(v, d)):
            raise ValueError("exponents are not collinear: no common rank-1 direction")
        mult[v] = k
    return d, mult


def _laurent(*kernels: ExpKernel) -> tuple[tuple[int, ...], list[dict]]:
    """d of _collinear_multiples and each (nonzero) kernel as {multiple: numerator}."""
    d, mult = _collinear_multiples([key for k in kernels for key in k.num])
    return d, [{mult[key]: c for key, c in k.num.items()} for k in kernels]


def _from_laurent(lattice, d: tuple, coeffs: list, lo: int, step: int, den: int) -> ExpKernel:
    """The kernel sum_i coeffs[i] x^(lo + i step) / den, x = e^d; the keys
    zip one arithmetic range per coordinate of d."""
    n = len(coeffs)
    cols = [range(lo * x, (lo + n * step) * x, step * x) if x else repeat(0, n) for x in d]
    out = {key: c for key, c in zip(zip(*cols), coeffs) if c}
    return ExpKernel._from_ints(lattice, out, den)


def power(k: ExpKernel, n: int) -> ExpKernel:
    """The n-fold product k * ... * k (one at n = 0) of a kernel on one rank-1
    direction, such as the fiber power sinh^n(f): n products of integer Laurent
    polynomials on the stride of its exponents, turned into tuples once."""
    if n < 0:
        raise ValueError("kernel powers need n >= 0")
    if n == 0 or not k.num:
        return one(k.lattice) if n == 0 else zero(k.lattice)
    d, (p,) = _laurent(k)
    lo = min(p)
    step = gcd(*(e - lo for e in p)) or 1
    factor = [((e - lo) // step, c) for e, c in p.items()]
    deg = (max(p) - lo) // step
    out = [1]
    for _ in range(n):
        nxt = [0] * (len(out) + deg)
        for off, c in factor:
            for i, x in enumerate(out, off):
                nxt[i] += c * x
        out = nxt
    return _from_laurent(k.lattice, d, out, n * lo, step, k.den**n)


def exact_div(a: ExpKernel, b: ExpKernel) -> ExpKernel:
    """Exact quotient a / b for kernels supported on one rank-1 direction.

    Both kernels become integer Laurent polynomials A, B in x = e^d for the
    primitive common direction d (a = A / a.den, b = B / b.den), and B is
    divided by its content g.  Long division by the primitive B / g visits
    only its nonzero terms and stays in integers: by Gauss's lemma an exact
    quotient by a primitive integer polynomial has integer coefficients, so a
    step whose leading coefficient does not divide proves the division
    inexact.  The quotient of A by B / g is then scaled by b.den / (a.den g).
    Raises unless the quotient comes out exact (zero remainder).  The division
    runs in place in the dense list of A's coefficients, on the common stride
    of A's and B's exponent offsets, each quotient entry taking the remainder
    slot it clears, and the quotient is built over the reduced denominator
    a.den g / h, h = gcd(b.den, a.den g).
    """
    a._check(b)
    if not b.num:
        raise ZeroDivisionError("division by the zero kernel")
    if not a.num:
        return zero(a.lattice)
    d, (pa, pb) = _laurent(a, b)
    lo_a, hi_a = min(pa), max(pa)
    lo_b, hi_b = min(pb), max(pb)
    if hi_a - lo_a < hi_b - lo_b:
        raise ValueError("inexact division: numerator support is too narrow")
    step = gcd(*(e - lo_a for e in pa), *(e - lo_b for e in pb)) or 1
    da, db = (hi_a - lo_a) // step, (hi_b - lo_b) // step
    g = gcd(*pb.values())
    lead = pb[hi_b] // g
    tail = [((e - hi_b) // step, c // g) for e, c in pb.items() if e != hi_b]
    rem = [pa.get(lo_a + i * step, 0) for i in range(da + 1)]
    for i in range(da, db - 1, -1):
        c, r = divmod(rem[i], lead)
        if r:
            raise ValueError("inexact division: nonzero remainder")
        rem[i] = c  # the tail offsets are negative: slot i is never read again
        if c:
            for off, t in tail:
                rem[i + off] -= c * t
    if any(rem[:db]):
        raise ValueError("inexact division: nonzero remainder")
    del rem[:db]  # the quotient, lowest power first
    h = gcd(b.den, a.den * g)
    top = b.den // h
    if top > 1:  # c * 1 would copy each c
        for i, c in enumerate(rem):
            rem[i] = c * top
    return _from_laurent(a.lattice, d, rem, lo_a - lo_b, step, a.den * g // h)

