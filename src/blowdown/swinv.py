"""Seiberg-Witten basic-class maps and their surgery transforms.

An SWMap is the finite support of an integer-valued function on characteristic
classes, carried together with the characteristic numbers of the underlying
series.  The transforms move classes through the same surgery geometry as the
kernel-level surgeries of .transform (blown_up_lattice, log_placement,
chain_pushoff) but transport plain integer values instead of formal-sum
coefficients, and never read a series coefficient: blowup adds an exceptional
direction and splits each class into a pair, the log transform fans each class
into p translates along the refined fiber, and the chain blowdown keeps
exactly the classes meeting the end sphere fully, with values unchanged (no
power-of-two factor on this side).  witten_kernel converts a map
into an exponential-sum kernel, scaled by a power of two fixed by the
characteristic numbers, for exact comparison against the series calculus.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Optional, Sequence, Union

from .exppoly import ExpKernel
from .lattice import (
    ChainConfig,
    HClass,
    IntersectionLattice,
    characteristic_square,
    integral_coords,
    pairing,
)
from .transform import (
    ORTHOGONAL,
    ManifoldSeries,
    blown_up_lattice,
    chain_pushoff,
    log_placement,
)

KeyLike = Union[HClass, tuple]


class SWMap:
    """Finite support of a basic-class function, with characteristic numbers.

    values maps exponent coordinate tuples to nonzero integers; every key must
    be characteristic.  b_plus is determined by (euler, signature) through the
    simply connected relation e + sigma = 2 + 2*b_plus and must be odd and at
    least 3.  With the simple-type flag set (the default), every key must sit
    in a zero-dimensional moduli space: sw_dim(key) = 0.
    """

    __slots__ = ("lattice", "values", "euler", "signature", "simple_type")

    def __init__(
        self,
        lattice: IntersectionLattice,
        values: Union[Mapping[KeyLike, int], Iterable[tuple[KeyLike, int]]],
        euler: int,
        signature: int,
        simple_type: bool = True,
    ):
        if (euler + signature - 2) % 2:
            raise ValueError("euler + signature must be even (simply connected model)")
        b = (euler + signature - 2) // 2
        if b < 3 or b % 2 == 0:
            raise ValueError(f"b_plus must be odd and >= 3, got {b}")
        items = values.items() if isinstance(values, Mapping) else values
        acc: dict[tuple[int, ...], int] = {}
        for key, v in items:
            if isinstance(key, HClass):
                if key.lattice != lattice:
                    raise ValueError("lattice mismatch: key does not live in the given lattice")
                key = key.coeffs
            else:
                key = integral_coords(key)
                if len(key) != lattice.rank:
                    raise ValueError(f"key {key} does not match lattice rank {lattice.rank}")
            if type(v) is not int:
                v = Fraction(v)
                if v.denominator != 1:
                    raise ValueError(f"value for class {key} must be an integer, got {v}")
                v = int(v)
            acc[key] = acc.get(key, 0) + v
        clean = {key: v for key, v in acc.items() if v}
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "values", clean)
        object.__setattr__(self, "euler", int(euler))
        object.__setattr__(self, "signature", int(signature))
        object.__setattr__(self, "simple_type", bool(simple_type))
        # dimension zero means den * key^2 == den * (3 sigma + 2 e)
        zero_dim = lattice.den * (3 * self.signature + 2 * self.euler)
        for key in clean:
            sq = characteristic_square(lattice, key)
            if sq is None:
                raise ValueError(f"basic class {key} is not characteristic")
            if self.simple_type and sq != zero_dim:
                raise ValueError(
                    f"simple type requires a zero-dimensional moduli space, "
                    f"but class {key} has dimension {_dim(self, sq)}"
                )

    def __setattr__(self, name, value):
        raise AttributeError("SWMap is immutable")

    @property
    def b_plus(self) -> int:
        return (self.euler + self.signature - 2) // 2

    def classes(self):
        for key in sorted(self.values):
            yield HClass(self.lattice, key), self.values[key]

    def basic_classes(self) -> list[HClass]:
        return [cls for cls, _ in self.classes()]

    def value(self, cls: KeyLike) -> int:
        key = cls.coeffs if isinstance(cls, HClass) else tuple(cls)
        return self.values.get(key, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SWMap):
            return NotImplemented
        return (
            self.lattice == other.lattice
            and self.values == other.values
            and self.euler == other.euler
            and self.signature == other.signature
            and self.simple_type == other.simple_type
        )

    def __hash__(self):
        return hash((self.lattice, tuple(sorted(self.values.items())), self.euler, self.signature))

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        bits = [f"{k}: {v}" for k, v in sorted(self.values.items())]
        return f"SWMap({{{', '.join(bits)}}}, e={self.euler}, sigma={self.signature})"


def sw_dim(m: SWMap, cls: KeyLike) -> Fraction:
    """Expected moduli dimension (cls^2 - (3*signature + 2*euler)) / 4."""
    if not isinstance(cls, HClass):
        cls = HClass(m.lattice, integral_coords(cls))
    if cls.lattice != m.lattice:
        raise ValueError("lattice mismatch: class does not live in the map's lattice")
    sq = characteristic_square(m.lattice, cls.coeffs)
    if sq is None:
        raise ValueError(f"class {cls.coeffs} is not characteristic")
    return _dim(m, sq)


def _dim(m: SWMap, sq: int) -> Fraction:
    """The dimension of a class whose square is sq / m.lattice.den."""
    den = m.lattice.den
    return Fraction(sq - den * (3 * m.signature + 2 * m.euler), 4 * den)


def sw_simple_type(m: SWMap) -> bool:
    """True iff every basic class has expected dimension zero."""
    return all(sw_dim(m, cls) == 0 for cls, _ in m.classes())


def sw_en(n: int) -> SWMap:
    """The relatively minimal elliptic map without multiple fibers: values
    (-1)^r C(n-2, r) on (n-2-2r) times the fiber, zero elsewhere."""
    if n < 2:
        raise ValueError("n >= 2 required (b+ >= 3)")
    lat = IntersectionLattice(["f"], [[0]])
    values = {(n - 2 - 2 * r,): (-1) ** r * comb(n - 2, r) for r in range(n - 1)}
    return SWMap(lat, values, 12 * n, -8 * n)


def sw_blowup(
    m: SWMap,
    k_levels: Sequence[int] = (0,),
    name: Union[None, str, Sequence[str]] = None,
    *,
    count: int = 1,
) -> SWMap:
    """count blowups in one pass.  Adds count exceptional square -1
    directions (name: one name, or count names) and sends every class L to
    the classes L + (+-(2k_1+1), ..., +-(2k_count+1)) with L's value, for
    levels k_i in k_levels.  Each level costs k(k+1) of the moduli dimension,
    which must stay >= 0, so a simple-type map (dimension 0) admits only
    k=0: the 2^count sign patterns."""
    levels = sorted(set(int(k) for k in k_levels))
    if not levels or levels[0] < 0:
        raise ValueError("blowup levels must be integers >= 0")
    new_lat = blown_up_lattice(m.lattice, count, [name] if isinstance(name, str) else name)
    # dimensions are tracked as the integers 4 * den * dim; the input classes
    # were checked when m was built, so only their squares are read here
    den = m.lattice.den
    zero_dim = den * (3 * m.signature + 2 * m.euler)
    steps = [(sign * (2 * k + 1), 4 * den * k * (k + 1)) for k in levels for sign in (1, -1)]
    tails: dict[int, list[tuple[int, ...]]] = {}
    values: dict[tuple[int, ...], int] = {}
    for key, v in m.values.items():
        cls = HClass(m.lattice, key)
        slack = (pairing(cls, cls) * den).numerator - zero_dim
        if slack not in tails:
            grown = [((), slack)]
            for _ in range(count):
                grown = [(t + (c,), s - cost) for t, s in grown for c, cost in steps if s >= cost]
            tails[slack] = [t for t, _ in grown]
        for tail in tails[slack]:
            values[key + tail] = v
    return SWMap(new_lat, values, m.euler + count, m.signature - count, m.simple_type)


def sw_log_transform(
    m: SWMap, s: HClass, p: int, new_name: Optional[str] = None
) -> SWMap:
    """Order-p logarithmic transform along the fiber class s.

    Every basic class must pair to zero with s.  The fiber direction is refined
    so s/p becomes integral and each class L fans into L + j*(s/p) for
    j = p-1, p-3, ..., -(p-1), all carrying L's value.  Distinct classes whose
    fans meet would need their values reconciled; that case raises instead.
    """
    place = log_placement(m.lattice, m.basic_classes(), s, p, new_name)
    values: dict[tuple[int, ...], int] = {}
    for key in sorted(m.values):
        for nk in place.ladder(key):
            if nk in values:
                raise ValueError(
                    "log transform target collision: distinct classes map to the same class"
                )
            values[nk] = m.values[key]
    return SWMap(place.lattice, values, m.euler, m.signature, m.simple_type)


def sw_taut_blowdown(
    m: SWMap, c: ChainConfig, image_names: Optional[Sequence[str]] = None
) -> SWMap:
    """Rational blowdown of a chain configuration tautly embedded with respect
    to every basic class.

    Classes pairing to +-p with the end sphere extend across the blowdown and
    keep their values; their squares gain exactly p-1.  Classes pairing to zero
    drop (their extension would violate the odd-multiplicity constraint on a
    characteristic lift).  Classes with intermediate pairing have no lift at
    all; they are dropped with a warning since no value transfer is available
    for them in either direction.
    """
    if c.ambient != m.lattice:
        raise ValueError("configuration does not live in the map's lattice")
    p = c.p
    lat, records = chain_pushoff(c, m.basic_classes(), None, image_names)
    values: dict[tuple[int, ...], int] = {}
    for rec in records:
        if rec.status == "dropped":
            if rec.reason != ORTHOGONAL:
                warnings.warn(f"dropping class {rec.source}: {rec.reason}")
            continue
        if rec.image in values:
            raise ValueError("blowdown target collision: distinct classes map to the same class")
        values[rec.image] = m.values[rec.source]
    return SWMap(lat, values, m.euler - (p - 1), m.signature + (p - 1), m.simple_type)


def sw_dim_shift(p: int, mult: int) -> Fraction:
    """Moduli-dimension shift (mult^2 - 1)(p - 1)/4 for a class whose extension
    meets the end sphere with odd multiplicity mult; even mult is impossible
    for a characteristic lift and raises."""
    if mult % 2 == 0:
        raise ValueError("end-sphere multiplicity must be odd for a characteristic lift")
    return Fraction((mult * mult - 1) * (p - 1), 4)


def witten_exponent(euler: int, signature: int) -> int:
    """The power of two 2 + (7*euler + 11*signature)/4 relating the two
    calculi; raises when the characteristic numbers make it non-integral."""
    num = 7 * euler + 11 * signature
    if num % 4:
        raise ValueError(
            f"exponent 2 + ({num})/4 is not an integer for e={euler}, sigma={signature}"
        )
    return 2 + num // 4


def witten_kernel(m: SWMap) -> ExpKernel:
    """The exponential-sum kernel 2^c sum_L value(L) e^L predicted to equal
    the series kernel, with c = witten_exponent(euler, signature)."""
    c = witten_exponent(m.euler, m.signature)
    return ExpKernel(m.lattice, m.values).scale(Fraction(2) ** c)


def witten_check(series: ManifoldSeries, m: SWMap) -> bool:
    """Exact equality of the series kernel with the predicted kernel of the
    basic-class map, support included."""
    if series.lattice != m.lattice:
        raise ValueError("lattice mismatch between the series and the basic-class map")
    if (series.euler, series.signature) != (m.euler, m.signature):
        raise ValueError("characteristic numbers differ between the series and the map")
    predicted = witten_kernel(m)
    return predicted == series.kernel
