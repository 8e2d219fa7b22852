"""Seiberg-Witten basic-class maps and their surgery transforms.

An SWMap is the finite support of an integer-valued function on characteristic
classes, stored as an exponential-sum kernel with integer coefficients and
carried together with the characteristic numbers of the underlying series.
The transforms move classes through the same surgery geometry as the
kernel-level surgeries of .transform (blown_up_lattice, log_placement,
chain_pushoff) but transport plain integer values instead of formal-sum
coefficients, and never read a series coefficient: blowup adds an exceptional
direction and splits each class into a pair, the log transform fans each class
into p translates along the refined fiber, and the chain blowdown keeps
exactly the classes meeting the end sphere fully, with values unchanged (no
power-of-two factor on this side), recording why each other class drops.
witten_kernel scales a map's kernel by a power of two fixed by the
characteristic numbers, for exact comparison against the series calculus.
"""

from __future__ import annotations

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
)
from .reporting import Frozen, set_field
from .transform import (
    BlowdownResult,
    ManifoldSeries,
    b_plus_of,
    blown_up_lattice,
    chain_pushoff,
    log_placement,
)

KeyLike = Union[HClass, tuple]


class SWMap(Frozen):
    """Finite support of a basic-class function, with characteristic numbers.

    The values are held as an integer ExpKernel (den == 1): `values` is its
    read-only `num`, mapping exponent coordinate tuples to nonzero integers,
    and every key must be characteristic.  b_plus is determined by (euler,
    signature) as for ManifoldSeries (see b_plus_of).  With the simple-type
    flag set (the default), every key must sit in a zero-dimensional moduli
    space: sw_dim(key) = 0.
    """

    __slots__ = ("kernel", "euler", "signature", "simple_type")

    def __init__(
        self,
        lattice: IntersectionLattice,
        values: Union[Mapping[KeyLike, int], Iterable[tuple[KeyLike, int]]],
        euler: int,
        signature: int,
        simple_type: bool = True,
    ):
        b_plus_of(euler, signature)
        kernel = ExpKernel(lattice, values)
        if kernel.den != 1:
            key = min(k for k, c in kernel.num.items() if c % kernel.den)
            v = Fraction(kernel.num[key], kernel.den)
            raise ValueError(f"value for class {key} must be an integer, got {v}")
        set_field(self, "kernel", kernel)
        set_field(self, "euler", euler)
        set_field(self, "signature", signature)
        set_field(self, "simple_type", bool(simple_type))
        # dimension zero means den * key^2 == den * (3 sigma + 2 e)
        zero_dim = lattice.den * (3 * self.signature + 2 * self.euler)
        for key in kernel.num:
            sq = characteristic_square(lattice, key)
            if sq is None:
                raise ValueError(f"basic class {key} is not characteristic")
            if self.simple_type and sq != zero_dim:
                raise ValueError(
                    f"simple type requires a zero-dimensional moduli space, "
                    f"but class {key} has dimension {sw_dim(self, key)}"
                )

    @property
    def lattice(self) -> IntersectionLattice:
        return self.kernel.lattice

    @property
    def values(self) -> Mapping[tuple[int, ...], int]:
        return self.kernel.num

    @property
    def b_plus(self) -> int:
        return b_plus_of(self.euler, self.signature)

    def classes(self):
        for key in sorted(self.values):
            yield HClass(self.lattice, key), self.values[key]

    def basic_classes(self) -> list[HClass]:
        return [cls for cls, _ in self.classes()]

    def value(self, cls: KeyLike) -> int:
        key = cls.coeffs if isinstance(cls, HClass) else tuple(cls)
        return self.values.get(key, 0)

    def __len__(self) -> int:
        return len(self.kernel)


def sw_dim(m: SWMap, cls: KeyLike) -> Fraction:
    """Expected moduli dimension (cls^2 - (3*signature + 2*euler)) / 4."""
    if not isinstance(cls, HClass):
        cls = HClass(m.lattice, integral_coords(cls))
    if cls.lattice != m.lattice:
        raise ValueError("lattice mismatch: class does not live in the map's lattice")
    sq = characteristic_square(m.lattice, cls.coeffs)
    if sq is None:
        raise ValueError(f"class {cls.coeffs} is not characteristic")
    den = m.lattice.den
    return Fraction(sq - den * (3 * m.signature + 2 * m.euler), 4 * den)


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
    # were checked when m was built, so only their squares are read here, and
    # a simple-type map was built with every square equal to zero_dim
    den = m.lattice.den
    zero_dim = den * (3 * m.signature + 2 * m.euler)
    steps = [(sign * (2 * k + 1), 4 * den * k * (k + 1)) for k in levels for sign in (1, -1)]
    tails: dict[int, list[tuple[int, ...]]] = {}
    values: dict[tuple[int, ...], int] = {}
    for key, v in m.values.items():
        slack = 0 if m.simple_type else characteristic_square(m.lattice, key) - zero_dim
        if slack not in tails:
            grown = [((), slack)]
            for _ in range(count):
                grown = [(t + (c,), s - cost) for t, s in grown for c, cost in steps if s >= cost]
            tails[slack] = [t for t, _ in grown]
        for tail in tails[slack]:
            values[key + tail] = v
    return SWMap(new_lat, values, m.euler + count, m.signature - count, m.simple_type)


def sw_log_transform(m: SWMap, s: HClass, p: int) -> SWMap:
    """Order-p logarithmic transform along the fiber class s.

    Every basic class must pair to zero with s.  The fiber direction is refined
    so s/p becomes integral and each class L fans into L + j*(s/p) for
    j = p-1, p-3, ..., -(p-1), all carrying L's value.  Distinct classes whose
    fans meet would need their values reconciled; that case raises instead.
    """
    place = log_placement(m.lattice, m.basic_classes(), s, p)
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
) -> BlowdownResult:
    """Rational blowdown of a chain configuration tautly embedded with respect
    to every basic class.

    Classes pairing to +-p with the end sphere extend across the blowdown and
    keep their values; their squares gain exactly p-1.  Classes pairing to zero
    drop (their extension would violate the odd-multiplicity constraint on a
    characteristic lift).  Classes with intermediate pairing have no lift at
    all, so no value transfer is available for them in either direction; they
    drop too.  The class map records each drop with its reason.
    """
    if c.ambient != m.lattice:
        raise ValueError("configuration does not live in the map's lattice")
    lat, records = chain_pushoff(c, m.basic_classes(), None, image_names)
    values: dict[tuple[int, ...], int] = {}
    for rec in (r for r in records if r.status == "kept"):
        if rec.image in values:
            raise ValueError("blowdown target collision: distinct classes map to the same class")
        values[rec.image] = m.values[rec.source]
    out = SWMap(lat, values, m.euler - (c.p - 1), m.signature + (c.p - 1), m.simple_type)
    return BlowdownResult(out, tuple(records))


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
    return m.kernel.scale(Fraction(2) ** witten_exponent(m.euler, m.signature))


def witten_check(series: ManifoldSeries, m: SWMap) -> bool:
    """Exact equality of the series kernel with the predicted kernel of the
    basic-class map, support included."""
    if series.lattice != m.lattice:
        raise ValueError("lattice mismatch between the series and the basic-class map")
    if (series.euler, series.signature) != (m.euler, m.signature):
        raise ValueError("characteristic numbers differ between the series and the map")
    predicted = witten_kernel(m)
    return predicted == series.kernel
