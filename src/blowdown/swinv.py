"""Seiberg-Witten basic-class maps and their surgery transforms.

An SWMap is the finite support of an integer-valued function on characteristic
classes, stored as an exponential-sum kernel with integer coefficients and
carried together with the characteristic numbers of the underlying series;
each transform hands ExpKernel._from_ints the dict of values it has built.
Every map is of simple type (each basic class has a zero-dimensional moduli
space).  The transforms move classes through the surgery geometry of
.transform (blown_up_lattice, sign_vectors) and, each loaded only when its
step runs, .placement's log_placement and .chain_surgery's chain_pushoff; they
carry plain integer values and never read a series coefficient: blowup copies
each class's value to its 2^k sign patterns, the log transform fans each class
into p translates along the refined fiber, and the chain blowdown keeps
exactly the classes meeting the end sphere fully, with values unchanged (no
power-of-two factor on this side), recording why each other class drops.
Witten's relation predicts each series coefficient as 2^c value(L), c fixed
by the characteristic numbers; witten_diff compares the calculi class by class.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from .exppoly import ExpKernel
from .lattice import HClass, IntersectionLattice, characteristic_squares
from .reporting import Frozen, integral_coords
from .transform import ManifoldSeries, b_plus_of, blown_up_lattice, sign_vectors

if TYPE_CHECKING:  # a map reaches the chain surgery only through a chain step
    from fractions import Fraction

    from .chain_surgery import BlowdownResult, ChainConfig

KeyLike = Union[HClass, tuple]


class SWMap(Frozen):
    """Finite support of a basic-class function, with characteristic numbers,
    built as SWMap(kernel, euler, signature) like a ManifoldSeries.

    The values are held as an integer ExpKernel (den == 1): `values` is its
    read-only `num`, mapping exponent coordinate tuples to nonzero integers,
    and every key must be characteristic.  b_plus is determined by (euler,
    signature) as for ManifoldSeries (see b_plus_of).  Simple type: every
    key must sit in a zero-dimensional moduli space, sw_dim(key) = 0.
    """

    __slots__ = ("kernel", "euler", "signature")

    def __init__(self, kernel: ExpKernel, euler: int, signature: int):
        b_plus_of(euler, signature)
        if kernel.den != 1:
            from fractions import Fraction

            key = min(k for k, c in kernel.num.items() if c % kernel.den)
            v = Fraction(kernel.num[key], kernel.den)
            raise ValueError(f"value for class {key} must be an integer, got {v}")
        super().__init__(kernel, euler, signature)
        # dimension zero means den * key^2 == den * (3 sigma + 2 e)
        zero_dim = kernel.lattice.den * (3 * signature + 2 * euler)
        squares = characteristic_squares(kernel.lattice, kernel.num)
        if squares.count(zero_dim) != len(squares):
            key, sq = next((k, sq) for k, sq in zip(kernel.num, squares) if sq != zero_dim)
            if sq is None:
                raise ValueError(f"basic class {key} is not characteristic")
            raise ValueError(
                f"simple type requires a zero-dimensional moduli space, "
                f"but class {key} has dimension {sw_dim(self, key)}"
            )

    # read off (kernel, euler, signature), and rebuilt by copy and pickle through
    # the constructor, as for a series
    lattice = ManifoldSeries.lattice
    b_plus = ManifoldSeries.b_plus
    basic_classes = ManifoldSeries.basic_classes
    __reduce__ = ManifoldSeries.__reduce__

    @property
    def values(self) -> Mapping[tuple[int, ...], int]:
        return self.kernel.num


def sw_dim(m: SWMap, cls: KeyLike) -> Fraction:
    """Expected moduli dimension (cls^2 - (3*signature + 2*euler)) / 4."""
    from fractions import Fraction

    if not isinstance(cls, HClass):
        cls = HClass(m.lattice, integral_coords(cls))
    if cls.lattice != m.lattice:
        raise ValueError("lattice mismatch: class does not live in the map's lattice")
    sq = characteristic_squares(m.lattice, [cls.coeffs])[0]
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
    return SWMap(ExpKernel._from_ints(lat, values, 1), 12 * n, -8 * n)


def sw_blowup(m: SWMap, count: int = 1) -> SWMap:
    """count blowups in one pass.  Adds count exceptional square -1
    directions and copies the value of every class L to the 2^count classes
    L + (+-1, ..., +-1); these are the classes of dimension zero again, so
    the result is of simple type."""
    lat = blown_up_lattice(m.lattice, count)
    tails = sign_vectors(count)
    values = {key + tail: v for key, v in m.values.items() for tail in tails}
    return SWMap(ExpKernel._from_ints(lat, values, 1), m.euler + count, m.signature - count)


def sw_log_transform(m: SWMap, s: HClass, p: int) -> SWMap:
    """Order-p logarithmic transform along the fiber class s.

    Every basic class must pair to zero with s.  The fiber direction is refined
    so s/p becomes integral and each class L fans into L + j*(s/p) for
    j = p-1, p-3, ..., -(p-1), all carrying L's value.  Distinct classes whose
    fans meet would need their values reconciled; that case raises instead.
    """
    from .placement import log_placement

    values = m.values
    place = log_placement(m.lattice, values, s, p)
    fanned = {nk: v for key, v in sorted(values.items()) for nk in place.ladder(key)}
    if len(fanned) != p * len(values):
        raise ValueError("log transform target collision: distinct classes map to the same class")
    return SWMap(ExpKernel._from_ints(place.lattice, fanned, 1), m.euler, m.signature)


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
    from .chain_surgery import BlowdownResult, chain_pushoff

    if c.ambient != m.lattice:
        raise ValueError("configuration does not live in the map's lattice")
    lat, records = chain_pushoff(c, m.basic_classes(), None, image_names)
    values: dict[tuple[int, ...], int] = {}
    for rec in (r for r in records if r.status == "kept"):
        if rec.image in values:
            raise ValueError("blowdown target collision: distinct classes map to the same class")
        values[rec.image] = m.values[rec.source]
    out = SWMap(ExpKernel._from_ints(lat, values, 1), m.euler - c.p + 1, m.signature + c.p - 1)
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


def witten_diff(series: ManifoldSeries, m: SWMap) -> Optional[tuple[tuple, Fraction, Fraction]]:
    """(L, series coefficient, 2^c value(L)) for the first class L in sorted
    order where the two differ, c = witten_exponent(euler, signature), a class
    missing on one side counting as 0; None when they agree."""
    if series.lattice != m.lattice:
        raise ValueError("lattice mismatch between the series and the basic-class map")
    if (series.euler, series.signature) != (m.euler, m.signature):
        raise ValueError("characteristic numbers differ between the series and the map")
    c = witten_exponent(m.euler, m.signature)
    num, den, values = series.kernel.num, series.kernel.den, m.values
    lhs, rhs = 1 << max(-c, 0), den << max(c, 0)  # num/den == value * 2^c
    if num.keys() == values.keys() and all(num[L] * lhs == v * rhs for L, v in values.items()):
        return None
    from fractions import Fraction

    for L in sorted(num.keys() | values.keys()):  # the keys differ or some value does
        a, b = num.get(L, 0) * lhs, values.get(L, 0) * rhs
        if a != b:
            return L, Fraction(a, den * lhs), Fraction(b, den * lhs)


def witten_check(series: ManifoldSeries, m: SWMap) -> bool:
    """Exact agreement of the two calculi: witten_diff finds no class."""
    return witten_diff(series, m) is None
