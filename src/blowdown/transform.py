"""Series surgeries that need no linear algebra, and the surgery geometry
they share with the basic-class calculus.

Implements the kernel-level effect of blowup (connected sum with a reversed
projective plane) and of the logarithmic transform along a square-zero fiber
direction.  Characteristic-number bookkeeping rides along: blowup (e+1,
sigma-1), log transform neutral.  The rational blowdown of a chain and the
nodal models built on it live in .chain_surgery, which a plan loads only
when it has a chain or hpsum step.

How a surgery moves lattice classes is the same for both calculi and lives in
one place per surgery: blown_up_lattice and sign_vectors, log_placement here,
chain_pushoff in .chain_surgery.  The series transforms and the basic-class
transforms in .swinv differ only in the coefficient a moved class carries.
"""

from __future__ import annotations

import re
from itertools import compress, product, repeat
from math import gcd
from operator import add, itemgetter, mul
from typing import Collection

from .exppoly import ExpKernel, refined_lattice
from .lattice import HClass, IntersectionLattice, characteristic_squares
from .reporting import Frozen


def b_plus_of(euler: int, signature: int) -> int:
    """b_plus from the simply connected relation e + sigma = 2 + 2*b_plus;
    raises unless e, sigma are ints, e + sigma is even and b_plus odd >= 3."""
    if not (isinstance(euler, int) and isinstance(signature, int)):
        raise ValueError(f"euler and signature must be integers, got {euler!r} and {signature!r}")
    if (euler + signature - 2) % 2:
        raise ValueError("euler + signature must be even (simply connected model)")
    b = (euler + signature - 2) // 2
    if b < 3 or b % 2 == 0:
        raise ValueError(f"b_plus must be odd and >= 3, got {b}")
    return b


class ManifoldSeries(Frozen):
    """A simple-type series kernel with its characteristic numbers.

    b_plus is determined by (euler, signature) as in b_plus_of.  Every kernel
    exponent must be characteristic for the lattice.
    """

    __slots__ = ("kernel", "euler", "signature")

    def __init__(self, kernel: ExpKernel, euler: int, signature: int):
        b_plus_of(euler, signature)
        squares = characteristic_squares(kernel.lattice, kernel.num)
        if None in squares:
            bad = min(key for key, sq in zip(kernel.num, squares) if sq is None)
            raise ValueError(f"kernel class {bad} is not characteristic")
        super().__init__(kernel, euler, signature)

    @property
    def lattice(self) -> IntersectionLattice:
        return self.kernel.lattice

    @property
    def b_plus(self) -> int:
        return b_plus_of(self.euler, self.signature)

    def basic_classes(self) -> list[HClass]:
        return [HClass(self.lattice, key) for key in sorted(self.kernel.num)]

    def __reduce__(self):  # copy and pickle rebuild through the validating constructor
        return self.__class__, (self.kernel, self.euler, self.signature)


def _fresh_names(lattice: IntersectionLattice, stem: str, count: int) -> list[str]:
    taken = set(lattice.basis_names)
    out = []
    i = 1
    while len(out) < count:
        name = f"{stem}{i}"
        if name not in taken:
            out.append(name)
            taken.add(name)
        i += 1
    return out


def blown_up_lattice(lattice: IntersectionLattice, k: int) -> IntersectionLattice:
    """The lattice with k exceptional square -1 directions appended, orthogonal
    to everything, called e1, e2, ..., skipping names already in use."""
    if k < 1:
        raise ValueError("blowup count must be >= 1")
    n, den = lattice.rank, lattice.den
    gram = lattice.entries | {(i, i): -den for i in range(n, n + k)}
    return IntersectionLattice(list(lattice.basis_names) + _fresh_names(lattice, "e", k), gram, den)


def sign_vectors(k: int) -> list[tuple[int, ...]]:
    """The 2^k tails (+-1, ..., +-1) a blowup appends to every class, in
    increasing order."""
    return list(product((-1, 1), repeat=k))


def blowup(m: ManifoldSeries, k: int = 1) -> ManifoldSeries:
    """Add k exceptional square -1 directions and multiply the kernel by
    the product of their cosh factors; euler += k, signature -= k.  The
    product is written out in one pass: each term a e^kappa becomes
    a / 2^k e^(kappa + (+-1, ..., +-1)) over all 2^k sign patterns."""
    new_lat = blown_up_lattice(m.lattice, k)
    tails = sign_vectors(k)
    num = {key + tail: c for key, c in m.kernel.num.items() for tail in tails}
    kernel = ExpKernel._from_ints(new_lat, num, m.kernel.den << k)
    return ManifoldSeries(kernel, m.euler + k, m.signature - k)


_SUFFIX = re.compile(r"^(.*)_(\d+)$")


def _refined_name(old: str, divisor: int) -> str:
    match = _SUFFIX.match(old)
    if match:
        return f"{match.group(1)}_{int(match.group(2)) * divisor}"
    return f"{old}_{divisor}"


class LogPlacement(Frozen):
    """Where an order-p log transform sends exponent coordinates.

    lattice is the refined lattice, in which the fiber direction `index` is
    1/divisor of the old one, so s/p = step times that direction.  Rung j
    (j = p-1, p-3, ..., -(p-1)) of a class lands on its old fiber coordinate
    times divisor plus j * step.
    """

    __slots__ = ("lattice", "index", "divisor", "step", "order")

    def image(self, key: tuple[int, ...], j: int) -> tuple[int, ...]:
        out = list(key)
        out[self.index] = out[self.index] * self.divisor + j * self.step
        return tuple(out)

    def ladder(self, key: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The p rung images of a class, from j = p-1 down to -(p-1)."""
        i, step = self.index, self.step
        head, tail = key[:i], key[i + 1 :]
        top = key[i] * self.divisor + (self.order - 1) * step
        return [head + (v,) + tail for v in range(top, top - 2 * self.order * step, -2 * step)]


def log_placement(
    lattice: IntersectionLattice,
    keys: Collection[tuple[int, ...]],
    s: HClass,
    p: int,
) -> LogPlacement:
    """Validate the fiber class s (a positive multiple of one square-zero
    basis direction, orthogonal to the class of every exponent key) and
    refine its direction so s/p becomes integral.  The refined direction is
    named by scaling its `_n` suffix (f -> f_2 -> f_6)."""
    if p < 1:
        raise ValueError("log transform order must be >= 1")
    if s.lattice != lattice:
        raise ValueError("lattice mismatch: fiber class not in the series lattice")
    nonzero = [(i, v) for i, v in enumerate(s.coeffs) if v]
    if len(nonzero) != 1 or nonzero[0][1] < 1:
        raise ValueError("fiber class must be a positive multiple of one basis direction")
    idx, mult = nonzero[0]
    square, off = lattice.sparse_gram[idx]
    if square:
        raise ValueError("fiber direction must have square zero")
    # den * key . s / mult for every key at once, over the fiber row's nonzero entries
    dots = [0] * len(keys)
    for j, g in off:
        dots = list(map(add, dots, map(mul, map(itemgetter(j), keys), repeat(g))))
    if any(dots):
        raise ValueError(f"class {min(compress(keys, dots))} is not orthogonal to the fiber")
    d = p // gcd(mult, p)
    if d > 1:
        old = lattice.basis_class(lattice.basis_names[idx])
        lattice = refined_lattice(lattice, old, d, _refined_name(lattice.basis_names[idx], d))
    return LogPlacement(lattice, idx, d, mult * d // p, p)


def log_transform(m: ManifoldSeries, s: HClass, p: int) -> ManifoldSeries:
    """Order-p logarithmic transform along the fiber class s.

    The fiber direction is refined so s/p becomes integral and the kernel is
    multiplied by the p-term ladder e^{(p-1)s/p} + e^{(p-3)s/p} + ... +
    e^{-(p-1)s/p}.  Euler number and signature are unchanged.
    """
    place = log_placement(m.lattice, m.kernel.num, s, p)
    num: dict[tuple[int, ...], int] = {}
    for key, a in m.kernel.num.items():
        for img in place.ladder(key):
            num[img] = num.get(img, 0) + a
    kernel = ExpKernel._from_ints(place.lattice, num, m.kernel.den)
    return ManifoldSeries(kernel, m.euler, m.signature)


# bench/tracing.py traces three moved names here; the benchmark's next upkeep
# points it at .chain_surgery and removes this forwarder.
def __getattr__(name: str):
    if name not in ("taut_blowdown", "restrict_class", "connected_sum_hp"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import chain_surgery

    return getattr(chain_surgery, name)
