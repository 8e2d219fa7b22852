"""Series surgeries that need no linear algebra, and the surgery geometry
they share with the basic-class calculus.

Implements the kernel-level effect of blowup (connected sum with a reversed
projective plane) and of the logarithmic transform along a square-zero fiber
direction.  Characteristic-number bookkeeping rides along: blowup (e+1,
sigma-1), log transform neutral.  The rational blowdown of a chain lives in
.chain_surgery and the nodal models built on it in .nodal, which a plan
loads only for a chain or an hpsum step.

How a surgery moves lattice classes is the same for both calculi and lives in
one place per surgery: blown_up_lattice and sign_vectors here, log_placement
in .placement, chain_pushoff in .chain_surgery.  The series transforms and
the basic-class transforms in .swinv differ only in the coefficient a moved
class carries.
"""

from __future__ import annotations

from itertools import product

from .exppoly import ExpKernel
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


def log_transform(m: ManifoldSeries, s: HClass, p: int) -> ManifoldSeries:
    """Order-p logarithmic transform along the fiber class s.

    The fiber direction is refined so s/p becomes integral and the kernel is
    multiplied by the p-term ladder e^{(p-1)s/p} + e^{(p-3)s/p} + ... +
    e^{-(p-1)s/p}.  Euler number and signature are unchanged.
    """
    from .placement import log_placement

    place = log_placement(m.lattice, m.kernel.num, s, p)
    num: dict[tuple[int, ...], int] = {}
    for key, a in m.kernel.num.items():
        for img in place.ladder(key):
            num[img] = num.get(img, 0) + a
    kernel = ExpKernel._from_ints(place.lattice, num, m.kernel.den)
    return ManifoldSeries(kernel, m.euler, m.signature)


# bench/tracing.py traces three moved names here: taut_blowdown and
# restrict_class from .chain_surgery, connected_sum_hp from .nodal.  The
# benchmark's next upkeep points it at their homes and removes this forwarder.
def __getattr__(name: str):
    if name not in ("taut_blowdown", "restrict_class", "connected_sum_hp"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    home = "nodal" if name == "connected_sum_hp" else "chain_surgery"
    return getattr(import_module(f"{__package__}.{home}"), name)
