"""Intersection lattices, homology classes, and the blowdown plumbing chain.

The chain configuration of order p is the linear plumbing of p-1 embedded
spheres u_1, ..., u_{p-1} with squares -2, ..., -2, -(p+2) and consecutive
intersection 1.  Its boundary is the lens space L(p^2, p-1), and rational
blowdown replaces a neighborhood of the chain by a rational ball.  This module
carries the integral bookkeeping for that surgery:

* the plumbing intersection matrix P(p) and the integer closed form p^2 P^-1,
* relative second homology of the chain in the dual gamma basis
  (gamma_k . u_l = delta_{kl}) and the difference basis delta_i = gamma_i -
  gamma_{i-1}, which is where class enumeration happens,
* the boundary map onto Z_{p^2} and its fold onto {0, ..., floor(p^2/2)},
* characteristic-ness tests used throughout the series calculus.

A lattice stores its Gram matrix as an integer matrix `num` over one common
denominator `den` (1 for every lattice except the refined fiber lattices), so
`pairing` and `is_characteristic` run in integer arithmetic: a rational class
is scaled to integer numerators over the lcm of its denominators first.  All
pairings are still exact: `pairing` returns one `Fraction` built from the
integer total.  `characteristic_square` is the one characteristic test: a
single pass over the nonzero Gram entries gives every c . x for the parity
test and, from the same dot products, the integer square den * c . c.
Classes carry their lattice and arithmetic across different lattices is an
error, never a coercion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import mod, mul, sub
from typing import Mapping, Optional, Sequence, Union

from .reporting import Frozen, set_field

Scalar = Union[int, Fraction]


class IntersectionLattice:
    """A free Z-module with named basis and a symmetric rational pairing.

    The pairing matrix is gram / den with gram integral; den defaults to 1.
    It is stored reduced, as integer numerators `num` over the least common
    denominator `den`, so equal pairings give equal (num, den).  `gram` is the
    read-only Fraction view of the same matrix.  `sparse_gram` is the cached
    sparse form of `num` that the characteristic test walks.
    """

    __slots__ = ("basis_names", "num", "den", "_index", "_gram", "_sparse")

    def __init__(
        self, basis_names: Sequence[str], gram: Sequence[Sequence[Scalar]], den: int = 1
    ):
        names = tuple(basis_names)
        if len(names) < 1:
            raise ValueError("lattice rank must be at least 1")
        if len(set(names)) != len(names):
            raise ValueError("basis names must be distinct")
        if not isinstance(den, int) or den < 1:
            raise ValueError("gram denominator must be a positive integer")
        rows = [list(row) for row in gram]
        if len(rows) != len(names) or any(len(row) != len(names) for row in rows):
            raise ValueError("gram matrix shape does not match basis")
        if not all(type(x) is int for row in rows for x in row):
            rows = [[Fraction(x) for x in row] for row in rows]
            scale = lcm(*(x.denominator for row in rows for x in row))
            rows = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
            den *= scale
        common = gcd(den, *(x for row in rows for x in row))
        if common > 1:
            rows = [[x // common for x in row] for row in rows]
            den //= common
        num = tuple(tuple(row) for row in rows)
        for i in range(len(names)):
            for j in range(i):
                if num[i][j] != num[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        object.__setattr__(self, "basis_names", names)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_gram", None)
        object.__setattr__(self, "_sparse", None)

    @property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._gram is None:
            den = self.den
            view = tuple(tuple(Fraction(x, den) for x in row) for row in self.num)
            object.__setattr__(self, "_gram", view)
        return self._gram

    @property
    def sparse_gram(self) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
        """The diagonal of `num` and its nonzero entries (i, j, g) above the
        diagonal, computed once.  A blown-up lattice G + (-I_k) has no entry
        above the diagonal past G's."""
        if self._sparse is None:
            num = self.num
            diag = tuple(row[i] for i, row in enumerate(num))
            upper = tuple(
                (i, j, row[j]) for i, row in enumerate(num) for j in range(i + 1, len(row)) if row[j]
            )
            object.__setattr__(self, "_sparse", (diag, upper))
        return self._sparse

    def __setattr__(self, name, value):
        raise AttributeError("IntersectionLattice is immutable")

    def restricted(
        self, basis_names: Sequence[str], rows: Sequence[Sequence[int]], den: int
    ) -> "IntersectionLattice":
        """The lattice whose basis vectors are rows / den in this basis (integer
        rows over one denominator), with the pairing restricted to them: its
        Gram is B G B^t.  G.v is formed once per row, then one dot per entry."""
        if any(len(row) != self.rank for row in rows):
            raise ValueError("row length does not match lattice rank")
        gv = [[sum(map(mul, g, v)) for g in self.num] for v in rows]
        gram = [[sum(map(mul, u, w)) for w in gv] for u in rows]
        return IntersectionLattice(basis_names, gram, self.den * den * den)

    @property
    def rank(self) -> int:
        return len(self.basis_names)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, IntersectionLattice)
            and self.basis_names == other.basis_names
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.basis_names, self.num, self.den))

    def __repr__(self) -> str:
        return f"IntersectionLattice({list(self.basis_names)})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no basis vector named {name!r}") from None

    def zero(self) -> "HClass":
        return HClass(self, (0,) * self.rank)

    def basis_class(self, name: str) -> "HClass":
        coeffs = [0] * self.rank
        coeffs[self.index(name)] = 1
        return HClass(self, tuple(coeffs))

    def combo(self, terms: Mapping[str, int]) -> "HClass":
        coeffs = [0] * self.rank
        for name, c in terms.items():
            if int(c) != c:
                raise ValueError(f"coordinate {name!r} has non-integral coefficient {c}")
            coeffs[self.index(name)] = int(c)
        return HClass(self, tuple(coeffs))


def integral_coords(coords) -> tuple[int, ...]:
    """coords as a tuple of ints; raises ValueError naming them when a
    coordinate x has int(x) != x, instead of truncating it."""
    coords = tuple(coords)
    out = tuple(map(int, coords))
    if out != coords:
        raise ValueError(f"class {coords} has a non-integral coordinate")
    return out


def _check_same_lattice(a, b) -> None:
    if a.lattice != b.lattice:
        raise ValueError("lattice mismatch: classes live in different lattices")


class HClass(Frozen):
    """Integral class: integer coordinates in the lattice basis."""

    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: IntersectionLattice, coeffs: tuple[int, ...]):
        if len(coeffs) != lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")
        if not all(isinstance(c, int) for c in coeffs):
            raise TypeError("HClass coordinates must be ints")
        set_field(self, "lattice", lattice)
        set_field(self, "coeffs", coeffs)

    def __add__(self, other: "HClass") -> "HClass":
        _check_same_lattice(self, other)
        return HClass(self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "HClass") -> "HClass":
        _check_same_lattice(self, other)
        return HClass(self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "HClass":
        return HClass(self.lattice, tuple(-a for a in self.coeffs))

    def __mul__(self, k: Scalar):
        if isinstance(k, int):
            return HClass(self.lattice, tuple(k * a for a in self.coeffs))
        return QClass(self.lattice, tuple(Fraction(k) * a for a in self.coeffs))

    __rmul__ = __mul__

    def as_q(self) -> "QClass":
        return QClass(self.lattice, tuple(Fraction(a) for a in self.coeffs))

    def dot(self, other) -> Fraction:
        return pairing(self, other)

    def square(self) -> Fraction:
        return pairing(self, self)


class QClass(Frozen):
    """Rational class: used for extensions of classes across a blowdown."""

    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: IntersectionLattice, coeffs: Sequence[Scalar]):
        if len(coeffs) != lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")
        set_field(self, "lattice", lattice)
        set_field(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    def __add__(self, other) -> "QClass":
        _check_same_lattice(self, other)
        return QClass(self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other) -> "QClass":
        _check_same_lattice(self, other)
        return QClass(self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "QClass":
        return QClass(self.lattice, tuple(-a for a in self.coeffs))

    def __mul__(self, k: Scalar) -> "QClass":
        return QClass(self.lattice, tuple(Fraction(k) * a for a in self.coeffs))

    __rmul__ = __mul__

    def dot(self, other) -> Fraction:
        return pairing(self, other)

    def square(self) -> Fraction:
        return pairing(self, self)


def _numerators(c: Union[HClass, QClass]) -> tuple[Sequence[int], int]:
    """Integer coordinates of c over one denominator: c = coords / den."""
    if isinstance(c, HClass):
        return c.coeffs, 1
    den = lcm(*(x.denominator for x in c.coeffs))
    return [x.numerator * (den // x.denominator) for x in c.coeffs], den


def pairing(a: Union[HClass, QClass], b: Union[HClass, QClass]) -> Fraction:
    """Intersection pairing a . b through the lattice gram matrix."""
    _check_same_lattice(a, b)
    x, xden = _numerators(a)
    y, yden = _numerators(b)
    total = 0
    for xi, row in zip(x, a.lattice.num):
        if xi:
            total += xi * sum(map(mul, row, y))
    return Fraction(total, a.lattice.den * xden * yden)


def characteristic_square(
    lattice: IntersectionLattice, coords: Sequence[int], xden: int = 1
) -> Optional[int]:
    """den * xden^2 * (c . c), with den = lattice.den, when the class
    c = coords / xden (integer coords) is characteristic: c . x = x . x
    (mod 2) for every basis vector x, both pairings being integers.  None
    otherwise.

    One pass over the nonzero Gram entries gives the integers
    dots[i] = den * xden * (c . x_i); the parity test reads them, and the
    square is the sum of coords times the same dots.
    """
    lden = lattice.den
    diag, upper = lattice.sparse_gram
    if lden > 1 and any(s % lden for s in diag):
        return None  # some x . x is not an integer
    dots = list(map(mul, diag, coords))
    for i, j, g in upper:
        dots[i] += g * coords[j]
        dots[j] += g * coords[i]
    # c . x_i is an integer of the parity of x_i . x_i = diag[i] / den exactly
    # when dots[i] = xden * diag[i] modulo 2 * den * xden
    targets = diag if xden == 1 else [xden * s for s in diag]
    if any(map(mod, map(sub, dots, targets), repeat(2 * lden * xden))):
        return None
    return sum(map(mul, coords, dots))


def is_characteristic(lattice: IntersectionLattice, c: Union[HClass, QClass]) -> bool:
    """True when c . x = x . x (mod 2) for every basis vector x.

    Requires the relevant pairings to be integers; a class pairing fractionally
    with some basis vector is never characteristic here.
    """
    if c.lattice != lattice:
        raise ValueError("lattice mismatch: class does not live in this lattice")
    x, xden = _numerators(c)
    return characteristic_square(lattice, x, xden) is not None


class Residue(Frozen):
    """An element of Z_m that refuses arithmetic across different moduli."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        set_field(self, "value", value % modulus)
        set_field(self, "modulus", modulus)

    def _check(self, other: "Residue") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch: Z_{self.modulus} vs Z_{other.modulus}"
            )

    def __add__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue(self.value - other.value, self.modulus)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def reduced(self) -> int:
        """Fold onto {0, ..., floor(m/2)} by identifying r with m - r."""
        return min(self.value, self.modulus - self.value) if self.value else 0

    def in_subgroup(self, k: int) -> bool:
        """Membership in the subgroup kZ_m (k must divide m)."""
        if self.modulus % k:
            raise ValueError(f"{k} does not divide the modulus {self.modulus}")
        return self.value % k == 0


# ---------------------------------------------------------------------------
# Plumbing chain data


@lru_cache(maxsize=None)
def _plumbing_cached(p: int) -> tuple[tuple[int, ...], ...]:
    n = p - 1
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = -(p + 2) if i == n - 1 else -2
        if i > 0:
            row[i - 1] = 1
        if i < n - 1:
            row[i + 1] = 1
        rows.append(tuple(row))
    return tuple(rows)


def plumbing_matrix(p: int) -> list[list[int]]:
    """Intersection matrix of the order-p chain: tridiagonal, diagonal
    (-2, ..., -2, -(p+2)), off-diagonal 1.  Size (p-1) x (p-1)."""
    if p < 2:
        raise ValueError("chain order p must be at least 2")
    return [list(row) for row in _plumbing_cached(p)]


@lru_cache(maxsize=None)
def scaled_plumbing_inverse(p: int) -> tuple[tuple[int, ...], ...]:
    """p^2 times the inverse of plumbing_matrix(p), an integer matrix in
    closed form: entry (i, j) = j (i (p+1) - p^2) for j <= i, symmetric."""
    if p < 2:
        raise ValueError("chain order p must be at least 2")
    return tuple(
        tuple(min(i, j) * (max(i, j) * (p + 1) - p * p) for j in range(1, p)) for i in range(1, p)
    )


def plumbing_inverse(p: int) -> list[list[Fraction]]:
    """The inverse of plumbing_matrix(p): scaled_plumbing_inverse(p) / p^2."""
    p2 = p * p
    return [[Fraction(x, p2) for x in row] for row in scaled_plumbing_inverse(p)]


class ChainConfig:
    """An order-p chain embedded in an ambient lattice.

    spheres[0], ..., spheres[p-2] are the classes of u_1, ..., u_{p-1}; their
    mutual pairings must reproduce plumbing_matrix(p) exactly.  rows[j] is
    G.u_j as integers over ambient.den, formed once: a class pairs with u_j
    in one integer dot with rows[j] (`dots`), and the ambient direction i is
    orthogonal to the chain exactly when column i of rows is zero.
    """

    __slots__ = ("p", "ambient", "spheres", "rows")

    def __init__(self, p: int, ambient: IntersectionLattice, spheres: Sequence[HClass]):
        if p < 2:
            raise ValueError("chain order p must be at least 2")
        if len(spheres) != p - 1:
            raise ValueError(f"order-{p} chain needs {p - 1} sphere classes")
        for s in spheres:
            if s.lattice != ambient:
                raise ValueError("lattice mismatch: sphere class not in the ambient lattice")
        rows = tuple(tuple(sum(map(mul, g, s.coeffs)) for g in ambient.num) for s in spheres)
        for row, want in zip(rows, plumbing_matrix(p)):
            if [sum(map(mul, row, s.coeffs)) for s in spheres] != [w * ambient.den for w in want]:
                raise ValueError("sphere pairings do not form the order-%d plumbing chain" % p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "spheres", tuple(spheres))
        object.__setattr__(self, "rows", rows)

    def dots(self, c: HClass) -> list[int]:
        """The pairings c . u_j, as integers over ambient.den."""
        if c.lattice != self.ambient:
            raise ValueError("lattice mismatch: classes live in different lattices")
        return [sum(map(mul, row, c.coeffs)) for row in self.rows]

    def __setattr__(self, name, value):
        raise AttributeError("ChainConfig is immutable")


# ---------------------------------------------------------------------------
# Relative classes of the chain


_BASES = ("delta", "gamma")


class RelClass(Frozen):
    """A class in the relative second homology of the order-p chain.

    Coordinates are in the delta basis by default (delta_1 = gamma_1,
    delta_i = gamma_i - gamma_{i-1}); the gamma basis is dual to the spheres.
    """

    __slots__ = ("p", "coeffs", "basis")

    def __init__(self, p: int, coeffs: Sequence[Scalar], basis: str = "delta"):
        if p < 2:
            raise ValueError("chain order p must be at least 2")
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}; expected one of {_BASES}")
        if len(coeffs) != p - 1:
            raise ValueError(f"expected {p - 1} coordinates for p={p}")
        set_field(self, "p", p)
        set_field(self, "coeffs", integral_coords(coeffs))
        set_field(self, "basis", basis)

    def delta_coords(self) -> tuple[int, ...]:
        if self.basis == "delta":
            return self.coeffs
        # gamma_j = delta_1 + ... + delta_j, so delta_i coefficient is the
        # tail sum of gamma coefficients from i on.
        g = self.coeffs
        n = len(g)
        out = []
        tail = 0
        for i in reversed(range(n)):
            tail += g[i]
            out.append(tail)
        return tuple(reversed(out))

    def gamma_coords(self) -> tuple[int, ...]:
        if self.basis == "gamma":
            return self.coeffs
        a = self.coeffs + (0,)
        return tuple(a[i] - a[i + 1] for i in range(self.p - 1))


def rel_pairing(a: RelClass, b: RelClass) -> Fraction:
    """Pairing on relative classes.

    In delta coordinates the matrix is ((p+1)/p^2) J - I, i.e. diagonal
    -(p^2 - p - 1)/p^2 and off-diagonal (p+1)/p^2; equivalently the gamma
    basis pairs by the inverse plumbing matrix.
    """
    if a.p != b.p:
        raise ValueError(f"chain order mismatch: p={a.p} vs p={b.p}")
    x = a.delta_coords()
    y = b.delta_coords()
    sx = sum(x)
    sy = sum(y)
    dot = sum(u * v for u, v in zip(x, y))
    return Fraction((a.p + 1) * sx * sy, a.p * a.p) - dot


def boundary(e: RelClass) -> Residue:
    """Boundary onto H_1 of the lens space: sum of delta coordinates mod p^2.
    In particular gamma_j maps to j."""
    return Residue(sum(e.delta_coords()), e.p * e.p)
