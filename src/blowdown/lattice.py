"""Intersection lattices, homology classes, and the blowdown plumbing chain.

The chain configuration of order p is the linear plumbing of p-1 embedded
spheres u_1, ..., u_{p-1} with squares -2, ..., -2, -(p+2) and consecutive
intersection 1.  Its boundary is the lens space L(p^2, p-1), and rational
blowdown replaces a neighborhood of the chain by a rational ball.  This module
carries the integral bookkeeping for that surgery:

* `Plumbing`, a linear plumbing whose matrix, determinant, solve and boundary
  map are read off two continuant tables, and the order-p chain
  `chain_plumbing(p)`; `scaled_plumbing_inverse` is the closed form of
  p^2 P^-1 that the continuant solve is checked against,
* relative second homology of the chain in the difference basis delta_i =
  gamma_i - gamma_{i-1}, gamma dual to the spheres, where class enumeration
  happens,
* the boundary map onto Z_{p^2} and its fold onto {0, ..., floor(p^2/2)},
* characteristic-ness tests used throughout the series calculus.

A lattice stores its Gram matrix as an integer matrix `num` over one common
denominator `den` (1 for every lattice except the refined fiber lattices),
and its nonzero entries row by row as `sparse_gram`.  Every product here
walks those entries in integer arithmetic: a rational class is scaled to
integer numerators over the lcm of its denominators first, and `pairing`
returns one exact `Fraction` built from the integer total.
`characteristic_squares` is the one characteristic test, and it reads a
batch of classes as columns, one per lattice coordinate: the nonzero entries
of Gram row i give the column of every c . x_i, the parity test runs on that
column, and the same dots add into the integer squares den * c . c.
`characteristic_square` is its one-class call.  `ChainConfig` and
`IntersectionLattice.restricted` form G.v from the nonzero entries of v, so
the p-1 spheres of a chain, each with two or three nonzero coordinates (the
end sphere of an exceptional chain has p-1), cost O(p), not the ambient rank.
Classes carry their lattice and arithmetic across different lattices is an
error, never a coercion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, repeat
from math import gcd, lcm
from operator import add, mod, mul, sub
from typing import Collection, Mapping, Optional, Sequence, Union

from .reporting import Frozen, set_field

Scalar = Union[int, Fraction]


class IntersectionLattice:
    """A free Z-module with named basis and a symmetric rational pairing.

    The pairing matrix is gram / den with gram integral; den defaults to 1.
    It is stored reduced, as integer numerators `num` over the least common
    denominator `den`, so equal pairings give equal (num, den).
    `sparse_gram` is the cached sparse form of `num`, row by row, that the
    characteristic test walks.
    """

    __slots__ = ("basis_names", "num", "den", "_index", "_sparse")

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
        if num != tuple(zip(*num)):
            raise ValueError("gram matrix must be symmetric")
        object.__setattr__(self, "basis_names", names)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_sparse", None)

    @property
    def sparse_gram(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """Row i of `num` as its diagonal entry and its nonzero entries (j, g)
        off the diagonal, computed once.  A blown-up lattice G + (-I_k) has
        no off-diagonal entry in its exceptional rows."""
        if self._sparse is None:
            sparse = tuple(
                (row[i], tuple((j, g) for j, g in enumerate(row) if g and j != i))
                for i, row in enumerate(self.num)
            )
            object.__setattr__(self, "_sparse", sparse)
        return self._sparse

    def __setattr__(self, name, value):
        raise AttributeError("IntersectionLattice is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the validating constructor
        return IntersectionLattice, (self.basis_names, self.num, self.den)

    def restricted(
        self, basis_names: Sequence[str], rows: Sequence[Sequence[int]], den: int
    ) -> "IntersectionLattice":
        """The lattice whose basis vectors are rows / den in this basis (integer
        rows over one denominator), with the pairing restricted to them: its
        Gram is B G B^t, formed over the rows' nonzero entries alone."""
        if any(len(row) != self.rank for row in rows):
            raise ValueError("row length does not match lattice rank")
        _, gram = _gram_products(self, [_support(v) for v in rows])
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


def _support(v: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple((i, a) for i, a in enumerate(v) if a)


def _gram_products(lattice: IntersectionLattice, supports: Sequence) -> tuple[list, list]:
    """The rows num . v and the Gram matrix over `num` of vectors v given by
    their nonzero entries (`_support`), summed over nonzero entries alone."""
    sparse = lattice.sparse_gram
    gv = []
    for supp in supports:
        w = [0] * lattice.rank
        for k, a in supp:
            s, off = sparse[k]
            w[k] += a * s
            for j, g in off:
                w[j] += a * g
        gv.append(w)
    cols = list(zip(*gv))
    gram = []
    for supp in supports:
        row = [0] * len(supports)
        for k, a in supp:
            row = list(map(add, row, map(mul, cols[k], repeat(a))))
        gram.append(row)
    return gv, gram


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

    def square(self) -> Fraction:
        return pairing(self, self)


class QClass(Frozen):
    """Rational class: used for extensions of classes across a blowdown."""

    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: IntersectionLattice, coeffs: Sequence[Scalar]):
        if len(coeffs) != lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")
        set_field(self, "lattice", lattice)
        set_field(self, "coeffs", tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs))

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
    for i, xi in enumerate(x):
        if xi:
            s, off = a.lattice.sparse_gram[i]
            total += xi * (s * y[i] + sum(g * y[j] for j, g in off))
    return Fraction(total, a.lattice.den * xden * yden)


def characteristic_squares(
    lattice: IntersectionLattice, keys: Collection[Sequence[int]], xden: int = 1
) -> list[Optional[int]]:
    """den * xden^2 * (c . c), with den = lattice.den, for each class
    c = key / xden (integer keys) that is characteristic: c . x = x . x
    (mod 2) for every basis vector x, both pairings being integers.  None
    for the others.

    The keys are read as columns, one per lattice coordinate i: the nonzero
    entries of Gram row i give the column dots = den * xden * (c . x_i) of
    every class, the parity test reads it, and coordinate i times dots adds
    into every square.  A zero Gram row pairs every class to 0 = x_i . x_i
    and adds 0 to the square, so its coordinate is skipped.
    """
    n = len(keys)
    lden = lattice.den
    rows = lattice.sparse_gram
    if not n or (lden > 1 and any(s % lden for s, _ in rows)):
        return [None] * n  # no classes, or some x . x is not an integer
    cols = list(zip(*keys))
    modulus = 2 * lden * xden
    squares = [0] * n
    bad: set[int] = set()
    for col, (s, off) in zip(cols, rows):
        if not (s or off):
            continue
        dots = list(map(mul, col, repeat(s)))
        for j, g in off:
            dots = list(map(add, dots, map(mul, cols[j], repeat(g))))
        # c . x_i is an integer of the parity of x_i . x_i = s / den exactly
        # when dots = xden * s modulo 2 * den * xden
        odd = list(map(mod, map(sub, dots, repeat(xden * s)), repeat(modulus)))
        if any(odd):
            bad.update(compress(range(n), odd))
        squares = list(map(add, squares, map(mul, col, dots)))
    for k in bad:
        squares[k] = None
    return squares


def characteristic_square(
    lattice: IntersectionLattice, coords: Sequence[int], xden: int = 1
) -> Optional[int]:
    """characteristic_squares for the one class coords / xden."""
    return characteristic_squares(lattice, [coords], xden)[0]


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


class Plumbing(Frozen):
    """The linear plumbing of spheres u_1, ..., u_r of squares -a_1, ..., -a_r,
    each meeting the next once, read from two continuant tables head[i] =
    K(a_1..a_i) and tail[i] = K(a_{i+1}..a_r), K() = 1: det = head[r] = |det P|
    and (det P^-1)_ij = -head[i-1] tail[j] for i <= j, symmetric."""

    __slots__ = ("weights", "head", "tail")

    def __init__(self, weights: Sequence[int]):
        weights = tuple(weights)
        if not weights or not all(type(a) is int and a >= 2 for a in weights):
            raise ValueError(f"plumbing weights must be integers >= 2, got {weights}")
        head, tail = [1, weights[0]], [1, weights[-1]]
        for a in weights[1:]:
            head.append(a * head[-1] - head[-2])
        for a in reversed(weights[:-1]):
            tail.append(a * tail[-1] - tail[-2])
        set_field(self, "weights", weights)
        set_field(self, "head", tuple(head))
        set_field(self, "tail", tuple(reversed(tail)))

    @property
    def det(self) -> int:
        return self.head[-1]

    def matrix(self) -> list[list[int]]:
        """The intersection matrix: -a_i on the diagonal, 1 beside it."""
        w, r = self.weights, range(len(self.weights))
        return [[-w[i] if j == i else int(abs(j - i) == 1) for j in r] for i in r]

    def solve(self, g: Sequence[int]) -> list[int]:
        """det x for the x with P x = -g: det x_i = tail[i] sum_{j <= i}
        head[j-1] g_j + head[i-1] sum_{j > i} tail[j] g_j, one prefix and one
        suffix sum."""
        head, tail = self.head, self.tail
        suffix = [0, *accumulate(reversed(list(map(mul, tail[1:], g))))][::-1]
        prefix = accumulate(map(mul, head, g))
        return [t * a + h * b for t, a, h, b in zip(tail[1:], prefix, head, suffix[1:])]

    def boundary(self, g: Sequence[int]) -> Residue:
        """The boundary in H_1 = Z_det of the relative class g_1 gamma_1 + ...
        + g_r gamma_r, gamma_j dual to u_j: gamma_j maps to head[j-1]."""
        return Residue(sum(map(mul, self.head, g)), self.det)


@lru_cache(maxsize=None)
def chain_plumbing(p: int) -> Plumbing:
    """The order-p chain: weights (2, ..., 2, p+2), so det = p^2."""
    if p < 2:
        raise ValueError("chain order p must be at least 2")
    return Plumbing((2,) * (p - 2) + (p + 2,))


def plumbing_matrix(p: int) -> list[list[int]]:
    """Intersection matrix of the order-p chain: tridiagonal, diagonal
    (-2, ..., -2, -(p+2)), off-diagonal 1.  Size (p-1) x (p-1)."""
    return chain_plumbing(p).matrix()


@lru_cache(maxsize=None)
def scaled_plumbing_inverse(p: int) -> tuple[tuple[int, ...], ...]:
    """p^2 times the inverse of plumbing_matrix(p), an integer matrix in
    closed form: entry (i, j) = j (i (p+1) - p^2) for j <= i, symmetric."""
    if p < 2:
        raise ValueError("chain order p must be at least 2")
    return tuple(
        tuple(min(i, j) * (max(i, j) * (p + 1) - p * p) for j in range(1, p)) for i in range(1, p)
    )


class ChainConfig:
    """An order-p chain embedded in an ambient lattice.

    spheres[0], ..., spheres[p-2] are the classes of u_1, ..., u_{p-1}; their
    mutual pairings must reproduce `plumbing` = chain_plumbing(p) exactly.
    rows[j] is G.u_j over ambient.den; `supports` and `row_supports` are the
    nonzero (i, v) of each sphere and row.  A class pairs with u_j in one dot
    over row_supports[j] (`dots`); direction i is orthogonal to the chain when
    no row support holds it.
    """

    __slots__ = ("p", "plumbing", "ambient", "spheres", "rows", "supports", "row_supports")

    def __init__(self, p: int, ambient: IntersectionLattice, spheres: Sequence[HClass]):
        plumbing = chain_plumbing(p)
        if len(spheres) != p - 1:
            raise ValueError(f"order-{p} chain needs {p - 1} sphere classes")
        for s in spheres:
            if s.lattice != ambient:
                raise ValueError("lattice mismatch: sphere class not in the ambient lattice")
        supports = tuple(_support(s.coeffs) for s in spheres)
        rows, gram = _gram_products(ambient, supports)
        if gram != [[w * ambient.den for w in want] for want in plumbing.matrix()]:
            raise ValueError("sphere pairings do not form the order-%d plumbing chain" % p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "plumbing", plumbing)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "spheres", tuple(spheres))
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "row_supports", tuple(map(_support, rows)))

    def dots(self, c: HClass) -> list[int]:
        """The pairings c . u_j, as integers over ambient.den."""
        if c.lattice != self.ambient:
            raise ValueError("lattice mismatch: classes live in different lattices")
        return [sum(c.coeffs[i] * v for i, v in supp) for supp in self.row_supports]

    def __setattr__(self, name, value):
        raise AttributeError("ChainConfig is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the validating constructor
        return ChainConfig, (self.p, self.ambient, self.spheres)


# ---------------------------------------------------------------------------
# Relative classes of the chain


class RelClass(Frozen):
    """A class in the relative second homology of the order-p chain, in the
    delta basis: delta_1 = gamma_1 and delta_i = gamma_i - gamma_{i-1}, where
    gamma_k . u_l = delta_{kl} is dual to the spheres."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[Scalar]):
        if p < 2:
            raise ValueError("chain order p must be at least 2")
        if len(coeffs) != p - 1:
            raise ValueError(f"expected {p - 1} coordinates for p={p}")
        set_field(self, "p", p)
        set_field(self, "coeffs", integral_coords(coeffs))


def rel_pairing(a: RelClass, b: RelClass) -> Fraction:
    """Pairing on relative classes.

    In delta coordinates the matrix is ((p+1)/p^2) J - I, i.e. diagonal
    -(p^2 - p - 1)/p^2 and off-diagonal (p+1)/p^2; equivalently the gamma
    basis pairs by the inverse plumbing matrix.
    """
    if a.p != b.p:
        raise ValueError(f"chain order mismatch: p={a.p} vs p={b.p}")
    x, y = a.coeffs, b.coeffs
    dot = sum(u * v for u, v in zip(x, y))
    return Fraction((a.p + 1) * sum(x) * sum(y), a.p * a.p) - dot


def boundary(e: RelClass) -> Residue:
    """Boundary onto H_1 of the lens space: sum of delta coordinates mod p^2,
    so gamma_j = delta_1 + ... + delta_j maps to j."""
    return Residue(sum(e.coeffs), e.p * e.p)
