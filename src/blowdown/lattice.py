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

A lattice stores its Gram matrix as its nonzero integer numerators, row by
row (`sparse_gram`), over one common denominator `den` (1 for every lattice
except the refined fiber lattices); the dense matrix is formed only to be
printed.  Every product here walks those entries, and `pairing` returns one
exact `Fraction`, the total over `den`.  `characteristic_squares` is the one
characteristic test, and it reads a batch of classes as columns, one per
lattice coordinate: the nonzero entries of Gram row i give the column of
every c . x_i, the parity test runs on that column, and the same dots add
into the squares den * c . c.  A chain embedded in a lattice, and the
lattice it blows down to, live in .chain_surgery.  Classes carry their
lattice, and pairing classes of different lattices is an error, never a
coercion.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, compress, repeat
from math import gcd, lcm
from operator import add, itemgetter, mod, mul, sub
from typing import TYPE_CHECKING, Collection, Optional, Sequence, Union

from .reporting import Frozen

if TYPE_CHECKING:  # Fractions are built only where a rational value is asked for
    from fractions import Fraction

    Scalar = Union[int, Fraction]


class IntersectionLattice(Frozen):
    """A free Z-module with named basis and a symmetric rational pairing.

    The pairing matrix is gram / den, gram given dense or by its nonzero
    entries {(i, j): x}; den defaults to 1.  It is stored reduced, over the
    least common denominator `den`, as `sparse_gram`: row i of the numerators
    as its diagonal entry and its nonzero entries (j, g) off the diagonal, so
    equal pairings give equal (den, sparse_gram).  `entries` and the dense
    `num` are formed on each read.
    """

    __slots__ = ("basis_names", "den", "sparse_gram")

    def __init__(self, basis_names: Sequence[str], gram: Union[dict, Sequence], den: int = 1):
        names = tuple(basis_names)
        n = len(names)
        if n < 1:
            raise ValueError("lattice rank must be at least 1")
        if len(set(names)) != n:
            raise ValueError("basis names must be distinct")
        if not isinstance(den, int) or den < 1:
            raise ValueError("gram denominator must be a positive integer")
        if isinstance(gram, dict):
            entries = {(i, j): x for (i, j), x in gram.items() if x}
            shaped = all(0 <= i < n and 0 <= j < n for i, j in entries)
        else:
            rows = [list(row) for row in gram]
            shaped = len(rows) == n and all(len(row) == n for row in rows)
            entries = {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}
        if not shaped:
            raise ValueError("gram matrix shape does not match basis")
        if not set(map(type, entries.values())) <= {int}:
            from fractions import Fraction

            entries = {k: Fraction(x) for k, x in entries.items()}
            scale = lcm(*(x.denominator for x in entries.values()))
            entries = {k: x.numerator * (scale // x.denominator) for k, x in entries.items()}
            den *= scale
        common = gcd(den, *entries.values())
        if any(entries.get((j, i)) != x for (i, j), x in entries.items()):
            raise ValueError("gram matrix must be symmetric")
        rows = [(entries.pop((i, i), 0) // common, []) for i in range(n)]
        for (i, j), x in sorted(entries.items()):
            rows[i][1].append((j, x // common))
        super().__init__(names, den // common, tuple((s, tuple(off)) for s, off in rows))

    def __reduce__(self):  # copy and pickle rebuild through the validating constructor
        return IntersectionLattice, (self.basis_names, self.entries, self.den)

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """The nonzero Gram numerators {(i, j): x}, the constructor's sparse form."""
        rows = enumerate(self.sparse_gram)
        return {(i, j): x for i, (s, off) in rows for j, x in ((i, s), *off) if x}

    @property
    def num(self) -> tuple[tuple[int, ...], ...]:
        """The dense Gram numerators, for printing."""
        e, r = self.entries, range(self.rank)
        return tuple(tuple(e.get((i, j), 0) for j in r) for i in r)

    @property
    def rank(self) -> int:
        return len(self.basis_names)

    def __repr__(self) -> str:
        return f"IntersectionLattice({list(self.basis_names)})"

    def index(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise KeyError(f"no basis vector named {name!r}") from None

    def basis_class(self, name: str) -> "HClass":
        coeffs = [0] * self.rank
        coeffs[self.index(name)] = 1
        return HClass(self, tuple(coeffs))


def integral_coords(coords) -> tuple[int, ...]:
    """coords as a tuple of ints; raises ValueError naming them when a
    coordinate x has int(x) != x, instead of truncating it."""
    coords = tuple(coords)
    out = tuple(map(int, coords))
    if out != coords:
        raise ValueError(f"class {coords} has a non-integral coordinate")
    return out


class HClass(Frozen):
    """Integral class: integer coordinates in the lattice basis."""

    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: IntersectionLattice, coeffs: tuple[int, ...]):
        if len(coeffs) != lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")
        if not set(map(type, coeffs)) <= {int}:
            raise TypeError("HClass coordinates must be ints")
        super().__init__(lattice, coeffs)

    def __neg__(self) -> "HClass":
        return HClass(self.lattice, tuple(-a for a in self.coeffs))

    def __mul__(self, k: int) -> "HClass":
        return HClass(self.lattice, tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__


class QClass(Frozen):
    """Rational class: the extension of a class across a blowdown."""

    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: IntersectionLattice, coeffs: Sequence[Scalar]):
        if len(coeffs) != lattice.rank:
            raise ValueError("coordinate length does not match lattice rank")
        from fractions import Fraction

        super().__init__(lattice, tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs))


def pairing(a: Union[HClass, QClass], b: Union[HClass, QClass]) -> Fraction:
    """Intersection pairing a . b: the coordinates summed over the nonzero
    Gram entries, over den.  Integer coordinates sum in ints; Fraction
    coordinates (a QClass) run through the same loop and give the exact
    pairing."""
    from fractions import Fraction

    if a.lattice != b.lattice:
        raise ValueError("lattice mismatch: classes live in different lattices")
    y = b.coeffs
    total = 0
    for i, xi in enumerate(a.coeffs):
        if xi:
            s, off = a.lattice.sparse_gram[i]
            total += xi * (s * y[i] + sum(g * y[j] for j, g in off))
    return Fraction(total, a.lattice.den)


def characteristic_squares(
    lattice: IntersectionLattice, keys: Collection[Sequence[Scalar]]
) -> list[Optional[Scalar]]:
    """den * (c . c), with den = lattice.den, for each class c = key that is
    characteristic: c . x = x . x (mod 2) for every basis vector x, both
    pairings being integers.  None for the others.  Integer keys give int
    squares; Fraction keys run through the same loop and give the exact
    rational test and square.

    The keys are read as columns, one per lattice coordinate i: the nonzero
    entries of Gram row i give the column dots = den * (c . x_i) of every
    class, the parity test reads it, and coordinate i times dots adds into
    every square.  A zero row pairs every class to 0 = x_i . x_i and adds 0
    to the square, so only the columns of nonzero rows, all that a nonzero
    entry reads, are read from the keys: a fiber lattice [[0]] reads none.
    A row that reads only zero columns is one parity test for every class.
    """
    n = len(keys)
    lden = lattice.den
    rows = lattice.sparse_gram
    if not n or (lden > 1 and any(s % lden for s, _ in rows)):
        return [None] * n  # no classes, or some x . x is not an integer
    # one tuple per column read, not one zip iterator per key
    cols = {i: tuple(map(itemgetter(i), keys)) for i, (s, off) in enumerate(rows) if s or off}
    modulus = 2 * lden
    squares = [0] * n
    bad: set[int] = set()
    zero = {i for i, col in cols.items() if not any(col)}
    for i, col in cols.items():
        s, off = rows[i]
        if i in zero and all(j in zero for j, _ in off):
            if s % modulus:
                bad.update(range(n))
            continue
        dots = list(map(mul, col, repeat(s)))
        for j, g in off:
            dots = list(map(add, dots, map(mul, cols[j], repeat(g))))
        # c . x_i is an integer of the parity of x_i . x_i = s / den exactly
        # when dots = s modulo 2 * den
        odd = list(map(mod, map(sub, dots, repeat(s)), repeat(modulus)))
        if any(odd):
            bad.update(compress(range(n), odd))
        squares = list(map(add, squares, map(mul, col, dots)))
    for k in bad:
        squares[k] = None
    return squares


def is_characteristic(lattice: IntersectionLattice, c: Union[HClass, QClass]) -> bool:
    """True when c . x = x . x (mod 2) for every basis vector x, through
    characteristic_squares; Fraction coordinates take the same path.

    Requires the relevant pairings to be integers; a class pairing fractionally
    with some basis vector is never characteristic here.
    """
    if c.lattice != lattice:
        raise ValueError("lattice mismatch: class does not live in this lattice")
    return characteristic_squares(lattice, [c.coeffs])[0] is not None


class Residue(Frozen):
    """An element of Z_m, stored as its least nonnegative representative."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        super().__init__(value % modulus, modulus)

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
        super().__init__(weights, tuple(head), tuple(reversed(tail)))

    @property
    def det(self) -> int:
        return self.head[-1]

    def entries(self, at: int = 0) -> dict[tuple[int, int], int]:
        """The nonzero entries {(i, j): x} of the intersection matrix, -a_i on
        the diagonal and 1 beside it, with rows and columns shifted by at."""
        out = {}
        for i, a in enumerate(self.weights, start=at):
            out[i, i] = -a
            if i > at:
                out[i, i - 1] = out[i - 1, i] = 1
        return out

    def matrix(self) -> list[list[int]]:
        """The intersection matrix, dense."""
        r, e = range(len(self.weights)), self.entries()
        return [[e.get((i, j), 0) for j in r] for i in r]

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


@lru_cache(maxsize=None)
def scaled_plumbing_inverse(p: int) -> tuple[tuple[int, ...], ...]:
    """p^2 times the inverse of the order-p chain's matrix, an integer matrix
    in closed form: entry (i, j) = j (i (p+1) - p^2) for j <= i, symmetric."""
    if p < 2:
        raise ValueError("chain order p must be at least 2")
    return tuple(
        tuple(min(i, j) * (max(i, j) * (p + 1) - p * p) for j in range(1, p)) for i in range(1, p)
    )


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
        super().__init__(p, integral_coords(coeffs))


def rel_pairing(a: RelClass, b: RelClass) -> Fraction:
    """Pairing on relative classes.

    In delta coordinates the matrix is ((p+1)/p^2) J - I, i.e. diagonal
    -(p^2 - p - 1)/p^2 and off-diagonal (p+1)/p^2; equivalently the gamma
    basis pairs by the inverse plumbing matrix.
    """
    from fractions import Fraction

    if a.p != b.p:
        raise ValueError(f"chain order mismatch: p={a.p} vs p={b.p}")
    x, y = a.coeffs, b.coeffs
    dot = sum(u * v for u, v in zip(x, y))
    return Fraction((a.p + 1) * sum(x) * sum(y), a.p * a.p) - dot


def boundary(e: RelClass) -> Residue:
    """Boundary onto H_1 of the lens space: sum of delta coordinates mod p^2,
    so gamma_j = delta_1 + ... + delta_j maps to j."""
    return Residue(sum(e.coeffs), e.p * e.p)
