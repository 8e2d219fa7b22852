"""Intersection lattices, their classes, and the characteristic-ness tests.

A lattice stores its Gram matrix as its nonzero integer numerators, row by
row (`sparse_gram`), over one common denominator `den` (1 for every lattice
except the refined fiber lattices); the dense matrix is formed only to be
printed.  Every product here walks those entries, and `pairing` returns one
exact `Fraction`, the total over `den`.  `characteristic_squares` is the one
characteristic test, and it reads a batch of classes as columns, one per
lattice coordinate: the nonzero entries of Gram row i give the column of
every c . x_i, the parity test runs on that column, and the same dots add
into the squares den * c . c.  The chain's own arithmetic lives in
.plumbing; a chain embedded in a lattice, and the lattice it blows down to,
in .chain_surgery.  Classes carry their lattice, and pairing classes of
different lattices is an error, never a coercion.
"""

from __future__ import annotations

from itertools import compress, repeat
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
    every square.  Only the live columns are built, those a nonzero Gram
    entry reads and some key is nonzero at, read off each key's support once
    (a fiber lattice [[0]] reads no key); a row that reads no live column is
    one parity test for every class.
    """
    n = len(keys)
    lden = lattice.den
    rows = lattice.sparse_gram
    if not n or (lden > 1 and any(s % lden for s, _ in rows)):
        return [None] * n  # no classes, or some x . x is not an integer
    read = {i for i, (s, off) in enumerate(rows) if s or off}
    live, coords = set(), tuple(range(lattice.rank))
    for key in keys:
        if read <= live:
            break
        live.update(compress(coords, key))
    # one tuple per live column, not one zip iterator per key
    cols = {i: tuple(map(itemgetter(i), keys)) for i in read & live}
    modulus = 2 * lden
    squares = [0] * n
    bad: set[int] = set()
    for i, (s, off) in enumerate(rows):
        col, reads = cols.get(i), [(cols[j], g) for j, g in off if j in cols]
        if col is None and not reads:
            if s % modulus:
                bad.update(range(n))
            continue
        dots = [0] * n if col is None else list(map(mul, col, repeat(s)))
        for other, g in reads:
            dots = list(map(add, dots, map(mul, other, repeat(g))))
        # c . x_i is an integer of the parity of x_i . x_i = s / den exactly
        # when dots = s modulo 2 * den
        odd = list(map(mod, map(sub, dots, repeat(s)), repeat(modulus)))
        if any(odd):
            bad.update(compress(range(n), odd))
        if col is not None:
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
