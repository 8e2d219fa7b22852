"""Where an order-p log transform moves classes, for both calculi: the fiber
direction refined so s/p is integral and each class's ladder along it.
log_transform, sw_log_transform and nodal_log_pipeline load it when called."""

from __future__ import annotations

import re
from itertools import compress, repeat
from math import gcd
from operator import add, itemgetter, mul
from typing import Collection

from .lattice import HClass, IntersectionLattice
from .reporting import Frozen


def refined_lattice(
    lattice: IntersectionLattice, old: HClass, divisor: int, new_name: str
) -> IntersectionLattice:
    """Replace the basis direction `old` by a 1/divisor fraction of itself.

    `old` must be exactly one of the basis vectors.  The new primitive vector
    nu satisfies old = divisor * nu; pairings scale accordingly.
    """
    if old.lattice != lattice:
        raise ValueError("lattice mismatch: direction not in this lattice")
    if divisor < 1:
        raise ValueError("divisor must be a positive integer")
    ones = [i for i, c in enumerate(old.coeffs) if c]
    if len(ones) != 1 or old.coeffs[ones[0]] != 1:
        raise ValueError("refinement direction must be a basis vector")
    idx = ones[0]
    names = list(lattice.basis_names)
    if new_name != names[idx] and new_name in names:
        raise ValueError(f"basis name {new_name!r} already in use")
    names[idx] = new_name
    # numerators over den * divisor^2: entry (i, j) scales by s_i s_j, with
    # s = divisor off nu and 1 on nu, so nu's own square keeps its numerator
    s = [divisor] * lattice.rank
    s[idx] = 1
    gram = {(i, j): x * s[i] * s[j] for (i, j), x in lattice.entries.items()}
    return IntersectionLattice(names, gram, lattice.den * divisor * divisor)


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
