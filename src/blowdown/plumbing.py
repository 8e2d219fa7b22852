"""The order-p chain, spheres u_1, ..., u_{p-1} of squares -2, ..., -2, -(p+2)
plumbed in a line, bounds L(p^2, p-1); rational blowdown replaces it by a
rational ball.  This module carries the integral bookkeeping for that surgery:

* `Plumbing`, a linear plumbing whose matrix, determinant, solve and boundary
  map are read off two continuant tables, and the order-p chain
  `chain_plumbing(p)`; `scaled_plumbing_inverse` is the closed form of
  p^2 P^-1 that the continuant solve is checked against,
* relative second homology of the chain in the difference basis delta_i =
  gamma_i - gamma_{i-1}, gamma dual to the spheres, where class enumeration
  happens,
* the boundary map onto Z_{p^2} and its fold onto {0, ..., floor(p^2/2)}.

It and .lattice import nothing of each other, so .moduli loads no lattice.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import TYPE_CHECKING, Sequence, Union

from .reporting import Frozen, integral_coords

if TYPE_CHECKING:  # only the relative pairing is rational
    from fractions import Fraction


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

    def __init__(self, p: int, coeffs: Sequence[Union[int, Fraction]]):
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
