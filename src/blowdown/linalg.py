"""Exact linear algebra on small dense matrices.

Everything in this package is exact: matrices are lists of lists of ints or
fractions.Fraction, never floats.  Sizes are tiny (rank at most a few dozen),
so plain Gaussian elimination is all we need.  The rational matrices serve
the checks; the blowdown runs on integers: Hermite forms and Z-span
coordinates of numerators over one common denominator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Vector = Sequence[Fraction]
Matrix = Sequence[Sequence[Fraction]]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> list[list[Fraction]]:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        arow, orow = a[i], out[i]
        for k in range(inner):
            aik = arow[k]
            if aik == 0:
                continue
            brow = b[k]
            for j in range(cols):
                if brow[j]:
                    orow[j] += aik * brow[j]
    return out


def mat_vec(a: Matrix, v: Vector) -> list[Fraction]:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), Fraction(0)) for row in a]


def transpose(a: Matrix) -> list[list[Fraction]]:
    return [list(col) for col in zip(*a)]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def solve(a: Matrix, rhs: Vector) -> list[Fraction]:
    """Solve a x = rhs for square nonsingular a.  Raises ValueError if singular."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def mat_inverse(a: Matrix) -> list[list[Fraction]]:
    n = len(a)
    cols = [solve(a, [Fraction(1) if i == j else Fraction(0) for i in range(n)]) for j in range(n)]
    return transpose(cols)


def hnf_rows(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Hermite-style Z-basis of the subgroup of Z^n generated by the rows.

    Result rows are in echelon form ordered by pivot column, pivots positive,
    entries above each pivot reduced into [0, pivot).  This presentation is
    unique for the subgroup, which makes downstream constructions canonical.
    """
    if not vectors:
        return []
    n = len(vectors[0])
    work = [list(v) for v in vectors if any(v)]
    basis: list[list[int]] = []
    for col in range(n):
        live = [r for r in work if r[col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            for r in live[1:]:
                q = r[col] // base[col]
                if q:
                    for j in range(n):
                        r[j] -= q * base[j]
            live = [r for r in work if r[col] != 0]
        piv = live[0]
        work = [r for r in work if r is not piv and any(r)]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
    for i in reversed(range(len(basis))):
        pcol = next(j for j, x in enumerate(basis[i]) if x)
        for k in range(i):
            q = basis[k][pcol] // basis[i][pcol]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return basis


def span_coords(basis: Sequence[Sequence[int]], v: Sequence[int]) -> Optional[list[int]]:
    """Integer coordinates of v in an echelon (by leading column) integer
    basis, or None when v is not in its Z-span (a pivot leaves a remainder)."""
    residual = list(v)
    coords: list[int] = []
    for row in basis:
        lead = next(j for j, x in enumerate(row) if x)
        c, r = divmod(residual[lead], row[lead])
        if r:
            return None
        coords.append(c)
        if c:
            residual = [a - c * x for a, x in zip(residual, row)]
    if any(residual):
        return None
    return coords
