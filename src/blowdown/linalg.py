"""Exact integer linear algebra.

Everything in this package is exact: vectors are lists of ints, never
floats.  Three routines serve the package: the integer matrix-vector product
of the checks, the Hermite form of dense rows, and Z-span coordinates in a
Hermite basis given by its rows' nonzero entries.  The chain blowdown takes
its Hermite form in blocks, so hnf_rows sees about p coordinates for an
order-p chain, whatever the ambient rank (1,595 for `witten H(800)`).
"""

from __future__ import annotations

from operator import mul
from typing import Optional, Sequence


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in a]


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


def span_coords(basis: Sequence[Sequence[tuple]], v: Sequence[int]) -> Optional[list[int]]:
    """Integer coordinates of v in an echelon (by leading column) integer
    basis whose rows are given by their nonzero entries (j, x), pivot first,
    or None when v is not in its Z-span (a pivot leaves a remainder)."""
    residual = list(v)
    coords: list[int] = []
    for row in basis:
        lead, x = row[0]
        c, r = divmod(residual[lead], x)
        if r:
            return None
        coords.append(c)
        if c:
            for j, y in row:
                residual[j] -= c * y
    if any(residual):
        return None
    return coords
