"""The rational blowdown of a chain configuration.  chain_pushoff moves the
classes of both calculi across a blowdown (e -= p-1, sigma += p-1).  Only a
plan with a chain or hpsum step and `verify identities` load this module, and
.linalg only where a matrix is used; the nodal models built on it live in
.nodal.

A chain of order p is sparse data (ChainConfig) with |det P| = p^2, so
chain_pushoff runs on integer numerators over p^2 and builds no Fraction,
from the continuant solve of the chain's Plumbing through the Hermite basis
of the blown-down lattice, taken in blocks on the chain's own coordinates,
to the images' coordinates: a chain step is linear in the rank, not rank^2.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Optional, Sequence

from .exppoly import ExpKernel
from .lattice import HClass, IntersectionLattice
from .plumbing import chain_plumbing
from .reporting import Frozen
from .transform import ManifoldSeries


def _support(v: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple(zip(compress(range(len(v)), v), filter(None, v)))


def _gram_products(lattice: IntersectionLattice, supports: Sequence) -> tuple[list, dict]:
    """The rows num . v and the Gram matrix {(a, b): x} over `num` of vectors
    v, all by their nonzero entries (`_support`), summed over those alone."""
    sparse, rows, cols, gram = lattice.sparse_gram, [], {}, {}
    for b, supp in enumerate(supports):
        w: dict[int, int] = {}
        for k, a in supp:
            if not 0 <= k < len(sparse):
                raise ValueError(f"coordinate {k} outside the lattice rank")
            s, off = sparse[k]
            for j, g in ((k, s), *off):
                w[j] = w.get(j, 0) + a * g
        rows.append(tuple((j, x) for j, x in sorted(w.items()) if x))
        for j, x in rows[-1]:
            cols.setdefault(j, []).append((b, x))
    for a, supp in enumerate(supports):
        for k, x in supp:
            for b, y in cols.get(k, ()):
                gram[a, b] = gram.get((a, b), 0) + x * y
    return rows, {key: x for key, x in gram.items() if x}


def restricted(
    lattice: IntersectionLattice, basis_names: Sequence[str], rows: Sequence, den: int
) -> IntersectionLattice:
    """The lattice whose basis vectors are rows / den in lattice's basis, each
    row given by its nonzero integer entries (i, v), with the pairing
    restricted to them: its Gram B G B^t, formed over those entries alone."""
    gram = _gram_products(lattice, rows)[1]
    return IntersectionLattice(basis_names, gram, lattice.den * den * den)


class ChainConfig(Frozen):
    """An order-p chain embedded in an ambient lattice.

    The spheres u_1, ..., u_{p-1} are given as classes or by their nonzero
    entries ((i, v), ...), kept as `supports`; their mutual pairings must
    reproduce `plumbing` = chain_plumbing(p) exactly.  `row_supports` holds
    the nonzero (i, v) of each row G.u_j over ambient.den, and index[i] the
    (j, v) of the rows holding coordinate i: a class pairs with the spheres
    through its own nonzero coordinates (`dots`), and direction i is
    orthogonal to the chain when index[i] is empty.
    """

    __slots__ = ("p", "plumbing", "ambient", "supports", "row_supports", "index")

    def __init__(self, p: int, ambient: IntersectionLattice, spheres: Sequence):
        plumbing = chain_plumbing(p)
        if len(spheres) != p - 1:
            raise ValueError(f"order-{p} chain needs {p - 1} sphere classes")
        if any(isinstance(s, HClass) and s.lattice != ambient for s in spheres):
            raise ValueError("lattice mismatch: sphere class not in the ambient lattice")
        supports = tuple(_support(s.coeffs) if isinstance(s, HClass) else tuple(s) for s in spheres)
        rows, gram = _gram_products(ambient, supports)
        if gram != {key: x * ambient.den for key, x in plumbing.entries().items()}:
            raise ValueError("sphere pairings do not form the order-%d plumbing chain" % p)
        index: list[list] = [[] for _ in range(ambient.rank)]
        for j, row in enumerate(rows):
            for i, v in row:
                index[i].append((j, v))
        super().__init__(p, plumbing, ambient, supports, tuple(rows), tuple(map(tuple, index)))

    def dots(self, c: HClass) -> list[int]:
        """The pairings c . u_j, as integers over ambient.den."""
        if c.lattice != self.ambient:
            raise ValueError("lattice mismatch: classes live in different lattices")
        out, coeffs = [0] * (self.p - 1), c.coeffs
        for i in compress(range(len(coeffs)), coeffs):
            for j, v in self.index[i]:
                out[j] += coeffs[i] * v
        return out

    def __reduce__(self):  # copy and pickle rebuild through the validating constructor
        return ChainConfig, (self.p, self.ambient, self.supports)


class ClassRecord(Frozen):
    """Audit entry for one input class under a blowdown; status is "kept" or
    "dropped", and a dropped class has no extension (numerators over p^2) or
    image (None)."""

    __slots__ = ("source", "status", "residue", "extension", "image", "reason")


class BlowdownResult(Frozen):
    """result is the blown-down ManifoldSeries or SWMap."""

    __slots__ = ("result", "class_map")


class RestrictedClass(Frozen):
    """Result of pushing a class off a chain configuration.

    extension: the ambient rational class kappa + sum x_i u_i orthogonal to every
        sphere of the configuration, as integer numerators over det = p^2.
    boundary: the class (a Residue) of the relative restriction in Z_{p^2}; the extension
        descends to the blowdown exactly when this lies in the index-p subgroup.
    """

    __slots__ = ("extension", "boundary")


def _is_taut(g: Sequence[int], bound: int) -> bool:
    """Pairings g with the chain spheres: zero on the interior spheres and at
    most bound in absolute value on the end sphere."""
    return not any(g[:-1]) and abs(g[-1]) <= bound


def _chain_pairings(c: ChainConfig, kappa: HClass) -> list[int]:
    g, den = c.dots(kappa), c.ambient.den
    if den > 1:
        if any(x % den for x in g):
            raise ValueError("class pairs non-integrally with the configuration")
        g = [x // den for x in g]
    return g


def _extension(c: ChainConfig, kappa: HClass, g: Sequence[int]) -> tuple[int, ...]:
    """The integer numerators of det (kappa + sum x_i u_i), det = p^2, x solving
    (kappa + sum x_i u_i) . u_j = 0 given the pairings g_j = kappa . u_j:
    det x = c.plumbing.solve(g), and x_i moves u_i's support."""
    det = c.plumbing.det
    ext = [det * a for a in kappa.coeffs]
    for xi, supp in zip(c.plumbing.solve(g), c.supports):
        if xi:
            for k, a in supp:
                ext[k] += xi * a
    return tuple(ext)


def _square(lattice: IntersectionLattice, v: Sequence[int]) -> int:
    """den * v . v, summed in ints over v's nonzero coordinates."""
    rows = lattice.sparse_gram
    return sum(
        v[i] * (rows[i][0] * v[i] + sum(g * v[j] for j, g in rows[i][1]))
        for i in compress(range(len(v)), v)
    )


def restrict_class(c: ChainConfig, kappa: HClass) -> RestrictedClass:
    """Solve (kappa + sum x_i u_i) . u_j = 0 and report the orthogonal
    extension, as integer numerators over det, and the boundary class of the
    relative restriction."""
    if kappa.lattice != c.ambient:
        raise ValueError("class does not live in the configuration's ambient lattice")
    g = _chain_pairings(c, kappa)
    return RestrictedClass(_extension(c, kappa, g), c.plumbing.boundary(g))


def _blown_down_lattice(
    c: ChainConfig,
    extensions: Sequence[tuple[int, ...]],
    image_names: Optional[Sequence[str]],
) -> tuple[IntersectionLattice, list[tuple[tuple[int, int], ...]]]:
    """Canonical basis for the group generated by the surviving extensions and
    the ambient unit directions orthogonal to the configuration.

    Rows are integer numerators over p^2, as _extension gives them, returned
    as their nonzero entries (i, v), pivot first.  The group holds p^2 e_i
    for each i off the chain (in no row G.u_j), so the extensions reduce mod
    p^2 there, and hnf_rows runs on the chain's coordinates and those a
    reduced extension still touches, with their p^2 e_i.  Every other p^2 e_i
    is a row of its own: disjoint blocks, so merged by pivot column they are
    the one Hermite basis.  Rows p^2 e_i keep e_i's name; the others are
    named from image_names (in row order), with k1, k2, ... as the fallback.
    """
    from .linalg import hnf_rows

    amb = c.ambient
    p2 = c.p * c.p
    off = [not held for held in c.index]
    reduced = [[a % p2 if o else a for a, o in zip(ext, off)] for ext in extensions]
    touched = {i for ext in reduced for i in compress(range(amb.rank), ext) if off[i]}
    cols = [i for i, o in enumerate(off) if not o or i in touched]
    block = [[ext[i] for i in cols] for ext in reduced]
    block += [[p2 if j == i else 0 for j in cols] for i in sorted(touched)]
    basis = [tuple(zip(compress(cols, row), filter(None, row))) for row in hnf_rows(block)]
    basis += [((i, p2),) for i, o in enumerate(off) if o and i not in touched]
    if not basis:
        raise ValueError(
            "blown-down lattice model is empty; the ambient model needs a direction "
            "disjoint from the configuration"
        )
    basis.sort(key=lambda row: row[0][0])
    fresh, auto = iter(image_names or ()), count(1)
    unit = [len(row) == 1 and row[0][1] == p2 for row in basis]
    names = [amb.basis_names[row[0][0]] if u else next(fresh, None) for row, u in zip(basis, unit)]
    names = [f"k{next(auto)}" if name is None else name for name in names]
    if len(set(names)) != len(names):
        raise ValueError(f"image names collide with surviving ambient names: {names}")
    return restricted(amb, names, basis, p2), basis


# ClassRecord.reason of a class that a taut blowdown drops because it misses
# the end sphere; every other taut drop has no extension at all.
ORTHOGONAL = "pairs to zero with the end sphere"


def chain_pushoff(
    c: ChainConfig,
    classes: Sequence[HClass],
    keep: Optional[Sequence[bool]],
    image_names: Optional[Sequence[str]],
) -> tuple[IntersectionLattice, list[ClassRecord]]:
    """Move classes across the rational blowdown of a chain configuration.

    With keep None the taut rule decides: every class must pair to 0 with the
    interior spheres and to at most p with the end sphere, the classes meeting
    the end sphere in +-p are kept, and each kept extension must square to the
    class square plus p-1.  Otherwise keep[i] is the caller's verdict on
    classes[i] (the twist route decides it from coefficients).  A kept
    extension must descend: its boundary residue lies in the index-p subgroup.

    Returns the blown-down lattice and one record per class, in input order,
    with its residue and reason.  Only kept classes get an extension (integer
    numerators over p^2) and an image, so a dropped class costs its pairings
    alone.
    """
    from .linalg import span_coords

    p = c.p
    amb, p4 = c.ambient, p**4
    shift = (p - 1) * amb.den  # den times the shift p-1 of a survivor's square
    pairings = [_chain_pairings(c, kappa) for kappa in classes]
    if keep is None and not all(_is_taut(g, p) for g in pairings):
        raise ValueError("configuration is not tautly embedded for these classes")
    records: list[ClassRecord] = []
    extensions: list[tuple[int, ...]] = []
    for i, (kappa, g) in enumerate(zip(classes, pairings)):
        residue = c.plumbing.boundary(g)
        end = g[-1]
        if keep is None:
            kept = abs(end) == p
            if kept:
                reason = f"meets the end sphere in {end}"
            elif end == 0:
                reason = ORTHOGONAL
            else:
                reason = f"pairing {end} with the end sphere admits no extension across the blowdown"
        else:
            kept = keep[i]
            reason = "coefficient survives the twist" if kept else "coefficient cancels under the twist"
        if not kept:
            records.append(ClassRecord(kappa.coeffs, "dropped", residue.value, None, None, reason))
            continue
        if not residue.in_subgroup(p):
            raise ValueError(
                f"class {kappa.coeffs} is kept but does not extend across the blowdown "
                f"(boundary {residue.value} mod {p * p})"
            )
        ext = _extension(c, kappa, g)
        if keep is None and _square(amb, ext) != (_square(amb, kappa.coeffs) + shift) * p4:
            raise RuntimeError("extension square does not shift by p-1 on a taut survivor")
        extensions.append(ext)
        records.append(ClassRecord(kappa.coeffs, "kept", residue.value, ext, None, reason))
    lat, basis = _blown_down_lattice(c, extensions, image_names)
    for k, r in enumerate(records):
        if r.extension is not None:
            image = span_coords(basis, r.extension)
            if image is None:
                raise RuntimeError("extension class is not integral on the blown-down lattice")
            records[k] = ClassRecord(
                r.source, r.status, r.residue, r.extension, tuple(image), r.reason
            )
    return lat, records


def taut_blowdown(
    m: ManifoldSeries, c: ChainConfig, image_names: Optional[Sequence[str]] = None
) -> BlowdownResult:
    """Rational blowdown of a tautly embedded chain configuration.

    Classes pairing to +-p with the end sphere survive with coefficient scaled
    by 2^(p-1) and square increased by p-1; all others drop.  Surviving
    extensions must descend (boundary class in the index-p subgroup).
    """
    if c.ambient != m.lattice:
        raise ValueError("configuration does not live in the series lattice")
    p = c.p
    lat, records = chain_pushoff(c, m.basic_classes(), None, image_names)
    num: dict[tuple[int, ...], int] = {}  # 2^(p-1) times each survivor's numerator
    for r in (r for r in records if r.status == "kept"):
        num[r.image] = num.get(r.image, 0) + (m.kernel.num[r.source] << (p - 1))
    kernel = ExpKernel._from_ints(lat, num, m.kernel.den)
    series = ManifoldSeries(kernel, m.euler - (p - 1), m.signature + (p - 1))
    return BlowdownResult(series, tuple(records))
