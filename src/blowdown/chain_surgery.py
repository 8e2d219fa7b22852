"""The rational blowdown of a chain configuration and the nodal models built
on it.  chain_pushoff moves the classes of both calculi across a blowdown
(e -= p-1, sigma += p-1).  Only a plan with a chain or hpsum step and `verify
identities` load this module, and .linalg only where a matrix is used.

A chain of order p is sparse data (ChainConfig) with |det P| = p^2, so
chain_pushoff runs on integer numerators over p^2 and builds no Fraction,
from the continuant solve of the chain's Plumbing through the Hermite basis
of the blown-down lattice, taken in blocks on the chain's own coordinates,
to the images' coordinates: a chain step is linear in the rank, not rank^2.

The nodal models push each basic class and each exceptional direction off
their chain once (_check_nodal_chain); restriction is affine, so that covers
all 2^(p-1) sign patterns, whose enumeration tests/test_nodal_check.py keeps.
"""

from __future__ import annotations

from itertools import chain, compress, count
from typing import Optional, Sequence

from .exppoly import ExpKernel, exact_div, sinh_c, twist
from .lattice import HClass, IntersectionLattice
from .plumbing import chain_plumbing, scaled_plumbing_inverse
from .reporting import Frozen
from .transform import ManifoldSeries, blown_up_lattice, log_placement


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


def p2_blowdown(
    m: ManifoldSeries, sigma: HClass, image_names: Optional[Sequence[str]] = None
) -> BlowdownResult:
    """Blowdown of a single square -4 sphere via the coefficient twist:
    the new kernel is K - twist(K, sigma), classes then pushed off the sphere.

    Agrees with taut_blowdown whenever the sphere is taut (|class.sigma| <= 2),
    but is defined without that hypothesis.
    """
    if sigma.lattice != m.lattice:
        raise ValueError("lattice mismatch: sphere class not in the series lattice")
    if _square(m.lattice, sigma.coeffs) != -4 * m.lattice.den:
        raise ValueError("the sphere class must have square -4")
    k2 = m.kernel - twist(m.kernel, sigma)
    classes = m.basic_classes()
    keep = [bool(k2.coeff(kappa)) for kappa in classes]
    lat, records = chain_pushoff(ChainConfig(2, m.lattice, [sigma]), classes, keep, image_names)
    terms = [(r.image, k2.num[r.source]) for r in records if r.status == "kept"]
    kernel = ExpKernel._from_ints(lat, dict(ExpKernel(lat, terms).num), k2.den)  # sum, then / den
    series = ManifoldSeries(kernel, m.euler - 1, m.signature + 1)
    return BlowdownResult(series, tuple(records))


def formal_log_coefficients(p: int) -> list[tuple[int, int]]:
    """Coefficients of sinh(p*u)/sinh(u) as (exponent, coefficient) pairs,
    exponent descending.  Computed by exact Laurent division on a scratch
    rank-1 lattice, not written down: the all-ones answer is a theorem here.
    The coefficients are ints; a non-integral quotient raises ValueError."""
    if p < 1:
        raise ValueError("order must be >= 1")
    scratch = IntersectionLattice(["u"], [[0]])
    u = scratch.basis_class("u")
    q = exact_div(sinh_c(u * p), sinh_c(u))
    if q.den != 1:
        raise ValueError(f"sinh({p}u)/sinh(u) has a non-integral coefficient")
    return sorted(((key[0], c) for key, c in q.num.items()), reverse=True)


def _exceptional_chain_spheres(
    lat: IntersectionLattice, exc_names: Sequence[str], s_coeffs: tuple[int, ...]
) -> list[tuple[tuple[int, int], ...]]:
    """The nonzero entries of the chain of length p-1 carried by p-1
    exceptional directions: sphere i has row i of _nodal_rows(p) as its
    coordinates along them, and the end sphere also carries the fiber class
    s_coeffs (zero for no fiber)."""
    where = {name: i for i, name in enumerate(lat.basis_names)}
    at = [where[name] for name in exc_names]
    spheres = [{at[k]: a for k, a in row} for row in _nodal_rows(len(exc_names) + 1)]
    for i, a in _support(s_coeffs):
        spheres[-1][i] = spheres[-1].get(i, 0) + a
    return [tuple(sorted((i, a) for i, a in sphere.items() if a)) for sphere in spheres]


def _nodal_rows(p: int) -> list[tuple[tuple[int, int], ...]]:
    """A by its rows' nonzero entries (k, a): row i holds the coordinates of
    the i-th sphere of the exceptional chain (no fiber) in the exceptional
    directions e_1, ..., e_{p-1}, counted from 0."""
    rows = [((p - i - 2, 1), (p - i - 1, -1)) for i in range(1, p - 1)]
    return rows + [((0, -2),) + tuple((k, -1) for k in range(1, p - 1))]


def verify_nodal_matrix_identity(p: int) -> bool:
    """Exact integer checks of the linear algebra behind the nodal-chain
    extension.  With A the change-of-basis matrix of the exceptional chain
    and S = p^2 P^{-1} (scaled_plumbing_inverse): P = -A A^t, which is
    P (A^t)^{-1} = -A; A^t S A = -p^2 I; and the end coordinate of
    S A (1,...,1) equals p(p-1), that is (p-1)/p over p^2.  A wrong A gives
    False, never an error."""
    from .linalg import mat_vec

    if p < 2:
        raise ValueError("need p >= 2")
    n, p2 = p - 1, p * p
    a = [[dict(row).get(k, 0) for k in range(n)] for row in _nodal_rows(p)]
    s = scaled_plumbing_inverse(p)
    if chain_plumbing(p).matrix() != [[-x for x in mat_vec(a, row)] for row in a]:
        return False
    at = list(zip(*a))
    for j, col in enumerate(at):
        if mat_vec(at, mat_vec(s, col)) != [-p2 if i == j else 0 for i in range(n)]:
            return False
    return mat_vec(s, mat_vec(a, [1] * n))[n - 1] == p * (p - 1)


def _check_nodal_chain(m: ManifoldSeries, p: int, s: Optional[HClass]) -> None:
    """Blow up p-1 times, form the exceptional chain (ending on the fiber s
    when given) and check that every kappa + eps, eps a sign vector on the
    exceptional directions, pushes off to kappa + (sum(eps) / p) * s with
    boundary p * sum(eps) mod p^2.  Restriction is affine in the class, so
    it is enough that each basic class extends to itself with boundary 0
    and each exceptional direction to s/p (0 without a fiber) with boundary
    p, compared as integer numerators over det = p^2.  Raises RuntimeError
    on a mismatch."""
    up = blown_up_lattice(m.lattice, p - 1)
    pad, det = (0,) * (p - 1), p * p
    s_up = (s.coeffs if s is not None else (0,) * m.lattice.rank) + pad
    exc_names = up.basis_names[m.lattice.rank :]
    config = ChainConfig(p, up, _exceptional_chain_spheres(up, exc_names, s_up))
    step = tuple(p * a for a in s_up)  # det * s / p
    checks = [(HClass(up, key + pad), tuple(det * a for a in key + pad), 0) for key in m.kernel.num]
    for kappa, want, b in chain(checks, ((up.basis_class(nm), step, p) for nm in exc_names)):
        r = restrict_class(config, kappa)
        if r.extension != want or r.boundary.value != b:
            raise RuntimeError(
                f"nodal push-off of {kappa.coeffs}: got extension {r.extension}/{det} with "
                f"boundary {r.boundary.value}, expected {want}/{det} with boundary {b}"
            )


def nodal_log_pipeline(m: ManifoldSeries, s: HClass, p: int) -> ManifoldSeries:
    """Order-p log transform built the long way: blow up p-1 times, check
    the push-offs off the exceptional chain ending on the fiber
    (_check_nodal_chain), and reassemble with the division-derived ladder
    coefficients.  Must agree with log_transform exactly."""
    if p < 2:
        raise ValueError("need p >= 2")
    place = log_placement(m.lattice, m.kernel.num, s, p)
    _check_nodal_chain(m, p, s)
    ladder = formal_log_coefficients(p)
    terms = [(place.image(key, j), a * b) for key, a in m.kernel.num.items() for j, b in ladder]
    num = dict(ExpKernel(place.lattice, terms).num)  # sum, then / den
    kernel = ExpKernel._from_ints(place.lattice, num, m.kernel.den)
    return ManifoldSeries(kernel, m.euler, m.signature)


def connected_sum_hp(m: ManifoldSeries, p: int) -> ManifoldSeries:
    """Connected sum with the homology ball double H_p, realized as blowing up
    p-1 times and blowing down the exceptional chain that misses the fiber.
    Every extension equals its source class, so the kernel just scales by the
    ladder total p; euler and signature are unchanged."""
    if p < 1:
        raise ValueError("order must be >= 1")
    if p == 1:
        return m
    _check_nodal_chain(m, p, None)
    total = sum(c for _, c in formal_log_coefficients(p))
    return ManifoldSeries(m.kernel.scale(total), m.euler, m.signature)
