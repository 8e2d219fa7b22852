"""Surgery transforms on series kernels, and the surgery geometry they share
with the basic-class calculus.

Implements the kernel-level effect of the standard cut-and-paste operations:
blowup (connected sum with a reversed projective plane), rational blowdown of a
taut chain configuration, the twist route for the length-one (p=2) blowdown,
logarithmic transform along a square-zero fiber direction, and the two model
blowdowns built from a nodal fiber (the log-transform pipeline and the
homology-ball connected sum).  Characteristic-number bookkeeping rides along:
blowup (e+1, sigma-1), chain blowdown (e-(p-1), sigma+(p-1)), log transform
neutral.

How a surgery moves lattice classes is the same for both calculi and lives in
one place per surgery: blown_up_lattice and sign_vectors, log_placement and
chain_pushoff.  The series transforms here and the basic-class transforms in
.swinv differ only in the coefficient a moved class carries.

A chain of order p has |det P| = p^2, so chain_pushoff runs on integer
numerators over p^2, from the continuant solve of the chain's Plumbing
through the Hermite basis of the blown-down lattice to the images'
coordinates.  Fractions are built only where a value leaves: a
RestrictedClass and the extension a ClassRecord prints.

The nodal models push each basic class and each exceptional direction off
their chain once (_check_nodal_chain); restriction is affine, so that covers
all 2^(p-1) sign patterns, whose enumeration tests/test_nodal_check.py keeps.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress, product, repeat
from math import gcd
from operator import add, mul
from typing import Collection, Optional, Sequence

from .exppoly import ExpKernel, exact_div, refined_lattice, sinh_c, twist
from .lattice import (
    ChainConfig,
    HClass,
    IntersectionLattice,
    QClass,
    Residue,
    characteristic_squares,
    pairing,
    plumbing_matrix,
    scaled_plumbing_inverse,
)
from .linalg import hnf_rows, mat_vec, span_coords
from .reporting import Frozen, set_field


def b_plus_of(euler: int, signature: int) -> int:
    """b_plus from the simply connected relation e + sigma = 2 + 2*b_plus;
    raises unless e, sigma are ints, e + sigma is even and b_plus odd >= 3."""
    if not (isinstance(euler, int) and isinstance(signature, int)):
        raise ValueError(f"euler and signature must be integers, got {euler!r} and {signature!r}")
    if (euler + signature - 2) % 2:
        raise ValueError("euler + signature must be even (simply connected model)")
    b = (euler + signature - 2) // 2
    if b < 3 or b % 2 == 0:
        raise ValueError(f"b_plus must be odd and >= 3, got {b}")
    return b


class ManifoldSeries(Frozen):
    """A simple-type series kernel with its characteristic numbers.

    b_plus is determined by (euler, signature) as in b_plus_of.  Every kernel
    exponent must be characteristic for the lattice.
    """

    __slots__ = ("kernel", "euler", "signature")

    def __init__(self, kernel: ExpKernel, euler: int, signature: int):
        b_plus_of(euler, signature)
        squares = characteristic_squares(kernel.lattice, kernel.num)
        if None in squares:
            bad = min(key for key, sq in zip(kernel.num, squares) if sq is None)
            raise ValueError(f"kernel class {bad} is not characteristic")
        set_field(self, "kernel", kernel)
        set_field(self, "euler", euler)
        set_field(self, "signature", signature)

    @property
    def lattice(self) -> IntersectionLattice:
        return self.kernel.lattice

    @property
    def b_plus(self) -> int:
        return b_plus_of(self.euler, self.signature)

    def basic_classes(self) -> list[HClass]:
        return [HClass(self.lattice, key) for key in sorted(self.kernel.num)]


class ClassRecord(Frozen):
    """Audit entry for one input class under a blowdown."""

    __slots__ = ("source", "status", "residue", "extension", "image", "reason")

    def __init__(
        self,
        source: tuple[int, ...],
        status: str,  # "kept" or "dropped"
        residue: int,
        extension: Optional[tuple[Fraction, ...]] = None,
        image: Optional[tuple[int, ...]] = None,
        reason: str = "",
    ):
        set_field(self, "source", source)
        set_field(self, "status", status)
        set_field(self, "residue", residue)
        set_field(self, "extension", extension)
        set_field(self, "image", image)
        set_field(self, "reason", reason)

    def to_obj(self) -> dict:
        from .serialize import fraction_str

        obj = {"source": list(self.source), "status": self.status, "residue": self.residue}
        if self.extension is not None:
            obj["extension"] = [fraction_str(x) for x in self.extension]
        if self.image is not None:
            obj["image"] = list(self.image)
        return obj


class BlowdownResult(Frozen):
    __slots__ = ("result", "class_map")

    # result is the blown-down ManifoldSeries or SWMap
    def __init__(self, result: object, class_map: tuple[ClassRecord, ...] = ()):
        set_field(self, "result", result)
        set_field(self, "class_map", class_map)


class RestrictedClass:
    """Result of pushing a class off a chain configuration.

    extension: the ambient rational class kappa + sum x_i u_i orthogonal to
        every sphere of the configuration.
    boundary: the class of the relative restriction in Z_{p^2}; the extension
        descends to the blowdown exactly when this lies in the index-p subgroup.
    """

    __slots__ = ("extension", "boundary")

    def __init__(self, extension: QClass, boundary: Residue):
        self.extension = extension
        self.boundary = boundary


def _fresh_names(lattice: IntersectionLattice, stem: str, count: int) -> list[str]:
    taken = set(lattice.basis_names)
    out = []
    i = 1
    while len(out) < count:
        name = f"{stem}{i}"
        if name not in taken:
            out.append(name)
            taken.add(name)
        i += 1
    return out


def blown_up_lattice(lattice: IntersectionLattice, k: int) -> IntersectionLattice:
    """The lattice with k exceptional square -1 directions appended, orthogonal
    to everything, called e1, e2, ..., skipping names already in use."""
    if k < 1:
        raise ValueError("blowup count must be >= 1")
    n, den = lattice.rank, lattice.den
    num = [list(row) + [0] * k for row in lattice.num] + [[0] * (n + k) for _ in range(k)]
    for i in range(n, n + k):
        num[i][i] = -den
    return IntersectionLattice(list(lattice.basis_names) + _fresh_names(lattice, "e", k), num, den)


def sign_vectors(k: int) -> list[tuple[int, ...]]:
    """The 2^k tails (+-1, ..., +-1) a blowup appends to every class, in
    increasing order."""
    return list(product((-1, 1), repeat=k))


def blowup(m: ManifoldSeries, k: int = 1) -> ManifoldSeries:
    """Add k exceptional square -1 directions and multiply the kernel by
    the product of their cosh factors; euler += k, signature -= k.  The
    product is written out in one pass: each term a e^kappa becomes
    a / 2^k e^(kappa + (+-1, ..., +-1)) over all 2^k sign patterns."""
    new_lat = blown_up_lattice(m.lattice, k)
    tails = sign_vectors(k)
    num = {key + tail: c for key, c in m.kernel.num.items() for tail in tails}
    kernel = ExpKernel._from_ints(new_lat, num, m.kernel.den << k)
    return ManifoldSeries(kernel, m.euler + k, m.signature - k)


def _is_taut(g: Sequence[int], bound: int) -> bool:
    """Pairings g with the chain spheres: zero on the interior spheres and at
    most bound in absolute value on the end sphere."""
    return not any(g[:-1]) and abs(g[-1]) <= bound


def _chain_pairings(c: ChainConfig, kappa: HClass) -> tuple[int, ...]:
    g = [divmod(x, c.ambient.den) for x in c.dots(kappa)]
    if any(r for _, r in g):
        raise ValueError("class pairs non-integrally with the configuration")
    return tuple(q for q, _ in g)


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


def restrict_class(c: ChainConfig, kappa: HClass) -> RestrictedClass:
    """Solve (kappa + sum x_i u_i) . u_j = 0 and report the orthogonal
    extension and the boundary class of the relative restriction."""
    if kappa.lattice != c.ambient:
        raise ValueError("class does not live in the configuration's ambient lattice")
    g = _chain_pairings(c, kappa)
    det = c.plumbing.det
    ext = QClass(c.ambient, tuple(Fraction(a, det) for a in _extension(c, kappa, g)))
    return RestrictedClass(ext, c.plumbing.boundary(g))


def _blown_down_lattice(
    c: ChainConfig,
    extensions: Sequence[tuple[int, ...]],
    image_names: Optional[Sequence[str]],
) -> tuple[IntersectionLattice, list[list[int]]]:
    """Canonical basis for the group generated by the surviving extensions and
    the ambient unit directions orthogonal to the configuration.

    Every row is an integer numerator over p^2, as _extension gives them.
    Returns the new lattice and its basis rows.  Rows equal to p^2 e_i keep
    e_i's name; the others are named from image_names (in row order), with
    k1, k2, ... as the fallback.
    """
    amb = c.ambient
    p2 = c.p * c.p
    gens = [ext for ext in extensions if any(ext)]
    chain = {i for supp in c.row_supports for i, _ in supp}
    for i in range(amb.rank):
        if i not in chain:
            gens.append(tuple(p2 if j == i else 0 for j in range(amb.rank)))
    if not gens:
        raise ValueError(
            "blown-down lattice model is empty; the ambient model needs a direction "
            "disjoint from the configuration"
        )
    basis = hnf_rows(gens)
    names: list[str] = []
    fresh = list(image_names) if image_names is not None else []
    auto = 0
    for row in basis:
        ones = [j for j, v in enumerate(row) if v]
        if len(ones) == 1 and row[ones[0]] == p2:
            names.append(amb.basis_names[ones[0]])
            continue
        if fresh:
            names.append(fresh.pop(0))
        else:
            auto += 1
            names.append(f"k{auto}")
    if len(set(names)) != len(names):
        raise ValueError(f"image names collide with surviving ambient names: {names}")
    return amb.restricted(names, basis, p2), basis


def _rebase(ext: tuple[int, ...], basis: list[list[int]]) -> tuple[int, ...]:
    coords = span_coords(basis, ext)
    if coords is None:
        raise RuntimeError("extension class is not integral on the blown-down lattice")
    return tuple(coords)


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
    with its residue and reason.  Only kept classes get an extension and an
    image, so a dropped class costs its pairings alone.
    """
    p = c.p
    p2 = p * p
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
            records.append(ClassRecord(kappa.coeffs, "dropped", residue.value, reason=reason))
            continue
        if not residue.in_subgroup(p):
            raise ValueError(
                f"class {kappa.coeffs} is kept but does not extend across the blowdown "
                f"(boundary {residue.value} mod {p * p})"
            )
        ext = _extension(c, kappa, g)
        e = HClass(c.ambient, ext)
        if keep is None and pairing(e, e) != (pairing(kappa, kappa) + p - 1) * p2 * p2:
            raise RuntimeError("extension square does not shift by p-1 on a taut survivor")
        extensions.append(ext)
        qext = tuple(Fraction(a, p2) for a in ext)
        records.append(ClassRecord(kappa.coeffs, "kept", residue.value, qext, reason=reason))
    lat, basis = _blown_down_lattice(c, extensions, image_names)
    kept = iter(extensions)
    records = [
        ClassRecord(r.source, r.status, r.residue, r.extension, _rebase(next(kept), basis), r.reason)
        if r.extension
        else r
        for r in records
    ]
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
    terms = [(r.image, m.kernel.num[r.source]) for r in records if r.status == "kept"]
    kernel = ExpKernel(lat, terms).scale(Fraction(2 ** (p - 1), m.kernel.den))
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
    if pairing(sigma, sigma) != -4:
        raise ValueError("the sphere class must have square -4")
    k2 = m.kernel - twist(m.kernel, sigma)
    classes = m.basic_classes()
    keep = [bool(k2.coeff(kappa)) for kappa in classes]
    lat, records = chain_pushoff(ChainConfig(2, m.lattice, [sigma]), classes, keep, image_names)
    terms = [(r.image, k2.num[r.source]) for r in records if r.status == "kept"]
    kernel = ExpKernel(lat, terms).scale(Fraction(1, k2.den))
    series = ManifoldSeries(kernel, m.euler - 1, m.signature + 1)
    return BlowdownResult(series, tuple(records))


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

    def __init__(
        self, lattice: IntersectionLattice, index: int, divisor: int, step: int, order: int
    ):
        set_field(self, "lattice", lattice)
        set_field(self, "index", index)
        set_field(self, "divisor", divisor)
        set_field(self, "step", step)
        set_field(self, "order", order)

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
    row = lattice.num[idx]
    if row[idx] != 0:
        raise ValueError("fiber direction must have square zero")
    # den * key . s / mult for every key at once, one Gram entry at a time
    dots = [0] * len(keys)
    for col, g in zip(zip(*keys), row):
        if g:
            dots = list(map(add, dots, map(mul, col, repeat(g))))
    if any(dots):
        raise ValueError(f"class {min(compress(keys, dots))} is not orthogonal to the fiber")
    d = p // gcd(mult, p)
    if d > 1:
        old = lattice.basis_class(lattice.basis_names[idx])
        lattice = refined_lattice(lattice, old, d, _refined_name(lattice.basis_names[idx], d))
    return LogPlacement(lattice, idx, d, mult * d // p, p)


def log_transform(m: ManifoldSeries, s: HClass, p: int) -> ManifoldSeries:
    """Order-p logarithmic transform along the fiber class s.

    The fiber direction is refined so s/p becomes integral and the kernel is
    multiplied by the p-term ladder e^{(p-1)s/p} + e^{(p-3)s/p} + ... +
    e^{-(p-1)s/p}.  Euler number and signature are unchanged.
    """
    place = log_placement(m.lattice, m.kernel.num, s, p)
    num: dict[tuple[int, ...], int] = {}
    for key, a in m.kernel.num.items():
        for img in place.ladder(key):
            num[img] = num.get(img, 0) + a
    kernel = ExpKernel._from_ints(place.lattice, num, m.kernel.den)
    return ManifoldSeries(kernel, m.euler, m.signature)


def formal_log_coefficients(p: int) -> list[tuple[int, Fraction]]:
    """Coefficients of sinh(p*u)/sinh(u) as (exponent, coefficient) pairs,
    exponent descending.  Computed by exact Laurent division on a scratch
    rank-1 lattice, not written down: the all-ones answer is a theorem here."""
    if p < 1:
        raise ValueError("order must be >= 1")
    scratch = IntersectionLattice(["u"], [[Fraction(0)]])
    u = scratch.basis_class("u")
    q = exact_div(sinh_c(u * p), sinh_c(u))
    return sorted(((key[0], c) for key, c in q.terms.items()), reverse=True)


def _exceptional_chain_spheres(
    lat: IntersectionLattice, exc_names: Sequence[str], s_coeffs: tuple[int, ...]
) -> list[HClass]:
    """The chain of length p-1 carried by p-1 exceptional directions: sphere i
    has row i of _nodal_matrix(p) as its coordinates along them, and the end
    sphere also carries the fiber class s_coeffs (zero for no fiber)."""
    at = [lat.index(n) for n in exc_names]
    spheres = []
    for row in _nodal_matrix(len(exc_names) + 1):
        coeffs = [0] * lat.rank
        for k, a in zip(at, row):
            coeffs[k] = a
        spheres.append(coeffs)
    spheres[-1] = list(map(add, spheres[-1], s_coeffs))
    return [HClass(lat, tuple(c)) for c in spheres]


def _nodal_matrix(p: int) -> list[list[int]]:
    """A: row i holds the coordinates of the i-th sphere of the exceptional
    chain (no fiber) in the exceptional directions e_1, ..., e_{p-1}."""
    n = p - 1
    a = [[0] * n for _ in range(n)]
    for i in range(1, p - 1):
        a[i - 1][p - i - 2], a[i - 1][p - i - 1] = 1, -1
    a[n - 1] = [-2] + [-1] * (n - 1)
    return a


def verify_nodal_matrix_identity(p: int) -> bool:
    """Exact integer checks of the linear algebra behind the nodal-chain
    extension.  With A the change-of-basis matrix of the exceptional chain
    and S = p^2 P^{-1} (scaled_plumbing_inverse): P = -A A^t, which is
    P (A^t)^{-1} = -A; A^t S A = -p^2 I; and the end coordinate of
    S A (1,...,1) equals p(p-1), that is (p-1)/p over p^2.  A wrong A gives
    False, never an error."""
    if p < 2:
        raise ValueError("need p >= 2")
    n, p2 = p - 1, p * p
    a, s = _nodal_matrix(p), scaled_plumbing_inverse(p)
    if plumbing_matrix(p) != [[-x for x in mat_vec(a, row)] for row in a]:
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
    p.  Raises RuntimeError on a mismatch."""
    up = blown_up_lattice(m.lattice, p - 1)
    pad = (0,) * (p - 1)
    s_up = HClass(up, (s.coeffs if s is not None else (0,) * m.lattice.rank) + pad)
    exc_names = up.basis_names[m.lattice.rank :]
    config = ChainConfig(p, up, _exceptional_chain_spheres(up, exc_names, s_up.coeffs))
    step = s_up * Fraction(1, p)
    checks = [(k, k.as_q(), 0) for k in (HClass(up, key + pad) for key in m.kernel.num)]
    checks += [(up.basis_class(name), step, p) for name in exc_names]
    for kappa, want, b in checks:
        r = restrict_class(config, kappa)
        if r.extension != want or r.boundary.value != b:
            raise RuntimeError(
                f"nodal push-off of {kappa.coeffs}: got extension {r.extension.coeffs} "
                f"with boundary {r.boundary.value}, expected {want.coeffs} with boundary {b}"
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
    kernel = ExpKernel(place.lattice, terms).scale(Fraction(1, m.kernel.den))
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
